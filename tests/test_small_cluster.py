"""Every stage runs on a 1-CPU cluster.

Stage classes run one way (``pipelines.extract.stage_map_batches``): an
instance built on the driver, run as ``map_batches`` tasks. An actor pool
with a minimum size above the cluster's CPU count waits forever for its
actors, so a 1-CPU run of the stages that used one is the regression test.

Run as ``python tests/test_small_cluster.py DATA_DIR`` (inputs written by
``write_inputs``), this module starts its own 1-CPU Ray cluster and prints
the rows of every stage as JSON.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pyarrow as pa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120


def _rows(ds) -> list:
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in ds.take_all())


def _text_docs() -> pa.Table:
    """40 random docs plus a light edit of each of the first five."""
    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, 60).tolist()) for _ in range(40)]
    for i in range(5):
        toks = texts[i].split(" ")
        toks[7] = "EDITED"
        texts.append(" ".join(toks))
    ids = list(range(40)) + [100 + i for i in range(5)]
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})


def write_inputs(data_dir: str) -> None:
    """Small deterministic inputs, one parquet file per stage family."""
    import pyarrow.parquet as pq

    from pdfplumber_ray.sources.synth_corpus import (
        docs_with_boilerplate_batch,
        make_docs_table,
    )

    text = _text_docs()
    tables = {
        "text": text,
        "boilerplate": docs_with_boilerplate_batch(text.slice(0, 40)),
        "ids": pa.table({"doc_id": pa.array([0, 5, 1030, 42, 7, 300], pa.int64())}),
        "docs": make_docs_table(24, seed=42),
    }
    for name, table in tables.items():
        pq.write_table(table, os.path.join(data_dir, f"{name}.parquet"))


def stage_rows(data_dir: str) -> dict:
    """Rows of every stage that once ran on an actor pool, plus the
    flagship extraction. Inputs come from parquet read tasks: a read task
    needs a CPU, which a pool minimum above the cluster's CPUs never
    frees."""
    from pdfplumber_ray.config import PipelineConfig
    from pdfplumber_ray.pipelines import extract_spans_ds, read_docs
    from pdfplumber_ray.pipelines.corpus_ops import lsh_bucket_stats_ds, minhash_pairs_ds
    from pdfplumber_ray.pipelines.main_content import strip_boilerplate_ds
    from pdfplumber_ray.pipelines.media import media_decode_ds

    def read(name: str):
        return read_docs(os.path.join(data_dir, f"{name}.parquet"), override_num_blocks=4)

    return {
        "minhash_pairs": _rows(minhash_pairs_ds(read("text"), threshold=0.5)),
        "lsh_bucket_stats": _rows(lsh_bucket_stats_ds(read("text"))),
        "strip_boilerplate": _rows(strip_boilerplate_ds(read("boilerplate"))),
        "media_decode": _rows(media_decode_ds(read("ids"))),
        "extract_spans": _rows(
            extract_spans_ds(read("docs"), PipelineConfig(batch_size=8))
        ),
    }


def test_one_cpu_cluster_matches_four(ray_session, tmp_path):
    write_inputs(str(tmp_path))
    expected = stage_rows(str(tmp_path))
    assert expected["minhash_pairs"] and expected["strip_boilerplate"]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == expected


_POOL_RE = re.compile(
    r"concurrency=|fn_constructor_kwargs|use_actors|_ACTOR_POOL|worker_singleton"
)


def test_no_actor_pool_or_instance_cache():
    paths = [os.path.join(REPO, "__ray_entry__.py")]
    for root, _, files in os.walk(os.path.join(REPO, "pdfplumber_ray")):
        paths += [os.path.join(root, f) for f in files if f.endswith(".py")]
    hits = [
        f"{os.path.relpath(p, REPO)}:{i}: {line.strip()}"
        for p in paths
        for i, line in enumerate(open(p, encoding="utf-8"), 1)
        if _POOL_RE.search(line)
    ]
    assert hits == []

    from pdfplumber_ray.config import PipelineConfig

    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert not fields & {"use_actors", "concurrency", "num_cpus"}


if __name__ == "__main__":
    import ray

    sys.path.insert(0, REPO)
    ray.init(
        address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR"
    )
    try:
        print(json.dumps(stage_rows(sys.argv[1])))
    finally:
        ray.shutdown()
