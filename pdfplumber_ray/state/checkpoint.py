"""Resumable partitioned extraction with per-partition lineage + metrics.

Output layout (SURVEY.md §4 checkpoint/resume design)::

    out_dir/
      part=<pid>/<uuid>.parquet   # OUT_SPANS rows for one input shard
      _SUCCESS.<pid>              # atomic completion marker
      manifest.jsonl              # one line per completed partition:
                                  #   pid, input file, fingerprint (size+mtime),
                                  #   docs/pages/spans/errors, wall seconds

A partition == one input shard file (a block never spans files, so every
map task sees rows of exactly one partition). On resume, shards whose
``_SUCCESS`` marker exists are skipped at the *read* (never re-decoded);
partially-written partitions are wiped and re-run. A failed run therefore
costs at most the unfinished partitions.

The writer is a ``map_batches`` stage: each task appends one parquet file
to its partition dir and emits a small metrics row; only the metrics rows
flow back to the driver (never the data).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import PipelineConfig


def _part_id(path: str) -> str:
    base = os.path.basename(path)
    return os.path.splitext(base)[0]


def _success_path(out_dir: str, pid: str) -> str:
    return os.path.join(out_dir, f"_SUCCESS.{pid}")


def list_pending_shards(input_paths: List[str], out_dir: str) -> List[str]:
    pending = []
    for p in input_paths:
        pid = _part_id(p)
        if os.path.exists(_success_path(out_dir, pid)):
            continue
        # wipe partial output from a previous failed run
        part_dir = os.path.join(out_dir, f"part={pid}")
        if os.path.isdir(part_dir):
            shutil.rmtree(part_dir)
        pending.append(p)
    return pending


def _writer_stage(out_dir: str):
    def write_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rows = []
        # a task bundle may mix blocks from adjacent input files — split by
        # source path so every output file lands in exactly one partition
        for path in pc.unique(batch.column("_input_path")).to_pylist():
            t0 = time.perf_counter()
            sub = batch.filter(pc.equal(batch.column("_input_path"), path))
            pid = _part_id(path)
            data = sub.drop_columns(["_input_path"])
            part_dir = os.path.join(out_dir, f"part={pid}")
            os.makedirs(part_dir, exist_ok=True)
            fname = os.path.join(part_dir, f"{uuid.uuid4().hex}.parquet")
            pq.write_table(data, fname)
            n_err = int(pc.sum(pc.is_valid(data.column("error"))).as_py() or 0)
            n_spans = int(
                pc.sum(pc.list_value_length(data.column("spans"))).as_py() or 0
            )
            rows.append(
                {
                    "pid": pid,
                    "input_path": path,
                    "docs": data.num_rows,
                    "pages": int(pc.sum(data.column("n_pages")).as_py() or 0),
                    "spans": n_spans,
                    "errors": n_err,
                    "wall_sec": time.perf_counter() - t0,
                }
            )
        return pa.Table.from_pylist(rows)

    return write_batch


def run_resumable_extract(
    input_dir: str,
    out_dir: str,
    cfg: Optional[PipelineConfig] = None,
) -> Dict:
    """Extract ``input_dir`` shards into ``out_dir`` partitions, skipping
    partitions already marked complete. Returns the job summary."""
    import glob

    import ray.data

    from ..stages.decode import ExtractSpans

    cfg = cfg or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)
    shards = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not shards:
        raise FileNotFoundError(f"no parquet shards under {input_dir}")
    pending = list_pending_shards(shards, out_dir)
    skipped = len(shards) - len(pending)
    t0 = time.perf_counter()
    summary: Dict = {
        "partitions_total": len(shards),
        "partitions_skipped": skipped,
        "partitions_run": len(pending),
    }
    if not pending:
        summary["wall_sec"] = 0.0
        return summary

    docs = ray.data.read_parquet(pending, include_paths=True)

    def keep_path(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["_input_path" if c == "path" else c for c in batch.column_names]
        )

    docs = docs.map_batches(keep_path, batch_format="pyarrow", zero_copy_batch=True)

    # the fused extract stage does not pass unknown columns through, so a
    # wrapper re-attaches the path column by position
    extract = ExtractSpans(cfg)

    def extract_keep_path(batch: pa.Table) -> pa.Table:
        out = extract(batch.drop_columns(["_input_path"]))
        return out.append_column("_input_path", batch.column("_input_path"))

    out = docs.map_batches(
        extract_keep_path,
        batch_size=cfg.batch_size,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    metrics_ds = out.map_batches(
        _writer_stage(out_dir), batch_format="pyarrow", zero_copy_batch=True
    )
    metrics = metrics_ds.to_pandas()  # tiny: one row per task

    # finalize: per-partition manifest + atomic _SUCCESS markers
    agg = metrics.groupby(["pid", "input_path"], as_index=False)[
        ["docs", "pages", "spans", "errors", "wall_sec"]
    ].sum()
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest_path, "a") as mf:
        for row in agg.itertuples():
            st = os.stat(row.input_path)
            rec = {
                "pid": row.pid,
                "input_path": row.input_path,
                "fingerprint": f"{st.st_size}:{int(st.st_mtime)}",
                "docs": int(row.docs),
                "pages": int(row.pages),
                "spans": int(row.spans),
                "errors": int(row.errors),
                "task_wall_sec": float(row.wall_sec),
                "finished_at": time.time(),
            }
            mf.write(json.dumps(rec) + "\n")
            marker = _success_path(out_dir, row.pid)
            tmp = marker + ".tmp"
            with open(tmp, "w") as f:
                f.write(rec["fingerprint"])
            os.replace(tmp, marker)

    summary.update(
        {
            "wall_sec": round(time.perf_counter() - t0, 3),
            "docs": int(agg.docs.sum()),
            "pages": int(agg.pages.sum()),
            "spans": int(agg.spans.sum()),
            "errors": int(agg.errors.sum()),
            "docs_per_sec": round(
                float(agg.docs.sum()) / max(time.perf_counter() - t0, 1e-9), 1
            ),
        }
    )
    return summary
