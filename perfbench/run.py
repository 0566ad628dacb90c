#!/usr/bin/env python3
"""Seeded single-core benchmark of the pdfplumber_ray extraction pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 25 --trace 0

Workloads are ``mixed``, ``prose`` and ``pdf`` (see perfbench/README.md).
The inputs are built from ``--seed`` and written to Parquet before any
timing. With ``--trace 0`` the run starts Ray three times, reports the
median set-up time, then runs and checks whole passes of the pipeline until
``--seconds`` of wall clock have passed. With ``--trace 1`` it runs
one Ray pass for Ray's per-operator stats and then the same stage callables
in this process, once untraced and once with every layer's public functions
wrapped in spans. Every output document is checked in both modes.

The last line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``. The line before it holds the run context, which is
also written, with the layer breakdown and the spans, to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

RAY_CPUS = 1
SETUPS = 3                  # Ray start-ups per untraced run; setup_s is their median
DOCS = {"mixed": 600, "prose": 800, "pdf": 96}
WARM_DOCS = {"mixed": 64, "prose": 64, "pdf": 8}
RSS_PASSES = 2              # peak_rss_mb is read after this many timed passes,
                            # so it does not grow with the number of passes a
                            # faster program fits into --seconds
DOCS_PER_BLOCK = 100        # read blocks, so one task never holds the whole input
PDFS_PER_BATCH = 8
OBJECT_STORE_BYTES = 512 * 1024 * 1024

SKIPPED = {
    "real_pdf": "the 52 reference PDFs are not in the repository; "
    "the pdf workload decodes generated PDFs instead",
    "near_dup": "minhash_pairs_ds makes no progress on a 1-CPU Ray cluster "
    "(perfbench/README.md, known gaps)",
}
# layers whose metrics are only reported for the workloads that run them
LAYERS_RUN = {
    "mixed": ("layout", "flatten"),
    "prose": ("layout", "flatten"),
    "pdf": ("pdfio", "text"),
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(DOCS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---- the pipelines, through the public entry points ----


class DocsWorkload:
    """``read_docs`` -> ``extract_spans_ds`` over interleaved documents."""

    def __init__(self, name: str, seed: int, run_dir: str):
        import pyarrow.parquet as pq

        import inputs

        self.name = name
        t0 = time.perf_counter()
        make = inputs.mixed_docs if name == "mixed" else inputs.prose_docs
        self.expected = make(DOCS[name], seed)
        self.path = os.path.join(run_dir, "docs.parquet")
        self.warm_path = os.path.join(run_dir, "warm.parquet")
        pq.write_table(self.expected, self.path, row_group_size=DOCS_PER_BLOCK)
        pq.write_table(self.expected.slice(0, WARM_DOCS[name]), self.warm_path)
        self.gen_s = time.perf_counter() - t0
        self.census = inputs.docs_census(self.expected)
        self.docs = self.expected.num_rows

    def run_ray(self, cfg, warm: bool = False) -> Dict[str, Any]:
        from pdfplumber_ray.pipelines import extract_spans_ds, read_docs

        path = self.warm_path if warm else self.path
        n = WARM_DOCS[self.name] if warm else self.docs
        docs = read_docs(path, override_num_blocks=max(1, n // DOCS_PER_BLOCK))
        return {"spans": extract_spans_ds(docs, cfg).materialize()}

    def check(self, out: Dict[str, Any]) -> set:
        import check

        table = _collect(out["spans"])
        self.census["pages"] = int(table.column("n_pages").to_numpy().sum())
        return check.check_spans(table, self.expected)

    def run_local(self, cfg, ab) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The stage callable of ``extract_spans_ds`` in this process, on
        the batches Ray would give it, each batch through ``ab``."""
        from pdfplumber_ray.stages import decode

        stage = decode.ExtractSpans(cfg)
        outs = [
            ab(stage, self.expected.slice(i, cfg.batch_size))
            for i in range(0, self.docs, cfg.batch_size)
        ]
        return tuple({"spans": _concat(outs, k)} for k in (0, 1))

    def check_local(self, out: Dict[str, Any]) -> set:
        import check

        return check.check_spans(out["spans"], self.expected)


class PdfWorkload:
    """``decode_pdf_batch`` -> ``page_text_ds`` and ``tables_ds`` over
    generated PDFs."""

    def __init__(self, name: str, seed: int, run_dir: str):
        import pyarrow.parquet as pq

        import inputs

        self.name = name
        t0 = time.perf_counter()
        self.table, self.expected = inputs.pdf_docs(DOCS[name], seed)
        self.path = os.path.join(run_dir, "pdfs.parquet")
        self.warm_path = os.path.join(run_dir, "warm.parquet")
        pq.write_table(self.table, self.path, row_group_size=PDFS_PER_BATCH)
        pq.write_table(self.table.slice(0, WARM_DOCS[name]), self.warm_path)
        self.gen_s = time.perf_counter() - t0
        self.census = inputs.pdf_census(self.table, self.expected)
        self.docs = self.table.num_rows

    def run_ray(self, cfg, warm: bool = False) -> Dict[str, Any]:
        from pdfplumber_ray.pdfio import decode_pdf_batch
        from pdfplumber_ray.pipelines import page_text_ds, read_docs, tables_ds

        path = self.warm_path if warm else self.path
        n = WARM_DOCS["pdf"] if warm else self.docs
        pages = (
            read_docs(path, override_num_blocks=max(1, n // PDFS_PER_BATCH))
            .map_batches(
                decode_pdf_batch,
                batch_size=PDFS_PER_BATCH,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .materialize()
        )
        return {
            "pages": pages,
            "text": page_text_ds(pages, cfg=cfg).materialize(),
            "tables": tables_ds(pages, cfg=cfg).materialize(),
        }

    def check(self, out: Dict[str, Any]) -> set:
        import check

        return check.check_pdf(
            _collect(out["pages"]), _collect(out["text"]), _collect(out["tables"]),
            self.expected,
        )

    def run_local(self, cfg, ab) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        from pdfplumber_ray.pdfio import reader
        from pdfplumber_ray.stages import decode

        # looked up at call time, so the traced call gets the wrapper
        decode_batch = lambda b: reader.decode_pdf_batch(b)  # noqa: E731
        decoded = [
            ab(decode_batch, self.table.slice(i, PDFS_PER_BATCH))
            for i in range(0, self.docs, PDFS_PER_BATCH)
        ]
        pages = _concat(decoded, 0)
        to_text = decode.PagesToText()
        to_tables = decode.PagesToTables()
        step = cfg.batch_size
        batches = [pages.slice(i, step) for i in range(0, pages.num_rows, step)]
        text = [ab(to_text, b) for b in batches]
        tables = [ab(to_tables, b) for b in batches]
        return tuple(
            {
                "pages": _concat(decoded, k),
                "text": _concat(text, k),
                "tables": _concat(tables, k),
            }
            for k in (0, 1)
        )

    def check_local(self, out: Dict[str, Any]) -> set:
        import check

        return check.check_pdf(out["pages"], out["text"], out["tables"], self.expected)


def _concat(pairs: List[Tuple[Any, Any]], k: int) -> Any:
    import pyarrow as pa

    return pa.concat_tables([p[k] for p in pairs])


def _collect(ds) -> Any:
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


# ---- Ray session ----


def ray_start() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        # a short absolute path into the checkout: Unix socket paths under
        # the session directory must stay below 108 bytes
        _temp_dir=f"/proc/{os.getpid()}/cwd/{os.path.relpath(TMP_DIR, ROOT)}/ray",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def ray_stop() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    import procstat

    procs = procstat.snapshot(procstat.descendants(os.getpid()))
    ray.shutdown()
    procstat.reap(procs)


def setup(work, cfg) -> float:
    """Seconds for ``ray.init`` plus worker start plus the first warm pass."""
    t0 = time.perf_counter()
    ray_start()
    work.run_ray(cfg, warm=True)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Put the driver and every Ray process on one CPU for the timed passes.

    Spread over the CPUs of a shared host, each hand-off between the driver,
    the raylet and the worker waits until the host runs the CPU it goes to,
    and that wait swung pass times by a fifth from run to run. Set-up stays
    unpinned: Ray starts its helper processes side by side."""
    import procstat

    procstat.pin_tree(os.getpid(), min(os.sched_getaffinity(0)))


def peak_rss_mb() -> Tuple[float, Dict[str, float]]:
    """VmHWM summed over this driver and the Ray worker processes."""
    import procstat

    me = os.getpid()
    driver = procstat.hwm_mb(me)
    workers = {
        str(p): procstat.hwm_mb(p)
        for p in procstat.descendants(me)
        if procstat._cmdline(p).startswith("ray::")
    }
    return driver + sum(workers.values()), {"driver": driver, **workers}


# ---- op stats ----


def ray_op_stats(datasets: List[Any]) -> Tuple[Dict[str, float], List[Dict], str]:
    """Per-operator totals from ``ds.stats()`` of the materialized
    datasets."""
    ops: List[Dict] = []

    def walk(summary) -> None:
        for op in summary.operators_stats:
            ops.append(
                {
                    "operator": op.operator_name,
                    "tasks": (op.task_rows or {}).get("count", 0),
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "udf_s": (op.udf_time or {}).get("sum", 0.0),
                    "start": op.earliest_start_time,
                }
            )
        for parent in summary.parents:
            walk(parent)

    text = []
    for ds in datasets:
        walk(ds._get_stats_summary())
        text.append(ds.stats())
    # the same upstream operator is listed under every dataset built on it
    unique = list({(o["operator"], o["start"]): o for o in ops}.values())
    read = sum(o["wall_s"] for o in unique if o["operator"].startswith("Read"))
    rest = [o for o in unique if not o["operator"].startswith("Read")]
    summary = {
        "read_op_s": read,
        "extract_op_s": sum(o["wall_s"] for o in rest),
        "tasks": float(sum(o["tasks"] for o in unique)),
        "cpu_s": sum(o["cpu_s"] for o in unique),
    }
    return summary, unique, "\n".join(text)


# ---- runs ----


def timed_run(work, cfg, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    import procstat

    me = os.getpid()
    setups: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    failed: set = set()
    attempted = 0
    try:
        for i in range(SETUPS):
            if i:
                ray_stop()
            setups.append(setup(work, cfg))
        pin_to_one_cpu()
        start = time.perf_counter()
        # the checks count toward --seconds, so a run's length does not
        # depend on how fast the program is
        while len(walls) < RSS_PASSES or time.perf_counter() - start < seconds:
            c0 = procstat.tree_cpu_s(me)
            t0 = time.perf_counter()
            out = work.run_ray(cfg)
            walls.append(time.perf_counter() - t0)
            cpus.append(procstat.tree_cpu_s(me) - c0)
            attempted += work.docs
            failed |= {(len(walls), d) for d in work.check(out)}
            del out
            if len(walls) == RSS_PASSES:
                rss, rss_parts = peak_rss_mb()
    finally:
        ray_stop()
    # medians over passes: a pass that a busy host slowed does not move them
    metrics = {
        "docs_per_s": statistics.median(work.docs / w for w in walls),
        "cpu_ms_per_doc": statistics.median(c * 1000.0 / work.docs for c in cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    context = {
        "setup_s_runs": setups,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "peak_rss_mb_by_process": rss_parts,
        "attempted": attempted,
        "failed": len(failed),
    }
    return metrics, context


def traced_run(work, cfg) -> Tuple[Dict[str, float], Dict[str, Any]]:
    import trace

    # one pass on Ray for its per-operator stats
    try:
        setup(work, cfg)
        pin_to_one_cpu()
        t0 = time.perf_counter()
        out = work.run_ray(cfg)
        wall = time.perf_counter() - t0
        failed = {("ray", d) for d in work.check(out)}
        ray_summary, ray_ops, ray_text = ray_op_stats(list(out.values()))
        del out
    finally:
        ray_stop()

    # the same stage callables in this process, every batch once untraced
    # and once traced, so both see the same state of a noisy host
    tracer = trace.Tracer()
    ab = trace.ABRunner(trace.layer_patches(tracer))
    plain, traced = work.run_local(cfg, ab)
    fused_s, traced_s = ab.plain_s, ab.traced_s
    failed |= {("local", d) for d in work.check_local(plain)}
    failed |= {("traced", d) for d in work.check_local(traced)}
    del plain, traced

    pages = int(tracer.counts["decode.pages"])
    common, specific = trace.layer_metrics(tracer, work.docs, pages)
    own, _, _ = tracer.self_times()
    metrics = dict(common)
    metrics.update(
        {
            "ray.read_op_s": ray_summary["read_op_s"],
            "ray.extract_op_s": ray_summary["extract_op_s"],
            "ray.tasks": ray_summary["tasks"],
            "ray.overhead_ms_per_doc": (wall - ray_summary["cpu_s"]) * 1000.0 / work.docs,
        }
    )
    layer_sum_s = sum(own.values())
    context = {
        "layers_run_only_here": {
            k: v for k, v in specific.items() if k.split(".")[0] in LAYERS_RUN[work.name]
        },
        "layer_self_ms_per_doc": {k: v * 1000.0 / work.docs for k, v in own.items()},
        "fused_cpu_s": fused_s,
        "traced_cpu_s": traced_s,
        "layer_sum_s": layer_sum_s,
        "layer_sum_vs_fused": layer_sum_s / fused_s - 1.0,
        "tracing_overhead": traced_s / fused_s - 1.0,
        "ray_pass_wall_s": wall,
        "ray_ops": ray_ops,
        "ds_stats": ray_text,
        "spans": tracer.dump(),
        "counts": dict(tracer.counts),
        "attempted": 3 * work.docs,
        "failed": len(failed),
        "failed_by_pass": {p: sum(1 for q, _ in failed if q == p) for p in ("ray", "local", "traced")},
    }
    return metrics, context


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _nproc() -> Optional[int]:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(TMP_DIR, exist_ok=True)
    # the program under test comes from this checkout, in the driver and in
    # every Ray worker; temporary files stay inside the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_TMPDIR"] = TMP_DIR
    os.environ["TMPDIR"] = TMP_DIR
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, ROOT)
    try:
        import pdfplumber_ray
    except ImportError as exc:
        print(f"perfbench: no program to run in {ROOT}: {exc}", file=sys.stderr)
        return 2
    if not os.path.realpath(pdfplumber_ray.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        print(f"perfbench: pdfplumber_ray is not from {ROOT}", file=sys.stderr)
        return 2

    from pdfplumber_ray.config import PipelineConfig

    cfg = PipelineConfig()
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        cls = PdfWorkload if args.workload == "pdf" else DocsWorkload
        work = cls(args.workload, args.seed, run_dir)
        if args.trace:
            metrics, detail = traced_run(work, cfg)
        else:
            metrics, detail = timed_run(work, cfg, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(TMP_DIR, "ray"), ignore_errors=True)

    units = _units(args.trace)
    attempted, failed = detail.pop("attempted"), detail.pop("failed")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": _nproc(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "ray_cpus": RAY_CPUS,
        "python": platform.python_version(),
        "census": work.census,
        "input_gen_s": work.gen_s,
        "failed_frac": failed / attempted,
        "skipped": SKIPPED,
        **detail,
    }
    spans = context.pop("spans", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    report = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as f:
        json.dump({**context, "metrics": metrics, "spans": spans}, f)
    brief = {k: v for k, v in context.items() if k not in ("ds_stats", "ray_ops")}
    print(json.dumps({"context": brief}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _units(trace: int) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
