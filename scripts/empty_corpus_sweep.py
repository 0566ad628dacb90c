"""Run every registered query against an EMPTY corpus (zero-row tables
with the real schemas) and report crashes.

The ADVICE rounds repeatedly surfaced empty-input crashes (null-typed
``pa.array([])`` in a semi-join, ``np.repeat`` shape mismatch on an
empty chunk batch, ...).  This sweep pins the repo-wide contract:
*every* ``queries()`` entry must return an empty (or fixture-derived)
result on a zero-row corpus, never raise.

Usage:
    python scripts/empty_corpus_sweep.py [--only q1,q2] [--src SF_DIR]
        [--rows N [--edge-texts]]

``--edge-texts`` (with ``--rows N``, N >= 4) overwrites the ``text`` of
the first four ``documents`` rows with the texts the testdata never
holds: a null, an empty string, doubled/leading/trailing spaces and
non-ASCII words (``EDGE_TEXTS``).

Owns its Ray session (script mode, per CLAUDE.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


EDGE_TEXTS = [None, "", "  a  b ", "café naïve 日本語 café cafe naive"]


def make_empty_corpus(
    src: str, dst: str, rows: int = 0, edge_texts: bool = False
) -> None:
    """Write a degenerate clone of every table: zero rows (schema only)
    when ``rows == 0``, else the first ``rows`` real rows — the n=1 case
    exercises the n<2 branches (singleton groups, variance-of-one,
    no-pair similarity) that empty tables skip entirely. ``edge_texts``
    puts ``EDGE_TEXTS`` in the first ``documents`` rows."""
    os.makedirs(dst, exist_ok=True)
    for f in sorted(os.listdir(src)):
        if f.endswith(".parquet"):
            if rows == 0:
                sch = pq.read_schema(os.path.join(src, f))
                pq.write_table(sch.empty_table(), os.path.join(dst, f))
            else:
                t = pq.read_table(os.path.join(src, f)).slice(0, rows)
                if edge_texts and f == "documents.parquet":
                    i = t.schema.get_field_index("text")
                    field = t.schema.field(i)
                    texts = EDGE_TEXTS + t.column(i).to_pylist()[len(EDGE_TEXTS) :]
                    t = t.set_column(i, field, pa.array(texts, field.type))
                pq.write_table(t, os.path.join(dst, f))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", default="/root/testdata/sf0.001")
    ap.add_argument("--dst", default="/tmp/sf_empty")
    ap.add_argument("--only", default=None)
    ap.add_argument(
        "--rows", type=int, default=0, help="0 = empty tables; N = first N rows"
    )
    ap.add_argument(
        "--edge-texts",
        action="store_true",
        help="with --rows N >= 4: the first four documents get EDGE_TEXTS",
    )
    args = ap.parse_args()
    if args.edge_texts and args.rows < len(EDGE_TEXTS):
        ap.error(f"--edge-texts needs --rows >= {len(EDGE_TEXTS)}")

    make_empty_corpus(args.src, args.dst, rows=args.rows, edge_texts=args.edge_texts)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
        )

    import __ray_entry__ as e

    qs = e.queries()
    only = set(args.only.split(",")) if args.only else None
    crashes: list[str] = []
    for i, (name, fn) in enumerate(sorted(qs.items())):
        if only and name not in only:
            continue
        try:
            out = fn(args.dst)
            if isinstance(out, ray.data.Dataset):
                n = out.count()
            elif isinstance(out, pa.Table):
                n = out.num_rows
            else:
                n = len(out)
            print(f"[{i + 1}/{len(qs)}] {name}: OK rows={n}", flush=True)
        except Exception:
            crashes.append(name)
            print(f"[{i + 1}/{len(qs)}] {name}: CRASH", flush=True)
            traceback.print_exc()

    print(f"\nCRASHES: {len(crashes)}")
    for name in crashes:
        print(f"  {name}")
    ray.shutdown()
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
