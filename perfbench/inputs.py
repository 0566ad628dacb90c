"""Seeded workload inputs and their expected outputs.

Each workload is built from ``--seed`` alone and written to Parquet before
anything is timed; the pipelines read only those files.

* ``mixed``: documents of ``make_doc_spans``, the generator behind
  ``make_docs_table``. The seed picks which document indices are used, so
  that the base span counts of the chosen documents are the same for every
  seed: the ``n`` quantiles of the generator's own lognormal draw. Exactly
  1 % of them are pathological: 100x the median span count, as FIXTURES.md
  section 1 defines them. A seed changes content, not the amount of work.
* ``prose``: the same documents with the ``table_cell`` spans removed and
  offsets reassigned by ``assign_offsets``.
* ``pdf``: PDFs from :mod:`pdfgen`, one row per document with its bytes.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdfplumber_ray.schemas import SPAN
from pdfplumber_ray.sources.synth_corpus import (
    KIND_CELL,
    assign_offsets,
    make_doc_spans,
)

import pdfgen

PATHOLOGICAL_SHARE = 0.01
POOL = 8            # candidate document indices per document chosen


def _base_span_count(seed: int, doc_index: int) -> int:
    """The span count ``make_doc_spans`` draws before the pathological
    multiplier: its first draw from the document's own generator."""
    rng = np.random.default_rng((seed, doc_index))
    return int(rng.lognormal(2.5, 0.6)) + 4


def _target_counts(n_docs: int) -> List[int]:
    """Seed-independent base span counts: the ``n_docs`` quantiles of the
    draw in :func:`_base_span_count`."""
    dist = statistics.NormalDist(2.5, 0.6)
    return [int(math.exp(dist.inv_cdf((k + 0.5) / n_docs))) + 4 for k in range(n_docs)]


def _chosen_docs(n_docs: int, seed: int) -> Tuple[List[int], List[int]]:
    """(document indices in ascending order, the pathological ones among
    them). Each target count takes the lowest unused index of a seeded pool
    with that base count, or with the nearest count where the pool has none
    left."""
    by_count: Dict[int, List[int]] = {}
    for i in range(POOL * n_docs):
        by_count.setdefault(_base_span_count(seed, i), []).append(i)
    for bucket in by_count.values():
        bucket.reverse()
    chosen: Dict[int, int] = {}
    for target in _target_counts(n_docs):
        near = min((c for c, b in by_count.items() if b), key=lambda c: (abs(c - target), c))
        chosen[by_count[near].pop()] = target
    median = int(np.median(list(chosen.values())))
    candidates = sorted(i for i, c in chosen.items() if c == median)
    k = max(1, round(n_docs * PATHOLOGICAL_SHARE))
    rng = np.random.default_rng((seed, n_docs))
    heavy = sorted(int(i) for i in rng.choice(candidates, size=k, replace=False))
    return sorted(chosen), heavy


def _docs_table(doc_ids: List[str], spans: List[List[Dict]]) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": pa.array(spans, pa.list_(SPAN)),
        }
    )


def _mixed_spans(n_docs: int, seed: int) -> Tuple[List[str], List[List[Dict]]]:
    indices, heavy = _chosen_docs(n_docs, seed)
    doc_ids = [f"doc-{i:08d}" for i in indices]
    spans = [
        make_doc_spans(i, seed=seed, pathological_rate=1.0 if i in heavy else 0.0)
        for i in indices
    ]
    return doc_ids, spans


def mixed_docs(n_docs: int, seed: int) -> pa.Table:
    return _docs_table(*_mixed_spans(n_docs, seed))


def prose_docs(n_docs: int, seed: int) -> pa.Table:
    doc_ids, spans = _mixed_spans(n_docs, seed)
    prose = []
    for doc in spans:
        kept = [dict(s) for s in doc if s["kind"] != KIND_CELL]
        for s, off in zip(kept, assign_offsets([s["text"] for s in kept])):
            s["offset"] = off
        prose.append(kept)
    return _docs_table(doc_ids, prose)


def pdf_docs(n_docs: int, seed: int) -> Tuple[pa.Table, Dict[Tuple[str, int], Dict]]:
    """(doc_id, pdf_bytes) table plus expected values keyed by
    ``(doc_id, page_number)``."""
    doc_ids: List[str] = []
    blobs: List[bytes] = []
    expected: Dict[Tuple[str, int], Dict] = {}
    for i in range(n_docs):
        doc_id = f"pdf-{i:08d}"
        data, pages = pdfgen.make_pdf(seed, i)
        doc_ids.append(doc_id)
        blobs.append(data)
        for page_number, exp in enumerate(pages, start=1):
            expected[(doc_id, page_number)] = exp
    table = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "pdf_bytes": pa.array(blobs, pa.binary()),
        }
    )
    return table, expected


def docs_census(table: pa.Table) -> Dict[str, int]:
    spans = table.column("spans")
    texts = pc.struct_field(pc.list_flatten(spans), "text")
    return {
        "docs": table.num_rows,
        "spans": int(pc.sum(pc.list_value_length(spans)).as_py()),
        "bytes": int(pc.sum(pc.utf8_length(texts)).as_py() or 0),
    }


def pdf_census(table: pa.Table, expected: Dict) -> Dict[str, int]:
    return {
        "docs": table.num_rows,
        "pages": len(expected),
        "bytes": int(pc.sum(pc.binary_length(table.column("pdf_bytes"))).as_py()),
    }
