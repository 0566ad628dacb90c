"""Main-content extraction: boilerplate strip over interleaved documents.

The engine's analogue of HTML boilerplate removal / DOM main-content
heuristics, built from the published shallow-text-feature + template-
frequency approach (Kohlschütter et al., "Boilerplate Detection using
Shallow Text Features", WSDM 2010; Readability-style link-density rules):

1. **NAV rule** (per-span, vectorized, no shuffle): short separator-dense
   spans — high non-alphanumeric character ratio and few words — are
   navigation chrome ("| Home | About |").
2. **TEMPLATE rule** (cross-document): spans whose normalized-text
   fingerprint occurs in at least ``min_df_fraction`` of all documents are
   site template (shared headers/footers/cookie banners).

Scale shape: document frequency is a term-count aggregation — a per-batch
partial combine (one row per distinct fingerprint per batch) feeds the
distributed ``groupby(fp).sum``; only the *frequent* survivors (site
templates — a tiny set by construction) are collected into the final
filter stage, built once on the driver (Ray puts the pickled stage in the
object store once per operator), so the strip itself is an embarrassingly
parallel ``map_batches`` with a shared read-only lookup.
The input dataset is consumed twice (once for counting, once for
stripping); both passes stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.textstats import rolling_fingerprint
from ..schemas import SPAN
from .exchange import collect_small
from .extract import stage_map_batches

Dataset = ray.data.Dataset

# non-alphanumeric, non-space characters (menu separators, link decoration)
_NAV_CHAR_RE = r"[^a-zA-Z0-9\s]"


def _flat_spans(batch: pa.Table):
    """spans list-column -> (flat struct values, per-doc lengths)."""
    col = batch.column("spans").combine_chunks()
    lens = np.diff(col.offsets.to_numpy())
    return col.values, lens


def nav_mask(
    texts: pa.Array,
    max_punct_ratio: float,
    max_words: int,
    min_separators: int = 2,
) -> np.ndarray:
    """Shallow-feature navigation rule: separator-dense AND short AND
    containing at least ``min_separators`` explicit menu separators ('|').
    The separator floor keeps ordinary short body chunks with incidental
    punctuation (URLs, hyphens, quotes) from ever matching — only
    menu-shaped chrome can."""
    n = pc.count_substring_regex(texts, _NAV_CHAR_RE).to_numpy(zero_copy_only=False)
    length = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
    words = pc.count_substring(texts, " ").to_numpy(zero_copy_only=False) + 1
    seps = pc.count_substring(texts, "|").to_numpy(zero_copy_only=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(length > 0, n / np.maximum(length, 1), 0.0)
    return (ratio > max_punct_ratio) & (words <= max_words) & (seps >= min_separators)


# Sentinel fingerprint carrying the per-block document count through the
# same df aggregate (fold the corpus doc count into one pass). Real
# fingerprints are polynomial hashes mod 2^61-1, so they are always >= 0
# and can never collide with -1.
_DOC_COUNT_FP = -1


def partial_doc_frequency(batch: pa.Table) -> pa.Table:
    """One row per distinct text-span fingerprint per document, pre-summed
    within the batch — the combiner half of the df count. Also emits one
    ``(fp=_DOC_COUNT_FP, n=block_doc_count)`` sentinel row so a single
    aggregate yields both the df counts AND the corpus document count."""
    values, lens = _flat_spans(batch)
    kinds = values.field("kind").to_numpy(zero_copy_only=False)
    texts = values.field("text").to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens)), lens)
    is_text = (kinds == "text") | (kinds == "heading")
    fps = rolling_fingerprint([t or "" for t in texts[is_text]])
    di = doc_idx[is_text]
    # distinct (doc, fp): a span repeated within one doc counts once
    pairs = np.unique(np.stack([di.astype(np.int64), fps.astype(np.int64)]), axis=1)
    t = pa.table({"fp": pairs[1]})
    g = pa.TableGroupBy(t, ["fp"]).aggregate([("fp", "count")])
    fp_out = np.concatenate(
        [
            g.column("fp").to_numpy(zero_copy_only=False).astype(np.int64),
            [_DOC_COUNT_FP],
        ]
    )
    n_out = np.concatenate(
        [
            g.column("fp_count").to_numpy(zero_copy_only=False).astype(np.int64),
            [len(lens)],
        ]
    )
    return pa.table(
        {"fp": pa.array(fp_out, pa.int64()), "n": pa.array(n_out, pa.int64())}
    )


def _df_aggregate(docs: Dataset) -> Dataset:
    """(fp, sum(n)) over the corpus; includes the _DOC_COUNT_FP sentinel row
    whose sum is the total document count."""
    return (
        docs.map_batches(
            partial_doc_frequency, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("fp")
        .sum("n")
    )


def _keep_frequent_fn(min_count: int):
    def keep_frequent(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch.column("sum(n)"), pa.scalar(int(min_count))),
            pc.not_equal(batch.column("fp"), pa.scalar(_DOC_COUNT_FP, pa.int64())),
        )
        return batch.filter(m).select(["fp"])

    return keep_frequent


def frequent_span_fps(docs: Dataset, min_count: int) -> np.ndarray:
    """Fingerprints occurring in >= min_count documents (sorted array).
    The aggregate shuffles one row per distinct fingerprint per block; the
    returned frequent set is tiny (site templates), safe to collect."""
    freq = _df_aggregate(docs).map_batches(
        _keep_frequent_fn(min_count), batch_format="pyarrow", zero_copy_batch=True
    )
    return _sorted_fps(freq)


def _sorted_fps(freq: Dataset) -> np.ndarray:
    """The frequent-fingerprint set, collected and sorted."""
    fps = collect_small(freq, "frequent span fingerprints", {"fp": pa.int64()})
    return np.sort(fps.column("fp").to_numpy())


def frequent_span_fps_auto(
    docs: Dataset, min_df_fraction: float
) -> Tuple[np.ndarray, int]:
    """Like :func:`frequent_span_fps` but with the doc count folded into the
    SAME pass via the sentinel row — ONE streaming pass over ``docs``
    (the expensive side) yields both the corpus document count and the
    frequent-fingerprint set, and the driver collect is bounded by the TRUE
    frequent set, never by the df>=2 candidate set:

    1. The df aggregate is pre-filtered to the df>=2 candidate rows (plus
       the sentinel) INSIDE its consumption, and only that candidate set
       is materialized — in the OBJECT STORE (blocks, not driver memory),
       and strictly smaller than the all-distinct-fingerprint table. On a
       high-duplication web corpus "any span repeated in >= 2 docs" is a
       large fraction of distinct fingerprints (quotes, bylines, shared
       paragraphs), so collecting that candidate set driver-side — the
       pre-r5 shape — does not survive 100 TB; holding it as spillable
       blocks does.
    2. The sentinel row is read back alone (a one-row filter over the
       materialized blocks) to learn ``n_docs``.
    3. ``min_count = max(2, ceil(fraction * n_docs))`` is applied as a
       DISTRIBUTED filter over the same materialized blocks; only true
       site-template fingerprints (df >= fraction*N — tiny by construction)
       ever reach the driver.

    Both re-reads stream plasma blocks; nothing over ``docs`` runs twice."""
    sent = pa.scalar(_DOC_COUNT_FP, pa.int64())
    two = pa.scalar(2, pa.int64())

    def keep_candidates(batch: pa.Table) -> pa.Table:
        m = pc.or_(
            pc.greater_equal(batch.column("sum(n)"), two),
            pc.equal(batch.column("fp"), sent),
        )
        return batch.filter(m)

    agg = (
        _df_aggregate(docs)
        .map_batches(keep_candidates, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    def keep_sentinel(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("fp"), sent))

    sent_rows = collect_small(
        agg.map_batches(keep_sentinel, batch_format="pyarrow", zero_copy_batch=True),
        "document-count sentinel",
        {"sum(n)": pa.int64()},
    )
    n_docs = int(sent_rows.column("sum(n)").to_numpy().sum())
    min_count = max(2, int(np.ceil(min_df_fraction * n_docs)))
    freq = agg.map_batches(
        _keep_frequent_fn(min_count), batch_format="pyarrow", zero_copy_batch=True
    )
    return _sorted_fps(freq), n_docs


class StripBoilerplate:
    """Final filter stage: drops nav spans and template spans, preserving
    span order and non-text kinds. The frequent-fingerprint set is held
    by value in the instance built on the driver."""

    def __init__(
        self,
        template_fps,
        max_punct_ratio: float = 0.05,
        max_nav_words: int = 16,
        min_nav_separators: int = 2,
    ):
        # the frequent set is tiny (site templates) — held BY VALUE so a
        # task retry never depends on an evicted object-store ref
        # (ray#53727); a huge frequent set would itself be a design bug.
        self.template_fps = np.asarray(template_fps, dtype=np.int64)
        self.max_punct_ratio = max_punct_ratio
        self.max_nav_words = max_nav_words
        self.min_nav_separators = min_nav_separators

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, lens = _flat_spans(batch)
        kinds = values.field("kind").to_numpy(zero_copy_only=False)
        texts_arr = values.field("text")
        texts = texts_arr.to_numpy(zero_copy_only=False)
        is_text = (kinds == "text") | (kinds == "heading")
        drop = np.zeros(len(kinds), dtype=bool)
        if is_text.any():
            nav = nav_mask(
                pa.array(texts[is_text].tolist(), pa.string()),
                self.max_punct_ratio,
                self.max_nav_words,
                self.min_nav_separators,
            )
            fps = rolling_fingerprint([t or "" for t in texts[is_text]])
            if self.template_fps.size:
                pos = np.searchsorted(self.template_fps, fps)
                pos = np.clip(pos, 0, self.template_fps.size - 1)
                templ = self.template_fps[pos] == fps
            else:
                templ = np.zeros(fps.shape[0], dtype=bool)
            drop[is_text] = nav | templ
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        keep = ~drop
        # vectorized rebuild: take surviving struct rows once, recompute
        # per-doc list offsets from the kept-count histogram (no row loop)
        kept_values = values.take(pa.array(np.flatnonzero(keep)))
        kept_per_doc = np.bincount(doc_idx[keep], minlength=len(lens))
        offsets = np.concatenate([[0], np.cumsum(kept_per_doc)]).astype(np.int32)
        spans_col = pa.ListArray.from_arrays(pa.array(offsets), kept_values)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "spans": spans_col}
        )


def strip_boilerplate_ds(
    docs: Dataset,
    *,
    min_df_fraction: float = 0.3,
    max_punct_ratio: float = 0.05,
    max_nav_words: int = 16,
    n_docs: Optional[int] = None,
    cache_input: bool = False,
) -> Dataset:
    """docs (DOCS schema) -> docs with boilerplate spans removed.

    The template-frequency count and the strip stage both consume ``docs``;
    both passes STREAM by default (``cache_input=False``) — the scale-safe
    choice: a 100 TB corpus must never be materialized whole into the
    object store. Set ``cache_input=True`` only when the corpus fits (or
    comfortably spills) in cluster storage AND the upstream is expensive to
    recompute (e.g. a decode stage) — then the input is materialized once
    and the second pass reads blocks instead of re-executing lineage."""
    if cache_input:
        docs = docs.materialize()
    if n_docs is None:
        # doc count folded into the frequency pass (sentinel row) — one
        # streaming pass over docs instead of a separate count() pass
        fps, _ = frequent_span_fps_auto(docs, min_df_fraction)
    else:
        min_count = max(2, int(np.ceil(min_df_fraction * n_docs)))
        fps = frequent_span_fps(docs, min_count)
    return stage_map_batches(
        docs,
        StripBoilerplate(fps, max_punct_ratio, max_nav_words),
        batch_size=256,
    )


def main_content_text_ds(stripped: Dataset) -> Dataset:
    """Surviving span texts joined per document -> (doc_id, text)."""

    def rejoin(batch: pa.Table) -> pa.Table:
        # offset-segmented join over the flat span values — no Python row loop
        values, lens = _flat_spans(batch)
        text_arr = values.field("text")
        texts = text_arr.to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        keep = pc.and_kleene(
            pc.is_valid(text_arr), pc.not_equal(text_arr, "")
        ).to_numpy(zero_copy_only=False)
        keep = np.asarray(keep, dtype=bool)
        out = []
        kept_idx = doc_idx[keep]
        kept_txt = texts[keep]
        bounds = np.searchsorted(kept_idx, np.arange(len(lens) + 1))
        for d in range(len(lens)):
            out.append(" ".join(kept_txt[bounds[d] : bounds[d + 1]]))
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
        )

    return stripped.map_batches(rejoin, batch_format="pyarrow", zero_copy_batch=True)
