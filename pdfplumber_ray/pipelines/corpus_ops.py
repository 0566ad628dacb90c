"""Training-data corpus operators as streaming Ray Data pipelines.

Engine-side additions beyond the reference's operator set (a 100 TB
training-data pipeline needs them; pdfplumber itself has none of these):
deduplication (exact, MinHash+LSH, SimHash, n-gram Jaccard verify),
similarity search (brute-force cosine top-k and an IVF variant), and text
analysis (language-ID, quality scoring, token counting, fingerprinting).

Scale design notes:
* Every per-doc transform is a task-mode ``map_batches`` (no shuffle).
* Dedup aggregations pre-combine inside the batch (pyarrow ``group_by``)
  before the global ``groupby`` — the shuffle moves one row per distinct
  key per block, not one per document.
* Candidate-pair search (LSH bands, SimHash chunks, shared grams, prefix
  tokens) shuffles rows through ``exchange.bucket_map``, a bounded group
  count, then segments each bucket by key and emits id pairs inside each
  key run, star-capping hot keys: the one exchange in `exchange.py`.
  Candidates are then verified (signature agreement, exact Jaccard).
* Small sides (a vocabulary, a value CDF, a label map; ANN's query
  matrix / centroid index) broadcast via ``ray.put`` once; each task
  reads them from the object store — never a shuffle join, never
  re-shipped per batch. A side reaches the driver through
  ``exchange.collect_small``, which holds the one row limit
  (``MAX_BROADCAST_ROWS``). Joins go through ``exchange.attach``, which
  picks broadcast, semi-join reduction or co-group from row counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Max, Min, Sum

from ..functions import textstats as ts
from .exchange import (
    DEFAULT_MAX_BUCKET,
    _anchor_schema,
    _log_star_fallback,
    attach,
    bucket_map,
    capped_pairs,
    collect_small,
    components,
    fits_broadcast,
    run_pairs,
    segment_runs,
    star_pairs,
)
from .extract import stage_map_batches

Dataset = ray.data.Dataset

# ---------- text analysis ----------


def token_stats_ds(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens_ws": pa.array(ts.ws_token_count(texts)),
                "n_tokens_bpe": pa.array(ts.bpe_token_count(texts)),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def quality_ds(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Quality-signal metrics; integer counts so SQL oracles match exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        texts = col.to_pylist()
        # code points, like len(); a null text reads as ""
        n_chars = pc.utf8_length(pc.fill_null(col, "")).cast(pa.int64())
        n_words = pa.array(ts.ws_token_count(texts))
        n_punct = pa.array(ts.punct_count(texts))
        sw = ts.stopword_counts(texts)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_chars": n_chars,
                "n_words": n_words,
                "n_punct": n_punct,
                "n_stopwords_en": pa.array(sw["en"]),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def lang_id_ds(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                id_col: batch.column(id_col),
                "lang_pred": pa.array(ts.lang_id(texts).tolist(), pa.string()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def lang_confusion_ds(
    docs: Dataset,
    text_col: str = "text",
    lang_col: str = "lang",
) -> Dataset:
    """Language drift / metadata-quality matrix: declared language vs
    n-gram-detected language with row counts — the monitoring table that
    catches mislabeled sources before they skew a sampling mix. Per-batch
    detect + Arrow ``group_by`` combiner, then one tiny ``groupby`` over
    the (langs x langs) domain. Emits ``(declared, detected, n_docs)``."""

    def partial(batch: pa.Table) -> pa.Table:
        pred = ts.lang_id(batch.column(text_col).to_pylist())
        g = (
            pa.table(
                {
                    "declared": batch.column(lang_col),
                    "detected": pa.array(pred.tolist(), pa.string()),
                }
            )
            .group_by(["declared", "detected"])
            .aggregate([("detected", "count")])
        )
        return pa.table(
            {
                "declared": g.column("declared"),
                "detected": g.column("detected"),
                "n_partial": g.column("detected_count").cast(pa.int64()),
            }
        )

    agg = (
        docs.select_columns([text_col, lang_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["declared", "detected"])
        .aggregate(Sum("n_partial"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "declared": batch.column("declared"),
                "detected": batch.column("detected"),
                "n_docs": batch.column("sum(n_partial)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def fingerprint_ds(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        fp = ts.rolling_fingerprint(texts)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "fingerprint": pa.array([f"{v:016x}" for v in fp], pa.string()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def repetition_stats_ds(
    docs: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Gopher-style repetition signals per document: word count, distinct
    word count, bigram count, and the multiplicity of the most repeated
    word bigram — the inputs to duplicate-content quality filters. All
    integers (bit-exact SQL twin). Fully vectorized: one dictionary
    encode over the batch's flattened tokens, segment reductions per doc."""

    def fn(batch: pa.Table) -> pa.Table:
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        n = len(lens)
        codes = pc.dictionary_encode(flat).indices.to_numpy().astype(np.int64)
        doc_idx = np.repeat(np.arange(n), lens)
        # distinct words per doc (every doc has at least one token)
        pairs = np.unique(np.stack([doc_idx, codes]), axis=1)
        n_distinct = np.bincount(pairs[0], minlength=n)
        # bigrams restricted to within-doc adjacency
        top = np.zeros(n, dtype=np.int64)
        if len(codes) > 1:
            same = doc_idx[:-1] == doc_idx[1:]
            k = int(codes.max()) + 1
            bg_doc = doc_idx[:-1][same]
            bg_key = codes[:-1][same] * k + codes[1:][same]
            if bg_doc.size:
                order = np.lexsort((bg_key, bg_doc))
                d_s, v_s = bg_doc[order], bg_key[order]
                new = np.ones(d_s.size, dtype=bool)
                new[1:] = (d_s[1:] != d_s[:-1]) | (v_s[1:] != v_s[:-1])
                grp = np.cumsum(new) - 1
                cnt = np.bincount(grp)
                np.maximum.at(top, d_s[new], cnt)
        n_bigrams = np.maximum(lens - 1, 0)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_words": pa.array(lens),
                "n_distinct_words": pa.array(n_distinct.astype(np.int64)),
                "n_bigrams": pa.array(n_bigrams),
                "top_bigram_n": pa.array(top),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def chunk_windows_ds(
    docs: Dataset,
    window: int = 64,
    stride: int = 48,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Sliding fixed-size token windows per document (training-sequence
    chunking with overlap): one output row per window with its token count
    and re-joined text. Pure map_batches expansion — no shuffle; window
    assembly is a single ``pc.binary_join`` over an index-built list array
    (no per-window Python join)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        n = len(lens)
        base = np.cumsum(lens) - lens
        n_chunks = 1 + np.maximum(lens - window + stride - 1, 0) // stride
        doc_of_chunk = np.repeat(np.arange(n), n_chunks)
        # chunk index within its doc
        first = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        ci = np.arange(int(n_chunks.sum())) - np.repeat(first, n_chunks)
        starts = ci * stride
        stops = np.minimum(starts + window, lens[doc_of_chunk])
        wlens = stops - starts
        # values indices: for each chunk, base[doc]+start .. +wlen
        offs = np.concatenate([[0], np.cumsum(wlens)]).astype(np.int64)
        idx = np.repeat(base[doc_of_chunk] + starts, wlens) + (
            np.arange(offs[-1]) - np.repeat(offs[:-1], wlens)
        )
        lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), flat.take(pa.array(idx, pa.int64()))
        )
        return pa.table(
            {
                id_col: ids.take(pa.array(doc_of_chunk)),
                "chunk_index": pa.array(ci.astype(np.int64)),
                "n_tokens": pa.array(wlens.astype(np.int64)),
                "chunk_text": pc.binary_join(lists, " "),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def source_mix_ds(
    docs: Dataset,
    text_col: str = "text",
    group_cols: Tuple[str, str] = ("source", "lang"),
) -> Dataset:
    """Curriculum-mixing summary: per (source, lang) document and token
    totals plus the mixing weight each stratum would get under
    proportional sampling (integer ppm, floor semantics on both sides).
    Combiner-before-groupby: the shuffle moves one row per stratum per
    block; the aggregate result is tiny (strata count), so the final
    weight normalization materializes only that."""
    ga, gb = group_cols

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        nw = pc.add(pc.count_substring(texts, " "), 1).cast(pa.int64())
        t = pa.table(
            {
                ga: batch.column(ga),
                gb: batch.column(gb),
                "d": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "w": nw,
            }
        )
        g = t.group_by([ga, gb]).aggregate([("d", "sum"), ("w", "sum")])
        return pa.table(
            {
                ga: g.column(ga),
                gb: g.column(gb),
                "d": g.column("d_sum"),
                "w": g.column("w_sum"),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([ga, gb])
        .aggregate(Sum("d"), Sum("w"))
        .materialize()  # tiny: one row per stratum
    )
    total = int(agg.sum("sum(d)") or 0)

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch.column("sum(d)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                ga: batch.column(ga),
                gb: batch.column(gb),
                "n_docs": pa.array(nd),
                "n_words": batch.column("sum(w)").cast(pa.int64()),
                "weight_e6": pa.array(nd * 1_000_000 // max(total, 1)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def temperature_mix_ds(
    docs: Dataset,
    text_col: str = "text",
    group_cols: Tuple[str, str] = ("source", "lang"),
) -> Dataset:
    """Temperature-scaled sampling weights (alpha = 0.5), the multilingual
    rebalancing rule published with XLM-R / mT5: stratum ``i`` samples with
    probability proportional to ``p_i^alpha`` instead of ``p_i``, boosting
    low-resource strata. INTEGER-EXACT at alpha = 1/2 via the integer
    square root: ``s_i = isqrt(n_words_i)`` (``math.isqrt``, exact), and
    ``weight_e6 = s_i * 1e6 // sum(s)``. The SQL twin reproduces isqrt
    from ``floor(sqrt(double))`` with a +/-1 correction (the float sqrt of
    an int64 < 2^52 errs by at most one unit).

    Scale shape: identical to :func:`source_mix_ds` — per-batch stratum
    combiner, ONE groupby over the tiny stratum domain, and only that
    stratum table ever materializes."""
    import math

    ga, gb = group_cols

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        nw = pc.add(pc.count_substring(texts, " "), 1).cast(pa.int64())
        t = pa.table(
            {
                ga: batch.column(ga),
                gb: batch.column(gb),
                "d": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "w": nw,
            }
        )
        g = t.group_by([ga, gb]).aggregate([("d", "sum"), ("w", "sum")])
        return pa.table(
            {
                ga: g.column(ga),
                gb: g.column(gb),
                "d": g.column("d_sum"),
                "w": g.column("w_sum"),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([ga, gb])
        .aggregate(Sum("d"), Sum("w"))
        .materialize()  # tiny: one row per stratum
    )
    words = collect_small(
        agg, "per-stratum word totals", {"sum(w)": pa.int64()}
    ).column("sum(w)").to_pylist()
    total_sqrt = sum(math.isqrt(w) for w in words)

    def finish(batch: pa.Table) -> pa.Table:
        nw = batch.column("sum(w)").to_numpy(zero_copy_only=False).astype(np.int64)
        sq = np.fromiter((math.isqrt(int(w)) for w in nw), np.int64, count=len(nw))
        return pa.table(
            {
                ga: batch.column(ga),
                gb: batch.column(gb),
                "n_docs": batch.column("sum(d)").cast(pa.int64()),
                "n_words": pa.array(nw, pa.int64()),
                "sqrt_words": pa.array(sq, pa.int64()),
                "weight_e6": pa.array(sq * 1_000_000 // max(total_sqrt, 1)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------- deduplication ----------


def tfidf_topk_ds(
    docs: Dataset,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Top-``k`` most discriminative terms per document, ranked by
    ``tf DESC, df ASC, term ASC`` — the classic tf-idf curation signal
    kept INTEGER-EXACT (no float idf, so a SQL oracle reproduces every
    row bit-for-bit; the float score is monotone in (tf, 1/df) per doc,
    making this ordering the tf-idf ordering up to deterministic ties).

    Scale shape — no per-doc shuffle anywhere:

    1. TF pass — streaming ``map_batches``; per-batch ``(doc, term)``
       counts via one Arrow C++ ``group_by``, re-listified to ONE ROW PER
       DOC (``terms: list<string>, tfs: list<int64>``). Row atomicity
       guarantees a doc's terms can never split across downstream blocks
       — the hazard that would otherwise force a ``groupby(doc_id)``
       shuffle before the top-k.
    2. DF — per-batch partial term counts (terms are already distinct
       per doc) -> ``groupby(term).sum`` over the vocab-sized partials;
       collected with ``collect_small`` and broadcast via ``ray.put``
       (natural-language vocab grows ~O(sqrt(corpus)) [Heaps' law], so
       a few million entries cover web scale).
    3. Top-k — streaming ``map_batches`` over the per-doc rows: flatten,
       ``searchsorted`` df lookup, ONE ``np.lexsort`` per batch
       (doc, -tf, df, term) + segment cumcount -> rank filter. No
       per-doc Python."""

    def tf_stage(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        di = np.repeat(np.arange(n, dtype=np.int64), lens)
        g = (
            pa.table({"di": pa.array(di), "term": flat})
            .group_by(["di", "term"])
            .aggregate([("term", "count")])
        )
        gdi = g.column("di").to_numpy(zero_copy_only=False)
        order = np.argsort(gdi, kind="stable")
        gdi = gdi[order]
        terms = g.column("term").take(pa.array(order))
        tfs = g.column("term_count").take(pa.array(order)).cast(pa.int64())
        counts = np.bincount(gdi, minlength=n)
        offs = pa.array(
            np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "terms": pa.ListArray.from_arrays(offs, terms.combine_chunks()),
                "tfs": pa.ListArray.from_arrays(offs, tfs.combine_chunks()),
            }
        )

    tf = docs.select_columns([id_col, text_col]).map_batches(
        tf_stage, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused: df aggregate + top-k pass read blocks

    def df_partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch.column("terms"))
        g = (
            pa.table({"term": flat})
            .group_by("term")
            .aggregate([("term", "count")])
        )
        return pa.table(
            {
                "term": g.column("term"),
                "df_partial": g.column("term_count").cast(pa.int64()),
            }
        )

    df_rows = collect_small(
        tf.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df_partial")),
        "vocabulary",
        {"term": pa.string(), "sum(df_partial)": pa.int64()},
    )
    vocab = df_rows.column("term").to_numpy(zero_copy_only=False)
    dfs = df_rows.column("sum(df_partial)").to_numpy()
    vorder = np.argsort(vocab.astype(str), kind="stable")
    vocab_sorted = vocab[vorder].astype(str)
    dfs_sorted = dfs[vorder]
    df_ref = ray.put((vocab_sorted, dfs_sorted))

    def topk(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], batch.column(id_col).type),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "rnk": pa.array([], pa.int64()),
            }
        )
        vocab_s, dfs_s = ray.get(df_ref)
        terms_l = batch.column("terms")
        counts = pc.list_value_length(terms_l).to_numpy(zero_copy_only=False)
        if int(counts.sum()) == 0:
            return empty
        flat_terms = pc.list_flatten(terms_l).to_numpy(zero_copy_only=False).astype(str)
        flat_tf = pc.list_flatten(batch.column("tfs")).to_numpy(zero_copy_only=False)
        di = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        pos = np.searchsorted(vocab_s, flat_terms)
        flat_df = dfs_s[pos]
        # codes sorted lexicographically == term ASC tie-break
        uniq, codes = np.unique(flat_terms, return_inverse=True)
        order = np.lexsort((codes, flat_df, -flat_tf, di))
        di_s = di[order]
        # rank within doc segment (order is doc-major)
        first = np.concatenate(([True], di_s[1:] != di_s[:-1]))
        idx = np.arange(len(di_s), dtype=np.int64)
        rnk = idx - np.maximum.accumulate(np.where(first, idx, 0)) + 1
        keep = rnk <= k
        sel = order[keep]
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(di[sel])),
                "term": pa.array(flat_terms[sel], pa.string()),
                "tf": pa.array(flat_tf[sel], pa.int64()),
                "df": pa.array(flat_df[sel], pa.int64()),
                "rnk": pa.array(rnk[keep], pa.int64()),
            }
        )

    return tf.map_batches(topk, batch_format="pyarrow", zero_copy_batch=True)


def exact_dedup_ds(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Exact dedup groups: md5(text) -> (keep_doc_id = min id, n_docs).

    Pre-aggregates per batch before the global groupby (combiner pattern).
    """

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        h = pa.array(ts.md5_hex(texts).tolist(), pa.string())
        t = pa.table({"content_hash": h, id_col: batch.column(id_col)})
        g = t.group_by("content_hash").aggregate([(id_col, "min"), (id_col, "count")])
        return pa.table(
            {
                "content_hash": g.column("content_hash"),
                "keep_partial": g.column(f"{id_col}_min"),
                "n_partial": g.column(f"{id_col}_count").cast(pa.int64()),
            }
        )

    partials = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = partials.groupby("content_hash").aggregate(
        Min("keep_partial"), Sum("n_partial")
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "content_hash": batch.column("content_hash"),
                "keep_doc_id": batch.column("min(keep_partial)"),
                "n_docs": batch.column("sum(n_partial)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


class _MinHashBandStage:
    """MinHash banding stage: emits one ``(band_key, doc_id)`` row per band.

    The full signature is deliberately NOT carried into the band rows — that
    would multiply shuffle bytes by the band count (16 bands x 512-byte
    signature ~ 8 KB/doc). Signatures are recomputed for the tiny candidate
    set in the verification pass instead. Docs with no shingles (empty text)
    emit nothing: a shingle-less doc cannot be a near-duplicate."""

    def __init__(self, num_perm: int, bands: int, shingle_k: int, text_col: str, id_col: str):
        self.mh = ts.MinHasher(num_perm=num_perm, shingle_k=shingle_k)
        self.bands = bands
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out_band: List[str] = []
        out_id: List = []
        for i, t in zip(ids, texts):
            sh = ts.shingle_hashes(t or "", self.mh.shingle_k)
            if sh.shape[0] == 0:
                continue
            sig = self.mh.signature_from_hashes(sh)
            for key in self.mh.band_keys(sig, self.bands):
                out_band.append(key)
                out_id.append(i)
        return pa.table(
            {"band_key": pa.array(out_band, pa.string()), "doc_id": pa.array(out_id)}
        )


def _id_type(docs: Dataset, id_col: str) -> pa.DataType:
    """Type of the pair ids a near-dup operator emits: ``id_col``'s type
    in ``docs`` (int64 when ``docs`` has no schema)."""
    schema = docs.schema()
    if schema is None or id_col not in schema.names:
        return pa.int64()
    return schema.types[schema.names.index(id_col)]


def _pair_payload(pairs: Dataset, side: Dataset, id_col: str, cols: List[str]) -> Dataset:
    """``pairs`` with ``side``'s ``cols`` of ``doc_a`` (as ``<col>_a``) and
    of ``doc_b`` (as ``<col>_b``): one left :func:`exchange.attach` on
    both ends, which cuts ``side`` to the docs the pairs name before
    anything of it is collected."""
    ends = {"doc_a": "_a", "doc_b": "_b"}
    return attach(pairs, side.select_columns([id_col] + cols), ends, id_col, "left")


def minhash_pairs_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """Near-duplicate pairs via MinHash + LSH banding.

    Emits (doc_a, doc_b, est_jaccard) with doc_a < doc_b and estimated
    Jaccard (signature agreement) >= threshold. Scale shape:

    1. Banding pass — streaming ``map_batches``; the only shuffle moves
       ``(band_key: 16-char md5, doc_id)`` rows (no signatures) through
       ``exchange.bucket_map`` on the band key.
    2. Each bucket segments by band key and emits candidate id pairs
       (star-capped above ``max_bucket`` ids per band key); a pair sharing
       several bands is deduped by a groupby over the (tiny) pair set.
    3. Verification pass — both docs' texts attach to each candidate
       pair (``exchange.attach``), and signatures are recomputed ONLY for
       candidate docs, once per doc in each batch of pairs.

    All hashing is md5-derived (see ``textstats``) so a DuckDB oracle can
    reproduce the pipeline bit-exactly."""
    mh = ts.MinHasher(num_perm=num_perm, shingle_k=shingle_k)
    banded = stage_map_batches(
        docs,
        _MinHashBandStage(num_perm, bands, shingle_k, text_col, id_col),
        batch_size=None,
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # distinct ids per band key, then pairs inside each band-key run
        t = group.group_by(["band_key", "doc_id"]).aggregate([])
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            t.column("band_key").to_numpy(zero_copy_only=False), ids
        )
        i, j = capped_pairs(starts, lengths, max_bucket, "minhash band")
        ids = ids[order]
        return pa.table({"doc_a": ids[i], "doc_b": ids[j]})

    id_type = _id_type(docs, id_col)
    cand = (
        bucket_map(
            banded, "band_key", bucket_pairs, {"doc_a": id_type, "doc_b": id_type}
        )
        .groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
    )

    def estimate(batch: pa.Table) -> pa.Table:
        ends = [batch.column(f"doc_{e}").to_pylist() for e in "ab"]
        sigs: Dict = {}  # each candidate doc's signature, once per batch
        for e, ids in zip("ab", ends):
            for i, t in zip(ids, batch.column(f"{text_col}_{e}").to_pylist()):
                if i not in sigs:
                    sigs[i] = mh.signature(t or "")
        est = [float(np.mean(sigs[a] == sigs[b])) for a, b in zip(*ends)]
        t = pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "est_jaccard": pa.array(est, pa.float64()),
            }
        )
        return t.filter(pc.greater_equal(t.column("est_jaccard"), threshold))

    return _pair_payload(cand, docs, id_col, [text_col]).map_batches(
        estimate, batch_format="pyarrow", zero_copy_batch=True
    )


def _simhash_chunk_rows(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """One ``(bucket, doc_id, sig)`` row per 16-bit chunk of each doc's
    64-bit SimHash: ``bucket`` is the chunk key ``(c << 16) | chunk``."""
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    sh = ts.simhash64(texts)
    out_key: List[int] = []
    out_id: List = []
    out_sig: List[int] = []
    for idx, i in enumerate(ids):
        if not texts[idx]:
            continue  # token-less docs can't be near-dups (SQL twin filters text <> '')
        v = int(sh[idx])
        for c in range(4):
            chunk = (v >> (16 * c)) & 0xFFFF
            out_key.append((c << 16) | chunk)
            out_id.append(i)
            out_sig.append(v)
    return pa.table(
        {
            "bucket": pa.array(out_key, pa.int64()),
            "doc_id": pa.array(out_id),
            "sig": pa.array(np.array(out_sig, dtype=np.uint64)),
        }
    )


def simhash_pairs_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """SimHash near-dup pairs: 64-bit fingerprints, bucketing by each of 4
    16-bit chunks (pigeonhole: any pair within Hamming distance 3 shares at
    least one chunk), verify exact Hamming distance within chunk runs.
    Chunk rows go through ``exchange.bucket_map`` on the chunk key and
    segment by it there; chunks above ``max_bucket`` rows star-cap."""
    banded = docs.map_batches(
        _simhash_chunk_rows,
        fn_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("bucket").to_numpy(zero_copy_only=False), ids
        )
        i, j = capped_pairs(starts, lengths, max_bucket, "simhash chunk")
        ids = ids[order]
        sigs = np.asarray(
            group.column("sig").to_numpy(zero_copy_only=False), dtype=np.uint64
        )[order]
        d = ts.hamming64(sigs[i], sigs[j]).astype(np.int64)
        keep = (ids[i] != ids[j]) & (d <= max_hamming)
        return pa.table(
            {"doc_a": ids[i][keep], "doc_b": ids[j][keep], "hamming": d[keep]}
        )

    id_type = _id_type(docs, id_col)
    pairs = bucket_map(
        banded,
        "bucket",
        bucket_pairs,
        {"doc_a": id_type, "doc_b": id_type, "hamming": pa.int64()},
    )
    dedup = pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("hamming"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "hamming": batch.column("min(hamming)").cast(pa.int64()),
            }
        )

    return dedup.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def ngram_jaccard_verify_ds(
    pairs: Dataset,
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold: float = 0.5,
) -> Dataset:
    """Exact n-gram Jaccard verification of candidate pairs: both docs'
    texts attach to each pair (``exchange.attach``, which never brings
    more than ``MAX_BROADCAST_ROWS`` rows to the driver), then one
    ``map_batches`` computes the Jaccard of each pair."""

    def verify(batch: pa.Table) -> pa.Table:
        jac = [
            ts.ngram_jaccard(a, b, shingle_k)
            for a, b in zip(
                batch.column(f"{text_col}_a").to_pylist(),
                batch.column(f"{text_col}_b").to_pylist(),
            )
        ]
        t = batch.drop_columns([f"{text_col}_a", f"{text_col}_b"]).append_column(
            "jaccard", pa.array(jac, pa.float64())
        )
        return t.filter(pc.greater_equal(t.column("jaccard"), threshold))

    return _pair_payload(pairs, docs, id_col, [text_col]).map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True
    )


def lsh_recall_audit_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.5,
) -> Dataset:
    """End-to-end quality audit of the production MinHash-LSH dedup
    path: one row ``(n_lsh, n_true, n_hits)`` comparing the pairs the
    banded pipeline emits (`minhash_pairs_ds` at its production
    num_perm=64 / bands=16 settings) against the exact shingle-Jaccard
    ground truth at the same threshold — recall = n_hits/n_true and
    precision = n_hits/n_lsh derive exactly from the integers. This is
    the tuning report run before committing band/row settings for a
    full-corpus dedup (Broder/LSH S-curve validation on real data).

    Ground truth reuses the recall-1 construction proven for
    `near_dup_exact`: 64 one-row bands make any pair at j >= 0.5 a
    candidate with probability 1 - 2^-64, then exact n-gram Jaccard
    verification. Scale shape: both pair sets are LSH-bounded (band-key
    shuffles only); the audit adds one groupby over the union of the
    two pair sets (tiny by construction) and a per-batch count
    combiner, so nothing beyond the pair lists ever concentrates."""

    lsh = minhash_pairs_ds(
        docs, text_col=text_col, id_col=id_col, threshold=threshold, max_bucket=None
    )
    cand = minhash_pairs_ds(
        docs,
        text_col=text_col,
        id_col=id_col,
        num_perm=64,
        bands=64,
        threshold=0.0,
        max_bucket=None,
    )
    truth = ngram_jaccard_verify_ds(
        cand, docs, text_col=text_col, id_col=id_col, threshold=threshold
    )

    def tag(in_lsh: int, in_true: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {
                    "doc_a": batch.column("doc_a").cast(pa.int64()),
                    "doc_b": batch.column("doc_b").cast(pa.int64()),
                    "in_lsh": pa.array(np.full(n, in_lsh, np.int64), pa.int64()),
                    "in_true": pa.array(np.full(n, in_true, np.int64), pa.int64()),
                }
            )

        return fn

    tagged = lsh.map_batches(
        tag(1, 0), batch_format="pyarrow", zero_copy_batch=True
    ).union(truth.map_batches(tag(0, 1), batch_format="pyarrow", zero_copy_batch=True))
    per_pair = tagged.groupby(["doc_a", "doc_b"]).aggregate(
        Sum("in_lsh"), Sum("in_true")
    )

    def counts(batch: pa.Table) -> pa.Table:
        in_l = batch.column("sum(in_lsh)").to_numpy(zero_copy_only=False) > 0
        in_t = batch.column("sum(in_true)").to_numpy(zero_copy_only=False) > 0
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n_lsh_p": pa.array([int(in_l.sum())], pa.int64()),
                "n_true_p": pa.array([int(in_t.sum())], pa.int64()),
                "n_hits_p": pa.array([int((in_l & in_t).sum())], pa.int64()),
            }
        )

    # sentinel zero row guarantees exactly one output row even when the
    # corpus has no candidate pairs at all (the SQL twin's GROUP-BY-less
    # aggregate always emits one row)
    zero = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n_lsh_p": pa.array([0], pa.int64()),
                "n_true_p": pa.array([0], pa.int64()),
                "n_hits_p": pa.array([0], pa.int64()),
            }
        )
    )
    agg = (
        per_pair.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .union(zero)
        .groupby("k")
        .aggregate(Sum("n_lsh_p"), Sum("n_true_p"), Sum("n_hits_p"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_lsh": batch.column("sum(n_lsh_p)").cast(pa.int64()),
                "n_true": batch.column("sum(n_true_p)").cast(pa.int64()),
                "n_hits": batch.column("sum(n_hits_p)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def containment_dedup_ds(
    pairs: Dataset,
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold_e6: int = 600_000,
) -> Dataset:
    """Broder CONTAINMENT verification of candidate pairs — the
    doc-inside-doc signal Jaccard misses: a short document wholly quoted
    inside a long one has low Jaccard (the union is large) but containment
    ``|G(a) ∩ G(b)| / min(|G(a)|, |G(b)|)`` near 1. Emits
    ``(doc_a, doc_b, inter, n_small, containment_e6)`` for pairs at or
    above ``threshold_e6`` — all integers, so the SQL twin is bit-exact
    (``list_intersect`` over the same distinct-shingle lists).

    Scale shape mirrors :func:`ngram_jaccard_verify_ds`: both docs' texts
    attach to each pair through ``exchange.attach``."""

    def verify(batch: pa.Table) -> pa.Table:
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        inter = np.empty(len(a_ids), dtype=np.int64)
        n_small = np.empty(len(a_ids), dtype=np.int64)
        texts = (batch.column(f"{text_col}_{end}").to_pylist() for end in "ab")
        for i, (a, b) in enumerate(zip(*texts)):
            ga = ts.shingle_hashes(a, shingle_k)
            gb = ts.shingle_hashes(b, shingle_k)
            inter[i] = np.intersect1d(ga, gb, assume_unique=True).shape[0]
            n_small[i] = min(ga.shape[0], gb.shape[0])
        cont = inter * 1_000_000 // np.maximum(n_small, 1)
        t = pa.table(
            {
                "doc_a": pa.array(a_ids, pa.int64()),
                "doc_b": pa.array(b_ids, pa.int64()),
                "inter": pa.array(inter, pa.int64()),
                "n_small": pa.array(n_small, pa.int64()),
                "containment_e6": pa.array(cont, pa.int64()),
            }
        )
        return t.filter(
            pc.greater_equal(t.column("containment_e6"), pa.scalar(int(threshold_e6)))
        )

    return _pair_payload(pairs, docs, id_col, [text_col]).map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True
    )


def substring_dedup_ds(
    docs: Dataset,
    k: int = 8,
    min_shared: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """Exact-substring duplicate pairs (suffix-array-style dedup after Lee
    et al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): doc pairs sharing >= ``min_shared`` DISTINCT verbatim
    ``k``-token windows — the dup modality MinHash (near-dup *documents*)
    and SemDeDup (near-dup *embeddings*) both miss: long verbatim
    substrings inside otherwise-distinct docs.

    Emits ``(doc_a, doc_b, shared_grams)`` with doc_a < doc_b. Scale shape:

    1. Gram pass — streaming ``map_batches``: sliding k-token windows are
       index-built and joined with ONE ``pc.binary_join`` per batch (no
       per-window Python join), then deduped per doc by an Arrow C++
       ``group_by``. The only shuffle moves ``(gram, doc_id)`` rows —
       linear in the corpus, same order as the suffix-array input itself.
       Grouping on the gram STRING keeps the op hash-collision-free and
       bit-reproducible by a SQL oracle; at 100 TB a 128-bit gram hash key
       would shrink shuffle bytes ~3x at negligible collision risk.
    2. Pair generation shuffles through ``exchange.bucket_map`` on the
       gram — a BOUNDED number of groups — never by the gram itself: one
       ``map_groups`` call per distinct gram (millions of near-singleton
       groups) would drown in per-group Python overhead. Within a bucket
       the grams segment via one ``np.unique`` + lexsort; singleton grams
       (the overwhelming majority) drop vectorized before any pair loop,
       so Python touches only genuinely-shared grams. Hot grams (site
       boilerplate shared by thousands of docs) fall back to star pairs
       above ``max_bucket`` with a logged warning — the same cap
       machinery as the LSH paths (counts become approximate for capped
       grams; pass ``max_bucket=None`` for exact oracle semantics).
    3. Pair counts — ``groupby(doc_a, doc_b).count()`` over the (tiny by
       construction) pair stream, thresholded at ``min_shared``."""

    def gram_stage(batch: pa.Table) -> pa.Table:
        doc, _, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), k)
        t = pa.table({id_col: batch.column(id_col).take(pa.array(doc)), "gram": grams})
        return t.group_by([id_col, "gram"]).aggregate([])  # per-doc distinct

    grams = docs.select_columns([id_col, text_col]).map_batches(
        gram_stage, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("gram").to_numpy(zero_copy_only=False), ids
        )
        i, j = capped_pairs(starts, lengths, max_bucket, "substring gram")
        ids = ids[order]
        return pa.table({"doc_a": ids[i], "doc_b": ids[j]})

    id_type = _id_type(docs, id_col)
    counted = (
        bucket_map(grams, "gram", bucket_pairs, {"doc_a": id_type, "doc_b": id_type})
        .groupby(["doc_a", "doc_b"])
        .count()
    )

    def finish(batch: pa.Table) -> pa.Table:
        shared = batch.column("count()").cast(pa.int64())
        t = pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "shared_grams": shared,
            }
        )
        return t.filter(
            pc.greater_equal(t.column("shared_grams"), pa.scalar(min_shared, pa.int64()))
        )

    return counted.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def substring_strip_ds(
    docs: Dataset,
    k: int = 8,
    min_df: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Remove duplicated verbatim windows from the corpus (the Lee et al.
    2022 *removal* step — :func:`substring_dedup_ds` detects shared
    windows, :func:`substring_runs_ds` measures them, this one strips
    them): every token covered by any occurrence of a k-token gram that
    appears in >= ``min_df`` documents is dropped; emits
    ``(doc_id, clean_text, n_tokens_removed)`` for every doc.

    Two strategies with identical output, picked by the frequent set's
    row count (``exchange.fits_broadcast``):

    * **broadcast** (the frequent set fits): the df aggregate's
      frequent grams collect once and broadcast via ``ray.put`` as a
      SORTED string array (object-store-shared, one copy per node); the
      strip pass is a streaming ``map_batches`` — positional grams probe
      with ``searchsorted``, coverage intervals resolve with a +1/-1
      cumsum sweep, surviving tokens re-join with ONE ``pc.binary_join``
      per batch.
    * **cogroup** (it does not; at web scale 30-50% duplication makes
      the frequent set billions of grams): no driver collect anywhere —
      positional gram rows and frequent-gram rows co-locate through
      ``exchange.bucket_map`` on the gram (bounded group count),
      matched occurrences emit ``(doc_id, start_pos)`` coverage rows, and
      docs union with their coverage rows in a second ``bucket_map`` on
      the doc id for a per-bucket VECTORIZED rebuild (same cumsum sweep,
      many docs per group — never one Python call per doc)."""

    def df_partial(batch: pa.Table) -> pa.Table:
        doc, _, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), k)
        t = pa.table({"di": pa.array(doc), "gram": grams})
        d = t.group_by(["di", "gram"]).aggregate([])  # per-doc distinct
        g = d.group_by("gram").aggregate([("di", "count")])
        return pa.table(
            {
                "gram": g.column("gram"),
                "df_partial": g.column("di_count").cast(pa.int64()),
            }
        )

    freq_rows = (
        docs.select_columns([id_col, text_col])
        .map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gram")
        .aggregate(Sum("df_partial"))
        .map_batches(
            lambda b: b.filter(
                pc.greater_equal(
                    b.column("sum(df_partial)"), pa.scalar(min_df, pa.int64())
                )
            ).select(["gram"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    if not fits_broadcast(freq_rows):
        return _substring_strip_cogroup(docs, freq_rows, k, text_col, id_col)
    freq = collect_small(freq_rows, "frequent-gram set", {"gram": pa.string()})
    freq_sorted = np.sort(freq.column("gram").to_numpy(zero_copy_only=False).astype(str))
    freq_ref = ray.put(freq_sorted)

    def strip(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        fs = ray.get(freq_ref)
        toks = ts.ws_tokens(batch.column(text_col))
        lens, flat = ts.flat_tokens(toks)
        base = np.cumsum(lens) - lens
        # +1/-1 sweep over flat token index space; doc boundaries are safe
        # because a gram never crosses a doc (windows stay within lens)
        delta = np.zeros(len(flat) + 1, dtype=np.int64)
        doc, start, grams = ts.token_windows(toks, k)
        if len(doc) and len(fs):
            grams = grams.to_numpy(zero_copy_only=False).astype(str)
            pos = np.searchsorted(fs, grams)
            pos = np.minimum(pos, len(fs) - 1)
            hit = fs[pos] == grams
            starts_abs = (base[doc] + start)[hit]
            np.add.at(delta, starts_abs, 1)
            np.add.at(delta, starts_abs + k, -1)
        covered = np.cumsum(delta[:-1]) > 0
        kept = ~covered
        # lens >= 1 always ('' splits to ['']), so base is strictly
        # increasing and reduceat segments cleanly per doc
        kept_counts = np.add.reduceat(kept.astype(np.int64), base)
        offs = pa.array(
            np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        )
        kept_lists = pa.ListArray.from_arrays(offs, flat.filter(pa.array(kept)))
        return pa.table(
            {
                id_col: ids,
                "clean_text": pc.binary_join(kept_lists, " "),
                "n_tokens_removed": pa.array(lens - kept_counts),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        strip, batch_format="pyarrow", zero_copy_batch=True
    )


def _substring_strip_cogroup(
    docs: Dataset,
    freq_rows: Dataset,
    k: int,
    text_col: str,
    id_col: str,
) -> Dataset:
    """The no-driver-collect strip path (see :func:`substring_strip_ds`):
    positional grams semi-join the frequent set in a bucket of grams,
    matched occurrences become (doc_id, start) coverage rows, and docs
    co-group with their coverage in a bucket of doc ids for a per-bucket
    vectorized rebuild."""
    id_type = _id_type(docs, id_col)

    def gram_pos_stage(batch: pa.Table) -> pa.Table:
        doc, start, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), k)
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(doc)),
                "pos": pa.array(start),  # 0-based token index
                "gram": grams,
                "is_freq": pa.array(np.zeros(len(doc), dtype=bool)),
            }
        )

    def freq_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                id_col: pa.nulls(n, id_type),
                "pos": pa.array(np.full(n, -1, dtype=np.int64)),
                "gram": batch.column("gram"),
                "is_freq": pa.array(np.ones(n, dtype=bool)),
            }
        )

    tagged = docs.select_columns([id_col, text_col]).map_batches(
        gram_pos_stage, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        freq_rows.map_batches(
            freq_side, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def match(group: pa.Table) -> pa.Table:
        isf = group.column("is_freq").to_numpy(zero_copy_only=False)
        if isf.all() or not isf.any():
            return pa.table({})
        grams = group.column("gram").to_numpy(zero_copy_only=False).astype(str)
        fs = np.unique(grams[isf])
        occ_grams = grams[~isf]
        pos = np.searchsorted(fs, occ_grams)
        pos = np.minimum(pos, len(fs) - 1)
        hit = fs[pos] == occ_grams
        occ = group.filter(pa.array(~isf))
        return pa.table(
            {
                id_col: occ.column(id_col).filter(pa.array(hit)),
                "start": occ.column("pos").filter(pa.array(hit)),
            }
        )

    covered = bucket_map(
        tagged, "gram", match, {id_col: id_type, "start": pa.int64()}
    )

    def doc_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                text_col: batch.column(text_col),
                "start": pa.array(
                    np.full(batch.num_rows, -1, dtype=np.int64)
                ),
                "is_doc": pa.array(np.ones(batch.num_rows, dtype=bool)),
            }
        )

    def cov_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                text_col: pa.array([""] * batch.num_rows, pa.string()),
                "start": batch.column("start"),
                "is_doc": pa.array(np.zeros(batch.num_rows, dtype=bool)),
            }
        )

    both = docs.select_columns([id_col, text_col]).map_batches(
        doc_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        covered.map_batches(cov_side, batch_format="pyarrow", zero_copy_batch=True)
    )

    def rebuild(group: pa.Table) -> pa.Table:
        is_doc = group.column("is_doc").to_numpy(zero_copy_only=False)
        drows = group.filter(pa.array(is_doc))
        if drows.num_rows == 0:
            return pa.table({})
        ids_np = np.asarray(drows.column(id_col).to_pylist(), dtype=object)
        order = np.argsort(ids_np.astype(str), kind="stable")
        ids_sorted = ids_np[order]
        lens, flat = ts.flat_tokens(
            ts.ws_tokens(drows.column(text_col).take(pa.array(order)))
        )
        base = np.cumsum(lens) - lens
        delta = np.zeros(len(flat) + 1, dtype=np.int64)
        crows = group.filter(pa.array(~is_doc))
        if crows.num_rows:
            cids = np.asarray(crows.column(id_col).to_pylist(), dtype=object)
            cpos = np.searchsorted(
                ids_sorted.astype(str), cids.astype(str)
            )
            cstart = crows.column("start").to_numpy(zero_copy_only=False)
            starts_abs = base[cpos] + cstart
            np.add.at(delta, starts_abs, 1)
            np.add.at(delta, starts_abs + k, -1)
        kept = ~(np.cumsum(delta[:-1]) > 0)
        kept_counts = np.add.reduceat(kept.astype(np.int64), base)
        offs = pa.array(
            np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        )
        kept_lists = pa.ListArray.from_arrays(offs, flat.filter(pa.array(kept)))
        return pa.table(
            {
                id_col: pa.array(ids_sorted.tolist(), id_type),
                "clean_text": pc.binary_join(kept_lists, " "),
                "n_tokens_removed": pa.array(lens - kept_counts),
            }
        )

    return bucket_map(
        both,
        id_col,
        rebuild,
        {id_col: id_type, "clean_text": pa.string(), "n_tokens_removed": pa.int64()},
    )


def substring_runs_ds(
    docs: Dataset,
    k: int = 8,
    min_run_tokens: int = 15,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """Longest shared verbatim token run per doc pair (the full Lee et
    al. 2022 exact-substring semantics — :func:`substring_dedup_ds`
    counts shared windows; this one measures the RUN): emits
    ``(doc_a, doc_b, max_run_tokens)`` for pairs whose longest common
    consecutive token run reaches ``min_run_tokens``.

    Scale shape mirrors ``substring_dedup_ds`` — positional k-gram rows
    ``(gram, doc, pos)``, ONE ``exchange.bucket_map`` on the gram
    (bounded group count), vectorized in-bucket match emission (singleton
    grams drop before any Python loop, hot grams capped + logged) — plus
    a second ``bucket_map`` of the (unanchored) match stream on
    ``doc_a``, so that all of a pair's matches share a bucket. There
    every pair's run comes from one vectorized gaps-and-islands pass: matched positions group by
    pair and alignment offset ``delta = pos_a - pos_b``; within a delta,
    consecutive ``pos_a`` values chain into islands; the longest island
    of g grams is a run of ``g + k - 1`` tokens."""

    def gram_stage(batch: pa.Table) -> pa.Table:
        doc, start, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), k)
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(doc)),
                "pos": pa.array(start + 1),  # 1-based, as the SQL twin
                "gram": grams,
            }
        )

    grams = docs.select_columns([id_col, text_col]).map_batches(
        gram_stage, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_matches(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        pos = group.column("pos").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("gram").to_numpy(zero_copy_only=False), ids, pos
        )
        if max_bucket is not None:  # hot gram: keep its first max_bucket rows
            for n in lengths[lengths > max_bucket]:
                _log_star_fallback("substring-run gram", int(n), max_bucket)
            lengths = np.minimum(lengths, max_bucket)
        i, j = run_pairs(starts, lengths)
        ids, pos = ids[order], pos[order]
        keep = ids[i] != ids[j]  # a doc repeating a gram pairs with no one
        i, j = i[keep], j[keep]
        return pa.table(
            {
                "doc_a": ids[i],
                "doc_b": ids[j],
                "pa_pos": pos[i],
                "delta": pos[i] - pos[j],
            }
        )

    def pair_runs(group: pa.Table) -> pa.Table:
        a, b = (
            pc.dictionary_encode(group.column(c).combine_chunks()).indices.to_numpy()
            for c in ("doc_a", "doc_b")
        )
        d = group.column("delta").to_numpy(zero_copy_only=False)
        p = group.column("pa_pos").to_numpy(zero_copy_only=False)
        # distinct (pair, delta, pa) rows, sorted; islands never span pairs
        rows, first = np.unique(
            np.stack([a, b, d, p], axis=1), axis=0, return_index=True
        )
        a, b, d, p = rows.T
        new_pair = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        new_island = new_pair | np.concatenate(
            ([True], (d[1:] != d[:-1]) | (p[1:] != p[:-1] + 1))
        )
        island = np.cumsum(new_island) - 1
        pair_start = np.flatnonzero(new_pair)
        max_run = np.maximum.reduceat(np.bincount(island), island[pair_start]) + k - 1
        hit = max_run >= min_run_tokens
        at = pa.array(first[pair_start][hit], pa.int64())
        return pa.table(
            {
                "doc_a": group.column("doc_a").take(at),
                "doc_b": group.column("doc_b").take(at),
                "max_run_tokens": pa.array(max_run[hit], pa.int64()),
            }
        )

    id_type = _id_type(docs, id_col)
    matches = bucket_map(
        grams,
        "gram",
        bucket_matches,
        {"doc_a": id_type, "doc_b": id_type, "pa_pos": pa.int64(), "delta": pa.int64()},
        anchor=False,
    )
    return bucket_map(
        matches,
        "doc_a",
        pair_runs,
        {"doc_a": id_type, "doc_b": id_type, "max_run_tokens": pa.int64()},
    )


def embedding_near_dup_ds(
    embeddings: Dataset,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_digits: int = 6,
) -> Dataset:
    """EXACT all-pairs embedding-cosine near-dup pairs (a < b, sim >=
    threshold) — the small-N oracle path; ``embedding_near_dup_lsh_ds`` is
    the 100 TB path.

    Exactness requires every task to see every vector, but the normalized
    matrix is staged in the OBJECT STORE (``to_arrow_refs`` block refs),
    never materialized on the driver: driver memory is O(#blocks), and
    workers read the Arrow blocks zero-copy from plasma (one copy per
    node, shared by all workers — the per-worker cache below holds numpy
    VIEWS over plasma buffers, not copies). Compute is inherently O(N^2):
    that is the semantics of 'exact'."""

    def normalize(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        mn = np.ascontiguousarray(m / n[:, None])
        flat = pa.array(mn.reshape(-1), pa.float64())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "_nvec": pa.FixedSizeListArray.from_arrays(flat, mn.shape[1]),
            }
        )

    refs = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)
        .to_arrow_refs()
    )
    refs_key = tuple(r.hex() for r in refs)

    def pairs(batch: pa.Table) -> pa.Table:
        blocks = _emb_blocks(refs_key, refs, id_col)
        m = _as_matrix(batch.column(vec_col))
        bn = np.linalg.norm(m, axis=1)
        bn[bn == 0] = 1.0
        mn = m / bn[:, None]
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        a_out: List[int] = []
        b_out: List[int] = []
        s_out: List[float] = []
        for fids, fmat in blocks:
            sims = mn @ fmat.T
            hit_r, hit_c = np.nonzero(np.round(sims, round_digits) >= threshold)
            for r, c in zip(hit_r, hit_c):
                a, b = int(bids[r]), int(fids[c])
                if a < b:  # each unordered pair emitted exactly once
                    a_out.append(a)
                    b_out.append(b)
                    s_out.append(float(np.round(sims[r, c], round_digits)))
        return pa.table(
            {
                "vec_a": pa.array(a_out, pa.int64()),
                "vec_b": pa.array(b_out, pa.int64()),
                "sim": pa.array(s_out, pa.float64()),
            }
        )

    return embeddings.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)


# per-worker-process cache of zero-copy views over plasma-resident blocks;
# keyed by the block-ref tuple so stale pipelines don't leak
_EMB_BLOCK_CACHE: Dict = {}


def _emb_blocks(refs_key, refs, id_col: str):
    cached = _EMB_BLOCK_CACHE.get(refs_key)
    if cached is None:
        _EMB_BLOCK_CACHE.clear()
        blocks = []
        for t in ray.get(list(refs)):
            # zero-row blocks can carry the pre-transform schema (the
            # batcher skips the UDF on empty blocks) — nothing to scan
            if t.num_rows == 0 or "_nvec" not in t.schema.names:
                continue
            col = t.column("_nvec").combine_chunks()
            # _nvec is a FixedSizeList: the explicit width also keeps the
            # reshape valid for 0-row slices (reshape(0, -1) raises)
            mat = col.values.to_numpy(zero_copy_only=True).reshape(
                len(col), col.type.list_size
            )
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            blocks.append((ids, mat))
        cached = blocks
        _EMB_BLOCK_CACHE[refs_key] = cached
    return cached


_HYPERPLANE_CACHE: Dict = {}


def _hyperplanes(n_tables: int, n_bits: int, dim: int) -> np.ndarray:
    """(n_tables*n_bits, dim) int64 hyperplanes in [-1000, 1000], derived
    from md5 so the DuckDB oracle regenerates them verbatim:
    ``w = (u64(md5('hp:<t>:<j>:<k>')) % 2001) - 1000``."""
    key = (n_tables, n_bits, dim)
    w = _HYPERPLANE_CACHE.get(key)
    if w is None:
        w = np.array(
            [
                [(ts.md5_u64(f"hp:{t}:{j}:{k}") % 2001) - 1000 for k in range(dim)]
                for t in range(n_tables)
                for j in range(n_bits)
            ],
            dtype=np.int64,
        )
        _HYPERPLANE_CACHE[key] = w
    return w


def embedding_near_dup_lsh_ds(
    embeddings: Dataset,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bits: int = 8,
    n_tables: int = 4,
    round_digits: int = 6,
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """Random-hyperplane LSH embedding near-dup — the scale path: bucket
    vectors by the sign pattern of ``n_bits`` hyperplane dot products
    (``n_tables`` independent tables for recall), then compute exact cosine
    only WITHIN buckets. Output is a subset of the exact all-pairs result;
    no stage sees more than one bucket at a time.

    Determinism for the SQL oracle: vectors are quantized to e6 integers
    (``floor(x*1e6 + 0.5)``) and hyperplanes are md5-derived integers, so
    the bucket assignment is integer-exact on both sides — no float-order
    sign flips."""

    def keys_stage(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m * 1e6 + 0.5).astype(np.int64)
        w = _hyperplanes(n_tables, n_bits, q.shape[1])
        bits = (q @ w.T > 0).astype(np.int64)  # (n, n_tables*n_bits)
        shifts = np.tile(1 << np.arange(n_bits, dtype=np.int64), n_tables)
        per_table = (bits * shifts[None, :]).reshape(len(q), n_tables, n_bits).sum(axis=2)
        table_idx = np.arange(n_tables, dtype=np.int64) << n_bits
        buckets = (per_table + table_idx[None, :]).reshape(-1)
        n = len(q)
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                id_col: pc.take(
                    batch.column(id_col),
                    pa.array(np.repeat(np.arange(n), n_tables)),
                ),
                vec_col: pc.take(
                    batch.column(vec_col),
                    pa.array(np.repeat(np.arange(n), n_tables)),
                ),
            }
        )

    bucketed = embeddings.select_columns([id_col, vec_col]).map_batches(
        keys_stage, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _as_matrix(group.column(vec_col))[order]
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        mn = m / n[:, None]
        if max_bucket is not None and len(ids) > max_bucket:  # hot bucket: star cosine
            _log_star_fallback("embedding LSH", len(ids), max_bucket)
            sims_v = mn @ mn[0]  # ids sorted: index 0 is the min id
            hits = np.nonzero(np.round(sims_v, round_digits) >= threshold)[0]
            hits = hits[ids[hits] > ids[0]]
            return pa.table(
                {
                    "vec_a": pa.array(np.full(len(hits), ids[0]), pa.int64()),
                    "vec_b": pa.array(ids[hits], pa.int64()),
                    "sim": pa.array(
                        np.round(sims_v[hits], round_digits), pa.float64()
                    ),
                }
            )
        sims = mn @ mn.T
        hit_r, hit_c = np.nonzero(np.round(sims, round_digits) >= threshold)
        a_out: List[int] = []
        b_out: List[int] = []
        s_out: List[float] = []
        for r, c in zip(hit_r, hit_c):
            if ids[r] < ids[c]:
                a_out.append(int(ids[r]))
                b_out.append(int(ids[c]))
                s_out.append(float(np.round(sims[r, c], round_digits)))
        return pa.table(
            {
                "vec_a": pa.array(a_out, pa.int64()),
                "vec_b": pa.array(b_out, pa.int64()),
                "sim": pa.array(s_out, pa.float64()),
            }
        )

    pairs = bucketed.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")
    # a pair sharing buckets in several tables appears once per table
    dedup = pairs.groupby(["vec_a", "vec_b"]).aggregate(Min("sim"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_a": batch.column("vec_a"),
                "vec_b": batch.column("vec_b"),
                "sim": batch.column("min(sim)"),
            }
        )

    return dedup.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------- deterministic sampling ----------


def hash_sample_ds(
    ds: Dataset,
    id_col: str = "doc_id",
    hex_prefixes: Tuple[str, ...] = ("0", "1"),
) -> Dataset:
    """Deterministic content-addressed sample: keep rows whose
    ``md5(str(id))`` starts with one of ``hex_prefixes`` (2 prefixes =
    1/8 expected rate). Unlike ``ds.random_shuffle``/``random_sample``,
    the same rows are selected on every run, every cluster size, and in
    SQL — the reproducibility a training-data pipeline needs."""
    import hashlib

    prefixes = tuple(hex_prefixes)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        mask = pa.array(
            [
                hashlib.md5(str(i).encode()).hexdigest().startswith(prefixes)
                for i in ids
            ]
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def dataset_split_ds(
    ds: Dataset,
    id_col: str = "doc_id",
    val_permille: int = 50,
    test_permille: int = 50,
) -> Dataset:
    """Deterministic train/val/test split assignment: each row's split is
    a pure function of ``md5(str(id))`` (first 8 hex chars mod 1000), so
    the assignment is stable across runs, cluster sizes, and engines —
    leakage-proof in a way ``random_sample`` is not. Streaming
    ``map_batches``, no shuffle, no state. Emits (id, split, bucket)."""
    import hashlib

    val_hi = int(val_permille)
    test_hi = val_hi + int(test_permille)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        buckets = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 1000
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        split = np.where(
            buckets < val_hi, "val", np.where(buckets < test_hi, "test", "train")
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "split": pa.array(split.tolist(), pa.string()),
                "bucket": pa.array(buckets),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def weighted_sample_ds(
    ds: Dataset,
    weight_col: str,
    id_col: str = "doc_id",
    max_permille: int = 1000,
) -> Dataset:
    """Deterministic quality-weighted subsampling (the CCNet-style 'keep
    documents proportionally to their score' curation step): a row
    survives iff ``md5(str(id)) % 1000 < min(weight, max_permille)``, so
    a doc with weight 700 keeps with probability 0.7 — reproducible
    across runs, cluster sizes, and engines, unlike ``random_sample``.
    Streaming ``map_batches``, no shuffle, no state. Emits the id, the
    clamped keep-probability (permille) and the hash bucket."""
    import hashlib

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        buckets = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 1000
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        w = np.minimum(
            batch.column(weight_col).cast(pa.int64()).to_numpy(zero_copy_only=False),
            max_permille,
        )
        mask = buckets < w
        t = pa.table(
            {
                id_col: batch.column(id_col),
                "keep_permille": pa.array(w, pa.int64()),
                "bucket": pa.array(buckets),
            }
        )
        return t.filter(pa.array(mask))

    return ds.select_columns([id_col, weight_col]).map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- windowed / sessionized aggregates ----------


def pack_sequences_ds(
    docs: Dataset,
    bin_tokens: int,
    n_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Sequence packing for pretraining: assign each doc to a token-budget
    bin via an exclusive running token count. Packing is inherently
    sequential, so parallelism comes from hash buckets (doc_id % buckets):
    each bucket packs independently in ``groupby(bucket).map_groups``;
    within a bucket the order is doc_id — data-derived, never
    execution-order-derived, so results are stable at any cluster size.

    ``n_buckets`` is part of the output, not a tuning knob: it decides
    which docs share a packing sequence, and the oracle's plan uses the
    same value. So this is the one operator that keeps its own bucket
    count and does not go through ``exchange.bucket_map``."""

    def tokenize(batch: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(batch.column(text_col), " "), 1)
        bucket = pc.cast(
            pc.bit_wise_and(batch.column(id_col), n_buckets - 1)
            if (n_buckets & (n_buckets - 1)) == 0
            else pc.subtract(
                batch.column(id_col),
                pc.multiply(
                    pc.divide(batch.column(id_col), n_buckets), n_buckets
                ),
            ),
            pa.int64(),
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "bucket": bucket,
                "n_tokens": n.cast(pa.int64()),
            }
        )

    tok = docs.map_batches(tokenize, batch_format="pyarrow", zero_copy_batch=True)

    def pack(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy()
        nt = group.column("n_tokens").to_numpy()
        order = np.argsort(ids, kind="stable")
        cum_excl = np.concatenate([[0], np.cumsum(nt[order])[:-1]])
        bins = (cum_excl // bin_tokens).astype(np.int64)
        out_bin = np.empty(len(order), dtype=np.int64)
        out_bin[order] = bins
        return group.append_column("bin_id", pa.array(out_bin))

    return tok.groupby("bucket").map_groups(pack, batch_format="pyarrow")


def dedup_resolution_ds(
    pairs: Dataset,
    docs: Dataset,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    id_col: str = "doc_id",
) -> Dataset:
    """Resolve verified duplicate pairs into canonical clusters: every doc
    maps to the smallest id in its connected component (itself when it has
    no duplicate).

    The pairs' components come from ``exchange.components``, which
    resolves them on the driver when they fit and by distributed min-label
    propagation when they do not (a 30-50% dup rate makes the pair set
    billions of rows). The ``(node, label)`` set attaches to docs through
    one left ``exchange.attach``, with ``canonical_id = coalesce(label,
    id)``; the attach keeps the label set off the driver when it does not
    fit."""
    labels = components(pairs, a_col, b_col)

    def label(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        return pa.table(
            {id_col: ids, "canonical_id": pc.coalesce(batch.column("label").cast(ids.type), ids)}
        )

    return attach(docs.select_columns([id_col]), labels, id_col, "node", "left").map_batches(
        label, batch_format="pyarrow", zero_copy_batch=True
    )


def redact_pii_ds(
    docs: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """PII scrubbing for training corpora: redact email addresses, long
    digit runs (phone/account numbers), and URLs with typed placeholder
    tokens. Patterns are RE2-compatible so the DuckDB twin is exact;
    compiled once per worker process."""
    import re

    email = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
    url = re.compile(r"https?://[^\s]+")
    digits = re.compile(r"\b[0-9]{7,}\b")

    def fn(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch.column(text_col).to_pylist():
            t = t or ""
            t = url.sub("<URL>", t)
            t = email.sub("<EMAIL>", t)
            t = digits.sub("<NUM>", t)
            out.append(t)
        return pa.table(
            {id_col: batch.column(id_col), "text_clean": pa.array(out, pa.string())}
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_CTRL_RE = None
_WS_RE = None


def normalize_text_ds(
    docs: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Unicode/text normalization for training corpora: strip control
    chars, collapse ASCII whitespace runs, trim, then NFC-normalize —
    each step chosen to have an exact DuckDB twin (RE2 ``\\s`` is
    ASCII-only, so the whitespace class is spelled out explicitly)."""

    def fn(batch: pa.Table) -> pa.Table:
        import re
        import unicodedata

        global _CTRL_RE, _WS_RE
        if _CTRL_RE is None:
            _CTRL_RE = re.compile(r"[\x00-\x1F\x7F]")
            _WS_RE = re.compile(r"[ \t\n\r\f\v]+")
        out = [
            unicodedata.normalize(
                "NFC", _WS_RE.sub(" ", _CTRL_RE.sub("", t or "")).strip(" ")
            )
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {id_col: batch.column(id_col), "text_norm": pa.array(out, pa.string())}
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample_ds(
    ds: Dataset,
    group_col: str,
    id_col: str,
    n_per_group: int,
) -> Dataset:
    """Deterministic stratified sampling: keep the ``n_per_group`` rows
    with the smallest md5(id) per group — reproducible across runs and
    cluster sizes (rank is data-derived, never execution-order-derived).
    Same shape as grouped top-k: groupby co-locates each stratum, then a
    vectorized partial sort per group."""
    import hashlib

    def per_group(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_pylist()
        digests = np.array(
            [hashlib.md5(str(v).encode()).hexdigest() for v in ids], dtype=object
        )
        order = np.argsort(digests, kind="stable")[:n_per_group]
        return group.take(pa.array(order))

    return ds.groupby(group_col).map_groups(per_group, batch_format="pyarrow")


def distinct_ds(ds: Dataset, cols: List[str]) -> Dataset:
    """Distributed DISTINCT with a per-batch combiner: each block first
    reduces to its local distinct rows (pyarrow group_by — typically a
    large reduction), so the wide ``groupby`` only shuffles one row per
    distinct key per block."""

    def local_distinct(batch: pa.Table) -> pa.Table:
        return pa.TableGroupBy(batch.select(cols), cols).aggregate([])

    pre = ds.map_batches(local_distinct, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby(cols).count()

    def drop_count(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    return agg.map_batches(drop_count, batch_format="pyarrow", zero_copy_batch=True)


# ---------- similarity search ----------


def _as_matrix(col: pa.ChunkedArray) -> np.ndarray:
    arr = col.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(arr), -1)


def ann_brute_topk_ds(
    embeddings: Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_digits: int = 6,
) -> Dataset:
    """Brute-force cosine top-k: per-batch numpy matmul against the
    broadcast query, local top-k, then a tiny global sort+limit."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / np.linalg.norm(q)

    def local_topk(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qn) / norms
        sims = np.round(sims, round_digits)
        order = np.argsort(-sims, kind="stable")[:k]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[order]
        return pa.table(
            {id_col: pa.array(ids), "sim": pa.array(sims[order], pa.float64())}
        )

    local = embeddings.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    return local.sort(["sim", id_col], descending=[True, False]).limit(k)


def build_ivf_centroids(
    embeddings: Dataset,
    nlist: int = 16,
    sample_size: int = 2048,
    iters: int = 10,
    vec_col: str = "embedding",
    seed: int = 0,
) -> np.ndarray:
    """Deterministic mini k-means over a bounded sample (the index-build
    step; at scale this is a one-off job whose output is broadcast)."""
    vecs = collect_small(
        embeddings.select_columns([vec_col]).limit(sample_size),
        "IVF centroid sample",
    ).column(vec_col)
    m = pc.list_flatten(vecs).to_numpy().astype(np.float64).reshape(len(vecs), -1)
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=min(nlist, len(m)), replace=False)]
    for _ in range(iters):
        d = ((m[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(cent.shape[0]):
            sel = m[assign == c]
            if len(sel):
                cent[c] = sel.mean(axis=0)
    return cent


def semantic_dedup_pairs_ds(
    embeddings: Dataset,
    n_clusters: int = 8,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_digits: int = 6,
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """SemDeDup-shaped semantic near-dup: assign every vector to its
    nearest centroid (broadcast centroid matrix, one streaming pass),
    then emit exact cosine pairs >= threshold WITHIN each cluster — the
    published cluster-then-dedup pattern that replaces the O(N^2) global
    scan with K cluster-local quadratic scans over a single
    hash-by-cluster shuffle.

    Centroids here are the ``n_clusters`` vectors with the smallest ids
    (deterministic, so the DuckDB twin is exact by construction); at
    scale swap in :func:`build_ivf_centroids` — the dataflow (broadcast
    assign -> cluster groupby -> local pairs) is identical. Assignment
    ties break toward the smaller centroid index on round-6 cosine
    (numpy argmax first-max == SQL ORDER BY sim DESC, cid LIMIT 1).
    Hot clusters degrade to star pairs past ``max_bucket`` (logged)."""
    # bounded collect: k smallest ids per block, then the global k
    def local_mink(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")[:n_clusters]
        return batch.take(pa.array(order))

    cand_ids: List[int] = []
    cand_vecs: List[np.ndarray] = []
    for b in embeddings.select_columns([id_col, vec_col]).map_batches(
        local_mink, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        cand_ids.extend(b.column(id_col).to_pylist())
        cand_vecs.extend(_as_matrix(b.column(vec_col)))
    if not cand_vecs:  # empty embedding table: no clusters, no pairs
        return ray.data.from_arrow(
            pa.table(
                {
                    "vec_a": pa.array([], pa.int64()),
                    "vec_b": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        )
    order = np.argsort(np.asarray(cand_ids), kind="stable")[:n_clusters]
    cent = np.stack([cand_vecs[i] for i in order])
    cn = np.linalg.norm(cent, axis=1)
    cn[cn == 0] = 1.0
    cent_ref = ray.put(np.ascontiguousarray(cent / cn[:, None]))

    def assign(batch: pa.Table) -> pa.Table:
        centn = ray.get(cent_ref)
        m = _as_matrix(batch.column(vec_col))
        bn = np.linalg.norm(m, axis=1)
        bn[bn == 0] = 1.0
        sims = np.round((m / bn[:, None]) @ centn.T, round_digits)
        return pa.table(
            {
                id_col: batch.column(id_col),
                vec_col: batch.column(vec_col),
                "cid": pa.array(sims.argmax(axis=1).astype(np.int64)),
            }
        )

    assigned = embeddings.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    )

    def cluster_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _as_matrix(group.column(vec_col))[order]
        bn = np.linalg.norm(m, axis=1)
        bn[bn == 0] = 1.0
        mn = m / bn[:, None]
        n = len(ids)
        empty = pa.table(
            {
                "vec_a": pa.array([], pa.int64()),
                "vec_b": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if n < 2:
            return empty
        if max_bucket is not None and n > max_bucket:
            _log_star_fallback("semantic-dedup cluster", n, max_bucket)
            sims = np.round(mn[1:] @ mn[0], round_digits)
            keep = sims >= threshold
            return pa.table(
                {
                    "vec_a": pa.array(np.full(int(keep.sum()), ids[0], np.int64)),
                    "vec_b": pa.array(ids[1:][keep].astype(np.int64)),
                    "sim": pa.array(sims[keep], pa.float64()),
                }
            )
        sims = np.round(mn @ mn.T, round_digits)
        iu, ju = np.triu_indices(n, k=1)
        keep = sims[iu, ju] >= threshold
        return pa.table(
            {
                "vec_a": pa.array(ids[iu[keep]].astype(np.int64)),
                "vec_b": pa.array(ids[ju[keep]].astype(np.int64)),
                "sim": pa.array(sims[iu, ju][keep], pa.float64()),
            }
        )

    return assigned.groupby("cid").map_groups(cluster_pairs, batch_format="pyarrow")


def ann_ivf_topk_ds(
    embeddings: Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_digits: int = 6,
    centroids: Optional[np.ndarray] = None,
) -> Dataset:
    """IVF-style ANN: vectors whose nearest centroid is not among the
    query's ``nprobe`` closest lists are pruned before the cosine scan.
    With nprobe == nlist this is exact (== brute force)."""
    cent = centroids if centroids is not None else build_ivf_centroids(embeddings, nlist, vec_col=vec_col)
    cent_ref = ray.put(cent)
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    qd = ((cent - q[None, :]) ** 2).sum(axis=1)
    probed = set(np.argsort(qd, kind="stable")[:nprobe].tolist())

    def local(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _as_matrix(batch.column(vec_col))
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        mask = np.isin(assign, list(probed))
        m = m[mask]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[mask]
        if m.shape[0] == 0:
            return pa.table({id_col: pa.array([], pa.int64()), "sim": pa.array([], pa.float64())})
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((m @ qn) / norms, round_digits)
        order = np.argsort(-sims, kind="stable")[:k]
        return pa.table({id_col: pa.array(ids[order]), "sim": pa.array(sims[order], pa.float64())})

    localtk = embeddings.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
    return localtk.sort(["sim", id_col], descending=[True, False]).limit(k)


def knn_graph_ds(
    embeddings: Dataset,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Exact cosine k-NN graph (self-join): for every vector its ``k``
    nearest neighbors, ranked by cosine DESC with neighbor-id ASC
    tie-break — the graph-construction step behind graph-diversity
    sampling and SemDeDup-style curation. Emits ``(vec_id, neighbor_id,
    rank, sim_e6)``.

    Cross-engine exactness by construction, not by rounding tolerance:
    components quantize to ``floor(x * 1e6)`` (exact in float64 — a
    float32 mantissa times 1e6 fits in 53 bits), so every dot product
    and squared norm is an exact integer below 2^53 — summation-order
    independent, hence identical under numpy matmul blocking and SQL
    sequential sums. The cosine is then ``(dot / sqrt(na2)) / sqrt(nb2)``
    — three correctly-rounded IEEE ops over identical operands — giving
    BIT-IDENTICAL doubles on both engines, so the ranking and the
    ``floor(sim * 1e6)`` output match exactly (ties in doubles are exact
    ties, broken by neighbor id via a stable argsort over id-sorted
    columns).

    Exact semantics are inherently O(N^2) (the declared small-N oracle
    path, like ``embedding_near_dup_ds``); the 100 TB path is the IVF
    cluster-local variant (``semantic_dedup_pairs_ds`` /
    ``ann_ivf_topk_ds``). The quantized matrix stages in the OBJECT
    STORE (block refs, zero-copy worker views — one copy per node),
    never on the driver; each streaming batch ranks against the staged
    blocks with one matmul per block."""

    def quantize(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.ascontiguousarray(np.floor(m * 1e6))
        flat = pa.array(q.reshape(-1), pa.float64())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "_nvec": pa.FixedSizeListArray.from_arrays(flat, q.shape[1]),
            }
        )

    refs = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(quantize, batch_format="pyarrow", zero_copy_batch=True)
        .to_arrow_refs()
    )
    refs_key = tuple(r.hex() for r in refs)

    def topk(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "sim_e6": pa.array([], pa.int64()),
            }
        )
        blocks = _emb_blocks(refs_key, refs, id_col)
        if not blocks:
            return empty
        all_ids = np.concatenate([fids for fids, _ in blocks])
        full = np.concatenate([fmat for _, fmat in blocks], axis=0)
        # id-ascending column order so a STABLE argsort tie-breaks by id
        colorder = np.argsort(all_ids, kind="stable")
        all_ids = all_ids[colorder]
        full = full[colorder]
        nb_norm = np.sqrt((full * full).sum(axis=1))  # exact int sums
        mq = np.floor(_as_matrix(batch.column(vec_col)) * 1e6)
        na_norm = np.sqrt((mq * mq).sum(axis=1))
        na_norm[na_norm == 0] = 1.0
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        # (dot / na) / nb — the exact op order the SQL twin uses
        sims = (mq @ full.T) / na_norm[:, None] / nb_norm[None, :]
        self_mask = bids[:, None] == all_ids[None, :]
        sims[self_mask] = -np.inf
        kk = min(k, len(all_ids) - 1)
        if kk <= 0:
            return empty
        order = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        nb = all_ids[order]
        se = np.floor(np.take_along_axis(sims, order, axis=1) * 1e6)
        return pa.table(
            {
                id_col: pa.array(np.repeat(bids, kk), pa.int64()),
                "neighbor_id": pa.array(nb.reshape(-1), pa.int64()),
                "rank": pa.array(
                    np.tile(np.arange(1, kk + 1, dtype=np.int64), len(bids))
                ),
                "sim_e6": pa.array(se.reshape(-1).astype(np.int64), pa.int64()),
            }
        )

    return embeddings.map_batches(topk, batch_format="pyarrow", zero_copy_batch=True)


def decontaminate_ds(
    docs: Dataset,
    eval_mod: int = 20,
    shingle_k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Train/eval decontamination: flag training documents that share any
    word ``shingle_k``-gram with the held-out split (the classic
    benchmark-contamination sweep run before LLM training).

    Split rule is deterministic (``doc_id % eval_mod == 0`` -> eval).
    Scale shape: the eval side is small by construction, so its distinct
    md5-u64 gram hashes are collected once (``collect_small`` guards the
    driver against a misconfigured split — use a bloom filter or a
    shuffle join beyond it), sorted, broadcast via ``ray.put``, and the
    training side probes them with ``np.searchsorted`` per batch — no
    shuffle at all on the big side. Gram hashing reuses
    ``textstats.shingle_hashes`` (md5-derived, whole-doc fallback under
    ``shingle_k`` tokens) so a DuckDB oracle reproduces it bit-exactly.

    Returns every training row: (doc_id, gram_hits = distinct shared
    grams, contaminated 0/1).
    """
    def is_eval(col: pa.ChunkedArray) -> pa.ChunkedArray:
        ids = np.asarray(col.to_numpy(zero_copy_only=False), dtype=np.int64)
        return pa.array(ids % eval_mod == 0)

    def eval_grams(batch: pa.Table) -> pa.Table:
        sub = batch.filter(is_eval(batch.column(id_col)))
        texts = sub.column(text_col).to_pylist()
        if texts:
            hashes = np.unique(
                np.concatenate(
                    [ts.shingle_hashes(t or "", shingle_k) for t in texts]
                    or [np.empty(0, dtype=np.uint64)]
                )
            )
        else:
            hashes = np.empty(0, dtype=np.uint64)
        return pa.table({"h": pa.array(hashes, pa.uint64())})

    eval_hashes = collect_small(
        docs.map_batches(eval_grams, batch_format="pyarrow", zero_copy_batch=True),
        "decontaminate_ds eval split grams",
        {"h": pa.uint64()},
    ).column("h")
    ref = ray.put(np.unique(eval_hashes.to_numpy()))

    def probe(batch: pa.Table) -> pa.Table:
        grams_sorted = ray.get(ref)
        keep = pc.invert(is_eval(batch.column(id_col)))
        sub = batch.filter(keep)
        ids = sub.column(id_col).to_numpy(zero_copy_only=False)
        hits = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(sub.column(text_col).to_pylist()):
            h = ts.shingle_hashes(t or "", shingle_k)
            if h.shape[0] and grams_sorted.shape[0]:
                pos = np.searchsorted(grams_sorted, h)
                pos[pos == grams_sorted.shape[0]] = 0
                hits[i] = int((grams_sorted[pos] == h).sum())
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "gram_hits": pa.array(hits, pa.int64()),
                "contaminated": pa.array((hits > 0).astype(np.int64), pa.int64()),
            }
        )

    return docs.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def grouped_quantiles_ds(
    docs: Dataset,
    value_col: str = "n_chars",
    group_col: str = "lang",
    qs: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
) -> Dataset:
    """Exact per-group quantiles of an integer column WITHOUT a global
    sort: per-batch value-count combiner -> ``groupby(group, value)``
    sum -> per-group cumulative pick inside ``map_groups``. The shuffle
    moves one row per distinct (group, value) pair — for bounded-domain
    columns (lengths, counts, scores) that is thousands of rows
    regardless of corpus size, where a sort-based quantile would move
    all of it.

    Quantile definition (mirrored exactly by the SQL oracle): the
    smallest value whose cumulative count reaches ``ceil(q * N)``.
    Returns (group, q_e2 = int(q*100), value).
    """
    def combine(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        import pandas as pd

        df = pd.DataFrame({"g": g, "v": v})
        cnt = df.groupby(["g", "v"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                group_col: pa.array(cnt["g"]),
                "v": pa.array(cnt["v"], pa.int64()),
                "n": pa.array(cnt["n"], pa.int64()),
            }
        )

    counts = (
        docs.select_columns([group_col, value_col])
        .map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, "v"])
        .sum("n")
    )

    def pick(group: pa.Table) -> pa.Table:
        v = group.column("v").to_numpy(zero_copy_only=False)
        n = group.column("sum(n)").to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        v, n = v[order], n[order]
        c = np.cumsum(n)
        total = int(c[-1])
        gname = group.column(group_col)[0].as_py()
        out_q, out_v = [], []
        for q in qs:
            rank = int(np.ceil(q * total))
            idx = int(np.searchsorted(c, max(rank, 1)))
            out_q.append(int(round(q * 100)))
            out_v.append(int(v[min(idx, len(v) - 1)]))
        return pa.table(
            {
                group_col: pa.array([gname] * len(qs)),
                "q_e2": pa.array(out_q, pa.int64()),
                "value": pa.array(out_v, pa.int64()),
            }
        )

    return counts.groupby(group_col).map_groups(pick, batch_format="pyarrow")


def _token_count_partials(
    docs: Dataset, text_col: str, count_col: str = "n_partial"
) -> Dataset:
    """Per-batch whitespace-token counts (one Arrow C++ ``group_by`` per
    batch) — the combiner that bounds the global token-count shuffle to
    one row per distinct token per block."""

    def partial(batch: pa.Table) -> pa.Table:
        # ws_tokens splits exactly like Python on one space (empty text
        # -> [""], doubled spaces -> "" tokens), so a batch always has a token
        flat = pc.list_flatten(ts.ws_tokens(batch.column(text_col)))
        g = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
        return pa.table(
            {
                "token": g.column("token"),
                count_col: g.column("token_count").cast(pa.int64()),
            }
        )

    return docs.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )


def heavy_hitters_ds(docs: Dataset, k: int = 100, text_col: str = "text") -> Dataset:
    """Corpus-wide top-``k`` tokens by total occurrence count (heavy
    hitters — the vocabulary censor list every web-scale curation
    pipeline starts from). Deterministic ordering: ``n DESC, token ASC``.

    Scale shape: per-batch count combiner (``_token_count_partials``) ->
    ``groupby(token).sum`` over vocab-sized partials -> PER-BLOCK top-k
    (bounds the final exchange to ``k`` rows per block) -> tiny global
    sort + limit. The only corpus-wide shuffle moves one row per distinct
    token per block; the final sort moves at most ``k * n_blocks`` rows.
    """
    totals = (
        _token_count_partials(docs, text_col)
        .groupby("token")
        .aggregate(Sum("n_partial"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_partial)").to_numpy(zero_copy_only=False)
        toks = batch.column("token")
        codes = np.unique(
            toks.to_numpy(zero_copy_only=False).astype(str), return_inverse=True
        )[1]
        order = np.lexsort((codes, -n))[:k]
        return pa.table(
            {
                "token": toks.take(pa.array(order)),
                "n": pa.array(n[order], pa.int64()),
            }
        )

    return (
        totals.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n", "token"], descending=[True, False])
        .limit(k)
    )


def rare_tokens_ds(
    docs: Dataset,
    min_count: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Per-document out-of-vocabulary / rare-token quality signal: the
    count (with multiplicity) of tokens whose CORPUS-WIDE occurrence
    count is below ``min_count``. A high rare-token ratio marks OCR
    garbage, lorem-ipsum noise and machine-generated gibberish — a
    standard quality-filter feature (cf. Gopher / C4 rules).

    Integer-exact: emits ``(doc_id, n_tokens, n_rare, rare_permille)``
    with ``rare_permille = n_rare * 1000 // n_tokens`` so a SQL oracle
    reproduces every row bit-for-bit.

    Scale shape: token totals via the count combiner + one vocab-sized
    ``groupby``; the broadcast side is the FREQUENT set (count >=
    min_count) only — by Heaps'-law the hapax/rare tail dominates the
    vocabulary, so the broadcast is far smaller than the vocab itself and
    guarded by ``collect_small``. Scoring is one streaming
    ``map_batches`` pass: flatten, ONE ``searchsorted`` membership probe,
    ``np.bincount`` segment sum. No per-doc Python, no second shuffle."""
    totals = (
        _token_count_partials(docs, text_col)
        .groupby("token")
        .aggregate(Sum("n_partial"))
    )

    def keep_frequent(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(
                batch.column("sum(n_partial)"), pa.scalar(min_count, pa.int64())
            )
        )

    freq = collect_small(
        totals.map_batches(keep_frequent, batch_format="pyarrow", zero_copy_batch=True),
        "frequent-token set",
        {"token": pa.string()},
    )
    ref = ray.put(freq.sort_by("token").column("token").combine_chunks())

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table(
            {
                id_col: pa.array([], batch.column(id_col).type),
                "n_tokens": pa.array([], pa.int64()),
                "n_rare": pa.array([], pa.int64()),
                "rare_permille": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        vocab = ray.get(ref)
        lists = ts.ws_tokens(batch.column(text_col))
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lists)
        di = np.repeat(np.arange(n, dtype=np.int64), lens)
        if len(vocab):
            # hash-based Arrow membership probe — no Python, no astype(str)
            member = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False)
        else:
            member = np.zeros(len(flat), dtype=bool)
        n_rare = np.bincount(di, weights=~member, minlength=n).astype(np.int64)
        permille = n_rare * 1000 // np.maximum(lens, 1)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pa.array(lens, pa.int64()),
                "n_rare": pa.array(n_rare, pa.int64()),
                "rare_permille": pa.array(permille, pa.int64()),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def jaccard_join_ds(
    docs: Dataset,
    threshold_num: int = 1,
    threshold_den: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """EXACT token-set similarity self-join via prefix filtering (Bayardo
    et al. 2007 "Scaling Up All Pairs Similarity Search"; Vernica et al.
    2010 for the MapReduce shape) — every pair with Jaccard >=
    ``threshold_num/threshold_den``, no probabilistic misses. This is the
    exact counterpart to ``minhash_pairs_ds``: MinHash+LSH trades recall
    for speed; prefix filtering keeps 100% recall and prunes with the
    rarest tokens instead.

    Correctness: tokens get a canonical global order (document frequency
    ASC, token ASC — rarest first). For Jaccard >= t a pair must share
    ``alpha = ceil(t * |A|)`` tokens (since ``|I| >= t * |U| >= t * |A|``),
    and by the prefix-filtering principle the first ``|A| - alpha + 1``
    tokens of A (in canonical order) must then intersect B's prefix — so
    grouping docs by PREFIX tokens only yields a candidate superset with
    zero false negatives. Candidates are verified with exact integer
    set arithmetic (``inter * den >= num * uni``), never floats.

    Scale shape:
    1. Distinct-token sets: one streaming pass, Arrow ``group_by`` per
       batch, ONE ROW PER DOC (list column) — materialized once, reused
       for the df aggregate, the prefix emit and the verify semi-join.
    2. Token df: count combiner -> vocab-sized ``groupby`` -> broadcast
       through ``collect_small`` (Heaps'-law bounded; shard the map
       above it).
    3. Prefix emit streams ``(token, doc_id, set_size)`` rows — only
       ``|d| - ceil(t|d|) + 1`` rows per doc, i.e. half the corpus tokens
       at t=0.5, NOT all of them; rows go through ``exchange.bucket_map``
       on the token's broadcast-vocab index (bounded group count — never
       one group per token, and no per-token md5). In-bucket, tokens
       segment via ``np.unique`` + lexsort, singletons drop vectorized,
       and the size filter ``min*den >=
       num*max`` prunes pairs before emission. Hot tokens above
       ``max_bucket`` star-cap with a logged warning (pass ``None`` for
       exact oracle semantics — prefix tokens are each doc's RAREST, so
       hot prefixes are rare by construction).
    4. Verify: candidate ids semi-join the materialized token sets
       (driver memory bounded by the candidate set, never the corpus),
       then exact |intersection| / |union| per pair.

    Emits ``(doc_a, doc_b, inter, uni, jac_e3)`` with doc_a < doc_b and
    ``jac_e3 = inter * 1000 // uni`` (integer floor both sides)."""
    num, den = threshold_num, threshold_den

    def tokset_stage(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        di = np.repeat(np.arange(n, dtype=np.int64), lens)
        g = (
            pa.table({"di": pa.array(di), "token": flat})
            .group_by(["di", "token"])
            .aggregate([])
        )
        gdi = g.column("di").to_numpy(zero_copy_only=False)
        order = np.argsort(gdi, kind="stable")
        gdi = gdi[order]
        terms = g.column("token").take(pa.array(order))
        counts = np.bincount(gdi, minlength=n)
        offs = pa.array(np.concatenate(([0], np.cumsum(counts))).astype(np.int32))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "toks": pa.ListArray.from_arrays(offs, terms.combine_chunks()),
                "sz": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    toksets = (
        docs.select_columns([id_col, text_col])
        .map_batches(tokset_stage, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # reused: df partials, prefix emit, verify attach
    )

    def df_partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch.column("toks"))
        g = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
        return pa.table(
            {
                "token": g.column("token"),
                "df_partial": g.column("token_count").cast(pa.int64()),
            }
        )

    df_rows = collect_small(
        toksets.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("df_partial")),
        "vocabulary",
        {"token": pa.string(), "sum(df_partial)": pa.int64()},
    )
    vocab = df_rows.column("token").to_numpy(zero_copy_only=False).astype(str)
    dfs = df_rows.column("sum(df_partial)").to_numpy()
    vorder = np.argsort(vocab, kind="stable")
    df_ref = ray.put((vocab[vorder], dfs[vorder]))

    def prefix_stage(batch: pa.Table) -> pa.Table:
        vocab_s, dfs_s = ray.get(df_ref)
        counts = pc.list_value_length(batch.column("toks")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if int(counts.sum()) == 0:
            return pa.table({})
        flat = (
            pc.list_flatten(batch.column("toks"))
            .to_numpy(zero_copy_only=False)
            .astype(str)
        )
        di = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        vpos = np.searchsorted(vocab_s, flat)
        dfv = dfs_s[vpos]
        codes = np.unique(flat, return_inverse=True)[1]
        order = np.lexsort((codes, dfv, di))  # per doc: df ASC, token ASC
        di_s = di[order]
        first = np.concatenate(([True], di_s[1:] != di_s[:-1]))
        idx = np.arange(len(di_s), dtype=np.int64)
        rnk = idx - np.maximum.accumulate(np.where(first, idx, 0))  # 0-based
        sizes = counts[di_s]
        ceil_tn = (num * sizes + den - 1) // den
        keep = rnk < (sizes - ceil_tn + 1)
        sel = order[keep]
        # the exchange key is the broadcast-vocab index: the same on every
        # worker (one ray.put snapshot), with no per-token Python hashing
        return pa.table(
            {
                id_col: batch.column(id_col).take(pa.array(di[sel])),
                "token": pa.array(flat[sel], pa.string()),
                "sz": pa.array(sizes[keep], pa.int64()),
                "v": pa.array(vpos[sel], pa.int64()),
            }
        )

    prefixes = toksets.map_batches(
        prefix_stage, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("token").to_numpy(zero_copy_only=False), ids
        )
        # hot prefix tokens star-cap; the size filter applies to the rest
        hot = np.zeros(len(lengths), bool) if max_bucket is None else lengths > max_bucket
        i, j = run_pairs(starts[~hot], lengths[~hot])
        sz = group.column("sz").to_numpy(zero_copy_only=False)[order]
        lo, hi = np.minimum(sz[i], sz[j]), np.maximum(sz[i], sz[j])
        keep = lo * den >= num * hi  # size filter: necessary for J>=t
        si, sj = star_pairs(
            starts[hot], lengths[hot], "jaccard prefix token", max_bucket
        )
        ids = ids[order]
        return pa.table(
            {
                "doc_a": np.concatenate((ids[i[keep]], ids[si])),
                "doc_b": np.concatenate((ids[j[keep]], ids[sj])),
            }
        )

    id_type = _id_type(toksets, id_col)
    cand_pairs = distinct_ds(
        bucket_map(prefixes, "v", bucket_pairs, {"doc_a": id_type, "doc_b": id_type}),
        ["doc_a", "doc_b"],
    )

    def verify(batch: pa.Table) -> pa.Table:
        # each candidate doc's token set once per batch, not once per pair end
        n = batch.num_rows
        ids = pa.concat_arrays([batch.column(c).combine_chunks() for c in ("doc_a", "doc_b")])
        toks = pa.concat_arrays([batch.column(c).combine_chunks() for c in ("toks_a", "toks_b")])
        code = pc.dictionary_encode(ids).indices.to_numpy(zero_copy_only=False)
        _, first = np.unique(code, return_index=True)
        sets = [frozenset(t or ()) for t in toks.take(pa.array(first)).to_pylist()]
        size = np.fromiter(map(len, sets), np.int64, count=len(sets))
        ca, cb = code[:n], code[n:]
        inter = np.fromiter(
            (len(sets[a] & sets[b]) for a, b in zip(ca.tolist(), cb.tolist())), np.int64, count=n
        )
        uni = size[ca] + size[cb] - inter
        keep = pa.array(inter * den >= num * uni)
        return pa.table(
            {
                "doc_a": batch.column("doc_a").filter(keep),
                "doc_b": batch.column("doc_b").filter(keep),
                "inter": pa.array(inter, pa.int64()).filter(keep),
                "uni": pa.array(uni, pa.int64()).filter(keep),
                "jac_e3": pa.array(inter * 1000 // np.maximum(uni, 1), pa.int64()).filter(keep),
            }
        )

    return _pair_payload(cand_pairs, toksets, id_col, ["toks"]).map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True
    )


def length_rank_ds(
    docs: Dataset,
    value_col: str = "n_chars",
    id_col: str = "doc_id",
) -> Dataset:
    """Global percentile rank of an integer column WITHOUT a global sort —
    the `count(*) OVER (ORDER BY v)` window function re-expressed as a
    broadcast CDF: per-batch value-count combiner -> ``groupby(value)``
    sum (one row per DISTINCT value — bounded-domain columns like lengths
    and scores stay tiny regardless of corpus size) -> the cumulative
    histogram broadcasts via ``ray.put`` -> one ``searchsorted`` probe per
    batch attaches ``n_le`` (docs with value <= mine, peers included,
    matching the SQL RANGE frame) and the integer permille rank.

    A sort-based rank would shuffle the ENTIRE corpus; this moves one row
    per distinct value and streams everything else."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"v": batch.column(value_col).cast(pa.int64())})
            .group_by("v")
            .aggregate([("v", "count")])
        )
        return pa.table(
            {"v": g.column("v"), "n_partial": g.column("v_count").cast(pa.int64())}
        )

    hist = collect_small(
        docs.select_columns([value_col])
        .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(Sum("n_partial")),
        "value domain",
        {"v": pa.int64(), "sum(n_partial)": pa.int64()},
    )
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(n_partial)").to_numpy()
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    total = int(cum[-1]) if cum.size else 0
    cdf_ref = ray.put((vals, cum))

    def attach(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], batch.column(id_col).type),
                value_col: pa.array([], pa.int64()),
                "n_le": pa.array([], pa.int64()),
                "permille": pa.array([], pa.int64()),
            }
        )
        if total == 0:
            return empty
        v_s, c_s = ray.get(cdf_ref)
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        n_le = c_s[np.searchsorted(v_s, v, side="right") - 1]
        return pa.table(
            {
                id_col: batch.column(id_col),
                value_col: pa.array(v, pa.int64()),
                "n_le": pa.array(n_le, pa.int64()),
                "permille": pa.array(n_le * 1000 // total, pa.int64()),
            }
        )

    return docs.select_columns([id_col, value_col]).map_batches(
        attach, batch_format="pyarrow", zero_copy_batch=True
    )


def collocations_ds(
    docs: Dataset,
    min_count: int = 5,
    text_col: str = "text",
) -> Dataset:
    """Bigram collocation mining with an integer lift score — the
    phrase-detection / tokenizer-merge-candidate pass of a text corpus
    (cf. word2vec phrase building; reference has no counterpart — this is
    a training-data-platform operator).

    For each adjacent token pair (w1, w2) with corpus count
    ``n_xy >= min_count``: ``lift_e6 = n_xy * N * 1e6 // (n_x * n_y)``
    where ``n_x`` = occurrences of w1 as a bigram FIRST element, ``n_y``
    = w2 as SECOND element, ``N`` = total bigram count. All-integer, so
    a SQL oracle reproduces every row exactly (documented bound:
    ``n_xy * N * 1_000_000 < 2**63``).

    Scale shape: per-batch Arrow bigram-count combiner (one k=2
    ``textstats.token_windows`` + one ``group_by`` per block, each
    counted bigram split back into its pair — no per-doc Python) -> ONE
    ``groupby(w1, w2)`` over combined rows, materialized once. The
    marginals n_x / n_y derive from the pair table itself (two more
    combiner+groupby passes over it), come to the driver through
    ``collect_small`` (vocab-sized by Heaps' law), broadcast via
    ``ray.put``, and the final
    scoring is one streaming probe pass over the pair table."""

    def partial(batch: pa.Table) -> pa.Table:
        _, _, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), 2)
        g = pa.table({"gram": grams}).group_by("gram").aggregate([("gram", "count")])
        # a token holds no space, so each gram splits back into its pair
        pair = pc.split_pattern(g.column("gram"), " ", max_splits=1)
        return pa.table(
            {
                "w1": pc.list_element(pair, 0),
                "w2": pc.list_element(pair, 1),
                "n_partial": g.column("gram_count").cast(pa.int64()),
            }
        )

    pair_agg = (
        docs.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["w1", "w2"])
        .aggregate(Sum("n_partial"))
    )

    def finish_pairs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n_xy": batch.column("sum(n_partial)").cast(pa.int64()),
            }
        )

    pairs_tot = pair_agg.map_batches(
        finish_pairs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def marginal(col: str) -> "tuple[np.ndarray, np.ndarray]":
        def part(batch: pa.Table) -> pa.Table:
            g = (
                pa.table({col: batch.column(col), "n": batch.column("n_xy")})
                .group_by(col)
                .aggregate([("n", "sum")])
            )
            return pa.table(
                {col: g.column(col), "m_partial": g.column("n_sum").cast(pa.int64())}
            )

        agg = collect_small(
            pairs_tot.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(col)
            .aggregate(Sum("m_partial")),
            "bigram marginal vocab",
            {col: pa.string(), "sum(m_partial)": pa.int64()},
        )
        toks = agg.column(col).to_numpy(zero_copy_only=False).astype(str)
        cnts = agg.column("sum(m_partial)").to_numpy()
        order = np.argsort(toks)
        return toks[order], cnts[order]

    tx, nx = marginal("w1")
    ty, ny = marginal("w2")
    n_total = int(nx.sum())
    ref = ray.put((tx, nx, ty, ny))

    def score(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("n_xy"), pa.scalar(min_count, pa.int64()))
        )
        if batch.num_rows == 0:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "n_xy": pa.array([], pa.int64()),
                    "lift_e6": pa.array([], pa.int64()),
                }
            )
        tx_, nx_, ty_, ny_ = ray.get(ref)
        a = batch.column("w1").to_numpy(zero_copy_only=False).astype(str)
        b = batch.column("w2").to_numpy(zero_copy_only=False).astype(str)
        n_xy = batch.column("n_xy").to_numpy(zero_copy_only=False)
        n_x = nx_[np.searchsorted(tx_, a)]
        n_y = ny_[np.searchsorted(ty_, b)]
        lift = n_xy * np.int64(n_total) * np.int64(1_000_000) // (n_x * n_y)
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n_xy": pa.array(n_xy, pa.int64()),
                "lift_e6": pa.array(lift, pa.int64()),
            }
        )

    return pairs_tot.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def centroids_ds(
    embeddings: Dataset,
    group_col: str = "label",
    vec_col: str = "embedding",
) -> Dataset:
    """Per-group embedding centroid accumulators — the cluster-profile /
    class-prototype step of an embedding pipeline (k-means update,
    per-source drift monitoring). Emits one row per (group, dim):
    ``sum_e6`` (sum of ``floor(x * 1e6)`` quantized components — exact
    int64, the same quantization rule as :func:`knn_graph_ds`) and
    ``n_vecs``, i.e. the exact unnormalized centroid.

    Scale shape: a per-batch combiner segment-sums the quantized matrix
    per group with ONE ``np.add.reduceat`` along axis 0 (groups x dim
    partial rows, tiny) -> one bounded ``groupby(group, dim)``. The
    vectors themselves never shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m * 1e6).astype(np.int64)
        g = batch.column(group_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        gs, qs = g[order], q[order]
        starts = np.flatnonzero(np.concatenate(([True], gs[1:] != gs[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(gs)])))
        sums = np.add.reduceat(qs, starts, axis=0)  # (n_groups, dim) int64
        n_groups, dim = sums.shape
        return pa.table(
            {
                "g": pa.array(np.repeat(gs[starts], dim), pa.int64()),
                "dim": pa.array(
                    np.tile(np.arange(1, dim + 1, dtype=np.int64), n_groups),
                    pa.int64(),
                ),
                "s_partial": pa.array(sums.reshape(-1), pa.int64()),
                "n_partial": pa.array(
                    np.repeat(seg_len.astype(np.int64), dim), pa.int64()
                ),
            }
        )

    agg = (
        embeddings.select_columns([group_col, vec_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "dim"])
        .aggregate(Sum("s_partial"), Sum("n_partial"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: batch.column("g"),
                "dim": batch.column("dim"),
                "sum_e6": batch.column("sum(s_partial)").cast(pa.int64()),
                "n_vecs": batch.column("sum(n_partial)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------- deterministic k-means (integer-exact Lloyd iterations) ----------


def kmeans_ds(
    embeddings: Dataset,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Deterministic k-means: init = the vectors of the ``k`` smallest
    ids, then ``iters`` exact Lloyd iterations, then the final
    assignment ``(vec_id, cluster, dist2)`` — the clustering step behind
    IVF index build and diversity-bucketed curation, expressed so ANY
    engine reproduces it bit-exactly.

    Cross-engine exactness (same construction as :func:`knn_graph_ds`):
    components quantize to ``floor(x * 1e6)`` — exact integers in
    float64 — so every squared distance ``|a|² + |c|² − 2a·c`` is an
    exact integer below 2^53 (summation-order independent), assignment
    ties break to the smallest centroid id (vectorized ``argmin`` takes
    the first minimum), and centroid updates are integer FLOOR division
    of exact component sums (empty clusters keep their previous
    centroid). No rounding tolerance anywhere.

    Scale shape: centroids are k×d — broadcast-sized by definition —
    and live in the object store (``ray.put`` per iteration). Each
    iteration is ONE ``map_batches`` pass: assignment via a blocked
    matmul against the broadcast centroids plus a per-block scatter-add
    partial (k rows per block: count + per-dim sums), so only
    k·blocks-sized partials reach the driver for the (tiny) floor-div
    update. The N-sized data never shuffles; iteration count is fixed,
    not data-dependent."""

    def quantize(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.ascontiguousarray(np.floor(m * 1e6))
        flat = pa.array(q.reshape(-1), pa.float64())
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "_qv": pa.FixedSizeListArray.from_arrays(flat, q.shape[1]),
            }
        )

    qds = embeddings.select_columns([id_col, vec_col]).map_batches(
        quantize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    cents = _head_vectors(qds, id_col, k)
    if len(cents) == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "dist2": pa.array([], pa.int64()),
                }
            )
        )
    d = cents.shape[1]

    def _assign(qm: np.ndarray, cents_arr: np.ndarray) -> np.ndarray:
        # |a|^2 + |c|^2 - 2 a.c — every term an exact integer in float64
        na2 = np.einsum("ij,ij->i", qm, qm)
        nc2 = np.einsum("ij,ij->i", cents_arr, cents_arr)
        d2 = na2[:, None] + nc2[None, :] - 2.0 * (qm @ cents_arr.T)
        return d2

    for _ in range(iters):
        cents_ref = ray.put(cents)

        def update_partial(batch: pa.Table) -> pa.Table:
            kk = len(ray.get(cents_ref))
            c = ray.get(cents_ref)
            qm = (
                batch.column("_qv")
                .combine_chunks()
                .values.to_numpy(zero_copy_only=False)
                .reshape(batch.num_rows, -1)
            )
            assign = np.argmin(_assign(qm, c), axis=1)  # first min = min cid
            counts = np.bincount(assign, minlength=kk).astype(np.int64)
            sums = np.zeros((kk, qm.shape[1]), dtype=np.int64)
            np.add.at(sums, assign, qm.astype(np.int64))
            present = np.flatnonzero(counts)
            return pa.table(
                {
                    "cid": pa.array(present, pa.int64()),
                    "n_p": pa.array(counts[present], pa.int64()),
                    "s_p": pa.array(
                        [sums[i].tolist() for i in present], pa.list_(pa.int64())
                    ),
                }
            )

        parts = collect_small(  # <= k rows per block
            qds.map_batches(
                update_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "per-block centroid partials",
            {"cid": pa.int64(), "n_p": pa.int64(), "s_p": pa.list_(pa.int64())},
        )
        cid = parts.column("cid").to_numpy()
        counts = np.zeros(len(cents), dtype=np.int64)
        sums = np.zeros((len(cents), d), dtype=np.int64)
        np.add.at(counts, cid, parts.column("n_p").to_numpy())
        np.add.at(sums, cid, _list_rows(parts.column("s_p"), d))
        new_cents = cents.copy()
        nz = counts > 0
        new_cents[nz] = (sums[nz] // counts[nz, None]).astype(np.float64)
        cents = new_cents

    final_ref = ray.put(cents)

    def final_assign(batch: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        qm = (
            batch.column("_qv")
            .combine_chunks()
            .values.to_numpy(zero_copy_only=False)
            .reshape(batch.num_rows, -1)
        )
        d2 = _assign(qm, c)
        assign = np.argmin(d2, axis=1)
        best = d2[np.arange(len(assign)), assign]
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "cluster": pa.array(assign.astype(np.int64), pa.int64()),
                "dist2": pa.array(best.astype(np.int64), pa.int64()),
            }
        )

    return qds.map_batches(final_assign, batch_format="pyarrow", zero_copy_batch=True)


# ---------- fuzzy string join (edit distance <= 1, SymSpell blocking) ----------


def fuzzy_join_ds(
    queries: Dataset,
    dictionary: Dataset,
    query_col: str = "q",
    token_col: str = "token",
    count_col: str = "c",
    max_token_len: int = 23,
    max_bucket_pairs: int = 5_000_000,
) -> Dataset:
    """Fuzzy string join: every (query, dictionary token) pair within
    Levenshtein distance <= 1 — the spell-correction / entity-resolution
    lookup (SymSpell / FastSS deletion-neighborhood blocking, a public
    method). Queries must be DISTINCT strings; dictionary carries one
    row per token with a count payload. Edits count code points, so
    non-ASCII strings join too (DuckDB's ``levenshtein`` counts bytes and
    agrees only on ASCII); strings over ``max_token_len`` are skipped.

    Blocking is 100%-recall for ED<=1: each string emits itself plus its
    single-character-deletion variants, and two strings within one edit
    share >= 1 variant (substitution -> the mismatch-deleted string,
    insertion -> the shorter string itself). Verified pairs are emitted
    exactly once with no dedup pass, because a verified pair shares
    EXACTLY one variant: unequal lengths can never collide on a second
    variant, and an equal-length pair's single mismatch position is the
    only deletion that reconciles them (q == w exact hits share many
    variants, so those keep only their self-variant segment).

    Scale shape: variant generation is a per-block loop over DISTINCT
    strings (vocab-bounded, like the md5 gram hashing elsewhere), both
    sides shuffle ONCE as a tagged union through ``exchange.bucket_map``
    on the variant (bounded group count), in-bucket candidate expansion is offset
    arithmetic (no per-segment Python), and verification is
    ``textstats.levenshtein <= 1``, vectorized across pairs.
    ``max_bucket_pairs`` fails loud on a pathological vocabulary instead
    of silently dropping candidates."""

    def _variants(tok: str) -> List[str]:
        # dict.fromkeys dedups (repeated chars make equal deletions —
        # "small" -> "smal" twice) while keeping order deterministic
        return list(
            dict.fromkeys(
                [tok] + [tok[:i] + tok[i + 1 :] for i in range(len(tok))]
            )
        )

    out_schema = pa.schema(
        [
            ("query", pa.string()),
            ("suggestion", pa.string()),
            ("dist", pa.int64()),
            ("sugg_n", pa.int64()),
        ]
    )

    def q_side(batch: pa.Table) -> pa.Table:
        toks = [
            t
            for t in batch.column(query_col).to_pylist()
            if t and len(t) <= max_token_len
        ]
        var, tok_of = [], []
        for t in toks:
            for v in _variants(t):
                var.append(v)
                tok_of.append(t)
        return pa.table(
            {
                "variant": pa.array(var, pa.string()),
                "tok": pa.array(tok_of, pa.string()),
                "side": pa.array(np.zeros(len(var), np.int8)),
                "cnt": pa.array(np.zeros(len(var), np.int64)),
                "is_self": pa.array([v == t for v, t in zip(var, tok_of)], pa.bool_()),
            }
        )

    def d_side(batch: pa.Table) -> pa.Table:
        toks = batch.column(token_col).to_pylist()
        cnts = batch.column(count_col).to_numpy(zero_copy_only=False)
        var, tok_of, cnt_of = [], [], []
        for t, c in zip(toks, cnts):
            if not t or len(t) > max_token_len:
                continue
            for v in _variants(t):
                var.append(v)
                tok_of.append(t)
                cnt_of.append(int(c))
        return pa.table(
            {
                "variant": pa.array(var, pa.string()),
                "tok": pa.array(tok_of, pa.string()),
                "side": pa.array(np.ones(len(var), np.int8)),
                "cnt": pa.array(cnt_of, pa.int64()),
                "is_self": pa.array([v == t for v, t in zip(var, tok_of)], pa.bool_()),
            }
        )

    both = queries.select_columns([query_col]).map_batches(
        q_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        dictionary.select_columns([token_col, count_col]).map_batches(
            d_side, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        var = np.asarray(group.column("variant").to_pylist(), dtype=object)
        tok = np.asarray(group.column("tok").to_pylist(), dtype=object)
        side = group.column("side").to_numpy(zero_copy_only=False)
        cnt = group.column("cnt").to_numpy(zero_copy_only=False)
        is_self = group.column("is_self").to_numpy(zero_copy_only=False)
        # sort by (variant, side) so each variant is one segment with
        # queries first, dictionary entries after
        order = np.lexsort((side, var.astype(str)))
        var, tok, side, cnt, is_self = (
            var[order], tok[order], side[order], cnt[order], is_self[order]
        )
        vs = var.astype(str)
        seg = np.concatenate(([True], vs[1:] != vs[:-1]))
        seg_id = np.cumsum(seg) - 1
        n_seg = seg_id[-1] + 1 if len(seg_id) else 0
        nq = np.bincount(seg_id, weights=(side == 0), minlength=n_seg).astype(np.int64)
        nw = np.bincount(seg_id, weights=(side == 1), minlength=n_seg).astype(np.int64)
        starts = np.flatnonzero(seg)
        m = nq * nw  # pairs per segment
        total = int(m.sum())
        if total > max_bucket_pairs:
            raise ValueError(
                f"candidate pairs in one bucket ({total}) exceed "
                f"max_bucket_pairs={max_bucket_pairs}"
            )
        if total == 0:
            return pa.table({})
        seg_of_pair = np.repeat(np.arange(n_seg), m)
        off = np.arange(total) - np.repeat(np.concatenate(([0], np.cumsum(m)[:-1])), m)
        bw = nw[seg_of_pair]
        qi = starts[seg_of_pair] + off // bw
        wi = starts[seg_of_pair] + nq[seg_of_pair] + off % bw
        qt, wt = tok[qi], tok[wi]
        qsel, wsel = is_self[qi], is_self[wi]
        eqm = qt == wt
        # exact hits only from the self-variant segment (emitted once);
        # ED-1 candidates exclude equal strings, then verify
        keep_exact = eqm & qsel & wsel
        cand = ~eqm
        ok = np.zeros(total, dtype=bool)
        if cand.any():
            ok[cand] = ts.levenshtein(qt[cand], wt[cand]) <= 1
        keep = keep_exact | ok
        return pa.table(
            {
                "query": pa.array(qt[keep].astype(str), pa.string()),
                "suggestion": pa.array(wt[keep].astype(str), pa.string()),
                "dist": pa.array((~eqm[keep]).astype(np.int64), pa.int64()),
                "sugg_n": pa.array(cnt[wi][keep].astype(np.int64), pa.int64()),
            }
        )

    return bucket_map(both, "variant", bucket_pairs, out_schema)


# ---------- cross-source k-gram overlap matrix (contamination audit) ----------


def source_overlap_ds(
    docs: Dataset,
    group_col: str = "source",
    text_col: str = "text",
    shingle_k: int = 5,
    max_sources: int = 1_000,
) -> Dataset:
    """Cross-source contamination matrix: for every pair of sources, the
    number of DISTINCT word ``shingle_k``-grams present in both, plus
    each side's distinct-gram total (so consumers derive containment /
    Jaccard) — the audit a curation pipeline runs to find mirrored or
    cross-posted content between ingest feeds before weighting them as
    independent. Pairs with zero shared grams are omitted (inner
    semantics). Gram hashing reuses ``textstats.shingle_hashes``
    (md5-u64, whole-doc fallback under ``shingle_k`` tokens) so the
    DuckDB twin reproduces it bit-exactly.

    Scale shape: per-block combiner emits DISTINCT ``(gram_hash,
    source)`` rows only; ONE ``exchange.bucket_map`` on the gram hash
    co-locates each gram's source set; in-bucket global
    dedup, then every gram's source run expands to its pairs through the
    vectorized `exchange` kernel (no loop over grams); only tiny
    ``(src_a, src_b, count)`` partials plus per-source totals leave the
    bucket, and the final groupby is over the sources² domain (guarded by
    ``max_sources``)."""

    def gram_rows(batch: pa.Table) -> pa.Table:
        srcs = batch.column(group_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        hs, ss = [], []
        for s, t in zip(srcs, texts):
            h = ts.shingle_hashes(t or "", shingle_k)
            if len(h):
                hs.append(h)
                ss.append(np.full(len(h), s, dtype=object))
        if not hs:
            return pa.table({})
        h = np.concatenate(hs)
        s = np.concatenate(ss).astype(str)
        # block-local distinct (h, source)
        svals, sc = np.unique(s, return_inverse=True)
        order = np.lexsort((sc, h))
        h, sc = h[order], sc[order]
        keep = np.concatenate(([True], (h[1:] != h[:-1]) | (sc[1:] != sc[:-1])))
        h, sc = h[keep], sc[keep]
        return pa.table(
            {"h": pa.array(h, pa.uint64()), "src": pa.array(svals[sc], pa.string())}
        )

    partial_schema = pa.schema(
        [("src_a", pa.string()), ("src_b", pa.string()), ("n_p", pa.int64())]
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # global distinct (gram, source) inside the bucket
        t = group.select(["h", "src"]).group_by(["h", "src"]).aggregate([])
        s = np.asarray(t.column("src").to_pylist(), dtype=object).astype(str)
        svals, sc = np.unique(s, return_inverse=True)
        # per-source distinct-gram totals in this bucket ("" sentinel rows)
        tot = np.bincount(sc, minlength=len(svals)).astype(np.int64)
        out_a = [svals, ]
        out_b = [np.full(len(svals), "", dtype=object)]
        out_n = [tot]
        # per-gram source-set pair expansion
        order, starts, lengths = segment_runs(
            t.column("h").to_numpy(zero_copy_only=False), sc
        )
        i, j = run_pairs(starts, lengths)
        if len(i):
            a, b = sc[order[i]], sc[order[j]]
            comp = a.astype(np.int64) * len(svals) + b
            uc, cnt = np.unique(comp, return_counts=True)
            out_a.append(svals[uc // len(svals)])
            out_b.append(svals[uc % len(svals)])
            out_n.append(cnt.astype(np.int64))
        return pa.table(
            {
                "src_a": pa.array(np.concatenate(out_a).astype(object), pa.string()),
                "src_b": pa.array(np.concatenate(out_b).astype(object), pa.string()),
                "n_p": pa.array(np.concatenate(out_n), pa.int64()),
            }
        )

    partials = bucket_map(
        docs.select_columns([group_col, text_col]).map_batches(
            gram_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        bucket_pairs,
        partial_schema,
    )
    agg = collect_small(
        partials.groupby(["src_a", "src_b"]).aggregate(Sum("n_p")),
        "sources^2 overlap counts",
        {"src_a": pa.string(), "src_b": pa.string(), "sum(n_p)": pa.int64()},
    )
    out_schema = pa.schema(
        [
            ("src_a", pa.string()),
            ("src_b", pa.string()),
            ("shared_grams", pa.int64()),
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
        ]
    )
    totals: Dict[str, int] = {}
    pairs: List[Tuple[str, str, int]] = []
    for a, b, n in zip(*(agg.column(c).to_pylist() for c in agg.column_names)):
        if b == "":
            totals[a] = totals.get(a, 0) + n
        else:
            pairs.append((a, b, n))
    if len(totals) > max_sources:
        raise ValueError(
            f"{len(totals)} sources exceed max_sources={max_sources}"
        )
    pairs.sort()
    return ray.data.from_arrow(
        pa.table(
            {
                "src_a": pa.array([p[0] for p in pairs], pa.string()),
                "src_b": pa.array([p[1] for p in pairs], pa.string()),
                "shared_grams": pa.array([p[2] for p in pairs], pa.int64()),
                "n_a": pa.array([totals[p[0]] for p in pairs], pa.int64()),
                "n_b": pa.array([totals[p[1]] for p in pairs], pa.int64()),
            }
        )
        if pairs
        else pa.table({f.name: pa.array([], f.type) for f in out_schema})
    )


# ---------- DSIR-style hashed-token importance weights ----------


def dsir_weights_ds(
    docs: Dataset,
    target_filter_col: str,
    target_value: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_feat: int = 1024,
    quant: int = 1_000_000,
) -> Dataset:
    """Importance weights for target-distribution-matched sampling
    (DSIR, Xie et al. 2023 — public method), linearized to stay
    integer-exact across engines: tokens hash into ``n_feat`` buckets
    (``md5_u64(token) % n_feat``), each bucket gets an add-one-smoothed
    target/raw rate ratio quantized to ``ratio_e6 = ((T[b]+1) * quant *
    (NR+n_feat)) // ((R[b]+1) * (NT+n_feat))``, and a document's weight
    is the SUM of its token-occurrence ratios (the log-product of true
    DSIR replaced by a sum of quantized ratios — same ordering intent,
    exact integers). Output: (doc_id, n_tokens, weight_e6).

    Scale shape: two passes. Pass 1 builds the n_feat-bucket count table
    with a per-batch ``np.bincount`` combiner — ONE n_feat-sized row per
    block reaches the groupby, never a token shuffle. The tiny ratio
    table broadcasts via ``ray.put``; pass 2 re-streams the corpus and
    scores each doc with one hash + bincount-free gather per batch."""
    feat_of: Dict[str, int] = {}  # per-worker memo: md5 once per DISTINCT token

    def _feats(col: pa.ChunkedArray) -> Tuple[np.ndarray, np.ndarray]:
        """(flat feature codes, per-doc token counts) for a text column.
        Tokenization and flattening are Arrow kernels; Python md5 runs
        only once per distinct token (vocab-bounded, memoized)."""
        combined = (
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        nonempty = pc.not_equal(combined, "")
        split = pc.split_pattern(combined, pattern=" ")
        lens = pc.if_else(
            nonempty, pc.list_value_length(split).cast(pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        flat = (
            pc.list_flatten(split.filter(nonempty))
            .to_numpy(zero_copy_only=False)
            .astype(object)
        )
        if not len(flat):
            return np.zeros(0, np.int64), lens.astype(np.int64)
        uniq, inv = np.unique(flat.astype(str), return_inverse=True)
        ucodes = np.fromiter(
            (
                feat_of[w]
                if w in feat_of
                else feat_of.setdefault(w, ts.md5_u64(w) % n_feat)
                for w in uniq
            ),
            dtype=np.int64,
            count=len(uniq),
        )
        return ucodes[inv], lens.astype(np.int64)

    def counts_partial(batch: pa.Table) -> pa.Table:
        is_t = pc.equal(
            batch.column(target_filter_col), target_value
        ).to_numpy(zero_copy_only=False)
        codes, lens = _feats(batch.column(text_col))
        doc_of = np.repeat(np.arange(len(lens)), lens)
        tmask = is_t[doc_of] if len(doc_of) else np.zeros(0, bool)
        t_cnt = np.bincount(codes[tmask], minlength=n_feat).astype(np.int64)
        r_cnt = np.bincount(codes, minlength=n_feat).astype(np.int64)
        return pa.table(
            {
                "b": pa.array(np.arange(n_feat, dtype=np.int64), pa.int64()),
                "t_p": pa.array(t_cnt, pa.int64()),
                "r_p": pa.array(r_cnt, pa.int64()),
            }
        )

    agg = collect_small(
        docs.select_columns([target_filter_col, text_col])
        .map_batches(counts_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .aggregate(Sum("t_p"), Sum("r_p")),
        "hashed feature counts",
        {"b": pa.int64(), "sum(t_p)": pa.int64(), "sum(r_p)": pa.int64()},
    )
    b = agg.column("b").to_numpy()
    T = np.zeros(n_feat, dtype=np.int64)
    R = np.zeros(n_feat, dtype=np.int64)
    T[b] = agg.column("sum(t_p)").to_numpy()
    R[b] = agg.column("sum(r_p)").to_numpy()
    NT, NR = int(T.sum()), int(R.sum())
    # Python-int arithmetic: the (T+1)*quant*(NR+n_feat) product overflows
    # int64 at web scale; DuckDB's HUGEINT intermediates match this exactly
    ratio = np.fromiter(
        (
            ((int(T[b]) + 1) * quant * (NR + n_feat))
            // ((int(R[b]) + 1) * (NT + n_feat))
            for b in range(n_feat)
        ),
        dtype=np.int64,
        count=n_feat,
    )
    ref = ray.put(ratio)

    def score(batch: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        codes, lens = _feats(batch.column(text_col))
        ends = np.cumsum(lens)
        starts = ends - lens
        vals = rt[codes] if len(codes) else np.zeros(0, np.int64)
        csum = np.concatenate(([0], np.cumsum(vals)))
        w = csum[ends] - csum[starts]
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_tokens": pa.array(lens, pa.int64()),
                "weight_e6": pa.array(w.astype(np.int64), pa.int64()),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- product quantization (PQ): encode + ADC search ----------


def _pq_qds(embeddings: Dataset, id_col: str, vec_col: str) -> Dataset:
    """Materialized (id, floor(x*1e6) fixed-size-list) projection shared
    by the PQ passes (the :func:`kmeans_ds` quantization rule)."""

    def quantize(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.ascontiguousarray(np.floor(m * 1e6))
        flat = pa.array(q.reshape(-1), pa.float64())
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "_qv": pa.FixedSizeListArray.from_arrays(flat, q.shape[1]),
            }
        )

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        quantize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()


def _head_vectors(qds: Dataset, id_col: str, k: int) -> np.ndarray:
    """The quantized vectors ``_qv`` of the ``k`` smallest ids of ``qds``,
    in id order: per-block k-smallest partials, then one driver sort over
    at most k rows per block."""

    def head_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(np.sort(keep), pa.int64()))

    cand = collect_small(
        qds.map_batches(head_partial, batch_format="pyarrow", zero_copy_batch=True),
        "per-block k smallest ids",
        {id_col: pa.int64(), "_qv": pa.list_(pa.float64())},
    )
    order = np.argsort(cand.column(id_col).to_numpy(), kind="stable")[:k]
    return np.array(cand.column("_qv").take(order).to_pylist(), np.float64)


def _list_rows(col: pa.ChunkedArray, width: int) -> np.ndarray:
    """A list column whose lists all hold ``width`` values, as a 2-D array."""
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), width)


def _pq_dist2(qm: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """|a|^2 + |c|^2 - 2 a.c — every term an exact integer in float64."""
    na2 = np.einsum("ij,ij->i", qm, qm)
    nc2 = np.einsum("ij,ij->i", cents, cents)
    return na2[:, None] + nc2[None, :] - 2.0 * (qm @ cents.T)


def _pq_learn(
    qds: Dataset, m_sub: int, k: int, iters: int, id_col: str
) -> Optional[List[np.ndarray]]:
    """Per-subspace PQ codebooks with the engine's deterministic
    integer-exact k-means rules (init = the k smallest ids' sub-vectors,
    floor-div updates, ties to the smallest centroid, empty clusters
    keep position). Codebooks are m_sub x k x d_sub — broadcast-sized;
    each iteration is ONE map_batches pass emitting per-block
    scatter-add partials for ALL subspaces (m_sub*k rows per block)."""

    init = _head_vectors(qds, id_col, k)
    if len(init) == 0:
        return None
    if len(init) < k:
        # fewer vectors than centroids: pad by repeating the last init
        # row — ties assign to the smallest centroid id, so duplicate
        # centroids never win an assignment and encoding is unchanged
        init = np.vstack([init, np.repeat(init[-1:], k - len(init), axis=0)])
    d = init.shape[1]
    if d % m_sub:
        raise ValueError(f"dim {d} not divisible by m_sub={m_sub}")
    dsub = d // m_sub
    books = [init[:, s * dsub : (s + 1) * dsub].copy() for s in range(m_sub)]

    for _ in range(iters):
        books_ref = ray.put(books)

        def update_partial(batch: pa.Table) -> pa.Table:
            bks = ray.get(books_ref)
            qm = (
                batch.column("_qv")
                .combine_chunks()
                .values.to_numpy(zero_copy_only=False)
                .reshape(batch.num_rows, -1)
            )
            subs, cids, nps, sps = [], [], [], []
            for s in range(m_sub):
                sm = qm[:, s * dsub : (s + 1) * dsub]
                assign = np.argmin(_pq_dist2(sm, bks[s]), axis=1)
                counts = np.bincount(assign, minlength=k).astype(np.int64)
                sums = np.zeros((k, dsub), dtype=np.int64)
                np.add.at(sums, assign, sm.astype(np.int64))
                present = np.flatnonzero(counts)
                subs.append(np.full(len(present), s, np.int64))
                cids.append(present.astype(np.int64))
                nps.append(counts[present])
                sps.extend(sums[i].tolist() for i in present)
            return pa.table(
                {
                    "sub": pa.array(np.concatenate(subs), pa.int64()),
                    "cid": pa.array(np.concatenate(cids), pa.int64()),
                    "n_p": pa.array(np.concatenate(nps), pa.int64()),
                    "s_p": pa.array(sps, pa.list_(pa.int64())),
                }
            )

        parts = collect_small(  # <= m_sub*k rows per block
            qds.map_batches(
                update_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "per-block codebook partials",
            {
                "sub": pa.int64(),
                "cid": pa.int64(),
                "n_p": pa.int64(),
                "s_p": pa.list_(pa.int64()),
            },
        )
        at = (parts.column("sub").to_numpy(), parts.column("cid").to_numpy())
        counts = np.zeros((m_sub, k), dtype=np.int64)
        sums = np.zeros((m_sub, k, dsub), dtype=np.int64)
        np.add.at(counts, at, parts.column("n_p").to_numpy())
        np.add.at(sums, at, _list_rows(parts.column("s_p"), dsub))
        for s in range(m_sub):
            nz = counts[s] > 0
            books[s][nz] = (sums[s][nz] // counts[s][nz, None]).astype(
                np.float64
            )
    return books


def pq_encode_ds(
    embeddings: Dataset,
    m_sub: int = 4,
    k: int = 4,
    iters: int = 1,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Product-quantization encode (Jégou et al. 2011 — the public
    vector-compression method behind billion-scale ANN stores): the
    vector splits into ``m_sub`` contiguous subspaces, each subspace
    learns its own ``k``-centroid codebook (:func:`_pq_learn`), and
    every vector emits its per-subspace code plus the total integer
    squared reconstruction error. Output: ``(vec_id, code_0..code_{m-1},
    err2)`` — 64 dims compress to ``m_sub`` small ints, the layout an
    IVF-PQ index stores instead of raw floats.

    Scale shape: identical to :func:`kmeans_ds` — codebooks broadcast,
    one partial-scatter ``map_batches`` pass per iteration, and the
    N-sized data never shuffles."""
    qds = _pq_qds(embeddings, id_col, vec_col)
    out_names = [id_col] + [f"code_{s}" for s in range(m_sub)] + ["err2"]
    books = _pq_learn(qds, m_sub, k, iters, id_col)
    if books is None:
        return ray.data.from_arrow(
            pa.table({n: pa.array([], pa.int64()) for n in out_names})
        )
    dsub = books[0].shape[1]
    final_ref = ray.put(books)

    def final_assign(batch: pa.Table) -> pa.Table:
        bks = ray.get(final_ref)
        qm = (
            batch.column("_qv")
            .combine_chunks()
            .values.to_numpy(zero_copy_only=False)
            .reshape(batch.num_rows, -1)
        )
        cols = {id_col: batch.column(id_col)}
        err = np.zeros(batch.num_rows, dtype=np.int64)
        for s in range(m_sub):
            sm = qm[:, s * dsub : (s + 1) * dsub]
            d2 = _pq_dist2(sm, bks[s])
            assign = np.argmin(d2, axis=1)
            err += d2[np.arange(len(assign)), assign].astype(np.int64)
            cols[f"code_{s}"] = pa.array(assign.astype(np.int64), pa.int64())
        cols["err2"] = pa.array(err, pa.int64())
        return pa.table(cols)

    return qds.map_batches(final_assign, batch_format="pyarrow", zero_copy_batch=True)


def pq_search_ds(
    embeddings: Dataset,
    query_vec: np.ndarray,
    m_sub: int = 4,
    k: int = 4,
    iters: int = 1,
    topk: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """ADC (asymmetric-distance) search over PQ codes — how a
    billion-vector store answers a query WITHOUT touching raw floats:
    learn the codebooks (:func:`_pq_learn`), precompute the tiny
    ``m_sub x k`` lookup table of exact integer distances between the
    quantized query sub-vectors and every centroid, then score each
    vector as the SUM of the LUT entries of its codes and return the
    global top-``topk`` (adc2 ASC, id ASC).

    Scale shape: the LUT broadcasts (m_sub*k ints); scoring is one
    streaming pass (per-subspace argmin encode + LUT gather — the
    vectors never shuffle); the global top-k is per-block top-k partials
    merged on the driver (<= topk rows per block)."""
    qds = _pq_qds(embeddings, id_col, vec_col)
    out_names = [id_col] + [f"code_{s}" for s in range(m_sub)] + ["adc2"]
    books = _pq_learn(qds, m_sub, k, iters, id_col)
    empty = pa.table({n: pa.array([], pa.int64()) for n in out_names})
    if books is None:
        return ray.data.from_arrow(empty)
    dsub = books[0].shape[1]
    qq = np.floor(np.asarray(query_vec, np.float64) * 1e6)
    lut = np.zeros((m_sub, k), dtype=np.int64)
    for s in range(m_sub):
        lut[s] = _pq_dist2(
            qq[s * dsub : (s + 1) * dsub][None, :], books[s]
        )[0].astype(np.int64)
    state_ref = ray.put((books, lut))

    def score_topk(batch: pa.Table) -> pa.Table:
        bks, lut_s = ray.get(state_ref)
        qm = (
            batch.column("_qv")
            .combine_chunks()
            .values.to_numpy(zero_copy_only=False)
            .reshape(batch.num_rows, -1)
        )
        codes = np.empty((m_sub, batch.num_rows), dtype=np.int64)
        adc = np.zeros(batch.num_rows, dtype=np.int64)
        for s in range(m_sub):
            sm = qm[:, s * dsub : (s + 1) * dsub]
            codes[s] = np.argmin(_pq_dist2(sm, bks[s]), axis=1)
            adc += lut_s[s][codes[s]]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        top = np.lexsort((ids, adc))[:topk]
        cols = {id_col: pa.array(ids[top], pa.int64())}
        for s in range(m_sub):
            cols[f"code_{s}"] = pa.array(codes[s][top], pa.int64())
        cols["adc2"] = pa.array(adc[top], pa.int64())
        return pa.table(cols)

    cand = collect_small(  # <= topk rows per block
        qds.map_batches(score_topk, batch_format="pyarrow", zero_copy_batch=True),
        "per-block top-k candidates",
        empty.schema,
    )
    top = np.lexsort(
        (cand.column(id_col).to_numpy(), cand.column("adc2").to_numpy())
    )[:topk]
    return ray.data.from_arrow(cand.take(top))


# ---------- lexical diversity / integrity ----------


def simpson_diversity_ds(
    docs: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Per-document Gini-Simpson lexical diversity, INTEGER-EXACT: token
    count ``n``, distinct-token count, the collision numerator
    ``sum_c2 = sum(c_i^2)`` over per-token multiplicities, and
    ``simpson_e6 = 1e6 - 1e6*sum_c2 // n^2`` (the probability two tokens
    drawn with replacement differ, floored to e6). The standard
    vocabulary-flatness quality signal next to repetition_stats — a doc
    that repeats one token has simpson_e6 -> 0, a doc of all-distinct
    tokens -> ~1e6*(n-1)/n. No float anywhere, so the SQL twin is
    bit-exact.

    Scale shape: pure streaming ``map_batches`` — one Arrow C++
    ``group_by((doc, term))`` per batch, then numpy segment reductions;
    zero shuffle, zero driver state."""

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        di = np.repeat(np.arange(n, dtype=np.int64), lens)
        g = (
            pa.table({"di": pa.array(di), "term": flat})
            .group_by(["di", "term"])
            .aggregate([("term", "count")])
        )
        gdi = g.column("di").to_numpy(zero_copy_only=False)
        cnt = g.column("term_count").to_numpy(zero_copy_only=False).astype(np.int64)
        n_distinct = np.bincount(gdi, minlength=n).astype(np.int64)
        sum_c2 = np.zeros(n, dtype=np.int64)
        np.add.at(sum_c2, gdi, cnt * cnt)
        n2 = lens * lens
        simpson = np.where(
            lens > 0, 1_000_000 - (1_000_000 * sum_c2) // np.maximum(n2, 1), 0
        ).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pa.array(lens),
                "n_distinct": pa.array(n_distinct),
                "sum_c2": pa.array(sum_c2),
                "simpson_e6": pa.array(simpson),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def corpus_checksum_ds(
    docs: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Order-invariant corpus integrity fingerprint: ONE row with the row
    count, a mod-2^63 SUM and a 63-bit XOR of per-row
    ``md5_u64(id || '|' || text)`` hashes. The cheap end-to-end check a
    100 TB pipeline runs after every copy/compact/repartition — both
    reductions are commutative, so the result is independent of row
    order, block boundaries and parallelism, and the DuckDB twin
    reproduces it bit-for-bit from the same md5 primitive.

    Scale shape: per-batch combiner emits ONE partial row per block
    (count/sum/xor); the driver folds block partials — O(blocks), never
    O(rows). uint64 wrap-around addition is exact mod 2^63 because
    2^63 | 2^64."""
    mask = np.uint64((1 << 63) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.string()).to_pylist()
        texts = batch.column(text_col).to_pylist()
        h = np.fromiter(
            (ts.md5_u64(f"{i}|{t or ''}") for i, t in zip(ids, texts)),
            np.uint64,
            count=batch.num_rows,
        )
        s = np.uint64(0) if not len(h) else np.bitwise_and(np.add.reduce(h), mask)
        x = np.uint64(0) if not len(h) else np.bitwise_and(
            np.bitwise_xor.reduce(h), mask
        )
        return pa.table(
            {
                "n_rows": pa.array([batch.num_rows], pa.int64()),
                "sum63": pa.array([int(s)], pa.int64()),
                "xor63": pa.array([int(x)], pa.int64()),
            }
        )

    parts = collect_small(  # one row per block
        docs.select_columns([id_col, text_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "per-block checksums",
        {"n_rows": pa.int64(), "sum63": pa.int64(), "xor63": pa.int64()},
    )
    n = sum(parts.column("n_rows").to_pylist())
    s = sum(parts.column("sum63").to_pylist()) % (1 << 63)
    x = 0
    for v in parts.column("xor63").to_pylist():
        x ^= v
    return ray.data.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([n], pa.int64()),
                "sum63": pa.array([s], pa.int64()),
                "xor63": pa.array([x], pa.int64()),
            }
        )
    )


def bm25_topk_ds(
    docs: Dataset,
    query_terms: List[str],
    k: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """BM25 top-``k`` retrieval against a broadcast query, INTEGER-EXACT:
    the classic sparse-retrieval scorer (Robertson et al.) with the two
    real-valued pieces replaced by exact rationals so a SQL twin
    reproduces every score bit-for-bit — ``idf = (N-df+1/2)/(df+1/2)``
    as ``(2N-2df+1)/(2df+1)`` (the log dropped: it is monotone, and the
    rational form keeps cross-term sums exact) and ``k1=6/5, b=3/4,
    avgdl = floor(T/N)``. Per (doc, term):

        score_e6 += (1e6 * (2N-2df+1) * 44*tf*A)
                    // ((2df+1) * (20*tf*A + 6*A + 18*dl))

    where ``A=avgdl``, ``dl`` the doc's token count — the exact integer
    floor of 1e6 * idf * tf*(k1+1) / (tf + k1*(1-b+b*dl/A)).

    Scale shape: pass 1 streams ONE partial row per block (doc count,
    token count, per-query-term df) — the corpus-global constants; pass 2
    streams again, scoring ONLY docs containing a query term (vectorized
    equality per term over the flattened token array) and emitting a
    per-block top-k, so the driver folds <= k rows per block. An int64
    headroom guard trips before any overflow (1e6*2N*44*tf*A must fit
    2^63; production beyond that switches the scorer to float64 ordering
    with the same candidate dataflow)."""
    q = sorted(set(query_terms))
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "score_e6": pa.array([], pa.int64()),
            "n_hit": pa.array([], pa.int64()),
        }
    )

    def term_docs(batch: pa.Table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each doc's token count, and the doc and ``q`` index of every
        token that is a query term."""
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        qi = pc.fill_null(pc.index_in(flat, value_set=pa.array(q, pa.string())), -1)
        qi = qi.to_numpy()
        hit = qi >= 0
        return lens, np.repeat(np.arange(len(lens), dtype=np.int64), lens)[hit], qi[hit]

    def stats_partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lens, di, qi = term_docs(batch)
        dfs = [len(np.unique(di[qi == i])) for i in range(len(q))]
        return pa.table(
            {
                "n_docs": pa.array([n], pa.int64()),
                "n_tokens": pa.array([int(lens.sum())], pa.int64()),
                **{
                    f"df_{i}": pa.array([dfs[i]], pa.int64())
                    for i in range(len(q))
                },
            }
        )

    stat_cols = ["n_docs", "n_tokens"] + [f"df_{i}" for i in range(len(q))]
    parts = collect_small(  # one row per block
        docs.select_columns([id_col, text_col]).map_batches(
            stats_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "per-block term statistics",
        {c: pa.int64() for c in stat_cols},
    )
    N, T, *dfs = (sum(parts.column(c).to_pylist()) for c in stat_cols)
    if N == 0 or T == 0:
        return ray.data.from_arrow(empty)
    A = T // N
    df = np.asarray(dfs, np.int64)
    # int64 headroom guard: max per-term numerator 1e6*(2N+1)*44*tf*A
    # with tf <= max dl; bound via T (no doc exceeds the corpus).
    if 1_000_000 * (2 * N + 1) * 44 * min(T, 1 << 20) * max(A, 1) >= (1 << 62):
        raise ValueError(
            "bm25_topk integer scorer exceeds int64 headroom at this corpus "
            "size; switch to the float64-ordering scorer for production"
        )
    consts = ray.put((df, N, A))

    def score_topk(batch: pa.Table) -> pa.Table:
        dfv, n_docs, avgdl = ray.get(consts)
        n = batch.num_rows
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lens, di, qi = term_docs(batch)
        score = np.zeros(n, dtype=np.int64)
        n_hit = np.zeros(n, dtype=np.int64)
        for i in range(len(q)):
            tf = np.bincount(di[qi == i], minlength=n).astype(np.int64)
            hit = tf > 0
            if not hit.any():
                continue
            idf_num = np.int64(2 * n_docs - 2 * int(dfv[i]) + 1)
            idf_den = np.int64(2 * int(dfv[i]) + 1)
            num = 1_000_000 * idf_num * 44 * tf[hit] * avgdl
            den = idf_den * (20 * tf[hit] * avgdl + 6 * avgdl + 18 * lens[hit])
            score[hit] += num // den
            n_hit[hit] += 1
        cand = score > 0
        if not cand.any():
            return empty
        ids_c, sc_c, nh_c = ids[cand], score[cand], n_hit[cand]
        top = np.lexsort((ids_c, -sc_c))[:k]
        return pa.table(
            {
                id_col: pa.array(ids_c[top], pa.int64()),
                "score_e6": pa.array(sc_c[top], pa.int64()),
                "n_hit": pa.array(nh_c[top], pa.int64()),
            }
        )

    cand = collect_small(  # <= k rows per block
        docs.select_columns([id_col, text_col]).map_batches(
            score_topk, batch_format="pyarrow", zero_copy_batch=True
        ),
        "per-block top-k candidates",
        empty.schema,
    )
    top = np.lexsort(
        (cand.column(id_col).to_numpy(), -cand.column("score_e6").to_numpy())
    )[:k]
    return ray.data.from_arrow(cand.take(top))


def bpe_pairs_ds(
    docs: Dataset,
    k: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """BPE merge-candidate mining (the first round of byte-pair-encoding
    vocabulary induction, Sennrich et al. 2016): the corpus-wide top-``k``
    adjacent CHARACTER pairs weighted by word frequency — exactly the
    statistic a tokenizer trainer maximizes at each merge step.

    Scale shape: per-batch word-frequency combiner -> ONE
    ``groupby(word)`` over the Heaps'-law-bounded vocab -> a streaming
    pass over the grouped vocab expands each word's adjacent code-point
    pairs VECTORIZED (utf-32 view + one np.add.at per batch; no per-word
    Python) -> ``groupby(pair)`` over the alphabet^2-bounded pair domain
    -> driver top-k of that tiny table. Documents never shuffle; only
    (word, n) and (pair, n) combined rows move."""

    vocab = _token_count_partials(docs, text_col, "f").groupby("token").aggregate(Sum("f"))

    def pair_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"pair": pa.array([], pa.string()), "n_p": pa.array([], pa.int64())}
        )
        words = batch.column("token").to_pylist()
        f = batch.column("sum(f)").to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.fromiter((len(w) for w in words), np.int64, count=len(words))
        joined = "".join(words)
        cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        if len(cp) < 2:
            return empty
        ends = np.cumsum(lens)
        starts = ends - lens
        # pair start positions: every index except each word's last char
        valid = np.ones(len(cp), dtype=bool)
        # only non-empty words own a last char (an empty word's end-1
        # would wrap to the previous word — or to -1 at the front)
        valid[ends[lens > 0] - 1] = False
        idx = np.flatnonzero(valid)
        if not len(idx):
            return empty
        key = (cp[idx].astype(np.uint64) << np.uint64(32)) | cp[idx + 1].astype(
            np.uint64
        )
        wi = np.repeat(np.arange(len(words)), np.maximum(lens - 1, 0))
        uk, inv = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, f[wi])
        pairs = [chr(int(h >> np.uint64(32))) + chr(int(h & np.uint64(0xFFFFFFFF))) for h in uk]
        return pa.table(
            {
                "pair": pa.array(pairs, pa.string()),
                "n_p": pa.array(sums, pa.int64()),
            }
        )

    pair_rows = collect_small(
        vocab.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .aggregate(Sum("n_p")),
        "symbol-pair counts",  # alphabet^2-bounded
        {"pair": pa.string(), "sum(n_p)": pa.int64()},
    )
    pr = pair_rows.column("pair").to_numpy(zero_copy_only=False).astype(object)
    nn = pair_rows.column("sum(n_p)").to_numpy()
    top = np.lexsort((pr.astype(str), -nn))[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                "pair": pa.array(pr[top], pa.string()),
                "n": pa.array(nn[top], pa.int64()),
            }
        )
    )


def dedup_keep_best_ds(
    pairs: Dataset,
    docs: Dataset,
    score_col: str = "n_chars",
    id_col: str = "doc_id",
    a_col: str = "doc_a",
    b_col: str = "doc_b",
) -> Dataset:
    """Duplicate-cluster RESOLUTION POLICY: resolve verified near-dup
    pairs into clusters (via :func:`dedup_resolution_ds`) and keep, per
    cluster, the single best member — highest ``score_col`` (keep-longest
    by default, the standard web-dedup policy), ``id`` ASC tiebreak.
    Every doc gets ``(canonical_id, best_doc_id, keep)``; singletons keep
    themselves. This is the step that turns a dedup *labeling* into the
    actual training-set selection.

    Scale shape after resolution: the score attaches to the label rows
    through ``exchange.attach`` (one row per doc, never per pair), then
    ONE ``exchange.bucket_map`` on the canonical id segments clusters
    (one lexsort per bucket); the per-cluster argmax and keep flag are
    pure vector ops. Cluster skew is naturally bounded by near-dup
    cluster size."""
    labels = dedup_resolution_ds(
        pairs, docs.select_columns([id_col]), a_col=a_col, b_col=b_col,
        id_col=id_col,
    )

    def keep_best(group: pa.Table) -> pa.Table:
        if group.column(score_col).null_count:
            missing = group.filter(pc.is_null(group.column(score_col))).column(id_col)
            raise ValueError(
                f"dedup_keep_best: docs missing a {id_col} score row for "
                f"ids {missing[:3].to_pylist()}"
            )
        ids, canon, sc = (
            group.column(c).cast(pa.int64()).to_numpy(zero_copy_only=False)
            for c in (id_col, "canonical_id", score_col)
        )
        order = np.lexsort((ids, -sc, canon))
        ids, canon, sc = ids[order], canon[order], sc[order]
        seg_new = np.concatenate(([True], canon[1:] != canon[:-1]))
        starts = np.flatnonzero(seg_new)
        lens = np.diff(np.concatenate((starts, [len(ids)])))
        best = np.repeat(ids[starts], lens)
        return pa.table(
            {
                id_col: ids,
                "canonical_id": canon,
                "best_doc_id": best,
                "keep": (ids == best).astype(np.int64),
            }
        )

    return bucket_map(
        attach(labels, docs.select_columns([id_col, score_col]), id_col, id_col, "left"),
        "canonical_id",
        keep_best,
        {c: pa.int64() for c in (id_col, "canonical_id", "best_doc_id", "keep")},
    )


def surprisal_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Per-document token-rarity surprisal, INTEGER-EXACT: each token
    contributes ``floor(log2(T / c))`` bits (``T`` corpus tokens, ``c``
    the token's corpus count) — the unigram-LM perplexity proxy behind
    "too-predictable / too-random" quality filters, with the log made
    exact: ``floor(log2(T/c)) == floor(log2(T // c))`` (any power of two
    <= T/c is an integer, hence <= T//c), computed via the float64
    exponent (``np.frexp``, exact below 2^53) here and via binary-string
    length in the SQL twin. Output: token count, total bits, and the
    mean bits in e3.

    Scale shape: per-batch partial term counts (``_token_count_partials``)
    -> ONE vocab-sized ``groupby(term)`` -> vocab broadcast through
    ``collect_small`` (Heaps'-law bounded) -> streaming scoring
    pass, one ``index_in`` probe + one segment sum per batch."""

    vocab = collect_small(
        _token_count_partials(docs, text_col, "c").groupby("token").aggregate(Sum("c")),
        "vocabulary",
        {"token": pa.string(), "sum(c)": pa.int64()},
    )
    counts = vocab.column("sum(c)").to_numpy()
    total = int(counts.sum())
    if total >= (1 << 53):
        raise ValueError("token total exceeds exact-float64 log2 range")
    ref = ray.put((vocab.column("token").combine_chunks(), counts, total))

    def score(batch: pa.Table) -> pa.Table:
        vt, vc, T = ray.get(ref)
        n = batch.num_rows
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        di = np.repeat(np.arange(n, dtype=np.int64), lens)
        pos = pc.index_in(flat, value_set=vt).to_numpy()
        q = T // vc[pos]  # every token exists in the vocab by construction
        bits = _log2_floor(q)
        sb = np.zeros(n, np.int64)
        np.add.at(sb, di, bits)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": pa.array(lens),
                "surprisal_bits": pa.array(sb),
                "mean_bits_e3": pa.array(
                    np.where(lens > 0, 1000 * sb // np.maximum(lens, 1), 0)
                ),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- training-set assembly ----------


def token_budget_select_ds(
    docs: Dataset,
    budget_tokens: Optional[int] = None,
    budget_permille: int = 250,
    score_col: str = "n_chars",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Greedy token-budget selection — the training-set assembly step:
    rank documents by ``(score DESC, id ASC)`` and keep the prefix whose
    cumulative token count stays within ``budget_tokens`` (each kept row
    carries its exact ``cum_words``, budget INCLUSIVE of the row). With
    ``budget_tokens=None`` the budget is ``budget_permille/1000`` of the
    corpus token total, read off the already-materialized class table —
    no extra pass.

    Scale shape (no global sort): (1) a per-batch combiner reduces each
    block to one ``(score, words)`` row per distinct score — the score
    domain is bounded by construction (a selection score is a report-style
    column, like :func:`winsorize <pdfplumber_ray.pipelines.analytics.winsorize_ds>`'s
    CDF); (2) the tiny per-score table materializes and yields, per score
    class, the tokens contributed by all STRICTLY HIGHER classes
    (``offset``); classes whose offset already exceeds the budget are
    dropped before any row moves; (3) survivors shuffle ONCE through
    ``exchange.bucket_map`` on the score and one in-bucket lexsort + segmented
    cumsum attaches ``cum_words = offset[score] + intra-class prefix`` —
    the budget filter is then a vectorized compare. Only the selected
    prefix (plus the boundary class's tail) ever crosses the exchange."""
    def project(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        nw = pc.add(pc.count_substring(texts, " "), 1).cast(pa.int64())
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "score": batch.column(score_col).cast(pa.int64()),
                "n_words": nw,
            }
        )

    projected = docs.select_columns(
        [id_col, score_col, text_col]
    ).map_batches(project, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def class_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("score").aggregate([("n_words", "sum")])
        return pa.table(
            {"score": g.column("score"), "w": g.column("n_words_sum")}
        )

    classes = collect_small(
        projected.map_batches(class_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("score")
        .aggregate(Sum("w")),
        "score classes",
        {"score": pa.int64(), "sum(w)": pa.int64()},
    )
    sc = classes.column("score").to_numpy()
    wc = classes.column("sum(w)").to_numpy()
    order = np.argsort(-sc)  # score DESC
    sc, wc = sc[order], wc[order]
    if budget_tokens is None:
        budget_tokens = int(wc.sum()) * budget_permille // 1000
    offsets = (
        np.concatenate(([0], np.cumsum(wc)[:-1]))
        if len(wc)
        else np.zeros(0, dtype=np.int64)
    )
    live = offsets < budget_tokens  # classes that can still contribute
    offset_map = {int(s): int(o) for s, o in zip(sc[live], offsets[live])}
    offset_ref = ray.put(offset_map)

    def tag(batch: pa.Table) -> pa.Table:
        omap = ray.get(offset_ref)
        s = batch.column("score").to_numpy(zero_copy_only=False)
        keep = np.fromiter((int(v) in omap for v in s), bool, count=len(s))
        return batch.filter(pa.array(keep))

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field("score", pa.int64()),
            pa.field("n_words", pa.int64()),
            pa.field("cum_words", pa.int64()),
        ]
    )

    def bucket_select(group: pa.Table) -> pa.Table:
        omap = ray.get(offset_ref)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        s = group.column("score").to_numpy(zero_copy_only=False)
        w = group.column("n_words").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -s))
        ids, s, w = ids[order], s[order], w[order]
        cs = np.cumsum(w)
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(s)])))
        base = np.concatenate(([0], cs[starts[1:] - 1]))
        intra = cs - np.repeat(base, seg_len)
        off = np.fromiter((omap[int(v)] for v in s[starts]), np.int64, count=len(starts))
        cum = intra + np.repeat(off, seg_len)
        keep = cum <= budget_tokens
        return pa.table(
            {
                id_col: pa.array(ids[keep], pa.int64()),
                "score": pa.array(s[keep], pa.int64()),
                "n_words": pa.array(w[keep], pa.int64()),
                "cum_words": pa.array(cum[keep], pa.int64()),
            }
        )

    tagged = projected.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_map(tagged, "score", bucket_select, out_schema)


def shuffle_shards_ds(
    docs: Dataset,
    n_shards: int = 64,
    id_col: str = "doc_id",
) -> Dataset:
    """Deterministic global training shuffle: every document gets a
    ``(shard, pos)`` address — shard by a 60-bit md5 hash of its id, and
    within the shard an ordinal by ``(hash, id)``. Training jobs read the
    shards in order and get a reproducible, engine-independent random
    order (the standard pre-shuffle before sequence packing; Python's
    ``hash()`` is process-salted, so the hash is md5-derived and the SQL
    twin regenerates it verbatim from ``md5(CAST(id AS VARCHAR))``).

    Scale shape: a per-batch projection computes ``(id, h60, shard)``
    (md5 once per doc — ids are distinct by definition, and the hash IS
    the operator's cross-engine contract); ONE ``groupby(shard)`` over
    the bounded shard count, then an in-shard argsort yields positions
    vectorized. Only the 3-column projection shuffles."""
    import hashlib

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (
                int(hashlib.md5(str(int(i)).encode()).hexdigest()[:15], 16)
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        return pa.table(
            {
                id_col: pa.array(ids.astype(np.int64), pa.int64()),
                "h60": pa.array(h, pa.int64()),
                "shard": pa.array(h % np.int64(n_shards), pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field("shard", pa.int64()),
            pa.field("pos", pa.int64()),
        ]
    )

    def order_shard(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        h = group.column("h60").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "shard": group.column("shard").slice(0, len(ids)),
                "pos": pa.array(np.arange(len(ids), dtype=np.int64)),
            }
        )

    projected = docs.select_columns([id_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )
    return _anchor_schema(
        projected.groupby("shard").map_groups(order_shard, batch_format="pyarrow"),
        out_schema,
    )


def novelty_score_ds(
    docs: Dataset,
    shingle_k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Per-document NOVELTY: the fraction of a doc's distinct k-gram
    shingles whose corpus-wide FIRST occurrence (min doc id) is this doc —
    the redundancy/contribution signal dual to the dedup family: a doc of
    all-novel grams adds new content; a doc of zero-novel grams is pure
    recombination of earlier text. Emits
    ``(doc_id, n_grams, novel, novelty_e6)`` for every non-empty doc.

    Scale shape: (1) per-batch the distinct ``(gram_h64, doc)`` pairs
    reduce to one min-doc row per gram per block (lexsort + segment
    first) before ONE vocab-domain ``groupby(gram).min(doc)``; (2) the
    winner rows re-reduce to per-doc novel counts (combiner + tiny
    ``groupby(doc).sum``); (3) novel counts attach to the totals through
    ``exchange.attach`` (LEFT, so zero-novelty docs still emit). Documents
    never shuffle; only gram-hash and counter rows move."""

    def gram_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        hs: List[np.ndarray] = []
        ds_: List[np.ndarray] = []
        for i, t in enumerate(texts):
            g = ts.shingle_hashes(t or "", shingle_k)
            if g.shape[0]:
                hs.append(g.astype(np.int64))
                ds_.append(np.full(g.shape[0], ids[i], dtype=np.int64))
        if not hs:
            return pa.table(
                {"h": pa.array([], pa.int64()), "first_doc": pa.array([], pa.int64())}
            )
        h = np.concatenate(hs)
        d = np.concatenate(ds_)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        first = np.concatenate(([True], h[1:] != h[:-1]))
        return pa.table(
            {"h": pa.array(h[first]), "first_doc": pa.array(d[first])}
        )

    winners = (
        docs.select_columns([id_col, text_col])
        .map_batches(gram_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Min("first_doc"))
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("min(first_doc)").to_numpy(zero_copy_only=False)
        u, c = np.unique(d, return_counts=True)
        return pa.table(
            {id_col: pa.array(u, pa.int64()), "novel": pa.array(c.astype(np.int64))}
        )

    novel = (
        winners.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(id_col)
        .aggregate(Sum("novel"))
        .map_batches(
            lambda b: pa.table(
                {
                    "nv_doc": b.column(id_col).cast(pa.int64()),
                    "novel": b.column("sum(novel)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    def totals(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ng = np.fromiter(
            (ts.shingle_hashes(t or "", shingle_k).shape[0] for t in texts),
            np.int64,
            count=len(texts),
        )
        t = pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_grams": pa.array(ng),
            }
        )
        return t.filter(pc.greater(t.column("n_grams"), 0))

    tot = docs.select_columns([id_col, text_col]).map_batches(
        totals, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = attach(tot, novel, id_col, "nv_doc", how="left")

    def finish(batch: pa.Table) -> pa.Table:
        ng = batch.column("n_grams").to_numpy(zero_copy_only=False)
        nv = batch.column("novel").to_numpy(zero_copy_only=False).astype(np.float64)
        nv = np.nan_to_num(nv, nan=0.0).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_grams": pa.array(ng.astype(np.int64)),
                "novel": pa.array(nv),
                "novelty_e6": pa.array(nv * 1_000_000 // np.maximum(ng, 1)),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def apportion_quota_ds(
    docs: Dataset,
    k: int = 100,
    group_cols: Tuple[str, str] = ("source", "lang"),
) -> Dataset:
    """Largest-remainder (Hamilton) apportionment of ``k`` sample slots
    across strata — the integer-exact allocation step a stratified
    sampler runs before drawing: ``base = k*n_i // N`` everywhere, and
    the ``k - sum(base)`` leftover slots go to the largest remainders
    (``(k*n_i) % N`` DESC, stratum key ASC tiebreak). Guarantees
    ``sum(quota) == k`` exactly.

    Scale shape: stratum combiner -> ONE tiny-domain groupby; the
    apportionment itself runs on the materialized stratum table (bounded
    by the key domain, a report-style output)."""
    ga, gb = group_cols

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select([ga, gb])
            .append_column("d", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
            .group_by([ga, gb])
            .aggregate([("d", "sum")])
        )
        return pa.table(
            {ga: g.column(ga), gb: g.column(gb), "d": g.column("d_sum")}
        )

    agg = (
        docs.select_columns([ga, gb])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([ga, gb])
        .aggregate(Sum("d"))
        .materialize()  # tiny: one row per stratum
    )
    sch = docs.schema()
    types = dict(zip(sch.names, sch.types))
    df = collect_small(
        agg, "stratum counts", {ga: types[ga], gb: types[gb], "sum(d)": pa.int64()}
    ).sort_by([(ga, "ascending"), (gb, "ascending")])
    n = df.column("sum(d)").to_numpy()
    total = int(n.sum())
    base = k * n // max(total, 1)
    rem = (k * n) % max(total, 1)
    leftover = k - int(base.sum())
    # remainder DESC, stratum key ASC — df is already key-sorted, and
    # np.argsort is stable, so ties resolve to the smaller key
    order = np.argsort(-rem, kind="stable")
    bonus = np.zeros(len(n), dtype=np.int64)
    bonus[order[:leftover]] = 1
    out = pa.table(
        {
            ga: df.column(ga).cast(pa.string()),
            gb: df.column(gb).cast(pa.string()),
            "n_docs": pa.array(n),
            "quota": pa.array(base + bonus),
        }
    )
    return ray.data.from_arrow(out)


def _gram_counts(docs: Dataset, text_col: str) -> Tuple:
    """The corpus unigram and bigram counts of ``docs``' whitespace
    tokens, collected as ``(unigrams, counts, bigrams, counts)``: Arrow
    string arrays for ``pc.index_in`` probes and int64 counts. Each batch
    emits tagged ``(g, k, c)`` partials (``k`` 1 for unigrams, 2 for
    bigrams) into one Heaps'-bounded ``groupby(g, k)``."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        _, uni = ts.flat_tokens(toks)
        _, _, big = ts.token_windows(toks, 2)
        kind = np.repeat(np.array([1, 2], np.int64), [len(uni), len(big)])
        g = (
            pa.table({"g": pa.concat_arrays([uni, big]), "k": pa.array(kind)})
            .group_by(["g", "k"])
            .aggregate([("g", "count")])
        )
        return pa.table(
            {"g": g.column("g"), "k": g.column("k"), "c": g.column("g_count").cast(pa.int64())}
        )

    vocab = collect_small(
        docs.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "k"])
        .aggregate(Sum("c")),
        "gram vocabulary",
        {"g": pa.string(), "k": pa.int64(), "sum(c)": pa.int64()},
    )
    out = []
    for k in (1, 2):
        sel = pc.equal(vocab.column("k"), k)
        out += [
            vocab.column("g").filter(sel).combine_chunks(),
            vocab.column("sum(c)").filter(sel).to_numpy(),
        ]
    return tuple(out)


def _log2_floor(q: np.ndarray) -> np.ndarray:
    """``floor(log2(q))`` for integer ``q >= 1`` (0 below), exact below
    2^53: the float64 exponent."""
    return (np.frexp(np.maximum(q, 1).astype(np.float64))[1] - 1).astype(np.int64)


def _bigram_bits(
    batch: pa.Table, text_col: str, id_col: str, vocab: Tuple, bits_of, bits_col: str
) -> pa.Table:
    """Score every doc of ``batch`` with at least two tokens by its
    bigrams in one pass: ``bits_of(c1, c2, u_hit, b_hit)`` gives each
    bigram's bits from the count of its first token and its own count
    (1 where ``vocab`` lacks them), summed per doc."""
    u_t, u_c, b_t, b_c = vocab
    toks = ts.ws_tokens(batch.column(text_col))
    lens, flat = ts.flat_tokens(toks)
    doc, start, bg = ts.token_windows(toks, 2)
    prev = flat.take(pa.array((np.cumsum(lens) - lens)[doc] + start))
    ui = pc.fill_null(pc.index_in(prev, value_set=u_t), -1).to_numpy()
    bi = pc.fill_null(pc.index_in(bg, value_set=b_t), -1).to_numpy()
    # index -1 (unseen) reads the appended count 1
    c1, c2 = np.append(u_c, 1)[ui], np.append(b_c, 1)[bi]
    bits = bits_of(c1, c2, ui >= 0, bi >= 0)
    has = lens >= 2
    nb = lens[has] - 1
    sb = np.bincount(doc, weights=bits, minlength=len(lens)).astype(np.int64)[has]
    return pa.table(
        {
            id_col: batch.column(id_col).filter(pa.array(has)).cast(pa.int64()),
            "n_bigrams": pa.array(nb),
            bits_col: pa.array(sb),
            "mean_bits_e3": pa.array(1000 * sb // nb),
        }
    )


def bigram_surprisal_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Per-document BIGRAM-LM surprisal, INTEGER-EXACT — the conditional
    upgrade of :func:`surprisal_ds` (closer to the perplexity filters
    real pipelines run): each transition ``w1 -> w2`` contributes
    ``floor(log2(c1(w1) / c2(w1 w2)))`` bits, the unsmoothed bigram-LM
    negative log-prob. The log is exact by the same argument as the
    unigram op: ``c2 <= c1`` (every bigram occurrence contains its
    prefix), so the ratio is >= 1 and ``floor(log2(c1/c2)) ==
    floor(log2(c1 // c2))`` (computed via the float64 exponent; binary
    string length in the SQL twin). Docs with fewer than 2 tokens emit
    no row (they have no transitions), matching the SQL join semantics.

    Scale shape: ONE tagged partial pass emits combined per-block
    unigram and bigram counts (``_gram_counts``) -> one Heaps'-bounded
    ``groupby(gram)`` -> vocab broadcast (``collect_small``) -> streaming
    scoring pass (one k=2 ``token_windows`` and two ``index_in`` probes
    per batch)."""

    ref = ray.put(_gram_counts(docs, text_col))

    def score(batch: pa.Table) -> pa.Table:
        # c2 <= c1: every bigram of the corpus is in the vocabulary
        return _bigram_bits(
            batch, text_col, id_col, ray.get(ref),
            lambda c1, c2, u_hit, b_hit: _log2_floor(c1 // c2), "bigram_bits",
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def quota_sample_ds(
    docs: Dataset,
    k: int = 100,
    group_cols: Tuple[str, str] = ("source", "lang"),
    id_col: str = "doc_id",
) -> Dataset:
    """Deterministic stratified draw under Hamilton quotas — the
    end-to-end sampler: :func:`apportion_quota_ds` allocates ``k`` slots
    across strata, then each stratum yields its ``quota`` docs by
    md5-hash rank (``md5(str(id))`` hex ASC, id ASC ties) — reproducible
    across engines and runs, no RNG state. Emits
    ``(source, lang, doc_id, rk)`` with exactly ``k`` rows total.

    Scale shape: the quota table is the tiny apportionment output
    (broadcast in the closure); the draw is one ``groupby(strata)``
    over the bounded stratum domain with an in-group argsort — only
    the 3-column projection shuffles."""
    import hashlib

    ga, gb = group_cols
    qt = collect_small(
        apportion_quota_ds(docs, k=k, group_cols=group_cols),
        "stratum quotas",
        {ga: pa.string(), gb: pa.string(), "quota": pa.int64()},
    )
    quotas = {
        (a, b): q
        for a, b, q in zip(*(qt.column(c).to_pylist() for c in qt.column_names))
    }
    q_ref = ray.put(quotas)

    out_schema = pa.schema(
        [
            (ga, pa.string()),
            (gb, pa.string()),
            (id_col, pa.int64()),
            ("rk", pa.int64()),
        ]
    )

    def draw(group: pa.Table) -> pa.Table:
        qs = ray.get(q_ref)
        key = (group.column(ga)[0].as_py(), group.column(gb)[0].as_py())
        quota = qs.get(key, 0)
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        hexes = np.asarray(
            [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids],
            dtype=object,
        )
        order = np.lexsort((ids, hexes))[:quota]
        return pa.table(
            {
                ga: pa.array([key[0]] * len(order), pa.string()),
                gb: pa.array([key[1]] * len(order), pa.string()),
                id_col: pa.array(ids[order], pa.int64()),
                "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    return _anchor_schema(
        docs.select_columns([ga, gb, id_col])
        .groupby([ga, gb])
        .map_groups(draw, batch_format="pyarrow"),
        out_schema,
    )


def length_buckets_ds(
    docs: Dataset,
    n_bucket: int = 8,
    value_col: str = "n_chars",
) -> Dataset:
    """Length-bucketing report for dynamic batching — quantile bucket
    boundaries plus the padding overhead each bucket pays when padded to
    its max (the statistic that justifies sequence bucketing): docs
    assign to the smallest bucket ``j`` whose boundary (the value at
    integer rank ``ceil(j*n/n_bucket)``) covers their length; per bucket
    the report emits ``(bucket, n_docs, max_len, sum_len, padding,
    padding_permille)`` — all integer-exact.

    Scale shape: one value-count combiner -> bounded value-domain
    groupby (guarded) -> boundaries computed on the driver CDF and
    broadcast -> one streaming assign pass with a per-batch bucket
    combiner -> ONE n_bucket-sized groupby."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64())
        g = pa.table({"v": v}).group_by("v").aggregate([("v", "count")])
        return pa.table(
            {"v": g.column("v"), "c": g.column("v_count").cast(pa.int64())}
        )

    hist = collect_small(
        docs.select_columns([value_col])
        .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(Sum("c")),
        "value domain",
        {"v": pa.int64(), "sum(c)": pa.int64()},
    ).sort_by("v")
    if not hist.num_rows:  # empty corpus: no buckets to report
        return ray.data.from_arrow(
            pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "max_len": pa.array([], pa.int64()),
                    "sum_len": pa.array([], pa.int64()),
                    "padding": pa.array([], pa.int64()),
                    "padding_permille": pa.array([], pa.int64()),
                }
            )
        )
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(c)").to_numpy()
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    bnd = np.asarray(
        [
            int(vals[np.searchsorted(cum, (j * n + n_bucket - 1) // n_bucket)])
            for j in range(1, n_bucket + 1)
        ],
        dtype=np.int64,
    )
    bnd_ref = ray.put(bnd)

    def assign_partial(batch: pa.Table) -> pa.Table:
        b = ray.get(bnd_ref)
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        # bucket = 1 + #{j : bnd_j < L} (min-j-covering, exact under
        # duplicate boundary values because bnd is nondecreasing)
        bk = np.searchsorted(b, v, side="left").astype(np.int64) + 1
        t = pa.table(
            {
                "bucket": pa.array(bk, pa.int64()),
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
                "mx": pa.array(v, pa.int64()),
                "sm": pa.array(v, pa.int64()),
            }
        )
        g = t.group_by("bucket").aggregate(
            [("n", "sum"), ("mx", "max"), ("sm", "sum")]
        )
        return pa.table(
            {
                "bucket": g.column("bucket"),
                "n": g.column("n_sum"),
                "mx": g.column("mx_max"),
                "sm": g.column("sm_sum"),
            }
        )

    agg = (
        docs.select_columns([value_col])
        .map_batches(assign_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum("n"), Max("mx"), Sum("sm"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch.column("sum(n)").to_numpy(zero_copy_only=False).astype(np.int64)
        mx = batch.column("max(mx)").to_numpy(zero_copy_only=False).astype(np.int64)
        sm = batch.column("sum(sm)").to_numpy(zero_copy_only=False).astype(np.int64)
        pad = nd * mx - sm
        return pa.table(
            {
                "bucket": batch.column("bucket").cast(pa.int64()),
                "n_docs": pa.array(nd),
                "max_len": pa.array(mx),
                "sum_len": pa.array(sm),
                "padding": pa.array(pad),
                "padding_permille": pa.array(
                    pad * 1000 // np.maximum(nd * mx, 1)
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def dup_histogram_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Exact-duplicate FAMILY-SIZE distribution — the dedup report that
    sizes the problem before any removal runs: how many text families
    have exactly 1, 2, 3, ... members. Emits
    ``(family_size, n_families, n_docs)`` (``n_docs = size *
    n_families``).

    Scale shape: per-batch md5-digest count combiner -> ONE
    digest-domain groupby (one row per distinct text) -> per-block
    size-count partial -> a second tiny groupby over the size domain
    (bounded by the largest family)."""

    def digest_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        h = pa.array(ts.md5_hex(texts).tolist(), pa.string())
        t = pa.table(
            {"h": h, "n": pa.array(np.ones(len(texts), dtype=np.int64))}
        )
        g = t.group_by("h").aggregate([("n", "sum")])
        return pa.table({"h": g.column("h"), "n": g.column("n_sum")})

    fams = (
        docs.select_columns([id_col, text_col])
        .map_batches(digest_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Sum("n"))
    )

    def size_partial(batch: pa.Table) -> pa.Table:
        s = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        u, c = np.unique(s, return_counts=True)
        return pa.table(
            {
                "family_size": pa.array(u.astype(np.int64)),
                "nf": pa.array(c.astype(np.int64)),
            }
        )

    out = (
        fams.map_batches(size_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("family_size")
        .aggregate(Sum("nf"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        fs = batch.column("family_size").to_numpy(zero_copy_only=False).astype(np.int64)
        nf = batch.column("sum(nf)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "family_size": pa.array(fs),
                "n_families": pa.array(nf),
                "n_docs": pa.array(fs * nf),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def term_coverage_ds(
    docs: Dataset,
    ks: Tuple[int, ...] = (10, 100, 1000),
    text_col: str = "text",
) -> Dataset:
    """Vocabulary concentration: the share of all tokens covered by the
    top-``k`` terms (count DESC, term ASC ties) for each ``k`` in
    ``ks`` — the Zipf-curve audit that decides whether a frequent-term
    cache / stopword list pays off. Emits ``(k, covered, total,
    share_ppm)``, integer-exact.

    Scale shape: per-batch term-count combiner -> ONE Heaps'-bounded
    vocab groupby, materialized ONCE and reused for both the corpus
    total (streamed aggregate) and the top-k (per-block top-max(k)
    partials -> driver final over ``blocks x max(k)`` candidate rows);
    the full vocabulary never reaches the driver."""
    kmax = max(ks)

    vocab = (
        _token_count_partials(docs, text_col, "c")
        .groupby("token")
        .aggregate(Sum("c"))
        .materialize()  # one row per distinct term; reused twice below
    )
    total = int(vocab.sum("sum(c)") or 0)

    def topk_partial(batch: pa.Table) -> pa.Table:
        terms = np.asarray(batch.column("token").to_pylist(), dtype=object).astype(str)
        c = batch.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((terms, -c))[:kmax]
        return pa.table(
            {
                "term": pa.array(terms[order].astype(object), pa.string()),
                "c": pa.array(c[order], pa.int64()),
            }
        )

    cand = collect_small(
        vocab.map_batches(topk_partial, batch_format="pyarrow", zero_copy_batch=True),
        "per-block top terms",
        {"term": pa.string(), "c": pa.int64()},
    )
    terms = cand.column("term").to_numpy(zero_copy_only=False).astype(str)
    c = cand.column("c").to_numpy()
    order = np.lexsort((terms, -c))
    c_sorted = c[order]
    rows_k, rows_cov = [], []
    for k in sorted(ks):
        cov = int(c_sorted[:k].sum())
        rows_k.append(k)
        rows_cov.append(cov)
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(rows_k, pa.int64()),
                "covered": pa.array(rows_cov, pa.int64()),
                "total": pa.array([total] * len(rows_k), pa.int64()),
                "share_ppm": pa.array(
                    [cv * 1_000_000 // max(total, 1) for cv in rows_cov],
                    pa.int64(),
                ),
            }
        )
    )


def lsh_bucket_stats_ds(
    docs: Dataset,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """LSH band-bucket SIZE distribution — the skew audit for the
    MinHash dedup path itself: how many band buckets hold 1, 2, 3, ...
    docs. At web scale this is the report that tells you whether the
    ``max_bucket`` star-cap will fire and how hot the hottest boilerplate
    bucket is, BEFORE running the pair expansion. Emits
    ``(bucket_size, n_buckets, n_entries)``.

    Scale shape: the banding stage is the same task-mode
    ``map_batches`` the dedup path uses; ONE ``groupby(band_key)``
    count (band keys are md5 strings, groups tiny), then a per-block
    size-count partial -> tiny size-domain groupby."""
    banded = stage_map_batches(
        docs,
        _MinHashBandStage(num_perm, bands, shingle_k, text_col, id_col),
        batch_size=None,
    )
    sizes = banded.groupby("band_key").count()

    def size_partial(batch: pa.Table) -> pa.Table:
        s = batch.column("count()").to_numpy(zero_copy_only=False)
        u, c = np.unique(s, return_counts=True)
        return pa.table(
            {
                "bucket_size": pa.array(u.astype(np.int64)),
                "nb": pa.array(c.astype(np.int64)),
            }
        )

    out = (
        sizes.map_batches(size_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket_size")
        .aggregate(Sum("nb"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        bs = batch.column("bucket_size").to_numpy(zero_copy_only=False).astype(np.int64)
        nb = batch.column("sum(nb)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket_size": pa.array(bs),
                "n_buckets": pa.array(nb),
                "n_entries": pa.array(bs * nb),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def backoff_surprisal_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """HELD-OUT bigram cross-entropy with stupid backoff, INTEGER-EXACT —
    the train/score split :func:`bigram_surprisal_ds` cannot express
    (same-corpus counts never see an unseen transition): docs with EVEN
    ids train the counts, docs with ODD ids get scored, and an unseen
    bigram backs off to the unigram (penalty ``log2(4) = 2`` bits, the
    stupid-backoff alpha=1/4 made integer), an unseen unigram to the
    uniform ``T`` floor. Per transition::

        seen bigram:   floor(log2(c1(prev) // c2(bg)))
        seen unigram:  2 + floor(log2(T // c1(prev)))
        unseen:        2 + floor(log2(T))

    Scale shape: the train pass reuses the tagged uni+bigram combiner
    (``_gram_counts``) -> Heaps'-bounded groupby -> broadcast
    (``collect_small``); the score pass streams the odd docs with
    ``index_in`` membership probes — no shuffle of either split."""

    def is_even(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        return batch.filter(pc.equal(pc.bit_wise_and(ids, pa.scalar(1)), pa.scalar(0)))

    def is_odd(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        return batch.filter(pc.equal(pc.bit_wise_and(ids, pa.scalar(1)), pa.scalar(1)))

    vocab = _gram_counts(
        docs.select_columns([id_col, text_col]).map_batches(
            is_even, batch_format="pyarrow", zero_copy_batch=True
        ),
        text_col,
    )
    T = int(vocab[1].sum())
    t_bits = int(_log2_floor(np.array([T]))[0])
    ref = ray.put(vocab)

    def bits_of(c1, c2, u_hit, b_hit):
        return np.where(
            b_hit,
            _log2_floor(c1 // c2),
            np.where(u_hit, 2 + _log2_floor(T // c1), 2 + t_bits),
        )

    def score(batch: pa.Table) -> pa.Table:
        return _bigram_bits(batch, text_col, id_col, ray.get(ref), bits_of, "backoff_bits")

    return (
        docs.select_columns([id_col, text_col])
        .map_batches(is_odd, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    )


def snm_pairs_ds(
    docs: Dataset,
    window: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk: int = 8192,
) -> Dataset:
    """Sorted-Neighborhood Method candidate pairs (Hernandez & Stolfo
    1995) — the third classic dedup *blocking* modality next to LSH
    banding and exact-hash grouping: docs whose [a-z0-9]-normalized
    8-char key prefixes land within ``window`` positions of each other
    in the global key order become candidates. Emits
    ``(doc_a, doc_b, gap, same_key8)`` for every pair at rank distance
    ``1 <= gap < window`` (doc_a = the lower-ranked doc); output is
    bounded by ``N * (window - 1)``. ASCII-safe by construction: the
    key strips every non-[a-z0-9] codepoint on BOTH engines (RE2 in
    pyarrow and DuckDB), so the byte-packed int64 prefix order equals
    SQL's string order.

    Scale shape: NO global sort — global ranks come from
    :func:`analytics.row_number_ds` (value-count CDF + one tie-bucket
    shuffle) over the packed int64 key; windowed pairing then shuffles
    each ranked row to its ``rank // chunk`` group (plus the previous
    group for the ``window - 1`` boundary rows) through
    ``exchange.bucket_map`` on the group (a BOUNDED bucket count), and
    pairs emit via per-offset searchsorted probes —
    each qualifying pair exactly once (claimed by the lower element's
    home chunk)."""
    from .analytics import row_number_ds

    pow8 = (np.uint64(256) ** np.arange(7, -1, -1, dtype=np.uint64)).astype(
        np.uint64
    )

    def keyed(batch: pa.Table) -> pa.Table:
        norm = pc.replace_substring_regex(
            pc.ascii_lower(batch.column(text_col)), "[^a-z0-9]", ""
        )
        pre = pc.utf8_slice_codeunits(norm, 0, 8)
        pre = pre.combine_chunks() if isinstance(pre, pa.ChunkedArray) else pre
        n = len(pre)
        # StringArray exposes no .offsets accessor — read the raw int32
        # offsets buffer, honoring a possible slice offset
        offs = np.frombuffer(pre.buffers()[1], dtype=np.int32)[
            pre.offset : pre.offset + n + 1
        ].astype(np.int64)
        data = np.frombuffer(pre.buffers()[2] or b"", dtype=np.uint8)
        lens = np.diff(offs)
        mat = np.zeros((n, 8), dtype=np.uint64)
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        cols = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        flat_idx = np.repeat(offs[:-1], lens) + cols
        mat[rows, cols] = data[flat_idx]
        k_int = (mat * pow8).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "k_int": pa.array(k_int, pa.int64()),
            }
        )

    keyed_ds = docs.select_columns([id_col, text_col]).map_batches(
        keyed, batch_format="pyarrow", zero_copy_batch=True
    )
    ranked = row_number_ds(keyed_ds, value_col="k_int", id_col=id_col)

    def to_groups(batch: pa.Table) -> pa.Table:
        rn = batch.column("rn").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ki = batch.column("k_int").to_numpy(zero_copy_only=False)
        g_home = rn // chunk
        bnd = (rn % chunk < window - 1) & (g_home > 0)
        g = np.concatenate((g_home, g_home[bnd] - 1))
        rn2 = np.concatenate((rn, rn[bnd]))
        id2 = np.concatenate((ids, ids[bnd]))
        ki2 = np.concatenate((ki, ki[bnd]))
        return pa.table(
            {
                id_col: pa.array(id2, pa.int64()),
                "rn": pa.array(rn2, pa.int64()),
                "k_int": pa.array(ki2, pa.int64()),
                "g": pa.array(g, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field("doc_a", pa.int64()),
            pa.field("doc_b", pa.int64()),
            pa.field("gap", pa.int64()),
            pa.field("same_key8", pa.int64()),
        ]
    )

    def pairgen(group: pa.Table) -> pa.Table:
        rn = group.column("rn").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        ki = group.column("k_int").to_numpy(zero_copy_only=False)
        g = group.column("g").to_numpy(zero_copy_only=False)
        # (g, rn) composite key: rn fits well under 2^42 and g under 2^21
        key = (g << np.int64(42)) | rn
        order = np.argsort(key)
        key_s, rn_s, id_s, ki_s, g_s = (
            key[order],
            rn[order],
            ids[order],
            ki[order],
            g[order],
        )
        outs_a, outs_b, outs_j, outs_same = [], [], [], []
        for j in range(1, window):
            pos = np.searchsorted(key_s, key_s + j)
            pos_c = np.minimum(pos, len(key_s) - 1)
            valid = (
                (pos < len(key_s))
                & (key_s[pos_c] == key_s + j)
                # each pair is claimed ONCE, by the lower element's home
                & (g_s == rn_s // chunk)
            )
            vi = np.flatnonzero(valid)
            outs_a.append(id_s[vi])
            outs_b.append(id_s[pos_c[vi]])
            outs_j.append(np.full(len(vi), j, dtype=np.int64))
            outs_same.append((ki_s[vi] == ki_s[pos_c[vi]]).astype(np.int64))
        return pa.table(
            {
                "doc_a": np.concatenate(outs_a),
                "doc_b": np.concatenate(outs_b),
                "gap": np.concatenate(outs_j),
                "same_key8": np.concatenate(outs_same),
            }
        )

    grouped = ranked.map_batches(
        to_groups, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_map(grouped, "g", pairgen, out_schema)


def entity_mentions_ds(
    docs: Dataset,
    k: int = 50,
    min_run: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    token_pattern: str = "[A-Z][a-z]+",
) -> Dataset:
    """NER-lite entity mining: corpus top-``k`` multi-word token runs —
    consecutive whitespace tokens each RE2-full-matching
    ``token_pattern`` (default ``[A-Z][a-z]+``: "New York City" style
    proper-noun mentions; pass e.g. ``[a-z]{6,}`` for content-word runs
    on a lowercased corpus), joined with single spaces. Deterministic
    order: count DESC, then entity ASC; ties at the k boundary resolve
    lexically on both engines.

    Scale shape: per-batch Arrow split -> vectorized cap-mask + run
    detection over the flattened token stream (no per-row Python) ->
    ListArray rebuild + ``pc.binary_join`` for the mention strings ->
    per-batch (entity, n) combiner -> ONE Heaps'-bounded
    ``groupby(entity)`` -> per-block top-k partials -> tiny driver
    final."""

    def mention_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"entity": pa.array([], pa.string()), "n_e": pa.array([], pa.int64())}
        )
        toks = pc.split_pattern(batch.column(text_col), " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        if len(flat) == 0:
            return empty
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(
            np.arange(len(toks), dtype=np.int64), np.diff(offs)
        )
        cap = pc.match_substring_regex(
            flat, f"^(?:{token_pattern})$"
        ).to_numpy(zero_copy_only=False)
        capidx = np.flatnonzero(cap)
        if len(capidx) == 0:
            return empty
        # run boundaries among the capitalized tokens: index gap or doc change
        brk = np.concatenate(
            (
                [True],
                (np.diff(capidx) != 1)
                | (parent[capidx[1:]] != parent[capidx[:-1]]),
            )
        )
        run_id = np.cumsum(brk) - 1
        run_starts = np.flatnonzero(brk)
        run_lens = np.diff(np.concatenate((run_starts, [len(capidx)])))
        keep = run_lens >= min_run
        if not keep.any():
            return empty
        tok_keep = keep[run_id]
        kept_tokens = pc.take(flat, pa.array(capidx[tok_keep], pa.int64()))
        kept_lens = run_lens[keep]
        kept_offsets = pa.array(
            np.concatenate(([0], np.cumsum(kept_lens))), pa.int32()
        )
        mentions = pc.binary_join(
            pa.ListArray.from_arrays(kept_offsets, kept_tokens), " "
        )
        t = pa.table(
            {
                "entity": mentions,
                "n_e": pa.array(np.ones(len(mentions), dtype=np.int64)),
            }
        )
        return t.group_by("entity").aggregate([("n_e", "sum")]).rename_columns(
            ["entity", "n_e"]
        )

    counts = (
        docs.select_columns([id_col, text_col])
        .map_batches(mention_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("entity")
        .aggregate(Sum("n_e"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        ent = np.asarray(batch.column("entity").to_pylist(), dtype=object)
        n = batch.column("sum(n_e)").to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.lexsort((ent.astype(str), -n))[:k]
        return pa.table(
            {
                "entity": pa.array(ent[top], pa.string()),
                "n": pa.array(n[top], pa.int64()),
            }
        )

    rows = collect_small(  # blocks x k
        counts.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True),
        "per-block top-k entities",
        {"entity": pa.string(), "n": pa.int64()},
    )
    ent = rows.column("entity").to_numpy(zero_copy_only=False).astype(str)
    top = np.lexsort((ent, -rows.column("n").to_numpy()))[:k]
    return ray.data.from_arrow(rows.take(top))


def power_iter_step_ds(
    embs: Dataset,
    vec_col: str = "embedding",
    quant: int = 1000,
) -> Dataset:
    """One DISTRIBUTED power-iteration matvec over the embedding Gram
    matrix — the primitive a PCA / top-eigenvector job repeats:
    ``out = X^T (X v0)`` with the deterministic all-ones start vector
    ``v0``. Components quantize to ``floor(float64(x) * quant)`` int64
    (the ``centroids`` convention), so every product and sum is
    integer-exact and the twins match bit-for-bit. Emits one row per
    dimension ``(dim, comp)`` (dim is 1-based to match SQL's
    ``range(1, len+1)``).

    Scale shape: one ``map_batches`` pass computes each batch's
    ``q^T (q @ ones)`` partial as a dim-length vector — only
    ``n_blocks x dim`` combiner rows reach the final dim groupby. At
    e3 quantization the per-row magnitude is ~``dim * quant^2`` so a
    trillion-row corpus stays inside int64."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if len(col) == 0:
            return pa.table(
                {"dim": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = len(col[0])
        q = np.floor(flat * quant).astype(np.int64).reshape(-1, dim)
        s = q.sum(axis=1)  # X v0 with v0 = ones
        comp = (q * s[:, None]).sum(axis=0)
        return pa.table(
            {
                "dim": pa.array(np.arange(1, dim + 1, dtype=np.int64), pa.int64()),
                "c": pa.array(comp, pa.int64()),
            }
        )

    out = (
        embs.select_columns([vec_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Sum("c"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dim": batch.column("dim").cast(pa.int64()),
                "comp": batch.column("sum(c)").cast(pa.int64()),
            }
        )

    return out.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def prefix_filter_pairs_ds(
    docs: Dataset,
    threshold_permille: int = 500,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_token_df: Optional[int] = None,
    shingle_k: int = 1,
) -> Dataset:
    """Prefix-filtering candidate pairs for set-similarity joins
    (Chaudhuri et al. 2006 / PPJoin, Xiao et al. 2008) — the fourth
    dedup-blocking modality next to MinHash banding, exact hashing and
    sorted neighborhood: order each doc's DISTINCT tokens globally by
    (document frequency ASC, token ASC) and index only the first
    ``k - ceil(t*k) + 1`` of them (k = the doc's distinct-token count,
    t = ``threshold_permille``/1000, the Jaccard floor the candidates
    must be complete for); two docs become a candidate pair iff they
    share a PREFIX token. Integer-exact prefix size:
    ``k - (k*threshold_permille + 999)//1000 + 1``.

    Scale shape: per-batch distinct-(doc, token) combiner (a doc's
    tokens never span batches) -> ONE Heaps'-bounded token groupby for
    the df table (broadcast once via ``ray.put``, ``collect_small``) -> ONE
    ``exchange.bucket_map`` on the doc for in-bucket prefix selection
    (lexsort + segment ranks, no per-doc Python) -> ONE on the token
    with size-grouped triu pair expansion (hot tokens
    optionally capped via ``max_token_df`` — prefix tokens are the
    RAREST by construction, which is the whole point of the method) ->
    pair-key groupby for the final distinct.

    ``shingle_k > 1`` uses k-token shingles as the set elements (the
    standard PPJoin practice — shingles are far more distinctive than
    unigrams, which keeps prefixes selective on small-vocabulary
    corpora); built vectorized via a gather + ListArray rebuild."""

    def tok_rows(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lens = np.diff(offs)
        if shingle_k > 1:
            n_sh = np.maximum(lens - shingle_k + 1, 0)
            if int(n_sh.sum()) == 0:
                return pa.table(
                    {
                        "doc": pa.array([], pa.int64()),
                        "token": pa.array([], pa.string()),
                    }
                )
            starts0 = offs[:-1] - offs[0]
            sh_start = (
                np.repeat(starts0, n_sh)
                + np.arange(int(n_sh.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(n_sh) - n_sh, n_sh)
            )
            gather = (
                sh_start[:, None] + np.arange(shingle_k, dtype=np.int64)
            ).ravel()
            vals = pc.take(flat, pa.array(gather, pa.int64()))
            lst = pa.ListArray.from_arrays(
                pa.array(
                    np.arange(len(sh_start) + 1, dtype=np.int64) * shingle_k,
                    pa.int32(),
                ),
                vals,
            )
            elem = pc.binary_join(lst, " ")
            parent = pa.array(ids[np.repeat(np.arange(len(ids)), n_sh)], pa.int64())
        else:
            elem = flat
            parent = pa.array(
                ids[np.repeat(np.arange(len(ids), dtype=np.int64), lens)],
                pa.int64(),
            )
        t = pa.table({"doc": parent, "token": elem})
        # distinct within the batch IS globally distinct: one doc = one row
        g = t.group_by(["doc", "token"]).aggregate([])
        return g

    toks_ds = docs.select_columns([id_col, text_col]).map_batches(
        tok_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    from ray.data.aggregate import Count as _Count

    df_tbl = collect_small(
        toks_ds.groupby("token").aggregate(_Count()),
        "token vocabulary",
        {"token": pa.string(), "count()": pa.int64()},
    )
    vocab = df_tbl.column("token").to_numpy(zero_copy_only=False).astype(str)
    order = np.argsort(vocab)
    vocab_ref = ray.put((vocab[order], df_tbl.column("count()").to_numpy()[order]))

    def prefix_select(group: pa.Table) -> pa.Table:
        vocab_s, dfs_s = ray.get(vocab_ref)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        tk = np.asarray(group.column("token").to_pylist(), dtype=object).astype(str)
        df = dfs_s[np.searchsorted(vocab_s, tk)]
        order2 = np.lexsort((tk, df, d))
        ds_, dfs2, tks = d[order2], df[order2], tk[order2]
        starts = np.flatnonzero(np.concatenate(([True], ds_[1:] != ds_[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(ds_)])))
        rank = (
            np.arange(len(ds_), dtype=np.int64)
            - np.repeat(starts, seg_len)
            + 1
        )
        k = np.repeat(seg_len, seg_len).astype(np.int64)
        psize = k - (k * threshold_permille + 999) // 1000 + 1
        keep = rank <= psize
        return pa.table(
            {
                "token": pa.array(tks[keep].astype(object), pa.string()),
                "doc": pa.array(ds_[keep], pa.int64()),
            }
        )

    prefixes = bucket_map(
        toks_ds, "doc", prefix_select, {"token": pa.string(), "doc": pa.int64()}
    )

    def token_pairs(group: pa.Table) -> pa.Table:
        tk = np.asarray(group.column("token").to_pylist(), dtype=object).astype(str)
        d = group.column("doc").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(tk, d)
        if max_token_df is not None:  # hot prefix tokens drop
            ok = lengths <= max_token_df
            starts, lengths = starts[ok], lengths[ok]
        i, j = run_pairs(starts, lengths)
        d = d[order]
        return pa.table({"doc_a": d[i], "doc_b": d[j]})

    distinct = (
        bucket_map(
            prefixes, "token", token_pairs, {"doc_a": pa.int64(), "doc_b": pa.int64()}
        )
        .groupby(["doc_a", "doc_b"])
        .aggregate(_Count())
    )

    def keys_only(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a").cast(pa.int64()),
                "doc_b": batch.column("doc_b").cast(pa.int64()),
            }
        )

    return distinct.map_batches(
        keys_only, batch_format="pyarrow", zero_copy_batch=True
    )


def vocab_growth_ds(
    docs: Dataset,
    n_checkpoints: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 1,
) -> Dataset:
    """Vocabulary growth curve (the empirical Heaps'-law points a
    tokenizer-budget decision reads): split the corpus into
    ``n_checkpoints`` equal doc-id deciles and report, per decile, how
    many NEW distinct tokens first appear there plus the cumulative
    vocabulary size. A token's checkpoint is
    ``min(first_doc * n // n_docs, n - 1)``. ``shingle_k > 1`` measures
    k-token shingle vocabulary instead — the n-gram growth curve, which
    keeps growing long after the unigram vocab saturates.

    Scale shape: per-batch distinct-(doc, token) combiner -> ONE
    Heaps'-bounded ``groupby(token).min(doc)`` -> n-row decile groupby
    -> driver cumsum over the n-row table. Documents never shuffle."""

    def tok_rows(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lens = np.diff(offs)
        if shingle_k > 1:
            n_sh = np.maximum(lens - shingle_k + 1, 0)
            if int(n_sh.sum()) == 0:
                return pa.table(
                    {
                        "token": pa.array([], pa.string()),
                        "doc": pa.array([], pa.int64()),
                    }
                )
            starts0 = offs[:-1] - offs[0]
            sh_start = (
                np.repeat(starts0, n_sh)
                + np.arange(int(n_sh.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(n_sh) - n_sh, n_sh)
            )
            gather = (
                sh_start[:, None] + np.arange(shingle_k, dtype=np.int64)
            ).ravel()
            vals = pc.take(flat, pa.array(gather, pa.int64()))
            lst = pa.ListArray.from_arrays(
                pa.array(
                    np.arange(len(sh_start) + 1, dtype=np.int64) * shingle_k,
                    pa.int32(),
                ),
                vals,
            )
            elem = pc.binary_join(lst, " ")
            parent = pa.array(ids[np.repeat(np.arange(len(ids)), n_sh)], pa.int64())
        else:
            elem = flat
            parent = pa.array(
                ids[np.repeat(np.arange(len(ids), dtype=np.int64), lens)],
                pa.int64(),
            )
        t = pa.table({"doc": parent, "token": elem})
        g = t.group_by("token").aggregate([("doc", "min")])
        return g.rename_columns(["token", "doc"])

    n_docs = docs.count()
    first = (
        docs.select_columns([id_col, text_col])
        .map_batches(tok_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Min("doc"))
    )

    def decile_partial(batch: pa.Table) -> pa.Table:
        fd = batch.column("min(doc)").to_numpy(zero_copy_only=False)
        dec = np.minimum(fd * n_checkpoints // n_docs, n_checkpoints - 1)
        t = pa.table(
            {
                "decile": pa.array(dec.astype(np.int64), pa.int64()),
                "c": pa.array(np.ones(len(dec), dtype=np.int64)),
            }
        )
        return t.group_by("decile").aggregate([("c", "sum")]).rename_columns(
            ["decile", "c"]
        )

    rows = collect_small(
        first.map_batches(decile_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("decile")
        .aggregate(Sum("c")),
        "per-checkpoint new-token counts",  # <= n_checkpoints rows
        {"decile": pa.int64(), "sum(c)": pa.int64()},
    ).sort_by("decile")
    dec = rows.column("decile").to_numpy()
    new = rows.column("sum(c)").to_numpy()
    return ray.data.from_arrow(
        pa.table(
            {
                "decile": pa.array(dec, pa.int64()),
                "new_tokens": pa.array(new, pa.int64()),
                "cum_vocab": pa.array(np.cumsum(new), pa.int64()),
            }
        )
    )


def shard_balance_ds(
    docs: Dataset,
    n_shards: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Shard-balance audit for the deterministic training shuffle: per
    md5-derived shard (the :func:`shuffle_shards_ds` assignment), the
    doc count, total whitespace-token mass, and min/max per-doc token
    count — the numbers that tell whether shard skew will stall a
    data-parallel training job. Integer-exact.

    Scale shape: per-batch (shard, count, mass, min, max) combiner ->
    ONE bounded ``groupby(shard)``; only n_shards x n_blocks combiner
    rows move."""
    import hashlib

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        toks = (
            pc.add(pc.count_substring(batch.column(text_col), " "), 1)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        h = np.fromiter(
            (
                int(hashlib.md5(str(int(i)).encode()).hexdigest()[:15], 16)
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        t = pa.table(
            {
                "shard": pa.array(h % np.int64(n_shards), pa.int64()),
                "n": pa.array(np.ones(len(ids), dtype=np.int64)),
                "mass": pa.array(toks, pa.int64()),
                "mn": pa.array(toks, pa.int64()),
                "mx": pa.array(toks, pa.int64()),
            }
        )
        return t.group_by("shard").aggregate(
            [("n", "sum"), ("mass", "sum"), ("mn", "min"), ("mx", "max")]
        ).rename_columns(["shard", "n", "mass", "mn", "mx"])

    agg = (
        docs.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .aggregate(Sum("n"), Sum("mass"), Min("mn"), Max("mx"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "shard": batch.column("shard").cast(pa.int64()),
                "n_docs": batch.column("sum(n)").cast(pa.int64()),
                "token_mass": batch.column("sum(mass)").cast(pa.int64()),
                "min_tokens": batch.column("min(mn)").cast(pa.int64()),
                "max_tokens": batch.column("max(mx)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def mutual_knn_ds(
    embeddings: Dataset,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Reciprocal k-NN pairs: ``(x, y)`` with ``x < y`` where y is in x's
    exact-cosine top-k AND x is in y's top-k. Mutual-NN is the standard
    high-precision near-dup / cluster-seed filter on top of a k-NN graph
    (one-directional edges are dominated by hubness noise; reciprocal
    edges are symmetric evidence).

    Scale shape: the k-NN edge stream (``k`` rows per vector, never the
    O(N^2) pair space) is canonicalized per batch to an unordered
    ``lo << 32 | hi`` key and shuffled ONCE through
    ``exchange.bucket_map`` on it — a bounded group count, never
    per-pair groups. Inside a
    bucket each key holds at most two rows (one per direction); a single
    lexsort finds adjacent equal keys with both direction bits and emits
    the surviving pairs vectorized. ``sim_e6`` / ``rank_xy`` are taken
    from the forward (x -> y) row and ``rank_yx`` from the reverse row —
    the two directions' float cosines can differ in the last ulp because
    the norm divisions swap, so the forward row is the canonical value
    (the SQL twin picks the same side).

    Exactness inherits from ``knn_graph_ds`` (quantized integer dot
    products, bit-identical doubles, id tie-breaks). Requires ids below
    2^31 for the composite key."""
    knn = knn_graph_ds(embeddings, k=k, id_col=id_col, vec_col=vec_col)

    def tag(batch: pa.Table) -> pa.Table:
        a = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("neighbor_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.minimum(a, b).astype(np.uint64)
        hi = np.maximum(a, b).astype(np.uint64)
        key = (lo << np.uint64(32)) | hi
        return pa.table(
            {
                "key": pa.array(key, pa.uint64()),
                "fwd": pa.array((a < b).astype(np.int8), pa.int8()),
                "rank": batch.column("rank").cast(pa.int64()),
                "sim_e6": batch.column("sim_e6").cast(pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            ("x", pa.int64()),
            ("y", pa.int64()),
            ("rank_xy", pa.int64()),
            ("rank_yx", pa.int64()),
            ("sim_e6", pa.int64()),
        ]
    )

    def resolve(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        fwd = group.column("fwd").to_numpy(zero_copy_only=False)
        rnk = group.column("rank").to_numpy(zero_copy_only=False)
        sim = group.column("sim_e6").to_numpy(zero_copy_only=False)
        order = np.lexsort((fwd, key))
        ks, fs, rs, ss = key[order], fwd[order], rnk[order], sim[order]
        # each key appears at most twice (one row per direction); adjacent
        # equal keys => both directions present => mutual pair
        i = np.flatnonzero(ks[1:] == ks[:-1])
        # within a key, fwd=0 sorts first: row i reverse, row i+1 forward
        kk = ks[i]
        return pa.table(
            {
                "x": pa.array((kk >> np.uint64(32)).astype(np.int64), pa.int64()),
                "y": pa.array((kk & np.uint64(0xFFFFFFFF)).astype(np.int64)),
                "rank_xy": pa.array(rs[i + 1], pa.int64()),
                "rank_yx": pa.array(rs[i], pa.int64()),
                "sim_e6": pa.array(ss[i + 1], pa.int64()),
            }
        )

    return bucket_map(
        knn.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        "key",
        resolve,
        out_schema,
    )


def grid_cores_ds(
    embeddings: Dataset,
    cell_e6: int = 100_000,
    min_pts: int = 8,
    vec_col: str = "embedding",
) -> Dataset:
    """Grid-density core cells (the scalable first stage of grid-DBSCAN /
    density-based coreset selection): bucket vectors by their first two
    embedding coordinates into square cells of side ``cell_e6`` (e6
    fixed-point units), mark cells with >= ``min_pts`` points as CORE,
    and count each occupied cell's occupied 8-neighborhood — the density
    topology used to seed cluster growth and to flag low-density
    outliers for curation review.

    Exactness: coordinates quantize to ``floor(x * 1e6)`` exact int64;
    the cell index is a TRUE floor division done in shifted non-negative
    space (``(q + OFF) // cell - OFF // cell`` with ``OFF`` a multiple of
    ``cell``), so numpy and SQL agree for negative coordinates without
    relying on either engine's native division rounding.

    Scale shape: per-batch combiner (np.unique on packed cell keys)
    collapses points to one partial row per cell per block BEFORE the
    single ``groupby(cell)`` sum; the 8-neighbor occupancy is a second
    bounded shuffle over the (already tiny) cell table — each occupied
    cell emits its 8 neighbor claims and occupancy sums by target cell.
    No broadcast, no driver collect, both shuffles are cell-count-sized
    (orders of magnitude below the point count)."""
    off_units = np.int64(1) << np.int64(24)
    off = np.int64(cell_e6) * off_units

    def cells_partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q0 = np.floor(m[:, 0].astype(np.float64) * 1e6).astype(np.int64)
        q1 = np.floor(m[:, 1].astype(np.float64) * 1e6).astype(np.int64)
        cx = (q0 + off) // np.int64(cell_e6) - off_units
        cy = (q1 + off) // np.int64(cell_e6) - off_units
        # pack to one key for a single-pass unique (cell coords are tiny)
        packed = (cx.astype(np.uint64) << np.uint64(32)) | (
            cy.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        )
        uk, counts = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "cx": pa.array(
                    (uk >> np.uint64(32)).astype(np.uint32).astype(np.int32)
                ).cast(pa.int64()),
                "cy": pa.array(
                    (uk & np.uint64(0xFFFFFFFF)).astype(np.uint32).astype(np.int32)
                ).cast(pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cells = (
        embeddings.select_columns([vec_col])
        .map_batches(cells_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["cx", "cy"])
        .aggregate(Sum("n"))
    )

    def claims(batch: pa.Table) -> pa.Table:
        cx = batch.column("cx").to_numpy(zero_copy_only=False)
        cy = batch.column("cy").to_numpy(zero_copy_only=False)
        n = batch.column("sum(n)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        txs, tys, pts, occ = [cx], [cy], [n], [np.zeros(len(cx), np.int64)]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                txs.append(cx + dx)
                tys.append(cy + dy)
                pts.append(np.zeros(len(cx), np.int64))
                occ.append(np.ones(len(cx), np.int64))
        return pa.table(
            {
                "cx": pa.array(np.concatenate(txs), pa.int64()),
                "cy": pa.array(np.concatenate(tys), pa.int64()),
                "pts": pa.array(np.concatenate(pts), pa.int64()),
                "occ": pa.array(np.concatenate(occ), pa.int64()),
            }
        )

    merged = (
        cells.map_batches(claims, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["cx", "cy"])
        .aggregate(Sum("pts"), Sum("occ"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(pts)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        nb = batch.column("sum(occ)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = n > 0  # drop neighbor claims landing on unoccupied cells
        return pa.table(
            {
                "cell_x": batch.column("cx").cast(pa.int64()).filter(pa.array(keep)),
                "cell_y": batch.column("cy").cast(pa.int64()).filter(pa.array(keep)),
                "n_points": pa.array(n[keep], pa.int64()),
                "is_core": pa.array(
                    (n[keep] >= min_pts).astype(np.int64), pa.int64()
                ),
                "n_occupied_neighbors": pa.array(nb[keep], pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def skipgram_counts_ds(
    docs: Dataset,
    window: int = 3,
    min_count: int = 5,
    text_col: str = "text",
) -> Dataset:
    """Directional skip-gram pair counts — the co-occurrence statistics
    behind word2vec/GloVe-style embedding pretraining: every ordered
    token pair ``(w_i, w_j)`` with ``1 <= j - i <= window`` inside a
    document, counted corpus-wide, kept when ``n >= min_count``.

    Scale shape: documents never split across rows, so ALL pair
    generation is block-local — for each offset ``d`` the pair stream is
    two views of the flattened token array (``flat[:-d]``, ``flat[d:]``)
    masked to same-document positions (vectorized parent-index compare,
    no per-doc loop); one Arrow ``group_by`` combiner per block, then
    ONE vocab-bounded ``groupby(w1, w2)`` sum with the frequency filter
    applied distributed. Complexity is ``window * corpus_tokens`` rows
    pre-combine — linear, no shuffle amplification."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n_partial": pa.array([], pa.int64()),
            }
        )
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        n = len(flat)
        if n < 2:
            return empty
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(offs))
        lefts, rights = [], []
        for d in range(1, window + 1):
            if d >= n:
                break
            same = parent[:-d] == parent[d:]
            idx = np.flatnonzero(same)
            if len(idx) == 0:
                continue
            lefts.append(pc.take(flat, pa.array(idx, pa.int64())))
            rights.append(pc.take(flat, pa.array(idx + d, pa.int64())))
        if not lefts:
            return empty
        t = pa.table(
            {
                "w1": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in lefts]),
                "w2": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in rights]),
            }
        ).append_column(
            "n_partial",
            pa.array(np.ones(sum(len(a) for a in lefts), np.int64), pa.int64()),
        )
        return t.group_by(["w1", "w2"]).aggregate([("n_partial", "sum")]).rename_columns(
            ["w1", "w2", "n_partial"]
        )

    agg = (
        docs.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["w1", "w2"])
        .aggregate(Sum("n_partial"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_partial)").cast(pa.int64())
        keep = pc.greater_equal(n, pa.scalar(min_count, pa.int64()))
        return pa.table(
            {
                "w1": batch.column("w1").filter(keep),
                "w2": batch.column("w2").filter(keep),
                "n": n.filter(keep),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def entity_graph_ds(
    docs: Dataset,
    min_support: int = 2,
    min_run: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    token_pattern: str = "[a-z]{6,}",
) -> Dataset:
    """Entity co-occurrence edges — the knowledge-graph construction
    pass over a mined corpus: two entities (multi-token runs per
    ``entity_mentions_ds`` semantics) are linked when they appear
    together in >= ``min_support`` distinct documents. Emits
    ``(e1, e2, n)`` with ``e1 < e2`` lexicographically.

    Scale shape: a document's text lives in ONE row, so entity
    extraction, per-doc dedup, and within-doc pair generation are all
    block-local (run detection over the flattened token stream exactly
    as in ``entity_mentions_ds``; pairs via the size-grouped triu
    template over each doc's sorted distinct-entity indices — a loop
    over distinct doc entity-counts, never over docs); one Arrow
    combiner per block, then ONE ``groupby(e1, e2)`` with the support
    filter applied distributed. Hub docs (many entities) are the skew
    risk: pair fan-out is quadratic in a doc's distinct-entity count,
    bounded in practice by doc length; cap upstream via a length filter
    if a pathological corpus needs it."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "e1": pa.array([], pa.string()),
                "e2": pa.array([], pa.string()),
                "n_partial": pa.array([], pa.int64()),
            }
        )
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        if len(flat) == 0:
            return empty
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(offs))
        cap = pc.match_substring_regex(
            flat, f"^(?:{token_pattern})$"
        ).to_numpy(zero_copy_only=False)
        capidx = np.flatnonzero(cap)
        if len(capidx) == 0:
            return empty
        brk = np.concatenate(
            (
                [True],
                (np.diff(capidx) != 1)
                | (parent[capidx[1:]] != parent[capidx[:-1]]),
            )
        )
        run_id = np.cumsum(brk) - 1
        run_starts = np.flatnonzero(brk)
        run_lens = np.diff(np.concatenate((run_starts, [len(capidx)])))
        keep = run_lens >= min_run
        if not keep.any():
            return empty
        tok_keep = keep[run_id]
        kept_tokens = pc.take(flat, pa.array(capidx[tok_keep], pa.int64()))
        kept_lens = run_lens[keep]
        kept_offsets = pa.array(
            np.concatenate(([0], np.cumsum(kept_lens))), pa.int32()
        )
        mentions = pc.binary_join(
            pa.ListArray.from_arrays(kept_offsets, kept_tokens), " "
        )
        ent = np.asarray(mentions.to_pylist(), dtype=object)
        doc = parent[capidx[tok_keep]][np.concatenate(([0], np.cumsum(kept_lens)))[:-1]]
        # per-doc distinct entities, sorted (so pairs come out e1 < e2)
        order = np.lexsort((ent.astype(str), doc))
        ds_, es_ = doc[order], ent[order]
        first = np.concatenate(([True], (ds_[1:] != ds_[:-1]) | (es_[1:] != es_[:-1])))
        ds_, es_ = ds_[first], es_[first]
        # size-grouped triu pairs over per-doc segments of the INDEX array
        starts = np.flatnonzero(
            np.concatenate(([True], ds_[1:] != ds_[:-1]))
        )
        seg_len = np.diff(np.concatenate((starts, [len(ds_)])))
        i_parts, j_parts = [], []
        for k in np.unique(seg_len):
            if k < 2:
                continue
            sel = starts[seg_len == k]
            idx = sel[:, None] + np.arange(int(k))[None, :]
            iu, ju = np.triu_indices(int(k), 1)
            i_parts.append(idx[:, iu].ravel())
            j_parts.append(idx[:, ju].ravel())
        if not i_parts:
            return empty
        ii = np.concatenate(i_parts)
        jj = np.concatenate(j_parts)
        t = pa.table(
            {
                "e1": pa.array(es_[ii], pa.string()),
                "e2": pa.array(es_[jj], pa.string()),
                "n_partial": pa.array(np.ones(len(ii), np.int64), pa.int64()),
            }
        )
        return t.group_by(["e1", "e2"]).aggregate([("n_partial", "sum")]).rename_columns(
            ["e1", "e2", "n_partial"]
        )

    agg = (
        docs.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["e1", "e2"])
        .aggregate(Sum("n_partial"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_partial)").cast(pa.int64())
        keep = pc.greater_equal(n, pa.scalar(min_support, pa.int64()))
        return pa.table(
            {
                "e1": batch.column("e1").filter(keep),
                "e2": batch.column("e2").filter(keep),
                "n": n.filter(keep),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def cluster_inertia_ds(
    embeddings: Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
) -> Dataset:
    """Per-cluster inertia components — the k-means / SemDeDup cluster
    quality diagnostic: for each label, ``n_vecs``, ``sumsq`` =
    sum_i dot(q_i, q_i) and ``dot_sum`` = dot(sum_i q_i, sum_i q_i) over
    e6-quantized vectors. The within-cluster sum of squares follows as
    ``sumsq - dot_sum / n`` (kept rational — the two integer components
    are emitted so ANY engine derives the same value exactly).

    Integer bounds (documented): |q| <= ~2^21 per component keeps
    ``dot_sum <= (n * 2^21)^2 * dims`` below 2^63 for n into the tens of
    thousands per cluster at 64 dims; beyond that, shard labels.

    Scale shape: one pass, two per-batch combiners (row-norm partials
    and per-dimension component sums via ``np.add.at`` — no per-label
    Python), two label-bounded ``groupby`` sums, and an additive
    union-merge of the per-label columns (no join)."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        lbl = batch.column(label_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        ul, inv = np.unique(lbl, return_inverse=True)
        d = q.shape[1]
        acc = np.zeros((len(ul), d), np.int64)
        np.add.at(acc, inv, q)
        nrow = np.bincount(inv, minlength=len(ul)).astype(np.int64)
        ssq = np.zeros(len(ul), np.int64)
        np.add.at(ssq, inv, (q * q).sum(axis=1))
        # dim rows carry per-dimension component sums; dim = -1 rows carry
        # the scalar (n, sumsq) partials
        lab_rows = np.concatenate((ul, np.repeat(ul, d)))
        dim_rows = np.concatenate(
            (np.full(len(ul), -1, np.int64), np.tile(np.arange(d, dtype=np.int64), len(ul)))
        )
        n_rows = np.concatenate((nrow, np.zeros(len(ul) * d, np.int64)))
        ssq_rows = np.concatenate((ssq, np.zeros(len(ul) * d, np.int64)))
        sd_rows = np.concatenate((np.zeros(len(ul), np.int64), acc.reshape(-1)))
        return pa.table(
            {
                "label": pa.array(lab_rows, pa.int64()),
                "dim": pa.array(dim_rows, pa.int64()),
                "n": pa.array(n_rows, pa.int64()),
                "sumsq": pa.array(ssq_rows, pa.int64()),
                "sd": pa.array(sd_rows, pa.int64()),
            }
        )

    agg = (
        embeddings.select_columns([label_col, vec_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["label", "dim"])
        .aggregate(Sum("n"), Sum("sumsq"), Sum("sd"))
    )

    def square_dims(batch: pa.Table) -> pa.Table:
        lbl = batch.column("label").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dim = batch.column("dim").cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = batch.column("sum(n)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        ssq = batch.column("sum(sumsq)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        sd = batch.column("sum(sd)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        isdim = dim >= 0
        return pa.table(
            {
                "label": pa.array(lbl, pa.int64()),
                "n_vecs": pa.array(np.where(isdim, 0, n), pa.int64()),
                "sumsq": pa.array(np.where(isdim, 0, ssq), pa.int64()),
                "dot_sum": pa.array(np.where(isdim, sd * sd, 0), pa.int64()),
            }
        )

    merged = (
        agg.map_batches(square_dims, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .aggregate(Sum("n_vecs"), Sum("sumsq"), Sum("dot_sum"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": batch.column("label").cast(pa.int64()),
                "n_vecs": batch.column("sum(n_vecs)").cast(pa.int64()),
                "sumsq": batch.column("sum(sumsq)").cast(pa.int64()),
                "dot_sum": batch.column("sum(dot_sum)").cast(pa.int64()),
            }
        )

    return merged.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def dim_variance_ds(
    embeddings: Dataset,
    vec_col: str = "embedding",
) -> Dataset:
    """Per-dimension moment screen over the embedding column — the
    feature-variance audit run before whitening / PCA / PQ codebook
    training: for each dimension its exact integer ``n``, ``s`` =
    sum(q) and ``ss`` = sum(q^2) over e6-quantized components (variance
    = (ss - s^2/n) / n stays derivable exactly from the emitted
    integers).

    Scale shape: one streaming pass; each block contributes ONE row per
    dimension (columnwise numpy sums — no per-row work), then a
    dimension-bounded ``groupby`` (64 groups) sums partials. No
    materialization, no broadcast."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        d = q.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64), pa.int64()),
                "n": pa.array(np.full(d, q.shape[0], np.int64), pa.int64()),
                "s": pa.array(q.sum(axis=0), pa.int64()),
                "ss": pa.array((q * q).sum(axis=0), pa.int64()),
            }
        )

    agg = (
        embeddings.select_columns([vec_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Sum("n"), Sum("s"), Sum("ss"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dim": batch.column("dim").cast(pa.int64()),
                "n": batch.column("sum(n)").cast(pa.int64()),
                "s": batch.column("sum(s)").cast(pa.int64()),
                "ss": batch.column("sum(ss)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def dim_covariance_ds(
    embeddings: Dataset,
    vec_col: str = "embedding",
) -> Dataset:
    """Cross-dimension covariance components over the embedding column —
    the correlation screen run before whitening / PCA (redundant or
    degenerate feature pairs surface here, not in `dim_variance_ds`'s
    per-dim marginals): for every unordered dimension pair ``i <= j``
    the exact integers ``n``, ``s_i`` = sum(q_i), ``s_j`` = sum(q_j) and
    ``s_ij`` = sum(q_i * q_j) over e6-quantized components, so
    ``cov = (s_ij - s_i*s_j/n) / n`` derives exactly from the emitted
    row. Bound (documented): |q| <= 2^20 keeps each product < 2^40 and
    the running sum safe to ~2^23 rows; shard or widen beyond.

    Scale shape: one streaming pass; each block contributes the whole
    d*(d+1)/2 upper triangle at once via ONE integer Gram matmul
    (``q.T @ q`` — no per-row or per-pair Python), then a
    pair-bounded ``groupby`` (2,080 groups at d=64) sums partials. No
    materialization, no broadcast."""

    def partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        d = q.shape[1]
        iu, ju = np.triu_indices(d)
        s = q.sum(axis=0)
        gram = q.T @ q
        return pa.table(
            {
                "dim_i": pa.array((iu + 1).astype(np.int64), pa.int64()),
                "dim_j": pa.array((ju + 1).astype(np.int64), pa.int64()),
                "n": pa.array(np.full(iu.size, q.shape[0], np.int64), pa.int64()),
                "s_i": pa.array(s[iu], pa.int64()),
                "s_j": pa.array(s[ju], pa.int64()),
                "s_ij": pa.array(gram[iu, ju], pa.int64()),
            }
        )

    agg = (
        embeddings.select_columns([vec_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dim_i", "dim_j"])
        .aggregate(Sum("n"), Sum("s_i"), Sum("s_j"), Sum("s_ij"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dim_i": batch.column("dim_i").cast(pa.int64()),
                "dim_j": batch.column("dim_j").cast(pa.int64()),
                "n": batch.column("sum(n)").cast(pa.int64()),
                "s_i": batch.column("sum(s_i)").cast(pa.int64()),
                "s_j": batch.column("sum(s_j)").cast(pa.int64()),
                "s_ij": batch.column("sum(s_ij)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def centroid_outliers_ds(
    embeddings: Dataset,
    k: int = 5,
    label_col: str = "label",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """Per-cluster centroid outliers — the mislabel / contamination audit
    of an embedding partition: for each label the top-``k`` member
    vectors FARTHEST from the label centroid (distance DESC, id ASC).

    Exactness without rational centroids: the squared distance to the
    mean scales to the all-integer form ``d2n2 = ||n*q - S||^2`` (n =
    cluster size, S = per-dim component sum), monotone in the true
    distance within a label. Bound (documented): ``(n * |q|)^2 * dims <
    2^63`` — holds to n ~ 10^4 members at |q| <= 2^21, 64 dims; shard
    labels or move to float128/hugeint beyond.

    Scale shape: pass 1 accumulates (n, S) per label with the
    ``np.add.at`` scatter combiner and ONE label-bounded groupby; the
    tiny (labels x dims) table comes through ``collect_small`` and
    broadcasts via ``ray.put``; pass 2 streams the vectors once computing d2n2
    vectorized and emits per-block top-k partials, so the final
    ``groupby(label)`` sees <= blocks * k rows per label."""

    def sums_partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        lbl = batch.column(label_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        ul, inv = np.unique(lbl, return_inverse=True)
        d = q.shape[1]
        acc = np.zeros((len(ul), d), np.int64)
        np.add.at(acc, inv, q)
        nrow = np.bincount(inv, minlength=len(ul)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(ul))),
                "n": pa.array(np.repeat(nrow, d) * (np.tile(np.arange(d), len(ul)) == 0), pa.int64()),
                "sd": pa.array(acc.reshape(-1), pa.int64()),
            }
        )

    stats = collect_small(
        embeddings.select_columns([label_col, vec_col])
        .map_batches(sums_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["label", "dim"])
        .aggregate(Sum("n"), Sum("sd")),
        "label x dim table",
        {"label": pa.int64(), "dim": pa.int64(), "sum(n)": pa.int64(), "sum(sd)": pa.int64()},
    )
    if not stats.num_rows:
        return ray.data.from_arrow(
            pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "d2n2": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        )
    lab_keys, li = np.unique(stats.column("label").to_numpy(), return_inverse=True)
    dim = stats.column("dim").to_numpy()
    S = np.zeros((len(lab_keys), int(dim.max()) + 1), np.int64)
    S[li, dim] = stats.column("sum(sd)").to_numpy()
    N = np.zeros(len(lab_keys), np.int64)
    np.add.at(N, li, stats.column("sum(n)").to_numpy())
    ref = ray.put((lab_keys, N, S))

    def score(batch: pa.Table) -> pa.Table:
        keys, nn, ss = ray.get(ref)
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        lbl = batch.column(label_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, lbl)
        diff = q * nn[pos][:, None] - ss[pos]
        d2 = (diff * diff).sum(axis=1)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        # per-block top-k per label: lexsort (label, -d2, id) then head-k
        order = np.lexsort((ids, -d2, lbl))
        ls, dsort, isort = lbl[order], d2[order], ids[order]
        seg = np.concatenate(([True], ls[1:] != ls[:-1]))
        seg_id = np.cumsum(seg) - 1
        starts = np.flatnonzero(seg)
        rank_in = np.arange(len(ls)) - starts[seg_id]
        keep = rank_in < k
        return pa.table(
            {
                "label": pa.array(ls[keep], pa.int64()),
                id_col: pa.array(isort[keep], pa.int64()),
                "d2n2": pa.array(dsort[keep], pa.int64()),
            }
        )

    partials = embeddings.select_columns(
        [id_col, label_col, vec_col]
    ).map_batches(score, batch_format="pyarrow", zero_copy_batch=True)

    def final_topk(group: pa.Table) -> pa.Table:
        d2 = group.column("d2n2").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -d2))[:k]
        return pa.table(
            {
                "label": group.column("label").take(pa.array(order, pa.int64())),
                id_col: pa.array(ids[order], pa.int64()),
                "d2n2": pa.array(d2[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    return partials.groupby("label").map_groups(final_topk, batch_format="pyarrow")


def sampled_dup_rate_ds(
    docs: Dataset,
    shingle_k: int = 5,
    bucket_e3: int = 100,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Sampled corpus duplication-rate estimate: each document is paired
    with ONE deterministic pseudo-random partner (``md5(id) % N``,
    self-pairs dropped) and the exact distinct-``shingle_k``-gram Jaccard
    of the pair is histogrammed — an O(N) unbiased snapshot of the
    corpus's pairwise-similarity mass, where the true all-pairs scan is
    O(N^2). Requires contiguous ids 0..N-1 (the synthetic corpus
    contract; at scale, a rank column from ``row_number_ds`` supplies
    the dense id space).

    Scale shape: partner texts attach through ``exchange.attach`` (a
    co-group when neither side fits ``MAX_BROADCAST_ROWS``); the per-pair
    gram kernel mirrors the dedup verify stages; per-batch bucket
    combiner then one tiny ``groupby(bucket)``. Output: ``(bucket,
    n_pairs, jac_e3_sum)`` with ``bucket = jac_e3 // bucket_e3``."""
    import hashlib

    n_docs = docs.count()
    empty = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "n_pairs": pa.array([], pa.int64()),
            "jac_e3_sum": pa.array([], pa.int64()),
        }
    )
    if n_docs < 2:
        return ray.data.from_arrow(empty)

    def left_side(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        partner = np.asarray(
            [
                int(hashlib.md5(str(int(i)).encode()).hexdigest()[:15], 16) % n_docs
                for i in ids
            ],
            np.int64,
        )
        keep = partner != ids
        t = pa.table(
            {
                "partner": pa.array(partner[keep], pa.int64()),
                "doc_a": pa.array(ids[keep], pa.int64()),
                "text_a": batch.column(text_col).filter(pa.array(keep)),
            }
        )
        return t

    def right_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "text_b": batch.column(text_col),
            }
        )

    left = docs.select_columns([id_col, text_col]).map_batches(
        left_side, batch_format="pyarrow", zero_copy_batch=True
    )
    right = docs.select_columns([id_col, text_col]).map_batches(
        right_side, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = attach(left, right, "partner", id_col)

    def bucketize(batch: pa.Table) -> pa.Table:
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        jac_e3 = np.empty(len(ta), np.int64)
        for i, (a, b) in enumerate(zip(ta, tb)):
            ga = ts.shingle_hashes(a or "", shingle_k)
            gb = ts.shingle_hashes(b or "", shingle_k)
            inter = np.intersect1d(ga, gb, assume_unique=True).shape[0]
            union = ga.shape[0] + gb.shape[0] - inter
            jac_e3[i] = inter * 1000 // max(union, 1)
        bkt = jac_e3 // bucket_e3
        ub, inv = np.unique(bkt, return_inverse=True)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "n_pairs": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "jac_e3_sum": pa.array(
                    np.bincount(inv, weights=jac_e3).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        joined.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum("n_pairs"), Sum("jac_e3_sum"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": batch.column("bucket").cast(pa.int64()),
                "n_pairs": batch.column("sum(n_pairs)").cast(pa.int64()),
                "jac_e3_sum": batch.column("sum(jac_e3_sum)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def effective_tokens_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
) -> Dataset:
    """Dedup-discounted token mass per source — the "what does dedup
    actually buy us" report: each document's tokens are down-weighted by
    its exact-duplicate family size (``eff = 1000 * tok // fam_size``),
    so a source whose volume is mostly copies shows a large raw-vs-
    effective gap. Emits ``(source, n_docs, raw_tokens,
    effective_tokens_e3)``.

    Scale shape: ONE ``exchange.bucket_map`` on the ``md5(text)`` digest
    (bounded group count, never a group per digest); inside the bucket
    one lexsort yields family segments, per-row discounts compute
    vectorized, and per-source partials leave the bucket; a final tiny
    ``groupby(source)`` sums. Docs' text never shuffles — only (digest, tok, source) projections."""

    def tag(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        h = ts.md5_hex(texts)
        ntok = np.asarray(
            [t.count(" ") + 1 if t else 1 for t in texts], np.int64
        )
        return pa.table(
            {
                "d": pa.array(h.tolist(), pa.string()),
                "tok": pa.array(ntok, pa.int64()),
                "src": batch.column(source_col),
            }
        )

    part_schema = pa.schema(
        [
            ("src", pa.string()),
            ("n_docs", pa.int64()),
            ("raw", pa.int64()),
            ("eff", pa.int64()),
        ]
    )

    def bucket_discount(group: pa.Table) -> pa.Table:
        d = group.column("d").to_numpy(zero_copy_only=False).astype(str)
        tok = group.column("tok").to_numpy(zero_copy_only=False)
        src = group.column("src").to_numpy(zero_copy_only=False).astype(object)
        order = np.lexsort((d,))
        ds_, tok_, src_ = d[order], tok[order], src[order]
        seg = np.concatenate(([True], ds_[1:] != ds_[:-1]))
        seg_id = np.cumsum(seg) - 1
        fam = np.bincount(seg_id)
        eff = tok_ * 1000 // fam[seg_id]
        us, inv = np.unique(src_.astype(str), return_inverse=True)
        return pa.table(
            {
                "src": pa.array(us, pa.string()),
                "n_docs": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "raw": pa.array(
                    np.bincount(inv, weights=tok_).astype(np.int64), pa.int64()
                ),
                "eff": pa.array(
                    np.bincount(inv, weights=eff).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        bucket_map(
            docs.select_columns([id_col, text_col, source_col]).map_batches(
                tag, batch_format="pyarrow", zero_copy_batch=True
            ),
            "d",
            bucket_discount,
            part_schema,
        )
        .groupby("src")
        .aggregate(Sum("n_docs"), Sum("raw"), Sum("eff"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("src"),
                "n_docs": batch.column("sum(n_docs)").cast(pa.int64()),
                "raw_tokens": batch.column("sum(raw)").cast(pa.int64()),
                "effective_tokens_e3": batch.column("sum(eff)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def term_burstiness_ds(
    docs: Dataset,
    k: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Term adaptation / burstiness stats (Church & Gale): for the
    corpus top-``k`` terms by total frequency, the triple ``(tf, df,
    max_tf)`` — total occurrences, document frequency, and the largest
    single-document count. ``tf/df`` far above 1 with a high ``max_tf``
    marks bursty topical terms; flat terms are function words — the
    signal behind adaptive stopword lists and topical-spam filters.

    Scale shape: documents never split across rows, so per-doc term
    counts are exact inside one Arrow ``group_by`` per block; the
    per-block partial row per term carries (tf_p, df_p, max_p) and ONE
    vocab-bounded ``groupby(term)`` merges them (Sum, Sum, Max); the
    final global cut is per-block top-k partials -> sort+limit over
    ``<= k * n_blocks`` rows, never a full-vocab sort."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "term": pa.array([], pa.string()),
                "tf_p": pa.array([], pa.int64()),
                "df_p": pa.array([], pa.int64()),
                "mx_p": pa.array([], pa.int64()),
            }
        )
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        if len(flat) == 0:
            return empty
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(offs))
        t = pa.table({"doc": pa.array(parent, pa.int64()), "term": flat})
        dc = t.group_by(["doc", "term"]).aggregate([("doc", "count")])
        per = pa.table(
            {
                "term": dc.column("term"),
                "n": dc.column("doc_count").cast(pa.int64()),
            }
        )
        g = per.group_by("term").aggregate(
            [("n", "sum"), ("n", "count"), ("n", "max")]
        )
        return pa.table(
            {
                "term": g.column("term"),
                "tf_p": g.column("n_sum").cast(pa.int64()),
                "df_p": g.column("n_count").cast(pa.int64()),
                "mx_p": g.column("n_max").cast(pa.int64()),
            }
        )

    totals = (
        docs.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("tf_p"), Sum("df_p"), Max("mx_p"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        tf = batch.column("sum(tf_p)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        terms = batch.column("term")
        codes = np.unique(
            terms.to_numpy(zero_copy_only=False).astype(str), return_inverse=True
        )[1]
        order = np.lexsort((codes, -tf))[:k]
        take = pa.array(order, pa.int64())
        return pa.table(
            {
                "term": terms.take(take),
                "tf": pa.array(tf[order], pa.int64()),
                "df": batch.column("sum(df_p)").cast(pa.int64()).take(take),
                "max_tf": batch.column("max(mx_p)").cast(pa.int64()).take(take),
            }
        )

    return (
        totals.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["tf", "term"], descending=[True, False])
        .limit(k)
    )


def int8_quant_error_ds(
    embeddings: Dataset,
    keep_bits: int = 7,
    vec_col: str = "embedding",
) -> Dataset:
    """Scalar-quantization error audit — the per-dimension report run
    before shipping an int8 embedding index: for each dimension, the
    power-of-two truncation shift ``k = max(bit_length(max|q|) -
    keep_bits, 0)`` (so every value fits ``keep_bits`` magnitude bits)
    and the EXACT truncation-error mass ``err = q - (q >> k) * 2^k``
    (always in ``[0, 2^k)`` — arithmetic shift floors for negatives in
    numpy and DuckDB alike). Emits ``(dim, k, n, sum_err, max_err)``.

    Scale shape: pass 1 is the ``dim_variance_ds`` one-row-per-dim-
    per-block max combiner; the 64-row (dim, k) table broadcasts via
    ``ray.put``; pass 2 streams the vectors once computing the error
    columnwise. No shuffle beyond the 64-group aggregates."""

    def max_partial(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        d = q.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64), pa.int64()),
                "mx": pa.array(np.abs(q).max(axis=0), pa.int64()),
            }
        )

    maxes = collect_small(
        embeddings.select_columns([vec_col])
        .map_batches(max_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Max("mx")),
        "per-dimension maxima",
        {"dim": pa.int64(), "max(mx)": pa.int64()},
    )
    empty = pa.table(
        {
            "dim": pa.array([], pa.int64()),
            "k": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "sum_err": pa.array([], pa.int64()),
            "max_err": pa.array([], pa.int64()),
        }
    )
    if not maxes.num_rows:
        return ray.data.from_arrow(empty)
    ks = np.zeros(maxes.num_rows, np.int64)
    for dim, mx in zip(*(maxes.column(c).to_pylist() for c in maxes.column_names)):
        ks[dim - 1] = max(mx.bit_length() - keep_bits, 0)
    ref = ray.put(ks)

    def err_partial(batch: pa.Table) -> pa.Table:
        kv = ray.get(ref)
        m = _as_matrix(batch.column(vec_col))
        q = np.floor(m.astype(np.float64) * 1e6).astype(np.int64)
        err = q - (q >> kv[None, :]) * (np.int64(1) << kv)[None, :]
        d = q.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64), pa.int64()),
                "n": pa.array(np.full(d, q.shape[0], np.int64), pa.int64()),
                "sum_err": pa.array(err.sum(axis=0), pa.int64()),
                "max_err": pa.array(err.max(axis=0), pa.int64()),
            }
        )

    agg = (
        embeddings.select_columns([vec_col])
        .map_batches(err_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Sum("n"), Sum("sum_err"), Max("max_err"))
    )
    ks_list = ks  # closure

    def finish(batch: pa.Table) -> pa.Table:
        dim = batch.column("dim").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dim": pa.array(dim, pa.int64()),
                "k": pa.array(ks_list[dim - 1], pa.int64()),
                "n": batch.column("sum(n)").cast(pa.int64()),
                "sum_err": batch.column("sum(sum_err)").cast(pa.int64()),
                "max_err": batch.column("max(max_err)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def blocklist_hits_ds(
    docs: Dataset,
    blocklist: Tuple[str, ...] = ("merge", "dup", "spark", "hash"),
    flag_permille: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Blocklist / safety-lexicon filter — the standard term-based
    content gate (profanity, PII keywords, spam markers) run before any
    model-based safety pass: per document the exact token-hit count
    against a broadcast lexicon, the hit rate in permille, and the gate
    flag (``hit_permille >= flag_permille``). Emits ``(doc_id, n_tokens,
    n_hits, hit_permille, flagged)``.

    Scale shape: embarrassingly parallel — the lexicon ships once inside
    the task closure (kilobytes), membership is one vectorized
    ``pc.is_in`` over the flattened token stream, per-doc sums via
    ``np.bincount`` on the parent index. No shuffle, no collect."""
    lex = pa.array(sorted(set(blocklist)), pa.string())

    def score(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = np.diff(offs)
        parent = np.repeat(np.arange(len(toks), dtype=np.int64), n_tok)
        hits = pc.is_in(flat, value_set=lex).to_numpy(zero_copy_only=False)
        n_hits = np.bincount(
            parent[hits], minlength=len(toks)
        ).astype(np.int64)
        permille = n_hits * 1000 // np.maximum(n_tok, 1)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_hits": pa.array(n_hits, pa.int64()),
                "hit_permille": pa.array(permille, pa.int64()),
                "flagged": pa.array(
                    (permille >= flag_permille).astype(np.int64), pa.int64()
                ),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def semantic_decontaminate_ds(
    embeddings: Dataset,
    eval_mod: int = 5,
    leak_sim_e6: int = 990_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Embedding-space train/eval decontamination — the SEMANTIC
    counterpart of the n-gram ``decontaminate_ds``: for every held-out
    vector (``id % eval_mod == 0``) its single nearest TRAIN vector by
    exact cosine, with the leak flag ``sim_e6 >= leak_sim_e6``
    (paraphrased benchmark items that n-gram overlap misses). Emits
    ``(vec_id, nearest_train_id, sim_e6, leaked)``.

    Exactness and scale shape inherit from ``knn_graph_ds``: e6-quantized
    integer dot products (bit-identical doubles on both engines, id
    tie-break), train matrix staged in the object store as block refs,
    eval side streams with one matmul per staged block. Exact semantics
    are the declared small-N oracle path; the 100 TB path prunes with
    the IVF centroids first (``ann_ivf_topk_ds``)."""

    def quantize(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ids % eval_mod) != 0
        t = batch.filter(pa.array(keep))
        # matrix from the UNfiltered batch, rows filtered after: keeps the
        # true vector width even when every row of this batch is held out
        m = _as_matrix(batch.column(vec_col))[keep]
        q = np.ascontiguousarray(np.floor(m * 1e6))
        flat = pa.array(q.reshape(-1), pa.float64())
        return pa.table(
            {
                id_col: t.column(id_col),
                "_nvec": pa.FixedSizeListArray.from_arrays(flat, q.shape[1]),
            }
        )

    refs = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(quantize, batch_format="pyarrow", zero_copy_batch=True)
        .to_arrow_refs()
    )
    refs_key = tuple(r.hex() for r in refs)

    def top1(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "nearest_train_id": pa.array([], pa.int64()),
                "sim_e6": pa.array([], pa.int64()),
                "leaked": pa.array([], pa.int64()),
            }
        )
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        is_eval = (ids % eval_mod) == 0
        if not is_eval.any():
            return empty
        t = batch.filter(pa.array(is_eval))
        blocks = _emb_blocks(refs_key, refs, id_col)
        if not blocks:
            return empty
        all_ids = np.concatenate([fids for fids, _ in blocks])
        full = np.concatenate([fmat for _, fmat in blocks], axis=0)
        colorder = np.argsort(all_ids, kind="stable")
        all_ids = all_ids[colorder]
        full = full[colorder]
        nb_norm = np.sqrt((full * full).sum(axis=1))
        mq = np.floor(_as_matrix(t.column(vec_col)) * 1e6)
        na_norm = np.sqrt((mq * mq).sum(axis=1))
        na_norm[na_norm == 0] = 1.0
        sims = (mq @ full.T) / na_norm[:, None] / nb_norm[None, :]
        best = np.argmax(sims, axis=1)  # first max = smallest id (id-sorted)
        se = np.floor(sims[np.arange(len(best)), best] * 1e6).astype(np.int64)
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()),
                "nearest_train_id": pa.array(all_ids[best], pa.int64()),
                "sim_e6": pa.array(se, pa.int64()),
                "leaked": pa.array(
                    (se >= leak_sim_e6).astype(np.int64), pa.int64()
                ),
            }
        )

    return embeddings.map_batches(top1, batch_format="pyarrow", zero_copy_batch=True)


def stratified_kfold_ds(
    docs: Dataset,
    n_folds: int = 5,
    stratum_col: str = "lang",
    id_col: str = "doc_id",
) -> Dataset:
    """Deterministic STRATIFIED k-fold assignment — the cross-validation
    split that keeps every stratum's fold counts balanced to ±1 (plain
    ``md5 % k`` hashing only balances in expectation): within each
    stratum, documents order by ``(md5(id) hex, id)`` and fold =
    ``rank % n_folds``. RNG-free, engine-reproducible, stable across
    runs and cluster sizes. Emits ``(doc_id, stratum, fold)``.

    Scale shape: strata are a BOUNDED label domain (languages/sources),
    so one ``groupby(stratum)`` with an in-group vectorized md5-rank
    serves the gate corpus; a mega-stratum (one language dominating a
    web corpus) instead composes the ``row_number_ds`` decomposition —
    per-stratum hash-histogram CDF + tie-run shuffle — to get the same
    ranks without co-locating the stratum (documented scale path)."""
    import hashlib

    def assign(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        hexes = np.asarray(
            [hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids], dtype=object
        )
        order = np.lexsort((ids, hexes.astype(str)))
        fold = np.empty(len(ids), np.int64)
        fold[order] = np.arange(len(ids), dtype=np.int64) % n_folds
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "stratum": group.column(stratum_col),
                "fold": pa.array(fold, pa.int64()),
            }
        )

    return (
        docs.select_columns([id_col, stratum_col])
        .groupby(stratum_col)
        .map_groups(assign, batch_format="pyarrow")
    )


def _first_tokens(texts: pa.ChunkedArray, n: int) -> pa.ChunkedArray:
    """Each text cut to its first ``n`` whitespace tokens (a null reads
    as ``""``)."""
    return pc.binary_join(pc.list_slice(ts.ws_tokens(texts), 0, n), " ")


def syndication_histogram_ds(
    docs: Dataset,
    text_col: str = "text",
    source_col: str = "source",
    key_tokens: Optional[int] = None,
) -> Dataset:
    """Syndicated-content detector: the histogram of exact-duplicate
    families by how many distinct SOURCES each family spans — families
    with ``n_sources > 1`` are wire-copy / mirror content whose dedup
    keep-policy should be source-aware (dup_histogram sizes families;
    this op tells WHERE they live). Emits ``(n_sources, n_families,
    n_docs)``.

    Scale shape: per-batch distinct (digest, source)+count combiner →
    ``groupby(digest, source)`` sum → per-digest fold (sources = row
    count, docs = sum) in one digest-bucket pass (bounded buckets, the
    effective_tokens shuffle) → tiny histogram groupby."""

    def tag(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        if key_tokens is not None:
            # template-opening key: families keyed on the first k tokens
            # (whole-text exact dups rarely cross sources; shared openings do)
            texts = _first_tokens(texts, key_tokens)
        h = pa.array(ts.md5_hex(texts.to_pylist()).tolist(), pa.string())
        t = pa.table({"d": h, "src": batch.column(source_col)})
        g = t.group_by(["d", "src"]).aggregate([("src", "count")])
        return pa.table(
            {
                "d": g.column("d"),
                "src": g.column("src"),
                "n_p": g.column("src_count").cast(pa.int64()),
            }
        )

    cells = (
        docs.select_columns([text_col, source_col])
        .map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["d", "src"])
        .aggregate(Sum("n_p"))
    )

    # per-digest fold: a digest's (d, src) rows may straddle groupby
    # output blocks, so the fold keys on the digest itself — one more
    # digest-bounded groupby (sources = row count, docs = sum)
    refold = (
        cells.map_batches(
            lambda b: pa.table(
                {
                    "d": b.column("d"),
                    "n": b.column("sum(n_p)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("d")
        .aggregate(Sum("n"), ray.data.aggregate.Count())
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        ns = batch.column("count()").cast(pa.int64()).to_numpy(zero_copy_only=False)
        nd = batch.column("sum(n)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        u, inv = np.unique(ns, return_inverse=True)
        return pa.table(
            {
                "n_sources": pa.array(u, pa.int64()),
                "n_families": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "n_docs": pa.array(
                    np.bincount(inv, weights=nd).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        refold.map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_sources")
        .aggregate(Sum("n_families"), Sum("n_docs"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_sources": batch.column("n_sources").cast(pa.int64()),
                "n_families": batch.column("sum(n_families)").cast(pa.int64()),
                "n_docs": batch.column("sum(n_docs)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def term_trend_ds(
    docs: Dataset,
    min_count: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Vocabulary drift between corpus halves — the neologism / topic-
    shift detector run across crawl snapshots: token counts in the
    first half of the id space (``id * 2 < N``) vs the second, with the
    integer drift score ``sign(c2-c1) * (|c2-c1| * 1e6 // (c1+c2))``
    (truncating toward zero, the SQL `//` convention; +1e6 = term newly
    coined, -1e6 = term vanished). Terms below ``min_count``
    total occurrences are dropped distributed. Emits ``(term, c1, c2,
    drift_e6)``.

    Scale shape: one tagged count combiner per block (the half flag
    rides the key — disjoint key domains, one pass), ONE vocab-bounded
    ``groupby(term, half)``, then a half-pivot inside a second bounded
    groupby. N comes from a metadata count on the parquet read."""
    n_docs = docs.count()
    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "c1": pa.array([], pa.int64()),
            "c2": pa.array([], pa.int64()),
            "drift_e6": pa.array([], pa.int64()),
        }
    )
    if n_docs == 0:
        return ray.data.from_arrow(empty)

    def partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        half = (ids * 2 >= n_docs).astype(np.int64)
        parent_half = np.repeat(half, np.diff(offs))
        t = pa.table({"term": flat, "half": pa.array(parent_half, pa.int64())})
        g = t.group_by(["term", "half"]).aggregate([("half", "count")])
        return pa.table(
            {
                "term": g.column("term"),
                "half": g.column("half"),
                "n_p": g.column("half_count").cast(pa.int64()),
            }
        )

    counts = (
        docs.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["term", "half"])
        .aggregate(Sum("n_p"))
    )

    def pivot(batch: pa.Table) -> pa.Table:
        h = batch.column("half").cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = batch.column("sum(n_p)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "term": batch.column("term"),
                "c1": pa.array(np.where(h == 0, n, 0), pa.int64()),
                "c2": pa.array(np.where(h == 1, n, 0), pa.int64()),
            }
        )

    agg = (
        counts.map_batches(pivot, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("c1"), Sum("c2"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        c1 = batch.column("sum(c1)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        c2 = batch.column("sum(c2)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (c1 + c2) >= min_count
        num = c2[keep] - c1[keep]
        # TRUNCATING division (sign * |num|//den) — DuckDB's integer `//`
        # truncates toward zero where numpy floors (robust_scale convention)
        drift = np.sign(num) * (
            np.abs(num) * 1_000_000 // (c1[keep] + c2[keep])
        )
        return pa.table(
            {
                "term": batch.column("term").filter(pa.array(keep)),
                "c1": pa.array(c1[keep], pa.int64()),
                "c2": pa.array(c2[keep], pa.int64()),
                "drift_e6": pa.array(drift, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def semantic_families_ds(
    embeddings: Dataset,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Semantic near-dup FAMILIES — the end-to-end composition of three
    engine primitives: reciprocal k-NN pairs (high-precision similarity
    evidence) → connected components (``exchange.components``, the dedup
    resolution kernel) → family sizes. One row
    per vector that has at least one mutual edge: ``(vec_id, family,
    n_members)`` with family = the component's minimum member id —
    exactly the cluster table a SemDeDup-style keep-one policy consumes.

    Scale shape inherits from the parts: bounded bucket shuffles
    throughout, and family sizes attach to the labels through
    ``exchange.attach``, which keeps them off the driver when they do
    not fit."""
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "family": pa.array([], pa.int64()),
            "n_members": pa.array([], pa.int64()),
        }
    )
    pairs = mutual_knn_ds(embeddings, k=k, id_col=id_col, vec_col=vec_col)
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(empty)
    labels = components(pairs, "x", "y").materialize()

    def size_partial(batch: pa.Table) -> pa.Table:
        lab, cnt = np.unique(
            batch.column("label").cast(pa.int64()).to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        return pa.table(
            {
                "family": pa.array(lab, pa.int64()),
                "sz_p": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    sizes = (
        labels.map_batches(size_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("family")
        .aggregate(Sum("sz_p"))
        .map_batches(
            lambda b: pa.table(
                {
                    "family": b.column("family").cast(pa.int64()),
                    "n_members": b.column("sum(sz_p)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    renamed = labels.map_batches(
        lambda b: pa.table(
            {
                id_col: b.column("node").cast(pa.int64()),
                "family": b.column("label").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return attach(renamed, sizes, "family", "family")


def dataset_card_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Dataset-card summary — the one-row fact sheet published next to a
    training corpus: document count, token and character totals,
    distinct language/source counts, min/max doc length, and the exact
    duplicate-family count (docs minus distinct text digests). Every
    number integer-exact.

    Scale shape: a handful of column-pruned streaming passes, each a
    per-block combiner + bounded groupby (counters in a single-group
    sum; text digests and the categorical domains as distinct-value
    partials folded by groupby-count). Nothing unbounded reaches the
    driver; each pass reads only its column."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col), "")
        toks = pc.split_pattern(texts, " ")
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n_chr = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "g": pa.array([0], pa.int64()),
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_tokens": pa.array([int(n_tok.sum())], pa.int64()),
                "n_chars": pa.array([int(n_chr.sum())], pa.int64()),
                "min_tokens": pa.array([int(n_tok.min())], pa.int64()),
                "max_tokens": pa.array([int(n_tok.max())], pa.int64()),
            }
        )

    base = (
        docs.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("g")
        .aggregate(
            Sum("n_docs"), Sum("n_tokens"), Sum("n_chars"),
            Min("min_tokens"), Max("max_tokens"),
        )
    )

    def digest_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {"d": pa.array(sorted(set(ts.md5_hex(texts).tolist())), pa.string())}
        )

    n_distinct_text = (
        docs.select_columns([text_col])
        .map_batches(digest_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("d")
        .count()
        .count()
    )

    def cats_partial(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            vals = batch.column(col).to_numpy(zero_copy_only=False).astype(str)
            return pa.table({"v": pa.array(np.unique(vals).tolist(), pa.string())})
        return fn

    cols = set(docs.schema().names)
    n_langs = (
        docs.select_columns(["lang"]).map_batches(
            cats_partial("lang"), batch_format="pyarrow", zero_copy_batch=True
        ).groupby("v").count().count()
        if "lang" in cols else 0
    )
    n_sources = (
        docs.select_columns(["source"]).map_batches(
            cats_partial("source"), batch_format="pyarrow", zero_copy_batch=True
        ).groupby("v").count().count()
        if "source" in cols else 0
    )

    def finish(batch: pa.Table) -> pa.Table:
        n_docs = batch.column("sum(n_docs)").cast(pa.int64())
        return pa.table(
            {
                "n_docs": n_docs,
                "n_tokens": batch.column("sum(n_tokens)").cast(pa.int64()),
                "n_chars": batch.column("sum(n_chars)").cast(pa.int64()),
                "min_tokens": batch.column("min(min_tokens)").cast(pa.int64()),
                "max_tokens": batch.column("max(max_tokens)").cast(pa.int64()),
                "n_langs": pa.array([n_langs] * batch.num_rows, pa.int64()),
                "n_sources": pa.array([n_sources] * batch.num_rows, pa.int64()),
                "n_dup_docs": pa.array(
                    [int(n_docs[0].as_py()) - n_distinct_text] * batch.num_rows,
                    pa.int64(),
                ),
            }
        )

    return base.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def source_prefix_audit_ds(
    docs: Dataset,
    text_col: str = "text",
    source_col: str = "source",
) -> Dataset:
    """Per-source common-opening audit — how many CHARACTERS of
    boilerplate every document of a source shares at its start (feed
    headers, wire-service lead-ins). Uses the classic min/max trick:
    the longest common prefix of a SET of strings equals the LCP of its
    lexicographic minimum and maximum, so the whole audit reduces to
    two string aggregates per source. Emits ``(source, n_docs,
    lcp_chars)``.

    Scale shape: one streaming pass with per-batch (source, min, max,
    count) combiners → bounded ``groupby(source)`` (Min/Max/Sum) → the
    LCP computes driver-side on the report-sized table. Texts never
    shuffle beyond one min/max candidate pair per source per block."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "src": batch.column(source_col),
                "mn": pc.fill_null(batch.column(text_col), ""),
                "mx": pc.fill_null(batch.column(text_col), ""),
                "n_p": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )
        return t.group_by("src").aggregate(
            [("mn", "min"), ("mx", "max"), ("n_p", "sum")]
        ).rename_columns(["src", "mn", "mx", "n_p"])

    agg = collect_small(
        docs.select_columns([text_col, source_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("src")
        .aggregate(Min("mn"), Max("mx"), Sum("n_p")),
        "per-source extremes",  # one row per source
        {
            "src": pa.string(),
            "min(mn)": pa.string(),
            "max(mx)": pa.string(),
            "sum(n_p)": pa.int64(),
        },
    ).sort_by("src")
    srcs, nd, lcp = [], [], []
    for src, a, b, n in zip(*(agg.column(c).to_pylist() for c in agg.column_names)):
        m = min(len(a), len(b))
        k = 0
        while k < m and a[k] == b[k]:
            k += 1
        srcs.append(src)
        nd.append(n)
        lcp.append(k)
    return ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "n_docs": pa.array(nd, pa.int64()),
                "lcp_chars": pa.array(lcp, pa.int64()),
            }
        )
    )


def fold_leakage_ds(
    docs: Dataset,
    n_folds: int = 5,
    stratum_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    key_tokens: Optional[int] = None,
) -> Dataset:
    """Cross-validation leakage audit — exact-duplicate families whose
    members land in DIFFERENT folds of the stratified k-fold split
    (training on one copy while validating on another silently inflates
    every metric). Composes ``stratified_kfold_ds`` with the exact-dup
    digest and reports ``(n_families, n_multi_doc_families,
    n_leaky_families, n_leaky_docs)`` in one row.

    Scale shape: fold assignment attaches per doc (bounded-stratum
    rank), digests fold per batch, ONE ``groupby(digest)`` merges
    (members = sum, distinct folds = fold-bitmask OR — exact for
    n_folds <= 62), and a counter combiner folds the family table to
    one row."""
    folds = stratified_kfold_ds(
        docs, n_folds=n_folds, stratum_col=stratum_col, id_col=id_col
    )
    # doc_id -> fold is deterministic, so re-derive text digests on the
    # docs side and attach them to the folds by doc id

    def digests(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        if key_tokens is not None:
            # template-family key (see syndication_histogram_ds): exact
            # whole-text dups rarely straddle folds on a clean corpus;
            # shared openings are the realistic leakage unit
            texts = _first_tokens(texts, key_tokens)
        return pa.table(
            {
                "did": batch.column(id_col).cast(pa.int64()),
                "d": pa.array(ts.md5_hex(texts.to_pylist()).tolist(), pa.string()),
            }
        )

    dig = docs.select_columns([id_col, text_col]).map_batches(
        digests, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = attach(folds, dig, id_col, "did")

    def fam_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("d").to_numpy(zero_copy_only=False).astype(str)
        m = np.int64(1) << batch.column("fold").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # per-batch combiner: count + fold-bitmask OR per digest
        u, inv = np.unique(d, return_inverse=True)
        acc = np.zeros(len(u), np.int64)
        np.bitwise_or.at(acc, inv, m)
        cnt = np.bincount(inv).astype(np.int64)
        return pa.table(
            {
                "d": pa.array(u, pa.string()),
                "n_p": pa.array(cnt, pa.int64()),
                "mask_p": pa.array(acc, pa.int64()),
            }
        )

    # Ray has no bitwise-OR aggregate: the per-digest fold happens in a
    # bucket_map co-group on the digest (same as effective_tokens)
    fam_schema = pa.schema(
        [
            ("n_families", pa.int64()),
            ("n_multi_doc_families", pa.int64()),
            ("n_leaky_families", pa.int64()),
            ("n_leaky_docs", pa.int64()),
        ]
    )

    def bucket_fold(group: pa.Table) -> pa.Table:
        d = group.column("d").to_numpy(zero_copy_only=False).astype(str)
        n = group.column("n_p").to_numpy(zero_copy_only=False)
        m = group.column("mask_p").to_numpy(zero_copy_only=False)
        u, inv = np.unique(d, return_inverse=True)
        nn = np.zeros(len(u), np.int64)
        np.add.at(nn, inv, n)
        mm = np.zeros(len(u), np.int64)
        np.bitwise_or.at(mm, inv, m)
        multi = nn > 1
        # leaky: >1 member AND fold mask has >1 bit set
        nbits = np.zeros(len(u), np.int64)
        x = mm.copy()
        while (x > 0).any():
            nbits += x & 1
            x >>= 1
        leaky = multi & (nbits > 1)
        return pa.table(
            {
                "n_families": pa.array([len(u)], pa.int64()),
                "n_multi_doc_families": pa.array([int(multi.sum())], pa.int64()),
                "n_leaky_families": pa.array([int(leaky.sum())], pa.int64()),
                "n_leaky_docs": pa.array([int(nn[leaky].sum())], pa.int64()),
            }
        )

    parts = collect_small(  # one counter row per bucket
        bucket_map(
            joined.map_batches(
                fam_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "d",
            bucket_fold,
            fam_schema,
        ),
        "per-bucket family counters",
        fam_schema,
    )
    return ray.data.from_arrow(
        pa.table(
            {
                c: pa.array([int(parts.column(c).to_numpy().sum())], pa.int64())
                for c in fam_schema.names
            }
        )
    )


def hash_collision_audit_ds(
    docs: Dataset,
    shingle_k: int = 5,
    text_col: str = "text",
) -> Dataset:
    """64-bit hash-space integrity audit: the number of DISTINCT word
    ``shingle_k``-grams vs distinct md5-u64 gram hashes — every gap is a
    birthday collision silently merging two different grams in every
    hash-keyed operator (MinHash, substring dedup, decontamination).
    Emits one row ``(n_distinct_grams, n_distinct_hashes,
    n_collisions)``.

    Scale shape: two distinct-combiner passes over the gram stream (one
    keyed by gram string, one by hash), each a per-batch ``np.unique``
    partial + one vocab-bounded groupby-count. Grams never collect."""

    def gram_partial(batch: pa.Table) -> pa.Table:
        out = set()
        for t in batch.column(text_col).to_pylist():
            out.update(ts.shingles(t, shingle_k))
        return pa.table({"g": pa.array(sorted(out), pa.string())})

    grams = docs.select_columns([text_col]).map_batches(
        gram_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    n_grams = grams.groupby("g").count().count()

    def hash_partial(batch: pa.Table) -> pa.Table:
        gl = batch.column("g").to_pylist()
        h = np.unique(
            np.fromiter((ts.md5_u64(g) for g in gl), np.uint64, count=len(gl))
        )
        # int64 reinterpretation — distinct-count preserving, and Ray's
        # groupby key path chokes on uint64 beyond int64 range
        return pa.table({"h": pa.array(h.view(np.int64), pa.int64())})

    n_hashes = (
        grams.map_batches(hash_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .count()
        .count()
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_distinct_grams": pa.array([n_grams], pa.int64()),
                "n_distinct_hashes": pa.array([n_hashes], pa.int64()),
                "n_collisions": pa.array([n_grams - n_hashes], pa.int64()),
            }
        )
    )


def kappa_agreement_ds(
    docs: Dataset,
    text_col: str = "text",
    lang_col: str = "lang",
) -> Dataset:
    """Cohen's kappa between the declared language label and the n-gram
    detector — the inter-annotator / label-vs-model agreement audit run
    before trusting either side of a metadata column (chance-corrected,
    unlike raw accuracy). INTEGER-EXACT components instead of the float
    statistic: with ``N`` docs, ``A`` agreements, row marginals ``r_k``
    and column marginals ``c_k``,

        pe_num    = sum_k r_k * c_k
        kappa_num = N * A - pe_num      (kappa = kappa_num / kappa_den)
        kappa_den = N * N - pe_num

    Scale shape: rides :func:`lang_confusion_ds` (per-batch detect +
    combiner, ONE tiny langs x langs groupby); only the confusion matrix
    (<= |langs|^2 rows) ever reaches the driver. Emits a single row
    ``(n_total, n_agree, pe_num, kappa_num, kappa_den)``."""
    conf = collect_small(
        lang_confusion_ds(docs, text_col=text_col, lang_col=lang_col),
        "language confusion matrix",
        {"declared": pa.string(), "detected": pa.string(), "n_docs": pa.int64()},
    )
    n = conf.column("n_docs").to_numpy()
    declared = conf.column("declared").to_numpy(zero_copy_only=False)
    detected = conf.column("detected").to_numpy(zero_copy_only=False)
    n_total = int(n.sum())
    n_agree = int(n[declared == detected].sum())
    labels = np.unique(np.concatenate([declared, detected]))
    pe_num = 0
    for lab in labels:
        r_k = int(n[declared == lab].sum())
        c_k = int(n[detected == lab].sum())
        pe_num += r_k * c_k
    return ray.data.from_arrow(
        pa.table(
            {
                "n_total": pa.array([n_total], pa.int64()),
                "n_agree": pa.array([n_agree], pa.int64()),
                "pe_num": pa.array([pe_num], pa.int64()),
                "kappa_num": pa.array([n_total * n_agree - pe_num], pa.int64()),
                "kappa_den": pa.array([n_total * n_total - pe_num], pa.int64()),
            }
        )
    )


def minimizer_sketch_ds(
    docs: Dataset,
    w: int = 4,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """(w,2)-minimizer sketch audit per document: hash every word bigram
    shingle (``md5_u64``, the oracle-shared primitive), slide a window of
    ``w`` consecutive shingles, and keep each window's minimum hash — the
    minimizer scheme (Roberts et al. 2004, the winnowing/MinHash-lite
    sketch modern substring-dedup pipelines use to cut shingle volume
    ~w-fold while guaranteeing any match of length >= w+1 shingles shares
    a sketch element). Valid window starts are ``1..max(n-w+1, 1)`` (full
    windows; a doc shorter than ``w`` shingles contributes its single
    truncated window = the global min).

    Emits ONE row per doc — ``(doc_id, n_shingles, n_minimizers,
    min_xor)`` where ``n_minimizers`` counts DISTINCT selected hashes and
    ``min_xor`` xors them mod 2^63 (an order-invariant sketch checksum a
    SQL oracle reproduces bit-for-bit) — so the compression ratio
    ``n_minimizers / n_shingles`` is directly auditable.

    Scale shape: pure ``map_batches``, zero shuffle. The sliding-window
    min is ONE ``sliding_window_view`` over a sentinel-padded flat hash
    array covering every doc in the batch — no per-doc Python loop for
    the windowing; per-doc distinctness falls out of one lexsort."""
    sentinel = np.uint64(0xFFFFFFFFFFFFFFFF)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64())
        nb = batch.num_rows
        empty_cols = {
            id_col: ids,
            "n_shingles": pa.array(np.zeros(nb, np.int64)),
            "n_minimizers": pa.array(np.zeros(nb, np.int64)),
            "min_xor": pa.array(np.zeros(nb, np.int64)),
        }
        # bigram shingles, doc-major: pos is the 0-based shingle pos in doc
        doc_of, pos, grams = ts.token_windows(ts.ws_tokens(batch.column(text_col)), 2)
        m = len(doc_of)
        if m == 0:
            return pa.table(empty_cols)
        lens = np.bincount(doc_of, minlength=nb)  # shingles per doc
        sh_base = np.cumsum(lens) - lens
        h = np.fromiter((ts.md5_u64(g) for g in grams.to_pylist()), np.uint64, count=m)
        # sentinel-pad w-1 slots after each doc segment, then ONE
        # sliding-window min over the padded flat array
        pad = w - 1
        padded_len = m + pad * nb
        padded = np.full(padded_len, sentinel, np.uint64)
        pbase = sh_base + pad * np.arange(nb)  # padded start of each doc
        padded[np.repeat(pbase, lens) + pos] = h
        tail = np.full(pad, sentinel, np.uint64)
        win = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([padded, tail]), w
        ).min(axis=1)
        # valid starts: pos 0 .. max(n-w, 0)
        valid = pos <= np.maximum(lens - w, 0)[doc_of]
        wmin = win[np.repeat(pbase, lens) + pos][valid]
        vdoc = doc_of[valid]
        # distinct (doc, wmin): lexsort + boundary mask
        order = np.lexsort((wmin, vdoc))
        d_s, v_s = vdoc[order], wmin[order]
        keep = np.ones(d_s.size, dtype=bool)
        keep[1:] = (d_s[1:] != d_s[:-1]) | (v_s[1:] != v_s[:-1])
        d_u, v_u = d_s[keep], v_s[keep]
        n_min = np.bincount(d_u, minlength=nb).astype(np.int64)
        # xor of distinct minimizer hashes mod 2^63, segment-reduced
        v63 = (v_u & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(n_min)[:-1]]).astype(np.int64)
        xor = np.zeros(nb, np.int64)
        has = n_min > 0
        if v63.size:
            xor[has] = np.bitwise_xor.reduceat(v63, starts[has])
        return pa.table(
            {
                id_col: ids,
                "n_shingles": pa.array(lens),
                "n_minimizers": pa.array(n_min),
                "min_xor": pa.array(xor),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def bool_retrieval_ds(
    docs: Dataset,
    n_terms: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Boolean AND retrieval over the inverted-index tokenization: find
    every document containing ALL of the corpus's top-``n_terms`` tokens
    by document frequency (df DESC, token ASC ties) — the conjunctive
    multi-term query an index serves, expressed here as the
    data-engine-side posting intersection. Self-contained query choice
    (top-df terms) keeps the operator deterministic at every corpus size
    with no external query file.

    Scale shape: df totals via the per-batch DISTINCT (token, doc)
    combiner -> ONE vocab-sized ``groupby`` -> per-block top-k so the
    final sort+limit moves <= k rows per block; the k query terms (a
    constant) broadcast in the task closure; matching is one streaming
    ``map_batches`` pass with a vectorized ``np.isin`` membership probe
    and a bincount segment reduce — no second shuffle, no driver loop."""

    def pairs_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"token": pa.array([], pa.string()), "n_partial": pa.array([], pa.int64())}
        )
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return empty
        d = np.repeat(
            batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False),
            n_tok,
        )
        # a doc lives in exactly one batch, so per-batch-distinct pairs
        # are globally distinct: count(pairs) per token IS the df
        t = (
            pa.table({"token": flat, "d": pa.array(d, pa.int64())})
            .group_by(["token", "d"])
            .aggregate([])
        )
        g = t.group_by(["token"]).aggregate([("d", "count")])
        return pa.table(
            {
                "token": g.column("token"),
                "n_partial": g.column("d_count").cast(pa.int64()),
            }
        )

    totals = (
        docs.select_columns([id_col, text_col])
        .map_batches(pairs_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("n_partial"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_partial)").to_numpy(zero_copy_only=False)
        toks = batch.column("token")
        codes = np.unique(
            toks.to_numpy(zero_copy_only=False).astype(str), return_inverse=True
        )[1]
        order = np.lexsort((codes, -n))[:n_terms]
        return pa.table(
            {"token": toks.take(pa.array(order)), "df": pa.array(n[order], pa.int64())}
        )

    top = collect_small(
        totals.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["df", "token"], descending=[True, False])
        .limit(n_terms),
        "query terms",
        {"token": pa.string()},
    )
    terms = np.sort(top.column("token").to_numpy(zero_copy_only=False).astype(str))
    k = len(terms)

    def match(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64())})
        if k == 0:
            return empty
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(str)
        if flat.size == 0:
            return empty
        doc_idx = np.repeat(np.arange(batch.num_rows), n_tok)
        # code each token as its index in the sorted terms (clip = miss)
        code = np.searchsorted(terms, flat)
        code = np.clip(code, 0, k - 1)
        hit = terms[code] == flat
        pairs = np.unique(doc_idx[hit] * k + code[hit])
        n_hit = np.bincount(pairs // k, minlength=batch.num_rows)
        sel = np.flatnonzero(n_hit == k)
        return pa.table(
            {id_col: batch.column(id_col).cast(pa.int64()).take(pa.array(sel))}
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        match, batch_format="pyarrow", zero_copy_batch=True
    )


def hist_intersection_ds(
    docs: Dataset,
    value_col: str = "n_chars",
    group_col: str = "source",
    bucket_width: int = 256,
) -> Dataset:
    """Histogram-intersection similarity between the length distributions
    of the two LARGEST sources (doc count DESC, source ASC ties) — the
    integer-exact distribution-drift check run before mixing two crawls
    (intersection/size is the overlap coefficient; unlike KS/EMD it
    needs no floats at all). Emits ONE row ``(source_a, source_b, n_a,
    n_b, n_intersect)`` with ``n_intersect = sum_b min(cnt_a(b),
    cnt_b(b))`` over ``value // bucket_width`` buckets; ``source_b`` is
    NULL (with zero counts) for a single-source corpus.

    Scale shape: per-batch (source, bucket) count combiner -> ONE
    groupby over the bounded (sources x buckets) domain -> only that
    domain-sized table reaches the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "g": batch.column(group_col),
                "b": pa.array(v // bucket_width, pa.int64()),
            }
        )
        g = t.group_by(["g", "b"]).aggregate([("b", "count")])
        return pa.table(
            {
                "g": g.column("g"),
                "b": g.column("b"),
                "n_partial": g.column("b_count").cast(pa.int64()),
            }
        )

    hist = collect_small(
        docs.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "b"])
        .aggregate(Sum("n_partial")),
        "(source, bucket) histogram",
        {"g": pa.string(), "b": pa.int64(), "sum(n_partial)": pa.int64()},
    )
    srcs = hist.column("g").to_numpy(zero_copy_only=False).astype(str)
    bkts = hist.column("b").to_numpy()
    cnts = hist.column("sum(n_partial)").to_numpy()
    labels, codes = np.unique(srcs, return_inverse=True)
    totals = np.bincount(codes, weights=cnts, minlength=len(labels)).astype(np.int64)
    order = np.lexsort((labels, -totals))
    src_a = str(labels[order[0]]) if len(labels) >= 1 else None
    src_b = str(labels[order[1]]) if len(labels) >= 2 else None
    n_a = int(totals[order[0]]) if src_a is not None else 0
    n_b = int(totals[order[1]]) if src_b is not None else 0
    n_int = 0
    if src_b is not None:
        ca: Dict[int, int] = {}
        for bk, c in zip(bkts[codes == order[0]], cnts[codes == order[0]]):
            ca[int(bk)] = int(c)
        for bk, c in zip(bkts[codes == order[1]], cnts[codes == order[1]]):
            n_int += min(ca.get(int(bk), 0), int(c))
    return ray.data.from_arrow(
        pa.table(
            {
                "source_a": pa.array([src_a], pa.string()),
                "source_b": pa.array([src_b], pa.string()),
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "n_intersect": pa.array([n_int], pa.int64()),
            }
        )
    )


def marginal_vocab_ds(
    docs: Dataset,
    text_col: str = "text",
    group_col: str = "source",
) -> Dataset:
    """Marginal vocabulary contribution per source: assign every distinct
    corpus token to its lexicographically FIRST source (a deterministic
    greedy set-cover order) and count, per source, both its distinct
    vocabulary and the tokens it alone contributes under that order —
    the curation signal for which crawl actually widens coverage vs
    re-supplying the shared core. Emits ``(source, n_distinct_tokens,
    n_owned_tokens)``.

    Scale shape: per-batch DISTINCT (source, token) combiner -> ONE
    ``exchange.bucket_map`` on the token (bounded groups; every copy of
    a token co-locates, so in-bucket np.unique IS the global distinct
    and the in-bucket min IS the global owner) -> per-bucket per-source
    partial counts -> final groupby over the tiny source domain."""
    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("d", pa.int64()),
            ("o", pa.int64()),
        ]
    )

    def pairs_partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        g = np.repeat(
            batch.column(group_col).to_numpy(zero_copy_only=False).astype(str), n_tok
        )
        return (
            pa.table({"g": pa.array(g, pa.string()), "token": flat})
            .group_by(["g", "token"])
            .aggregate([])
        )

    def bucket_counts(group: pa.Table) -> pa.Table:
        g = group.column("g").to_numpy(zero_copy_only=False).astype(str)
        tok = group.column("token").to_numpy(zero_copy_only=False).astype(object)
        # global distinct (token, source) pairs: lexsort + boundary mask
        order = np.lexsort((g, tok))
        g_s, t_s = g[order], tok[order]
        keep = np.ones(g_s.size, dtype=bool)
        keep[1:] = (t_s[1:] != t_s[:-1]) | (g_s[1:] != g_s[:-1])
        g_u, t_u = g_s[keep], t_s[keep]
        # per-source distinct-token partials
        labels, codes = np.unique(g_u, return_inverse=True)
        d = np.bincount(codes, minlength=len(labels)).astype(np.int64)
        # owner = first source per token (sorted by token then source,
        # so the first row of each token run is the lexicographic min)
        first = np.ones(t_u.size, dtype=bool)
        first[1:] = t_u[1:] != t_u[:-1]
        o = np.bincount(codes[first], minlength=len(labels)).astype(np.int64)
        return pa.table(
            {
                "source": pa.array(labels.astype(object), pa.string()),
                "d": pa.array(d),
                "o": pa.array(o),
            }
        )

    bucketed = bucket_map(
        docs.select_columns([group_col, text_col]).map_batches(
            pairs_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "token",
        bucket_counts,
        out_schema,
    )
    out = bucketed.groupby("source").aggregate(Sum("d"), Sum("o"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("source"),
                "n_distinct_tokens": batch.column("sum(d)").cast(pa.int64()),
                "n_owned_tokens": batch.column("sum(o)").cast(pa.int64()),
            }
        )

    return _anchor_schema(
        out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema(
            [
                ("source", pa.string()),
                ("n_distinct_tokens", pa.int64()),
                ("n_owned_tokens", pa.int64()),
            ]
        ),
    )


def vocab_drift_ds(
    docs: Dataset,
    text_col: str = "text",
    group_col: str = "source",
) -> Dataset:
    """Vocabulary-drift chain: for every ADJACENT pair of sources in
    lexicographic order, the exact distinct-token overlap ``(source_a,
    source_b, n_a, n_b, n_common)`` — Jaccard is ``n_common / (n_a +
    n_b - n_common)``, kept as exact integers. The crawl-over-crawl
    drift audit run before swapping a corpus snapshot.

    Scale shape: the source DOMAIN (tiny by definition) is collected
    once to fix ranks; per-batch DISTINCT (source, token) combiner ->
    ONE ``exchange.bucket_map`` on the token (every copy of a token
    co-locates, so in-bucket np.unique IS the global distinct and
    rank-adjacency counting is local) -> per-bucket (rank, d, c)
    partials -> one bounded groupby over ranks."""
    out_schema = pa.schema(
        [
            ("source_a", pa.string()),
            ("source_b", pa.string()),
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("n_common", pa.int64()),
        ]
    )
    dom = collect_small(
        docs.select_columns([group_col]).groupby(group_col).count(),
        "source domain",
        {group_col: pa.string()},
    )
    labels = sorted(str(s) for s in dom.column(group_col).to_pylist())
    if len(labels) < 2:
        return ray.data.from_arrow(
            pa.table({f.name: pa.array([], f.type) for f in out_schema})
        )
    rank = {s: i for i, s in enumerate(labels)}

    def pairs_partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        g = np.repeat(
            batch.column(group_col).to_numpy(zero_copy_only=False).astype(str), n_tok
        )
        t = (
            pa.table({"g": pa.array(g, pa.string()), "tok": flat})
            .group_by(["g", "tok"])
            .aggregate([])
        )
        rk = np.fromiter(
            (rank[s] for s in t.column("g").to_pylist()), np.int64, count=t.num_rows
        )
        return pa.table({"rk": pa.array(rk, pa.int64()), "tok": t.column("tok")})

    def bucket_counts(group: pa.Table) -> pa.Table:
        rk = group.column("rk").to_numpy(zero_copy_only=False)
        tok = group.column("tok").to_numpy(zero_copy_only=False).astype(object)
        order = np.lexsort((rk, tok))
        rk_s, tok_s = rk[order], tok[order]
        keep = np.ones(rk_s.size, dtype=bool)
        keep[1:] = (tok_s[1:] != tok_s[:-1]) | (rk_s[1:] != rk_s[:-1])
        rk_u, tok_u = rk_s[keep], tok_s[keep]
        d = np.bincount(rk_u, minlength=len(labels)).astype(np.int64)
        # adjacency: consecutive distinct rows of the same token with
        # rank diff exactly 1 (sorted by token then rank)
        same_tok = tok_u[1:] == tok_u[:-1]
        adj = same_tok & ((rk_u[1:] - rk_u[:-1]) == 1)
        c = np.bincount(rk_u[:-1][adj], minlength=len(labels)).astype(np.int64)
        rks = np.arange(len(labels), dtype=np.int64)
        nz = (d > 0) | (c > 0)
        return pa.table(
            {
                "rk": pa.array(rks[nz]),
                "d": pa.array(d[nz]),
                "c": pa.array(c[nz]),
            }
        )

    agg = collect_small(
        bucket_map(
            docs.select_columns([group_col, text_col]).map_batches(
                pairs_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "tok",
            bucket_counts,
            {"rk": pa.int64(), "d": pa.int64(), "c": pa.int64()},
        )
        .groupby("rk")
        .aggregate(Sum("d"), Sum("c")),
        "per-rank token counts",
        {"rk": pa.int64(), "sum(d)": pa.int64(), "sum(c)": pa.int64()},
    )
    d_tot = np.zeros(len(labels), np.int64)
    c_tot = np.zeros(len(labels), np.int64)
    rk_a = agg.column("rk").to_numpy()
    d_tot[rk_a] = agg.column("sum(d)").to_numpy()
    c_tot[rk_a] = agg.column("sum(c)").to_numpy()
    return ray.data.from_arrow(
        pa.table(
            {
                "source_a": pa.array(labels[:-1], pa.string()),
                "source_b": pa.array(labels[1:], pa.string()),
                "n_a": pa.array(d_tot[:-1]),
                "n_b": pa.array(d_tot[1:]),
                "n_common": pa.array(c_tot[:-1]),
            }
        )
    )


def edit_distance_join_ds(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    width: int = 36,
    tau: int = 2,
    max_bucket: Optional[int] = DEFAULT_MAX_BUCKET,
) -> Dataset:
    """String-similarity self-join (PassJoin-style, Li et al. 2011 —
    public method): all doc pairs whose ``width``-char prefixes (padded
    with ``\\x01`` to exactly ``width``) are within Levenshtein distance
    ``tau``. Emits ``(doc_a, doc_b, edit_distance)`` with doc_a < doc_b.

    Blocking is the pigeonhole segment filter: the padded prefix splits
    into ``tau + 1`` equal segments; any pair within distance tau shares
    at least one segment, with the survivor's position shifted by at
    most tau. Docs INDEX their exact segments and PROBE every segment
    window shifted by -tau..tau; a candidate is verified with the exact
    code-point Levenshtein DP of ``textstats.levenshtein``, vectorized
    ACROSS pairs (no per-pair Python DP).

    Scale shape: the only exchange, an ``exchange.bucket_map`` on the
    segment hash, moves (segment hash, role, id, prefix) rows; in-bucket
    searchsorted matches probes to index segments, per-segment caps
    star-collapse hot keys (empty-text
    cliques), duplicate candidates collapse via one Min-groupby over
    the (tiny by construction) verified pair set."""
    assert width % (tau + 1) == 0, "width must divide into tau+1 segments"
    seg_w = width // (tau + 1)
    pad = "\x01"

    def block(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        texts = batch.column(text_col).to_pylist()
        pfx = [(t or "")[:width].ljust(width, pad) for t in texts]
        out_kh: List[int] = []
        out_role: List[int] = []
        out_idx: List[int] = []
        out_pfx: List[str] = []
        for i, p in enumerate(pfx):
            seen: set = set()
            for j in range(tau + 1):
                base = j * seg_w
                key = (j, p[base : base + seg_w], 0)
                if key not in seen:
                    seen.add(key)
                    out_kh.append(ts.md5_u64(f"{j}:{p[base:base + seg_w]}"))
                    out_role.append(0)
                    out_idx.append(i)
                    out_pfx.append(p)
                for dlt in range(-tau, tau + 1):
                    start = min(max(base + dlt, 0), width - seg_w)
                    key = (j, p[start : start + seg_w], 1)
                    if key in seen:
                        continue
                    seen.add(key)
                    out_kh.append(ts.md5_u64(f"{j}:{p[start:start + seg_w]}"))
                    out_role.append(1)
                    out_idx.append(i)
                    out_pfx.append(p)
        return pa.table(
            {
                "kh": pa.array(np.array(out_kh, np.uint64)),
                "role": pa.array(np.array(out_role, np.int8)),
                "doc_id": ids.take(pa.array(out_idx, pa.int64())),
                "pfx": pa.array(out_pfx, pa.string()),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        kh = group.column("kh").to_numpy(zero_copy_only=False)
        role = group.column("role").to_numpy(zero_copy_only=False)
        order = np.lexsort((role, kh))
        kh_s, role_s = kh[order], role[order]
        # index rows (role 0) sorted first within each kh run
        idx_mask = role_s == 0
        idx_pos = np.flatnonzero(idx_mask)
        prb_pos = np.flatnonzero(~idx_mask)
        if idx_pos.size == 0 or prb_pos.size == 0:
            return pa.table({})
        idx_kh = kh_s[idx_pos]
        lo = np.searchsorted(idx_kh, kh_s[prb_pos], side="left")
        hi = np.searchsorted(idx_kh, kh_s[prb_pos], side="right")
        cnt = hi - lo
        if max_bucket is not None:
            over = cnt > max_bucket
            if over.any():
                _log_star_fallback(
                    "edit-distance segment", int(cnt.max()), max_bucket
                )
                cnt = np.minimum(cnt, max_bucket)
        total = int(cnt.sum())
        if total == 0:
            return pa.table({})
        p_rep = np.repeat(prb_pos, cnt)
        offs = np.repeat(np.cumsum(cnt) - cnt, cnt)
        i_idx = idx_pos[np.repeat(lo, cnt) + (np.arange(total) - offs)]
        docs_np = group.column("doc_id").to_numpy(zero_copy_only=False)[order]
        pfx_np = group.column("pfx").to_numpy(zero_copy_only=False)[order]
        da, db = docs_np[p_rep], docs_np[i_idx]
        neq = da != db
        if not neq.any():
            return pa.table({})
        a_doc, b_doc = da[neq], db[neq]
        a_pfx, b_pfx = pfx_np[p_rep][neq], pfx_np[i_idx][neq]
        # canonical order + in-bucket dedup before the expensive DP
        swap = a_doc > b_doc
        a_doc2 = np.where(swap, b_doc, a_doc)
        b_doc2 = np.where(swap, a_doc, b_doc)
        a_pfx2 = np.where(swap, b_pfx, a_pfx)
        b_pfx2 = np.where(swap, a_pfx, b_pfx)
        o2 = np.lexsort((b_doc2, a_doc2))
        a_doc2, b_doc2 = a_doc2[o2], b_doc2[o2]
        a_pfx2, b_pfx2 = a_pfx2[o2], b_pfx2[o2]
        keep = np.ones(a_doc2.size, dtype=bool)
        keep[1:] = (a_doc2[1:] != a_doc2[:-1]) | (b_doc2[1:] != b_doc2[:-1])
        a_doc2, b_doc2 = a_doc2[keep], b_doc2[keep]
        a_pfx2, b_pfx2 = a_pfx2[keep], b_pfx2[keep]
        dist = ts.levenshtein(a_pfx2, b_pfx2)
        ok = dist <= tau
        if not ok.any():
            return pa.table({})
        return pa.table(
            {"doc_a": a_doc2[ok], "doc_b": b_doc2[ok], "edit_distance": dist[ok]}
        )

    blocked = docs.select_columns([id_col, text_col]).map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    )
    id_type = _id_type(docs, id_col)
    pairs = bucket_map(
        blocked,
        "kh",
        bucket_pairs,
        {"doc_a": id_type, "doc_b": id_type, "edit_distance": pa.int64()},
    )
    dedup = pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("edit_distance"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "edit_distance": batch.column("min(edit_distance)").cast(pa.int64()),
            }
        )

    return dedup.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def freq_of_freqs_ds(
    docs: Dataset,
    text_col: str = "text",
) -> Dataset:
    """Frequency-of-frequencies spectrum (the Zipf/lexicon health check):
    term-frequency counts folded into log2 buckets — ``freq_bucket =
    bit_length(freq)`` (== ``length(bin(f))`` in SQL, integer-exact via
    the shared ``_bit_length_exact`` kernel) with the number of distinct
    terms and total token mass per bucket. Bucket 1 is the hapax mass
    every smoothing estimator needs.

    Scale shape: per-batch token-count combiner -> ONE aggregate-only
    vocab groupby -> per-batch bucket fold -> tiny (<= 64-row) bucket
    groupby."""
    from .analytics import _bit_length_exact

    out_schema = pa.schema(
        [
            ("freq_bucket", pa.int64()),
            ("n_terms", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        flat = pc.list_flatten(ts.ws_tokens(batch.column(text_col)))
        if len(flat) == 0:
            return empty
        g = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
        return pa.table(
            {
                "token": g.column("token"),
                "n": g.column("token_count").cast(pa.int64()),
            }
        )

    def bucket_fold(batch: pa.Table) -> pa.Table:
        f = batch.column("sum(n)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = _bit_length_exact(f)
        g = (
            pa.table(
                {
                    "freq_bucket": pa.array(b.astype(np.int64)),
                    "n_terms": pa.array(np.ones(f.size, np.int64)),
                    "n_tokens": pa.array(f),
                }
            )
            .group_by("freq_bucket")
            .aggregate([("n_terms", "sum"), ("n_tokens", "sum")])
        )
        return pa.table(
            {
                "freq_bucket": g.column("freq_bucket"),
                "n_terms": g.column("n_terms_sum").cast(pa.int64()),
                "n_tokens": g.column("n_tokens_sum").cast(pa.int64()),
            }
        )

    out = (
        docs.select_columns([text_col])
        .map_batches(tf_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("n"))
        .map_batches(bucket_fold, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("freq_bucket")
        .aggregate(Sum("n_terms"), Sum("n_tokens"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "freq_bucket": batch.column("freq_bucket").cast(pa.int64()),
                "n_terms": batch.column("sum(n_terms)").cast(pa.int64()),
                "n_tokens": batch.column("sum(n_tokens)").cast(pa.int64()),
            }
        )

    return _anchor_schema(
        out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def oov_rate_ds(
    docs: Dataset,
    text_col: str = "text",
    group_col: str = "source",
    n_vocab: int = 16,
) -> Dataset:
    """Out-of-vocabulary rate per source against the corpus's own
    top-``n_vocab`` terms by total frequency (freq DESC, token ASC
    ties) — the fixed-vocabulary coverage audit run before committing a
    tokenizer/vocab budget. Emits ``(source, n_tokens, n_oov,
    oov_ppm)`` with ``oov_ppm = n_oov * 1e6 // n_tokens``.

    Scale shape: term totals via the per-batch count combiner -> ONE
    vocab groupby -> per-block top-k so the final sort+limit moves
    <= k rows per block; the k vocab terms broadcast in the closure;
    the second pass is a streaming searchsorted membership probe with
    a per-batch source combiner -> source-domain groupby."""
    out_schema = pa.schema(
        [
            (group_col, pa.string()),
            ("n_tokens", pa.int64()),
            ("n_oov", pa.int64()),
            ("oov_ppm", pa.int64()),
        ]
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        flat = pc.list_flatten(ts.ws_tokens(batch.column(text_col)))
        if len(flat) == 0:
            return empty
        g = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
        return pa.table(
            {
                "token": g.column("token"),
                "n": g.column("token_count").cast(pa.int64()),
            }
        )

    totals = (
        docs.select_columns([text_col])
        .map_batches(tf_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("n"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        toks = batch.column("token")
        codes = np.unique(
            toks.to_numpy(zero_copy_only=False).astype(str), return_inverse=True
        )[1]
        order = np.lexsort((codes, -n))[:n_vocab]
        return pa.table(
            {"token": toks.take(pa.array(order)), "f": pa.array(n[order], pa.int64())}
        )

    top = collect_small(
        totals.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["f", "token"], descending=[True, False])
        .limit(n_vocab),
        "vocabulary",
        {"token": pa.string()},
    )
    vocab = np.sort(top.column("token").to_numpy(zero_copy_only=False).astype(str))

    def probe(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                group_col: pa.array([], pa.string()),
                "t": pa.array([], pa.int64()),
                "o": pa.array([], pa.int64()),
            }
        )
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(str)
        if flat.size == 0:
            return empty
        src = np.repeat(
            batch.column(group_col).to_numpy(zero_copy_only=False).astype(str),
            n_tok,
        )
        if vocab.size:
            code = np.clip(np.searchsorted(vocab, flat), 0, vocab.size - 1)
            oov = (vocab[code] != flat).astype(np.int64)
        else:
            oov = np.ones(flat.size, np.int64)
        g = (
            pa.table(
                {
                    group_col: pa.array(src, pa.string()),
                    "t": pa.array(np.ones(flat.size, np.int64)),
                    "o": pa.array(oov),
                }
            )
            .group_by(group_col)
            .aggregate([("t", "sum"), ("o", "sum")])
        )
        return pa.table(
            {
                group_col: g.column(group_col),
                "t": g.column("t_sum").cast(pa.int64()),
                "o": g.column("o_sum").cast(pa.int64()),
            }
        )

    agg = (
        docs.select_columns([group_col, text_col])
        .map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(group_col)
        .aggregate(Sum("t"), Sum("o"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.column("sum(t)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        o = batch.column("sum(o)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                group_col: batch.column(group_col),
                "n_tokens": pa.array(t),
                "n_oov": pa.array(o),
                "oov_ppm": pa.array(
                    np.where(t > 0, o * 1_000_000 // np.maximum(t, 1), 0)
                ),
            }
        )

    return _anchor_schema(
        agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )
