"""Corpus statistics and span/media analytics for the LLM-corpus pipeline.

Operators over the ``documents``/``embeddings`` tables that `corpus_ops`
builds on: per-group ranks and outliers, inverted-index builds,
data-quality and dedup audits, sampling, drift and rank statistics. The
span-structure operators at the end of the module (span-kind
transitions, media density, caption mining, span packing, ...) run on the
interleaved ``(doc_id, spans)`` payload itself.

Scale design notes (same rules as `corpus_ops`):
* Per-record work is a task-mode ``map_batches`` with a per-batch Arrow /
  numpy combiner; the only all-to-all exchanges move combined rows.
* Key-local reductions (argmax per key, per-user distinct, anti-join
  probes) NEVER use ``groupby(key).map_groups`` when the key domain is
  unbounded (millions of near-singleton groups drown in per-group Python
  overhead — measured in round 5, CLAUDE.md): rows go through
  ``exchange.bucket_map`` (a BOUNDED group count) and segment inside
  the bucket with one lexsort, all vectorized; candidate-pair emitters
  use the shared kernel in `exchange`.
* Broadcast sides (per-group CDFs) reach the driver through
  ``exchange.collect_small``, which holds the one row limit, and go
  through ``ray.put`` once, never re-shipped per batch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions import textstats as ts
from .exchange import (
    _anchor_schema,
    bucket_map,
    collect_small,
    components,
    run_pairs,
    segment_runs,
)

Dataset = ray.data.Dataset


# ---------- per-group percentile rank (windowed CDF) ----------


def grouped_rank_ds(
    ds: Dataset,
    group_col: str,
    value_col: str,
    id_col: str,
) -> Dataset:
    """``count(*) OVER (PARTITION BY g ORDER BY v)`` plus the partition
    total — the per-group percentile rank — WITHOUT a global sort: a
    per-batch ``(g, v)`` count combiner bounds the shuffle to one row per
    distinct (group, value) pair per block, the grouped cumulative
    histogram broadcasts once via ``ray.put`` (size-guarded), and one
    ``searchsorted`` probe per batch attaches ``n_le`` / ``g_total`` /
    the integer permille. A sort-based window function would shuffle the
    ENTIRE table; this moves one row per distinct (group, value)."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column(group_col).cast(pa.string()),
                "v": batch.column(value_col).cast(pa.int64()),
            }
        )
        g = t.group_by(["g", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "g": g.column("g"),
                "v": g.column("v"),
                "n_partial": g.column("v_count").cast(pa.int64()),
            }
        )

    hist = collect_small(
        ds.select_columns([group_col, value_col])
        .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "v"])
        .aggregate(Sum("n_partial")),
        "(group, value) domain",
        {"g": pa.string(), "v": pa.int64(), "sum(n_partial)": pa.int64()},
    )
    groups = hist.column("g").to_numpy(zero_copy_only=False)
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(n_partial)").to_numpy()
    gnames, gcodes = np.unique(groups.astype(str), return_inverse=True)
    order = np.lexsort((vals, gcodes))
    gcodes, vals, cnts = gcodes[order], vals[order], cnts[order]
    # within-group cumulative counts + per-group totals
    cum = np.cumsum(cnts)
    gstart = np.concatenate(([True], gcodes[1:] != gcodes[:-1]))
    base = np.zeros(len(cum), dtype=np.int64)
    starts = np.flatnonzero(gstart)
    if len(cum):
        base[starts[1:]] = cum[starts[1:] - 1]
    base = np.maximum.accumulate(base)
    n_le_arr = cum - base
    totals = np.zeros(len(gnames), dtype=np.int64)
    ends = np.concatenate((starts[1:], [len(cum)])) - 1
    if len(cum):
        totals[gcodes[ends]] = n_le_arr[ends]
    # composite probe key: gcode * 2^40 + v (value domain < 2^40)
    shift = np.int64(1) << np.int64(40)
    key_sorted = gcodes.astype(np.int64) * shift + vals
    cdf_ref = ray.put((gnames, key_sorted, n_le_arr, totals))

    def attach(batch: pa.Table) -> pa.Table:
        names_s, keys_s, nle_s, tot_s = ray.get(cdf_ref)
        gv = batch.column(group_col).cast(pa.string()).to_numpy(zero_copy_only=False)
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        gc = np.searchsorted(names_s, gv.astype(str))
        key = gc.astype(np.int64) * (np.int64(1) << np.int64(40)) + v
        idx = np.searchsorted(keys_s, key, side="right") - 1
        n_le = nle_s[idx]
        g_total = tot_s[gc]
        return pa.table(
            {
                id_col: batch.column(id_col),
                group_col: batch.column(group_col),
                value_col: pa.array(v, pa.int64()),
                "n_le": pa.array(n_le, pa.int64()),
                "g_total": pa.array(g_total, pa.int64()),
                "permille": pa.array(n_le * 1000 // g_total, pa.int64()),
            }
        )

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        attach, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- inverted index (posting lists, df band) ----------


def postings_ds(
    docs: Dataset,
    min_df: int = 2,
    max_df: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Inverted-index build with a document-frequency band: for every
    token with ``min_df <= df <= max_df`` emit its posting list (sorted
    doc ids, comma-joined — a string so the oracle compare is exact).
    The band is the classic index-build hygiene: ``df < min_df`` drops
    hapax noise, ``df > max_df`` drops stopword-grade postings whose
    lists would dominate the output.

    Scale shape: per-batch per-doc-distinct ``(token, doc)`` combiner ->
    ONE ``exchange.bucket_map`` on the token (bounded groups — never one
    group per token) -> inside the bucket one lexsort segments tokens,
    the df band filters vectorized, and every surviving posting list is
    assembled with a single ``pc.binary_join`` (no per-token Python
    join)."""

    def pairs_partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        d = np.repeat(
            batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False),
            n_tok,
        )
        return (
            pa.table({"token": pc.list_flatten(toks), "d": pa.array(d, pa.int64())})
            .group_by(["token", "d"])
            .aggregate([])
        )

    pairs = docs.select_columns([id_col, text_col]).map_batches(
        pairs_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_postings(group: pa.Table) -> pa.Table:
        tok = group.column("token").to_numpy(zero_copy_only=False).astype(str)
        d = group.column("d").to_numpy(zero_copy_only=False)
        # cross-block duplicates of (token, doc) collapse here
        uniq, codes = np.unique(tok, return_inverse=True)
        pair_key = codes.astype(np.int64) * np.int64(2**40) + d
        pair_key = np.unique(pair_key)
        codes_u = (pair_key >> np.int64(40)).astype(np.int64)
        d_u = pair_key & (np.int64(2**40) - 1)
        seg_first = np.concatenate(([True], codes_u[1:] != codes_u[:-1]))
        seg_start = np.flatnonzero(seg_first)
        seg_len = np.diff(np.concatenate((seg_start, [len(codes_u)])))
        band = (seg_len >= min_df) & (seg_len <= max_df)
        if not band.any():
            return pa.table({})
        keep_seg = np.flatnonzero(band)
        row_keep = np.repeat(band, seg_len)
        d_keep = d_u[row_keep]
        lens = seg_len[keep_seg]
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets), pc.cast(pa.array(d_keep, pa.int64()), pa.string())
        )
        return pa.table(
            {
                "token": pa.array(uniq[codes_u[seg_start[keep_seg]]], pa.string()),
                "df": pa.array(lens, pa.int64()),
                "doc_ids": pc.binary_join(lists, ","),
            }
        )

    return bucket_map(
        pairs,
        "token",
        bucket_postings,
        {"token": pa.string(), "df": pa.int64(), "doc_ids": pa.string()},
    )


# ---------- data-quality audit ----------


def quality_audit_ds(
    docs: Dataset,
    text_col: str = "text",
    int_col: str = "n_chars",
    cat_cols: Sequence[str] = ("lang", "source"),
) -> Dataset:
    """Expectation-style data-quality audit (the pre-training sanity gate
    run before any expensive pipeline): one row per ``(col_name, metric,
    value)`` — row count, null / empty-string counts, min/max of the
    numeric column, and EXACT distinct counts of the bounded categorical
    columns. Scalar metrics reduce via one per-batch counter row +
    ``Sum``/``Min``/``Max``; distinct counts shuffle one row per distinct
    (column, value) per block. Nothing unbounded ever reaches the
    driver."""

    def counters(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = batch.column(text_col)
        ints = batch.column(int_col).cast(pa.int64())
        n_null = text.null_count
        n_empty = int(
            pc.sum(
                pc.cast(pc.equal(pc.fill_null(text, "\x00"), ""), pa.int64())
            ).as_py()
            or 0
        )
        vmin = pc.min(ints).as_py()
        vmax = pc.max(ints).as_py()
        big = np.int64(2**62)
        return pa.table(
            {
                "n_rows": pa.array([n], pa.int64()),
                "n_null_text": pa.array([n_null], pa.int64()),
                "n_empty_text": pa.array([n_empty], pa.int64()),
                "v_min": pa.array([big if vmin is None else vmin], pa.int64()),
                "v_max": pa.array([-big if vmax is None else vmax], pa.int64()),
            }
        )

    scal = docs.select_columns([text_col, int_col]).map_batches(
        counters, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(
        Sum("n_rows"), Sum("n_null_text"), Sum("n_empty_text"),
        Min("v_min"), Max("v_max"),
    )

    def distinct_partial(batch: pa.Table) -> pa.Table:
        parts = []
        for c in cat_cols:
            t = (
                pa.table({"val": batch.column(c).cast(pa.string())})
                .group_by("val")
                .aggregate([])
            )
            parts.append(
                pa.table(
                    {
                        "col_name": pa.array([c] * t.num_rows, pa.string()),
                        "val": t.column("val"),
                    }
                )
            )
        return pa.concat_tables(parts)

    ndis = collect_small(
        docs.select_columns(list(cat_cols))
        .map_batches(distinct_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["col_name", "val"])
        .count()
        .groupby("col_name")
        .count(),
        "distinct counts per column",
        {"col_name": pa.string(), "count()": pa.int64()},
    )
    dmap = dict(
        zip(ndis.column("col_name").to_pylist(), ndis.column("count()").to_pylist())
    )

    rows: List[Tuple[str, str, int]] = [
        (int_col, "n_rows", int(scal["sum(n_rows)"] or 0)),
        (text_col, "n_null", int(scal["sum(n_null_text)"] or 0)),
        (text_col, "n_empty", int(scal["sum(n_empty_text)"] or 0)),
        (int_col, "min_value", int(scal["min(v_min)"] or 0)),
        (int_col, "max_value", int(scal["max(v_max)"] or 0)),
    ] + [(c, "n_distinct", dmap.get(c, 0)) for c in cat_cols]
    return ray.data.from_arrow(
        pa.table(
            {
                "col_name": pa.array([r[0] for r in rows], pa.string()),
                "metric": pa.array([r[1] for r in rows], pa.string()),
                "value": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
    )


# ---------- grouped heavy hitters ----------


def grouped_heavy_hitters_ds(
    docs: Dataset,
    k: int = 3,
    group_col: str = "lang",
    text_col: str = "text",
) -> Dataset:
    """Top-``k`` tokens per group by occurrence count (per-language
    stopword / censor lists): per-batch ``(group, token)`` count combiner
    -> ``groupby(group, token)`` sum -> PER-BLOCK top-k per group (the
    final exchange moves at most k rows per group per block) -> final
    top-k inside a bounded ``groupby(group)`` (the group domain —
    languages, sources — is small by construction; this is NOT the
    million-singleton-group shape). Deterministic n DESC / token ASC."""

    def count_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "g": pa.array([], pa.string()),
                "token": pa.array([], pa.string()),
                "n_partial": pa.array([], pa.int64()),
            }
        )
        toks = ts.ws_tokens(batch.column(text_col))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return empty
        gs = batch.column(group_col).take(
            pa.array(np.repeat(np.arange(batch.num_rows, dtype=np.int64), n_tok))
        )
        t = (
            pa.table({"g": gs, "token": flat})
            .group_by(["g", "token"])
            .aggregate([("token", "count")])
        )
        return pa.table(
            {
                "g": t.column("g"),
                "token": t.column("token"),
                "n_partial": t.column("token_count").cast(pa.int64()),
            }
        )

    totals = (
        docs.select_columns([group_col, text_col])
        .map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "token"])
        .aggregate(Sum("n_partial"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        gv = batch.column("g").to_numpy(zero_copy_only=False).astype(str)
        tv = batch.column("token").to_numpy(zero_copy_only=False).astype(str)
        n = batch.column("sum(n_partial)").to_numpy(zero_copy_only=False)
        gcodes = np.unique(gv, return_inverse=True)[1]
        tcodes = np.unique(tv, return_inverse=True)[1]
        order = np.lexsort((tcodes, -n, gcodes))
        gs = gcodes[order]
        seg_first = np.concatenate(([True], gs[1:] != gs[:-1]))
        pos = np.arange(len(gs)) - np.maximum.accumulate(
            np.where(seg_first, np.arange(len(gs)), 0)
        )
        keep = order[pos < k]
        return pa.table(
            {
                "g": batch.column("g").take(pa.array(keep)),
                "token": batch.column("token").take(pa.array(keep)),
                "n": pa.array(n[keep], pa.int64()),
            }
        )

    local = totals.map_batches(
        block_topk, batch_format="pyarrow", zero_copy_batch=True
    )

    def final_topk(group: pa.Table) -> pa.Table:
        tv = group.column("token").to_numpy(zero_copy_only=False).astype(str)
        n = group.column("n").to_numpy(zero_copy_only=False)
        tcodes = np.unique(tv, return_inverse=True)[1]
        order = np.lexsort((tcodes, -n))[:k]
        return pa.table(
            {
                group_col: group.column("g").take(pa.array(order)),
                "token": group.column("token").take(pa.array(order)),
                "n": pa.array(n[order], pa.int64()),
                "rank_in_group": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int64)
                ),
            }
        )

    return local.groupby("g").map_groups(final_topk, batch_format="pyarrow")


# ---------- integer-exact group-mean outliers ----------


def length_outliers_ds(
    docs: Dataset,
    group_col: str = "lang",
    value_col: str = "n_chars",
    id_col: str = "doc_id",
    factor: int = 3,
) -> Dataset:
    """Flag rows whose value exceeds ``factor`` times their group mean —
    the pure-integer outlier rule (``v * g_n > factor * g_sum``), so the
    flag is bit-comparable to SQL window sums with no float mean. The
    per-group (count, sum) table reduces via a per-batch combiner, stays
    tiny (bounded group domain), and broadcasts via ``ray.put``; each
    batch then flags with one searchsorted probe. Emits
    ``(id, group, value, g_n, g_sum, is_outlier)``."""

    def stat_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column(group_col).cast(pa.string()),
                "v": batch.column(value_col).cast(pa.int64()),
            }
        )
        g = t.group_by("g").aggregate([("v", "count"), ("v", "sum")])
        return pa.table(
            {
                "g": g.column("g"),
                "n_partial": g.column("v_count").cast(pa.int64()),
                "sum_partial": g.column("v_sum").cast(pa.int64()),
            }
        )

    stats = collect_small(
        docs.select_columns([group_col, value_col])
        .map_batches(stat_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("g")
        .aggregate(Sum("n_partial"), Sum("sum_partial")),
        "group (count, sum) table",
        {
            "g": pa.string(),
            "sum(n_partial)": pa.int64(),
            "sum(sum_partial)": pa.int64(),
        },
    )
    gnames = stats.column("g").to_numpy(zero_copy_only=False).astype(str)
    order = np.argsort(gnames, kind="stable")
    gnames = gnames[order]
    g_n = stats.column("sum(n_partial)").to_numpy()[order]
    g_sum = stats.column("sum(sum_partial)").to_numpy()[order]
    stats_ref = ray.put((gnames, g_n, g_sum))

    def flag(batch: pa.Table) -> pa.Table:
        names_s, n_s, sum_s = ray.get(stats_ref)
        gv = batch.column(group_col).cast(pa.string()).to_numpy(
            zero_copy_only=False
        ).astype(str)
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        gi = np.searchsorted(names_s, gv)
        gn, gs = n_s[gi], sum_s[gi]
        flag_arr = (v * gn > factor * gs).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                group_col: batch.column(group_col),
                value_col: pa.array(v, pa.int64()),
                "g_n": pa.array(gn, pa.int64()),
                "g_sum": pa.array(gs, pa.int64()),
                "is_outlier": pa.array(flag_arr, pa.int64()),
            }
        )

    return docs.select_columns([id_col, group_col, value_col]).map_batches(
        flag, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- NTILE (equal-frequency bucket assignment) ----------


def ntile_ds(
    ds: Dataset,
    value_col: str,
    id_col: str,
    k: int = 4,
) -> Dataset:
    """``NTILE(k) OVER (ORDER BY v, id)`` — equal-frequency bucket
    assignment (deciles/quartiles for curriculum binning) WITHOUT a
    global sort, deterministic via the unique ``id`` tie-break.

    Every row's global row number decomposes as ``rn = cum_below(v) +
    rank_within_ties(v, id)``: the first term comes from a broadcast
    value-count CDF (one row per DISTINCT value shuffles — bounded
    domain, guarded), the second from ONE ``exchange.bucket_map`` on the
    value of (id, v) pairs — all rows sharing a value land in one
    bucket, where a single lexsort ranks them. NTILE sizing follows the
    SQL rule: the first ``N % k`` tiles carry ``N // k + 1`` rows."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64())
        g = pa.table({"v": v}).group_by("v").aggregate([("v", "count")])
        return pa.table(
            {"v": g.column("v"), "n_partial": g.column("v_count").cast(pa.int64())}
        )

    hist = collect_small(
        ds.select_columns([value_col])
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
    cum_below = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    total = int(cnts.sum())
    ref = ray.put((vals, cum_below))
    q, r0 = divmod(total, k)
    cut = r0 * (q + 1)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "v": batch.column(value_col).cast(pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field(value_col, pa.int64()),
            pa.field("tile", pa.int64()),
        ]
    )

    def bucket_tiles(group: pa.Table) -> pa.Table:
        vals_s, below_s = ray.get(ref)
        i = group.column(id_col).to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        order2 = np.lexsort((i, v))
        vs, is_ = v[order2], i[order2]
        starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(vs)])))
        # rank within the tie run (1-based)
        within = np.arange(len(vs), dtype=np.int64) - np.repeat(starts, seg_len) + 1
        rn = below_s[np.searchsorted(vals_s, vs)] + within
        if q > 0:
            tile = np.where(
                rn <= cut,
                (rn - 1) // (q + 1) + 1,
                r0 + (rn - 1 - cut) // q + 1,
            )
        else:
            tile = rn
        return pa.table(
            {
                id_col: pa.array(is_, pa.int64()),
                value_col: pa.array(vs, pa.int64()),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    projected = ds.select_columns([id_col, value_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_map(projected, "v", bucket_tiles, out_schema)


# ---------- grouped ordered id sample (string_agg head) ----------


def group_sample_ids_ds(
    docs: Dataset,
    key_col: str = "lang",
    id_col: str = "doc_id",
    k: int = 5,
) -> Dataset:
    """Per-group audit sample: the ``k`` smallest ids joined as a
    comma-separated string plus the group's total count — the ordered
    ``string_agg`` head every data-quality report attaches next to its
    aggregates.

    Scale shape: a per-batch combiner keeps only each block's k
    smallest ids per group (plus one count partial), so the shuffle
    moves k·groups-sized rows per block; the bounded group domain
    reduces in one ``groupby(key)`` with a vectorized head-of-segment
    pick. The joined string is built per group from ≤ k candidates."""
    out_schema = pa.schema(
        [(key_col, pa.string()), ("ids", pa.string()), ("n_docs", pa.int64())]
    )

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.column(key_col).to_numpy(zero_copy_only=False).astype(str)
        i = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((i, g))
        gs, is_ = g[order], i[order]
        new = np.concatenate(([True], gs[1:] != gs[:-1]))
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate((starts, [len(gs)])))
        local = np.arange(len(gs)) - np.repeat(starts, lens)
        keep = local < k
        n_p = np.zeros(len(gs), dtype=np.int64)
        n_p[starts] = lens  # block count rides on each group's first row
        return pa.table(
            {
                "g": pa.array(gs[keep], pa.string()),
                "id": pa.array(is_[keep], pa.int64()),
                "n_p": pa.array(n_p[keep], pa.int64()),
            }
        )

    def pick(group: pa.Table) -> pa.Table:
        g = group.column("g").to_numpy(zero_copy_only=False).astype(str)
        i = group.column("id").to_numpy(zero_copy_only=False)
        n_p = group.column("n_p").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, g))
        gs, is_, ns = g[order], i[order], n_p[order]
        new = np.concatenate(([True], gs[1:] != gs[:-1]))
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate((starts, [len(gs)])))
        local = np.arange(len(gs)) - np.repeat(starts, lens)
        keep = local < k
        seg_id = np.cumsum(new) - 1
        n_tot = np.add.reduceat(ns, starts)
        kept_seg = seg_id[keep]
        kept_ids = is_[keep]
        out_g, out_s, out_n = [], [], []
        for s in range(len(starts)):  # bounded by the group domain
            m = kept_seg == s
            out_g.append(gs[starts[s]])
            out_s.append(",".join(str(x) for x in kept_ids[m]))
            out_n.append(int(n_tot[s]))
        return pa.table(
            {
                key_col: pa.array(out_g, pa.string()),
                "ids": pa.array(out_s, pa.string()),
                "n_docs": pa.array(out_n, pa.int64()),
            }
        )

    out = (
        docs.select_columns([key_col, id_col])
        .map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("g")
        .map_groups(pick, batch_format="pyarrow")
    )
    return _anchor_schema(out, out_schema)


# ---------- two-sample KS drift (integer-exact, per source pair) ----------


def ks_drift_ds(
    docs: Dataset,
    group_col: str = "source",
    value_col: str = "n_chars",
) -> Dataset:
    """Integer-exact two-sample Kolmogorov–Smirnov distance between every
    pair of groups over an integer value column — the distribution-drift
    detector a curation pipeline runs across sources / shards / snapshot
    dates before trusting a sampling mix. Cross-multiplied form keeps it
    engine-exact: ``ks_num = max_v |cdf_a(v)·n_b − cdf_b(v)·n_a|`` (all
    int64), reported with ``ks_permille = ks_num·1000 // (n_a·n_b)``.

    Scale shape: one per-batch ``(group, value)`` count combiner bounds
    the shuffle to distinct cells per block; the exact cell table (groups
    × distinct values, size-guarded by ``collect_small``) is the ONLY thing
    that leaves the aggregate, and the pairwise CDF sweep runs once on
    the driver over that bounded grid. Raw rows never shuffle. Int64
    bound: ``n_a · n_b`` must stay below 2^63 (documented; holds through
    ~3e9 rows per group)."""

    def cell_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column(group_col).cast(pa.string()),
                "v": batch.column(value_col).cast(pa.int64()),
            }
        )
        agg = t.group_by(["g", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "g": agg.column("g"),
                "v": agg.column("v"),
                "n_p": agg.column("v_count").cast(pa.int64()),
            }
        )

    cells = collect_small(
        docs.select_columns([group_col, value_col])
        .map_batches(cell_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "v"])
        .aggregate(Sum("n_p")),
        "(group, value) domain",
        {"g": pa.string(), "v": pa.int64(), "sum(n_p)": pa.int64()},
    )
    out_schema = pa.schema(
        [
            ("src_a", pa.string()),
            ("src_b", pa.string()),
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("ks_num", pa.int64()),
            ("ks_permille", pa.int64()),
        ]
    )
    if not cells.num_rows:
        return ray.data.from_arrow(
            pa.table({f.name: pa.array([], f.type) for f in out_schema})
        )
    g = cells.column("g").to_numpy(zero_copy_only=False).astype(str)
    v = cells.column("v").to_numpy()
    n = cells.column("sum(n_p)").to_numpy()
    gnames, gcodes = np.unique(g, return_inverse=True)
    vvals, vcodes = np.unique(v, return_inverse=True)
    grid = np.zeros((len(gnames), len(vvals)), dtype=np.int64)
    grid[gcodes, vcodes] = n
    cdf = np.cumsum(grid, axis=1)
    totals = cdf[:, -1]
    out = {name: [] for name in out_schema.names}
    for a in range(len(gnames)):
        for b in range(a + 1, len(gnames)):
            ks = int(np.max(np.abs(cdf[a] * totals[b] - cdf[b] * totals[a])))
            out["src_a"].append(str(gnames[a]))
            out["src_b"].append(str(gnames[b]))
            out["n_a"].append(int(totals[a]))
            out["n_b"].append(int(totals[b]))
            out["ks_num"].append(ks)
            out["ks_permille"].append(ks * 1000 // (int(totals[a]) * int(totals[b])))
    return ray.data.from_arrow(
        pa.table({f.name: pa.array(out[f.name], f.type) for f in out_schema})
    )


# ---------- global ROW_NUMBER and reciprocal-rank fusion ----------


def row_number_ds(
    ds: Dataset,
    value_col: str,
    id_col: str,
    descending: bool = False,
) -> Dataset:
    """``row_number() OVER (ORDER BY v [DESC], id)`` WITHOUT a global
    sort (the :func:`ntile_ds` decomposition, exposed as its own
    operator): ``rn = cum_below(v) + rank_within_ties(v, id)`` where the
    first term is a broadcast value-count CDF (one row per DISTINCT
    value — bounded domain, guarded) and the second comes from ONE
    ``exchange.bucket_map`` on the value, which co-locates each tie run.
    Returns ``(id, v, rn)``; deterministic via the unique-id tie-break.
    ``descending`` negates the value internally (int64 domain)."""
    sign = np.int64(-1) if descending else np.int64(1)

    def vc_partial(batch: pa.Table) -> pa.Table:
        v = pc.multiply(
            batch.column(value_col).cast(pa.int64()), pa.scalar(sign, pa.int64())
        )
        g = pa.table({"v": v}).group_by("v").aggregate([("v", "count")])
        return pa.table(
            {"v": g.column("v"), "n_partial": g.column("v_count").cast(pa.int64())}
        )

    hist = collect_small(
        ds.select_columns([value_col])
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
    cum_below = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    ref = ray.put((vals, cum_below))

    def project(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        ) * sign
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field(value_col, pa.int64()),
            pa.field("rn", pa.int64()),
        ]
    )

    def bucket_rn(group: pa.Table) -> pa.Table:
        vals_s, below_s = ray.get(ref)
        i = group.column(id_col).to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        order2 = np.lexsort((i, v))
        vs, is_ = v[order2], i[order2]
        starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(vs)])))
        within = np.arange(len(vs), dtype=np.int64) - np.repeat(starts, seg_len) + 1
        rn = below_s[np.searchsorted(vals_s, vs)] + within
        return pa.table(
            {
                id_col: pa.array(is_, pa.int64()),
                value_col: pa.array(vs * sign, pa.int64()),
                "rn": pa.array(rn, pa.int64()),
            }
        )

    projected = ds.select_columns([id_col, value_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_map(projected, "v", bucket_rn, out_schema)


def rrf_fusion_ds(
    ds: Dataset,
    id_col: str,
    metric_a_col: str,
    metric_b_col: str,
    k_const: int = 60,
    topk: int = 100,
) -> Dataset:
    """Reciprocal-rank fusion of two rankings of the same id set (the
    standard hybrid-retrieval / multi-signal document-selection
    combiner, Cormack et al. 2009): rank each id by metric A and by
    metric B (both DESC, id-ASC tie-break), then score ``rrf_e9 =
    floor(1e9/(k+rank_a)) + floor(1e9/(k+rank_b))`` — integer-quantized
    so both engines produce identical scores — and return the global
    top-``topk`` by score DESC, id ASC.

    Scale shape: two :func:`row_number_ds` passes (broadcast CDF + one
    tie shuffle each), ranks align by ONE ``exchange.bucket_map`` on the
    id over a tagged union, and the global top-k never sorts the corpus:
    each bucket emits its local top-``topk``, so the driver sorts at
    most ``N_EXCHANGE_BUCKETS * topk`` candidate rows."""
    ra = row_number_ds(
        ds.select_columns([id_col, metric_a_col]),
        metric_a_col, id_col, descending=True,
    )
    rb = row_number_ds(
        ds.select_columns([id_col, metric_b_col]),
        metric_b_col, id_col, descending=True,
    )

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            i = batch.column(id_col).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "i": pa.array(i, pa.int64()),
                    "rn": batch.column("rn").cast(pa.int64()),
                    "side": pa.array(np.full(len(i), side, np.int8)),
                }
            )

        return fn

    both = ra.map_batches(
        tag(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(rb.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True))

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("rank_a", pa.int64()),
            ("rank_b", pa.int64()),
            ("rrf_e9", pa.int64()),
        ]
    )

    def bucket_fuse(group: pa.Table) -> pa.Table:
        i = group.column("i").to_numpy(zero_copy_only=False)
        rn = group.column("rn").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, i))
        i, rn = i[order], rn[order]
        # every id occurs exactly twice (side 0 then side 1)
        ids = i[0::2]
        rka, rkb = rn[0::2], rn[1::2]
        rrf = np.int64(10**9) // (k_const + rka) + np.int64(10**9) // (
            k_const + rkb
        )
        top = np.lexsort((ids, -rrf))[:topk]
        return pa.table(
            {
                id_col: pa.array(ids[top], pa.int64()),
                "rank_a": pa.array(rka[top], pa.int64()),
                "rank_b": pa.array(rkb[top], pa.int64()),
                "rrf_e9": pa.array(rrf[top], pa.int64()),
            }
        )

    cand = collect_small(
        bucket_map(both, "i", bucket_fuse, out_schema),
        "per-bucket top-k candidates",
        out_schema,
    )
    ids = cand.column(id_col).to_numpy()
    rka = cand.column("rank_a").to_numpy()
    rkb = cand.column("rank_b").to_numpy()
    rrf = cand.column("rrf_e9").to_numpy()
    top = np.lexsort((ids, -rrf))[:topk]
    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array(ids[top], pa.int64()),
                "rank_a": pa.array(rka[top], pa.int64()),
                "rank_b": pa.array(rkb[top], pa.int64()),
                "rrf_e9": pa.array(rrf[top], pa.int64()),
            }
        )
    )


# ---------- winsorize (percentile cap) ----------


def winsorize_ds(
    ds: Dataset,
    value_col: str,
    id_col: str,
    pct: int = 99,
) -> Dataset:
    """Winsorize a column at the global ``pct`` percentile — the outlier
    cap a curation pipeline applies to document lengths / token counts
    before length-balanced sampling. The cutoff is
    ``percentile_disc(pct)`` (the value at 1-based rank
    ``ceil(pct * n / 100)`` = ``(pct * n + 99) // 100`` — pure integer
    rank arithmetic, engine-exact); output is every row with its
    original value, the clipped value, and a 0/1 flag.

    Scale shape: one value-count combiner -> bounded distinct-value
    groupby (guarded) -> the single cutoff scalar broadcasts in the
    closure -> one streaming clip pass. Raw rows never shuffle."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64())
        g = pa.table({"v": v}).group_by("v").aggregate([("v", "count")])
        return pa.table(
            {"v": g.column("v"), "n_partial": g.column("v_count").cast(pa.int64())}
        )

    hist = collect_small(
        ds.select_columns([value_col])
        .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(Sum("n_partial")),
        "value domain",
        {"v": pa.int64(), "sum(n_partial)": pa.int64()},
    )
    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            (value_col, pa.int64()),
            ("clipped", pa.int64()),
            ("was_clipped", pa.int64()),
        ]
    )
    if not hist.num_rows:
        return ray.data.from_arrow(
            pa.table({f.name: pa.array([], f.type) for f in out_schema})
        )
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(n_partial)").to_numpy()
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    rank = (pct * n + 99) // 100  # 1-based percentile_disc rank
    cutoff = int(vals[np.searchsorted(cum, rank)])

    def clip(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        c = np.minimum(v, cutoff)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                value_col: pa.array(v, pa.int64()),
                "clipped": pa.array(c, pa.int64()),
                "was_clipped": pa.array((v > cutoff).astype(np.int64), pa.int64()),
            }
        )

    return ds.select_columns([id_col, value_col]).map_batches(
        clip, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------- Mann-Whitney rank-sum (integer-exact, doubled ranks) ----------


def rank_sum_ds(
    ds: Dataset,
    group_col: str,
    value_col: str,
    group_a: str,
    group_b: str,
) -> Dataset:
    """Mann-Whitney U between two groups, kept integer-exact by working
    in DOUBLED midranks (ties get the average rank — a .5 in the
    classic formulation — so ``2*midrank`` is always an int):
    ``u2_a = 2*R_a - n_a*(n_a+1)`` where ``R_a`` is group A's doubled
    rank sum over the pooled ordering. The nonparametric
    did-the-distribution-shift test a curation pipeline runs next to KS
    (:func:`ks_drift_ds`). One row: n_a, n_b, r2_a, u2_a, u2_b
    (``u2_a + u2_b == 2*n_a*n_b`` always — the built-in invariant).

    Scale shape: same bounded dataflow as :func:`ks_drift_ds` — a
    (group, value) count combiner, one distinct-cell groupby (guarded),
    and the rank arithmetic runs once on the bounded grid."""

    def cell_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column(group_col).cast(pa.string()),
                "v": batch.column(value_col).cast(pa.int64()),
            }
        )
        agg = t.group_by(["g", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "g": agg.column("g"),
                "v": agg.column("v"),
                "n_p": agg.column("v_count").cast(pa.int64()),
            }
        )

    cells = collect_small(
        ds.select_columns([group_col, value_col])
        .map_batches(cell_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["g", "v"])
        .aggregate(Sum("n_p")),
        "(group, value) domain",
        {"g": pa.string(), "v": pa.int64(), "sum(n_p)": pa.int64()},
    )
    g = cells.column("g").to_numpy(zero_copy_only=False)
    v = cells.column("v").to_numpy()
    c = cells.column("sum(n_p)").to_numpy()
    va, ca = v[g == group_a], c[g == group_a]
    vb, cb = v[g == group_b], c[g == group_b]
    out_schema = pa.schema(
        [
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("r2_a", pa.int64()),
            ("u2_a", pa.int64()),
            ("u2_b", pa.int64()),
        ]
    )
    allv = np.unique(np.concatenate((va, vb)))
    na_at = np.zeros(len(allv), np.int64)
    nb_at = np.zeros(len(allv), np.int64)
    na_at[np.searchsorted(allv, va)] = ca
    nb_at[np.searchsorted(allv, vb)] = cb
    tot = na_at + nb_at
    cum = np.cumsum(tot)
    before = cum - tot
    # doubled midrank of a tie run [before+1 .. before+t]: (2*before + t + 1)
    mid2 = 2 * before + tot + 1
    n_a, n_b = int(ca.sum()), int(cb.sum())
    r2_a = int((mid2 * na_at).sum())
    u2_a = r2_a - n_a * (n_a + 1)
    u2_b = 2 * n_a * n_b - u2_a
    return ray.data.from_arrow(
        pa.table(
            {
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "r2_a": pa.array([r2_a], pa.int64()),
                "u2_a": pa.array([u2_a], pa.int64()),
                "u2_b": pa.array([u2_b], pa.int64()),
            }
        )
        if n_a and n_b
        else pa.table({f.name: pa.array([], f.type) for f in out_schema})
    )


def chi2_assoc_ds(
    ds: Dataset,
    col_a: str = "lang",
    col_b: str = "source",
) -> Dataset:
    """Chi-squared association between two categorical columns — the
    drift / dependence audit ("did the language mix shift per source?"),
    INTEGER-EXACT: per cell the statistic is
    ``contrib_e6 = 1e6 * (O*N - R*C)^2 // (R*C*N)`` (all integers —
    Python bigints here, HUGEINT in the SQL twin; no float chi2).
    Emits one row per cell of the FULL observed-category cross product
    (zero-observed cells included — they contribute ``(0-E)^2/E = E``,
    without which a perfect association would understate chi2); the
    total statistic is the column sum.

    Scale shape: contingency combiner (one row per cell per block) ->
    ONE tiny-domain groupby; the marginals and the statistic run on the
    materialized cell table (bounded by the category-domain product)."""

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select([col_a, col_b])
            .append_column("n", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
            .group_by([col_a, col_b])
            .aggregate([("n", "sum")])
        )
        return pa.table(
            {col_a: g.column(col_a), col_b: g.column(col_b), "n": g.column("n_sum")}
        )

    cells = collect_small(
        ds.select_columns([col_a, col_b])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([col_a, col_b])
        .aggregate(Sum("n")),
        "contingency cells",
        {col_a: pa.string(), col_b: pa.string(), "sum(n)": pa.int64()},
    )
    obs = {
        (ai, bi): oi
        for ai, bi, oi in zip(
            *(cells.column(c).to_pylist() for c in (col_a, col_b, "sum(n)"))
        )
    }
    n_tot = sum(obs.values())
    row_tot: Dict[str, int] = {}
    col_tot: Dict[str, int] = {}
    for (ai, bi), oi in obs.items():
        row_tot[ai] = row_tot.get(ai, 0) + oi
        col_tot[bi] = col_tot.get(bi, 0) + oi
    a_out, b_out, o_out, exp_e3, contrib_e6 = [], [], [], [], []
    for ai in sorted(row_tot):
        for bi in sorted(col_tot):
            oi = obs.get((ai, bi), 0)
            rc = row_tot[ai] * col_tot[bi]
            d = oi * n_tot - rc
            a_out.append(ai)
            b_out.append(bi)
            o_out.append(oi)
            exp_e3.append(rc * 1000 // n_tot)
            contrib_e6.append(1_000_000 * d * d // (rc * n_tot))
    return ray.data.from_arrow(
        pa.table(
            {
                col_a: pa.array(a_out, pa.string()),
                col_b: pa.array(b_out, pa.string()),
                "observed": pa.array(o_out, pa.int64()),
                "expected_e3": pa.array(exp_e3, pa.int64()),
                "contrib_e6": pa.array(contrib_e6, pa.int64()),
            }
        )
    )


def robust_scale_ds(
    ds: Dataset,
    value_col: str,
    id_col: str,
    group_col: str = "source",
) -> Dataset:
    """Per-group robust scaling — ``(v - median) / IQR`` in e6, the
    outlier-insensitive normalization feature pipelines prefer over
    z-scores. INTEGER-EXACT: median/quartiles use the 1-based
    ``percentile_disc`` rank ``(p*n + 99) // 100`` over the bounded
    per-group value CDF, and the scaled value truncates toward zero
    (``sign * (|v-med| * 1e6 // iqr)``) to match SQL integer division.
    Groups whose IQR is 0 scale by 1 (flag column marks them).

    Scale shape: one (group, value)-count combiner -> bounded-domain
    groupby (guarded) -> the tiny per-group cutoff table broadcasts in
    the closure -> one streaming scale pass. Raw rows never shuffle."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "g": batch.column(group_col),
                "v": batch.column(value_col).cast(pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["g", "v"]).aggregate([("n", "sum")])
        return pa.table(
            {"g": g.column("g"), "v": g.column("v"), "n": g.column("n_sum")}
        )

    df = (
        collect_small(
            ds.select_columns([group_col, value_col])
            .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["g", "v"])
            .aggregate(Sum("n")),
            "(group, value) domain",
            {"g": pa.string(), "v": pa.int64(), "sum(n)": pa.int64()},
        )
        .to_pandas()
        .sort_values(["g", "v"])
        .reset_index(drop=True)
    )
    cuts: Dict[str, Tuple[int, int]] = {}
    for gname, sub in df.groupby("g", sort=False):
        vals = sub["v"].to_numpy(dtype=np.int64)
        cnts = sub["sum(n)"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        pick = lambda p: int(vals[np.searchsorted(cum, (p * n + 99) // 100)])
        med = pick(50)
        iqr = pick(75) - pick(25)
        cuts[str(gname)] = (med, iqr)
    cuts_ref = ray.put(cuts)

    def scale(batch: pa.Table) -> pa.Table:
        c = ray.get(cuts_ref)
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        gl = batch.column(group_col).to_pylist()
        med = np.fromiter((c[g][0] for g in gl), np.int64, count=len(gl))
        iqr = np.fromiter((c[g][1] for g in gl), np.int64, count=len(gl))
        zero_iqr = iqr == 0
        denom = np.maximum(iqr, 1)
        d = v - med
        scaled = np.sign(d) * (np.abs(d) * 1_000_000 // denom)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.int64()),
                group_col: batch.column(group_col),
                value_col: pa.array(v, pa.int64()),
                "median_v": pa.array(med, pa.int64()),
                "iqr": pa.array(iqr, pa.int64()),
                "scaled_e6": pa.array(scaled.astype(np.int64), pa.int64()),
                "zero_iqr": pa.array(zero_iqr.astype(np.int64), pa.int64()),
            }
        )

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        scale, batch_format="pyarrow", zero_copy_batch=True
    )


def keyness_ds(
    docs: Dataset,
    k: int = 5,
    text_col: str = "text",
    group_col: str = "source",
) -> Dataset:
    """Per-source DISTINCTIVE terms (keyness): for every (source, term),
    the integer lift of the term's in-source rate over its
    rest-of-corpus rate — ``lift_e6 = c_s * T_rest * 1e6 //
    ((c_rest + 1) * T_s)`` (add-one on the rest count so
    source-exclusive terms stay finite) — and the top-``k`` terms per
    source by (lift DESC, term ASC). The "what characterizes this
    source" exploration op.

    Scale shape: one (source, term) combiner -> Heaps'-bounded groupby;
    per-term corpus totals derive from that same table (second small
    groupby) and broadcast under a guard; scoring streams over the
    (source, term) rows with per-block per-source top-k partials, and
    only ``sources x block-k`` candidate rows reach the driver final.
    Products are checked against int64 range and fall back to Python
    bigints (the SQL twin is HUGEINT throughout)."""

    def partial(batch: pa.Table) -> pa.Table:
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        si = batch.column(group_col).take(
            pa.array(np.repeat(np.arange(len(lens)), lens))
        )
        g = (
            pa.table({"s": si.cast(pa.string()), "term": flat})
            .group_by(["s", "term"])
            .aggregate([("term", "count")])
        )
        return pa.table(
            {
                "s": g.column("s"),
                "term": g.column("term"),
                "c": g.column("term_count").cast(pa.int64()),
            }
        )

    st = (
        docs.select_columns([group_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["s", "term"])
        .aggregate(Sum("c"))
        .materialize()
    )

    def term_tot_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"term": batch.column("term"), "ct": batch.column("sum(c)")}
        )

    tt = collect_small(
        st.map_batches(term_tot_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("ct")),
        "term vocabulary",
        {"term": pa.string(), "sum(ct)": pa.int64()},
    )
    terms_sorted = tt.column("term").to_numpy(zero_copy_only=False).astype(str)
    ct_sorted = tt.column("sum(ct)").to_numpy()
    o = np.argsort(terms_sorted, kind="stable")
    terms_sorted, ct_sorted = terms_sorted[o], ct_sorted[o]

    def src_tot_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["s", "sum(c)"]).group_by("s").aggregate([("sum(c)", "sum")])
        return pa.table({"s": g.column("s"), "ts": g.column("sum(c)_sum")})

    stot_t = collect_small(
        st.map_batches(src_tot_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("s")
        .aggregate(Sum("ts")),
        "per-source term totals",
        {"s": pa.string(), "sum(ts)": pa.int64()},
    )
    stot = dict(
        zip(stot_t.column("s").to_pylist(), stot_t.column("sum(ts)").to_pylist())
    )
    T = sum(stot.values())
    ref = ray.put((terms_sorted, ct_sorted, stot, T))

    def score_topk(batch: pa.Table) -> pa.Table:
        vt, vc, s_tot, T_all = ray.get(ref)
        srcs = batch.column("s").to_pylist()
        terms = np.asarray(batch.column("term").to_pylist(), dtype=object).astype(str)
        cs = batch.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        ctot = vc[np.searchsorted(vt, terms)]
        crest = ctot - cs
        ts_arr = np.fromiter((s_tot[s] for s in srcs), np.int64, count=len(srcs))
        trest = T_all - ts_arr
        # int64 overflow guard: fall back to Python bigints when needed
        if len(cs) and int(cs.max()) * int(trest.max()) > (1 << 62) // 1_000_000:
            lift = np.fromiter(
                (
                    int(a) * int(b) * 1_000_000 // ((int(r) + 1) * int(t))
                    for a, b, r, t in zip(cs, trest, crest, ts_arr)
                ),
                np.int64,
                count=len(cs),
            )
        else:
            lift = cs * trest * 1_000_000 // ((crest + 1) * ts_arr)
        # per-block per-source top-k partial
        order = np.lexsort((terms, -lift))
        keep_idx = []
        seen: Dict[str, int] = {}
        for i in order:
            s = srcs[i]
            if seen.get(s, 0) < k:
                seen[s] = seen.get(s, 0) + 1
                keep_idx.append(i)
        keep_idx = np.asarray(keep_idx, dtype=np.int64)
        return pa.table(
            {
                "s": pa.array([srcs[i] for i in keep_idx], pa.string()),
                "term": pa.array(terms[keep_idx].astype(object), pa.string()),
                "c_s": pa.array(cs[keep_idx], pa.int64()),
                "lift_e6": pa.array(lift[keep_idx], pa.int64()),
            }
        )

    cands = collect_small(
        st.map_batches(score_topk, batch_format="pyarrow", zero_copy_batch=True),
        "per-block top-k candidates",
        {
            "s": pa.string(),
            "term": pa.string(),
            "c_s": pa.int64(),
            "lift_e6": pa.int64(),
        },
    ).to_pandas()
    rows = []
    for s, sub in cands.groupby("s", sort=True):
        sub = sub.sort_values(
            ["lift_e6", "term"], ascending=[False, True]
        ).head(k)
        for rk, (_, r) in enumerate(sub.iterrows(), 1):
            rows.append((s, r["term"], int(r["c_s"]), int(r["lift_e6"]), rk))
    return ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array([r[0] for r in rows], pa.string()),
                "term": pa.array([r[1] for r in rows], pa.string()),
                "c_s": pa.array([r[2] for r in rows], pa.int64()),
                "lift_e6": pa.array([r[3] for r in rows], pa.int64()),
                "rank": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def weighted_median_ds(
    docs: Dataset,
    value_col: str = "n_chars",
    weight_from_text: bool = True,
    text_col: str = "text",
) -> Dataset:
    """Token-mass-weighted median document length — "half the corpus
    TOKENS live in docs shorter than this": the curation statistic that
    differs sharply from the doc-count median on heavy-tailed corpora.
    Emits one row ``(wmedian, total_weight, plain_median, n_docs)``:
    the smallest value whose cumulative token weight reaches
    ``(S + 1) // 2``, alongside the unweighted ``percentile_disc(50)``
    for contrast. Integer-exact.

    Scale shape: one (value, count, weight) combiner -> bounded
    value-domain groupby (guarded) -> the two scalars come off the
    driver CDF."""

    def vc_partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        if weight_from_text:
            texts = batch.column(text_col)
            wgt = (
                pc.add(pc.count_substring(texts, " "), 1)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        else:
            wgt = v
        t = pa.table(
            {
                "v": pa.array(v, pa.int64()),
                "c": pa.array(np.ones(len(v), dtype=np.int64)),
                "wt": pa.array(wgt, pa.int64()),
            }
        )
        g = t.group_by("v").aggregate([("c", "sum"), ("wt", "sum")])
        return pa.table(
            {
                "v": g.column("v"),
                "c": g.column("c_sum"),
                "wt": g.column("wt_sum"),
            }
        )

    cols = [value_col, text_col] if weight_from_text else [value_col]
    hist = collect_small(
        docs.select_columns(cols)
        .map_batches(vc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(Sum("c"), Sum("wt")),
        "value domain",
        {"v": pa.int64(), "sum(c)": pa.int64(), "sum(wt)": pa.int64()},
    ).sort_by("v")
    if not hist.num_rows:  # empty corpus: no median exists — zero-row report
        return ray.data.from_arrow(
            pa.table(
                {
                    "wmedian": pa.array([], pa.int64()),
                    "total_weight": pa.array([], pa.int64()),
                    "plain_median": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        )
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(c)").to_numpy()
    wts = hist.column("sum(wt)").to_numpy()
    cum_c = np.cumsum(cnts)
    cum_w = np.cumsum(wts)
    n = int(cum_c[-1])
    S = int(cum_w[-1])
    wmed = int(vals[np.searchsorted(cum_w, (S + 1) // 2)])
    pmed = int(vals[np.searchsorted(cum_c, (50 * n + 99) // 100)])
    return ray.data.from_arrow(
        pa.table(
            {
                "wmedian": pa.array([wmed], pa.int64()),
                "total_weight": pa.array([S], pa.int64()),
                "plain_median": pa.array([pmed], pa.int64()),
                "n_docs": pa.array([n], pa.int64()),
            }
        )
    )


def spearman_corr_ds(
    docs: Dataset,
    x_col: str = "n_chars",
    text_col: str = "text",
) -> Dataset:
    """Spearman rank correlation between document length (``x_col``) and
    whitespace token count — emitted as the EXACT integer components
    ``(n, num, denx, deny)`` of the tie-corrected formula over DOUBLED
    average ranks (``2 * avg_rank`` is always an integer, so every term
    stays in int64 and ``rho = num / sqrt(denx * deny)`` is the reader's
    one float). No global sort: ranks come from the value-count
    histograms (avg rank of value v = count_before + (count(v)+1)/2),
    and the cross term from the JOINT (x, y) histogram — one combiner
    ``map_batches`` + one bounded-domain groupby, guarded like
    :func:`weighted_median_ds`."""

    def xy_partial(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).cast(pa.int64())
        y = pc.add(
            pc.count_substring(batch.column(text_col), " "), 1
        ).cast(pa.int64())
        t = pa.table(
            {
                "x": x,
                "y": y,
                "c": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by(["x", "y"]).aggregate([("c", "sum")]).rename_columns(
            ["x", "y", "c"]
        )

    joint = collect_small(
        docs.select_columns([x_col, text_col])
        .map_batches(xy_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["x", "y"])
        .aggregate(Sum("c")),
        "joint value domain",
        {"x": pa.int64(), "y": pa.int64(), "sum(c)": pa.int64()},
    )
    xs = joint.column("x").to_numpy()
    ys = joint.column("y").to_numpy()
    cs = joint.column("sum(c)").to_numpy()
    n = int(cs.sum())

    def doubled_ranks(vals: np.ndarray) -> dict:
        # doubled average rank per distinct value: 2*cum_before + cnt + 1
        uq, inv = np.unique(vals, return_inverse=True)
        cnt = np.zeros(len(uq), dtype=np.int64)
        np.add.at(cnt, inv, cs)
        cum_before = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        r2 = 2 * cum_before + cnt + 1
        return {"uq": uq, "inv": inv, "r2": r2}

    rx = doubled_ranks(xs)
    ry = doubled_ranks(ys)
    r2x = rx["r2"][rx["inv"]]
    r2y = ry["r2"][ry["inv"]]
    sxy = int(np.sum(cs * r2x * r2y))
    sx = int(np.sum(cs * r2x))
    sy = int(np.sum(cs * r2y))
    sxx = int(np.sum(cs * r2x * r2x))
    syy = int(np.sum(cs * r2y * r2y))
    return ray.data.from_arrow(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "num": pa.array([n * sxy - sx * sy], pa.int64()),
                "denx": pa.array([n * sxx - sx * sx], pa.int64()),
                "deny": pa.array([n * syy - sy * sy], pa.int64()),
            }
        )
    )


def gini_concentration_ds(
    docs: Dataset,
    text_col: str = "text",
) -> Dataset:
    """Gini coefficient of token mass across documents — "how unequal is
    the corpus": one row ``(n, total, gini_num)`` where
    ``gini = gini_num / (n * total)`` and
    ``gini_num = sum_i (2i - n - 1) * x_(i)`` over the ASCENDING-sorted
    per-doc token counts. Tie-stable (equal values make the within-block
    order irrelevant) and integer-exact.

    Scale shape: no global sort — the sorted-index sum collapses onto the
    value-count histogram (a value v with count c after F smaller items
    contributes ``v * c * (2F + c - n)``), so the job is one combiner
    ``map_batches`` + a bounded value-domain groupby (guarded)."""

    def tok_partial(batch: pa.Table) -> pa.Table:
        y = pc.add(
            pc.count_substring(batch.column(text_col), " "), 1
        ).cast(pa.int64())
        t = pa.table(
            {"v": y, "c": pa.array(np.ones(batch.num_rows, dtype=np.int64))}
        )
        return t.group_by("v").aggregate([("c", "sum")]).rename_columns(["v", "c"])

    hist = collect_small(
        docs.select_columns([text_col])
        .map_batches(tok_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .aggregate(Sum("c")),
        "value domain",
        {"v": pa.int64(), "sum(c)": pa.int64()},
    ).sort_by("v")
    vals = hist.column("v").to_numpy()
    cnts = hist.column("sum(c)").to_numpy()
    n = int(cnts.sum())
    total = int(np.sum(vals * cnts))
    before = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    gini_num = int(np.sum(vals * cnts * (2 * before + cnts - n)))
    return ray.data.from_arrow(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "total": pa.array([total], pa.int64()),
                "gini_num": pa.array([gini_num], pa.int64()),
            }
        )
    )


def sentence_stats_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Per-document sentence segmentation stats: split on the RE2 class
    ``[.!?]+`` (pyarrow and DuckDB both run RE2, so the twins segment
    identically), space-trim each segment, drop empties, and emit
    ``(doc_id, n_sentences, max_sent_tokens, sum_sent_tokens)``. Docs
    with zero non-empty segments emit no row (mirrors the SQL GROUP BY).

    Scale shape: pure per-batch Arrow kernels (split -> flatten with
    parent indices -> trim -> masked segment reductions via
    np.maximum/add.reduceat); embarrassingly parallel, no exchange."""

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field("n_sentences", pa.int64()),
            pa.field("max_sent_tokens", pa.int64()),
            pa.field("sum_sent_tokens", pa.int64()),
        ]
    )

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        segs = pc.split_pattern_regex(batch.column(text_col), "[.!?]+")
        segs = segs.combine_chunks() if isinstance(segs, pa.ChunkedArray) else segs
        offsets = segs.offsets.to_numpy(zero_copy_only=False)
        flat = pc.utf8_trim(segs.flatten(), " ")
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = (
            pc.add(pc.count_substring(flat, " "), 1)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        parent = np.repeat(
            np.arange(len(ids), dtype=np.int64), np.diff(offsets)
        )
        parent = parent[nonempty]
        toks = toks[nonempty]
        if len(parent) == 0:
            return pa.table({f.name: pa.array([], f.type) for f in out_schema})
        starts = np.flatnonzero(
            np.concatenate(([True], parent[1:] != parent[:-1]))
        )
        return pa.table(
            {
                id_col: pa.array(ids[parent[starts]], pa.int64()),
                "n_sentences": pa.array(
                    np.diff(np.concatenate((starts, [len(parent)]))).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
                "max_sent_tokens": pa.array(
                    np.maximum.reduceat(toks, starts).astype(np.int64), pa.int64()
                ),
                "sum_sent_tokens": pa.array(
                    np.add.reduceat(toks, starts).astype(np.int64), pa.int64()
                ),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    )


def _bit_length_exact(x: np.ndarray) -> np.ndarray:
    """Vectorized TRUE bit_length of positive int64s (float log2 with an
    arithmetic off-by-one correction — exact regardless of libm
    rounding)."""
    bits = np.zeros(len(x), np.int64)
    nz = x > 0
    bits[nz] = np.floor(np.log2(x[nz].astype(np.float64))).astype(np.int64) + 1
    too_hi = nz & (np.int64(1) << np.minimum(bits - 1, 62) > x)
    bits[too_hi] -= 1
    too_lo = nz & (np.int64(1) << np.minimum(bits, 62) <= x)
    bits[too_lo] += 1
    return bits


def index_gap_stats_ds(
    docs: Dataset,
    min_df: int = 2,
    max_df: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Inverted-index compression sizing — the storage estimate an IR
    infrastructure pass runs before building a posting store: per
    document-frequency, the exact varint-encoded size of all gap-encoded
    posting lists (gap_1 = first_id + 1, gap_i = id_i - id_{i-1}; varint
    bytes = ``(bit_length(gap) + 6) // 7``). Emits ``(df, n_tokens,
    total_postings, total_bytes)`` for tokens inside the df band.

    Scale shape: the ``postings_ds`` exchange — per-doc-distinct (token,
    doc) combiner, ONE ``exchange.bucket_map`` on the token, in-bucket
    segment + vectorized gap/byte math (``np.add.reduceat`` per
    segment), per-df partials → tiny ``groupby(df)``."""

    def pairs_partial(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(offs))
        # BIGRAM terms (adjacent same-doc token pairs): unigram df is
        # stopword-flat on web text — bigrams give the long-tail df
        # spectrum an index actually stores
        same = parent[:-1] == parent[1:]
        idx = np.flatnonzero(same)
        grams = pc.binary_join_element_wise(
            pc.take(flat, pa.array(idx, pa.int64())),
            pc.take(flat, pa.array(idx + 1, pa.int64())),
            " ",
        )
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = ids[parent[idx]]
        return (
            pa.table({"token": grams, "d": pa.array(d, pa.int64())})
            .group_by(["token", "d"])
            .aggregate([])
        )

    pairs = docs.select_columns([id_col, text_col]).map_batches(
        pairs_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    part_schema = pa.schema(
        [
            ("df", pa.int64()),
            ("n_tokens", pa.int64()),
            ("total_postings", pa.int64()),
            ("total_bytes", pa.int64()),
        ]
    )

    def bucket_sizes(group: pa.Table) -> pa.Table:
        tok = group.column("token").to_numpy(zero_copy_only=False).astype(str)
        d = group.column("d").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(tok, return_inverse=True)
        pair_key = np.unique(codes.astype(np.int64) * np.int64(2**40) + d)
        codes_u = (pair_key >> np.int64(40)).astype(np.int64)
        d_u = pair_key & (np.int64(2**40) - 1)
        seg_first = np.concatenate(([True], codes_u[1:] != codes_u[:-1]))
        seg_start = np.flatnonzero(seg_first)
        seg_len = np.diff(np.concatenate((seg_start, [len(codes_u)])))
        band = (seg_len >= min_df) & (seg_len <= max_df)
        if not band.any():
            return pa.table({})
        gaps = np.diff(np.concatenate(([0], d_u)))
        gaps[seg_start] = d_u[seg_start] + 1  # first entry: gap from -1
        vbytes = (_bit_length_exact(gaps) + 6) // 7
        seg_bytes = np.add.reduceat(vbytes, seg_start)
        dfk = seg_len[band]
        u, inv = np.unique(dfk, return_inverse=True)
        return pa.table(
            {
                "df": pa.array(u, pa.int64()),
                "n_tokens": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "total_postings": pa.array(
                    np.bincount(inv, weights=dfk).astype(np.int64), pa.int64()
                ),
                "total_bytes": pa.array(
                    np.bincount(inv, weights=seg_bytes[band]).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    agg = (
        bucket_map(pairs, "token", bucket_sizes, part_schema)
        .groupby("df")
        .aggregate(Sum("n_tokens"), Sum("total_postings"), Sum("total_bytes"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "df": batch.column("df").cast(pa.int64()),
                "n_tokens": batch.column("sum(n_tokens)").cast(pa.int64()),
                "total_postings": batch.column("sum(total_postings)").cast(pa.int64()),
                "total_bytes": batch.column("sum(total_bytes)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def lang_fertility_ds(
    docs: Dataset,
    text_col: str = "text",
    lang_col: str = "lang",
) -> Dataset:
    """Tokenizer-fertility audit per language — the byte/char/token
    budget report run before choosing a tokenizer or a sampling mix:
    for each language the exact integers ``n_docs``, ``n_bytes`` (UTF-8
    octets), ``n_chars`` (codepoints), ``n_tokens_ws`` (whitespace
    tokens, `string_split` semantics) and ``n_tokens_bpe`` (the BPE-ish
    regex tokenizer shared with `token_stats`). Fertility ratios
    (bytes/token, chars/token, subtokens/word) derive exactly from the
    emitted integers.

    Scale shape: one streaming pass; byte/char/ws counts are pure Arrow
    kernels, the regex count is the same compiled-pattern per-batch
    loop `token_stats` uses; each block pre-aggregates to <= one row
    per language, then a language-bounded ``groupby`` sums partials."""

    def partial(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch.column(text_col), "")
        tt = pa.table(
            {
                "lang": batch.column(lang_col),
                "nd": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
                "nb": pc.binary_length(txt).cast(pa.int64()),
                "nc": pc.utf8_length(txt).cast(pa.int64()),
                "nw": pc.list_value_length(pc.split_pattern(txt, " ")).cast(
                    pa.int64()
                ),
                "ns": pa.array(
                    ts.bpe_token_count(txt.to_pylist()), pa.int64()
                ),
            }
        )
        g = tt.group_by(["lang"]).aggregate(
            [("nd", "sum"), ("nb", "sum"), ("nc", "sum"), ("nw", "sum"), ("ns", "sum")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "nd_p": g.column("nd_sum").cast(pa.int64()),
                "nb_p": g.column("nb_sum").cast(pa.int64()),
                "nc_p": g.column("nc_sum").cast(pa.int64()),
                "nw_p": g.column("nw_sum").cast(pa.int64()),
                "ns_p": g.column("ns_sum").cast(pa.int64()),
            }
        )

    agg = (
        docs.select_columns([lang_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("nd_p"), Sum("nb_p"), Sum("nc_p"), Sum("nw_p"), Sum("ns_p"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("sum(nd_p)").cast(pa.int64()),
                "n_bytes": batch.column("sum(nb_p)").cast(pa.int64()),
                "n_chars": batch.column("sum(nc_p)").cast(pa.int64()),
                "n_tokens_ws": batch.column("sum(nw_p)").cast(pa.int64()),
                "n_tokens_bpe": batch.column("sum(ns_p)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def emd_lengths_ds(
    docs: Dataset,
    source_a: str = "src0",
    source_b: str = "src1",
    text_col: str = "text",
    source_col: str = "source",
) -> Dataset:
    """Exact 1-D earth-mover (Wasserstein-1) distance between two
    sources' document-length distributions — the drift INTEGRAL that
    complements the KS drift MAX (`ks_drift_ds`): small persistent
    shifts that never spike the KS statistic accumulate here. Emitted
    cross-multiplied so everything stays integer:
    ``emd = emd_num / (n_a * n_b)`` with
    ``emd_num = sum over the value grid of |cdfA*n_b - cdfB*n_a| *
    gap_to_next_value``. One row ``(n_a, n_b, emd_num)``.

    Scale shape: the ks_drift dataflow — per-batch (source, value)
    count combiner bounds the shuffle to distinct cells; the grid sweep
    runs once on the bounded distinct-value table."""

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "src": pa.array([], pa.string()),
                "v": pa.array([], pa.int64()),
                "n_p": pa.array([], pa.int64()),
            }
        )
        keep = pc.is_in(
            batch.column(source_col),
            value_set=pa.array([source_a, source_b], pa.string()),
        )
        t = batch.filter(keep)
        if t.num_rows == 0:
            return empty
        toks = ts.ws_tokens(t.column(text_col))
        v = pc.list_value_length(toks).cast(pa.int64())
        tt = pa.table({"src": t.column(source_col), "v": v})
        g = tt.group_by(["src", "v"]).aggregate([("v", "count")])
        return pa.table(
            {
                "src": g.column("src"),
                "v": g.column("v"),
                "n_p": g.column("v_count").cast(pa.int64()),
            }
        )

    cells = collect_small(
        docs.select_columns([source_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["src", "v"])
        .aggregate(Sum("n_p")),
        "(source, length) histogram",
        {"src": pa.string(), "v": pa.int64(), "sum(n_p)": pa.int64()},
    )
    if not cells.num_rows:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                    "emd_num": pa.array([], pa.int64()),
                }
            )
        )
    rows = list(
        zip(*(cells.column(c).to_pylist() for c in ("src", "v", "sum(n_p)")))
    )
    grid = sorted({v for _, v, _ in rows})
    fa = {v: 0 for v in grid}
    fb = {v: 0 for v in grid}
    for src, v, n in rows:
        (fa if src == source_a else fb)[v] += n
    n_a = sum(fa.values())
    n_b = sum(fb.values())
    ca = cb = 0
    emd = 0
    for i, v in enumerate(grid):
        ca += fa[v]
        cb += fb[v]
        if i + 1 < len(grid):
            emd += abs(ca * n_b - cb * n_a) * (grid[i + 1] - v)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "emd_num": pa.array([emd], pa.int64()),
            }
        )
    )


def zonemap_prune_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    value_col: str = "n_chars",
    shard_size: int = 100,
    threshold: int = 2000,
) -> Dataset:
    """Zone-map pruning audit: per id-range shard (``id // shard_size``)
    the min/max of ``value_col`` plus whether a ``value >= threshold``
    scan could skip the shard entirely (``max < threshold``) — the
    data-layout health check that decides whether range-partitioned
    parquet actually prunes. Emits ``(shard_id, n_docs, min_v, max_v,
    prunable)``.

    Scale shape: per-batch (shard, count/min/max) Arrow combiner ->
    ONE aggregate-only groupby over the bounded shard domain."""
    out_schema = pa.schema(
        [
            ("shard_id", pa.int64()),
            ("n_docs", pa.int64()),
            ("min_v", pa.int64()),
            ("max_v", pa.int64()),
            ("prunable", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        i = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {
                    "shard_id": pa.array(i // shard_size, pa.int64()),
                    "v": batch.column(value_col).cast(pa.int64()),
                }
            )
            .group_by("shard_id")
            .aggregate([("v", "count"), ("v", "min"), ("v", "max")])
        )
        return pa.table(
            {
                "shard_id": g.column("shard_id"),
                "n": g.column("v_count").cast(pa.int64()),
                "mn": g.column("v_min").cast(pa.int64()),
                "mx": g.column("v_max").cast(pa.int64()),
            }
        )

    agg = (
        docs.select_columns([id_col, value_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard_id")
        .aggregate(Sum("n"), Min("mn"), Max("mx"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        mx = batch.column("max(mx)").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "shard_id": batch.column("shard_id").cast(pa.int64()),
                "n_docs": batch.column("sum(n)").cast(pa.int64()),
                "min_v": batch.column("min(mn)").cast(pa.int64()),
                "max_v": batch.column("max(mx)").cast(pa.int64()),
                "prunable": pa.array((mx < threshold).astype(np.int64)),
            }
        )

    return _anchor_schema(
        agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def encoding_size_audit_ds(
    docs: Dataset,
    columns: Sequence[str] = ("lang", "source", "text"),
) -> Dataset:
    """Column-encoding size audit: per string column the row count,
    distinct count, plain-encoding byte size (sum of octet lengths) and
    a dictionary-encoding estimate (``distinct_bytes + 4 * n`` — one
    int32 code per row) — the layout decision input for columnar
    writers. Emits one row per audited column.

    Scale shape: plain bytes via a per-batch sum combiner; distinct
    values co-locate through ONE ``exchange.bucket_map`` on the value per
    column (in-bucket np.unique IS the global distinct), so only
    per-bucket (count, bytes) partials and the tiny per-column fold
    move afterwards."""
    out_schema = pa.schema(
        [
            ("column_name", pa.string()),
            ("n", pa.int64()),
            ("n_distinct", pa.int64()),
            ("plain_bytes", pa.int64()),
            ("dict_bytes", pa.int64()),
        ]
    )
    results = []
    for col in columns:
        def plain_partial(batch: pa.Table, c=col) -> pa.Table:
            v = pc.fill_null(batch.column(c), "")
            return pa.table(
                {
                    "n": pa.array([batch.num_rows], pa.int64()),
                    "b": pa.array(
                        [int(pc.sum(pc.binary_length(v)).as_py() or 0)],
                        pa.int64(),
                    ),
                }
            )

        plain = docs.select_columns([col]).map_batches(
            plain_partial, batch_format="pyarrow", zero_copy_batch=True
        ).aggregate(Sum("n"), Sum("b"))
        n_rows = int(plain["sum(n)"] or 0) if plain else 0
        plain_bytes = int(plain["sum(b)"] or 0) if plain else 0

        def distinct_partial(batch: pa.Table, c=col) -> pa.Table:
            return pa.table({"v": pc.unique(pc.fill_null(batch.column(c), ""))})

        def bucket_distinct(group: pa.Table) -> pa.Table:
            u = pc.unique(group.column("v"))
            return pa.table(
                {
                    "d": pa.array([len(u)], pa.int64()),
                    "db": pa.array(
                        [int(pc.sum(pc.binary_length(u)).as_py() or 0)],
                        pa.int64(),
                    ),
                }
            )

        dist = bucket_map(
            docs.select_columns([col]).map_batches(
                distinct_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "v",
            bucket_distinct,
            {"d": pa.int64(), "db": pa.int64()},
        ).aggregate(Sum("d"), Sum("db"))
        n_distinct = int(dist["sum(d)"] or 0) if dist else 0
        distinct_bytes = int(dist["sum(db)"] or 0) if dist else 0
        results.append(
            (str(col), n_rows, n_distinct, plain_bytes, distinct_bytes + 4 * n_rows)
        )
    return ray.data.from_arrow(
        pa.table(
            {
                "column_name": pa.array([r[0] for r in results], pa.string()),
                "n": pa.array([r[1] for r in results], pa.int64()),
                "n_distinct": pa.array([r[2] for r in results], pa.int64()),
                "plain_bytes": pa.array([r[3] for r in results], pa.int64()),
                "dict_bytes": pa.array([r[4] for r in results], pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# Session 13: sub-document CDC dedup, one-pass Poisson bootstrap,
# Johnson-Lindenstrauss sign projection.
# ---------------------------------------------------------------------------

_CDC_WIN = 8
_CDC_POW = np.array([31 ** (7 - k) for k in range(8)], dtype=np.int64)


def _cdc_chunk_partials(id_col: str, text_col: str, mask: int):
    """Build the per-batch CDC chunker: cuts where the rolling 8-char
    window hash is 0 mod ``mask``; emits one row per DISTINCT
    (chunk md5 ``h``, doc) with its occurrence count and char length."""
    import hashlib

    def chunker(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs: List[int] = []
        ds_: List[int] = []
        ln: List[int] = []
        oc: List[int] = []
        per_doc: "dict[tuple[int, bytes], tuple[int, int]]" = {}
        for did, txt in zip(ids_, texts):
            if not txt:
                continue
            cp = np.frombuffer(txt.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int64
            )
            n = cp.size
            if n >= _CDC_WIN:
                win = np.lib.stride_tricks.sliding_window_view(cp, _CDC_WIN)
                hv = win @ _CDC_POW
                cuts = np.flatnonzero(hv % mask == 0) + _CDC_WIN  # 1-based ends
                if cuts.size == 0 or cuts[-1] != n:
                    cuts = np.append(cuts, n)
            else:
                cuts = np.array([n], dtype=np.int64)
            start = 0
            for e in cuts:
                chunk = txt[start : int(e)]
                start = int(e)
                key = (int(did), hashlib.md5(chunk.encode()).digest())
                occ, _ = per_doc.get(key, (0, 0))
                per_doc[key] = (occ + 1, len(chunk))
        for (did, dig), (occ, clen) in per_doc.items():
            hs.append(int.from_bytes(dig[:8], "big") >> 1)
            ds_.append(did)
            oc.append(occ)
            ln.append(clen)
        return pa.table(
            {
                "h": pa.array(np.array(hs, dtype=np.int64), pa.int64()),
                "d": pa.array(np.array(ds_, dtype=np.int64), pa.int64()),
                "occ": pa.array(np.array(oc, dtype=np.int64), pa.int64()),
                "clen": pa.array(np.array(ln, dtype=np.int64), pa.int64()),
            }
        )

    return chunker


def cdc_chunks_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    mask: int = 64,
) -> Dataset:
    """Content-defined chunking (CDC) shared-chunk histogram — the
    storage-dedup modality (LBFS / Venti style): split every document at
    positions where a rolling window hash of the last ``_CDC_WIN``
    characters satisfies ``h % mask == 0``, then count how many distinct
    documents share each chunk.  Because boundaries depend only on local
    content, a paragraph pasted into two otherwise-different documents
    yields byte-identical chunks — sub-document verbatim reuse that
    document-level MinHash misses (the chunk level of Lee et al.'s
    exact-substring dedup, reference-free).

    Window hash: ``sum(cp[k] * 31^(7-k))`` over the 8 code points ending
    at the position (no min/max chunk length — every qualifying position
    cuts, so the rule is order-free and embarrassingly parallel).  Docs
    shorter than the window form a single whole-text chunk.

    Output: one row per distinct-document count ``n_docs`` with the
    number of distinct chunk values, total occurrences, and summed
    distinct-chunk character length.

    Scale shape: per-batch chunker emits ``(md5(chunk), doc, occ, len)``
    partials deduped per (chunk, doc); ONE ``exchange.bucket_map`` on
    the chunk hash co-locates each chunk value in a BOUNDED group count;
    buckets segment with one lexsort and emit tiny ``n_docs`` histograms
    that a final small groupby folds."""
    chunker = _cdc_chunk_partials(id_col, text_col, mask)

    def bucket_hist(group: pa.Table) -> pa.Table:
        h = group.column("h").to_numpy(zero_copy_only=False)
        d = group.column("d").to_numpy(zero_copy_only=False)
        occ = group.column("occ").to_numpy(zero_copy_only=False)
        clen = group.column("clen").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, h))
        h, d, occ, clen = h[order], d[order], occ[order], clen[order]
        starts = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
        seg = np.zeros(h.size, dtype=np.int64)
        seg[starts] = 1
        seg = np.cumsum(seg) - 1
        nd = np.bincount(seg).astype(np.int64)  # rows are (chunk, doc) unique
        tot_occ = np.bincount(seg, weights=occ).astype(np.int64)
        cl = clen[starts]
        uniq_nd, inv = np.unique(nd, return_inverse=True)
        return pa.table(
            {
                "n_docs": pa.array(uniq_nd, pa.int64()),
                "nc": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "occ": pa.array(
                    np.bincount(inv, weights=tot_occ).astype(np.int64), pa.int64()
                ),
                "cb": pa.array(
                    np.bincount(inv, weights=cl).astype(np.int64), pa.int64()
                ),
            }
        )

    hist = (
        bucket_map(
            docs.select_columns([id_col, text_col]).map_batches(
                chunker, batch_format="pyarrow", zero_copy_batch=True
            ),
            "h",
            bucket_hist,
            {c: pa.int64() for c in ("n_docs", "nc", "occ", "cb")},
        )
        .groupby("n_docs")
        .aggregate(Sum("nc"), Sum("occ"), Sum("cb"))
    )
    df = collect_small(
        hist,
        "chunk-reuse histogram",
        {
            "n_docs": pa.int64(),
            "sum(nc)": pa.int64(),
            "sum(occ)": pa.int64(),
            "sum(cb)": pa.int64(),
        },
    )
    return ray.data.from_arrow(
        df.rename_columns(["n_docs", "n_chunks", "occurrences", "chunk_chars"])
    )


_POIS1_T = np.array(
    [
        1580030168,
        3160060337,
        3950075421,
        4213413783,
        4279248373,
        4292415291,
        4294609777,
        4294923276,
        4294962463,
    ],
    dtype=np.int64,
)


def poisson_bootstrap_ds(
    docs: Dataset,
    group_col: str = "source",
    val_col: str = "n_chars",
    id_col: str = "doc_id",
    n_reps: int = 16,
) -> Dataset:
    """One-pass Poisson bootstrap of the mean document length per source:
    each (row, replicate) pair draws a deterministic Poisson(1) weight
    (inverse-CDF on a 32-bit md5 uniform), so every replicate is a
    with-replacement resample computed WITHOUT materializing resample
    indices — the only bootstrap shape that works on a 100 TB corpus
    (one streaming pass, no per-replicate shuffle; Chamandy et al.,
    "Estimating Uncertainty for Massive Data Streams", Google 2012).

    Output per (source, rep): effective resample size ``n_eff``,
    weighted char sum, and the exact floor-divided mean in millichars.

    Scale shape: a single ``map_batches`` pass emits per-batch
    (source, rep) partial sums; the global fold is a groupby over the
    tiny ``sources x n_reps`` domain."""
    import hashlib

    def partial(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        vals = batch.column(val_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        src = batch.column(group_col).to_pylist()
        n = len(src)
        if n == 0:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "rep": pa.array([], pa.int64()),
                    "ne": pa.array([], pa.int64()),
                    "ws": pa.array([], pa.int64()),
                }
            )
        h = np.empty((n, n_reps), dtype=np.int64)
        for i, did in enumerate(ids_):
            pre = f"pb|{int(did)}|"
            for b in range(n_reps):
                h[i, b] = int(
                    hashlib.md5((pre + str(b)).encode()).hexdigest()[:8], 16
                )
        w = np.searchsorted(_POIS1_T, h.ravel(), side="right").reshape(n, n_reps)
        t = pa.table(
            {
                group_col: pa.array(np.repeat(np.array(src, dtype=object), n_reps)),
                "rep": pa.array(np.tile(np.arange(n_reps, dtype=np.int64), n), pa.int64()),
                "ne": pa.array(w.ravel().astype(np.int64), pa.int64()),
                "ws": pa.array(
                    (w * vals[:, None]).ravel().astype(np.int64), pa.int64()
                ),
            }
        )
        g = t.group_by([group_col, "rep"]).aggregate([("ne", "sum"), ("ws", "sum")])
        return g.rename_columns([group_col, "rep", "ne", "ws"])

    agg = (
        docs.select_columns([id_col, group_col, val_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, "rep"])
        .aggregate(Sum("ne"), Sum("ws"))
    )
    df = collect_small(
        agg,
        "(group, replicate) sums",
        {
            group_col: pa.string(),
            "rep": pa.int64(),
            "sum(ne)": pa.int64(),
            "sum(ws)": pa.int64(),
        },
    )
    df = df.filter(pc.greater(df.column("sum(ne)"), 0))
    ne = df.column("sum(ne)").to_numpy()
    ws = df.column("sum(ws)").to_numpy()
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: df.column(group_col),
                "rep": df.column("rep"),
                "n_eff": df.column("sum(ne)"),
                "sum_chars": df.column("sum(ws)"),
                "mean_chars_e3": pa.array(ws * 1000 // ne, pa.int64()),
            }
        )
    )


def _rp_signs(k: int, dim: int) -> np.ndarray:
    """Deterministic +/-1 Johnson-Lindenstrauss sign matrix (k x dim),
    seeded from md5 so the DuckDB twin reproduces it bit-exactly."""
    import hashlib

    s = np.empty((k, dim), dtype=np.int64)
    for j in range(k):
        for d in range(dim):
            hv = int(hashlib.md5(f"rp|{j}|{d}".encode()).hexdigest()[:8], 16)
            s[j, d] = 1 if hv % 2 == 0 else -1
    return s


def rand_projection_ds(
    emb: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 16,
) -> Dataset:
    """Johnson-Lindenstrauss sign random projection (Achlioptas 2001
    "Database-friendly random projections"): project each embedding onto
    ``k`` deterministic +/-1 sign vectors over e6-quantized components —
    the standard dimension-reduction front end before LSH bucketing or
    ANN indexing at corpus scale.  Emits the projected vector plus the
    exact squared-norm pair (``l2q``, ``p2``) whose ratio audits JL
    distance preservation (E[p2] = k * l2q) division-free, so every
    column stays integer-exact.

    Scale shape: the k x dim sign matrix is a module-level constant built
    once per worker (never shipped per batch); the projection is one
    integer matmul per batch; no shuffle at all."""
    sign_cache: "dict[int, np.ndarray]" = {}

    def project(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64())
        col = batch.column(vec_col).combine_chunks()
        n = batch.num_rows
        if n == 0:
            cols = {id_col: pa.array([], pa.int64())}
            for j in range(k):
                cols[f"proj_{j}"] = pa.array([], pa.int64())
            cols["l2q"] = pa.array([], pa.int64())
            cols["p2"] = pa.array([], pa.int64())
            return pa.table(cols)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.float64)
        dim = flat.size // n
        q = np.floor(flat * 1e6).astype(np.int64).reshape(n, dim)
        s = sign_cache.get(dim)
        if s is None:
            s = _rp_signs(k, dim)
            sign_cache[dim] = s
        proj = q @ s.T
        cols = {id_col: ids_}
        for j in range(k):
            cols[f"proj_{j}"] = pa.array(proj[:, j], pa.int64())
        cols["l2q"] = pa.array((q * q).sum(axis=1), pa.int64())
        cols["p2"] = pa.array((proj * proj).sum(axis=1), pa.int64())
        return pa.table(cols)

    return emb.select_columns([id_col, vec_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )


def dup_edit_audit_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix_len: int = 24,
    trunc: int = 256,
    max_block: int = 64,
) -> Dataset:
    """Near-duplicate EDIT-DISTANCE audit with prefix blocking: documents
    sharing their first ``prefix_len`` characters form candidate blocks
    (the cheap blocking key of record-linkage pipelines); every in-block
    pair gets the exact unit-cost Levenshtein distance of its first
    ``trunc`` characters — the threshold-calibration measurement behind
    "how different are my near-dups really".  Blocks cap at the
    ``max_block`` LOWEST doc ids (deterministic, mirrored in SQL), so a
    boilerplate block can never go quadratic unbounded.

    Scale shape: prefix-hash projection shuffles ONCE through
    ``exchange.bucket_map`` (bounded groups); blocks segment inside the
    bucket; the DP cost is per-pair local and bounded by
    ``max_block^2 * trunc^2``."""
    import hashlib

    out_schema = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("lev", pa.int64()),
        ]
    )

    def project(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs: List[int] = []
        ds_: List[int] = []
        tx: List[str] = []
        for did, txt in zip(ids_, texts):
            if txt is None or len(txt) < prefix_len:
                continue
            h = int.from_bytes(
                hashlib.md5(txt[:prefix_len].encode()).digest()[:8], "big"
            ) >> 1
            hs.append(h)
            ds_.append(int(did))
            tx.append(txt[:trunc])
        return pa.table(
            {
                "h": pa.array(np.array(hs, dtype=np.int64), pa.int64()),
                "d": pa.array(np.array(ds_, dtype=np.int64), pa.int64()),
                "txt": pa.array(tx, pa.string()),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        d = group.column("d").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("h").to_numpy(zero_copy_only=False), d
        )
        i, j = run_pairs(starts, np.minimum(lengths, max_block))
        d = d[order]
        txt = group.column("txt").take(pa.array(order)).to_pylist()
        lv = ts.levenshtein([txt[a] for a in i], [txt[b] for b in j])
        return pa.table(
            {
                "doc_a": pa.array(d[i], pa.int64()),
                "doc_b": pa.array(d[j], pa.int64()),
                "lev": pa.array(lv, pa.int64()),
            }
        )

    return bucket_map(
        docs.select_columns([id_col, text_col]).map_batches(
            project, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        bucket_pairs,
        out_schema,
    )


_PH_VOWELS = frozenset("aeiou")


def _phonetic_key(tok: str) -> str:
    """First char + non-vowel remainder, consecutive duplicates
    collapsed on the vowel-stripped sequence (soundex-lite; mirrors the
    SQL twin's lag-based island rule)."""
    seq = [tok[0]] + [c for c in tok[1:] if c not in _PH_VOWELS]
    out = [seq[0]]
    for c in seq[1:]:
        if c != out[-1]:
            out.append(c)
    return "".join(out)


def phonetic_keys_ds(
    docs: Dataset,
    text_col: str = "text",
    min_len: int = 4,
    max_len: int = 16,
) -> Dataset:
    """Phonetic-key blocking over the corpus vocabulary (the classic
    record-linkage "sounds-alike" join key, soundex-lite variant):
    lowercase alphabetic tokens map to first-char + deduplicated
    consonant skeleton.  Emits the FULL blocking-key table — per key the
    distinct-token count, total corpus occurrences and the
    lexicographic min/max member; rows with ``n_tokens >= 2`` are the
    phonetic collision classes a fuzzy-matching pipeline blocks on.

    Scale shape: token counts via the per-batch Arrow count combiner ->
    ONE vocab groupby; key derivation runs on the BOUNDED distinct-token
    table; one ``exchange.bucket_map`` on the key groups keys."""
    import re

    tok_re = re.compile(r"[a-z]+\Z")

    out_schema = pa.schema(
        [
            ("pkey", pa.string()),
            ("n_tokens", pa.int64()),
            ("n_occ", pa.int64()),
            ("tok_min", pa.string()),
            ("tok_max", pa.string()),
        ]
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        flat = pc.list_flatten(
            pc.split_pattern(
                pc.utf8_lower(pc.fill_null(batch.column(text_col), "")), pattern=" "
            )
        )
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

    def keyed(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        occ = batch.column("sum(n)").to_numpy(zero_copy_only=False)
        pk: List[str] = []
        tk: List[str] = []
        oc: List[int] = []
        for t, o in zip(toks, occ):
            if t is None or not (min_len <= len(t) <= max_len) or not tok_re.match(t):
                continue
            pk.append(_phonetic_key(t))
            tk.append(t)
            oc.append(int(o))
        return pa.table(
            {
                "pkey": pa.array(pk, pa.string()),
                "token": pa.array(tk, pa.string()),
                "occ": pa.array(oc, pa.int64()),
            }
        )

    def bucket_fold(group: pa.Table) -> pa.Table:
        g = group.group_by("pkey").aggregate(
            [("token", "count"), ("occ", "sum"), ("token", "min"), ("token", "max")]
        )
        return pa.table(
            {
                "pkey": g.column("pkey"),
                "n_tokens": g.column("token_count").cast(pa.int64()),
                "n_occ": g.column("occ_sum").cast(pa.int64()),
                "tok_min": g.column("token_min"),
                "tok_max": g.column("token_max"),
            }
        )

    return bucket_map(
        totals.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        "pkey",
        bucket_fold,
        out_schema,
    )


def cdc_families_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    mask: int = 64,
    min_chunk_len: int = 16,
    max_chunk_docs: int = 64,
) -> Dataset:
    """Verbatim-reuse families: connected components of the
    chunk-sharing graph — two documents are linked when they share a
    content-defined chunk of at least ``min_chunk_len`` characters, and
    families are the transitive closure (the sub-document analogue of
    MinHash dedup clusters: press-release syndication, quote chains,
    licence blocks).  Chunks claimed by more than ``max_chunk_docs``
    documents are ubiquitous boilerplate and are EXCLUDED from edge
    building (the LSH hot-bucket cap pattern; mirrored in the SQL twin)
    so one viral chunk can never collapse the corpus into one family.

    Output: ``(doc_id, family_id)`` for every document in a family of
    >= 2, with ``family_id`` = the component's minimum doc id.

    Scale shape: CDC chunker partials -> ONE ``exchange.bucket_map`` on
    the chunk hash (bounded groups) -> per-chunk star edges to the minimum doc ->
    connected components (``exchange.components``)."""
    out_schema = pa.schema([(id_col, pa.int64()), ("family_id", pa.int64())])
    chunker = _cdc_chunk_partials(id_col, text_col, mask)

    def bucket_edges(group: pa.Table) -> pa.Table:
        group = group.filter(pc.greater_equal(group.column("clen"), min_chunk_len))
        h = group.column("h").to_numpy(zero_copy_only=False)
        d = group.column("d").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        starts = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
        ends = np.concatenate((starts[1:], [h.size]))
        sizes = ends - starts
        ok = (sizes >= 2) & (sizes <= max_chunk_docs)
        a_: List[np.ndarray] = []
        b_: List[np.ndarray] = []
        for s, e in zip(starts[ok], ends[ok]):
            a_.append(np.full(e - s - 1, d[s], dtype=np.int64))
            b_.append(d[s + 1 : e])
        if not a_:
            return pa.table({})
        return pa.table({"a": np.concatenate(a_), "b": np.concatenate(b_)})

    pairs = bucket_map(
        docs.select_columns([id_col, text_col]).map_batches(
            chunker, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        bucket_edges,
        {"a": pa.int64(), "b": pa.int64()},
    ).materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(
            pa.table({f.name: pa.array([], f.type) for f in out_schema})
        )
    return components(pairs, "a", "b").map_batches(
        lambda b: pa.table(
            {id_col: b.column("node"), "family_id": b.column("label")}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def gini_stump_ds(
    docs: Dataset,
    feat_col: str = "n_chars",
    label_col: str = "lang",
    top_k: int = 5,
) -> Dataset:
    """Exact decision-stump screening (CART-style, Breiman 1984): the
    ``top_k`` integer thresholds ``t`` on ``feat_col`` that minimize the
    weighted Gini impurity of the ``label_col`` partition
    (``feat <= t`` vs ``> t``) — the feature-quality audit run before
    committing a cheap rule-based quality filter.  Impurity is the exact
    floor-quantized ``1e6 - (SL*nR + SR*nL) * 1e6 // (n*nL*nR)`` with
    ``SL/SR`` the summed squared class counts (arbitrary-precision
    Python ints — the cubic numerator exceeds int64); ties break on the
    smaller threshold.

    Scale shape: per-batch (feat, label) count combiner -> ONE groupby
    over the (distinct feature values x label) domain (bounded by the
    value domain, NOT the corpus) -> cumulative sweep on the collected
    grid."""
    out_schema = pa.schema(
        [
            ("threshold", pa.int64()),
            ("n_left", pa.int64()),
            ("n_right", pa.int64()),
            ("impurity_e6", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "v": batch.column(feat_col).cast(pa.int64()),
                "g": batch.column(label_col).cast(pa.string()),
            }
        )
        gg = t.group_by(["v", "g"]).aggregate([("v", "count")])
        return pa.table(
            {
                "v": gg.column("v"),
                "g": gg.column("g"),
                "c": gg.column("v_count").cast(pa.int64()),
            }
        )

    grid = collect_small(
        docs.select_columns([feat_col, label_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["v", "g"])
        .aggregate(Sum("c")),
        "(value, label) grid",
        {"v": pa.int64(), "g": pa.string(), "sum(c)": pa.int64()},
    )
    empty = pa.table({f.name: pa.array([], f.type) for f in out_schema})
    if not grid.num_rows:
        return ray.data.from_arrow(empty)
    v = grid.column("v").to_numpy()
    g = grid.column("g").to_numpy(zero_copy_only=False).astype(str)
    c = grid.column("sum(c)").to_numpy()
    ts = np.unique(v)
    langs, gcode = np.unique(g, return_inverse=True)
    # dense counts grid: rows = thresholds, cols = labels
    vi = np.searchsorted(ts, v)
    dense = np.zeros((ts.size, langs.size), dtype=np.int64)
    np.add.at(dense, (vi, gcode), c)
    cum = np.cumsum(dense, axis=0)
    tot = cum[-1]
    n = int(tot.sum())
    rows: List[tuple] = []
    for i in range(ts.size - 1):  # last value splits nothing to the right
        nl = int(cum[i].sum())
        nr = n - nl
        if nl == 0 or nr == 0:
            continue
        sl = sum(int(x) * int(x) for x in cum[i])
        sr = sum(int(x - y) * int(x - y) for x, y in zip(tot, cum[i]))
        imp = 1_000_000 - (sl * nr + sr * nl) * 1_000_000 // (n * nl * nr)
        rows.append((imp, int(ts[i]), nl, nr))
    if not rows:
        return ray.data.from_arrow(empty)
    rows.sort()
    rows = rows[:top_k]
    return ray.data.from_arrow(
        pa.table(
            {
                "threshold": pa.array([r[1] for r in rows], pa.int64()),
                "n_left": pa.array([r[2] for r in rows], pa.int64()),
                "n_right": pa.array([r[3] for r in rows], pa.int64()),
                "impurity_e6": pa.array([r[0] for r in rows], pa.int64()),
            }
        )
    )


def feature_hashing_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 16,
) -> Dataset:
    """Hashing-trick bag-of-words featurization (Weinberger et al. 2009,
    "Feature Hashing for Large Scale Multitask Learning"): each token
    hashes to one of ``k`` signed slots (slot = md5 % k, sign from the
    next hash bit), giving every document a fixed-width integer feature
    vector with NO vocabulary build, broadcast, or shuffle — the
    classic way to featurize an unbounded token stream at corpus scale.

    Scale shape: pure ``map_batches``; md5 runs once per DISTINCT token
    per batch (vocab-bounded), then scatters vectorized."""
    import hashlib

    def project(batch: pa.Table) -> pa.Table:
        toks = ts.ws_tokens(batch.column(text_col))
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        parents = np.asarray(pc.list_parent_indices(flat))
        words = flat.flatten().to_pylist()
        uniq, inv = np.unique(np.array(words, dtype=object), return_inverse=True)
        slot_u = np.empty(uniq.size, dtype=np.int64)
        sign_u = np.empty(uniq.size, dtype=np.int64)
        for i, w in enumerate(uniq):
            h = int(hashlib.md5(str(w).encode()).hexdigest()[:8], 16)
            slot_u[i] = h % k
            sign_u[i] = 1 if (h // k) % 2 == 0 else -1
        fh = np.zeros((batch.num_rows, k), dtype=np.int64)
        np.add.at(fh, (parents, slot_u[inv]), sign_u[inv])
        out = {id_col: batch.column(id_col).cast(pa.int64())}
        for j in range(k):
            out[f"fh_{j}"] = pa.array(fh[:, j], pa.int64())
        return pa.table(out)

    return docs.select_columns([id_col, text_col]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    )


def quantile_map_ds(
    docs: Dataset,
    group_col: str = "source",
    val_col: str = "n_chars",
) -> Dataset:
    """Exact quantile mapping (histogram matching / CDF alignment, the
    domain-adaptation primitive): for every ordered source pair (a, b)
    and every distinct value ``v`` seen in ``a``, the value in ``b``
    sitting at the same cumulative rank —
    ``mapped_v = min{ u in b : cdf_b(u) * n_a >= cdf_a(v) * n_b }``
    (cross-multiplied, so the comparison is integer-exact; always
    defined because cdf_b(max) = n_b).  The table answers "what length
    in source b corresponds to length v in source a", aligning
    per-source quality thresholds without floats.

    Scale shape: per-batch (source, value) count combiner -> ONE
    groupby over the bounded (source x value domain) grid -> pairwise
    searchsorted sweep on the collected grid (report-sized by
    construction)."""
    out_schema = pa.schema(
        [
            ("src_a", pa.string()),
            ("src_b", pa.string()),
            ("v", pa.int64()),
            ("cum_a", pa.int64()),
            ("mapped_v", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    group_col: batch.column(group_col),
                    "v": batch.column(val_col).cast(pa.int64()),
                }
            )
            .group_by([group_col, "v"])
            .aggregate([("v", "count")])
        )
        return pa.table(
            {
                group_col: g.column(group_col),
                "v": g.column("v"),
                "c": g.column("v_count").cast(pa.int64()),
            }
        )

    df = collect_small(
        docs.select_columns([group_col, val_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, "v"])
        .aggregate(Sum("c")),
        "(group, value) domain",
        {group_col: pa.string(), "v": pa.int64(), "sum(c)": pa.int64()},
    )
    if not df.num_rows:
        return ray.data.from_arrow(
            pa.table({f.name: pa.array([], f.type) for f in out_schema})
        )
    src = df.column(group_col).to_numpy(zero_copy_only=False).astype(str)
    v = df.column("v").to_numpy()
    c = df.column("sum(c)").to_numpy()
    order = np.lexsort((v, src))
    src, v, c = src[order], v[order], c[order]
    starts = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
    ends = np.concatenate((starts[1:], [src.size]))
    per: "dict[str, tuple[np.ndarray, np.ndarray, int]]" = {}
    for s, e in zip(starts, ends):
        cum = np.cumsum(c[s:e])
        per[str(src[s])] = (v[s:e], cum, int(cum[-1]))
    names = sorted(per)
    sa: List[str] = []
    sb: List[str] = []
    vv: List[int] = []
    ca: List[int] = []
    mv: List[int] = []
    for a in names:
        va, cuma, na = per[a]
        for b in names:
            if b == a:
                continue
            vb, cumb, nb = per[b]
            # min u with cumb(u) * na >= cuma(v) * nb
            idx = np.searchsorted(cumb * na, cuma * nb, side="left")
            mapped = vb[np.clip(idx, 0, vb.size - 1)]
            sa.extend([a] * va.size)
            sb.extend([b] * va.size)
            vv.extend(va.tolist())
            ca.extend(cuma.tolist())
            mv.extend(mapped.tolist())
    return ray.data.from_arrow(
        pa.table(
            {
                "src_a": pa.array(sa, pa.string()),
                "src_b": pa.array(sb, pa.string()),
                "v": pa.array(vv, pa.int64()),
                "cum_a": pa.array(ca, pa.int64()),
                "mapped_v": pa.array(mv, pa.int64()),
            }
        )
    )


def effective_sample_size_ds(
    docs: Dataset,
    group_col: str = "source",
    w_col: str = "n_chars",
) -> Dataset:
    """Kish effective sample size per stratum (Kish 1965; the
    importance-sampling health diagnostic): with per-row weights ``w``,
    ``ESS = (sum w)^2 / (sum w^2)`` — how many EQUAL-weight samples the
    weighted set is worth.  ``ess_ratio_permille = ESS * 1000 / n``
    near 1000 means weights are flat; small values flag a stratum
    dominated by a few heavy rows (the failure mode of aggressive
    up/down-weighting).  Exact: the quadratic sums are int64 partials,
    the final ratios arbitrary-precision Python ints.

    Scale shape: one ``map_batches`` combiner pass (3 int64 partials
    per stratum) -> groupby over the tiny stratum domain."""

    def partial(batch: pa.Table) -> pa.Table:
        w = batch.column(w_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                group_col: batch.column(group_col),
                "n": pa.array(np.ones(w.size, dtype=np.int64)),
                "sw": pa.array(w),
                "sw2": pa.array(w * w),
            }
        )
        g = t.group_by(group_col).aggregate(
            [("n", "sum"), ("sw", "sum"), ("sw2", "sum")]
        )
        return g.rename_columns([group_col, "n", "sw", "sw2"])

    def finish(batch: pa.Table) -> pa.Table:
        gs = batch.column(group_col).to_pylist()
        n = batch.column("sum(n)").to_pylist()
        sw = batch.column("sum(sw)").to_pylist()
        sw2 = batch.column("sum(sw2)").to_pylist()
        keep = [i for i in range(len(gs)) if sw2[i] > 0]
        return pa.table(
            {
                group_col: pa.array([str(gs[i]) for i in keep], pa.string()),
                "n": pa.array([n[i] for i in keep], pa.int64()),
                "sum_w": pa.array([sw[i] for i in keep], pa.int64()),
                "sum_w2": pa.array([sw2[i] for i in keep], pa.int64()),
                "ess_e3": pa.array(
                    [sw[i] * sw[i] * 1000 // sw2[i] for i in keep], pa.int64()
                ),
                "ess_ratio_permille": pa.array(
                    [sw[i] * sw[i] * 1000 // (n[i] * sw2[i]) for i in keep],
                    pa.int64(),
                ),
            }
        )

    return (
        docs.select_columns([group_col, w_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(group_col)
        .aggregate(Sum("n"), Sum("sw"), Sum("sw2"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    )


def dedup_modality_agreement_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    jaccard_threshold: float = 0.5,
    min_chunk_len: int = 16,
    max_block: int = 64,
) -> Dataset:
    """Cross-modality dedup AGREEMENT matrix: how the three duplicate
    definitions overlap on the same corpus — (1) EXACT byte-identical
    text, (2) near-dup word-shingle Jaccard >= threshold (the MinHash
    rule, exactly verified), (3) CDC shared-chunk (>= ``min_chunk_len``
    chars).  Emits ONE row of pair-set cardinalities and pairwise /
    triple intersections — the calibration table that tells a curation
    pipeline which cheap modality can stand in for which expensive one.
    Exact-dup groups and CDC chunk groups cap at the ``max_block``
    lowest doc ids (mirrored in SQL) so pathological blocks stay
    bounded.

    Scale shape: three pair generators (``exchange.bucket_map`` co-groups
    with bounded groups; the Jaccard side reuses the LSH-candidate + exact
    verify chain) -> per-pair flag fold (ONE pair-key groupby) ->
    seven-indicator combiner down to a single row."""
    from .corpus_ops import minhash_pairs_ds, ngram_jaccard_verify_ds

    import hashlib

    pair_schema = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("e", pa.int64()),
            ("j", pa.int64()),
            ("c", pa.int64()),
        ]
    )

    def _flag_table(a: np.ndarray, b: np.ndarray, which: str) -> pa.Table:
        z = np.zeros(a.size, dtype=np.int64)
        o = np.ones(a.size, dtype=np.int64)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "e": pa.array(o if which == "e" else z),
                "j": pa.array(o if which == "j" else z),
                "c": pa.array(o if which == "c" else z),
            }
        )

    def _group_pairs(h: np.ndarray, d: np.ndarray, which: str) -> pa.Table:
        order, starts, lengths = segment_runs(h, d)
        i, j = run_pairs(starts, np.minimum(lengths, max_block))
        d = d[order]
        return _flag_table(d[i], d[j], which)

    # (1) exact-dup pairs
    def exact_project(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5((t or "").encode()).digest()[:8], "big"
                )
                >> 1
                for t in texts
            ),
            np.int64,
            count=len(texts),
        )
        return pa.table(
            {"h": pa.array(hs, pa.int64()), "d": pa.array(ids_, pa.int64())}
        )

    def exact_pairs(group: pa.Table) -> pa.Table:
        return _group_pairs(
            group.column("h").to_numpy(zero_copy_only=False),
            group.column("d").to_numpy(zero_copy_only=False),
            "e",
        )

    ex = bucket_map(
        docs.select_columns([id_col, text_col]).map_batches(
            exact_project, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        exact_pairs,
        pair_schema,
    )

    # (2) verified-Jaccard near-dup pairs (LSH candidates + exact verify)
    cands = minhash_pairs_ds(
        docs, num_perm=64, bands=64, threshold=0.0, max_bucket=None
    )
    ver = ngram_jaccard_verify_ds(cands, docs, threshold=jaccard_threshold)

    def jac_flags(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return _flag_table(lo, hi, "j")

    jc = ver.map_batches(jac_flags, batch_format="pyarrow", zero_copy_batch=True)

    # (3) CDC shared-chunk pairs
    chunker = _cdc_chunk_partials(id_col, text_col, 64)

    def cdc_pairs(group: pa.Table) -> pa.Table:
        group = group.filter(pc.greater_equal(group.column("clen"), min_chunk_len))
        return _group_pairs(
            group.column("h").to_numpy(zero_copy_only=False),
            group.column("d").to_numpy(zero_copy_only=False),
            "c",
        )

    cd = bucket_map(
        docs.select_columns([id_col, text_col]).map_batches(
            chunker, batch_format="pyarrow", zero_copy_batch=True
        ),
        "h",
        cdc_pairs,
        pair_schema,
    )

    # ex's typed empty block comes first, so the union keeps pair_schema
    folded = (
        ex.union(jc)
        .union(cd)
        .groupby(["a", "b"])
        .aggregate(Max("e"), Max("j"), Max("c"))
    )

    cols = [
        "n_exact",
        "n_jaccard",
        "n_cdc",
        "n_exact_jaccard",
        "n_exact_cdc",
        "n_jaccard_cdc",
        "n_all3",
    ]

    def products(batch: pa.Table) -> pa.Table:
        e = batch.column("max(e)").to_numpy(zero_copy_only=False)
        j = batch.column("max(j)").to_numpy(zero_copy_only=False)
        c = batch.column("max(c)").to_numpy(zero_copy_only=False)
        vals = [
            e.sum(),
            j.sum(),
            c.sum(),
            (e * j).sum(),
            (e * c).sum(),
            (j * c).sum(),
            (e * j * c).sum(),
        ]
        return pa.table(
            {nc: pa.array([int(v)], pa.int64()) for nc, v in zip(cols, vals)}
        )

    parts = collect_small(
        folded.map_batches(products, batch_format="pyarrow", zero_copy_batch=True),
        "per-block modality counts",
        {c: pa.int64() for c in cols},
    )
    return ray.data.from_arrow(
        pa.table(
            {c: pa.array([int(parts.column(c).to_numpy().sum())]) for c in cols}
        )
    )


def bow_dedup_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Bag-of-words (order-invariant) duplicate histogram: documents
    whose token MULTISETS are identical after sorting — the
    "shuffled plagiarism" modality that exact byte dedup misses and
    shingle Jaccard only catches probabilistically (reordered sentences
    keep the exact same bag).  Emits one row per group size with the
    number of bags and documents at that size; ``group_size >= 2`` rows
    are the order-invariant duplicate classes.

    Scale shape: one md5 per document over the sorted token join (the
    per-entity cost class of a MinHash signature) -> ONE
    ``exchange.bucket_map`` on the bag hash (bounded groups) -> per-bucket
    size histogram -> tiny group-size fold."""
    import hashlib

    def project(batch: pa.Table) -> pa.Table:
        lens, flat = ts.flat_tokens(ts.ws_tokens(batch.column(text_col)))
        # each doc's tokens sorted: UTF-8 byte order is code-point order
        doc = np.repeat(np.arange(len(lens)), lens)
        order = pc.sort_indices(
            pa.table({"d": doc, "t": flat}),
            sort_keys=[("d", "ascending"), ("t", "ascending")],
        )
        bags = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(np.concatenate(([0], np.cumsum(lens))), pa.int32()),
                flat.take(order),
            ),
            " ",
        )
        hs = np.fromiter(
            (
                int.from_bytes(hashlib.md5(b.encode()).digest()[:8], "big") >> 1
                for b in bags.to_pylist()
            ),
            np.int64,
            count=len(lens),
        )
        return pa.table({"h": pa.array(hs, pa.int64())})

    def bucket_hist(group: pa.Table) -> pa.Table:
        h = group.column("h").to_numpy(zero_copy_only=False)
        _, counts = np.unique(h, return_counts=True)
        sz, ngr = np.unique(counts, return_counts=True)
        return pa.table(
            {
                "group_size": pa.array(sz.astype(np.int64), pa.int64()),
                "ng": pa.array(ngr.astype(np.int64), pa.int64()),
            }
        )

    agg = collect_small(
        bucket_map(
            docs.select_columns([id_col, text_col]).map_batches(
                project, batch_format="pyarrow", zero_copy_batch=True
            ),
            "h",
            bucket_hist,
            {"group_size": pa.int64(), "ng": pa.int64()},
        )
        .groupby("group_size")
        .aggregate(Sum("ng")),
        "group-size histogram",
        {"group_size": pa.int64(), "sum(ng)": pa.int64()},
    )
    gs = agg.column("group_size").to_numpy()
    ng = agg.column("sum(ng)").to_numpy()
    return ray.data.from_arrow(
        pa.table(
            {
                "group_size": pa.array(gs, pa.int64()),
                "n_groups": pa.array(ng, pa.int64()),
                "n_docs": pa.array(gs * ng, pa.int64()),
            }
        )
    )


def hard_negatives_ds(
    emb: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
    grid_dims: int = 4,
    cell_e6: int = 250_000,
    max_cell: int = 64,
) -> Dataset:
    """Hard-negative mining for contrastive training (the in-batch
    negatives recipe of SimCLR / DPR, made deterministic): embedding
    pairs that land in the SAME coarse grid cell (first ``grid_dims``
    e6-quantized components floor-divided by ``cell_e6``) but carry
    DIFFERENT labels — close in representation space yet semantically
    distinct, exactly the negatives a contrastive loss learns most
    from.  Each pair carries the exact integer squared L2 distance over
    ALL components for downstream margin filtering.  Cells cap at the
    ``max_cell`` lowest vec ids (mirrored in SQL).

    Scale shape: cell key is a per-row projection (no broadcast); ONE
    cell-hash shuffle with bounded groups; within-cell pair generation
    is quadratic only in the capped cell population."""
    import hashlib

    out_schema = pa.schema(
        [
            ("vec_a", pa.int64()),
            ("vec_b", pa.int64()),
            ("label_a", pa.int64()),
            ("label_b", pa.int64()),
            ("d2q", pa.int64()),
        ]
    )

    def project(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        labs = batch.column(label_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        col = batch.column(vec_col).combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.float64)
        n = batch.num_rows
        dim = flat.size // n
        q = np.floor(flat * 1e6).astype(np.int64).reshape(n, dim)
        cells = q[:, :grid_dims] // cell_e6  # floor division (negatives ok)
        keys = ["|".join(map(str, row)) for row in cells]
        return pa.table(
            {
                "cell": pa.array(keys, pa.string()),
                "v": pa.array(ids_, pa.int64()),
                "lab": pa.array(labs, pa.int64()),
                "q": pa.array(list(q), pa.list_(pa.int64())),
            }
        )

    def cell_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({f.name: pa.array([], f.type) for f in out_schema})
        v = group.column("v").to_numpy(zero_copy_only=False)
        lab = group.column("lab").to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")[:max_cell]
        v, lab = v[order], lab[order]
        ql = group.column("q").to_pylist()
        q = np.array([ql[i] for i in order], dtype=np.int64)
        m = v.size
        if m < 2:
            return empty
        ii, jj = np.triu_indices(m, k=1)
        diff_lab = lab[ii] != lab[jj]
        ii, jj = ii[diff_lab], jj[diff_lab]
        if ii.size == 0:
            return empty
        d = q[ii] - q[jj]
        d2 = (d * d).sum(axis=1)
        return pa.table(
            {
                "vec_a": pa.array(v[ii], pa.int64()),
                "vec_b": pa.array(v[jj], pa.int64()),
                "label_a": pa.array(lab[ii], pa.int64()),
                "label_b": pa.array(lab[jj], pa.int64()),
                "d2q": pa.array(d2, pa.int64()),
            }
        )

    return _anchor_schema(
        emb.select_columns([id_col, vec_col, label_col])
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cell")
        .map_groups(cell_pairs, batch_format="pyarrow"),
        out_schema,
    )


def rare_token_pairs_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 2,
    max_df: int = 3,
) -> Dataset:
    """Rare-shingle blocking (the inverted-index candidate generator of
    entity-resolution pipelines, complementing prefix and phonetic
    blocking): document pairs sharing at least one 3-word shingle whose
    document frequency lies in ``[min_df, max_df]`` — rare enough to be
    discriminative, shared enough to link.  Single tokens are useless
    blocking keys on a natural-language corpus (every word is frequent);
    trigram shingles give a sharp df distribution.  Emits each candidate
    pair with the count of distinct rare shingles it shares.

    Scale shape: shingle-df combiner -> ONE vocab groupby; rare
    (shingle, doc) postings go through ``exchange.bucket_map`` on the
    shingle hash — per-shingle pair
    fan-out is bounded by ``max_df`` BY CONSTRUCTION
    (<= max_df*(max_df-1)/2), so no cap or salt is ever needed; final
    pair-key groupby counts."""
    import hashlib

    out_schema = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("n_shared_rare", pa.int64()),
        ]
    )

    def postings(batch: pa.Table) -> pa.Table:
        doc, _, sh = ts.token_windows(ts.ws_tokens(batch.column(text_col)), 3)
        ids_ = batch.column(id_col).cast(pa.int64())
        t = pa.table({"token": sh, "d": ids_.take(pa.array(doc))})
        return t.group_by(["token", "d"]).aggregate([])

    posts = (
        docs.select_columns([id_col, text_col])
        .map_batches(postings, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["token", "d"])
        .aggregate(Count())
    )

    def tag_hash(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        hs = np.fromiter(
            (
                int.from_bytes(hashlib.md5(str(t).encode()).digest()[:8], "big")
                >> 1
                for t in toks
            ),
            np.int64,
            count=len(toks),
        )
        return pa.table(
            {"h": pa.array(hs, pa.int64()), "d": batch.column("d").cast(pa.int64())}
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        d = group.column("d").to_numpy(zero_copy_only=False)
        order, starts, lengths = segment_runs(
            group.column("h").to_numpy(zero_copy_only=False), d
        )
        ok = (lengths >= min_df) & (lengths <= max_df)
        i, j = run_pairs(starts[ok], lengths[ok])
        d = d[order]
        return pa.table(
            {"a": pa.array(d[i], pa.int64()), "b": pa.array(d[j], pa.int64())}
        )

    pairs = bucket_map(
        posts.map_batches(tag_hash, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        bucket_pairs,
        {"a": pa.int64(), "b": pa.int64()},
    )
    agg = pairs.groupby(["a", "b"]).aggregate(Count())

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("a"),
                "doc_b": batch.column("b"),
                "n_shared_rare": batch.column("count()").cast(pa.int64()),
            }
        )

    return _anchor_schema(
        agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def bottomk_sample_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    val_col: str = "n_chars",
    k: int = 100,
) -> Dataset:
    """Bottom-k (KMV) uniform sample WITHOUT replacement: the ``k``
    documents with the smallest 60-bit md5 rank — the hash-ordered
    simple random sample whose size is EXACT (unlike threshold hash
    sampling) and which composes across shards by merging per-shard
    bottom-k sets (the K-Minimum-Values sketch construction, Bar-Yossef
    et al. 2002).

    Scale shape: per-block bottom-k partial (each block forwards <= k
    rows) -> global sort + limit over <= k * n_blocks rows — the big
    table never shuffles."""
    import hashlib

    def rank(batch: pa.Table) -> pa.Table:
        ids_ = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        hs = np.fromiter(
            (
                int(hashlib.md5(str(int(x)).encode()).hexdigest()[:15], 16)
                for x in ids_
            ),
            np.int64,
            count=ids_.size,
        )
        order = np.lexsort((ids_, hs))[:k]
        return pa.table(
            {
                id_col: pa.array(ids_[order], pa.int64()),
                "h60": pa.array(hs[order], pa.int64()),
                val_col: batch.column(val_col).cast(pa.int64()).take(
                    pa.array(order)
                ),
            }
        )

    return (
        docs.select_columns([id_col, val_col])
        .map_batches(rank, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["h60", id_col])
        .limit(k)
    )


# ---------------------------------------------------------------------------
# Session 15: span-structure analytics over the INTERLEAVED payload —
# operators on the (doc_id, spans: list<struct<kind,text,media_ref,offset>>)
# table itself (the north-rule input shape), not on flat text columns.
# ---------------------------------------------------------------------------


def _span_lists(batch: pa.Table):
    """(offsets, struct values, per-doc list lengths, parent doc index)
    for the ``spans`` column — the shared zero-copy unpack."""
    spans = batch.column("spans").combine_chunks()
    offs = spans.offsets.to_numpy()
    lens = np.diff(offs)
    parents = np.repeat(np.arange(len(lens)), lens)
    return offs, spans.values, lens, parents


def span_kind_transitions_ds(docs: Dataset) -> Dataset:
    """Markov bigram census of span KINDS across each document's ordered
    span sequence — the structural fingerprint of an interleaved corpus
    (how often text flows into media, headings into body, cells into
    cells).  Emits corpus-wide ``(kind_from, kind_to, n)`` counts.

    Scale shape: per-batch vectorized bigram partials (codes via
    ``pc.index_in`` against the tiny kind vocabulary, pair counts via one
    ``np.bincount``) -> ONE bounded groupby over <= |kinds|^2 rows."""
    out_schema = pa.schema(
        [
            ("kind_from", pa.string()),
            ("kind_to", pa.string()),
            ("n", pa.int64()),
        ]
    )
    empty = pa.table({f.name: pa.array([], f.type) for f in out_schema})

    def partial(batch: pa.Table) -> pa.Table:
        _, vals, lens, parents = _span_lists(batch)
        if len(vals) < 2:
            return empty
        kind_arr = vals.field("kind")
        vocab, codes = np.unique(
            np.asarray(kind_arr.to_pylist(), dtype=object), return_inverse=True
        )
        same = parents[:-1] == parents[1:]
        if not same.any():
            return empty
        k = len(vocab)
        pair = codes[:-1][same] * k + codes[1:][same]
        cnt = np.bincount(pair, minlength=k * k).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "kind_from": pa.array(vocab[nz // k].astype(str), pa.string()),
                "kind_to": pa.array(vocab[nz % k].astype(str), pa.string()),
                "n": pa.array(cnt[nz], pa.int64()),
            }
        )

    agg = (
        docs.select_columns(["spans"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["kind_from", "kind_to"])
        .aggregate(Sum("n"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind_from": batch.column("kind_from"),
                "kind_to": batch.column("kind_to"),
                "n": batch.column("sum(n)").cast(pa.int64()),
            }
        )

    return _anchor_schema(
        agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def media_density_ds(docs: Dataset, id_to_int=None) -> Dataset:
    """Per-document interleaving profile: span counts by class (media vs
    text-bearing), total text chars, and media share in permille — the
    triage table a multimodal curation pipeline filters on (drop all-media
    shells, keep text-rich mixed docs).

    Scale shape: pure per-batch vectorized projection (one
    ``np.bincount`` per measure over the list parents); no shuffle."""
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_spans", pa.int64()),
            ("n_media", pa.int64()),
            ("n_text", pa.int64()),
            ("text_chars", pa.int64()),
            ("media_permille", pa.int64()),
        ]
    )

    def profile(batch: pa.Table) -> pa.Table:
        _, vals, lens, parents = _span_lists(batch)
        nd = len(lens)
        ids_ = np.asarray(
            [int(str(d).rsplit("-", 1)[-1]) for d in
             batch.column("doc_id").to_pylist()],
            np.int64,
        )
        is_media = np.asarray(
            pc.equal(vals.field("kind"), "media_ref").to_numpy(
                zero_copy_only=False
            ),
            bool,
        )
        tl = pc.utf8_length(vals.field("text")).to_numpy(zero_copy_only=False)
        n_media = np.bincount(parents, weights=is_media, minlength=nd)
        chars = np.bincount(parents, weights=tl, minlength=nd)
        n_spans = lens.astype(np.int64)
        nm = n_media.astype(np.int64)
        permille = np.where(n_spans > 0, nm * 1000 // np.maximum(n_spans, 1), 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "n_spans": pa.array(n_spans, pa.int64()),
                "n_media": pa.array(nm, pa.int64()),
                "n_text": pa.array(n_spans - nm, pa.int64()),
                "text_chars": pa.array(chars.astype(np.int64), pa.int64()),
                "media_permille": pa.array(permille.astype(np.int64), pa.int64()),
            }
        )

    return _anchor_schema(
        docs.map_batches(profile, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def span_offset_audit_ds(docs: Dataset) -> Dataset:
    """Corpus-wide offset-integrity audit of the interleaved payload: are
    span offsets strictly increasing within every document (the ordering
    invariant downstream span-sequence equality depends on), plus the
    checksum-grade totals (sum of final offsets, max span count).  ONE
    row out.

    Scale shape: per-batch vectorized partials (diff over list values
    with a cross-boundary mask) -> single-row fold; nothing shuffles."""
    out_schema = pa.schema(
        [
            ("n_docs", pa.int64()),
            ("n_monotonic", pa.int64()),
            ("sum_final_offset", pa.int64()),
            ("max_span_count", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        offs, vals, lens, parents = _span_lists(batch)
        off_vals = vals.field("offset").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nd = len(lens)
        if len(off_vals) > 1:
            same = parents[:-1] == parents[1:]
            bad = (np.diff(off_vals) <= 0) & same
            bad_docs = np.unique(parents[:-1][bad])
            n_mono = nd - len(bad_docs)
        else:
            n_mono = nd
        last_idx = offs[1:] - 1  # final span per doc (lens may be 0)
        has = lens > 0
        sum_final = int(off_vals[last_idx[has]].sum()) if has.any() else 0
        return pa.table(
            {
                "n_docs": pa.array([nd], pa.int64()),
                "n_monotonic": pa.array([int(n_mono)], pa.int64()),
                "sum_final_offset": pa.array([sum_final], pa.int64()),
                "max_span_count": pa.array(
                    [int(lens.max()) if nd else 0], pa.int64()
                ),
            }
        )

    sums = ["n_docs", "n_monotonic", "sum_final_offset"]
    parts = collect_small(
        docs.select_columns(["spans"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "per-block span offset counters",
        {c: pa.int64() for c in sums + ["max_span_count"]},
    )
    out = {c: int(parts.column(c).to_numpy().sum()) for c in sums}
    out["max_span_count"] = int(
        parts.column("max_span_count").to_numpy().max(initial=0)
    )
    return ray.data.from_arrow(
        pa.table({c: pa.array([v], pa.int64()) for c, v in out.items()})
    )


def kind_runlengths_ds(docs: Dataset) -> Dataset:
    """Run-length census of span kinds: per kind, how many maximal
    consecutive runs the corpus holds, the longest run, and the total
    span count — the structure signal that separates cell-run-heavy
    (tabular) corpora from prose (long text runs) and galleries (media
    runs).

    Scale shape: per-batch vectorized RLE (run starts = kind-change OR
    doc-boundary; lengths by diff of start indices) -> ONE bounded
    groupby over <= |kinds| rows."""
    out_schema = pa.schema(
        [
            ("kind", pa.string()),
            ("n_runs", pa.int64()),
            ("max_run", pa.int64()),
            ("n_spans", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        _, vals, lens, parents = _span_lists(batch)
        n = len(vals)
        if n == 0:
            return pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "n_runs": pa.array([], pa.int64()),
                    "max_run": pa.array([], pa.int64()),
                    "n_spans": pa.array([], pa.int64()),
                }
            )
        vocab, codes = np.unique(
            np.asarray(vals.field("kind").to_pylist(), dtype=object),
            return_inverse=True,
        )
        new_run = np.ones(n, bool)
        if n > 1:
            new_run[1:] = (codes[1:] != codes[:-1]) | (parents[1:] != parents[:-1])
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.concatenate((starts, [n])))
        run_code = codes[starts]
        k = len(vocab)
        n_runs = np.bincount(run_code, minlength=k).astype(np.int64)
        max_run = np.zeros(k, np.int64)
        np.maximum.at(max_run, run_code, run_len)
        n_spans = np.bincount(run_code, weights=run_len, minlength=k).astype(
            np.int64
        )
        return pa.table(
            {
                "kind": pa.array(vocab.astype(str), pa.string()),
                "n_runs": pa.array(n_runs, pa.int64()),
                "max_run": pa.array(max_run, pa.int64()),
                "n_spans": pa.array(n_spans, pa.int64()),
            }
        )

    agg = (
        docs.select_columns(["spans"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("kind")
        .aggregate(Sum("n_runs"), Max("max_run"), Sum("n_spans"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": batch.column("kind"),
                "n_runs": batch.column("sum(n_runs)").cast(pa.int64()),
                "max_run": batch.column("max(max_run)").cast(pa.int64()),
                "n_spans": batch.column("sum(n_spans)").cast(pa.int64()),
            }
        )

    return _anchor_schema(
        agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def media_ref_integrity_ds(docs: Dataset) -> Dataset:
    """Referential-integrity audit of the media side of the interleaved
    payload: every ``media_ref`` URI must (1) carry the ``media://``
    scheme, (2) embed the doc_id of the document that contains it (no
    foreign refs), and (3) index its doc's media densely ``0..n-1`` —
    the invariants a downstream media-fetch stage relies on before
    issuing reads.  ONE row out.

    Scale shape: per-batch vectorized parse (np.char ops over the media
    minority of flattened spans; docs never split across batches so the
    density check is batch-local) -> single-row fold; nothing
    shuffles."""
    cols = [
        "n_refs",
        "n_bad_scheme",
        "n_foreign",
        "n_docs_with_media",
        "n_dense_docs",
    ]

    def partial(batch: pa.Table) -> pa.Table:
        _, vals, lens, parents = _span_lists(batch)
        is_media = np.asarray(
            pc.equal(vals.field("kind"), "media_ref").to_numpy(
                zero_copy_only=False
            ),
            bool,
        )
        n_refs = int(is_media.sum())
        if n_refs == 0:
            return pa.table(
                {
                    "n_refs": pa.array([0], pa.int64()),
                    "n_bad_scheme": pa.array([0], pa.int64()),
                    "n_foreign": pa.array([0], pa.int64()),
                    "n_docs_with_media": pa.array([0], pa.int64()),
                    "n_dense_docs": pa.array([0], pa.int64()),
                }
            )
        refs = np.asarray(
            vals.field("media_ref").take(
                pa.array(np.flatnonzero(is_media))
            ).to_pylist(),
            dtype=object,
        ).astype(str)
        par = parents[is_media]
        good_scheme = np.char.startswith(refs, "media://")
        expected = pc.binary_join_element_wise(
            "media://", batch.column("doc_id").take(pa.array(par)).cast(pa.string()), "/", ""
        ).to_numpy(zero_copy_only=False).astype(str)
        own = np.char.startswith(refs, expected)
        # dense 0..n-1 per doc: numeric suffix, sorted == arange
        tail = np.char.rpartition(refs, "/")[:, 2]
        is_num = np.char.isdigit(tail)
        ks = np.where(is_num, tail, "-1").astype(np.int64)
        order = np.lexsort((ks, par))
        sp, sk = par[order], ks[order]
        starts = np.flatnonzero(np.concatenate(([True], sp[1:] != sp[:-1])))
        ends = np.concatenate((starts[1:], [sp.size]))
        seg_ok = np.ones(starts.size, bool)
        pos = np.arange(sp.size) - np.repeat(starts, ends - starts)
        bad_pos = sk != pos
        if bad_pos.any():
            bad_docs = np.unique(sp[bad_pos])
            seg_ok = ~np.isin(sp[starts], bad_docs)
        return pa.table(
            {
                "n_refs": pa.array([n_refs], pa.int64()),
                "n_bad_scheme": pa.array(
                    [int((~good_scheme).sum())], pa.int64()
                ),
                "n_foreign": pa.array(
                    [int((good_scheme & ~own).sum())], pa.int64()
                ),
                "n_docs_with_media": pa.array([int(starts.size)], pa.int64()),
                "n_dense_docs": pa.array([int(seg_ok.sum())], pa.int64()),
            }
        )

    parts = collect_small(
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "per-block media-ref counters",
        {c: pa.int64() for c in cols},
    )
    return ray.data.from_arrow(
        pa.table(
            {c: pa.array([int(parts.column(c).to_numpy().sum())]) for c in cols}
        )
    )


_KMV_DOMAIN = 1 << 60  # h60 hashes are uniform on [0, 2^60)


def kmv_intersection_ds(
    docs: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    k: int = 128,
) -> Dataset:
    """Theta-sketch (KMV) set-INTERSECTION estimator audit between
    sources: per source pair, the exact number of shared distinct 3-word
    shingles vs the estimate from two k-minimum-values sketches — the
    calibration table before trusting sketch unions/intersections for
    cross-source overlap triage at 100 TB (where the exact side is a
    full shingle-domain shuffle but the sketch side ships k hashes per
    source).

    Estimator (integer-exact on both sides): with ``K`` = the k-th
    smallest hash of the two sketches' union and ``c`` = shared sketch
    hashes below ``K``, ``est = c*(k-1)*2^60 // (k*K)`` (the KMV
    union-cardinality estimator ``(k-1)*D/K`` scaled by the Jaccard
    fraction ``c/k``); when the union sketch is not full both sketches
    are complete and the count is exact.

    Scale shape: ONE (source, h60) dedup shuffle feeds both sides; the
    exact side folds per-hash source BITMASKS (sources <= 63 by guard)
    through a bounded second groupby; the sketch side forwards <= k rows
    per source per batch and the driver merges tiny sketches."""
    import hashlib

    out_schema = pa.schema(
        [
            ("src_a", pa.string()),
            ("src_b", pa.string()),
            ("exact_common", pa.int64()),
            ("kmv_est", pa.int64()),
            ("abs_err_permille", pa.int64()),
        ]
    )
    empty = pa.table({f.name: pa.array([], f.type) for f in out_schema})

    def shingle_hashes(batch: pa.Table) -> pa.Table:
        doc, _, sh = ts.token_windows(ts.ws_tokens(batch.column(text_col)), 3)
        hs = np.fromiter(
            (int(hashlib.md5(s.encode()).hexdigest()[:15], 16) for s in sh.to_pylist()),
            np.int64,
            count=len(sh),
        )
        t = pa.table(
            {
                "source": batch.column(source_col).take(pa.array(doc)).cast(pa.string()),
                "h": pa.array(hs, pa.int64()),
            }
        )
        return t.group_by(["source", "h"]).aggregate([])

    dedup = (
        docs.select_columns([source_col, text_col])
        .map_batches(shingle_hashes, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "h"])
        .aggregate(Count())
        .materialize()
    )

    # ---- sketch side: bottom-k per source (per-batch partial -> driver)
    def bottomk(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        hs = batch.column("h").to_numpy(zero_copy_only=False)
        order = np.lexsort((hs, src.astype(str)))
        src, hs = src[order], hs[order]
        starts = np.flatnonzero(
            np.concatenate(([True], src[1:] != src[:-1]))
        )
        pos = np.arange(src.size) - np.repeat(
            starts, np.diff(np.concatenate((starts, [src.size])))
        )
        keep = pos < k
        return pa.table(
            {
                "source": pa.array(src[keep].astype(str), pa.string()),
                "h": pa.array(hs[keep], pa.int64()),
            }
        )

    sk = collect_small(
        dedup.map_batches(bottomk, batch_format="pyarrow", zero_copy_batch=True),
        "per-block source sketches",
        {"source": pa.string(), "h": pa.int64()},
    )
    sk_src = sk.column("source").to_numpy(zero_copy_only=False)
    sk_h = sk.column("h").to_numpy()

    # ---- exact side: per-hash source bitmask -> mask histogram
    sources = sorted(set(sk_src))
    if len(sources) > 63:
        raise ValueError(
            "kmv_intersection_ds bitmask fold supports <= 63 sources; "
            "salt the mask into source buckets beyond that"
        )
    bit_of = {s: i for i, s in enumerate(sources)}

    def to_bits(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        bits = np.asarray([1 << bit_of[s] for s in src], np.int64)
        return pa.table(
            {"h": batch.column("h").cast(pa.int64()), "bits": pa.array(bits)}
        )

    def mask_hist(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"mask": batch.column("sum(bits)").cast(pa.int64())})
            .group_by("mask")
            .aggregate([("mask", "count")])
        )
        return pa.table(
            {
                "mask": g.column("mask"),
                "c": g.column("mask_count").cast(pa.int64()),
            }
        )

    masks = collect_small(
        dedup.map_batches(to_bits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .aggregate(Sum("bits"))
        .map_batches(mask_hist, batch_format="pyarrow", zero_copy_batch=True),
        "source-mask histogram",
        {"mask": pa.int64(), "c": pa.int64()},
    )
    if len(sources) < 2:
        return ray.data.from_arrow(empty)

    mk = masks.column("mask").to_numpy()
    mc = masks.column("c").to_numpy()
    sketches = {s: np.sort(sk_h[sk_src == s])[:k] for s in sources}

    rows = []
    for i, sa in enumerate(sources):
        for sb in sources[i + 1 :]:
            both = (1 << bit_of[sa]) | (1 << bit_of[sb])
            exact = int(mc[(mk & both) == both].sum())
            a, b = sketches[sa], sketches[sb]
            union = np.union1d(a, b)
            common = np.intersect1d(a, b, assume_unique=True)
            if union.size < k:
                est = int(common.size)
            else:
                kk = int(union[k - 1])
                c = int((common < kk).sum())
                est = (c * (k - 1) * _KMV_DOMAIN) // (k * kk) if kk > 0 else 0
            err = abs(est - exact) * 1000 // exact if exact > 0 else 0
            rows.append((sa, sb, exact, est, err))
    return ray.data.from_arrow(
        pa.table(
            {
                "src_a": pa.array([r[0] for r in rows], pa.string()),
                "src_b": pa.array([r[1] for r in rows], pa.string()),
                "exact_common": pa.array([r[2] for r in rows], pa.int64()),
                "kmv_est": pa.array([r[3] for r in rows], pa.int64()),
                "abs_err_permille": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def caption_mining_ds(docs: Dataset) -> Dataset:
    """Caption-candidate mining over the interleaved payload: for every
    ``media_ref`` span, pair it with the nearest PRECEDING text-bearing
    span in the same document — the alt-text/caption heuristic that
    builds (image, text) training pairs from interleaved web documents.
    Emits ``(doc_id, media_ref, caption, caption_words)``; media with no
    preceding text gets an empty caption.

    Scale shape: pure per-batch vectorized projection — the preceding
    text index per span is one cummax over the flattened span values
    (doc boundaries masked via list parents); NO shuffle."""
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("media_ref", pa.string()),
            ("caption", pa.string()),
            ("caption_words", pa.int64()),
        ]
    )
    empty = pa.table({f.name: pa.array([], f.type) for f in out_schema})

    def mine(batch: pa.Table) -> pa.Table:
        _, vals, lens, parents = _span_lists(batch)
        n = len(vals)
        if n == 0:
            return empty
        is_media = np.asarray(
            pc.equal(vals.field("kind"), "media_ref").to_numpy(
                zero_copy_only=False
            ),
            bool,
        )
        if not is_media.any():
            return empty
        texts = np.asarray(vals.field("text").to_pylist(), dtype=object)
        has_text = ~is_media & (np.char.str_len(texts.astype(str)) > 0)
        # last text-bearing index at-or-before each position, -1 if none
        idx = np.where(has_text, np.arange(n), -1)
        last_text = np.maximum.accumulate(idx)
        # reset at doc boundaries: a doc's first span can't see backwards
        doc_start = np.concatenate(([0], np.flatnonzero(
            parents[1:] != parents[:-1]) + 1))
        # recompute per segment: subtract segment-start cummax leakage by
        # masking candidates from earlier docs
        seg_first = np.zeros(n, np.int64)
        seg_first[doc_start] = doc_start
        seg_start = np.maximum.accumulate(seg_first)
        valid = last_text >= seg_start
        m = np.flatnonzero(is_media)
        cap_idx = last_text[m]
        ok = valid[m] & (cap_idx >= 0)
        caps = np.where(ok, texts[np.maximum(cap_idx, 0)], "").astype(object)
        words = np.where(
            np.char.str_len(caps.astype(str)) > 0,
            np.char.count(caps.astype(str), " ") + 1,
            0,
        ).astype(np.int64)
        doc_ids = np.asarray(
            [int(str(d).rsplit("-", 1)[-1]) for d in
             batch.column("doc_id").to_pylist()],
            np.int64,
        )
        refs = np.asarray(
            vals.field("media_ref").take(pa.array(m)).to_pylist(),
            dtype=object,
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[parents[m]], pa.int64()),
                "media_ref": pa.array(refs.astype(str), pa.string()),
                "caption": pa.array(caps.astype(str), pa.string()),
                "caption_words": pa.array(words, pa.int64()),
            }
        )

    return _anchor_schema(
        docs.map_batches(mine, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )


def span_pack_ds(docs: Dataset, budget_words: int = 24) -> Dataset:
    """Multimodal-aware greedy sequence packing: walk each document's
    ordered spans, closing a chunk whenever adding the next TEXT span
    would exceed ``budget_words`` (media spans cost zero words and never
    split from their position) — the packing step that turns interleaved
    docs into fixed-budget training sequences without ever cutting a
    media span out of context.  Emits per doc: chunk count, max chunk
    words, total words.

    Scale shape: per-batch vectorized greedy fold — chunk boundaries by
    ``searchsorted`` over the flat word prefix-sum, one round per chunk
    DEPTH (all docs advance one chunk per iteration, so the only loop is
    bounded by max-chunks-per-doc, with every inner op vectorized across
    the batch); NO shuffle."""
    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_chunks", pa.int64()),
            ("max_chunk_words", pa.int64()),
            ("total_words", pa.int64()),
        ]
    )

    def pack(batch: pa.Table) -> pa.Table:
        offs, vals, lens, parents = _span_lists(batch)
        n = len(vals)
        doc_ids = np.asarray(
            [int(str(d).rsplit("-", 1)[-1]) for d in
             batch.column("doc_id").to_pylist()],
            np.int64,
        )
        nd = len(lens)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids, pa.int64()),
                    "n_chunks": pa.array(np.zeros(nd, np.int64)),
                    "max_chunk_words": pa.array(np.zeros(nd, np.int64)),
                    "total_words": pa.array(np.zeros(nd, np.int64)),
                }
            )
        texts = np.asarray(vals.field("text").to_pylist(), dtype=object).astype(
            str
        )
        w = np.where(
            np.char.str_len(texts) > 0, np.char.count(texts, " ") + 1, 0
        ).astype(np.int64)
        # greedy fold, one vectorized round per chunk depth: a chunk
        # starting at span s covers [s, j) with j = the largest index
        # keeping P[j] - P[s] <= budget (>= one span always taken)
        P = np.concatenate(([0], np.cumsum(w)))
        pos = offs[:-1].astype(np.int64).copy()
        end = offs[1:].astype(np.int64)
        n_chunks = np.zeros(nd, np.int64)
        max_w = np.zeros(nd, np.int64)
        tot = P[end] - P[offs[:-1]]
        active = pos < end
        while active.any():
            s0 = pos[active]
            j = np.searchsorted(P, P[s0] + budget_words, side="right") - 1
            j = np.maximum(j, s0 + 1)
            j = np.minimum(j, end[active])
            cw = P[j] - P[s0]
            # a zero-word chunk (leading media only) must still take the
            # next text span even when it alone exceeds the budget, plus
            # any zero-cost spans that follow it
            zf = (cw == 0) & (j < end[active])
            if zf.any():
                jj = j[zf]
                j2 = np.searchsorted(P, P[jj + 1], side="right") - 1
                j2 = np.minimum(np.maximum(j2, jj + 1), end[active][zf])
                j[zf] = j2
                cw[zf] = P[j2] - P[s0[zf]]
            n_chunks[active] += 1
            np.maximum.at(max_w, np.flatnonzero(active), cw)
            pos[active] = j
            active = pos < end
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_chunks": pa.array(n_chunks, pa.int64()),
                "max_chunk_words": pa.array(max_w, pa.int64()),
                "total_words": pa.array(tot, pa.int64()),
            }
        )

    return _anchor_schema(
        docs.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True),
        out_schema,
    )
