"""Bounded exchanges: the one place that decides how rows reach a bucket,
how candidate pairs leave one, and whether a side may come to the driver.

Every near-dup and similarity-join operator in `corpus_ops` and
`analytics` has the same shape (the hash-partitioned co-group of
*Streaming HyperCube*, EDBT 2019):

1. :func:`bucket_map` shuffles rows on ``hash(key) % N_EXCHANGE_BUCKETS``
   (:func:`_hash_bucket_column`, :func:`_mix64`) and calls the operator's
   function once per bucket: a BOUNDED group count, never
   ``groupby(key)`` over millions of near-singleton keys, whose
   per-group Python overhead dominates the whole operator. It also owns
   the output contract: every bucket's table is cast to the operator's
   schema, and an empty input still has that schema.
2. Inside a bucket, :func:`segment_runs` sorts rows by key, then id, and
   returns each key run's start and length.
3. :func:`run_pairs` expands every ``i < j`` pair inside the runs the
   caller passes, vectorized; :func:`star_pairs` links a hot run's first
   row (its minimum id) to every other row, and :func:`capped_pairs`
   combines the two around a ``max_bucket`` cap.

Operators call :func:`bucket_map` and never pick a bucket count: their
output over whole key runs does not depend on it. Inside the bucket,
callers choose the run lengths they pass (star-capped, truncated to the
first ``cap`` rows, or dropped outside bounds), so each operator keeps
its own cap policy. Operator semantics (Hamming checks, size filters,
same-doc skips) are filters on the returned index pairs.

Small sides (a vocabulary, a value CDF, a label map) come to the driver
only through :func:`collect_small`, which refuses a side above
``MAX_BROADCAST_ROWS``. One row budget bounds what the driver holds for
every operator, in the spirit of *Memory Efficient Scheduling of Query
Pipeline Execution* (CIDR 2022).

Every equi-join of the operators is :func:`attach`: it gives a dataset's
rows the payload columns of a side, matched N:M on a key, and picks the
strategy from the row counts it observes: when the dataset fits, the
side is first cut to the dataset's keys in one streaming pass; the side
is then broadcast when it fits, else both co-group through
:func:`bucket_map`. Operators choose no join strategy.

Every family resolution (dedup clusters, semantic and CDC families) is
:func:`components`: pairs that fit are collected and labelled by
``clustering.connected_components``, the one components kernel; larger
pair sets run :func:`_min_label_propagation`, whose two joins per round
are :func:`attach` calls. Outside this module only ``substring_strip_ds``
asks :func:`fits_broadcast`.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Min, Sum

from ..functions.clustering import connected_components

_LOG = logging.getLogger(__name__)

# LSH bucket-size guard: a hot bucket (mass-duplicated boilerplate) makes
# quadratic pair emission blow up; past this size a bucket degrades to STAR
# pairs around its minimum id — linear in bucket size, preserving the
# connected component (what dedup-cluster resolution consumes) while
# sacrificing direct pair edges between non-representative members. Never
# a silent cap: each degraded bucket logs its size and the pair reduction.
DEFAULT_MAX_BUCKET = 256

# Group count of every hash-bucketed co-group (:func:`bucket_map`). Each
# group costs a fixed ~1 ms of Python in map_groups, so a few hundred
# keeps that below the shuffle's own cost on a small corpus while every
# group stays one vectorized kernel call. Read at call time, so tests can
# vary it.
N_EXCHANGE_BUCKETS = 256

# Most rows a side may have to be collected to the driver and broadcast.
# Read at call time, so tests can lower it.
MAX_BROADCAST_ROWS = 5_000_000

Pairs = Tuple[np.ndarray, np.ndarray]


def _log_star_fallback(kind: str, n: int, max_bucket: int) -> None:
    _LOG.warning(
        "%s bucket with %d ids exceeds max_bucket=%d: emitting %d star "
        "pairs around the minimum id instead of %d quadratic pairs "
        "(component connectivity preserved; run exact-dedup upstream to "
        "collapse identical documents)",
        kind, n, max_bucket, n - 1, n * (n - 1) // 2,
    )


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over an int64/uint64 array — the
    deterministic cross-worker bucket hash for integer keys (Python's
    ``hash()`` is per-process-salted; md5 per row is a Python loop)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _hash_bucket_column(key_col: pa.ChunkedArray, n_buckets: int) -> pa.Array:
    """Deterministic cross-worker bucket assignment for a key column:
    vectorized splitmix64 for integer ids (the scale path); for
    non-integer ids, md5 per DISTINCT value via dictionary encoding —
    one hash per unique key per batch, gathered back vectorized (a
    batch's distinct-key count is what bounds the Python work, never
    its row count). Null keys hash like the integer 0 or, for other
    keys, fall in bucket 0."""
    if pa.types.is_integer(key_col.type):
        # uint64 hashes wrap into int64: the bit pattern is what mixes
        k = pc.cast(pc.fill_null(key_col, 0), pa.int64(), safe=False).to_numpy(
            zero_copy_only=False
        )
        return pa.array(
            (_mix64(k) % np.uint64(n_buckets)).astype(np.int64), pa.int64()
        )
    if isinstance(key_col, pa.ChunkedArray):
        arr = key_col.combine_chunks()
    else:
        arr = key_col
    enc = pc.dictionary_encode(arr)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    dict_buckets = np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big")
            % n_buckets
            for v in enc.dictionary.to_pylist()
        ),
        dtype=np.int64,
        count=len(enc.dictionary),
    )
    # null keys take the extra bucket-0 entry past the dictionary
    idx = pc.fill_null(enc.indices, len(enc.dictionary)).to_numpy(zero_copy_only=False)
    return pa.array(np.append(dict_buckets, 0)[idx], pa.int64())


def _anchor_schema(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """Union a typed empty block in front of ``ds``, so its columns
    survive when every block is empty or there are no blocks (an
    all-empty ``map_groups`` output is otherwise schema-less, which breaks
    empty-vs-empty oracle compares)."""
    return ray.data.from_arrow(pa.schema(schema).empty_table()).union(ds)


def bucket_map(
    ds: ray.data.Dataset,
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    schema,
    anchor: bool = True,
) -> ray.data.Dataset:
    """The one hash-bucketed co-group: shuffle ``ds`` on
    ``_hash_bucket_column(key, N_EXCHANGE_BUCKETS)`` and call ``fn`` once
    per bucket.

    ``fn`` gets one bucket's rows, with ``ds``'s columns: every row of
    one or more whole ``key`` runs. It returns a table; a zero-row result
    becomes ``schema.empty_table()`` and a non-empty one is selected and
    cast to ``schema`` (a ``pa.Schema`` or a name -> type mapping). The
    output is anchored with a typed empty block, so an empty input still
    has ``schema``'s columns. ``anchor=False`` skips that for an output
    that only feeds another :func:`bucket_map`, whose own output is
    anchored: the anchor's union would keep the next exchange's bucket
    column from fusing into this one's map. No operator outside this
    module picks a bucket count: the output of ``fn`` over whole key runs
    does not depend on it."""
    schema = pa.schema(schema)
    n_buckets = N_EXCHANGE_BUCKETS

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bkt", _hash_bucket_column(batch.column(key), n_buckets)
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        out = fn(group.drop_columns(["bkt"]))
        if out.num_rows == 0:
            return schema.empty_table()
        return out.select(schema.names).cast(schema)

    per_bucket.__name__ = getattr(fn, "__name__", "bucket_map")
    keyed = ds.map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = keyed.groupby("bkt").map_groups(per_bucket, batch_format="pyarrow")
    return _anchor_schema(out, schema) if anchor else out


def segment_runs(
    keys: np.ndarray, ids: np.ndarray, *ties: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort one bucket's rows by ``keys``, then ``ids``, then each of
    ``ties`` in turn; return ``(order, starts, lengths)``: the sort
    permutation and, over the sorted rows, each key run's first position
    and row count."""
    order = np.lexsort(tuple(reversed(ties)) + (ids, keys))
    k = keys[order]
    if not len(k):
        empty = np.zeros(0, np.int64)
        return order, empty, empty
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    lengths = np.diff(np.append(starts, len(k)))
    return order, starts, lengths


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``0 .. c-1`` for each count ``c``, concatenated."""
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def run_pairs(starts: np.ndarray, lengths: np.ndarray) -> Pairs:
    """Every ``(i, j)`` with ``i < j`` inside each run ``[start, start +
    length)``, as positions in the sorted order; runs shorter than two
    rows emit nothing. Row ``k`` of a run fans out to the ``length - 1 -
    k`` rows after it, so the expansion is ``np.repeat`` over rows with
    no per-run Python."""
    off = _ramp(lengths)
    run = np.repeat(np.arange(len(lengths)), lengths)
    fan = lengths[run] - 1 - off
    i = np.repeat(starts[run] + off, fan)
    return i, i + 1 + _ramp(fan)


def star_pairs(
    starts: np.ndarray, lengths: np.ndarray, kind: str, max_bucket: int
) -> Pairs:
    """Hot runs as stars: each run's first row (its minimum id after
    :func:`segment_runs`) paired with every other row of the run. Logs
    every run through :func:`_log_star_fallback`."""
    for n in lengths:
        _log_star_fallback(kind, int(n), max_bucket)
    fan = lengths - 1
    i = np.repeat(starts, fan)
    return i, i + 1 + _ramp(fan)


def capped_pairs(
    starts: np.ndarray, lengths: np.ndarray, max_bucket: Optional[int], kind: str
) -> Pairs:
    """:func:`run_pairs` for runs of at most ``max_bucket`` rows and
    :func:`star_pairs` for longer ones (``None``: no cap)."""
    if max_bucket is None:
        return run_pairs(starts, lengths)
    hot = lengths > max_bucket
    i, j = run_pairs(starts[~hot], lengths[~hot])
    si, sj = star_pairs(starts[hot], lengths[hot], kind, max_bucket)
    return np.concatenate((i, si)), np.concatenate((j, sj))


def fits_broadcast(ds: ray.data.Dataset) -> bool:
    """Whether ``ds`` is small enough to collect and broadcast. Pass a
    materialized dataset: its row count then comes from block metadata,
    and the caller's collect or co-group reuses the same blocks."""
    return ds.count() <= MAX_BROADCAST_ROWS


def collect_small(
    ds: ray.data.Dataset, what: str, schema=None
) -> pa.Table:
    """Bring a small side to the driver as one Arrow table.

    Materializes ``ds`` once, counts its rows from block metadata and
    raises ``ValueError`` naming ``what`` when they exceed
    ``MAX_BROADCAST_ROWS``. With ``schema`` (a ``pa.Schema`` or a name ->
    type mapping) it returns those columns cast to their types, and an
    empty input, including the schema-less output of
    ``groupby().aggregate()`` over zero rows, returns them empty. Without
    it, the blocks' own columns come back (none for a schema-less empty
    input)."""
    ds = ds.materialize()
    if not fits_broadcast(ds):
        raise ValueError(
            f"{what} ({ds.count()} rows) exceeds "
            f"MAX_BROADCAST_ROWS={MAX_BROADCAST_ROWS}; it is not a "
            "broadcastable small side"
        )
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    if schema is None:
        if not blocks:
            return pa.table({})
        return pa.concat_tables(blocks, promote_options="default")
    schema = pa.schema(schema)
    blocks = [b.select(schema.names).cast(schema) for b in blocks]
    return pa.concat_tables(blocks) if blocks else schema.empty_table()


def _arrow_schema(ds: ray.data.Dataset) -> Optional[pa.Schema]:
    schema = ds.schema()
    return None if schema is None else pa.schema(list(zip(schema.names, schema.types)))


def _key_values(col) -> Tuple[np.ndarray, np.ndarray]:
    """A key column as a sortable numpy array (integer and all-null keys
    as int64, any other key as an object array of str) and its validity
    mask. Never numpy's fixed-width ``U`` dtype: it drops trailing NULs,
    so ``"c\\x00"`` would match ``"c"``."""
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type) or pa.types.is_null(col.type):
        keys = pc.fill_null(col, 0).cast(pa.int64(), safe=False)
        return keys.to_numpy(zero_copy_only=False), valid
    return pc.fill_null(col.cast(pa.string()), "").to_numpy(zero_copy_only=False), valid


def _index(side: pa.Table, key: str) -> Tuple[np.ndarray, pa.Table]:
    """``side``'s non-null keys, sorted, and its payload rows in that order."""
    keys, valid = _key_values(side.column(key))
    side = side.filter(pa.array(valid))
    keys = keys[valid]
    order = np.argsort(keys, kind="stable")
    return keys[order], side.drop_columns([key]).take(pa.array(order, pa.int64()))


def _check_payload(payload, columns) -> None:
    clash = set(payload) & set(columns)
    if clash:
        raise ValueError(f"payload column collision: {sorted(clash)}")


def _probe(index: Tuple[np.ndarray, pa.Table], batch: pa.Table, on: str, how: str) -> pa.Table:
    """``batch``'s rows, each repeated once per side row with its key,
    with that row's payload: two ``searchsorted`` probes of the sorted
    side keys and one range expansion. With ``how="left"`` a row that
    matches nothing comes once, with null payload."""
    keys, payload = index
    _check_payload(payload.column_names, batch.column_names)
    k, valid = _key_values(batch.column(on))
    lo = np.searchsorted(keys, k, side="left")
    n = np.where(valid, np.searchsorted(keys, k, side="right") - lo, 0)
    n_out = np.maximum(n, 1) if how == "left" else n
    at = pa.array(np.repeat(lo, n_out) + _ramp(n_out), mask=np.repeat(n == 0, n_out))
    out = batch.take(pa.array(np.repeat(np.arange(batch.num_rows), n_out), pa.int64()))
    for field in payload.schema:
        out = out.append_column(field, payload.column(field.name).take(at))
    return out


def _keys_in(
    side: ray.data.Dataset, side_on: str, ds: ray.data.Dataset, ons: List[str]
) -> ray.data.Dataset:
    """The semi-join reduction: ``side``'s rows whose key (``side_on``) is
    one of the distinct values of ``ds``'s key columns ``ons``, in one
    streaming pass over ``side``. ``ds`` is materialized: its keys are
    read from its blocks, with no pass of their own."""
    schema = _arrow_schema(ds)  # None: no rows and no columns
    types = {c: schema.field(c).type if schema else pa.null() for c in ons}
    keys = collect_small(ds, "attach keys", types)
    key_type = types[ons[0]]
    chunks = [k.cast(key_type) for c in ons for k in keys.column(c).chunks]
    ref = ray.put(pc.unique(pa.chunked_array(chunks, key_type)))

    def keep(batch: pa.Table) -> pa.Table:
        col = batch.column(side_on)
        return batch.filter(pc.is_in(col, value_set=ray.get(ref).cast(col.type)))

    return side.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _attach_broadcast(
    ds, side: pa.Table, ends: Dict[str, str], side_on: str, how: str
) -> ray.data.Dataset:
    ref = ray.put(_index(side, side_on))

    def probe(batch: pa.Table) -> pa.Table:
        keys, payload = ray.get(ref)
        for on, sfx in ends.items():
            named = payload.rename_columns([c + sfx for c in payload.column_names])
            batch = _probe((keys, named), batch, on, how)
        return batch

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def _attach_cogroup(ds, side, on: str, side_on: str, how: str) -> ray.data.Dataset:
    """Both sides through one :func:`bucket_map` on the key as a tagged
    union; each bucket probes its ``ds`` rows against its side rows."""
    d_schema = _arrow_schema(ds)
    payload = [f for f in _arrow_schema(side) if f.name != side_on]
    _check_payload([f.name for f in payload], d_schema.names)
    key_type = d_schema.field(on).type

    def tagged(batch: pa.Table, is_side: bool) -> pa.Table:
        n = batch.num_rows
        cols = {f.name: pa.nulls(n, f.type) if is_side else batch.column(f.name) for f in d_schema}
        if is_side:
            cols[on] = batch.column(side_on).cast(key_type)
        for f in payload:
            cols[f.name] = batch.column(f.name) if is_side else pa.nulls(n, f.type)
        cols["_is_side"] = pa.array(np.full(n, is_side))
        return pa.table(cols)

    def join(group: pa.Table) -> pa.Table:
        is_side = group.column("_is_side")
        side_rows = group.filter(is_side).select([on] + [f.name for f in payload])
        ds_rows = group.filter(pc.invert(is_side)).select(d_schema.names)
        return _probe(_index(side_rows, on), ds_rows, on, how)

    both = ds.map_batches(
        tagged, fn_kwargs={"is_side": False}, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        side.map_batches(
            tagged, fn_kwargs={"is_side": True}, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    return bucket_map(both, on, join, pa.schema(list(d_schema) + payload))


def attach(
    ds: ray.data.Dataset,
    side: ray.data.Dataset,
    on: Union[str, Dict[str, str]],
    side_on: str,
    how: str = "inner",
) -> ray.data.Dataset:
    """``ds``'s rows with ``side``'s payload columns (every column but
    ``side_on``), matched N:M on ``ds.on == side.side_on``; null keys
    match nothing. ``how="inner"`` drops a row with no match,
    ``how="left"`` keeps it once with null payload. Payload names must
    not collide with ``ds``'s columns.

    ``on`` may also map several key columns of ``ds`` to a suffix each
    (a pair's two ends, ``{"doc_a": "_a", "doc_b": "_b"}``): every key
    column gets the payload, its names suffixed, as if attached in turn;
    the side is cut and collected once for all of them.

    The one place that picks a join strategy, from observed row counts:

    1. ``ds`` fits (:func:`fits_broadcast`): ``side`` is first cut to
       ``ds``'s distinct keys in one streaming pass (:func:`_keys_in`), so
       only the rows ``ds`` needs are ever materialized.
    2. The (cut) ``side`` fits: it is collected once through
       :func:`collect_small`, sorted by key, and every batch of ``ds``
       probes it (:func:`_probe`): no dict, no per-row lookup.
    3. Else: both co-group through :func:`bucket_map` on the key
       (:func:`_attach_cogroup`), a hash join over a bounded bucket
       count, once per key column."""
    ends = {on: ""} if isinstance(on, str) else dict(on)
    ds = ds.materialize()
    full = side
    if fits_broadcast(ds):
        side = _keys_in(side, side_on, ds, list(ends))
    side = side.materialize()
    # a cut that kept no row has no columns: the payload keeps the side's types
    side_schema = _arrow_schema(side) or _arrow_schema(full)
    if side_schema is None:  # a side with no rows and no columns matches nothing
        return ds if how == "left" else ds.limit(0)
    if fits_broadcast(side):
        side_t = collect_small(side, "attach side", side_schema)
        return _attach_broadcast(ds, side_t, ends, side_on, how)
    payload = [n for n in side_schema.names if n != side_on]
    for key, sfx in ends.items():
        named = side.rename_columns({n: n + sfx for n in payload}) if sfx else side
        ds = _attach_cogroup(ds, named, key, side_on, how)
    return ds


# Propagation rounds :func:`_min_label_propagation` runs before it stops
# short of the fixpoint; pointer doubling needs O(log diameter) of them.
MAX_LABEL_ROUNDS = 64


def _label_checksum(labels: ray.data.Dataset) -> int:
    """Order-independent fixpoint detector over a (node, label) assignment.
    Integer ids (the scale path) use a vectorized splitmix64-style mix
    summed per batch with uint64 wraparound; other ids fall back to
    per-row md5. Each batch reduces to one partial row, and one global
    ``Sum`` folds them: nothing is collected."""

    def h(batch: pa.Table) -> pa.Table:
        node_col, lab_col = batch.column("node"), batch.column("label")
        if pa.types.is_integer(node_col.type):
            n = node_col.to_numpy(zero_copy_only=False).astype(np.uint64)
            l = lab_col.to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                x = n * np.uint64(0x9E3779B97F4A7C15) + np.uint64(1)
                x ^= l * np.uint64(0xD1B54A32D192ED03)
                part = int(_mix64(x).sum(dtype=np.uint64))
        else:
            part = 0
            for nd, lb in zip(node_col.to_pylist(), lab_col.to_pylist()):
                digest = hashlib.md5(f"{nd}|{lb}".encode()).digest()
                part = (part + int.from_bytes(digest[:8], "big")) & 0xFFFFFFFFFFFFFFFF
        # 32-bit halves: their sums over the blocks cannot overflow int64
        return pa.table({"hi": [part >> 32], "lo": [part & 0xFFFFFFFF]})

    sums = labels.map_batches(h, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("hi"), Sum("lo")
    )
    return ((sums["sum(hi)"] << 32) + sums["sum(lo)"]) & 0xFFFFFFFFFFFFFFFF


def _min_label_propagation(
    pairs: ray.data.Dataset, a: str, b: str, stats: Optional[Dict] = None
) -> ray.data.Dataset:
    """:func:`components` for a pair set that does not fit: hash-min label
    propagation with pointer doubling, so the rounds are bounded by
    O(log(component diameter)) rather than the diameter itself. Each
    round sends every node's label along its edges (one :func:`attach` of
    the labels to the edges: a broadcast while the nodes fit, a co-group
    when they do not), keeps each node's minimum candidate (one
    ``groupby().aggregate(Min)``), then jumps each node to its label's
    label (one left :func:`attach` of the labels to themselves). The
    fixpoint is a checksum aggregate over the labels; leaving through
    ``MAX_LABEL_ROUNDS`` without it logs a warning. A ``stats`` dict
    receives ``iterations`` and ``converged``."""

    def to_edges(batch: pa.Table) -> pa.Table:
        x, y = batch.column(a), batch.column(b)
        return pa.concat_tables(
            [pa.table({"src": x, "dst": y}), pa.table({"src": y, "dst": x})]
        ).combine_chunks()

    def to_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column(0), "label": batch.column(1)})

    def min_label(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.groupby("node").aggregate(Min("label")).map_batches(
            to_labels, batch_format="pyarrow", zero_copy_batch=True
        )

    # reused every round; 2x the pair count
    edges = pairs.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True).materialize()
    # the initial label is the minimum over a node and its neighbours
    seeds = edges.map_batches(to_labels, batch_format="pyarrow", zero_copy_batch=True)
    selves = edges.map_batches(
        lambda t: pa.table({"node": t.column("src"), "label": t.column("src")}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # block-count governor: the union and the shuffles of a round would
    # otherwise double the labels' block count every round, exponential
    # task growth that stalls the loop after a few rounds
    n_parts = max(8, edges.num_blocks())
    labels = min_label(seeds.union(selves)).repartition(n_parts).materialize()
    prev = _label_checksum(labels)
    iters, converged = 0, False
    for _ in range(MAX_LABEL_ROUNDS):
        msgs = attach(edges, labels, "src", "node").map_batches(
            lambda t: pa.table({"node": t.column("dst"), "label": t.column("label")}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        propagated = min_label(msgs.union(labels)).materialize()
        # pointer doubling: halves each node's distance to its minimum
        jumps = propagated.rename_columns({"node": "key", "label": "jump"})
        labels = (
            attach(propagated, jumps, "label", "key", "left")
            .map_batches(
                lambda t: pa.table(
                    {"node": t.column("node"), "label": pc.coalesce(t.column("jump"), t.column("label"))}
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .repartition(n_parts)
            .materialize()
        )
        iters += 1
        cur = _label_checksum(labels)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        _LOG.warning(
            "min-label propagation stopped after MAX_LABEL_ROUNDS=%d rounds "
            "without reaching its fixpoint: labels of components with a very "
            "large diameter may not be their minimum",
            MAX_LABEL_ROUNDS,
        )
    if stats is not None:
        stats["iterations"] = iters
        stats["converged"] = converged
    return labels


def components(pairs: ray.data.Dataset, a: str, b: str) -> ray.data.Dataset:
    """Connected components of the graph whose edges are ``pairs``'
    ``(a, b)`` rows: one ``(node, label)`` row per id the pairs name,
    ``label`` being its component's minimum id in Arrow order (numeric
    for integers, code point for strings).

    The one place that picks how components are found, from the pair
    count: pairs that fit (:func:`fits_broadcast`) are collected, mapped
    to dense ids and labelled by ``clustering.connected_components`` on
    the driver; otherwise :func:`_min_label_propagation` resolves them
    without a collect. A pair set with no rows and no columns gives no
    rows of int64 ids."""
    pairs = pairs.materialize()
    if not fits_broadcast(pairs):
        return _min_label_propagation(pairs, a, b)
    schema = _arrow_schema(pairs)  # None: no rows and no columns
    t = collect_small(
        pairs, "pair set", {c: schema.field(c).type if schema else pa.int64() for c in (a, b)}
    )
    ends = t.column(a), t.column(b)
    nodes = pc.unique(pa.chunked_array(ends[0].chunks + ends[1].chunks, ends[0].type))
    nodes = nodes.take(pc.array_sort_indices(nodes))
    a_idx, b_idx = (pc.index_in(e, value_set=nodes).to_numpy() for e in ends)
    label = connected_components(a_idx, b_idx, len(nodes))
    return ray.data.from_arrow(pa.table({"node": nodes, "label": nodes.take(label)}))
