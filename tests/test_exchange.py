"""The bounded exchanges: the in-bucket kernel against a brute-force
oracle, the ``bucket_map`` co-group contract, the bounded group count of
the MinHash and SimHash shuffles, the guarded small collect, which is
the only way a report-sized side reaches the driver from ``pipelines/``,
and ``attach``, whose three strategies must agree with a brute-force
join. AST guards keep every bucket hash, bucket count, driver collect and
join-strategy choice inside ``exchange.py``."""

import ast
import inspect
import itertools
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data
from ray.data.aggregate import Sum

from pdfplumber_ray.pipelines import analytics as an
from pdfplumber_ray.pipelines import corpus_ops as co
from pdfplumber_ray.pipelines import exchange
from pdfplumber_ray.pipelines.exchange import (
    N_EXCHANGE_BUCKETS,
    capped_pairs,
    run_pairs,
    segment_runs,
    star_pairs,
)

# (keys, ids) cases: empty, one row, all-singleton keys, one hot key,
# mixed run sizes, duplicate ids in a run, string keys and ids
CASES = {
    "empty": ([], []),
    "one_row": ([7], [3]),
    "all_singletons": ([5, 1, 4, 2, 3], [10, 11, 12, 13, 14]),
    "one_hot_key": ([9] * 12, list(range(12, 0, -1))),
    "mixed_sizes": (
        [3, 1, 3, 2, 1, 3, 4, 2, 3, 1, 5, 3],
        [8, 2, 6, 4, 9, 1, 0, 3, 5, 7, 11, 10],
    ),
    "duplicate_ids": ([1, 1, 1, 2, 2, 1], [4, 2, 4, 6, 6, 2]),
    "strings": (["b", "a", "b", "c", "a", "b"], ["x", "z", "y", "w", "u", "v"]),
}


def _runs(keys, ids):
    """Brute force: each key's ids in ascending order, keys ascending."""
    by_key = {}
    for k, i in zip(keys, ids):
        by_key.setdefault(k, []).append(i)
    return [sorted(by_key[k]) for k in sorted(by_key)]


def _kernel(keys, ids):
    keys = np.asarray(keys, dtype=object if keys and isinstance(keys[0], str) else None)
    ids = np.asarray(ids, dtype=object if ids and isinstance(ids[0], str) else None)
    order, starts, lengths = segment_runs(keys, ids)
    return ids[order], starts, lengths


def _as_pairs(ids_sorted, i, j):
    return sorted(zip(ids_sorted[i].tolist(), ids_sorted[j].tolist()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_segment_runs_match_brute_force(case):
    keys, ids = CASES[case]
    ids_s, starts, lengths = _kernel(keys, ids)
    got = [ids_s[s : s + n].tolist() for s, n in zip(starts, lengths)]
    assert got == _runs(keys, ids)
    assert int(np.sum(lengths)) == len(keys)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_pairs_equal_combinations(case):
    keys, ids = CASES[case]
    ids_s, starts, lengths = _kernel(keys, ids)
    want = sorted(
        p for run in _runs(keys, ids) for p in itertools.combinations(run, 2)
    )
    assert _as_pairs(ids_s, *run_pairs(starts, lengths)) == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_star_pairs_are_min_id_times_rest(case):
    keys, ids = CASES[case]
    ids_s, starts, lengths = _kernel(keys, ids)
    want = sorted((run[0], x) for run in _runs(keys, ids) for x in run[1:])
    assert _as_pairs(ids_s, *star_pairs(starts, lengths, "test", 1)) == want


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_truncated_and_dropped_lengths(cap):
    keys, ids = CASES["mixed_sizes"]
    runs = _runs(keys, ids)
    ids_s, starts, lengths = _kernel(keys, ids)
    # keep the first `cap` rows of each run
    want = sorted(p for r in runs for p in itertools.combinations(r[:cap], 2))
    got = run_pairs(starts, np.minimum(lengths, cap))
    assert _as_pairs(ids_s, *got) == want
    # drop runs longer than `cap`
    ok = lengths <= cap
    want = sorted(
        p for r in runs if len(r) <= cap for p in itertools.combinations(r, 2)
    )
    assert _as_pairs(ids_s, *run_pairs(starts[ok], lengths[ok])) == want
    # star above `cap`, all pairs up to it
    want = sorted(
        p
        for r in runs
        for p in (
            itertools.combinations(r, 2)
            if len(r) <= cap
            else ((r[0], x) for x in r[1:])
        )
    )
    assert _as_pairs(ids_s, *capped_pairs(starts, lengths, cap, "test")) == want


def _synthetic_docs(n: int) -> pa.Table:
    rng = np.random.default_rng(0)
    vocab = np.array([f"w{i}" for i in range(5000)])
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(
                [" ".join(rng.choice(vocab, 40)) for _ in range(n)], pa.string()
            ),
        }
    )


def _n_buckets(key: pa.Array) -> int:
    return len(np.unique(exchange._hash_bucket_column(key, N_EXCHANGE_BUCKETS)))


def test_minhash_and_simhash_shuffle_on_bounded_buckets():
    """MinHash band rows and SimHash chunk rows shuffle through
    ``bucket_map`` on their keys, whose buckets number at most
    ``N_EXCHANGE_BUCKETS`` although the keys (band keys, chunk keys) far
    outnumber it."""
    for fn in (co.minhash_pairs_ds, co.simhash_pairs_ds):
        src = inspect.getsource(fn)
        assert "bucket_map(" in src
        assert 'groupby("band_key")' not in src and 'groupby("bucket")' not in src
    docs = _synthetic_docs(2000)
    bands = co._MinHashBandStage(
        num_perm=64, bands=64, shingle_k=5, text_col="text", id_col="doc_id"
    )(docs)
    assert _n_buckets(bands.column("band_key")) <= N_EXCHANGE_BUCKETS
    assert len(np.unique(bands.column("band_key").to_numpy(False))) > N_EXCHANGE_BUCKETS

    chunks = co._simhash_chunk_rows(docs, "text", "doc_id")
    assert _n_buckets(chunks.column("bucket")) <= N_EXCHANGE_BUCKETS
    assert len(np.unique(chunks.column("bucket").to_numpy())) > N_EXCHANGE_BUCKETS


SCHEMA = pa.schema({"k": pa.int32(), "n": pa.int64()})


def _assert_typed(ds: ray.data.Dataset, schema: pa.Schema) -> list:
    """``ds`` has ``schema``: its first block (the typed anchor) and every
    block with columns carry it. A Ray map over a zero-row input block
    emits a column-less zero-row block, which the anchor outranks."""
    blocks = ray.get(ds.to_arrow_refs())
    assert ds.schema().names == schema.names
    assert list(ds.schema().types) == list(schema.types)
    assert blocks[0].schema == schema
    assert all(b.schema == schema for b in blocks if b.num_columns)
    assert all(b.num_rows == 0 for b in blocks if not b.num_columns)
    return blocks


@pytest.mark.parametrize(
    "ds",
    [
        lambda: _rows(0),
        lambda: _rows(10).filter(expr="k < 0"),
        lambda: ray.data.range(0).rename_columns({"id": "k"}),
    ],
    ids=["zero_row_block", "filtered_out", "no_blocks"],
)
def test_bucket_map_empty_input_is_typed(ray_session, ds):
    def count_rows(group: pa.Table) -> pa.Table:
        return pa.table({"k": group.column("k"), "n": np.arange(group.num_rows)})

    out = exchange.bucket_map(ds(), "k", count_rows, SCHEMA).materialize()
    assert out.count() == 0
    _assert_typed(out, SCHEMA)


def test_bucket_map_all_empty_buckets_keep_columns(ray_session):
    out = exchange.bucket_map(
        _rows(100).repartition(5), "k", lambda group: pa.table({}), SCHEMA
    ).materialize()
    assert out.count() == 0
    _assert_typed(out, SCHEMA)


def test_bucket_map_selects_and_casts_to_schema(ray_session):
    """An extra column is dropped and int64 narrows to int32; the key
    column reaches ``fn`` without the bucket column."""
    seen = []

    def fn(group: pa.Table) -> pa.Table:
        seen.append(group.column_names)
        return pa.table(
            {"extra": group.column("v"), "n": np.full(group.num_rows, 2), "k": group["k"]}
        )

    out = exchange.bucket_map(_rows(50).repartition(3), "k", fn, SCHEMA).materialize()
    blocks = _assert_typed(out, SCHEMA)
    got = pa.concat_tables(blocks)
    assert sorted(got.column("k").to_pylist()) == list(range(50))
    assert set(got.column("n").to_pylist()) == {2}


@pytest.mark.parametrize(
    "keys",
    [
        pa.array([f"key{i % 200}" for i in range(600)], pa.string()),
        pa.array([i % 200 for i in range(600)], pa.int64()),
        pa.array([2**63 + 977 * (i % 200) for i in range(600)], pa.uint64()),
    ],
    ids=["string", "int64", "uint64"],
)
def test_bucket_map_groups_whole_keys_into_bounded_buckets(
    ray_session, monkeypatch, keys
):
    """Each bucket holds whole key runs, and there are at most
    ``N_EXCHANGE_BUCKETS`` buckets, read at call time."""
    monkeypatch.setattr(exchange, "N_EXCHANGE_BUCKETS", 7)

    def fn(group: pa.Table) -> pa.Table:
        keys = pc.unique(group.column("key"))
        first = pc.min(group.column("key")).as_py()
        return pa.table({"key": keys, "bucket": [str(first)] * len(keys)})

    ds = ray.data.from_arrow(pa.table({"key": keys})).repartition(4)
    got = exchange.collect_small(
        exchange.bucket_map(ds, "key", fn, {"key": keys.type, "bucket": pa.string()}),
        "buckets",
    )
    assert got.num_rows == 200  # every key reaches exactly one bucket
    assert len(set(got.column("bucket").to_pylist())) <= 7


def _rows(n):
    return ray.data.from_arrow(
        pa.table({"k": pa.array(range(n), pa.int64()), "v": pa.array([1.5] * n)})
    )


def test_collect_small_under_limit(ray_session, monkeypatch):
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 5)
    got = exchange.collect_small(_rows(5), "side", {"k": pa.int32()})
    assert got.schema == pa.schema({"k": pa.int32()})
    assert sorted(got.column("k").to_pylist()) == [0, 1, 2, 3, 4]
    assert sorted(exchange.collect_small(_rows(5), "side").column("k").to_pylist()) == [
        0, 1, 2, 3, 4
    ]


def test_collect_small_one_over_limit_raises(ray_session, monkeypatch):
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 5)
    assert exchange.fits_broadcast(_rows(5).materialize())
    assert not exchange.fits_broadcast(_rows(6).materialize())
    with pytest.raises(ValueError, match=r"test side \(6 rows\) exceeds MAX_BROADCAST_ROWS=5"):
        exchange.collect_small(_rows(6), "test side", {"k": pa.int64()})


def test_collect_small_empty_aggregate_keeps_typed_columns(ray_session):
    agg = _rows(0).groupby("k").aggregate(Sum("v"))
    assert agg.materialize().schema() is None  # Ray derives no schema here
    got = exchange.collect_small(agg, "side", {"k": pa.int64(), "sum(v)": pa.float64()})
    assert got.num_rows == 0
    assert got.schema == pa.schema({"k": pa.int64(), "sum(v)": pa.float64()})
    assert got.column("k").to_numpy().dtype == np.int64


def test_collect_small_runs_upstream_once(ray_session):
    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1

        def get(self):
            return self.n

    counter = Counter.remote()

    def tag(batch: pa.Table) -> pa.Table:
        ray.get(counter.bump.remote())
        return batch

    ds = _rows(3).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    assert exchange.collect_small(ds, "side", {"k": pa.int64()}).num_rows == 3
    # the tagged stage ran exactly once (one block in this tiny input)
    assert ray.get(counter.get.remote()) == 1


PIPELINES = os.path.dirname(exchange.__file__)
# the unguarded pandas collect helpers that collect_small replaced
GONE = ("_small_df", "_ensure_cols")


def _is_collect_small(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "collect_small"
    )


def _pipeline_trees():
    for f in sorted(os.listdir(PIPELINES)):
        if f.endswith(".py"):
            yield f, ast.parse(open(os.path.join(PIPELINES, f)).read())


def test_driver_collects_go_through_collect_small():
    """No unguarded pandas collect helper in ``pipelines/``, no
    ``take_all()`` outside ``exchange.py``, and every ``to_pandas()`` is
    chained on a ``collect_small(...)`` result."""
    bad = []
    for f, tree in _pipeline_trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef) and n.name in GONE:
                bad.append(f"{f}:{n.lineno} defines {n.name}")
            elif isinstance(n, ast.ImportFrom):
                bad += [
                    f"{f}:{n.lineno} imports {a.name}"
                    for a in n.names
                    if a.name in GONE
                ]
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                if n.func.attr == "take_all" and f != "exchange.py":
                    bad.append(f"{f}:{n.lineno} take_all()")
                if n.func.attr == "to_pandas" and not _is_collect_small(n.func.value):
                    bad.append(f"{f}:{n.lineno} to_pandas() off collect_small")
    assert bad == []


BUCKET_COLUMN = re.compile(r"^[a-z]*bkt\d*$")
COUNT_PARAMS = ("n_buckets", "n_hash_buckets")
# the one operator whose bucket count is semantic: it sets the packing
# plan that the pack_sequences oracle checks
SEMANTIC_COUNTS = {"pack_sequences_ds"}


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_exchange_owns_bucket_hash_and_count():
    """Outside ``exchange.py``, ``pipelines/`` has no ``map_groups`` on a
    bucket column, no bucket hash (``_mix64``, ``_hash_bucket_column``),
    no ``% n_buckets``, no bucket-count parameter (but the semantic one of
    ``pack_sequences_ds``) and no ``_anchor_schema`` of its own: every
    hash-bucketed co-group goes through ``exchange.bucket_map``."""
    bad = []
    for f, tree in _pipeline_trees():
        if f == "exchange.py":
            continue
        module_level = set(map(id, tree.body))
        for n in ast.walk(tree):
            where = f"{f}:{getattr(n, 'lineno', '?')}"
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                grouped = n.func.value
                if (
                    n.func.attr == "map_groups"
                    and isinstance(grouped, ast.Call)
                    and getattr(grouped.func, "attr", None) == "groupby"
                    and grouped.args
                    and isinstance(grouped.args[0], ast.Constant)
                    and BUCKET_COLUMN.match(str(grouped.args[0].value))
                ):
                    bad.append(f"{where} map_groups on {grouped.args[0].value}")
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in (
                "_mix64",
                "_hash_bucket_column",
            ):
                bad.append(f"{where} calls {n.func.id}")
            if (
                isinstance(n, ast.BinOp)
                and isinstance(n.op, ast.Mod)
                and _names(n.right) & set(COUNT_PARAMS)
            ):
                bad.append(f"{where} % bucket count")
            if isinstance(n, ast.FunctionDef):
                if n.name == "_anchor_schema":
                    bad.append(f"{where} defines _anchor_schema")
                if n.name not in SEMANTIC_COUNTS:
                    bad += [
                        f"{where} {n.name}({a.arg})"
                        for a in n.args.args + n.args.kwonlyargs
                        if a.arg in COUNT_PARAMS
                    ]
            if isinstance(n, ast.ImportFrom) and id(n) not in module_level:
                bad += [
                    f"{where} imports {a.name} inside a function"
                    for a in n.names
                    if a.name == "_anchor_schema"
                ]
    assert bad == []


def _kmv_docs():
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["a b c d", "a b c e"]),
                "source": pa.array(["s0", "s1"]),
            }
        )
    )


def _budget_docs():
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "n_chars": pa.array([5, 7], pa.int64()),
                "text": pa.array(["a b", "c d e"]),
            }
        )
    )


@pytest.mark.parametrize(
    "run, what",
    [
        (lambda: an.kmv_intersection_ds(_kmv_docs()), "per-block source sketches"),
        (lambda: co.token_budget_select_ds(_budget_docs()), "score classes"),
    ],
    ids=["kmv_intersection", "token_budget_select"],
)
def test_report_collect_obeys_row_limit(ray_session, monkeypatch, run, what):
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 0)
    msg = rf"{what} \(\d+ rows\) exceeds MAX_BROADCAST_ROWS=0"
    with pytest.raises(ValueError, match=msg):
        run()


# ---- Ray never calls a map UDF on a zero-row batch ------------------------


def _refuse_empty():
    """A pass-through UDF that raises on a zero-row batch (made inside a
    function, so the workers get it by value, not by module name)."""

    def refuse(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            raise AssertionError("a map UDF was called on a zero-row batch")
        return batch

    return refuse


def _blocks_with_empties() -> ray.data.Dataset:
    """Four blocks, two of them zero-row: ``k`` 0..5 in two real blocks."""
    t = pa.table({"k": pa.array(range(6), pa.int64()), "g": pa.array([0, 1] * 3)})
    empty = t.schema.empty_table()
    return ray.data.from_arrow([empty, t.slice(0, 3), empty, t.slice(3)])


EMPTY_INPUTS = {
    "empty_blocks": _blocks_with_empties,
    "filtered_out": lambda: _blocks_with_empties().filter(expr="k < 0"),
    "zero_row_table": lambda: ray.data.from_arrow(
        pa.schema({"k": pa.int64(), "g": pa.int64()}).empty_table()
    ),
}


@pytest.mark.parametrize("batch_size", [None, "default"], ids=["whole_block", "default"])
@pytest.mark.parametrize("make", list(EMPTY_INPUTS.values()), ids=list(EMPTY_INPUTS))
def test_map_batches_never_calls_udf_on_zero_rows(ray_session, make, batch_size):
    """The contract that lets ``pipelines/`` UDFs skip a zero-row branch:
    Ray 2.49's ``map_batches`` passes a zero-row block through without
    calling the UDF (``plan_udf_map_op.py``), and its batcher drops empty
    blocks. A Ray upgrade that drops the behaviour fails here."""
    # the input does hold zero-row blocks
    assert 0 in {b.num_rows for b in ray.get(make().to_arrow_refs())}
    ds = make().map_batches(
        _refuse_empty(), batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
    got = sorted(r["k"] for r in ds.take_all())
    assert got == (list(range(6)) if make is _blocks_with_empties else [])


@pytest.mark.parametrize("make", list(EMPTY_INPUTS.values()), ids=list(EMPTY_INPUTS))
def test_map_groups_never_calls_udf_on_zero_rows(ray_session, make):
    ds = make().groupby("g").map_groups(_refuse_empty(), batch_format="pyarrow")
    got = sorted(r["k"] for r in ds.take_all())
    assert got == (list(range(6)) if make is _blocks_with_empties else [])


@pytest.mark.parametrize("make", list(EMPTY_INPUTS.values()), ids=list(EMPTY_INPUTS))
def test_udf_after_aggregate_never_sees_zero_rows(ray_session, make):
    """A finisher mapped over ``groupby().aggregate()`` output, which is
    schema-less when its input is empty, is not called on that output."""
    ds = (
        make()
        .groupby("g")
        .aggregate(Sum("k"))
        .map_batches(_refuse_empty(), batch_format="pyarrow", zero_copy_batch=True)
    )
    got = sorted(r["sum(k)"] for r in ds.take_all())
    assert got == ([6, 9] if make is _blocks_with_empties else [])


# every call that hands a UDF to a Ray map, and the argument index of the UDF
MAP_CALLS = {"map_batches": 0, "map_groups": 0, "bucket_map": 2, "stage_map_batches": 1}
ENTRY = os.path.join(os.path.dirname(PIPELINES), os.pardir, "__ray_entry__.py")


def _defs_by_scope(tree):
    """Each function def (and module) -> the defs made directly in it."""
    scopes = {}

    def visit(node, scope):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, ast.FunctionDef):
                scopes.setdefault(scope, {}).setdefault(ch.name, ch)
                visit(ch, ch)
            else:
                visit(ch, scope)

    visit(tree, tree)
    return scopes


def _map_udfs(tree):
    """The function defs that ``tree`` passes to a Ray map: a name bound
    by a def in an enclosing scope, or the inner def a factory returns."""
    scopes = _defs_by_scope(tree)
    found = {}

    def resolve(name, chain):
        for scope in reversed(chain):
            if name in scopes.get(scope, {}):
                return scopes[scope][name]
        return None

    def visit(node, chain):
        for ch in ast.iter_child_nodes(node):
            inner = chain + [ch] if isinstance(ch, ast.FunctionDef) else chain
            if isinstance(ch, ast.Call):
                attr = getattr(ch.func, "attr", getattr(ch.func, "id", None))
                i = MAP_CALLS.get(attr)
                arg = ch.args[i] if i is not None and len(ch.args) > i else None
                if isinstance(arg, ast.Name):
                    fn = resolve(arg.id, chain)
                    if fn is not None:
                        found[id(fn)] = fn
                elif isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
                    factory = resolve(arg.func.id, chain)
                    for st in factory.body if factory is not None else []:
                        if isinstance(st, ast.Return) and isinstance(st.value, ast.Name):
                            fn = scopes.get(factory, {}).get(st.value.id)
                            if fn is not None:
                                found[id(fn)] = fn
            visit(ch, inner)

    visit(tree, [tree])
    return list(found.values())


def _zero_row_tests(fn):
    """Lines of ``if`` statements at the head of ``fn`` (before its first
    argument is rebound) that test that argument for zero rows."""
    arg = fn.args.args[0].arg
    dead = {f"{arg}.num_rows == 0", f"len({arg}) == 0", f"not {arg}.num_rows"}
    hits = []
    for st in fn.body:
        if isinstance(st, ast.If) and any(
            ast.unparse(n) in dead for n in ast.walk(st.test)
        ):
            hits.append(st.lineno)
        if any(
            isinstance(n, ast.Name) and n.id == arg and isinstance(n.ctx, ast.Store)
            for n in ast.walk(st)
        ):
            break
    return hits


def test_map_udfs_write_no_zero_row_branch():
    """No UDF that ``pipelines/`` or ``__ray_entry__.py`` hands to
    ``map_batches``, ``map_groups``, ``bucket_map`` or
    ``stage_map_batches`` tests its input batch for zero rows: Ray never
    calls it with one (``test_map_batches_never_calls_udf_on_zero_rows``),
    and typed empty output comes from ``bucket_map``, ``collect_small``
    and ``_typed_result``."""
    trees = list(_pipeline_trees()) + [
        ("__ray_entry__.py", ast.parse(open(ENTRY).read()))
    ]
    bad = []
    n_udfs = 0
    for f, tree in trees:
        for fn in _map_udfs(tree):
            n_udfs += 1
            bad += [f"{f}:{line} {fn.name}" for line in _zero_row_tests(fn)]
    assert n_udfs > 300  # the scan still finds the map UDFs
    assert bad == []


# ---------- the one guarded attach ----------

# (ds keys, side keys): duplicates on both sides, a key only in ds and a
# key only in the side, null keys, no common key, an empty side. ``ds``
# has more rows than the side, so each path below can be forced.
ATTACH_CASES = {
    "dup_both_sides": ([1, 1, 2, 3, None, 4, 4], [1, 1, 2, 9, None, 9]),
    "no_common_key": ([1, 2, 2, 8, 8], [5, 6, 7, 7]),
    "empty_side": ([1, 2, 2], []),
}


def _attach_sides(case, key_type):
    ds_keys, side_keys = ATTACH_CASES[case]
    as_key = {
        "int": lambda k: k,
        "string": lambda k: None if k is None else f"k{k}",
        # keys that differ only by trailing NULs stay distinct
        "nul_string": lambda k: None if k is None else "k" + "\x00" * k,
    }[key_type]
    typ = pa.int64() if key_type == "int" else pa.string()
    ds = pa.table(
        {
            "k": pa.array([as_key(k) for k in ds_keys], typ),
            "lv": pa.array([f"l{i}" for i in range(len(ds_keys))]),
        }
    )
    side = pa.table(
        {
            "rk": pa.array([as_key(k) for k in side_keys], typ),
            "rv": pa.array(range(len(side_keys)), pa.int64()),
        }
    )
    return ds, side


def _brute_attach(ds, side, how):
    out = []
    for k, lv in zip(ds["k"].to_pylist(), ds["lv"].to_pylist()):
        pairs = zip(side["rk"].to_pylist(), side["rv"].to_pylist())
        hits = [rv for rk, rv in pairs if k is not None and rk == k]
        out += [(k, lv, rv) for rv in hits] or ([(k, lv, None)] if how == "left" else [])
    return sorted(out, key=repr)


# MAX_BROADCAST_ROWS for each path, as a function of (ds rows, side
# rows), and the strategy functions that path calls
ATTACH_PATHS = {
    "cut_then_broadcast": (lambda n_ds, n_side: n_ds + n_side, {"_keys_in", "_attach_broadcast"}),
    "broadcast": (lambda n_ds, n_side: n_side, {"_attach_broadcast"}),
    "cogroup": (lambda n_ds, n_side: -1, {"_attach_cogroup"}),
}


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("key_type", ["int", "string", "nul_string"])
@pytest.mark.parametrize("case", sorted(ATTACH_CASES))
def test_attach_paths_agree(ray_session, monkeypatch, case, key_type, how):
    """Broadcast after the semi-join reduction, broadcast of the whole side
    and co-group give the same rows as a brute-force N:M join."""
    ds_t, side_t = _attach_sides(case, key_type)
    assert ds_t.num_rows > side_t.num_rows
    want = _brute_attach(ds_t, side_t, how)
    for path, (limit, expected) in ATTACH_PATHS.items():
        calls = set()
        with monkeypatch.context() as m:
            for name in ("_keys_in", "_attach_broadcast", "_attach_cogroup"):
                real = getattr(exchange, name)
                spy = lambda *a, _r=real, _n=name, **k: calls.add(_n) or _r(*a, **k)
                m.setattr(exchange, name, spy)
            m.setattr(exchange, "MAX_BROADCAST_ROWS", limit(ds_t.num_rows, side_t.num_rows))
            out = exchange.attach(
                ray.data.from_arrow(ds_t), ray.data.from_arrow(side_t), "k", "rk", how
            ).take_all()
        assert calls == expected, path
        got = sorted(((r["k"], r["lv"], r["rv"]) for r in out), key=repr)
        assert got == want, path


@pytest.mark.parametrize("how", ["inner", "left"])
def test_attach_several_keys(ray_session, monkeypatch, how):
    """A key-to-suffix map gives each key column the side's payload under
    its suffix, as attaching to each key in turn would, on every path."""
    ds_t = pa.table({"a": [1, 2, 2, None, 5], "b": [2, 9, 1, 1, 5]})
    side_t = pa.table({"id": [1, 2, 2, 5], "v": ["x", "y", "z", "w"]})
    side_rows = list(zip(side_t["id"].to_pylist(), side_t["v"].to_pylist()))
    want = []
    for a, b in zip(ds_t["a"].to_pylist(), ds_t["b"].to_pylist()):
        va, vb = ([v for k, v in side_rows if k is not None and k == key] for key in (a, b))
        if how == "left":
            va, vb = va or [None], vb or [None]
        want += [(a, b, x, y) for x in va for y in vb]
    for path, (limit, _) in ATTACH_PATHS.items():
        with monkeypatch.context() as m:
            m.setattr(exchange, "MAX_BROADCAST_ROWS", limit(ds_t.num_rows, side_t.num_rows))
            out = exchange.attach(
                ray.data.from_arrow(ds_t),
                ray.data.from_arrow(side_t),
                {"a": "_a", "b": "_b"},
                "id",
                how,
            ).take_all()
        got = [(r["a"], r["b"], r["v_a"], r["v_b"]) for r in out]
        assert sorted(got, key=repr) == sorted(want, key=repr), path


# the join helpers that exchange.attach replaced
GONE_JOINS = ("hash_join_ds", "broadcast_join_ds", "_attach_labels_cogroup", "_semi_join_collect")
# the compute-strategy choice (not an attach) that may ask fits_broadcast
FITS_BROADCAST_CALLERS = {"substring_strip_ds"}
PACKAGE = os.path.dirname(PIPELINES)


def _package_trees():
    for root, _, files in os.walk(PACKAGE):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                yield os.path.relpath(path, PACKAGE), ast.parse(open(path).read())
    yield "__ray_entry__.py", ast.parse(open(ENTRY).read())


def test_attach_is_the_one_join():
    """No join helper but ``exchange.attach`` is defined, and outside
    ``exchange.py`` only the one compute-strategy choice,
    ``substring_strip_ds``, calls ``fits_broadcast``: every attach picks its strategy in one place."""
    bad = []
    for f, tree in _package_trees():
        for top in tree.body:
            for n in ast.walk(top):
                if isinstance(n, ast.FunctionDef) and n.name in GONE_JOINS:
                    bad.append(f"{f}:{n.lineno} defines {n.name}")
                if (
                    isinstance(n, ast.Call)
                    and getattr(n.func, "id", getattr(n.func, "attr", None)) == "fits_broadcast"
                    and f != os.path.join("pipelines", "exchange.py")
                    and getattr(top, "name", None) not in FITS_BROADCAST_CALLERS
                ):
                    caller = getattr(top, "name", "<module>")
                    bad.append(f"{f}:{n.lineno} fits_broadcast in {caller}")
    assert bad == []


# the components helpers that exchange.components and its attach loop replaced
GONE_COMPONENTS = ("_label_shortcut", "_segment_min_lab")


def test_components_is_the_one_resolution():
    """Families resolve only through ``exchange.components``: the old
    propagation helpers are gone, only ``components`` calls the
    distributed loop, and no function defines its own nested
    ``find``/``union`` union-find."""
    bad = []
    for f, tree in _package_trees():
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            for n in ast.walk(top):
                if isinstance(n, ast.FunctionDef) and n.name in GONE_COMPONENTS:
                    bad.append(f"{f}:{n.lineno} defines {n.name}")
                if (
                    isinstance(n, ast.Call)
                    and getattr(n.func, "id", getattr(n.func, "attr", None)) == "_min_label_propagation"
                    and (f, name) != (os.path.join("pipelines", "exchange.py"), "components")
                ):
                    bad.append(f"{f}:{n.lineno} _min_label_propagation in {name}")
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(n):
                        if (
                            inner is not n
                            and isinstance(inner, ast.FunctionDef)
                            and inner.name in ("find", "union")
                        ):
                            bad.append(f"{f}:{inner.lineno} {name} nests {inner.name}")
    assert bad == []


def test_no_map_groups_in_sources_or_driver():
    """``sources/`` and ``__ray_entry__.py`` group rows only through
    ``exchange.bucket_map``: no ``map_groups`` of their own."""
    bad = [
        f"{f}:{n.lineno}"
        for f, tree in _package_trees()
        if f.startswith("sources") or f == "__ray_entry__.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "map_groups"
    ]
    assert bad == []


def test_one_tokenizer_and_window_kernel():
    """Whitespace tokens come from ``textstats.ws_tokens`` and k-token
    windows from ``textstats.token_windows``: no ``.split(" ")`` call in
    ``pipelines/`` or ``__ray_entry__.py``, and no ``np.char.add``
    string building in ``pipelines/``."""
    trees = list(_pipeline_trees()) + [
        ("__ray_entry__.py", ast.parse(open(ENTRY).read()))
    ]
    bad = []
    for f, tree in trees:
        for n in ast.walk(tree):
            if (
                isinstance(n, ast.Call)
                and getattr(n.func, "attr", None) == "split"
                and [ast.unparse(a) for a in n.args] == ["' '"]
            ):
                bad.append(f"{f}:{n.lineno} .split(' ')")
            if (
                f != "__ray_entry__.py"
                and isinstance(n, ast.Attribute)
                and ast.unparse(n) == "np.char.add"
            ):
                bad.append(f"{f}:{n.lineno} np.char.add")
    assert bad == []
