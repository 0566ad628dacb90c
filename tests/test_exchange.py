"""The bounded exchanges: the in-bucket kernel against a brute-force
oracle, the bounded group count of the MinHash and SimHash shuffles, and
the guarded small collect, which is the only way a report-sized side
reaches the driver from ``pipelines/``."""

import ast
import inspect
import itertools
import os

import numpy as np
import pyarrow as pa
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


def test_minhash_and_simhash_shuffle_on_bounded_buckets():
    """MinHash band rows and SimHash chunk rows shuffle on a bucket column
    with at most ``N_EXCHANGE_BUCKETS`` values, although their keys
    (band keys, chunk keys) far outnumber it."""
    for fn in (co.minhash_pairs_ds, co.simhash_pairs_ds):
        src = inspect.getsource(fn)
        assert 'groupby("bkt")' in src
        assert 'groupby("band_key")' not in src and 'groupby("bucket")' not in src
    docs = _synthetic_docs(2000)
    bands = co._MinHashBandStage(
        num_perm=64, bands=64, shingle_k=5, text_col="text", id_col="doc_id"
    )(docs)
    assert len(np.unique(bands.column("bkt").to_numpy())) <= N_EXCHANGE_BUCKETS
    assert len(np.unique(bands.column("band_key").to_numpy(False))) > N_EXCHANGE_BUCKETS

    chunks = co._simhash_chunk_rows(docs, "text", "doc_id")
    assert len(np.unique(chunks.column("bkt").to_numpy())) <= N_EXCHANGE_BUCKETS
    assert len(np.unique(chunks.column("bucket").to_numpy())) > N_EXCHANGE_BUCKETS


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


def test_driver_collects_go_through_collect_small():
    """No unguarded pandas collect helper in ``pipelines/``, no
    ``take_all()`` in ``analytics`` or ``main_content``, and every
    ``to_pandas()`` is chained on a ``collect_small(...)`` result."""
    bad = []
    for f in sorted(os.listdir(PIPELINES)):
        if not f.endswith(".py"):
            continue
        for n in ast.walk(ast.parse(open(os.path.join(PIPELINES, f)).read())):
            if isinstance(n, ast.FunctionDef) and n.name in GONE:
                bad.append(f"{f}:{n.lineno} defines {n.name}")
            elif isinstance(n, ast.ImportFrom):
                bad += [
                    f"{f}:{n.lineno} imports {a.name}"
                    for a in n.names
                    if a.name in GONE
                ]
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                if n.func.attr == "take_all" and f in ("analytics.py", "main_content.py"):
                    bad.append(f"{f}:{n.lineno} take_all()")
                if n.func.attr == "to_pandas" and not _is_collect_small(n.func.value):
                    bad.append(f"{f}:{n.lineno} to_pandas() off collect_small")
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
