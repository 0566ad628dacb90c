"""Registry-wide empty-corpus contract.

Every ``queries()`` entry must return a (typically empty) result on a
zero-row corpus with the real table schemas — never raise.  The ADVICE
rounds kept surfacing this class (null-typed ``pa.array([])`` in a
semi-join, ``np.repeat`` shape mismatch, schema-less aggregates whose
``to_pandas()`` loses columns).  ``scripts/empty_corpus_sweep.py`` runs
the full registry sweep; this test pins the registered entries that
crashed in the round-5 sweep (the regression surface) so the guards
can't rot.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

# every registered query that crashed in the round-5 empty-corpus sweep
# (schema-less aggregate collects, empty query-vector selection, float64
# np.char.add, empty np.stack, int(None) aggregate scalars)
CRASHED_R5 = [
    "ann_brute",
    "ann_ivf",
    "apportion_quota",
    "backoff_surprisal",
    "bigram_surprisal",
    "chi2_assoc",
    "fold_leakage",
    "gini_concentration",
    "keyness",
    "length_buckets",
    "novelty_score",
    "pq_search",
    "prefix_filter_pairs",
    "prefix_filter_verified",
    "quality_audit",
    "quota_sample",
    "robust_scale",
    "semantic_dedup",
    "spearman_corr",
    "temperature_mix",
    "term_coverage",
    "token_budget_select",
    "weighted_median",
]

# every registered query that crashed in the round-5 SINGLE-ROW sweep
# (n=1): the n<k PQ codebook init, eval-split-empties-the-train-side
# embedding staging, and schema-carrying zero-row object-store blocks
CRASHED_R5_ONE_ROW = [
    "embedding_near_dup",
    "knn_graph",
    "mutual_knn",
    "pq_encode",
    "pq_search",
    "semantic_decontaminate",
    "semantic_families",
]

SRC = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def empty_corpus(tmp_path_factory):
    dst = tmp_path_factory.mktemp("sf_empty")
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".parquet"):
            sch = pq.read_schema(os.path.join(SRC, f))
            pq.write_table(sch.empty_table(), str(dst / f))
    return str(dst)


def _n_rows(out) -> int:
    if isinstance(out, ray.data.Dataset):
        return out.count()
    if isinstance(out, pa.Table):
        return out.num_rows
    return len(out)


@pytest.mark.parametrize("name", CRASHED_R5)
def test_query_survives_empty_corpus(ray_session, empty_corpus, name):
    import __ray_entry__ as e

    out = e.queries()[name](empty_corpus)
    # report-style ops may legitimately emit a few summary rows
    # (grand-total rollup row, zeroed coverage rows); the contract is
    # "no crash, bounded output", not "zero rows"
    assert _n_rows(out) <= 10


@pytest.fixture(scope="module")
def one_row_corpus(tmp_path_factory):
    dst = tmp_path_factory.mktemp("sf_one")
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(SRC, f))
            pq.write_table(t.slice(0, 1), str(dst / f))
    return str(dst)


@pytest.mark.parametrize("name", CRASHED_R5_ONE_ROW)
def test_query_survives_one_row_corpus(ray_session, one_row_corpus, name):
    import __ray_entry__ as e

    out = e.queries()[name](one_row_corpus)
    assert _n_rows(out) <= 10
