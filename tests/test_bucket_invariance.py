"""Every operator that co-groups through ``exchange.bucket_map`` gives the
same rows and the same schema at any bucket count.

This is what lets no operator take a bucket count of its own: each case
runs once at the default ``N_EXCHANGE_BUCKETS`` and once each at 2 and 7
buckets, on a small seeded corpus with planted exact, near and
substring duplicates (the extraction sources and queries on the sf0.001
test data). ``test_cases_cover_every_bucket_map_caller`` keeps
the case table in step with the package."""

import ast
import inspect

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

import __ray_entry__ as E
from pdfplumber_ray.pipelines import analytics as an
from pdfplumber_ray.pipelines import corpus_ops as co
from pdfplumber_ray.pipelines import exchange
from pdfplumber_ray.sources import table_docs

N_DOCS = 48
SF = "/root/testdata/sf0.001"


def _texts() -> list:
    rng = np.random.default_rng(16)
    vocab = [f"w{i}" for i in range(60)] + ["alpha", "beta", "gamma", "delta"]
    texts = [
        " ".join(rng.choice(vocab, int(rng.integers(12, 40))))
        for _ in range(N_DOCS - 8)
    ]
    # a 20-token paragraph shared verbatim by docs 8-11
    para = " ".join(f"p{i}" for i in range(20))
    for i in range(8, 12):
        texts[i] = f"{texts[i]} {para} w{i}"
    texts += texts[0:4]  # 40-43: exact copies of 0-3
    for i in range(4, 8):  # 44-47: one token edited
        toks = texts[i].split(" ")
        toks[3] = "EDIT"
        texts.append(" ".join(toks))
    return texts


def _docs() -> ray.data.Dataset:
    texts = _texts()
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(N_DOCS), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(
                    [f"s{i % 4}" for i in range(N_DOCS)], pa.string()
                ),
                "lang": pa.array(
                    [("en", "de", "fr")[i % 3] for i in range(N_DOCS)], pa.string()
                ),
                "n_chars": pa.array([len(t) % 97 for t in texts], pa.int64()),
            }
        )
    ).repartition(3)


def _embeddings() -> ray.data.Dataset:
    rng = np.random.default_rng(5)
    base = rng.normal(size=(20, 8))
    mat = np.vstack([base, base[:4] + rng.normal(scale=0.01, size=(4, 8))])
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(mat)), pa.int64()),
                "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
                "label": pa.array([i % 3 for i in range(len(mat))], pa.int64()),
            }
        )
    ).repartition(2)


def _pairs() -> ray.data.Dataset:
    a = [0, 1, 2, 4, 5, 8, 9, 10, 20]
    b = [40, 41, 42, 44, 45, 9, 10, 11, 21]
    return ray.data.from_arrow(
        pa.table({"doc_a": pa.array(a, pa.int64()), "doc_b": pa.array(b, pa.int64())})
    )


def _fuzzy() -> ray.data.Dataset:
    queries = ray.data.from_arrow(
        pa.table({"q": pa.array(["aab", "ab", "abc", "aabb", "helo", "smal"])})
    )
    dictionary = ray.data.from_arrow(
        pa.table(
            {
                "token": pa.array(["aabb", "aab", "abb", "abcd", "hello", "small"]),
                "c": pa.array([2, 5, 1, 9, 7, 3], pa.int64()),
            }
        )
    )
    return co.fuzzy_join_ds(queries, dictionary)


def _join() -> ray.data.Dataset:
    docs = _docs()
    left = docs.select_columns(["doc_id", "n_chars"]).map_batches(
        lambda b: pa.table({"k": pc.divide(b["doc_id"], 3), "n": b["n_chars"]}),
        batch_format="pyarrow",
    )
    right = docs.select_columns(["doc_id", "source"]).rename_columns(["rk", "src"])
    return exchange.attach(left, right, "k", "rk", how="left")


def _lineitem_spans() -> ray.data.Dataset:
    """``docs_from_lineitem`` with one row per span (sortable)."""

    def flat(b: pa.Table) -> pa.Table:
        lists = b["spans"].combine_chunks()
        spans = pc.list_flatten(lists)
        return pa.table(
            {
                "doc_id": b["doc_id"].take(pc.list_parent_indices(lists)),
                **{f.name: spans.field(f.name) for f in spans.type},
            }
        )

    return table_docs.docs_from_lineitem(SF).map_batches(flat, batch_format="pyarrow")


# name -> (run, whether to force the no-broadcast co-group path)
CASES = {
    # analytics
    "postings_ds": (lambda: an.postings_ds(_docs(), max_df=10), False),
    "attach": (_join, True),
    "ntile_ds": (lambda: an.ntile_ds(_docs(), "n_chars", "doc_id", k=5), False),
    "row_number_ds": (
        lambda: an.row_number_ds(_docs(), "n_chars", "doc_id", descending=True),
        False,
    ),
    "rrf_fusion_ds": (
        lambda: an.rrf_fusion_ds(
            _docs().map_batches(
                lambda b: b.append_column(
                    "m", pc.multiply(b["doc_id"], 7).cast(pa.int64())
                ),
                batch_format="pyarrow",
            ),
            "doc_id",
            "n_chars",
            "m",
            topk=10,
        ),
        False,
    ),
    "index_gap_stats_ds": (lambda: an.index_gap_stats_ds(_docs()), False),
    "encoding_size_audit_ds": (lambda: an.encoding_size_audit_ds(_docs()), False),
    "cdc_chunks_ds": (lambda: an.cdc_chunks_ds(_docs(), mask=8), False),
    "dup_edit_audit_ds": (
        lambda: an.dup_edit_audit_ds(_docs(), prefix_len=6, trunc=40), False
    ),
    "phonetic_keys_ds": (
        lambda: an.phonetic_keys_ds(_docs(), min_len=2, max_len=6), False
    ),
    "cdc_families_ds": (
        lambda: an.cdc_families_ds(_docs(), mask=8, min_chunk_len=4), False
    ),
    "dedup_modality_agreement_ds": (
        lambda: an.dedup_modality_agreement_ds(_docs(), min_chunk_len=4), False
    ),
    "bow_dedup_ds": (lambda: an.bow_dedup_ds(_docs()), False),
    "rare_token_pairs_ds": (
        lambda: an.rare_token_pairs_ds(_docs(), max_df=4), False
    ),
    # corpus_ops
    "minhash_pairs_ds": (
        lambda: co.minhash_pairs_ds(_docs(), threshold=0.3, max_bucket=None), False
    ),
    "simhash_pairs_ds": (lambda: co.simhash_pairs_ds(_docs()), False),
    "substring_dedup_ds": (lambda: co.substring_dedup_ds(_docs(), k=4), False),
    "substring_strip_ds": (lambda: co.substring_strip_ds(_docs(), k=4), True),
    "substring_runs_ds": (
        lambda: co.substring_runs_ds(_docs(), k=4, min_run_tokens=6), False
    ),
    "dedup_resolution_ds": (
        lambda: co.dedup_resolution_ds(_pairs(), _docs().select_columns(["doc_id"])),
        True,
    ),
    "jaccard_join_ds": (lambda: co.jaccard_join_ds(_docs()), False),
    "fuzzy_join_ds": (_fuzzy, False),
    "source_overlap_ds": (
        lambda: co.source_overlap_ds(_docs(), shingle_k=2), False
    ),
    "dedup_keep_best_ds": (lambda: co.dedup_keep_best_ds(_pairs(), _docs()), True),
    "token_budget_select_ds": (lambda: co.token_budget_select_ds(_docs()), False),
    "snm_pairs_ds": (lambda: co.snm_pairs_ds(_docs(), chunk=8), False),
    "prefix_filter_pairs_ds": (
        lambda: co.prefix_filter_pairs_ds(_docs(), threshold_permille=300), False
    ),
    "mutual_knn_ds": (lambda: co.mutual_knn_ds(_embeddings(), k=3), False),
    "effective_tokens_ds": (lambda: co.effective_tokens_ds(_docs()), False),
    "fold_leakage_ds": (
        lambda: co.fold_leakage_ds(_docs(), n_folds=3, key_tokens=3), False
    ),
    "marginal_vocab_ds": (lambda: co.marginal_vocab_ds(_docs()), False),
    "vocab_drift_ds": (lambda: co.vocab_drift_ds(_docs()), False),
    "edit_distance_join_ds": (
        lambda: co.edit_distance_join_ds(_docs(), width=12, tau=2), False
    ),
    # sources and the driver's extraction queries
    "docs_from_lineitem": (_lineitem_spans, False),
    "q_text_lines": (lambda: E.q_text_lines(SF), False),
    "q_word_geometry": (lambda: E.q_word_geometry(SF), False),
}

# private helpers that co-group through bucket_map -> the cases reaching
# them; the components loop joins through attach, so the co-grouped
# dedup_resolution_ds case runs attach's co-group every round
HELPERS = {
    "_substring_strip_cogroup": ("substring_strip_ds",),
    "_attach_cogroup": ("attach", "dedup_resolution_ds"),
}


def _bucket_map_callers(module) -> set:
    tree = ast.parse(inspect.getsource(module))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "bucket_map"
            for n in ast.walk(node)
        )
    }


def test_cases_cover_every_bucket_map_caller():
    callers = set().union(*map(_bucket_map_callers, (an, co, exchange, table_docs, E)))
    assert set().union(*(HELPERS.get(n, (n,)) for n in callers)) == set(CASES)


def _run(name, monkeypatch, n_buckets=None):
    run, cogroup = CASES[name]
    with monkeypatch.context() as m:
        if n_buckets is not None:
            m.setattr(exchange, "N_EXCHANGE_BUCKETS", n_buckets)
        if cogroup:
            m.setattr(exchange, "MAX_BROADCAST_ROWS", 0)
        ds = run().materialize()
    schema = ds.schema()
    rows = ds.to_pandas()
    rows = rows.sort_values(list(rows.columns)).reset_index(drop=True)
    return (list(schema.names), [str(t) for t in schema.types]), rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_does_not_depend_on_bucket_count(ray_session, monkeypatch, name):
    schema, rows = _run(name, monkeypatch)
    assert len(rows), f"{name}: the seeded corpus should give some rows"
    for n_buckets in (2, 7):
        other_schema, other_rows = _run(name, monkeypatch, n_buckets)
        assert other_schema == schema
        pd.testing.assert_frame_equal(other_rows, rows)
