"""Training-data corpus operators: unit kernels + DuckDB oracle parity at
sf0.001 + planted near-duplicate recovery."""

import inspect
import itertools

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from pdfplumber_ray.functions import textstats as ts
from pdfplumber_ray.pipelines import corpus_ops as co
from pdfplumber_ray.pipelines import exchange

SF = "/root/testdata/sf0.001"


# ---- kernel units ----


def test_lang_id_tiebreak_and_und():
    out = ts.lang_id(["zzz qqq", "the der", "que el y los"])
    assert out[0] == "und"
    assert out[1] == "en"  # en/de tie broken by LANG_ORDER
    assert out[2] == "es"


def test_hamming_and_jaccard():
    a = np.array([0b1011], dtype=np.uint64)
    b = np.array([0b0010], dtype=np.uint64)
    assert ts.hamming64(a, b)[0] == 2
    assert ts.ngram_jaccard("a b c d e f", "a b c d e f", k=5) == 1.0
    assert ts.ngram_jaccard("a b c d e", "v w x y z", k=5) == 0.0


def test_minhash_estimates_jaccard():
    mh = ts.MinHasher(num_perm=128, shingle_k=2)
    t1 = " ".join(f"w{i}" for i in range(50))
    t2 = " ".join(f"w{i}" for i in range(5, 55))  # high overlap
    est = float(np.mean(mh.signature(t1) == mh.signature(t2)))
    true = ts.ngram_jaccard(t1, t2, k=2)
    assert abs(est - true) < 0.2


def test_simhash_similar_docs_close():
    base = " ".join(f"tok{i}" for i in range(100))
    near = base.replace("tok50", "tok999")
    far = " ".join(f"other{i}" for i in range(100))
    s = ts.simhash64([base, near, far])
    d_near = ts.hamming64(s[:1], s[1:2])[0]
    d_far = ts.hamming64(s[:1], s[2:3])[0]
    assert d_near < d_far
    assert d_near <= 6


# ---- pipelines ----


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    return ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def _duck(sql):
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.sql(sql).df()


def _match(ds, sql, key):
    got = ds.to_pandas()
    want = _duck(sql)
    cols = sorted(got.columns)
    assert cols == sorted(want.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    assert g.shape == w.shape
    assert g.equals(w)


def test_exact_dedup_oracle(docs_ds):
    _match(
        co.exact_dedup_ds(docs_ds),
        "SELECT md5(text) AS content_hash, min(doc_id) AS keep_doc_id, "
        "CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY md5(text)",
        "content_hash",
    )


def test_token_stats_oracle(docs_ds):
    from pdfplumber_ray.functions.textstats import BPE_TOKEN_RE

    _match(
        co.token_stats_ds(docs_ds),
        "SELECT doc_id, CAST(len(string_split(text,' ')) AS BIGINT) AS n_tokens_ws, "
        f"CAST(len(regexp_extract_all(text, '{BPE_TOKEN_RE}')) AS BIGINT) AS n_tokens_bpe "
        "FROM documents",
        "doc_id",
    )


def test_quality_reads_null_text_as_empty(ray_session):
    """A null text scores as ``""``; ``n_chars`` counts code points."""
    docs = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()), "text": [None, "", "café 日本 the."]}
    )
    out = co.quality_ds(ray.data.from_arrow(docs)).to_pandas().sort_values("doc_id")
    assert out.n_chars.tolist() == [0, 0, 12]
    assert out.n_words.tolist() == [0, 0, 3]
    assert out.n_punct.tolist() == [0, 0, 1]
    assert str(out.n_chars.dtype) == "int64"


def test_ann_brute_matches_numpy(docs_ds, ray_session):
    import pyarrow.parquet as pq

    emb_t = pq.read_table(f"{SF}/embeddings.parquet")
    m = np.stack([np.asarray(v, np.float64) for v in emb_t.column("embedding").to_pylist()])
    ids = emb_t.column("vec_id").to_numpy()
    q = m[int(np.argmin(ids))]
    sims = np.round((m @ (q / np.linalg.norm(q))) / np.linalg.norm(m, axis=1), 6)
    order = np.lexsort((ids, -sims))[:10]
    want = {(int(ids[i]), float(sims[i])) for i in order}

    emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    got = co.ann_brute_topk_ds(emb, q, k=10).to_pandas()
    assert {(int(r.vec_id), float(r.sim)) for r in got.itertuples()} == want

    # IVF with full probing is exact
    got_ivf = co.ann_ivf_topk_ds(emb, q, k=10, nlist=4, nprobe=4).to_pandas()
    assert {(int(r.vec_id), float(r.sim)) for r in got_ivf.itertuples()} == want


def test_planted_near_dups_found(ray_session):
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    texts = [
        " ".join(rng.choice(vocab, 60).tolist()) for _ in range(40)
    ]
    # plant: doc 100+i is a light edit of doc i for i in 0..4
    planted = []
    for i in range(5):
        toks = texts[i].split(" ")
        toks[7] = "EDITED"
        planted.append(" ".join(toks))
    table = pa.table(
        {
            "doc_id": pa.array(list(range(40)) + [100 + i for i in range(5)], pa.int64()),
            "text": pa.array(texts + planted),
        }
    )
    ds = ray.data.from_arrow(table)
    pairs = co.minhash_pairs_ds(ds, threshold=0.5).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs.doc_a, pairs.doc_b)}
    assert {(i, 100 + i) for i in range(5)} <= found

    verified = co.ngram_jaccard_verify_ds(
        co.minhash_pairs_ds(ds, threshold=0.35), ds, threshold=0.5
    ).to_pandas()
    vfound = {(int(a), int(b)) for a, b in zip(verified.doc_a, verified.doc_b)}
    assert {(i, 100 + i) for i in range(5)} <= vfound
    assert (verified.jaccard > 0.5).all()

    # simhash: the 4-chunk bucketing guarantees recall only for Hamming<=3
    # (pigeonhole); compare against brute-force ground truth at that radius.
    all_ids = table.column("doc_id").to_pylist()
    all_texts = table.column("text").to_pylist()
    sh = ts.simhash64(all_texts)
    truth = set()
    for i in range(len(all_ids)):
        d = ts.hamming64(np.full(len(all_ids) - i - 1, sh[i], dtype=np.uint64), sh[i + 1 :])
        for off, dist in enumerate(d):
            if dist <= 3:
                a, b = sorted((all_ids[i], all_ids[i + 1 + off]))
                truth.add((a, b))
    spairs = co.simhash_pairs_ds(ds, max_hamming=3).to_pandas()
    sfound = {(int(a), int(b)) for a, b in zip(spairs.doc_a, spairs.doc_b)}
    assert sfound == truth


def test_broadcast_join_size_guard(ray_session, monkeypatch):
    """A side over ``MAX_BROADCAST_ROWS`` never reaches the driver: when
    the other side fits, the big side is first cut down to its keys."""
    big = ray.data.range(1000).map_batches(
        lambda b: pa.table({"k": b["id"], "v": b["id"]}), batch_format="pyarrow"
    )
    ds = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    collected = []
    real = exchange.collect_small

    def spy(side, what, schema=None):
        out = real(side, what, schema)
        collected.append(out.num_rows)
        return out

    monkeypatch.setattr(exchange, "collect_small", spy)
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 10)
    rows = exchange.attach(ds, big, "k", "k", "left").take_all()
    assert sorted((r["k"], r["v"]) for r in rows) == [(1, 1), (2, 2)]
    assert collected == [2, 2]  # the keys of ``ds``, then the cut-down side


def _planted_pairs_corpus(n_docs: int = 40):
    """``n_docs`` docs of distinct random words, where doc 1 copies doc 0
    and doc 3 copies doc 2 but for their last word."""
    rng = np.random.default_rng(11)
    texts = [" ".join(f"w{v}" for v in rng.integers(0, 10**6, 40)) for _ in range(n_docs)]
    for a, b in ((0, 1), (2, 3)):
        texts[b] = texts[a].rsplit(" ", 1)[0] + " tail"
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(n_docs), pa.int64()), "text": texts})
    )


@pytest.mark.parametrize(
    "verify",
    [
        lambda docs, pairs: co.minhash_pairs_ds(docs, threshold=0.5),
        lambda docs, pairs: co.ngram_jaccard_verify_ds(pairs, docs),
        lambda docs, pairs: co.containment_dedup_ds(pairs, docs),
        lambda docs, pairs: co.jaccard_join_ds(docs),
    ],
    ids=["minhash_pairs", "ngram_jaccard_verify", "containment_dedup", "jaccard_join"],
)
def test_verify_operators_collect_only_candidate_docs(ray_session, monkeypatch, verify):
    """A verify operator brings to the driver the payload of its candidate
    docs only, never the whole corpus: its one attach collects the
    candidate pairs' keys and then the rows of the docs they name."""
    docs = _planted_pairs_corpus()
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([0, 2], pa.int64()), "doc_b": pa.array([1, 3], pa.int64())})
    )
    collected = []
    real = exchange.collect_small

    def spy(side, what, schema=None):
        out = real(side, what, schema)
        collected.append((what, out.num_rows))
        return out

    monkeypatch.setattr(exchange, "collect_small", spy)
    rows = verify(docs, pairs).take_all()
    assert sorted((r["doc_a"], r["doc_b"]) for r in rows) == [(0, 1), (2, 3)]
    # the candidate pairs' keys, then the docs they name: docs 0-3, and
    # at most two per candidate pair
    assert [what for what, _ in collected] == ["attach keys", "attach side"]
    (_, n_pairs), (_, n_docs) = collected
    assert 4 <= n_docs <= 2 * n_pairs < 20  # of 40 docs


def test_embedding_lsh_subset_of_exact(ray_session):
    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 16))
    near = base[:10] + rng.normal(scale=0.01, size=(10, 16))
    mat = np.vstack([base, near]).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(t)
    exact = co.embedding_near_dup_ds(ds, threshold=0.9).to_pandas()
    lsh = co.embedding_near_dup_lsh_ds(
        ds, threshold=0.9, n_bits=6, n_tables=8
    ).to_pandas()
    epairs = {(a, b) for a, b in zip(exact.vec_a, exact.vec_b)}
    lpairs = {(a, b) for a, b in zip(lsh.vec_a, lsh.vec_b)}
    assert lpairs <= epairs
    # planted near-dups are recalled (cos ~ 0.9999 agrees on every bit)
    assert {(i, 40 + i) for i in range(10)} <= lpairs


def test_serialize_scalar_reference_semantics():
    from pdfplumber_ray.sinks.serialize import (
        bytes_to_text,
        serialize_scalar,
        stream_to_b64,
    )

    assert serialize_scalar(True) == 1 and serialize_scalar(False) == 0
    assert serialize_scalar(1.23456, precision=3) == 1.235
    assert serialize_scalar(b"plain ascii") == "plain ascii"
    # invalid utf-8: the reference's loop returns None on first failure
    assert bytes_to_text(b"\xff\xfeX\x00") is None
    assert stream_to_b64(b"\x00\x01") == {"rawdata": "AAE="}
    assert serialize_scalar((1, True, b"a")) == [1, 1, "a"]


# A chain component (1-2-3-4), a pair (10-11), a chain (20-21-22) and a
# 5-clique (40..44): 16 pairs over 14 labelled nodes, so a limit of 15
# sends the pairs down the distributed path and still broadcasts the
# labels, and a limit of 13 co-groups the labels as well.
_DUP_PAIRS = pa.table(
    {
        "doc_a": pa.array(
            [1, 2, 3, 10, 20, 21] + [a for a, _ in itertools.combinations(range(40, 45), 2)],
            pa.int64(),
        ),
        "doc_b": pa.array(
            [2, 3, 4, 11, 21, 22] + [b for _, b in itertools.combinations(range(40, 45), 2)],
            pa.int64(),
        ),
    }
)
_DUP_DOCS = pa.table({"doc_id": pa.array(list(range(1, 50)), pa.int64())})


def _spy(monkeypatch, *names):
    """Record each call to the named ``corpus_ops`` (or else ``exchange``)
    functions."""
    calls = []
    for name in names:
        module = co if hasattr(co, name) else exchange
        real = getattr(module, name)

        def wrapped(*a, _real=real, _name=name, **k):
            calls.append(_name)
            return _real(*a, **k)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def _cogroup_keys(monkeypatch):
    """The key of each ``exchange._attach_cogroup`` call, in call order:
    which attaches co-grouped, the family-resolution loop's own included."""
    keys = []
    real = exchange._attach_cogroup

    def spy(ds, side, on, *a, **k):
        keys.append(on)
        return real(ds, side, on, *a, **k)

    monkeypatch.setattr(exchange, "_attach_cogroup", spy)
    return keys


def _resolved(pairs_t, docs_t):
    return (
        co.dedup_resolution_ds(
            ray.data.from_arrow(pairs_t), ray.data.from_arrow(docs_t)
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_dedup_resolution_distributed_matches_driver(ray_session, monkeypatch):
    """The min-label-propagation fixpoint (scale path) and driver
    union-find (small-N fast path) must produce identical canonical
    labels — including a multi-hop chain component (a-b, b-c, c-d)."""
    calls = _spy(monkeypatch, "_min_label_propagation")
    keys = _cogroup_keys(monkeypatch)
    drv = _resolved(_DUP_PAIRS, _DUP_DOCS)
    assert calls == [] and keys == []
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 15)
    dist = _resolved(_DUP_PAIRS, _DUP_DOCS)
    assert calls == ["_min_label_propagation"] and keys == []
    assert drv.equals(dist)
    got = dict(zip(drv.doc_id, drv.canonical_id))
    assert got[4] == 1 and got[3] == 1 and got[2] == 1 and got[1] == 1
    assert got[11] == 10 and got[22] == 20 and got[5] == 5
    assert all(got[i] == 40 for i in range(40, 45))


def test_dedup_resolution_cogroup_label_attach(ray_session, monkeypatch):
    """When neither the pairs, the labels nor the docs fit
    ``MAX_BROADCAST_ROWS`` the distributed path must attach canonical ids
    via the hash-bucket co-group (driver never holds a label dict) and produce output
    identical to the driver union-find path — including docs with no
    duplicates and chain components, and buckets holding many nodes."""
    drv = _resolved(_DUP_PAIRS, _DUP_DOCS)
    calls = _spy(monkeypatch, "_min_label_propagation")
    keys = _cogroup_keys(monkeypatch)
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 13)
    cg = _resolved(_DUP_PAIRS, _DUP_DOCS)
    assert calls == ["_min_label_propagation"]
    assert keys[-1] == "doc_id" and keys.count("doc_id") == 1
    assert drv.equals(cg)
    # 2,100 labelled nodes in 700 three-node chains, 2,500 docs: most of
    # the exchange buckets resolve several nodes at once
    n_chain, n_docs = 700, 2500
    big_pairs = pa.table(
        {
            "doc_a": pa.array([3 * i + d for i in range(n_chain) for d in (0, 1)], pa.int64()),
            "doc_b": pa.array([3 * i + d for i in range(n_chain) for d in (1, 2)], pa.int64()),
        }
    )
    big_docs = pa.table({"doc_id": pa.array(range(n_docs), pa.int64())})
    del keys[:]
    out = _resolved(big_pairs, big_docs)
    assert calls[1:] == ["_min_label_propagation"]
    assert keys[-1] == "doc_id" and keys.count("doc_id") == 1
    assert out.doc_id.tolist() == list(range(n_docs))
    assert out.canonical_id.tolist() == [
        3 * (x // 3) if x < 3 * n_chain else x for x in range(n_docs)
    ]
    assert "groupby(" not in inspect.getsource(exchange._attach_cogroup)


def test_dedup_resolution_cogroup_string_ids(ray_session, monkeypatch):
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array(["b", "c"]), "doc_b": pa.array(["c", "a"])})
    )
    docs = ray.data.from_arrow(pa.table({"doc_id": pa.array(["a", "b", "c", "z"])}))
    calls = _spy(monkeypatch, "_min_label_propagation")
    keys = _cogroup_keys(monkeypatch)
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 1)  # 2 pairs, 3 labels
    out = co.dedup_resolution_ds(pairs, docs).to_pandas()
    assert calls == ["_min_label_propagation"]
    assert keys[-1] == "doc_id" and keys.count("doc_id") == 1
    got = dict(zip(out.doc_id, out.canonical_id))
    assert got == {"a": "a", "b": "a", "c": "a", "z": "z"}


def test_dedup_resolution_distributed_string_ids(ray_session, monkeypatch):
    clique = list(itertools.combinations("dbca", 2))  # 6 pairs, 4 labels
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([a for a, _ in clique]),
                "doc_b": pa.array([b for _, b in clique]),
            }
        )
    )
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(["a", "b", "c", "d", "z"])})
    )
    calls = _spy(monkeypatch, "_min_label_propagation")
    keys = _cogroup_keys(monkeypatch)
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 5)
    out = co.dedup_resolution_ds(pairs, docs).to_pandas()
    assert calls == ["_min_label_propagation"] and keys == []
    got = dict(zip(out.doc_id, out.canonical_id))
    assert got == {"a": "a", "b": "a", "c": "a", "d": "a", "z": "z"}


def test_min_label_long_chain_log_rounds(ray_session):
    """Worst-case propagation depth: a single chain component of n nodes
    (diameter n-1). Pointer doubling must reach the fixpoint in
    O(log2(diameter)) rounds — a plain hash-min walk would need n-1 and
    previously exited the 64-iteration cap SILENTLY wrong (ADVICE r3)."""
    n = 300
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(list(range(n - 1)), pa.int64()),
                "doc_b": pa.array(list(range(1, n)), pa.int64()),
            }
        )
    )
    stats = {}
    labels = exchange._min_label_propagation(pairs, "doc_a", "doc_b", stats=stats).to_pandas()
    assert stats["converged"]
    assert stats["iterations"] <= int(np.ceil(np.log2(n))) + 3
    assert len(labels) == n
    assert (labels.label == 0).all()


def test_hot_bucket_star_fallback(ray_session, caplog):
    """1k near-identical docs: every LSH band bucket blows past max_bucket;
    the star fallback must complete with O(n) pairs (not 500k) while
    keeping the whole clique one connected component."""
    n = 1000
    base = " ".join(f"tok{i}" for i in range(80))
    table = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array([base] * n),
        }
    )
    ds = ray.data.from_arrow(table)
    import logging

    with caplog.at_level(logging.WARNING, logger="pdfplumber_ray.pipelines.corpus_ops"):
        pairs = co.minhash_pairs_ds(ds, threshold=0.5, max_bucket=64)
        pdf = pairs.to_pandas()
    # star pairs only: n-1 per band, deduped across bands -> exactly n-1
    assert len(pdf) == n - 1
    assert (pdf.doc_a == 0).all()
    assert (pdf.est_jaccard == 1.0).all()

    # connectivity survives for cluster resolution
    docs = ray.data.from_arrow(table.select(["doc_id"]))
    res = co.dedup_resolution_ds(pairs, docs).to_pandas()
    assert (res.canonical_id == 0).all()


def test_hot_bucket_star_fallback_simhash(ray_session):
    n = 300
    base = " ".join(f"tok{i}" for i in range(80))
    table = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array([base] * n),
        }
    )
    ds = ray.data.from_arrow(table)
    pdf = co.simhash_pairs_ds(ds, max_bucket=64).to_pandas()
    assert len(pdf) == n - 1
    assert (pdf.doc_a == 0).all() and (pdf.hamming == 0).all()


def test_hot_bucket_star_fallback_embedding(ray_session):
    n = 300
    vec = np.ones(8, dtype=np.float64)
    table = pa.table(
        {
            "vec_id": pa.array(list(range(n)), pa.int64()),
            "embedding": pa.array([vec.tolist()] * n, pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(table)
    pdf = co.embedding_near_dup_lsh_ds(
        ds, threshold=0.9, n_bits=4, n_tables=2, max_bucket=64
    ).to_pandas()
    assert len(pdf) == n - 1
    assert (pdf.vec_a == 0).all() and (pdf.sim == 1.0).all()


def test_decontaminate(ray_session):
    """Eval split = doc_id % 4 == 0; train docs sharing a 3-gram with an
    eval doc are flagged with the exact distinct-gram hit count."""
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    [
                        "alpha beta gamma delta",        # eval (0)
                        "alpha beta gamma epsilon",      # train: shares 'alpha beta gamma'
                        "zeta eta theta iota",           # train: clean
                        "beta gamma delta kappa",        # train: shares 'beta gamma delta'
                        "unrelated eval content here",   # eval (4)
                        "tiny",                          # train: whole-doc fallback, clean
                    ]
                ),
            }
        )
    )
    out = (
        co.decontaminate_ds(docs, eval_mod=4, shingle_k=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.doc_id.tolist() == [1, 2, 3, 5]
    assert out.gram_hits.tolist() == [1, 0, 1, 0]
    assert out.contaminated.tolist() == [1, 0, 1, 0]


def test_decontaminate_eval_guard(ray_session, monkeypatch):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 2], pa.int64()),
                "text": pa.array(["a b c d e f g h", "x y z"]),
            }
        )
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 2)
    with pytest.raises(ValueError, match="MAX_BROADCAST_ROWS"):
        co.decontaminate_ds(docs, eval_mod=2, shingle_k=3)


def test_grouped_quantiles(ray_session):
    """Exact quantile definition: smallest value whose cumulative count
    reaches ceil(q*N)."""
    import pandas as pd

    vals = {"a": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "b": [5, 5, 5, 7]}
    rows = [(g, v) for g, vs in vals.items() for v in vs]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array([g for g, _ in rows]),
                "n_chars": pa.array([v for _, v in rows], pa.int64()),
            }
        )
    )
    out = (
        co.grouped_quantiles_ds(docs)
        .to_pandas()
        .sort_values(["lang", "q_e2"])
        .reset_index(drop=True)
    )
    got = {(r.lang, r.q_e2): r.value for r in out.itertuples()}
    # a: N=10 -> ranks ceil(2.5)=3, 5, ceil(7.5)=8, ceil(9.5)=10
    assert got[("a", 25)] == 3 and got[("a", 50)] == 5
    assert got[("a", 75)] == 8 and got[("a", 95)] == 10
    # b: N=4 -> ranks 1, 2, 3, 4 over [5,5,5,7]
    assert got[("b", 25)] == 5 and got[("b", 50)] == 5
    assert got[("b", 75)] == 5 and got[("b", 95)] == 7


def test_repetition_stats_kernel(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["a b a b c", "x", ""], pa.string()),
            }
        )
    )
    out = {r["doc_id"]: r for r in co.repetition_stats_ds(docs).take_all()}
    # "a b a b c": 5 words, 3 distinct, 4 bigrams, "a b" twice
    assert out[1]["n_words"] == 5 and out[1]["n_distinct_words"] == 3
    assert out[1]["n_bigrams"] == 4 and out[1]["top_bigram_n"] == 2
    # single token: no bigrams
    assert out[2]["n_words"] == 1 and out[2]["top_bigram_n"] == 0
    # empty text splits to one empty token (matches SQL string_split)
    assert out[3]["n_words"] == 1 and out[3]["n_distinct_words"] == 1


def test_chunk_windows_kernel(ray_session):
    text = " ".join(f"t{i}" for i in range(10))
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([text, "only three words"], pa.string()),
            }
        )
    )
    rows = co.chunk_windows_ds(docs, window=4, stride=3).take_all()
    d1 = sorted((r for r in rows if r["doc_id"] == 1), key=lambda r: r["chunk_index"])
    # 10 tokens, w=4 s=3 -> chunks at 0,3,6 cover t0..t9 -> 1+ceil(6/3)=3
    assert [r["chunk_text"] for r in d1] == [
        "t0 t1 t2 t3", "t3 t4 t5 t6", "t6 t7 t8 t9",
    ]
    assert [r["n_tokens"] for r in d1] == [4, 4, 4]
    d2 = [r for r in rows if r["doc_id"] == 2]
    assert len(d2) == 1 and d2[0]["chunk_text"] == "only three words"
    assert d2[0]["n_tokens"] == 3


def test_source_mix_weights(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["w", "w", "b"], pa.string()),
                "lang": pa.array(["en", "en", "de"], pa.string()),
                "text": pa.array(["a b", "c", "d e f"], pa.string()),
            }
        )
    )
    out = {(r["source"], r["lang"]): r for r in co.source_mix_ds(docs).take_all()}
    assert out[("w", "en")]["n_docs"] == 2 and out[("w", "en")]["n_words"] == 3
    assert out[("w", "en")]["weight_e6"] == 2_000_000 // 3
    assert out[("b", "de")]["weight_e6"] == 1_000_000 // 3


def test_dedup_resolution_auto_single_upstream_execution(ray_session):
    """The pair set must be materialized ONCE: the upstream lineage may
    not re-execute for the size check + the resolution pass (VERDICT r3
    #7). Counted via a Ray actor the pair stage pings."""
    import ray as _ray

    @_ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self, k=1):
            self.n += k
            return self.n

        def get(self):
            return self.n

    counter = Counter.remote()

    def tag(batch: pa.Table) -> pa.Table:
        _ray.get(counter.bump.remote())
        return batch

    pairs_t = pa.table(
        {
            "doc_a": pa.array([1, 2, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 11], pa.int64()),
        }
    )
    pairs = ray.data.from_arrow(pairs_t).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    )
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(1, 13)), pa.int64())})
    )
    out = co.dedup_resolution_ds(pairs, docs).to_pandas()
    got = dict(zip(out.doc_id, out.canonical_id))
    assert got[3] == 1 and got[11] == 10 and got[5] == 5
    # the tagged stage ran exactly once (one block in this tiny input)
    assert _ray.get(counter.get.remote()) == 1


def test_semantic_dedup_recalls_planted_pairs(ray_session):
    """Cluster-then-dedup (SemDeDup shape): planted near-identical vectors
    land in the same centroid bucket and their pair is emitted; vectors in
    different clusters are never compared (pair set is a subset of the
    global exact scan)."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(30, 12))
    near = base[:6] + rng.normal(scale=0.005, size=(6, 12))
    mat = np.vstack([base, near]).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in mat], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t)
    got = co.semantic_dedup_pairs_ds(
        ds, n_clusters=4, threshold=0.95, max_bucket=None
    ).to_pandas()
    pairs = {(a, b) for a, b in zip(got.vec_a, got.vec_b)}
    assert {(i, 30 + i) for i in range(6)} <= pairs
    exact = co.embedding_near_dup_ds(ds, threshold=0.95).to_pandas()
    epairs = {(a, b) for a, b in zip(exact.vec_a, exact.vec_b)}
    assert pairs <= epairs
    # hot-cluster star fallback bounds pair emission
    capped = co.semantic_dedup_pairs_ds(
        ds, n_clusters=1, threshold=-1.0, max_bucket=8
    ).to_pandas()
    assert len(capped) == len(mat) - 1  # star around the minimum id


def test_tfidf_topk_rank_semantics(ray_session):
    """Hand-computable fixture: ranking is tf DESC, then df ASC (rarer
    term wins the tie), then term ASC; every doc emits <= k rows."""
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            # doc1: 'apple' tf=2; 'rare' tf=1 df=1; 'common' tf=1 df=3
            "text": pa.array(
                [
                    "apple apple rare common",
                    "apple common zed",
                    "common zed zed",
                ]
            ),
        }
    )
    out = (
        co.tfidf_topk_ds(ray.data.from_arrow(t), k=2)
        .to_pandas()
        .sort_values(["doc_id", "rnk"])
        .reset_index(drop=True)
    )
    d1 = out[out.doc_id == 1]
    assert list(d1.term) == ["apple", "rare"]  # tf=2 first; df=1 beats df=3
    assert list(d1.tf) == [2, 1] and list(d1.df) == [2, 1]
    d3 = out[out.doc_id == 3]
    assert list(d3.term) == ["zed", "common"]  # tf=2 first
    assert (out.groupby("doc_id").size() <= 2).all()


def test_tfidf_vocab_guard(ray_session, monkeypatch):
    t = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["a b c d e f g h"]),
        }
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 3)
    with pytest.raises(ValueError, match="MAX_BROADCAST_ROWS"):
        co.tfidf_topk_ds(ray.data.from_arrow(t), k=2).to_pandas()


def test_substring_dedup_planted_runs(ray_session):
    """Docs 0/1 share a verbatim 10-token run (3 distinct 8-grams); docs
    2/3 share only a 8-token run (1 gram, below min_shared=2); doc 4 is
    clean. Only (0,1) must surface, with shared_grams == 3."""
    run10 = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    run8 = "one two three four five six seven eight"
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    f"intro x {run10} outro y",
                    f"different lead {run10} tail z q",
                    f"aa bb {run8} cc",
                    f"dd {run8} ee ff",
                    "nothing shared here at all in this doc text body",
                ]
            ),
        }
    )
    out = co.substring_dedup_ds(
        ray.data.from_arrow(t), k=8, min_shared=2, max_bucket=None
    ).to_pandas()
    assert len(out) == 1
    assert (out.doc_a[0], out.doc_b[0], out.shared_grams[0]) == (0, 1, 3)


def test_substring_dedup_hot_gram_star_cap(ray_session, caplog):
    """A gram shared by many docs falls back to star pairs above
    max_bucket (logged), mirroring the LSH hot-bucket machinery."""
    import logging

    shared = "w1 w2 w3 w4 w5 w6 w7 w8"
    t = pa.table(
        {
            "doc_id": pa.array(list(range(10)), pa.int64()),
            "text": pa.array([f"doc{i} unique lead {shared}" for i in range(10)]),
        }
    )
    with caplog.at_level(logging.WARNING):
        out = co.substring_dedup_ds(
            ray.data.from_arrow(t), k=8, min_shared=1, max_bucket=4
        ).to_pandas()
    # star: doc 0 paired with each other doc, no quadratic blowup
    assert set(zip(out.doc_a, out.doc_b)) == {(0, i) for i in range(1, 10)}


def test_new_ops_empty_corpus(ray_session):
    """Every round-5 operator returns an empty result (not a crash) on an
    empty corpus — the recurring empty-input ADVICE class, pinned."""
    for fn in (
        lambda d: co.substring_dedup_ds(d, max_bucket=None),
        lambda d: co.substring_runs_ds(d, max_bucket=None),
        lambda d: co.substring_strip_ds(d),
        lambda d: co.tfidf_topk_ds(d),
        lambda d: co.jaccard_join_ds(d, max_bucket=None),
        lambda d: co.rare_tokens_ds(d),
        lambda d: co.heavy_hitters_ds(d),
    ):
        empty = ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
            )
        )
        assert len(fn(empty).to_pandas()) == 0


def test_substring_strip_removes_covered_tokens(ray_session):
    """Tokens covered by a >=2-doc 8-gram occurrence are removed; clean
    docs pass through byte-identical (split/join round-trip); a fully
    duplicated doc strips to the empty string."""
    run10 = "s1 s2 s3 s4 s5 s6 s7 s8 s9 s10"
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"head {run10} tail",
                    f"lead in {run10} out x",
                    "totally unique text with  double space kept",
                    run10,  # entirely covered
                ]
            ),
        }
    )
    out = (
        co.substring_strip_ds(ray.data.from_arrow(t), k=8, min_df=2)
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[0, "clean_text"] == "head tail"
    assert out.loc[0, "n_tokens_removed"] == 10
    assert out.loc[1, "clean_text"] == "lead in out x"
    assert out.loc[2, "clean_text"] == "totally unique text with  double space kept"
    assert out.loc[2, "n_tokens_removed"] == 0
    assert out.loc[3, "clean_text"] == "" and out.loc[3, "n_tokens_removed"] == 10


def test_substring_strip_cogroup_matches_broadcast(ray_session, monkeypatch):
    """The no-driver-collect co-group strategy (taken when the frequent
    set does not fit ``MAX_BROADCAST_ROWS``) must produce output
    identical to the broadcast strategy — including docs with no
    coverage, full coverage, and multi-occurrence overlap."""
    run10 = "s1 s2 s3 s4 s5 s6 s7 s8 s9 s10"
    rows = [
        f"head {run10} tail",
        f"lead in {run10} out x",
        "totally unique text body with nothing shared at all here",
        run10,
        f"{run10} gap1 gap2 {run10}",  # two covered intervals in one doc
    ]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(rows))), pa.int64()),
            "text": pa.array(rows),
        }
    )
    bc = (
        co.substring_strip_ds(ray.data.from_arrow(t), k=8, min_df=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 0)
    cg = (
        co.substring_strip_ds(ray.data.from_arrow(t), k=8, min_df=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert bc.equals(cg)
    assert bc.loc[4, "clean_text"] == "gap1 gap2"


def test_substring_runs_measures_longest_run(ray_session):
    """Docs 0/1 share a verbatim 20-token run (and nothing else): the
    reported max_run_tokens must be exactly 20. Docs 2/3 share a
    12-token run — below min_run_tokens=15, no row."""
    run20 = " ".join(f"w{i}" for i in range(20))
    run12 = " ".join(f"v{i}" for i in range(12))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"aa bb cc {run20} dd ee",
                    f"xx {run20} yy zz qq",
                    f"k1 k2 {run12} k3",
                    f"m1 {run12} m2 m3",
                ]
            ),
        }
    )
    out = co.substring_runs_ds(
        ray.data.from_arrow(t), k=8, min_run_tokens=15, max_bucket=None
    ).to_pandas()
    assert len(out) == 1
    assert (out.doc_a[0], out.doc_b[0], out.max_run_tokens[0]) == (0, 1, 20)


def test_substring_runs_hot_gram_keeps_first_rows(ray_session):
    """A gram with more than ``max_bucket`` rows keeps only its first
    ``max_bucket`` rows in (doc, pos) order. ``h1 h2 h3`` has six rows,
    (0,2) (0,6) (1,2) (2,1) (3,2) (4,6); with max_bucket=3 the kept rows
    (0,2) (0,6) (1,2) pair doc 0 with doc 1 only, a one-gram run of
    k = 3 tokens. Docs 3/4 share ``r1 .. r5`` (three grams of two rows
    each, under the cap): a 5-token run."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a0 h1 h2 h3 b0 h1 h2 h3",
                    "c1 h1 h2 h3 d1",
                    "h1 h2 h3 e2",
                    "f3 h1 h2 h3 r1 r2 r3 r4 r5",
                    "r1 r2 r3 r4 r5 h1 h2 h3 g4",
                ]
            ),
        }
    )
    capped = co.substring_runs_ds(
        ray.data.from_arrow(t), k=3, min_run_tokens=3, max_bucket=3
    ).to_pandas()
    assert set(zip(capped.doc_a, capped.doc_b, capped.max_run_tokens)) == {
        (0, 1, 3),
        (3, 4, 5),
    }
    # uncapped, the hot gram links every doc pair
    full = co.substring_runs_ds(
        ray.data.from_arrow(t), k=3, min_run_tokens=3, max_bucket=None
    ).to_pandas()
    assert len(full) == 10
    assert set(zip(full.doc_a, full.doc_b, full.max_run_tokens)) >= {(3, 4, 5)}


def test_ngram_verify_empty_candidates(ray_session):
    """Zero candidate pairs must yield an empty result, not an ArrowTypeError
    from pc.is_in over a null-typed empty value set."""
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["alpha beta", "gamma delta", "epsilon zeta"]),
            }
        )
    )
    pairs = co.minhash_pairs_ds(docs, threshold=0.99)  # nothing is near-dup
    assert pairs.count() == 0
    verified = co.ngram_jaccard_verify_ds(pairs, docs, threshold=0.5)
    assert verified.count() == 0


def test_chunk_windows_empty_batch(ray_session):
    """An all-filtered (zero-row) block must pass through the chunk kernel."""
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["keep me here", "also kept"]),
            }
        )
    ).filter(lambda r: False)
    assert co.chunk_windows_ds(docs, window=4, stride=3).count() == 0


def test_jaccard_join_matches_bruteforce(ray_session):
    """Prefix filtering must be EXACT: the operator's pair set equals a
    brute-force all-pairs token-set Jaccard join on a corpus with mixed
    overlap levels (100% recall is the whole point vs MinHash)."""
    docs = [
        "a b c d e f g h",          # 0: base
        "a b c d e f g x",          # 1: J(0,1)=7/9
        "a b c d e f g h",          # 2: exact dup of 0 -> J=1
        "a b c d w x y z",          # 3: J(0,3)=4/12
        "p q r s t u v w",          # 4: disjoint-ish
        "p q r s t u v w p q",      # 5: same SET as 4 -> J=1
        "m n",                      # 6: tiny
    ]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(docs))), pa.int64()),
            "text": pa.array(docs),
        }
    )
    num, den = 3, 4  # t = 0.75
    out = co.jaccard_join_ds(
        ray.data.from_arrow(t), threshold_num=num, threshold_den=den,
        max_bucket=None,
    ).to_pandas()
    got = {
        (a, b): (i, u, j)
        for a, b, i, u, j in zip(out.doc_a, out.doc_b, out.inter, out.uni, out.jac_e3)
    }
    sets = [frozenset(d.split(" ")) for d in docs]
    want = {}
    for a in range(len(docs)):
        for b in range(a + 1, len(docs)):
            inter = len(sets[a] & sets[b])
            uni = len(sets[a] | sets[b])
            if inter * den >= num * uni:
                want[(a, b)] = (inter, uni, inter * 1000 // uni)
    assert got == want
    assert (0, 2) in got and got[(0, 2)] == (8, 8, 1000)
    assert (4, 5) in got  # multiset differs, SET identical
    assert (0, 3) not in got


def test_jaccard_join_hot_prefix_star_cap(ray_session, caplog):
    """Docs sharing one rare prefix token fall back to star pairs above
    max_bucket with a logged warning — the 100 TB hot-prefix path."""
    import logging

    # identical sets => every pair passes; 'z9' is each doc's rarest-tied
    # token so all prefixes collide in one token group
    t = pa.table(
        {
            "doc_id": pa.array(list(range(12)), pa.int64()),
            "text": pa.array(["z9 k1 k2 k3" for _ in range(12)]),
        }
    )
    with caplog.at_level(logging.WARNING):
        out = co.jaccard_join_ds(
            ray.data.from_arrow(t), threshold_num=1, threshold_den=2, max_bucket=4
        ).to_pandas()
    pairs = set(zip(out.doc_a, out.doc_b))
    # star around the minimum id: linear, not quadratic
    # (the warning itself fires inside the map_groups worker process, so
    # caplog can't observe it here — same as the substring star-cap test)
    assert pairs == {(0, i) for i in range(1, 12)}


def test_rare_tokens_planted(ray_session):
    """Tokens below min_count count as rare WITH multiplicity; permille is
    integer floor; a doc of only frequent tokens scores zero."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "common common common oddity",   # oddity appears once
                    "common glitch glitch",          # glitch appears twice < 3
                    "common common",                 # all frequent
                ]
            ),
        }
    )
    out = (
        co.rare_tokens_ds(ray.data.from_arrow(t), min_count=3)
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[0].tolist() == [4, 1, 250]
    assert out.loc[1].tolist() == [3, 2, 666]  # floor(2000/3)
    assert out.loc[2].tolist() == [2, 0, 0]


def test_heavy_hitters_order_and_cutoff(ray_session):
    """Top-k is ordered n DESC, token ASC and the tie at the cutoff picks
    the lexicographically smaller token."""
    text = " ".join(["big"] * 5 + ["mid2"] * 3 + ["mid1"] * 3 + ["one"])
    t = pa.table(
        {"doc_id": pa.array([0], pa.int64()), "text": pa.array([text])}
    )
    out = co.heavy_hitters_ds(ray.data.from_arrow(t), k=2).to_pandas()
    assert list(zip(out.token, out.n)) == [("big", 5), ("mid1", 3)]


def test_length_rank_matches_window(ray_session):
    """Broadcast-CDF rank equals count(*) OVER (ORDER BY v): peers share
    n_le, permille is integer floor of n_le*1000/N."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "n_chars": pa.array([10, 20, 20, 30, 5, 30], pa.int64()),
        }
    )
    out = (
        co.length_rank_ds(ray.data.from_arrow(t))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out.n_le.tolist() == [2, 4, 4, 6, 1, 6]
    assert out.permille.tolist() == [333, 666, 666, 1000, 166, 1000]


def test_length_rank_domain_guard(ray_session, monkeypatch):
    t = pa.table(
        {
            "doc_id": pa.array(range(100), pa.int64()),
            "n_chars": pa.array(range(100), pa.int64()),
        }
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 10)
    with pytest.raises(ValueError, match="MAX_BROADCAST_ROWS"):
        co.length_rank_ds(ray.data.from_arrow(t))


def test_knn_graph_known_neighbors(ray_session):
    # 4 unit-ish vectors: 0 and 1 nearly parallel, 2 orthogonal, 3 opposite
    vecs = [
        [1.0, 0.0, 0.0],
        [0.9, 0.1, 0.0],
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
    ]
    t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    out = co.knn_graph_ds(ray.data.from_arrow(t), k=2).to_pandas()
    g = out[out.vec_id == 0].sort_values("rank")
    assert g.neighbor_id.tolist() == [1, 2]  # parallel first, then orthogonal
    assert g.iloc[0].sim_e6 > 900_000 and abs(int(g.iloc[1].sim_e6)) <= 1
    # self never appears; every vector gets exactly k rows
    assert (out.vec_id != out.neighbor_id).all()
    assert out.groupby("vec_id").size().tolist() == [2, 2, 2, 2]


def test_knn_graph_tie_break_by_id(ray_session):
    # vectors 1 and 2 are IDENTICAL -> exact double tie for vec 0;
    # the lower neighbor id must rank first
    vecs = [[1.0, 0.0], [0.6, 0.8], [0.6, 0.8]]
    t = pa.table(
        {
            "vec_id": pa.array([10, 5, 2], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    out = co.knn_graph_ds(ray.data.from_arrow(t), k=2).to_pandas()
    g = out[out.vec_id == 10].sort_values("rank")
    assert g.neighbor_id.tolist() == [2, 5]


def test_weighted_sample_deterministic_and_clamped(ray_session):
    import hashlib

    t = pa.table(
        {
            "doc_id": pa.array(list(range(200)), pa.int64()),
            "w": pa.array([0] * 50 + [500] * 50 + [5000] * 100, pa.int64()),
        }
    )
    out = co.weighted_sample_ds(ray.data.from_arrow(t), "w", id_col="doc_id").to_pandas()
    # weight 0 rows never survive; weight >= 1000 rows always survive
    assert (out.doc_id >= 50).all()
    assert set(range(100, 200)).issubset(set(out.doc_id))
    assert (out.keep_permille <= 1000).all()
    # survival matches the md5 rule exactly
    for r in out.itertuples():
        b = int(hashlib.md5(str(r.doc_id).encode()).hexdigest()[:8], 16) % 1000
        assert b == r.bucket and b < r.keep_permille


def test_lang_confusion_matrix(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    ["the and of it", "der die und", "zzz qqq", "the of and"]
                ),
                "lang": pa.array(["en", "en", "en", "de"]),
            }
        )
    )
    out = {(r["declared"], r["detected"]): r["n_docs"]
           for r in co.lang_confusion_ds(docs).take_all()}
    assert out[("en", "en")] == 1
    assert out[("en", "de")] == 1   # declared en, detected de
    assert out[("en", "und")] == 1
    assert out[("de", "en")] == 1   # mislabeled source shows up here


def test_collocations_hand_computed(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"text": pa.array(["a b a b", "a b c"], pa.string())})
    )
    # bigrams: (a,b)x3, (b,a)x1, (b,c)x1 -> N=5; n_x(a)=3; n_y(b)=3
    rows = co.collocations_ds(docs, min_count=2).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert (r["w1"], r["w2"], r["n_xy"]) == ("a", "b", 3)
    assert r["lift_e6"] == 3 * 5 * 1_000_000 // (3 * 3)


def test_collocations_empty_and_single_token_docs(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"text": pa.array(["solo", ""], pa.string())})
    )
    assert co.collocations_ds(docs, min_count=1).take_all() == []


def test_centroids_exact_negative_components(ray_session):
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "label": pa.array([0, 0, 1], pa.int32()),
                "embedding": pa.array(
                    [[0.5, -0.25], [0.5, 0.75], [-1.0, 2.0]],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )
    rows = {(r["label"], r["dim"]): r for r in co.centroids_ds(emb).take_all()}
    # floor(-0.25e6) = -250000 (floor, not truncation)
    assert rows[(0, 1)]["sum_e6"] == 1_000_000 and rows[(0, 1)]["n_vecs"] == 2
    assert rows[(0, 2)]["sum_e6"] == -250_000 + 750_000
    assert rows[(1, 1)]["sum_e6"] == -1_000_000 and rows[(1, 1)]["n_vecs"] == 1


def _emb_table(rows):
    import pyarrow as pa

    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([r[0] for r in rows], pa.int64()),
                "embedding": pa.array(
                    [[float(x) for x in r[1]] for r in rows],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )


def test_kmeans_separates_blobs_and_is_partition_invariant(ray_session):
    # two tight blobs; k=2 init = ids 0 and 1 (one in each blob)
    rows = [(0, [0.0, 0.0]), (1, [10.0, 10.0])]
    rows += [(i, [0.1 * (i % 3), 0.1]) for i in range(2, 12)]
    rows += [(i, [10.0 + 0.1 * (i % 3), 9.9]) for i in range(12, 22)]
    a = {
        r["vec_id"]: r["cluster"]
        for r in co.kmeans_ds(_emb_table(rows), k=2).take_all()
    }
    b = {
        r["vec_id"]: r["cluster"]
        for r in co.kmeans_ds(_emb_table(rows).repartition(7), k=2).take_all()
    }
    assert a == b  # partial merge is partition-invariant
    lo = {i for i, c in a.items() if c == 0}
    assert lo == {0} | set(range(2, 12))
    assert {i for i, c in a.items() if c == 1} == {1} | set(range(12, 22))


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    # k=3 but only two distinct locations: one centroid never wins a
    # point after the first update and must keep its previous position
    rows = [(0, [0.0, 0.0]), (1, [0.0, 0.0]), (2, [5.0, 5.0]), (3, [5.0, 5.0])]
    out = co.kmeans_ds(_emb_table(rows), k=3).take_all()
    assert len(out) == 4
    by_id = {r["vec_id"]: r for r in out}
    # ties in distance break to the smallest centroid id
    assert by_id[0]["cluster"] == by_id[1]["cluster"] == 0
    assert by_id[2]["cluster"] == by_id[3]["cluster"] == 2
    assert all(r["dist2"] == 0 for r in out)


def _fuzzy(qs, dict_rows, **kw):
    queries = ray.data.from_arrow(pa.table({"q": pa.array(qs, pa.string())}))
    d = ray.data.from_arrow(
        pa.table(
            {
                "token": pa.array([t for t, _ in dict_rows], pa.string()),
                "c": pa.array([c for _, c in dict_rows], pa.int64()),
            }
        )
    )
    return {
        (r["query"], r["suggestion"]): (r["dist"], r["sugg_n"])
        for r in co.fuzzy_join_ds(queries, d, **kw).take_all()
    }


def test_ed1_verify_kernel_cases():
    qs = np.array(
        ["abc", "abc", "abc", "abc", "ab", "abcd", "aaa", "xyz"], dtype=object
    )
    ws = np.array(
        ["abc", "abd", "adc", "abcd", "abc", "abc", "aa", "abc"], dtype=object
    )
    # fuzzy_join_ds verifies a candidate pair as levenshtein <= 1
    got = (ts.levenshtein(qs, ws) == 1).tolist()
    #      eq     sub    sub    ins    ins    del    del    far
    assert got == [False, True, True, True, True, True, True, False]


def test_fuzzy_join_exact_sub_ins_del_and_miss(ray_session):
    out = _fuzzy(
        ["hello", "helo", "hellox", "xhello", "zzz", "small", "smal"],
        [("hello", 7), ("small", 3), ("word", 1)],
    )
    assert out == {
        ("hello", "hello"): (0, 7),   # exact hit, emitted once
        ("helo", "hello"): (1, 7),    # one deletion
        ("hellox", "hello"): (1, 7),  # one trailing insertion
        ("xhello", "hello"): (1, 7),  # one leading insertion
        ("small", "small"): (0, 3),
        ("smal", "small"): (1, 3),    # repeated-char deletion: ONE row
    }


def test_fuzzy_join_no_duplicate_rows_and_partition_invariance(
    ray_session, monkeypatch
):
    # many repeated-char tokens (the classic duplicate-variant trap)
    dict_rows = [("aabb", 2), ("aab", 5), ("abb", 1), ("abcd", 9)]
    qs = ["aab", "ab", "abc", "aabb"]
    monkeypatch.setattr(exchange, "N_EXCHANGE_BUCKETS", 2)
    a = _fuzzy(qs, dict_rows)
    monkeypatch.setattr(exchange, "N_EXCHANGE_BUCKETS", 64)
    b = _fuzzy(qs, dict_rows)
    assert a == b
    # every key appears exactly once by construction of the dict return;
    # verify against a brute-force reference
    import itertools

    def lev1(u, v):
        if u == v:
            return 0
        if abs(len(u) - len(v)) > 1:
            return 99
        # brute force small strings
        import difflib
        dp = {}
        def d(i, j):
            if (i, j) in dp:
                return dp[(i, j)]
            if i == 0:
                r = j
            elif j == 0:
                r = i
            else:
                r = min(
                    d(i - 1, j) + 1,
                    d(i, j - 1) + 1,
                    d(i - 1, j - 1) + (u[i - 1] != v[j - 1]),
                )
            dp[(i, j)] = r
            return r
        return d(len(u), len(v))

    expect = {
        (q, t): (lev1(q, t), c)
        for q, (t, c) in itertools.product(qs, [(t, c) for t, c in dict_rows])
        if lev1(q, t) <= 1
    }
    assert a == expect


def test_source_overlap_hand_computed_and_partition_invariant(
    ray_session, monkeypatch
):
    # short docs (<5 tokens) fall back to whole-doc grams
    rows = [
        ("a", "x y"), ("a", "p q"), ("a", "u v"),
        ("b", "x y"), ("b", "p q"),
        ("c", "x y"), ("c", "zz ww"),
    ]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array([r[0] for r in rows], pa.string()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )
    got = {
        (r["src_a"], r["src_b"]): (r["shared_grams"], r["n_a"], r["n_b"])
        for r in co.source_overlap_ds(docs).take_all()
    }
    assert got == {
        ("a", "b"): (2, 3, 2),
        ("a", "c"): (1, 3, 2),
        ("b", "c"): (1, 2, 2),
    }
    monkeypatch.setattr(exchange, "N_EXCHANGE_BUCKETS", 3)
    got2 = {
        (r["src_a"], r["src_b"]): (r["shared_grams"], r["n_a"], r["n_b"])
        for r in co.source_overlap_ds(docs.repartition(5)).take_all()
    }
    assert got2 == got


def test_source_overlap_empty_and_disjoint(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "b"], pa.string()),
                "text": pa.array(["one two", "three four"], pa.string()),
            }
        )
    )
    assert co.source_overlap_ds(docs).take_all() == []
    empty = ray.data.from_arrow(
        pa.table({"source": pa.array([], pa.string()), "text": pa.array([], pa.string())})
    )
    assert co.source_overlap_ds(empty).take_all() == []


def test_dsir_weights_prefers_target_tokens(ray_session):
    # target docs (lang=en) use token "alpha"; raw-only docs use "beta"
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    ["alpha alpha", "alpha", "beta beta beta", "beta"],
                    pa.string(),
                ),
                "lang": pa.array(["en", "en", "de", "de"], pa.string()),
            }
        )
    )
    rows = {r["doc_id"]: r for r in
            co.dsir_weights_ds(docs, "lang", "en").take_all()}
    # per-token ratio of "alpha" must exceed "beta" (alpha is target-heavy)
    r_alpha = rows[2]["weight_e6"]          # 1 token
    r_beta = rows[4]["weight_e6"]           # 1 token
    assert r_alpha > r_beta
    assert rows[1]["weight_e6"] == 2 * r_alpha  # sums are linear in tokens
    assert rows[1]["n_tokens"] == 2
    # partition invariance
    rows2 = {r["doc_id"]: (r["n_tokens"], r["weight_e6"]) for r in
             co.dsir_weights_ds(docs.repartition(4), "lang", "en").take_all()}
    assert rows2 == {k: (v["n_tokens"], v["weight_e6"]) for k, v in rows.items()}


def test_pq_encode_compresses_and_reconstruction_error(ray_session):
    # 8 vectors in 2 obvious blobs per subspace: codes must separate them
    rng = np.random.RandomState(3)
    base = np.zeros((8, 8))
    base[4:, :] = 10.0  # second half far away in every dim
    vecs = base + rng.rand(8, 8) * 0.01
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(list(range(8)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )
    rows = {r["vec_id"]: r for r in
            co.pq_encode_ds(emb, m_sub=2, k=2).take_all()}
    assert len(rows) == 8
    for s in range(2):
        lo = {rows[i][f"code_{s}"] for i in range(4)}
        hi = {rows[i][f"code_{s}"] for i in range(4, 8)}
        assert lo.isdisjoint(hi)  # blobs never share a code
    assert all(r["err2"] >= 0 for r in rows.values())
    # partition invariance
    rows2 = {r["vec_id"]: (r["code_0"], r["code_1"], r["err2"]) for r in
             co.pq_encode_ds(emb.repartition(5), m_sub=2, k=2).take_all()}
    assert rows2 == {i: (r["code_0"], r["code_1"], r["err2"])
                     for i, r in rows.items()}


def test_pq_search_finds_query_blob(ray_session):
    # query = vector of id 0; its blob-mates must fill the top-k
    rng = np.random.RandomState(11)
    base = np.zeros((12, 8))
    base[6:, :] = 50.0
    vecs = base + rng.rand(12, 8)
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(list(range(12)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
            }
        )
    )
    rows = co.pq_search_ds(
        emb, vecs[0], m_sub=2, k=2, topk=6
    ).take_all()
    assert [r["vec_id"] for r in rows] == [0, 1, 2, 3, 4, 5]
    assert all(rows[0]["adc2"] <= r["adc2"] for r in rows)
    # partition invariance of the global top-k
    rows2 = co.pq_search_ds(
        emb.repartition(6), vecs[0], m_sub=2, k=2, topk=6
    ).take_all()
    assert [(r["vec_id"], r["adc2"]) for r in rows2] == [
        (r["vec_id"], r["adc2"]) for r in rows
    ]


def test_simpson_diversity_kernel(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["a a a a", "a b c d", "a a b b"], pa.string()),
            }
        )
    )
    out = {r["doc_id"]: r for r in co.simpson_diversity_ds(docs).take_all()}
    # all-same: sum_c2 = 16 = n^2 -> simpson 0
    assert out[1]["n_tokens"] == 4 and out[1]["sum_c2"] == 16
    assert out[1]["simpson_e6"] == 0 and out[1]["n_distinct"] == 1
    # all-distinct: sum_c2 = 4 -> 1e6 - 1e6*4//16 = 750000
    assert out[2]["sum_c2"] == 4 and out[2]["simpson_e6"] == 750_000
    # two pairs: sum_c2 = 8 -> 1e6 - 500000
    assert out[3]["simpson_e6"] == 500_000 and out[3]["n_distinct"] == 2


def test_corpus_checksum_order_invariant(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["aa", "bb", "cc", "dd"], pa.string()),
        }
    )
    fwd = co.corpus_checksum_ds(ray.data.from_arrow(t)).take_all()[0]
    rev = co.corpus_checksum_ds(
        ray.data.from_arrow(t.take(pa.array([3, 1, 0, 2])))
    ).take_all()[0]
    # order- and blocking-invariant, and exact vs a direct fold
    split = co.corpus_checksum_ds(
        ray.data.from_arrow(t).repartition(3)
    ).take_all()[0]
    assert fwd == rev == split
    from pdfplumber_ray.functions.textstats import md5_u64

    hs = [md5_u64(f"{i}|{s}") for i, s in zip([1, 2, 3, 4], ["aa", "bb", "cc", "dd"])]
    assert fwd["n_rows"] == 4
    assert fwd["sum63"] == sum(hs) % (1 << 63)
    x = 0
    for h in hs:
        x ^= h
    assert fwd["xor63"] == x & ((1 << 63) - 1)


def test_bm25_topk_kernel(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "cat cat cat dog",      # tf(cat)=3, dl=4
                        "cat fish",             # tf(cat)=1, dl=2
                        "dog dog bird",         # no query term
                        "fish fish fish fish",  # rarest term repeated
                    ],
                    pa.string(),
                ),
            }
        )
    )
    out = co.bm25_topk_ds(docs, ["cat", "fish"], k=3).take_all()
    # N=4, T=13, A=3; df(cat)=2, df(fish)=2
    # exact per-(doc,term): 1e6*(2*4-2*2+1)*44*tf*3 // ((2*2+1)*(60*tf+18+18*dl))
    def s(tf, dl):
        return (1_000_000 * 5 * 44 * tf * 3) // (5 * (20 * tf * 3 + 6 * 3 + 18 * dl))
    exp = {1: s(3, 4), 2: s(1, 2) + s(1, 2), 4: s(4, 4)}
    got = {r["doc_id"]: r["score_e6"] for r in out}
    assert got == dict(sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))[:3]) or got == exp
    hits = {r["doc_id"]: r["n_hit"] for r in out}
    assert hits[2] == 2 and hits[1] == 1
    # doc 3 (no query term) never appears
    assert 3 not in got


def test_bm25_topk_block_invariance(ray_session):
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(20)), pa.int64()),
            "text": pa.array(
                [f"w{i % 3} cat {'fish ' * (i % 5)}".strip() for i in range(20)],
                pa.string(),
            ),
        }
    )
    one = co.bm25_topk_ds(ray.data.from_arrow(docs), ["cat", "fish"], k=5).take_all()
    many = co.bm25_topk_ds(
        ray.data.from_arrow(docs).repartition(7), ["cat", "fish"], k=5
    ).take_all()
    assert one == many


def test_bpe_pairs_kernel(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["abab ab", "abab x"], pa.string()),
            }
        )
    )
    out = {r["pair"]: r["n"] for r in co.bpe_pairs_ds(docs, k=10).take_all()}
    # word freqs: abab x2, ab x1, x x1
    # 'ab' pairs: abab has 2 per occurrence (pos 0, 2) -> 4, ab has 1 -> 5
    # 'ba' : abab 1 each -> 2 ; 'x' single char -> none
    assert out == {"ab": 5, "ba": 2}


def test_dedup_keep_best_kernel(ray_session):
    # cluster {1,2,3} (chain 1-2, 2-3), singleton 4; longest wins, id tiebreak
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 2], pa.int64()),
                "doc_b": pa.array([2, 3], pa.int64()),
            }
        )
    )
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "n_chars": pa.array([10, 50, 50, 7], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r for r in co.dedup_keep_best_ds(pairs, docs).take_all()}
    # best of {1,2,3}: score 50 tie between 2 and 3 -> doc 2
    assert all(out[i]["canonical_id"] == 1 for i in (1, 2, 3))
    assert all(out[i]["best_doc_id"] == 2 for i in (1, 2, 3))
    assert [out[i]["keep"] for i in (1, 2, 3, 4)] == [0, 1, 0, 1]
    assert out[4]["best_doc_id"] == 4 and out[4]["canonical_id"] == 4


def test_surprisal_kernel(ray_session):
    # corpus: "a a a a b b c d" across two docs -> T=8
    # counts: a=4, b=2, c=1, d=1 -> bits: a: log2(8//4)=1, b: 8//2=4 -> 2,
    # c,d: 8 -> 3
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["a a b c", "a a b d"], pa.string()),
            }
        )
    )
    out = {r["doc_id"]: r for r in co.surprisal_ds(docs).take_all()}
    assert out[1]["surprisal_bits"] == 1 + 1 + 2 + 3 == 7
    assert out[2]["surprisal_bits"] == 7
    assert out[1]["n_tokens"] == 4 and out[1]["mean_bits_e3"] == 1750


def test_surprisal_floor_log2_boundary(ray_session):
    # exercise the floor(log2(T//c)) identity at a power-of-2 boundary:
    # T=6, c=2 -> T//c=3 -> 1 bit (log2(3)=1.58); c=1 -> 6 -> 2 bits
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["x x y z w v"], pa.string()),
            }
        )
    )
    r = co.surprisal_ds(docs).take_all()[0]
    # x: 6//2=3 -> 1 bit each (x2); y,z,w,v: 6//1=6 -> 2 bits each (x4)
    assert r["surprisal_bits"] == 2 * 1 + 4 * 2 == 10


def test_temperature_mix_isqrt_exact(ray_session):
    import math

    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["s1"] * 9 + ["s2"], pa.string()),
                "lang": pa.array(["en"] * 9 + ["de"], pa.string()),
                # 9 docs of 10 words vs 1 doc of 10 words: proportional
                # would give s2 10%, temperature alpha=.5 gives
                # isqrt(90)=9, isqrt(10)=3 -> 25%
                "text": pa.array([" ".join(["w"] * 10)] * 10, pa.string()),
            }
        )
    )
    rows = {(r["source"], r["lang"]): r for r in co.temperature_mix_ds(docs).take_all()}
    assert rows[("s1", "en")]["sqrt_words"] == math.isqrt(90) == 9
    assert rows[("s2", "de")]["sqrt_words"] == math.isqrt(10) == 3
    assert rows[("s2", "de")]["weight_e6"] == 3 * 1_000_000 // 12  # 250000
    assert rows[("s1", "en")]["weight_e6"] == 9 * 1_000_000 // 12  # 750000


def test_containment_catches_doc_inside_doc(ray_session):
    short = " ".join(f"w{i}" for i in range(10))
    long = short + " " + " ".join(f"z{i}" for i in range(200))
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([short, long], pa.string()),
            }
        )
    )
    pairs = ray.data.from_arrow(
        pa.table(
            {"doc_a": pa.array([1], pa.int64()), "doc_b": pa.array([2], pa.int64())}
        )
    )
    out = co.containment_dedup_ds(pairs, docs, threshold_e6=900_000).take_all()
    # every one of the short doc's 6 shingles appears in the long doc,
    # so containment is exactly 1.0 even though jaccard is ~6/212
    assert len(out) == 1
    assert out[0]["containment_e6"] == 1_000_000
    assert out[0]["inter"] == out[0]["n_small"] == 6
    j = co.ngram_jaccard_verify_ds(pairs, docs, threshold=0.5).take_all()
    assert j == []  # jaccard misses the same pair


def test_token_budget_select_boundary(ray_session):
    # scores 3,3,2,1 with 10 words each; budget 25 keeps the two score-3
    # docs (cum 10,20) and NOT the score-2 doc (cum 30 > 25)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([4, 1, 2, 3], pa.int64()),
                "n_chars": pa.array([1, 3, 3, 2], pa.int64()),
                "text": pa.array([" ".join(["w"] * 10)] * 4, pa.string()),
            }
        )
    )
    out = sorted(
        co.token_budget_select_ds(docs, budget_tokens=25).take_all(),
        key=lambda r: r["cum_words"],
    )
    assert [(r["doc_id"], r["cum_words"]) for r in out] == [(1, 10), (2, 20)]


def test_token_budget_select_fraction_and_ties(ray_session):
    # equal scores: doc_id ASC breaks ties; budget = 50% of 40 words = 20
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([9, 7, 8, 6], pa.int64()),
                "n_chars": pa.array([5, 5, 5, 5], pa.int64()),
                "text": pa.array([" ".join(["w"] * 10)] * 4, pa.string()),
            }
        )
    )
    out = sorted(
        co.token_budget_select_ds(docs, budget_permille=500).take_all(),
        key=lambda r: r["cum_words"],
    )
    assert [(r["doc_id"], r["cum_words"]) for r in out] == [(6, 10), (7, 20)]


def test_shuffle_shards_contract(ray_session):
    import hashlib

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(100)), pa.int64())})
    )
    out = co.shuffle_shards_ds(docs, n_shards=8).take_all()
    assert len(out) == 100
    by_shard = {}
    for r in out:
        by_shard.setdefault(r["shard"], []).append(r)
    for shard, rows in by_shard.items():
        # positions are 0..n-1 within each shard
        assert sorted(r["pos"] for r in rows) == list(range(len(rows)))
        # shard assignment reproduces the md5 contract
        for r in rows:
            h = int(hashlib.md5(str(r["doc_id"]).encode()).hexdigest()[:15], 16)
            assert h % 8 == shard


def test_novelty_first_occurrence_attribution(ray_session):
    # doc 1 coins both grams; doc 2 repeats doc 1 verbatim (zero novel);
    # doc 3 is half new (its text's single whole-text shingle is new)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([2, 1, 3], pa.int64()),
                "text": pa.array(
                    ["a b c d e f", "a b c d e f", "x y z"], pa.string()
                ),
            }
        )
    )
    rows = {r["doc_id"]: r for r in co.novelty_score_ds(docs).take_all()}
    assert rows[1]["novel"] == rows[1]["n_grams"] == 2
    assert rows[1]["novelty_e6"] == 1_000_000
    assert rows[2]["novel"] == 0 and rows[2]["novelty_e6"] == 0
    assert rows[3]["novel"] == rows[3]["n_grams"] == 1


def test_apportion_quota_sums_to_k(ray_session):
    # 7/2/1 docs over 10 slots: base 7,2,1 -> exact; then k=10 over
    # 3/3/4 gives base 3,3,4 too; force remainders with k=7
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a"] * 3 + ["b"] * 3 + ["c"] * 4, pa.string()),
                "lang": pa.array(["en"] * 10, pa.string()),
            }
        )
    )
    rows = {r["source"]: r["quota"] for r in co.apportion_quota_ds(docs, k=7).take_all()}
    # base: 2,2,2 (floor 2.1,2.1,2.8); leftover 1 goes to largest rem = c
    assert rows == {"a": 2, "b": 2, "c": 3}
    assert sum(rows.values()) == 7


def test_bigram_surprisal_exact(ray_session):
    # corpus: "a b" x3, "a c" x1 -> c1(a)=4, c2("a b")=3, c2("a c")=1
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(["a b", "a b", "a b", "a c", "z"], pa.string()),
            }
        )
    )
    rows = {r["doc_id"]: r for r in co.bigram_surprisal_ds(docs).take_all()}
    # "a b": floor(log2(4 // 3)) = 0 bits; "a c": floor(log2(4 // 1)) = 2
    assert rows[1]["bigram_bits"] == 0 and rows[1]["n_bigrams"] == 1
    assert rows[4]["bigram_bits"] == 2
    assert 5 not in rows  # single-token doc has no transitions


def test_quota_sample_exact_k_and_determinism(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a"] * 30 + ["b"] * 10, pa.string()),
                "lang": pa.array(["en"] * 40, pa.string()),
                "doc_id": pa.array(list(range(40)), pa.int64()),
            }
        )
    )
    out1 = sorted(
        (r["source"], r["doc_id"], r["rk"])
        for r in co.quota_sample_ds(docs, k=8).take_all()
    )
    out2 = sorted(
        (r["source"], r["doc_id"], r["rk"])
        for r in co.quota_sample_ds(docs, k=8).take_all()
    )
    assert out1 == out2  # deterministic, no RNG state
    assert len(out1) == 8
    # quotas: a = floor(8*30/40) = 6, b = floor(8*10/40) = 2 (no remainders)
    assert sum(1 for s, _, _ in out1 if s == "a") == 6
    assert sum(1 for s, _, _ in out1 if s == "b") == 2


def test_length_buckets_padding(ray_session):
    # 8 docs, lengths 1..8, 2 buckets -> boundaries at rank ceil(4)=4 and
    # ceil(8)=8: bucket1 = lens 1-4, bucket2 = lens 5-8
    docs = ray.data.from_arrow(
        pa.table({"n_chars": pa.array(list(range(1, 9)), pa.int64())})
    )
    rows = {r["bucket"]: r for r in co.length_buckets_ds(docs, n_bucket=2).take_all()}
    assert rows[1]["n_docs"] == 4 and rows[1]["max_len"] == 4
    assert rows[1]["padding"] == 4 * 4 - 10  # 6
    assert rows[2]["n_docs"] == 4 and rows[2]["max_len"] == 8
    assert rows[2]["padding"] == 4 * 8 - 26  # 6
    assert rows[1]["padding_permille"] == 6 * 1000 // 16


def test_dup_histogram_planted_families(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(6)), pa.int64()),
                "text": pa.array(["a", "a", "a", "b", "b", "c"], pa.string()),
            }
        )
    )
    rows = {r["family_size"]: r for r in co.dup_histogram_ds(docs).take_all()}
    assert rows[3]["n_families"] == 1 and rows[3]["n_docs"] == 3
    assert rows[2]["n_families"] == 1 and rows[2]["n_docs"] == 2
    assert rows[1]["n_families"] == 1 and rows[1]["n_docs"] == 1


def test_term_coverage_zipf(ray_session):
    # tokens: x*6, y*3, z*1 -> top-1 covers 6/10
    docs = ray.data.from_arrow(
        pa.table(
            {"text": pa.array(["x x x x x x y y y z"], pa.string())}
        )
    )
    rows = {r["k"]: r for r in co.term_coverage_ds(docs, ks=(1, 2)).take_all()}
    assert rows[1]["covered"] == 6 and rows[1]["total"] == 10
    assert rows[1]["share_ppm"] == 600_000
    assert rows[2]["covered"] == 9 and rows[2]["share_ppm"] == 900_000


def test_lsh_bucket_stats_identical_docs_collide(ray_session):
    # two identical docs share every band bucket; a distinct doc is alone
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["a b c d e f g h", "a b c d e f g h", "q r s t u v w x"],
                    pa.string(),
                ),
            }
        )
    )
    rows = {r["bucket_size"]: r for r in co.lsh_bucket_stats_ds(docs).take_all()}
    # 16 bands: docs 1+2 share 16 buckets of size 2; doc 3 fills 16 of size 1
    assert rows[2]["n_buckets"] == 16 and rows[2]["n_entries"] == 32
    assert rows[1]["n_buckets"] == 16


def test_backoff_surprisal_unseen_penalty(ray_session):
    # train (even ids): "a b" x2 -> c1(a)=2, c2("a b")=2, T=4
    # score (odd ids): "a b" (seen: bits log2(2//2)=0),
    #                  "a z" (unseen bigram, seen prev: 2 + log2(4//2) = 3),
    #                  "q z" (unseen prev: 2 + log2(4) = 4)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 2, 1, 3, 5], pa.int64()),
                "text": pa.array(["a b", "a b", "a b", "a z", "q z"], pa.string()),
            }
        )
    )
    rows = {r["doc_id"]: r["backoff_bits"] for r in co.backoff_surprisal_ds(docs).take_all()}
    assert rows == {1: 0, 3: 3, 5: 4}


def test_snm_pairs_window_and_key_flag(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # normalized keys: doc1/doc2 share "abcdefgh", doc3 is "zzz..."
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["Abc def ghi jkl", "abcdefgh trailing", "zzzzzzzz end"],
                    pa.string(),
                ),
            }
        )
    )
    rows = co.snm_pairs_ds(docs, window=4).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): r for r in rows}
    # ranks: doc1(abcdefgh), doc2(abcdefgh), doc3(zzzzzzzz) -> 3 pairs
    assert set(pairs) == {(1, 2), (1, 3), (2, 3)}
    assert pairs[(1, 2)]["same_key8"] == 1 and pairs[(1, 2)]["gap"] == 1
    assert pairs[(1, 3)]["same_key8"] == 0 and pairs[(1, 3)]["gap"] == 2


def test_snm_pairs_chunk_boundary_exactly_once(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 10 docs with strictly ordered keys; chunk=4 forces boundary pairs
    # (ranks 4-5, 8-9 cross chunks); every in-window pair must appear
    # exactly once
    texts = [f"{chr(ord('a') + i)}key body" for i in range(10)]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    rows = co.snm_pairs_ds(docs, window=3, chunk=4).take_all()
    got = sorted((r["doc_a"], r["doc_b"]) for r in rows)
    want = sorted(
        (i, j) for i in range(10) for j in range(i + 1, min(i + 3, 10))
    )
    assert got == want  # no duplicates, no misses across chunk boundaries


def test_entity_mentions_capitalized_default(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [
                        "went to New York City and saw New York again",
                        "in New York with Ada Lovelace yes",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    rows = co.entity_mentions_ds(docs, k=10).take_all()
    got = {r["entity"]: r["n"] for r in rows}
    # runs are maximal: "New York City" once, "New York" twice, Ada once
    assert got == {"New York City": 1, "New York": 2, "Ada Lovelace": 1}


def test_entity_mentions_run_breaks_on_nonmatching_token(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["Alpha Beta x Gamma Delta"], pa.string()),
            }
        )
    )
    rows = co.entity_mentions_ds(docs, k=10).take_all()
    got = {r["entity"] for r in rows}
    assert got == {"Alpha Beta", "Gamma Delta"}


def test_power_iter_step_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # two 2-d vectors: q = [[1000, 2000], [3000, -1000]] (e3 of values)
    embs = ray.data.from_arrow(
        pa.table(
            {
                "embedding": pa.array(
                    [[1.0, 2.0], [3.0, -1.0]], pa.list_(pa.float32())
                )
            }
        )
    )
    rows = {r["dim"]: r["comp"] for r in co.power_iter_step_ds(embs).take_all()}
    # s = [3000, 2000]; out[1] = 1000*3000 + 3000*2000 = 9e6
    # out[2] = 2000*3000 - 1000*2000 = 4e6
    assert rows == {1: 9_000_000, 2: 4_000_000}


def test_prefix_filter_pairs_completeness(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # doc1 and doc2 share most tokens (jaccard > 0.5) -> must be a
    # candidate (prefix filtering is COMPLETE above the threshold);
    # doc3 is disjoint -> never a candidate with anyone
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["a b c d", "a b c e", "x y z w"], pa.string()
                ),
            }
        )
    )
    pairs = {
        (r["doc_a"], r["doc_b"])
        for r in co.prefix_filter_pairs_ds(docs, threshold_permille=500).take_all()
    }
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)


def test_prefix_filter_pairs_shingles(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # with 2-token shingles, doc1/doc2 share shingle "b c"; doc3 shares
    # single TOKENS but no shingle -> shingle mode excludes it
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["a b c", "z b c", "c a b x"], pa.string()
                ),
            }
        )
    )
    pairs = {
        (r["doc_a"], r["doc_b"])
        for r in co.prefix_filter_pairs_ds(
            docs, threshold_permille=300, shingle_k=2
        ).take_all()
    }
    assert (1, 2) in pairs
    # doc3's shingles are {"c a","a b","b x"} - shares "a b" with doc1
    assert (1, 3) in pairs
    assert (2, 3) not in pairs


def test_vocab_growth_deciles(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 10 docs (ids 0..9); token "zz7" first appears in doc 9 -> decile 9;
    # "aa" appears everywhere -> decile 0
    texts = ["aa bb"] * 9 + ["aa zz7"]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    rows = {r["decile"]: r for r in co.vocab_growth_ds(docs).take_all()}
    assert rows[0]["new_tokens"] == 2  # aa, bb
    assert rows[9]["new_tokens"] == 1  # zz7
    assert rows[9]["cum_vocab"] == 3


def test_shard_balance_totals(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(["a b", "c", "d e f", "g h"], pa.string()),
            }
        )
    )
    rows = co.shard_balance_ds(docs, n_shards=4).take_all()
    assert sum(r["n_docs"] for r in rows) == 4
    assert sum(r["token_mass"] for r in rows) == 2 + 1 + 3 + 2
    for r in rows:
        assert 1 <= r["min_tokens"] <= r["max_tokens"] <= 3


def test_mutual_knn_reciprocal_subset(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 4 vectors: v0/v1 nearly identical (mutual rank-1), v2 between,
    # v3 far off-axis
    vecs = [
        [1.0, 0.0, 0.0],
        [0.999, 0.01, 0.0],
        [0.7, 0.7, 0.0],
        [0.0, 0.0, 1.0],
    ]
    embs = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
    )
    knn = co.knn_graph_ds(embs, k=1).take_all()
    fwd = {(r["vec_id"], r["neighbor_id"]) for r in knn}
    mut = co.mutual_knn_ds(embs, k=1).take_all()
    # mutual pairs = exactly the reciprocal subset of the k=1 graph
    expect = {(a, b) for (a, b) in fwd if a < b and (b, a) in fwd}
    got = {(r["x"], r["y"]) for r in mut}
    assert got == expect == {(0, 1)}
    row = mut[0]
    assert row["rank_xy"] == row["rank_yx"] == 1
    assert row["sim_e6"] > 990_000


def test_mutual_knn_empty(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    embs = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        )
    )
    assert co.mutual_knn_ds(embs, k=3).count() == 0


def test_grid_cores_counts_and_neighbors(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 9 points in cell (0,0), 2 in cell (1,0), 1 in cell (-1,-1)
    pts = [[0.05, 0.05]] * 9 + [[0.15, 0.02]] * 2 + [[-0.05, -0.01]]
    embs = ray.data.from_arrow(
        pa.table({"embedding": pa.array(pts, pa.list_(pa.float32()))})
    )
    out = {(r["cell_x"], r["cell_y"]): r for r in
           co.grid_cores_ds(embs, cell_e6=100_000, min_pts=8).take_all()}
    assert set(out) == {(0, 0), (1, 0), (-1, -1)}
    assert out[(0, 0)]["n_points"] == 9 and out[(0, 0)]["is_core"] == 1
    assert out[(1, 0)]["n_points"] == 2 and out[(1, 0)]["is_core"] == 0
    # (0,0) touches both other occupied cells; (1,0) touches only (0,0);
    # (-1,-1) touches only (0,0)
    assert out[(0, 0)]["n_occupied_neighbors"] == 2
    assert out[(1, 0)]["n_occupied_neighbors"] == 1
    assert out[(-1, -1)]["n_occupied_neighbors"] == 1
    # total point mass is conserved
    assert sum(r["n_points"] for r in out.values()) == 12


def test_skipgram_counts_hand_example(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # "a b a b a" with window 2: (a,b)x2 @d1, (b,a)x2 @d1,
    # (a,a)x3 @d2... wait: d2 pairs: (a,a),(b,b),(a,a) -> (a,a)x2,(b,b)x1
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["a b a b a"], pa.string()),
            }
        )
    )
    rows = {(r["w1"], r["w2"]): r["n"] for r in
            co.skipgram_counts_ds(docs, window=2, min_count=1).take_all()}
    assert rows == {("a", "b"): 2, ("b", "a"): 2, ("a", "a"): 2, ("b", "b"): 1}


def test_skipgram_counts_no_cross_doc_pairs(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["x y", "z w"], pa.string()),
            }
        )
    )
    rows = {(r["w1"], r["w2"]) for r in
            co.skipgram_counts_ds(docs, window=3, min_count=1).take_all()}
    # never (y, z) — window must not leak across document boundaries
    assert rows == {("x", "y"), ("z", "w")}


def test_entity_graph_support_filter(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # entities = runs of >=2 tokens matching [a-z]{6,}
    # doc1+doc2 share (aaaaaa bbbbbb, cccccc dddddd) -> support 2
    # doc3 pairs it with (eeeeee ffffff) only once -> filtered out
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "aaaaaa bbbbbb X cccccc dddddd",
                        "cccccc dddddd X aaaaaa bbbbbb",
                        "aaaaaa bbbbbb X eeeeee ffffff",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    rows = {(r["e1"], r["e2"]): r["n"] for r in
            co.entity_graph_ds(docs, min_support=2).take_all()}
    assert rows == {("aaaaaa bbbbbb", "cccccc dddddd"): 2}


def test_cluster_inertia_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # label 0: [1, 0] and [0, 1] (e0 scale -> q = 1e6 units)
    embs = ray.data.from_arrow(
        pa.table(
            {
                "label": pa.array([0, 0, 1], pa.int32()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = {r["label"]: r for r in co.cluster_inertia_ds(embs).take_all()}
    M = 10**6
    assert out[0]["n_vecs"] == 2
    assert out[0]["sumsq"] == 2 * M * M          # |q1|^2 + |q2|^2
    assert out[0]["dot_sum"] == 2 * M * M        # |(1,1)*M|^2
    assert out[1]["n_vecs"] == 1
    assert out[1]["sumsq"] == 4 * M * M
    assert out[1]["dot_sum"] == 4 * M * M


def test_dim_variance_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    embs = ray.data.from_arrow(
        pa.table(
            {
                "embedding": pa.array(
                    [[1.0, -1.0], [3.0, 0.0]], pa.list_(pa.float32())
                )
            }
        )
    )
    out = {r["dim"]: r for r in co.dim_variance_ds(embs).take_all()}
    M = 10**6
    assert out[1]["n"] == 2 and out[1]["s"] == 4 * M and out[1]["ss"] == 10 * M * M
    assert out[2]["n"] == 2 and out[2]["s"] == -1 * M and out[2]["ss"] == 1 * M * M


def test_centroid_outliers_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # label 0: three points on a line, outlier is the far one
    embs = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([10, 11, 12], pa.int64()),
                "label": pa.array([0, 0, 0], pa.int32()),
                "embedding": pa.array(
                    [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = co.centroid_outliers_ds(embs, k=2).take_all()
    M = 10**6
    # n=3, S=(6M, 0); d2n2 = (3q - 6M)^2: id10 -> 36M^2, 11 -> 9M^2, 12 -> 81M^2
    assert [(r["vec_id"], r["d2n2"], r["rank"]) for r in out] == [
        (12, 81 * M * M, 1),
        (10, 36 * M * M, 2),
    ]


def test_sampled_dup_rate_planted_dup(ray_session):
    import hashlib
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # find an id pair (i, md5(i) % 4) that is a real partner, plant
    # identical text there so one pair hits jac = 1000
    n = 4
    partner = {
        i: int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16) % n
        for i in range(n)
    }
    hit = next(i for i in range(n) if partner[i] != i)
    texts = [f"unique words for doc {i} " + " ".join(["filler"] * 6) for i in range(n)]
    texts[hit] = texts[partner[hit]] = "w0 w1 w2 w3 w4 w5 w6 w7"
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(n)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    rows = {r["bucket"]: r for r in co.sampled_dup_rate_ds(docs).take_all()}
    # the planted identical pair lands in the top bucket (jac_e3 = 1000)
    assert rows[10]["n_pairs"] >= 1
    total = sum(r["n_pairs"] for r in rows.values())
    assert total == sum(1 for i in range(n) if partner[i] != i)


def test_effective_tokens_discount(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # src A: two identical 4-token docs (fam=2) + one unique 2-token doc
    # src B: one unique 3-token doc
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    ["a b c d", "a b c d", "x y", "p q r"], pa.string()
                ),
                "source": pa.array(["A", "A", "A", "B"], pa.string()),
            }
        )
    )
    out = {r["source"]: r for r in co.effective_tokens_ds(docs).take_all()}
    assert out["A"]["n_docs"] == 3 and out["A"]["raw_tokens"] == 10
    # eff: 4*1000//2 twice + 2*1000//1 = 2000 + 2000 + 2000 = 6000
    assert out["A"]["effective_tokens_e3"] == 6000
    assert out["B"]["raw_tokens"] == 3
    assert out["B"]["effective_tokens_e3"] == 3000


def test_term_burstiness_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["z z z q", "z q q"], pa.string()),
            }
        )
    )
    rows = {r["term"]: r for r in co.term_burstiness_ds(docs, k=10).take_all()}
    assert rows["z"]["tf"] == 4 and rows["z"]["df"] == 2 and rows["z"]["max_tf"] == 3
    assert rows["q"]["tf"] == 3 and rows["q"]["df"] == 2 and rows["q"]["max_tf"] == 2


def test_int8_quant_error_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # dim1 q values: 1_000_000 and -1_000_000 -> bit_length(1e6)=20,
    # k=13; err = q mod 2^13 (floor semantics for negatives)
    embs = ray.data.from_arrow(
        pa.table(
            {
                "embedding": pa.array(
                    [[1.0, 0.01], [-1.0, 0.0]], pa.list_(pa.float32())
                )
            }
        )
    )
    out = {r["dim"]: r for r in co.int8_quant_error_ds(embs).take_all()}
    q = 1_000_000
    k = q.bit_length() - 7
    assert out[1]["k"] == k
    errs = [q - (q >> k << k), (-q) - ((-q) >> k << k)]
    assert out[1]["sum_err"] == sum(errs)
    assert out[1]["max_err"] == max(errs)
    # dim2 max|q| = 10000 -> k = 14 - 7 = 7
    assert out[2]["k"] == (10_000).bit_length() - 7


def test_blocklist_hits_flagging(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["bad bad ok ok", "ok ok ok ok ok"], pa.string()),
            }
        )
    )
    out = {r["doc_id"]: r for r in
           co.blocklist_hits_ds(docs, blocklist=("bad",), flag_permille=400).take_all()}
    assert out[1]["n_hits"] == 2 and out[1]["hit_permille"] == 500
    assert out[1]["flagged"] == 1
    assert out[2]["n_hits"] == 0 and out[2]["flagged"] == 0


def test_semantic_decontaminate_planted_leak(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # eval vec 0 (id%5==0) identical to train vec 1 -> leaked;
    # eval vec 5 orthogonal to everything -> not leaked
    vecs = {
        0: [1.0, 0.0, 0.0],   # eval
        1: [1.0, 0.0, 0.0],   # train, identical to 0
        2: [0.5, 0.5, 0.0],   # train
        5: [0.0, 0.0, 1.0],   # eval, far from all train
    }
    embs = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(sorted(vecs), pa.int64()),
                "embedding": pa.array(
                    [vecs[i] for i in sorted(vecs)], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = {r["vec_id"]: r for r in co.semantic_decontaminate_ds(embs).take_all()}
    assert set(out) == {0, 5}
    assert out[0]["nearest_train_id"] == 1 and out[0]["leaked"] == 1
    assert out[0]["sim_e6"] >= 999_999
    assert out[5]["leaked"] == 0


def test_syndication_histogram_cross_source(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    ["same text here", "same text here", "only once"], pa.string()
                ),
                "source": pa.array(["A", "B", "A"], pa.string()),
            }
        )
    )
    rows = {r["n_sources"]: r for r in co.syndication_histogram_ds(docs).take_all()}
    # one family spanning 2 sources (2 docs), one single-source family
    assert rows[2]["n_families"] == 1 and rows[2]["n_docs"] == 2
    assert rows[1]["n_families"] == 1 and rows[1]["n_docs"] == 1


def test_term_trend_drift_sign(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 4 docs: ids 0,1 = first half; 2,3 = second half
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(
                    ["old old old", "old old", "new new new", "new new"],
                    pa.string(),
                ),
            }
        )
    )
    rows = {r["term"]: r for r in co.term_trend_ds(docs, min_count=5).take_all()}
    assert rows["old"]["c1"] == 5 and rows["old"]["c2"] == 0
    assert rows["old"]["drift_e6"] == -1_000_000
    assert rows["new"]["drift_e6"] == 1_000_000


def _family_embs():
    # cluster A: 0,1,2 nearly identical; cluster B: 10,11 identical;
    # vec 20 isolated (orthogonal — its mutual edges never form)
    vecs = {
        0: [1.0, 0.0, 0.0], 1: [0.999, 0.02, 0.0], 2: [0.998, 0.04, 0.0],
        10: [0.0, 1.0, 0.0], 11: [0.0, 0.999, 0.02],
        20: [0.0, 0.0, 1.0],
    }
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(sorted(vecs), pa.int64()),
                "embedding": pa.array(
                    [vecs[i] for i in sorted(vecs)], pa.list_(pa.float32())
                ),
            }
        )
    )


def test_semantic_families_two_clusters(ray_session):
    rows = {
        r["vec_id"]: r for r in co.semantic_families_ds(_family_embs(), k=1).take_all()
    }
    # k=1 mutual edges: (0,1) [1's NN is 0, 0's NN is 1] and (10,11)
    assert rows[0]["family"] == 0 and rows[1]["family"] == 0
    assert rows[0]["n_members"] == 2
    assert rows[10]["family"] == 10 and rows[11]["family"] == 10
    assert 20 not in rows  # isolated vectors carry no family row


def test_semantic_families_hash_join_matches_broadcast(ray_session, monkeypatch):
    """Family sizes that do not fit ``MAX_BROADCAST_ROWS`` attach through
    the co-group hash join with the same rows as the broadcast path."""

    def families():
        return (
            co.semantic_families_ds(_family_embs(), k=1)
            .to_pandas()[["vec_id", "family", "n_members"]]
            .sort_values("vec_id")
            .reset_index(drop=True)
        )

    bc = families()
    keys = _cogroup_keys(monkeypatch)
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 1)  # 2 families
    hj = families()
    assert keys[-1] == "family" and keys.count("family") == 1
    assert len(bc) == 4 and bc.equals(hj)


def test_dataset_card_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["a b c", "a b c", "x"], pa.string()),
                "lang": pa.array(["en", "en", "de"], pa.string()),
                "source": pa.array(["s1", "s2", "s1"], pa.string()),
            }
        )
    )
    row = co.dataset_card_ds(docs).take_all()[0]
    assert row["n_docs"] == 3 and row["n_tokens"] == 7
    assert row["n_chars"] == 11
    assert row["min_tokens"] == 1 and row["max_tokens"] == 3
    assert row["n_langs"] == 2 and row["n_sources"] == 2
    assert row["n_dup_docs"] == 1  # 3 docs, 2 distinct texts


def test_fold_leakage_planted(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # 10 docs, one stratum; two identical texts -> one multi family;
    # with 5 folds and balanced assignment the pair may or may not
    # split — pin exact values against a brute-force recomputation
    import hashlib
    texts = [f"unique doc {i} body" for i in range(10)]
    texts[3] = texts[7] = "duplicated body text here"
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * 10, pa.string()),
            }
        )
    )
    row = co.fold_leakage_ds(docs, n_folds=5).take_all()[0]
    # brute force the same rule
    order = sorted(range(10), key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
    fold = {i: r % 5 for r, i in enumerate(order)}
    leak = 1 if fold[3] != fold[7] else 0
    assert row["n_families"] == 9
    assert row["n_multi_doc_families"] == 1
    assert row["n_leaky_families"] == leak
    assert row["n_leaky_docs"] == 2 * leak


def test_hash_collision_audit_no_collisions_small(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["a b c d e f g"], pa.string()),
            }
        )
    )
    row = co.hash_collision_audit_ds(docs).take_all()[0]
    assert row["n_distinct_grams"] == 3  # three 5-gram windows
    assert row["n_distinct_hashes"] == 3
    assert row["n_collisions"] == 0


def test_dim_covariance_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    vecs = pa.array([[1.0, 2.0], [3.0, 5.0]], pa.list_(pa.float32()))
    emb = ray.data.from_arrow(pa.table({"embedding": vecs}))
    rows = {(r["dim_i"], r["dim_j"]): r for r in co.dim_covariance_ds(emb).take_all()}
    assert set(rows) == {(1, 1), (1, 2), (2, 2)}
    m = 1_000_000
    r = rows[(1, 2)]
    assert r["n"] == 2
    assert r["s_i"] == 4 * m and r["s_j"] == 7 * m
    assert r["s_ij"] == (1 * 2 + 3 * 5) * m * m
    assert rows[(1, 1)]["s_ij"] == (1 + 9) * m * m
    assert rows[(2, 2)]["s_ij"] == (4 + 25) * m * m


def test_lsh_recall_audit_dup_pair(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    dup = "the quick brown fox jumps over the lazy dog again and again today"
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        dup,
                        dup,
                        "completely different words about ships and harbors at dawn",
                        "a third topic entirely gardens tomatoes weather rainfall",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    row = co.lsh_recall_audit_ds(docs, threshold=0.5).take_all()[0]
    # the identical pair is both a true near-dup and an LSH hit
    assert row["n_true"] == 1
    assert row["n_lsh"] == 1
    assert row["n_hits"] == 1


def test_lsh_recall_audit_no_pairs_sentinel(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [
                        "alpha beta gamma delta epsilon zeta eta theta",
                        "one two three four five six seven eight nine",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    rows = co.lsh_recall_audit_ds(docs, threshold=0.5).take_all()
    assert len(rows) == 1
    assert rows[0] == {"n_lsh": 0, "n_true": 0, "n_hits": 0}


def test_kappa_agreement_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # two docs detected 'en' (stopword-heavy), one detected 'und';
    # declared labels agree on exactly one of them
    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    [
                        "the of and to in is was the of and",
                        "the of and to in is was the of and",
                        "zzz qqq xxx",
                    ],
                    pa.string(),
                ),
                "lang": pa.array(["en", "de", "und"], pa.string()),
            }
        )
    )
    row = co.kappa_agreement_ds(docs).take_all()[0]
    # confusion: (en,en)=1 (de,en)=1 (und,und)=1
    # rows: en=1 de=1 und=1; cols: en=2 und=1
    # pe_num = r_en*c_en + r_und*c_und = 1*2 + 1*1 = 3
    assert row["n_total"] == 3 and row["n_agree"] == 2
    assert row["pe_num"] == 3
    assert row["kappa_num"] == 3 * 2 - 3 == 3
    assert row["kappa_den"] == 9 - 3 == 6


def test_kappa_agreement_empty_corpus(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {"text": pa.array([], pa.string()), "lang": pa.array([], pa.string())}
        )
    )
    row = co.kappa_agreement_ds(docs).take_all()[0]
    assert row == {
        "n_total": 0,
        "n_agree": 0,
        "pe_num": 0,
        "kappa_num": 0,
        "kappa_den": 0,
    }


def test_minimizer_sketch_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.functions import textstats as ts
    from pdfplumber_ray.pipelines import corpus_ops as co

    text = "a b c d e f g"  # 6 bigram shingles, w=4 -> starts 1..3
    grams = ["a b", "b c", "c d", "d e", "e f", "f g"]
    h = [ts.md5_u64(g) for g in grams]
    wmins = {min(h[i : i + 4]) for i in range(3)}
    expect_xor = 0
    for v in wmins:
        expect_xor ^= v % (1 << 63)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([7], pa.int64()),
                "text": pa.array([text], pa.string()),
            }
        )
    )
    row = co.minimizer_sketch_ds(docs, w=4).take_all()[0]
    assert row["n_shingles"] == 6
    assert row["n_minimizers"] == len(wmins)
    assert row["min_xor"] == expect_xor


def test_minimizer_sketch_short_and_empty_docs(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.functions import textstats as ts
    from pdfplumber_ray.pipelines import corpus_ops as co

    # doc 1: 2 shingles < w -> single truncated window = global min
    # doc 2: one token -> zero shingles -> zero row
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["x y z", "solo"], pa.string()),
            }
        )
    )
    rows = {r["doc_id"]: r for r in co.minimizer_sketch_ds(docs, w=4).take_all()}
    gmin = min(ts.md5_u64("x y"), ts.md5_u64("y z"))
    assert rows[1]["n_shingles"] == 2
    assert rows[1]["n_minimizers"] == 1
    assert rows[1]["min_xor"] == gmin % (1 << 63)
    assert rows[2] == {"doc_id": 2, "n_shingles": 0, "n_minimizers": 0, "min_xor": 0}


def test_bool_retrieval_top_terms_and_conjunction(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # df: alpha=4 beta=3 gamma=3 delta=1 -> top3 = alpha, beta, gamma
    # (gamma ties beta at df 3; token ASC keeps both over delta)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "alpha beta gamma delta",
                        "alpha beta gamma",
                        "alpha beta",
                        "alpha gamma",
                    ],
                    pa.string(),
                ),
            }
        )
    )
    got = sorted(r["doc_id"] for r in co.bool_retrieval_ds(docs, n_terms=3).take_all())
    assert got == [1, 2]


def test_bool_retrieval_empty_corpus(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )
    )
    assert co.bool_retrieval_ds(docs, n_terms=3).take_all() == []


def test_hist_intersection_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # buckets (width 256): a -> {0:1, 1:1, 2:1}; b -> {0:2, 2:1}; c is
    # third-largest and ignored. intersect = min(1,2)+min(1,0)+min(1,1)=2
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "a", "a", "b", "b", "b", "c"]),
                "n_chars": pa.array([10, 300, 600, 20, 30, 700, 5], pa.int64()),
            }
        )
    )
    row = co.hist_intersection_ds(docs, bucket_width=256).take_all()[0]
    assert row == {
        "source_a": "a",
        "source_b": "b",
        "n_a": 3,
        "n_b": 3,
        "n_intersect": 2,
    }


def test_hist_intersection_single_source(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["only", "only"]),
                "n_chars": pa.array([1, 2], pa.int64()),
            }
        )
    )
    row = co.hist_intersection_ds(docs).take_all()[0]
    assert row == {
        "source_a": "only",
        "source_b": None,
        "n_a": 2,
        "n_b": 0,
        "n_intersect": 0,
    }


def test_marginal_vocab_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # vocab: a = {x, y, z}, b = {z, w, x}; lexicographic-first owner:
    # x,y,z -> a; w -> b
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "a", "b"]),
                "text": pa.array(["x y", "y z", "z w x"]),
            }
        )
    )
    rows = {r["source"]: r for r in co.marginal_vocab_ds(docs).take_all()}
    assert rows["a"] == {
        "source": "a",
        "n_distinct_tokens": 3,
        "n_owned_tokens": 3,
    }
    assert rows["b"] == {
        "source": "b",
        "n_distinct_tokens": 3,
        "n_owned_tokens": 1,
    }


def test_marginal_vocab_empty(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array([], pa.string()),
                "text": pa.array([], pa.string()),
            }
        )
    )
    assert co.marginal_vocab_ds(docs).take_all() == []


def test_vocab_drift_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # vocab: a={x,y}, b={y,z,w}, c={w}
    # chain rows: (a,b): common {y} -> 1; (b,c): common {w} -> 1
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "b", "c"]),
                "text": pa.array(["x y", "y z w", "w"]),
            }
        )
    )
    rows = co.vocab_drift_ds(docs).take_all()
    assert rows == [
        {"source_a": "a", "source_b": "b", "n_a": 2, "n_b": 3, "n_common": 1},
        {"source_a": "b", "source_b": "c", "n_a": 3, "n_b": 1, "n_common": 1},
    ]


def test_vocab_drift_single_source_and_empty(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    one = ray.data.from_arrow(
        pa.table({"source": pa.array(["a"]), "text": pa.array(["x"])})
    )
    assert co.vocab_drift_ds(one).take_all() == []
    zero = ray.data.from_arrow(
        pa.table(
            {"source": pa.array([], pa.string()), "text": pa.array([], pa.string())}
        )
    )
    assert co.vocab_drift_ds(zero).take_all() == []


def test_edit_distance_join_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # doc 1 and 2: one substitution apart -> ED 1
    # doc 3: identical to doc 1 -> ED 0
    # doc 4: unrelated -> no pair
    base = "the quick brown fox jumps over pad"
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [base, base.replace("quick", "quack"), base,
                     "completely different text body here now"],
                ),
            }
        )
    )
    rows = {
        (r["doc_a"], r["doc_b"]): r["edit_distance"]
        for r in co.edit_distance_join_ds(docs, max_bucket=None).take_all()
    }
    assert rows == {(1, 2): 1, (1, 3): 0, (2, 3): 1}


def test_edit_distance_join_insertion_shift(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # one insertion near the front shifts every later segment by 1 —
    # exercises the probe-shift (delta) blocking path
    a = "abcdefghijklmnopqrstuvwxyz0123456789"  # exactly 36 chars
    b = "Xabcdefghijklmnopqrstuvwxyz012345678"  # insert at 0, trunc to 36
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([a, b]),
            }
        )
    )
    rows = co.edit_distance_join_ds(docs, max_bucket=None).take_all()
    assert rows == [{"doc_a": 1, "doc_b": 2, "edit_distance": 2}]


def test_freq_of_freqs_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # freqs: a=4 (bucket 3), b=2 c=2 (bucket 2), d=1 (bucket 1)
    docs = ray.data.from_arrow(
        pa.table({"text": pa.array(["a a b c", "a a b c d"])})
    )
    rows = {r["freq_bucket"]: r for r in co.freq_of_freqs_ds(docs).take_all()}
    assert rows[3] == {"freq_bucket": 3, "n_terms": 1, "n_tokens": 4}
    assert rows[2] == {"freq_bucket": 2, "n_terms": 2, "n_tokens": 4}
    assert rows[1] == {"freq_bucket": 1, "n_terms": 1, "n_tokens": 1}


def test_oov_rate_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    # freqs: x=3 y=2 z=1 w=1 -> top-2 vocab {x, y} (w/z lose ties to y? no:
    # top by freq DESC then token ASC -> x(3), y(2))
    # source A tokens: x y x -> 0 oov; source B: z w x y -> 2 oov
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["A", "B"]),
                "text": pa.array(["x y x", "z w x y"]),
            }
        )
    )
    rows = {r["source"]: r for r in co.oov_rate_ds(docs, n_vocab=2).take_all()}
    assert rows["A"] == {
        "source": "A",
        "n_tokens": 3,
        "n_oov": 0,
        "oov_ppm": 0,
    }
    assert rows["B"] == {
        "source": "B",
        "n_tokens": 4,
        "n_oov": 2,
        "oov_ppm": 500_000,
    }
