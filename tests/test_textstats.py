"""Seeded differential fuzz of the shared text kernels in
``functions/textstats.py`` against pure-Python references: the k-token
windows every corpus n-gram builder takes, the shingle rule of
``shingle_hashes``, the edit distance of the fuzzy and edit-distance
joins, and the one null rule of the per-text helpers. The testdata holds
no null, empty or double-spaced text, so the oracles cannot carry these
cases."""

import random

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from pdfplumber_ray.functions import textstats as ts
from pdfplumber_ray.pipelines import corpus_ops as co

# tokens the fuzz draws from: empty (so doubled, leading and trailing
# spaces), non-ASCII, and a token ending in NUL that numpy's U dtype
# would strip
TOKENS = ["a", "b", "ab", "", "café", "日本語", "naïve", "x\x00", "\x00"]
EDGE_TEXTS = [None, "", " ", "  a  b ", "café naïve 日本語 café cafe naive", "a\x00 a"]


def _texts(rng: random.Random, n: int):
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.1:
            out.append(None)
        elif r < 0.2:
            out.append(rng.choice(EDGE_TEXTS))
        else:
            out.append(" ".join(rng.choice(TOKENS) for _ in range(rng.randrange(1, 12))))
    return out


def _column(rng: random.Random, texts):
    """``texts`` as a chunked column cut at random points (some empty)."""
    cuts = sorted(rng.randrange(0, len(texts) + 1) for _ in range(rng.randrange(0, 4)))
    bounds = [0] + cuts + [len(texts)]
    return pa.chunked_array(
        [pa.array(texts[a:b], pa.string()) for a, b in zip(bounds, bounds[1:])],
        pa.string(),
    )


def _ref_windows(texts, k):
    """The deleted per-doc Python: ``(t or "").split(" ")`` and slicing."""
    out = []
    for d, t in enumerate(texts):
        toks = (t or "").split(" ")
        out += [(d, s, " ".join(toks[s : s + k])) for s in range(len(toks) - k + 1)]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_token_windows_match_python_split(k):
    rng = random.Random(1000 + k)
    for _ in range(60):
        texts = _texts(rng, rng.randrange(1, 30))
        doc, start, grams = ts.token_windows(ts.ws_tokens(_column(rng, texts)), k)
        got = list(zip(doc.tolist(), start.tolist(), grams.to_pylist()))
        assert got == _ref_windows(texts, k)
        assert grams.type == pa.string()


def test_token_windows_edge_texts_and_no_window_rows():
    doc, start, grams = ts.token_windows(ts.ws_tokens(pa.array(EDGE_TEXTS)), 2)
    assert list(zip(doc.tolist(), start.tolist(), grams.to_pylist())) == _ref_windows(
        EDGE_TEXTS, 2
    )
    # rows shorter than k give nothing, and the arrays keep their types
    doc, start, grams = ts.token_windows(ts.ws_tokens(pa.array([None, "", "a b"])), 3)
    assert (len(doc), len(start), len(grams)) == (0, 0, 0)
    assert doc.dtype == start.dtype == np.int64 and grams.type == pa.string()


def test_flat_tokens_match_python_split():
    rng = random.Random(5)
    for _ in range(40):
        texts = _texts(rng, rng.randrange(1, 30))
        lens, flat = ts.flat_tokens(ts.ws_tokens(_column(rng, texts)))
        toks = [(t or "").split(" ") for t in texts]
        assert lens.tolist() == [len(t) for t in toks]
        assert flat.to_pylist() == [w for t in toks for w in t]


def _old_shingle_grams(text, k):
    """The gram rule ``shingle_hashes`` and ``hash_collision_audit_ds``
    each carried before ``textstats.shingles``."""
    toks = text.split(" ") if text else []
    if len(toks) < k:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_shingles_match_old_gram_rule(k):
    rng = random.Random(2000 + k)
    for t in _texts(rng, 300) + EDGE_TEXTS:
        assert ts.shingles(t, k) == _old_shingle_grams(t, k), (t, k)


def _ref_lev(a, b):
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
    return dp[len(b)]


def test_levenshtein_matches_python_dp():
    rng = random.Random(7)
    alphabet = "abcé日 \x00"
    for _ in range(200):
        n = rng.randrange(0, 25)
        a = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 13))) for _ in range(n)]
        b = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 13))) for _ in range(n)]
        got = ts.levenshtein(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == [_ref_lev(x, y) for x, y in zip(a, b)]


def test_levenshtein_counts_code_points_and_reads_null_as_empty(monkeypatch):
    assert ts.levenshtein(["café", None, "abc"], ["cafe", "ab", None]).tolist() == [1, 2, 3]
    # pairs beyond one DP chunk, in length order, land back in place
    monkeypatch.setattr(ts, "_LEV_CHUNK", 3)
    a = ["kitten", "", "flaw", "x" * 40, "same", "日本語"]
    b = ["sitting", "abc", "lawn", "y" * 3, "same", "日本"]
    assert ts.levenshtein(a, b).tolist() == [_ref_lev(x, y) for x, y in zip(a, b)]


def test_per_text_helpers_read_null_as_empty():
    for fn in (ts.md5_hex, ts.rolling_fingerprint, ts.bpe_token_count, ts.punct_count,
               ts.ws_token_count, ts.simhash64):
        assert fn([None, "a, b"]).tolist() == fn(["", "a, b"]).tolist(), fn.__name__


def test_fuzzy_join_non_ascii(ray_session):
    queries = ray.data.from_arrow(pa.table({"q": pa.array(["café", "naïve"])}))
    vocab = ray.data.from_arrow(
        pa.table({"token": pa.array(["cafe", "naive", "日本語"]), "c": pa.array([3, 2, 1])})
    )
    got = sorted(
        (r["query"], r["suggestion"], r["dist"], r["sugg_n"])
        for r in co.fuzzy_join_ds(queries, vocab).take_all()
    )
    assert got == [("café", "cafe", 1, 3), ("naïve", "naive", 1, 2)]


def test_vocab_keeps_trailing_nul_tokens(ray_session):
    """Token counts are Arrow strings: ``"a\\x00"`` and ``"a"`` stay two
    tokens (numpy's U dtype, which the vocab partials once went through,
    strips the NUL and merged them)."""
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()), "text": ["a a\x00", "a"]})
    )
    got = {r["doc_id"]: r["surprisal_bits"] for r in co.surprisal_ds(docs).take_all()}
    # T = 3 tokens: "a" twice (floor(log2(3 // 2)) = 0 bits), "a\x00" once (1 bit)
    assert got == {0: 1, 1: 0}
