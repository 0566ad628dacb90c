"""Vectorized text-analysis kernels for large-scale training-data pipelines.

All functions operate on arrays/lists of document strings inside one
``map_batches`` call. Whitespace tokens (``ws_tokens``), k-token windows
(``token_windows``) and edit distance (``levenshtein``) are whole-batch
Arrow/numpy kernels with no per-row Python; the regex counters and the
md5/rolling hashes still loop per string. Every per-text helper reads a
null text as ``""``.

These are engine-side additions beyond the reference's operator set
(pdfplumber has no corpus analytics); they follow standard published
techniques: MinHash/LSH (Broder 1997), SimHash (Charikar 2002), n-gram
Jaccard, stopword language ID, and rolling polynomial fingerprints.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# BPE-ish word/number/punct tokenizer — same regex must be used in any SQL
# oracle (DuckDB RE2 and Python re agree on this subset).
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
_BPE_RE = re.compile(BPE_TOKEN_RE)

PUNCT_RE = r"[.,;:!?'\"()\[\]{}-]"
_PUNCT_RE = re.compile(PUNCT_RE)

# tiny deterministic stopword lists for the language-ID heuristic
STOPWORDS: Dict[str, Tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "a", "is", "that", "for", "with"),
    "es": ("el", "la", "de", "que", "y", "en", "un", "los", "del", "es"),
    "de": ("der", "die", "und", "das", "von", "zu", "mit", "den", "ist", "ein"),
    "fr": ("le", "la", "de", "et", "les", "des", "un", "une", "du", "est"),
}
LANG_ORDER = ("en", "es", "de", "fr")  # deterministic tie-break order


def ws_tokens(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Each string split on single spaces, as Arrow lists, with a null
    read as the empty string: ``(t or "").split(" ")`` per row, with no
    Python loop."""
    return pc.split_pattern(pc.fill_null(col, ""), " ")


def flat_tokens(lists: pa.Array | pa.ChunkedArray) -> Tuple[np.ndarray, pa.Array]:
    """Token lists (``ws_tokens`` output) as each row's token count and
    all of their tokens in row order, as one contiguous Arrow array."""
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(lists), 0).to_numpy().astype(np.int64)
    return lens, pc.list_flatten(lists)


def token_windows(
    lists: pa.Array | pa.ChunkedArray, k: int
) -> Tuple[np.ndarray, np.ndarray, pa.Array]:
    """Every window of exactly ``k`` consecutive tokens in each row of
    ``lists`` (``ws_tokens`` output), as ``(doc, start, grams)``: the row
    index, the 0-based token start and the window joined by ``" "``. A
    row shorter than ``k`` gives no window. One ``take`` and one
    ``binary_join``, no per-row Python."""
    lens, flat = flat_tokens(lists)
    n_win = np.maximum(lens - k + 1, 0)
    total = int(n_win.sum())
    doc = np.repeat(np.arange(len(lens), dtype=np.int64), n_win)
    start = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(n_win) - n_win, n_win)
    first_tok = (np.cumsum(lens) - lens)[doc] + start
    idx = (first_tok[:, None] + np.arange(k, dtype=np.int64)).ravel()
    windows = pa.ListArray.from_arrays(
        pa.array(np.arange(total + 1, dtype=np.int32) * k),
        flat.take(pa.array(idx)),
    )
    return doc, start, pc.binary_join(windows, " ")


def shingles(text: Optional[str], k: int) -> List[str]:
    """The word k-shingles of one text: its k-token windows, or the
    whole text as one gram when it has fewer than ``k`` tokens (none for
    an empty or null text)."""
    if not text:
        return []
    toks = text.split(" ")
    if len(toks) < k:
        return [text]
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


_LEV_CHUNK = 4096  # pairs per DP sweep: bounds the (pairs x length) matrices


def levenshtein(a: Sequence[Optional[str]], b: Sequence[Optional[str]]) -> np.ndarray:
    """Unit-cost edit distance in code points between ``a[i]`` and
    ``b[i]``, a null read as ``""``. The DP runs row by row over the
    longest ``a`` of a chunk of length-sorted pairs, vectorized across
    pairs; the insertion sweep uses ``cur[j] = j + min_{m<=j}(t[m] - m)``.
    Each pair's distance is read at ``D[len a, len b]``, which depends
    only on the two prefixes, so the padding cannot change it. (DuckDB
    ``levenshtein`` counts bytes, so the two agree only on ASCII.)"""
    a = [s or "" for s in a]
    b = [s or "" for s in b]
    la = np.fromiter(map(len, a), np.int64, count=len(a))
    lb = np.fromiter(map(len, b), np.int64, count=len(b))
    out = np.empty(len(a), dtype=np.int64)
    order = np.argsort(np.maximum(la, lb), kind="stable")
    for lo in range(0, len(order), _LEV_CHUNK):
        sel = order[lo : lo + _LEV_CHUNK]
        out[sel] = _levenshtein_chunk(
            [a[i] for i in sel], [b[i] for i in sel], la[sel], lb[sel]
        )
    return out


def _code_points(strs: List[str], width: int) -> np.ndarray:
    # numpy's U dtype drops trailing NULs, but the padding is NUL too, so
    # only the lengths (taken from Python) tell them apart
    return np.asarray(strs, dtype=f"U{max(width, 1)}").view(np.uint32).reshape(len(strs), -1)


def _levenshtein_chunk(
    a: List[str], b: List[str], la: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    n, wa, wb = len(a), int(la.max()), int(lb.max())
    A, B = _code_points(a, wa), _code_points(b, wb)[:, :wb]
    col = np.arange(wb + 1, dtype=np.int64)
    prev = np.broadcast_to(col, (n, wb + 1))
    out = lb.copy()  # the row i == 0
    rows = np.arange(n)
    for i in range(1, wa + 1):
        t = np.empty((n, wb + 1), dtype=np.int64)
        t[:, 0] = i
        np.minimum(prev[:, :-1] + (A[:, i - 1 : i] != B), prev[:, 1:] + 1, out=t[:, 1:])
        prev = np.minimum.accumulate(t - col, axis=1) + col
        done = la == i
        out[done] = prev[rows[done], lb[done]]
    return out


def ws_token_count(texts: Sequence[str]) -> np.ndarray:
    """Whitespace tokens — matches ``len(string_split(text, ' '))``."""
    return np.fromiter(
        (len(t.split(" ")) if t else 0 for t in texts), dtype=np.int64, count=len(texts)
    )


def bpe_token_count(texts: Sequence[str]) -> np.ndarray:
    return np.fromiter(
        (len(_BPE_RE.findall(t or "")) for t in texts), dtype=np.int64, count=len(texts)
    )


def punct_count(texts: Sequence[str]) -> np.ndarray:
    return np.fromiter(
        (len(_PUNCT_RE.findall(t or "")) for t in texts), dtype=np.int64, count=len(texts)
    )


def stopword_counts(texts: Sequence[str]) -> Dict[str, np.ndarray]:
    """Per-language stopword hits over whitespace tokens (exact membership,
    mirroring ``list_filter(string_split(text,' '), w -> w IN (...))``)."""
    sets = {lang: frozenset(ws) for lang, ws in STOPWORDS.items()}
    out = {lang: np.zeros(len(texts), dtype=np.int64) for lang in STOPWORDS}
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = t.split(" ")
        for lang, sw in sets.items():
            out[lang][i] = sum(1 for w in toks if w in sw)
    return out


def lang_id(texts: Sequence[str]) -> np.ndarray:
    """argmax of stopword scores with LANG_ORDER tie-break; 'und' when all
    scores are zero."""
    counts = stopword_counts(texts)
    n = len(texts)
    best = np.array(["und"] * n, dtype=object)
    best_score = np.zeros(n, dtype=np.int64)
    for lang in LANG_ORDER:
        c = counts[lang]
        better = c > best_score
        best[better] = lang
        best_score = np.where(better, c, best_score)
    return best


def md5_hex(texts: Sequence[str]) -> np.ndarray:
    return np.array(
        [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts], dtype=object
    )


def md5_u64(s: str) -> int:
    """First 8 bytes of md5 as uint64 — the one hash primitive shared with
    the DuckDB oracles: ``('0x' || substr(md5(s), 1, 16))::UBIGINT``."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


_FP_MOD = (1 << 61) - 1
_FP_BASE = 257


def rolling_fingerprint(texts: Sequence[str]) -> np.ndarray:
    """Polynomial rolling hash of the whole document (mod 2^61-1) —
    a deterministic content fingerprint cheaper than md5 for streaming."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        h = 0
        for b in (t or "").encode("utf-8"):
            h = (h * _FP_BASE + b) % _FP_MOD
        out[i] = h
    return out


# ---- shingles / MinHash / SimHash ----


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashed k-shingles over whitespace tokens (word shingles)."""
    grams = shingles(text, k)
    if not grams:
        return np.empty(0, dtype=np.uint64)
    out = np.fromiter(
        (int(hashlib.md5(g.encode()).hexdigest()[:16], 16) for g in grams),
        dtype=np.uint64,
        count=len(grams),
    )
    return np.unique(out)


_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic MinHash permutation coefficients, derived from md5 so a
    SQL oracle can regenerate them verbatim:
    ``a_j = (u64(md5('a<seed>:<j>')) % (p-1)) + 1``, ``b_j = u64(md5('b<seed>:<j>')) % p``."""
    a = np.array(
        [(md5_u64(f"a{seed}:{j}") % (_MERSENNE - 1)) + 1 for j in range(num_perm)],
        dtype=np.uint64,
    )
    b = np.array(
        [md5_u64(f"b{seed}:{j}") % _MERSENNE for j in range(num_perm)], dtype=np.uint64
    )
    return a, b


class MinHasher:
    """Vectorized MinHash signatures: sig[j] = min((a_j * x + b_j) mod p)."""

    def __init__(self, num_perm: int = 64, seed: int = 1, shingle_k: int = 5):
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray:
        sh = shingle_hashes(text, self.shingle_k)
        if sh.shape[0] == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        return self.signature_from_hashes(sh)

    def signature_from_hashes(self, sh: np.ndarray) -> np.ndarray:
        # (num_perm, n_shingles) in python-int space to avoid overflow
        x = sh.astype(object)[None, :]
        vals = (self.a.astype(object)[:, None] * x + self.b.astype(object)[:, None]) % _MERSENNE
        return np.array([min(row) for row in vals], dtype=np.uint64)

    def band_keys(self, sig: np.ndarray, bands: int) -> List[str]:
        """LSH bucket keys: md5 of each band's decimal-joined values, so the
        SQL oracle can compute the identical key with
        ``substr(md5('band:' || band || ':' || string_agg(v, '-' ORDER BY j)), 1, 16)``."""
        r = self.num_perm // bands
        keys = []
        for band in range(bands):
            chunk = sig[band * r : (band + 1) * r]
            s = f"band:{band}:" + "-".join(str(int(v)) for v in chunk)
            keys.append(hashlib.md5(s.encode()).hexdigest()[:16])
        return keys


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape[0] == 0 and b.shape[0] == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).shape[0]
    union = a.shape[0] + b.shape[0] - inter
    return inter / union if union else 0.0


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    return jaccard(shingle_hashes(text_a, k), shingle_hashes(text_b, k))


def simhash64(texts: Sequence[str]) -> np.ndarray:
    """64-bit SimHash over whitespace tokens."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        toks = t.split(" ") if t else []
        if not toks:
            out[i] = 0
            continue
        hs = np.fromiter(
            (int(hashlib.md5(w.encode()).hexdigest()[:16], 16) for w in toks),
            dtype=np.uint64,
            count=len(toks),
        )
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
        counts = bits.sum(axis=0)
        vote = counts * 2 - len(toks)
        # bit i of the output = majority vote of bit i of the token hashes —
        # SQL twin: sum(CASE WHEN vote > 0 THEN 1::UBIGINT << i END)
        out[i] = ((vote > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    # popcount via unpackbits on the byte view
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
