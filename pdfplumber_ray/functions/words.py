"""Per-page word assembly — vectorized port of the reference's
x/y-tolerance char-clustering algorithm (reference utils/text.py:423-688).

Input: a "char table" dict of equal-length arrays for ONE page:
``text`` (object), ``x0 x1 top bottom doctop size`` (float64),
``upright`` (bool), plus any ``extra_attrs`` columns.

Output: a word table dict plus char provenance (``char_indices`` /
``char_offsets``) so downstream textmap/search stages can map every emitted
glyph back to its source char row.

The scan is fully vectorized across (upright, extra_attrs) runs, with no
per-run Python: line clustering is segmented by run, directions and
tolerances are picked per char from its run's upright flag, chars are
lexsorted by (line, reading order), and word-break flags are computed from
shifted arrays. The reference's word-break gap is measured from the
previous char *in the current word* (text.py:626); that equals the previous
kept char in line order, because any intervening dropped blank or
punctuation split forces a break anyway — so a shifted-array comparison
reproduces the scalar semantics exactly, including the tolerance-ratio
variants (text.py:629-630) which scale by the previous char's ``size``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import WordConfig
from .clustering import cluster_ids

CharTable = Dict[str, np.ndarray]

_EMPTY_WORD_KEYS = (
    "x0", "x1", "top", "bottom", "doctop", "width", "height",
)


def empty_words(cfg: WordConfig) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {k: np.empty(0, dtype=np.float64) for k in _EMPTY_WORD_KEYS}
    out["text"] = np.empty(0, dtype=object)
    out["upright"] = np.empty(0, dtype=bool)
    out["direction"] = np.empty(0, dtype=object)
    for a in cfg.extra_attrs:
        out[a] = np.empty(0, dtype=object)
    out["char_indices"] = np.empty(0, dtype=np.int64)
    out["char_offsets"] = np.zeros(1, dtype=np.int64)
    return out


def _per_char(upright: np.ndarray, dirs: Tuple[str, str], fn):
    """``fn(direction)`` for each char: ``dirs[0]`` for upright chars,
    ``dirs[1]`` for rotated ones. ``fn`` returns a tuple of arrays over the
    chars (or scalars)."""
    up_dir, rot_dir = dirs
    if up_dir == rot_dir or upright.all():
        return fn(up_dir)
    if not upright.any():
        return fn(rot_dir)
    return tuple(np.where(upright, a, b) for a, b in zip(fn(up_dir), fn(rot_dir)))


def _span(chars: CharTable, d: str, idx=slice(None)):
    """(start, end) of each char along direction ``d``. The start along the
    line direction is the line cluster key (text.py:45-51); the char sort
    key (text.py:54-60) is (start, end) along the char direction, except
    (x0, x0) for ltr."""
    if d == "ltr":
        return chars["x0"][idx], chars["x1"][idx]
    if d == "rtl":
        return -chars["x1"][idx], -chars["x0"][idx]
    if d == "ttb":
        return chars["top"][idx], chars["bottom"][idx]
    return -chars["bottom"][idx], -chars["top"][idx]  # btt


def _tail(a):
    """``a`` without its first element; a scalar as it is."""
    return a[1:] if np.ndim(a) else a


def _gap_breaks(
    chars: CharTable,
    sorted_idx: np.ndarray,
    upright: np.ndarray,
    dirs: Tuple[str, str],
    cfg: WordConfig,
) -> np.ndarray:
    """char_begins_new_word (text.py:516-591) between each char and its
    predecessor in sorted order, in the char's own run direction: the char
    starts before the predecessor, past its end plus the intraline
    tolerance, or past its cross-line position plus the interline
    tolerance. Element 0 is False (no predecessor); the test across a run
    boundary is never read, since a run change always starts a word."""
    n = sorted_idx.shape[0]
    breaks = np.zeros(n, dtype=bool)
    if n < 2:
        return breaks
    # tolerances, possibly scaled by the previous char's size (element 0
    # of a scaled tolerance is never read)
    if cfg.x_tolerance_ratio is None:
        prev_xt = np.float64(cfg.x_tolerance)
    else:
        prev_xt = cfg.x_tolerance_ratio * np.roll(chars["size"][sorted_idx], 1)
    if cfg.y_tolerance_ratio is None:
        prev_yt = np.float64(cfg.y_tolerance)
    else:
        prev_yt = cfg.y_tolerance_ratio * np.roll(chars["size"][sorted_idx], 1)

    def keys(d: str):
        # In the reference, x is the intraline tolerance and y the
        # interline tolerance *after* the upright swap (text.py:557-583).
        if d in ("ltr", "rtl"):
            return (*_span(chars, d, sorted_idx), chars["top"][sorted_idx], prev_xt, prev_yt)
        return (*_span(chars, d, sorted_idx), chars["x0"][sorted_idx], prev_yt, prev_xt)

    start, end, cross, intra, inter = _per_char(upright, dirs, keys)
    breaks[1:] = (
        (start[1:] < start[:-1])
        | (start[1:] > end[:-1] + _tail(intra))
        | (cross[1:] > cross[:-1] + _tail(inter))
    )
    return breaks


# lookup tables over the BMP prefix that contains every isspace codepoint
# (the last is U+3000); codepoints past the table are classified scalar-wise
_LUT_SIZE = 0x3001
_SPACE_LUT: Optional[np.ndarray] = None
_PUNCT_LUTS: Dict[str, np.ndarray] = {}


def _space_lut() -> np.ndarray:
    global _SPACE_LUT
    if _SPACE_LUT is None:
        _SPACE_LUT = np.zeros(_LUT_SIZE, dtype=bool)
        for c in range(_LUT_SIZE):
            if chr(c).isspace():
                _SPACE_LUT[c] = True
    return _SPACE_LUT


def _punct_lut(punct: str) -> np.ndarray:
    lut = _PUNCT_LUTS.get(punct)
    if lut is None:
        lut = np.zeros(_LUT_SIZE, dtype=bool)
        for ch in punct:
            if ord(ch) < _LUT_SIZE:
                lut[ord(ch)] = True
        _PUNCT_LUTS[punct] = lut
    return lut


def _classify_chars(
    texts: np.ndarray, n: int, punct: str
) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
    """Vectorized isspace / in-punct-set masks: one C-level join + utf-32
    decode + table gather instead of a per-char Python loop (the hot path
    at ~450k glyphs per 512-doc batch). Falls back when a char cell holds a
    multi-glyph string (e.g. pdfminer '(cid:x)' texts). Also returns the
    joined page text (None in the fallback) so callers can cheaply probe
    for ligatures."""
    joined = "".join(texts.tolist())
    # fast path requires every cell to be EXACTLY one codepoint: total
    # length n plus no empty cells implies it (an empty cell would force
    # some other cell to hold >=2 codepoints and silently misalign masks)
    if len(joined) == n and not (texts == "").any():
        codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        small = codes < _LUT_SIZE
        idx = np.where(small, codes, 0)
        is_space = _space_lut()[idx] & small
        if punct:
            is_punct = _punct_lut(punct)[idx] & small
            big_punct = set(ord(c) for c in punct if ord(c) >= _LUT_SIZE)
            if big_punct and not small.all():
                for i in np.flatnonzero(~small):
                    is_punct[i] = codes[i] in big_punct
        else:
            is_punct = np.zeros(n, dtype=bool)
        return is_space, is_punct, joined
    is_space = np.fromiter((t.isspace() for t in texts), dtype=bool, count=n)
    if punct:
        is_punct = np.fromiter((t in punct for t in texts), dtype=bool, count=n)
    else:
        is_punct = np.zeros(n, dtype=bool)
    return is_space, is_punct, None


def extract_words_page(
    chars: CharTable, cfg: WordConfig, segment: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """chars (one page) -> words with provenance. Word order matches the
    reference generator order: input runs, then line position, then reading
    order within the line (text.py:664-678).

    ``segment`` (one id per char; each segment's chars contiguous) is one
    more run key, so one call assembles many independent char groups: the
    output equals the groups' separate outputs, concatenated."""
    n = chars["text"].shape[0] if isinstance(chars["text"], np.ndarray) else len(chars["text"])
    if n == 0:
        return empty_words(cfg)

    texts = np.asarray(chars["text"], dtype=object)
    upright = np.asarray(chars["upright"], dtype=bool)

    # --- consecutive-run ids by (upright, *extra_attrs) (text.py:667-668)
    attr_cols = {a: _attr_column(chars[a], n) for a in cfg.extra_attrs}
    change = np.zeros(n, dtype=bool)
    for col in (upright, *attr_cols.values(), *([] if segment is None else [segment])):
        change[1:] |= col[1:] != col[:-1]
    run = change.cumsum()

    punct = cfg.punct_set
    expansions = cfg.expansions
    is_space, is_punct, joined_page = _classify_chars(texts, n, punct)
    if expansions and joined_page is not None:
        # skip the per-char expansion lookup entirely on ligature-free
        # pages (7 C-level substring probes over the page text)
        if not any(ch in joined_page for ch in expansions):
            expansions = {}

    # the stored word direction is always get_char_dir(upright)
    # (text.py:478-494), even under use_text_flow where the *break*
    # tests run with the unrotated char_dir (text.py:670-674).
    word_dirs = (cfg.char_dir, cfg.resolved_char_dir_rotated)
    if cfg.use_text_flow:
        break_dirs = (cfg.char_dir, cfg.char_dir)
        sorted_idx = np.arange(n)
        line_of = run
    else:
        break_dirs = word_dirs
        line_dirs = (cfg.line_dir, cfg.resolved_line_dir_rotated)
        # line clusters within each run, at that run's tolerance
        values, tol = _per_char(
            upright, line_dirs,
            lambda d: (
                _span(chars, d)[0],
                cfg.y_tolerance if d in ("ttb", "btt") else cfg.x_tolerance,
            ),
        )
        line = cluster_ids(values, tol, segment=run)

        def sort_keys(d: str):
            start, end = _span(chars, d)
            return start, start if d == "ltr" else end

        primary, secondary = _per_char(upright, break_dirs, sort_keys)
        sorted_idx = np.lexsort((secondary, primary, line))
        line_of = line[sorted_idx]

    punct_f = is_punct[sorted_idx]
    kp = (~(is_space[sorted_idx] & (not cfg.keep_blank_chars))).nonzero()[0]
    if kp.shape[0] == 0:
        return empty_words(cfg)

    # a run change always starts a word: line_of differs between runs
    gap_break = _gap_breaks(chars, sorted_idx, upright[sorted_idx], break_dirs, cfg)
    new_word = np.ones(kp.shape[0], dtype=bool)
    if kp.shape[0] > 1:
        prev_kp = kp[:-1]
        cur_kp = kp[1:]
        same_line = line_of[cur_kp] == line_of[prev_kp]
        adjacent = cur_kp == prev_kp + 1  # no dropped blank in between
        prev_punct = punct_f[prev_kp]
        cur_punct = punct_f[cur_kp]
        # gap break applies only when the predecessor in sort order is the
        # previous kept char (adjacent); otherwise the dropped blank already
        # forced a break.
        g = gap_break[cur_kp]
        new_word[1:] = (~same_line) | (~adjacent) | prev_punct | cur_punct | (adjacent & g)

    starts = new_word.nonzero()[0]
    bounds = np.concatenate((starts, [kp.shape[0]]))

    sel = sorted_idx[kp]
    x0 = np.minimum.reduceat(chars["x0"][sel], starts)
    x1 = np.maximum.reduceat(chars["x1"][sel], starts)
    top = np.minimum.reduceat(chars["top"][sel], starts)
    bottom = np.maximum.reduceat(chars["bottom"][sel], starts)
    first = sel[starts]
    doctop = top + (chars["doctop"][first] - chars["top"][first])

    kept_texts = texts[sel]
    if expansions:
        kept_texts = np.array(
            [expansions.get(t, t) for t in kept_texts], dtype=object
        )
    # per-word join stays a Python loop on purpose: an Arrow
    # binary_join over a list view was measured ~1.6x SLOWER here (the
    # np->Arrow conversion per call dominates at this granularity)
    joined = np.empty(starts.shape[0], dtype=object)
    kt = kept_texts.tolist()
    for w, (s, e) in enumerate(zip(starts.tolist(), bounds[1:].tolist())):
        joined[w] = "".join(kt[s:e])

    word_upright = upright[first]
    out: Dict[str, np.ndarray] = {
        "text": joined,
        "x0": x0,
        "x1": x1,
        "top": top,
        "bottom": bottom,
        "doctop": doctop,
        "width": x1 - x0,
        "height": bottom - top,
        "upright": word_upright,
        "direction": np.array(word_dirs, dtype=object)[(~word_upright).astype(np.intp)],
        "char_indices": sel.astype(np.int64),
        "char_offsets": bounds.astype(np.int64),
    }
    for a, col in attr_cols.items():
        out[a] = col[first]
    return out


def _attr_column(vals, n: int) -> np.ndarray:
    """1-D object array of attribute values. Sequence-valued attributes
    (e.g. color tuples) would auto-broadcast to a 2-D array under
    ``np.asarray``; keep each value an opaque scalar instead."""
    arr = np.asarray(vals, dtype=object)
    if arr.ndim > 1:
        flat = np.empty(len(vals), dtype=object)
        flat[:] = [tuple(v) if isinstance(v, (list, tuple, np.ndarray)) else v for v in vals]
        return flat
    return arr
