"""Duplicate-char removal (reference utils/text.py:784-804).

Removes chars sharing (fontname, size, upright, text) whose positions fall
within ``tolerance`` on doctop then x0 (nested 1-D clustering), keeping the
positionally-first char of each cluster; output preserves original order.
Per-page only — duplicate keys never cross pages, so no shuffle is needed
(SURVEY.md §2.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .clustering import cluster_ids
from .words import CharTable


def _codes(col) -> np.ndarray:
    """Integer code per element; equal values (nulls included) share one."""
    col = np.asarray(col)
    if col.dtype != object:
        return np.unique(col, return_inverse=True)[1].reshape(-1)
    enc = pc.dictionary_encode(pa.array(col), null_encoding="encode")
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)


def dedupe_chars_mask(
    chars: CharTable, tolerance: float = 1.0, extra_key_cols: tuple = ()
) -> np.ndarray:
    """Boolean keep-mask over the chars: the first char, in (doctop, x0,
    index) order, of each doctop-then-x0 cluster within a key."""
    n = len(chars["text"])
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    cols = [
        chars["fontname"],
        np.asarray(chars["size"], dtype=np.float64),
        np.asarray(chars["upright"], dtype=bool),
        chars["text"],
        *(chars[c] for c in extra_key_cols),
    ]
    codes = np.stack([_codes(c) for c in cols])
    order = np.lexsort(codes[::-1])
    sc = codes[:, order]
    key = np.empty(n, dtype=np.int64)
    key[order] = np.concatenate(([0], (sc[:, 1:] != sc[:, :-1]).any(axis=0).cumsum()))
    doctop = np.asarray(chars["doctop"], dtype=np.float64)
    x0 = np.asarray(chars["x0"], dtype=np.float64)
    y = cluster_ids(doctop, tolerance, segment=key)
    x = cluster_ids(x0, tolerance, segment=y)
    order = np.lexsort((x0, doctop, x))
    xs = x[order]
    keep[order[np.concatenate(([True], xs[1:] != xs[:-1]))]] = True
    return keep
