"""Test oracle for duplicate-char removal: the per-char dict grouping
and nested per-group clustering of ``functions/dedupe.py`` as it stood
before the key-id kernel replaced it, kept verbatim.
``test_dedupe.py`` compares the kernel against it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

import numpy as np

from pdfplumber_ray.functions.clustering import cluster_groups
from pdfplumber_ray.functions.words import CharTable


def dedupe_chars_mask(
    chars: CharTable, tolerance: float = 1.0, extra_key_cols: tuple = ()
) -> np.ndarray:
    """Boolean keep-mask over the page's chars."""
    n = len(chars["text"])
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    texts = chars["text"]
    fontname = chars["fontname"]
    size = chars["size"]
    upright = chars["upright"]
    doctop = np.asarray(chars["doctop"], dtype=np.float64)
    x0 = np.asarray(chars["x0"], dtype=np.float64)

    groups: Dict[tuple, list] = defaultdict(list)
    for i in range(n):
        key = (fontname[i], float(size[i]), bool(upright[i]), texts[i]) + tuple(
            chars[c][i] for c in extra_key_cols
        )
        groups[key].append(i)

    for idx_list in groups.values():
        idx = np.asarray(idx_list, dtype=np.int64)
        for ycl in cluster_groups(doctop[idx], tolerance):
            yidx = idx[ycl]
            for xcl in cluster_groups(x0[yidx], tolerance):
                xidx = yidx[xcl]
                order = np.lexsort((x0[xidx], doctop[xidx]))
                keep[xidx[order[0]]] = True
    return keep
