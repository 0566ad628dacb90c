"""1-D single-linkage clustering — the engine's central grouping primitive.

Semantics mirror reference utils/clustering.py:9-66: values are sorted and a
new cluster starts wherever the gap to the *previous sorted value* exceeds
``tolerance`` (chained tolerance, not distance-to-cluster-start). Cluster ids
increase with value. ``cluster_objects`` in the reference dedups values
through a set before clustering (clustering.py:30); on sorted arrays chained
gaps over duplicates are zero, so the vectorized form below is equivalent.

:func:`connected_components` is the one graph-grouping kernel: table
topology, text-line grouping and every corpus family resolution
(``exchange.components``) label their nodes with it.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np


def cluster_ids(
    values: np.ndarray,
    tolerance: Union[float, np.ndarray],
    segment: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cluster id per element, aligned with the input order.

    Ids are dense and ordered by cluster position (cluster 0 holds the
    smallest values). Equal values always share a cluster.

    With ``segment`` (one id per element), elements cluster only within
    their segment: ids order by (segment, value), and ``tolerance`` may be
    an array giving each element the tolerance of its segment.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if segment is None:
        order = np.argsort(values, kind="stable")
    else:
        order = np.lexsort((values, segment))
    sv = values[order]
    brk = sv[1:] - sv[:-1] > (tolerance[order][1:] if np.ndim(tolerance) else tolerance)
    if segment is not None:
        ss = segment[order]
        brk |= ss[1:] != ss[:-1]
    out = np.empty(n, dtype=np.int64)
    out[order[0]] = 0
    out[order[1:]] = brk.cumsum()
    return out


def cluster_groups(
    values: np.ndarray, tolerance: float, preserve_order: bool = False
) -> List[np.ndarray]:
    """Index arrays, one per cluster, ordered by cluster id.

    With ``preserve_order=False`` (reference default) elements within a
    cluster keep their original relative order (the reference's stable
    sort by cluster id, clustering.py:60-66). With ``preserve_order=True``
    clusters are emitted as *runs* in input order: consecutive elements
    sharing a cluster id stay grouped, matching clustering.py:57-58 where
    the groupby runs over the unsorted sequence.
    """
    ids = cluster_ids(values, tolerance)
    n = ids.shape[0]
    if n == 0:
        return []
    if preserve_order:
        breaks = np.flatnonzero(np.diff(ids) != 0) + 1
        return np.split(np.arange(n), breaks)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    breaks = np.flatnonzero(np.diff(sorted_ids) != 0) + 1
    return np.split(order, breaks)


def cluster_means(
    values: np.ndarray, tolerance: float, segment: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-element mean of its cluster (used by snap, geometry.py:150-159),
    clustering within each ``segment`` when one is given. A cluster's sum
    adds its members in input order."""
    values = np.asarray(values, dtype=np.float64)
    ids = cluster_ids(values, tolerance, segment=segment)
    if values.shape[0] == 0:
        return values.copy()
    sums = np.bincount(ids, weights=values)
    counts = np.bincount(ids)
    return (sums / counts)[ids]


def connected_components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Connected components of ``n`` nodes joined by the pairs ``(a, b)``:
    each node's label is its component's smallest node. Min-label hooking
    of roots with pointer jumping; labels only fall, so it ends when every
    pair has one label."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
