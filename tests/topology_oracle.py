"""Test oracle for the table finder's topology: the per-vertex vertex map,
smallest-cell search and corner-connected table grouping as they stood
before the columnar kernels in ``functions/tables.py`` replaced them,
kept verbatim. ``test_topology.py`` compares the kernels against them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from pdfplumber_ray.functions.geometry import Bbox, ObjArrays

Point = Tuple[float, float]


Intersections = Dict[Point, Tuple[set, set]]


def intersections_group(
    edges: ObjArrays,
    page: np.ndarray,
    n_pages: int,
    x_tolerance: float,
    y_tolerance: float,
) -> List[Intersections]:
    """Vertex map per page (table.py:207-231). The candidate pairs are
    every page's v edges x its h edges, in (v, h) order, built with
    ``np.repeat`` and tested in one vectorized compare; per-vertex edge
    membership is kept as bbox-tuple sets, matching the reference's edge
    identity semantics (table.py:245-246). ``page`` must be sorted."""
    out: List[Intersections] = [{} for _ in range(n_pages)]
    is_v = edges["orientation"] == "v"
    vi = np.flatnonzero(is_v)
    hi = np.flatnonzero(~is_v)
    if vi.shape[0] == 0 or hi.shape[0] == 0:
        return out
    vpage = page[vi]
    h_count = np.bincount(page[hi], minlength=n_pages)
    per_v = h_count[vpage]
    a = np.repeat(np.arange(vi.shape[0]), per_v)
    b = (
        (np.cumsum(h_count) - h_count)[vpage][a]
        + np.arange(a.shape[0])
        - np.repeat(np.cumsum(per_v) - per_v, per_v)
    )
    v, h = vi[a], hi[b]
    x0, top, x1, bottom = (edges[k] for k in ("x0", "top", "x1", "bottom"))
    hit = (
        (top[v] <= top[h] + y_tolerance)
        & (bottom[v] >= top[h] - y_tolerance)
        & (x0[v] >= x0[h] - x_tolerance)
        & (x0[v] <= x1[h] + x_tolerance)
    )
    v, h = v[hit], h[hit]
    x0l, topl = x0.tolist(), top.tolist()
    boxes = list(zip(x0l, topl, x1.tolist(), bottom.tolist()))
    for i, j, p in zip(v.tolist(), h.tolist(), page[v].tolist()):
        vertex = (x0l[i], topl[j])
        entry = out[p].get(vertex)
        if entry is None:
            entry = out[p][vertex] = (set(), set())
        entry[0].add(boxes[i])
        entry[1].add(boxes[j])
    return out


def edges_to_intersections_arrays(
    edges: ObjArrays, x_tolerance: float, y_tolerance: float
) -> Intersections:
    """:func:`intersections_group` on one page."""
    return intersections_group(
        edges, _zeros(edges["x0"].shape[0]), 1, x_tolerance, y_tolerance
    )[0]


def intersections_to_cells(intersections: Intersections) -> List[Bbox]:
    """Smallest rectangle per vertex whose four corners are edge-connected
    (table.py:234-294)."""
    points = sorted(intersections.keys())
    n_points = len(points)
    by_x: Dict[float, List[Point]] = defaultdict(list)
    by_y: Dict[float, List[Point]] = defaultdict(list)
    for p in points:
        by_x[p[0]].append(p)
        by_y[p[1]].append(p)

    def edge_connects(p1: Point, p2: Point) -> bool:
        if p1[0] == p2[0]:
            if intersections[p1][0] & intersections[p2][0]:
                return True
        if p1[1] == p2[1]:
            if intersections[p1][1] & intersections[p2][1]:
                return True
        return False

    cells: List[Bbox] = []
    for i, pt in enumerate(points):
        if i == n_points - 1:
            break
        below = [x for x in by_x[pt[0]] if x > pt]
        right = [x for x in by_y[pt[1]] if x > pt]
        found: Optional[Bbox] = None
        for below_pt in below:
            if found:
                break
            if not edge_connects(pt, below_pt):
                continue
            for right_pt in right:
                if not edge_connects(pt, right_pt):
                    continue
                bottom_right = (right_pt[0], below_pt[1])
                if (
                    bottom_right in intersections
                    and edge_connects(bottom_right, right_pt)
                    and edge_connects(bottom_right, below_pt)
                ):
                    found = (pt[0], pt[1], bottom_right[0], bottom_right[1])
                    break
        if found:
            cells.append(found)
    return cells


def cells_to_tables(cells: List[Bbox]) -> List[List[Bbox]]:
    """Corner-sharing connected components (table.py:297-355) via
    union-find — identical partition and the same final ordering (sort by
    min (top, x0); drop singleton groups)."""
    parent: Dict[Point, Point] = {}

    def find(p: Point) -> Point:
        root = p
        while parent[root] != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    def union(a: Point, b: Point) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for x0, top, x1, bottom in cells:
        corners = ((x0, top), (x0, bottom), (x1, top), (x1, bottom))
        for c in corners:
            parent.setdefault(c, c)
        for c in corners[1:]:
            union(corners[0], c)

    groups: Dict[Point, List[Bbox]] = defaultdict(list)
    for cell in cells:
        groups[find((cell[0], cell[1]))].append(cell)

    tables = sorted(groups.values(), key=lambda t: min((c[1], c[0]) for c in t))
    return [t for t in tables if len(t) > 1]

