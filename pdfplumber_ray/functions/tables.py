"""Table detection over a group of pages: lattice + stream strategies.

Semantics ported from reference table.py — snap/join edge merging
(table.py:21-98), text-alignment imaginary edges (table.py:101-204),
intersection graph (table.py:207-231), smallest-cell search
(table.py:234-294), corner-connected-component table grouping
(table.py:297-355, re-expressed as connected components with the same
output order), row alignment and per-cell text (table.py:389-435).

The kernels take a group of pages at once. Edges, words and chars are
each one column set with a page id per row; every page's rows are
contiguous and in page order. Snap, join, the intersection pairs, cell
membership and the topology are sorts and sweeps keyed by that page id, so
a kernel makes a fixed number of numpy calls per group rather than per
page or per vertex, and each page's result is the one it would get alone.
The topology is columnar: :class:`Intersections` holds the vertices with
each one's reach along its vertical and horizontal edges,
:func:`cells_group` resolves every vertex's smallest cell in vectorized
rounds, and :func:`_tables` labels corner-connected components. The
one-page functions (``find_tables_page``, ``merge_edges_arrays``,
``edges_to_intersections_arrays``, ``intersections_to_cells``,
``cells_to_tables``, ``page_cell_texts``) are the group of one. The text
strategy's imaginary edges and the explicit lines stay per page, since
their cost is per word cluster or per given line and the default lines
strategy never runs them. Both edge sides of the "join" live in the same
page, so no distributed join is ever needed (SURVEY.md §2.5).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import LayoutConfig, TableConfig, WordConfig, validate_directions
from .clustering import cluster_groups, cluster_means, connected_components
from .geometry import (
    Bbox,
    ObjArrays,
    band_pairs,
    concat_edges,
    concat_paged_edges,
    filter_edges_mask,
)
from .textmap import segment_texts, words_to_textmap
from .words import CharTable, extract_words_page

Point = Tuple[float, float]


def _take(edges: ObjArrays, idx: np.ndarray) -> ObjArrays:
    return {k: v[idx] for k, v in edges.items()}


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def snap_edges_arrays(
    edges: ObjArrays,
    x_tolerance: float,
    y_tolerance: float,
    page: Optional[np.ndarray] = None,
) -> ObjArrays:
    """Snap parallel edges within tolerance to their cluster mean
    (table.py:21-36): v edges move horizontally to mean x0, h edges move
    vertically to mean top. With ``page``, edges cluster only within their
    page; a cluster's mean sums its members in input order either way."""
    out = {k: v.copy() for k, v in edges.items()}
    is_v = edges["orientation"] == "v"
    for idx, key, other, tol in (
        (np.flatnonzero(is_v), "x0", "x1", x_tolerance),
        (np.flatnonzero(~is_v), "top", "bottom", y_tolerance),
    ):
        if idx.shape[0]:
            seg = None if page is None else page[idx]
            delta = cluster_means(out[key][idx], tol, segment=seg) - out[key][idx]
            out[key][idx] += delta
            out[other][idx] += delta
    return out


def merge_edges_group(
    edges: ObjArrays,
    page: np.ndarray,
    snap_x_tolerance: float,
    snap_y_tolerance: float,
    join_x_tolerance: float,
    join_y_tolerance: float,
) -> Tuple[ObjArrays, np.ndarray]:
    """snap -> group by (page, orientation, position) -> join collinear runs
    (table.py:68-98), for every page of a group at once. Returns the merged
    edges and their pages, ordered by (page, orientation 'h' first,
    position, extent start) like the reference's sorted groupby."""
    if snap_x_tolerance > 0 or snap_y_tolerance > 0:
        edges = snap_edges_arrays(edges, snap_x_tolerance, snap_y_tolerance, page)

    n = edges["x0"].shape[0]
    if n == 0:
        return edges, page
    is_v = edges["orientation"] == "v"
    pos = np.where(is_v, edges["x0"], edges["top"])
    lo = np.where(is_v, edges["top"], edges["x0"])
    hi = np.where(is_v, edges["bottom"], edges["x1"])
    # 'h' < 'v' so h groups come first, as in the reference's tuple sort
    order = np.lexsort((lo, pos, is_v, page))
    sv = is_v[order]
    sp = pos[order]
    spg = page[order]
    lo_s = lo[order]
    hi_s = hi[order]
    group_break = np.ones(n, dtype=bool)
    group_break[1:] = (spg[1:] != spg[:-1]) | (sv[1:] != sv[:-1]) | (sp[1:] != sp[:-1])
    # running max of the extent end within each group, exactly: rank the
    # ends, lift each group's ranks above every earlier group's, take one
    # running max over the whole array and map the ranks back
    uniq, rank = np.unique(hi_s, return_inverse=True)
    lift = (np.cumsum(group_break) - 1) * uniq.shape[0]
    cummax = uniq[np.maximum.accumulate(lift + rank) - lift]
    # a run continues while its start is within tol of the running max
    # extent (reference table.py:39-65)
    tol = np.where(sv, join_y_tolerance, join_x_tolerance)
    brk = group_break
    brk[1:] |= lo_s[1:] > cummax[:-1] + tol[1:]
    rs = np.flatnonzero(brk)
    keep_idx = order[rs]
    new_max = np.maximum.reduceat(hi_s, rs)
    out = _take(edges, keep_idx)
    vmask = sv[rs]
    out["bottom"] = np.where(vmask, new_max, out["bottom"])
    out["x1"] = np.where(~vmask, new_max, out["x1"])
    out["width"] = out["x1"] - out["x0"]
    out["height"] = out["bottom"] - out["top"]
    return out, page[keep_idx]


def merge_edges_arrays(
    edges: ObjArrays,
    snap_x_tolerance: float,
    snap_y_tolerance: float,
    join_x_tolerance: float,
    join_y_tolerance: float,
) -> ObjArrays:
    """:func:`merge_edges_group` on one page."""
    return merge_edges_group(
        edges, _zeros(edges["x0"].shape[0]),
        snap_x_tolerance, snap_y_tolerance, join_x_tolerance, join_y_tolerance,
    )[0]


def rows_to_edges(rows: List[Dict[str, Any]]) -> ObjArrays:
    keys = ("x0", "x1", "top", "bottom", "orientation", "object_type")
    out: ObjArrays = {}
    for k in keys:
        dtype = object if k in ("orientation", "object_type") else np.float64
        out[k] = np.array([r.get(k) for r in rows], dtype=dtype)
    out["width"] = out["x1"] - out["x0"]
    out["height"] = out["bottom"] - out["top"]
    return out


def words_to_edges_h_arrays(words: Dict[str, np.ndarray], word_threshold: int) -> ObjArrays:
    """Imaginary horizontal lines from word-row tops/bottoms (table.py:101-141)."""
    nw = words["text"].shape[0]
    if nw == 0:
        return concat_edges([])
    groups = [g for g in cluster_groups(words["top"], 1) if g.shape[0] >= word_threshold]
    if not groups:
        return concat_edges([])
    rect_top = [float(np.min(words["top"][g])) for g in groups]
    rect_bottom = [float(np.max(words["bottom"][g])) for g in groups]
    rect_x0 = [float(np.min(words["x0"][g])) for g in groups]
    rect_x1 = [float(np.max(words["x1"][g])) for g in groups]
    min_x0 = min(rect_x0)
    max_x1 = max(rect_x1)
    rows: List[Dict[str, Any]] = []
    for t, b in zip(rect_top, rect_bottom):
        for y in (t, b):
            rows.append(
                {"x0": min_x0, "x1": max_x1, "top": y, "bottom": y,
                 "orientation": "h", "object_type": "words_edge"}
            )
    return rows_to_edges(rows)


def words_to_edges_v_arrays(words: Dict[str, np.ndarray], word_threshold: int) -> ObjArrays:
    """Imaginary vertical lines from left/right/center word alignment
    (table.py:144-204), with overlap condensation."""
    nw = words["text"].shape[0]
    if nw == 0:
        return concat_edges([])
    by_x0 = cluster_groups(words["x0"], 1)
    by_x1 = cluster_groups(words["x1"], 1)
    center = (words["x0"] + words["x1"]) / 2.0
    by_center = cluster_groups(center, 1)
    clusters = by_x0 + by_x1 + by_center
    clusters = sorted(clusters, key=lambda g: -g.shape[0])
    large = [g for g in clusters if g.shape[0] >= word_threshold]
    bboxes = [
        (
            float(np.min(words["x0"][g])),
            float(np.min(words["top"][g])),
            float(np.max(words["x1"][g])),
            float(np.max(words["bottom"][g])),
        )
        for g in large
    ]
    condensed: List[Bbox] = []
    for bbox in bboxes:
        if not any(_bbox_overlap(bbox, c) for c in condensed):
            condensed.append(bbox)
    if not condensed:
        return concat_edges([])
    sorted_boxes = sorted(condensed, key=lambda b: b[0])
    max_x1 = max(b[2] for b in sorted_boxes)
    min_top = min(b[1] for b in sorted_boxes)
    max_bottom = max(b[3] for b in sorted_boxes)
    rows = [
        {"x0": b[0], "x1": b[0], "top": min_top, "bottom": max_bottom,
         "orientation": "v", "object_type": "words_edge"}
        for b in sorted_boxes
    ] + [
        {"x0": max_x1, "x1": max_x1, "top": min_top, "bottom": max_bottom,
         "orientation": "v", "object_type": "words_edge"}
    ]
    return rows_to_edges(rows)


def _bbox_overlap(a: Bbox, b: Bbox) -> bool:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return w >= 0 and h >= 0 and (w + h) > 0


def _repeat_ranges(start: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, value) pairs: ``start[i], start[i] + 1, ...`` (``count[i]``
    values) for each ``i`` in turn."""
    owner = np.repeat(np.arange(start.shape[0]), count)
    return owner, start[owner] + np.arange(owner.shape[0]) - (np.cumsum(count) - count)[owner]


def _dense_ids(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's id among the distinct rows of ``keys`` (compared with
    ``==``, the first key major), ids ascending in key order, and each id's
    first row."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for k in keys:
        ks = k[order]
        new[1:] |= ks[1:] != ks[:-1]
    ids = np.empty(order.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


class Intersections(Mapping):
    """The intersection vertices of a group of pages (table.py:207-231),
    as columns. Vertices are ordered by (page, x, top), the order the
    reference's cell search visits them in, and ``by_top`` lists them in
    (page, top, x) order (``y_pos`` is each vertex's position there).

    Edge membership is kept as two reaches: ``reach_down[u]`` is the last
    vertex (in (page, x, top) order) that shares a vertical edge with ``u``
    and ``reach_right[u]`` the last position in ``by_top`` that shares a
    horizontal edge with it. They are exact because an edge's vertices are
    a run: every vertex at an edge's x whose top is within the edge's
    tolerance-widened extent is on it (an h edge reaching that x made the
    vertex, and would meet this v edge too), and the extent test is
    monotonic in top. So the vertices below ``u`` that share a vertical edge
    with it are exactly those up to ``reach_down[u]``, and two edges with
    the same bbox, one edge in the reference's sets, have the same run.

    As a :class:`Mapping`, a one-page group reads as the reference's vertex
    dict: ``(x, top)`` keys in the order their first (v, h) pair met, each
    mapped to the bbox sets of its vertical and horizontal edges.
    """

    def __init__(
        self,
        edges: ObjArrays,
        page: np.ndarray,
        hit_v: np.ndarray,
        hit_h: np.ndarray,
    ):
        self.edges = edges
        x, top = edges["x0"][hit_v], edges["top"][hit_h]
        vertex, first = _dense_ids(page[hit_v], x, top)
        self.page, self.x, self.top = page[hit_v][first], x[first], top[first]
        self._hits = (vertex, hit_v, hit_h, first)
        n = first.shape[0]
        self.by_top = np.lexsort((self.x, self.top, self.page))
        self.y_pos = np.empty(n, dtype=np.int64)
        self.y_pos[self.by_top] = np.arange(n)
        n_edges = edges["x0"].shape[0]
        self.reach_down = np.full(n, -1, dtype=np.int64)
        self.reach_right = np.full(n, -1, dtype=np.int64)
        for hit, reach, pos in (
            (hit_v, self.reach_down, vertex),
            (hit_h, self.reach_right, self.y_pos[vertex]),
        ):
            last = np.full(n_edges, -1, dtype=np.int64)
            np.maximum.at(last, hit, pos)
            np.maximum.at(reach, vertex, last[hit])

    def __len__(self) -> int:
        return self.x.shape[0]

    def __iter__(self) -> Iterator[Point]:
        order = np.argsort(self._hits[3], kind="stable")
        return zip(self.x[order].tolist(), self.top[order].tolist())

    def __getitem__(self, key: Point) -> Tuple[set, set]:
        lo, hi = np.searchsorted(self.x, key[0]), np.searchsorted(self.x, key[0], "right")
        u = lo + int(np.searchsorted(self.top[lo:hi], key[1]))
        if u == hi or self.top[u] != key[1]:
            raise KeyError(key)
        vertex, hit_v, hit_h, _ = self._hits
        at = vertex == u
        box = np.column_stack([self.edges[k] for k in ("x0", "top", "x1", "bottom")])
        return (
            set(map(tuple, box[hit_v[at]].tolist())),
            set(map(tuple, box[hit_h[at]].tolist())),
        )


def intersections_group(
    edges: ObjArrays,
    page: np.ndarray,
    x_tolerance: float,
    y_tolerance: float,
) -> Intersections:
    """The vertices of every page of a group (table.py:207-231). The
    candidate pairs are every page's v edges x its h edges, in (v, h)
    order, built with ``np.repeat`` and tested in one vectorized compare.
    ``page`` must be sorted."""
    is_v = edges["orientation"] == "v"
    vi = np.flatnonzero(is_v)
    hi = np.flatnonzero(~is_v)
    n_pages = int(page[-1]) + 1 if page.shape[0] else 0
    h_count = np.bincount(page[hi], minlength=n_pages)
    a, b = _repeat_ranges((np.cumsum(h_count) - h_count)[page[vi]], h_count[page[vi]])
    v, h = vi[a], hi[b]
    x0, top, x1, bottom = (edges[k] for k in ("x0", "top", "x1", "bottom"))
    hit = (
        (top[v] <= top[h] + y_tolerance)
        & (bottom[v] >= top[h] - y_tolerance)
        & (x0[v] >= x0[h] - x_tolerance)
        & (x0[v] <= x1[h] + x_tolerance)
    )
    return Intersections(edges, page, v[hit], h[hit])


def edges_to_intersections_arrays(
    edges: ObjArrays, x_tolerance: float, y_tolerance: float
) -> Intersections:
    """:func:`intersections_group` on one page."""
    return intersections_group(edges, _zeros(edges["x0"].shape[0]), x_tolerance, y_tolerance)


def cells_group(inter: Intersections) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The smallest cell at each vertex (table.py:234-294) of a group's
    pages, in top-left vertex order: the cells' pages, their bboxes (rows
    of x0, top, x1, bottom) and the vertex ids of their corners (rows of
    top-left, bottom-left, top-right, bottom-right).

    The reference walks the vertices below a vertex that share a vertical
    edge with it, in top order, and for each the vertices to its right
    that share a horizontal edge, in x order, and takes the first pair
    whose bottom-right corner is a vertex joined to both. Below-points are
    the run up to ``reach_down`` and right-points the run up to
    ``reach_right``, so a round takes every unresolved vertex's k-th
    below-point with all of its right-points at once, finds each
    bottom-right corner by ``searchsorted`` on an exact integer (column,
    top) key, and keeps each vertex's first pair that passes. Most
    vertices resolve in round 0."""
    n = len(inter)
    if not n:
        return _zeros(0), np.empty((0, 4)), np.empty((0, 4), dtype=np.int64)
    col = np.cumsum(np.r_[True, (inter.page[1:] != inter.page[:-1]) | (inter.x[1:] != inter.x[:-1])]) - 1
    tops, top_id = np.unique(inter.top, return_inverse=True)
    key = col * tops.shape[0] + top_id.reshape(-1)
    ids = np.arange(n)
    n_below = inter.reach_down - ids
    n_right = inter.reach_right - inter.y_pos
    todo = np.flatnonzero((n_below > 0) & (n_right > 0))
    found = [np.empty((0, 4), dtype=np.int64)]
    resolved = np.zeros(n, dtype=bool)
    k = 0
    while todo.shape[0]:
        pair, rpos = _repeat_ranges(inter.y_pos[todo] + 1, n_right[todo])
        pt = todo[pair]
        below = pt + 1 + k
        right = inter.by_top[rpos]
        q = col[right] * tops.shape[0] + top_id[below]
        corner = np.minimum(np.searchsorted(key, q), n - 1)
        ok = (
            (key[corner] == q)
            & (corner <= inter.reach_down[right])
            & (inter.y_pos[corner] <= inter.reach_right[below])
        )
        hit = np.flatnonzero(ok)
        hit = hit[np.r_[True, pt[hit][1:] != pt[hit][:-1]]] if hit.shape[0] else hit
        found.append(np.column_stack((pt[hit], below[hit], right[hit], corner[hit])))
        resolved[pt[hit]] = True
        k += 1
        todo = todo[(n_below[todo] > k) & ~resolved[todo]]
    corners = np.concatenate(found)
    corners = corners[np.argsort(corners[:, 0], kind="stable")]
    tl = corners[:, 0]
    boxes = np.column_stack(
        (inter.x[tl], inter.top[tl], inter.x[corners[:, 2]], inter.top[corners[:, 1]])
    )
    return inter.page[tl], boxes, corners


def _tables(
    page: np.ndarray, boxes: np.ndarray, corners: np.ndarray, n_pages: int
) -> List[List[List[Bbox]]]:
    """Cells -> each page's tables (table.py:297-355): the corner-connected
    components of cells, ``corners`` being each cell's four corner ids,
    ordered by their min (top, x0) with cells in input order, singletons
    dropped. ``page`` (sorted) and ``boxes`` (x0, top, x1, bottom) are the
    cells'."""
    out: List[List[List[Bbox]]] = [[] for _ in range(n_pages)]
    if not page.shape[0]:
        return out
    n_ids = int(corners.max()) + 1
    label = connected_components(
        np.repeat(corners[:, 0], 3), corners[:, 1:].reshape(-1), n_ids
    )[corners[:, 0]]
    # a table's first row in (label, top, x0) order holds its min (top, x0)
    by_label = np.lexsort((boxes[:, 0], boxes[:, 1], label))
    first = np.flatnonzero(np.r_[True, np.diff(label[by_label]) != 0])
    size = np.diff(np.r_[first, label.shape[0]])
    head = by_label[first][size > 1]
    head = head[np.lexsort((boxes[head, 0], boxes[head, 1], page[head]))]
    rank = np.full(n_ids, -1, dtype=np.int64)
    rank[label[head]] = np.arange(head.shape[0])
    cell_rank = rank[label]
    keep = np.flatnonzero(cell_rank >= 0)
    keep = keep[np.argsort(cell_rank[keep], kind="stable")]
    bounds = np.searchsorted(cell_rank[keep], np.arange(head.shape[0] + 1)).tolist()
    cells = list(map(tuple, boxes[keep].tolist()))
    for t, p in enumerate(page[head].tolist()):
        out[p].append(cells[bounds[t] : bounds[t + 1]])
    return out


def tables_group(inter: Intersections, n_pages: int) -> List[List[List[Bbox]]]:
    """Each page's tables from a group's vertices: :func:`cells_group`
    then :func:`_tables`, whose corner ids are the vertex ids."""
    return _tables(*cells_group(inter), n_pages)


def intersections_to_cells(intersections: Intersections) -> List[Bbox]:
    """One page's cells (table.py:234-294): :func:`cells_group` as
    bboxes."""
    return list(map(tuple, cells_group(intersections)[1].tolist()))


def cells_to_tables(cells: List[Bbox]) -> List[List[Bbox]]:
    """One page's cells -> its tables (table.py:297-355): :func:`_tables`
    with corner ids from the corners' coordinates."""
    boxes = np.asarray(cells, dtype=np.float64).reshape(-1, 4)
    xs = boxes[:, [0, 0, 2, 2]].reshape(-1)
    ys = boxes[:, [1, 3, 1, 3]].reshape(-1)
    ids = _dense_ids(xs, ys)[0].reshape(-1, 4)
    return _tables(_zeros(boxes.shape[0]), boxes, ids, 1)[0]


@dataclass
class PageTable:
    """One detected table on one page (reference Table, table.py:373-435)."""

    cells: List[Bbox]
    text_settings: Dict[str, Any] = field(default_factory=dict)

    @property
    def bbox(self) -> Bbox:
        return (
            min(c[0] for c in self.cells),
            min(c[1] for c in self.cells),
            max(c[2] for c in self.cells),
            max(c[3] for c in self.cells),
        )

    @property
    def rows(self) -> List[List[Optional[Bbox]]]:
        _sorted = sorted(self.cells, key=lambda c: (c[1], c[0]))
        xs = sorted(set(c[0] for c in self.cells))
        out: List[List[Optional[Bbox]]] = []
        cur_top: Optional[float] = None
        xdict: Dict[float, Bbox] = {}
        for cell in _sorted:
            if cur_top is None or cell[1] != cur_top:
                if cur_top is not None:
                    out.append([xdict.get(x) for x in xs])
                cur_top = cell[1]
                xdict = {}
            xdict[cell[0]] = cell
        if cur_top is not None:
            out.append([xdict.get(x) for x in xs])
        return out

    def extract(self, chars: CharTable) -> List[List[Optional[str]]]:
        """Rows of cell text (table.py:399-435)."""
        return page_cell_texts(chars, [self])[0]


# char columns the word kernel reads (``size`` only under a tolerance ratio)
WORD_CHAR_COLS = ("text", "x0", "x1", "top", "bottom", "doctop", "upright", "size")


def word_char_cols(chars: CharTable, cfg: WordConfig) -> List[str]:
    """The columns of ``chars`` that ``extract_words_page`` reads under
    ``cfg``."""
    return list(dict.fromkeys([k for k in WORD_CHAR_COLS if k in chars] + list(cfg.extra_attrs)))


def cell_texts_group(
    chars: CharTable,
    char_page: np.ndarray,
    tables: Sequence[Sequence[PageTable]],
) -> List[List[List[List[Optional[str]]]]]:
    """Rows of cell text for every table of every page of a group, in one
    pass: ``tables[p]`` are page ``p``'s tables, ``char_page`` gives each
    char's page (sorted), and the result holds ``tables``' shape.

    Same result as the reference's ``Table.extract`` (table.py:399-435) on
    each table: a char of the table's page belongs to every cell that holds
    its midpoint (``char_in_bbox``), absent cells are ``None``, cells
    without words are ``""``, and the rest are ``extract_text`` of the
    cell's chars under the tables' shared ``text_settings``. The (cell,
    char) pairs are gathered into one char table with the cell id as its
    segment, so one ``extract_words_page`` call assembles every cell's
    words and one ``segment_texts`` call joins them.
    """
    flat = [(p, t) for p, page_tables in enumerate(tables) for t in page_tables]
    if not flat:
        return [[] for _ in tables]
    settings = dict(flat[0][1].text_settings)
    if any(t.text_settings != settings for _, t in flat[1:]):
        raise ValueError("page_cell_texts needs tables that share text_settings")
    h_mid = (np.asarray(chars["x0"]) + np.asarray(chars["x1"])) / 2
    v_mid = (np.asarray(chars["top"]) + np.asarray(chars["bottom"])) / 2

    # cells are numbered in (page, table, row, column) order
    grids: List[List[List[Optional[int]]]] = []
    boxes: List[Bbox] = []
    row_sizes: List[int] = []
    row_page: List[int] = []
    for p, table in flat:
        grid = []
        for row in table.rows:
            present = [c for c in row if c is not None]
            ids = iter(range(len(boxes), len(boxes) + len(present)))
            grid.append([None if c is None else next(ids) for c in row])
            boxes.extend(present)
            row_sizes.append(len(present))
            row_page.append(p)
        grids.append(grid)
    # membership: chars in each row's bbox, then each such (row, char) pair
    # against every cell of its row; a char inside two cells counts in both
    box = np.asarray(boxes, dtype=np.float64)
    n_cells = np.asarray(row_sizes)
    first = n_cells.cumsum() - n_cells
    row_x0 = np.minimum.reduceat(box[:, 0], first)
    row_x1 = np.maximum.reduceat(box[:, 2], first)
    row_i, char_i = band_pairs(
        char_page, v_mid, np.asarray(row_page, dtype=np.int64),
        np.minimum.reduceat(box[:, 1], first), np.maximum.reduceat(box[:, 3], first),
    )
    in_row = (h_mid[char_i] >= row_x0[row_i]) & (h_mid[char_i] < row_x1[row_i])
    row_i, char_i = row_i[in_row], char_i[in_row]
    per_pair = n_cells[row_i]
    pair = np.repeat(np.arange(row_i.shape[0]), per_pair)
    cell = first[row_i][pair] + np.arange(pair.shape[0]) - (per_pair.cumsum() - per_pair)[pair]
    src = char_i[pair]
    hit = _midpoint_in(h_mid[src], v_mid[src], *box[cell].T)
    order = np.lexsort((src[hit], cell[hit]))
    cell, src = cell[hit][order], src[hit][order]

    texts: Dict[int, str] = {}
    if cell.shape[0]:
        ldr = settings.pop("line_dir_render", None)
        cdr = settings.pop("char_dir_render", None)
        wcfg = WordConfig.from_kwargs(**settings)
        render_dirs = (ldr or wcfg.line_dir, cdr or wcfg.char_dir)
        validate_directions(*render_dirs, "_render")
        cell_chars = {k: np.asarray(chars[k])[src] for k in word_char_cols(chars, wcfg)}
        words = extract_words_page(cell_chars, wcfg, segment=cell)
        word_cell = cell[words["char_indices"][words["char_offsets"][:-1]]]
        if not settings.get("layout"):
            texts = segment_texts(words, word_cell, wcfg, *render_dirs)
        else:
            # words_to_textmap per cell on its slice of the word table, laid
            # out in the cell's own box (table.py:425-432)
            base = LayoutConfig.from_kwargs(
                **{**settings, "line_dir_render": ldr, "char_dir_render": cdr, "presorted": True}
            )
            firsts = (word_cell[1:] != word_cell[:-1]).nonzero()[0] + 1
            bounds = [0, *firsts.tolist(), len(word_cell)]
            for s, e in zip(bounds, bounds[1:]):
                c = int(word_cell[s])
                x0, top, x1, bottom = boxes[c]
                sub = {k: v[s:e] for k, v in words.items()}
                sub["char_indices"] = words["char_indices"]
                sub["char_offsets"] = words["char_offsets"][s : e + 1]
                cfg = dc_replace(
                    base, layout_width=x1 - x0, layout_height=bottom - top, layout_bbox=boxes[c]
                )
                texts[c] = words_to_textmap(sub, cell_chars, cfg).string
    out: List[List[List[List[Optional[str]]]]] = [[] for _ in tables]
    for (p, _), grid in zip(flat, grids):
        out[p].append(
            [[None if i is None else texts.get(i, "") for i in ids] for ids in grid]
        )
    return out


def page_cell_texts(
    chars: CharTable, tables: Sequence[PageTable]
) -> List[List[List[Optional[str]]]]:
    """Rows of cell text for every table on one page:
    :func:`cell_texts_group` on one page."""
    return cell_texts_group(chars, _zeros(np.asarray(chars["x0"]).shape[0]), [tables])[0]


def _midpoint_in(h_mid, v_mid, x0, top, x1, bottom) -> np.ndarray:
    """``char_in_bbox`` (table.py:404-410): the char's midpoint in the box,
    right and bottom edges open; box coordinates broadcast against the
    midpoints."""
    return (h_mid >= x0) & (h_mid < x1) & (v_mid >= top) & (v_mid < bottom)


def _explicit_edges(
    descs: Optional[List[Any]], orientation: str, page_bbox: Bbox
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for desc in descs or []:
        if isinstance(desc, dict):
            if desc.get("orientation") == orientation:
                rows.append(
                    {"x0": desc["x0"], "x1": desc["x1"], "top": desc["top"],
                     "bottom": desc["bottom"], "orientation": orientation,
                     "object_type": desc.get("object_type", "explicit")}
                )
        elif orientation == "v":
            rows.append(
                {"x0": desc, "x1": desc, "top": page_bbox[1], "bottom": page_bbox[3],
                 "orientation": "v", "object_type": "explicit"}
            )
        else:
            rows.append(
                {"x0": page_bbox[0], "x1": page_bbox[2], "top": desc, "bottom": desc,
                 "orientation": "h", "object_type": "explicit"}
            )
    return rows


def _check_explicit(cfg: TableConfig) -> None:
    for orientation in ("vertical", "horizontal"):
        strategy = getattr(cfg, orientation + "_strategy")
        if strategy == "explicit":
            lines = getattr(cfg, "explicit_" + orientation + "_lines")
            if not lines or len(lines) < 2:
                raise ValueError(
                    f"If {orientation}_strategy == 'explicit', "
                    f"explicit_{orientation}_lines must be specified as a "
                    f"list/tuple of two or more floats/ints."
                )


# word columns the text strategy's imaginary edges read
_WORD_EDGE_COLS = ("text", "x0", "x1", "top", "bottom")


def _strategy_edges_group(
    edges: ObjArrays,
    page: np.ndarray,
    bboxes: Sequence[Bbox],
    cfg: TableConfig,
    words: Optional[Dict[str, np.ndarray]],
    word_page: Optional[np.ndarray],
) -> Tuple[ObjArrays, np.ndarray]:
    """Strategy dispatch (table.py:580-671) for every page of a group. Each
    page's edges come in the reference's order: vertical strategy edges,
    explicit vertical lines, horizontal strategy edges, explicit horizontal
    lines. The lines strategies filter the whole group at once; the text
    strategy's imaginary edges (``words_to_edges_*``, Python per word
    cluster) and the explicit lines are built page by page from the
    group's words and bboxes, then join the group's one merge."""
    n_pages = len(bboxes)
    parts: List[ObjArrays] = []
    pages: List[np.ndarray] = []

    def per_page(make: Callable[[int], ObjArrays]) -> None:
        for p in range(n_pages):
            part = make(p)
            parts.append(part)
            pages.append(np.full(part["x0"].shape[0], p, dtype=np.int64))

    for orientation, strat_name, words_fn, thresh, explicit in (
        ("v", cfg.vertical_strategy, words_to_edges_v_arrays, cfg.min_words_vertical,
         cfg.explicit_vertical_lines),
        ("h", cfg.horizontal_strategy, words_to_edges_h_arrays, cfg.min_words_horizontal,
         cfg.explicit_horizontal_lines),
    ):
        if strat_name in ("lines", "lines_strict"):
            edge_type = "line" if strat_name == "lines_strict" else None
            idx = np.flatnonzero(filter_edges_mask(edges, orientation, edge_type=edge_type))
            parts.append(_take(edges, idx))
            pages.append(page[idx])
        elif strat_name == "text":
            if words is None or word_page is None:
                raise ValueError("text strategy requires a words provider")
            bounds = np.searchsorted(word_page, np.arange(n_pages + 1))
            per_page(
                lambda p: words_fn(
                    {k: words[k][bounds[p] : bounds[p + 1]] for k in _WORD_EDGE_COLS}, thresh
                )
            )
        if explicit:
            per_page(lambda p: rows_to_edges(_explicit_edges(explicit, orientation, bboxes[p])))
    return concat_paged_edges(parts, pages)


def _merge_table_edges(
    edges: ObjArrays, page: np.ndarray, cfg: TableConfig
) -> Tuple[ObjArrays, np.ndarray]:
    """Merge + min-length filter (table.py:659-671)."""
    edges, page = merge_edges_group(
        edges,
        page,
        snap_x_tolerance=cfg.resolved("snap_x_tolerance"),
        snap_y_tolerance=cfg.resolved("snap_y_tolerance"),
        join_x_tolerance=cfg.resolved("join_x_tolerance"),
        join_y_tolerance=cfg.resolved("join_y_tolerance"),
    )
    keep = np.flatnonzero(filter_edges_mask(edges, min_length=cfg.edge_min_length))
    return _take(edges, keep), page[keep]


def intersections_to_tables(intersections: Intersections, cfg: TableConfig) -> List[PageTable]:
    """One page's vertex map -> its tables (table.py:566-578)."""
    return [
        PageTable(cells, text_settings=dict(cfg.text_settings))
        for cells in tables_group(intersections, 1)[0]
    ]


def find_tables_group(
    edges: ObjArrays,
    page: np.ndarray,
    bboxes: Sequence[Bbox],
    cfg: TableConfig,
    words: Optional[Dict[str, np.ndarray]] = None,
    word_page: Optional[np.ndarray] = None,
) -> List[List[PageTable]]:
    """Full TableFinder chain (table.py:566-578) for every page of a
    group: ``edges``/``page`` are the pages' edge unions (sorted by page),
    ``bboxes`` the page boxes, and ``words``/``word_page`` the pages' words
    when a strategy is "text". Returns each page's tables."""
    _check_explicit(cfg)
    edges, page = _strategy_edges_group(edges, page, bboxes, cfg, words, word_page)
    # a cell needs vertices at two x and two y, so two v and two h edges
    # after the merge, which never adds one: pages with fewer before it
    # (say, only a heading underline) skip snap, join and intersections
    is_v = edges["orientation"] == "v"
    n_v = np.bincount(page[is_v], minlength=len(bboxes))
    n_h = np.bincount(page[~is_v], minlength=len(bboxes))
    keep = np.flatnonzero(((n_v >= 2) & (n_h >= 2))[page])
    edges, page = _merge_table_edges(_take(edges, keep), page[keep], cfg)
    inter = intersections_group(
        edges,
        page,
        cfg.resolved("intersection_x_tolerance"),
        cfg.resolved("intersection_y_tolerance"),
    )
    return [
        [PageTable(cells, text_settings=dict(cfg.text_settings)) for cells in page_tables]
        for page_tables in tables_group(inter, len(bboxes))
    ]


def _page_words(
    cfg: TableConfig, words_provider: Optional[Callable[[], Dict[str, np.ndarray]]]
) -> Tuple[Optional[Dict[str, np.ndarray]], Optional[np.ndarray]]:
    """A one-page finder's words and their pages, when a strategy is
    "text"."""
    _check_explicit(cfg)
    if "text" not in (cfg.vertical_strategy, cfg.horizontal_strategy):
        return None, None
    if words_provider is None:
        raise ValueError("text strategy requires a words provider")
    words = words_provider()
    return words, _zeros(words["text"].shape[0])


def get_table_edges(
    page_edges: ObjArrays,
    cfg: TableConfig,
    page_bbox: Bbox,
    words_provider: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
) -> ObjArrays:
    """Strategy dispatch + merge + min-length filter (table.py:580-671)
    on one page."""
    words, word_page = _page_words(cfg, words_provider)
    page = _zeros(page_edges["x0"].shape[0])
    return _merge_table_edges(
        *_strategy_edges_group(page_edges, page, [page_bbox], cfg, words, word_page), cfg
    )[0]


def table_debug_page(
    page_edges: ObjArrays,
    cfg: TableConfig,
    page_bbox: Bbox,
    words_provider: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
) -> Dict[str, int]:
    """Counts along the TableFinder chain — the engine's
    ``debug_tablefinder`` analogue (reference page.py:463-471), mirroring
    the reference suite's numeric invariants (tests/test_ca_warn_report
    .py:79-141: raw edge count -> merged count -> intersection count)."""
    raw = int(page_edges["x0"].shape[0])
    edges = get_table_edges(page_edges, cfg, page_bbox, words_provider)
    is_v = edges["orientation"] == "v"
    inter = edges_to_intersections_arrays(
        edges,
        cfg.resolved("intersection_x_tolerance"),
        cfg.resolved("intersection_y_tolerance"),
    )
    cells = intersections_to_cells(inter)
    return {
        "n_edges_raw": raw,
        "n_merged_v": int(is_v.sum()),
        "n_merged_h": int((~is_v).sum()),
        "n_intersections": len(inter),
        "n_cells": len(cells),
    }


def find_tables_page(
    page_edges: ObjArrays,
    cfg: TableConfig,
    page_bbox: Bbox,
    words_provider: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
) -> List[PageTable]:
    """:func:`find_tables_group` on one page."""
    words, word_page = _page_words(cfg, words_provider)
    return find_tables_group(
        page_edges, _zeros(page_edges["x0"].shape[0]), [page_bbox], cfg, words, word_page
    )[0]
