"""Per-page table detection: lattice + stream strategies.

Semantics ported from reference table.py — snap/join edge merging
(table.py:21-98), text-alignment imaginary edges (table.py:101-204),
intersection graph (table.py:207-231), smallest-cell search
(table.py:234-294), corner-connected-component table grouping
(table.py:297-355, re-expressed as union-find with the same output order),
row alignment and per-cell text (table.py:389-435).

Everything here runs inside one map_batches task per page — both edge sides
of the "join" live in the same page group, so no distributed join is ever
needed (SURVEY.md §2.5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import LayoutConfig, TableConfig, WordConfig, validate_directions
from .clustering import cluster_groups, cluster_means
from .geometry import (
    Bbox,
    ObjArrays,
    concat_edges,
    filter_edges_mask,
)
from .textmap import segment_texts, words_to_textmap
from .words import CharTable, extract_words_page

Point = Tuple[float, float]


def _take(edges: ObjArrays, idx: np.ndarray) -> ObjArrays:
    return {k: v[idx] for k, v in edges.items()}


def snap_edges_arrays(
    edges: ObjArrays, x_tolerance: float, y_tolerance: float
) -> ObjArrays:
    """Snap parallel edges within tolerance to their cluster mean
    (table.py:21-36): v edges move horizontally to mean x0, h edges move
    vertically to mean top."""
    out = {k: v.copy() for k, v in edges.items()}
    is_v = edges["orientation"] == "v"
    vi = np.flatnonzero(is_v)
    hi = np.flatnonzero(~is_v)
    if vi.shape[0]:
        delta = cluster_means(out["x0"][vi], x_tolerance) - out["x0"][vi]
        out["x0"][vi] += delta
        out["x1"][vi] += delta
    if hi.shape[0]:
        delta = cluster_means(out["top"][hi], y_tolerance) - out["top"][hi]
        out["top"][hi] += delta
        out["bottom"][hi] += delta
    return out


def merge_edges_arrays(
    edges: ObjArrays,
    snap_x_tolerance: float,
    snap_y_tolerance: float,
    join_x_tolerance: float,
    join_y_tolerance: float,
) -> ObjArrays:
    """snap -> group by (orientation, position) -> join collinear runs
    (table.py:68-98). Output ordered by (orientation 'h' first, position,
    extent start) like the reference's sorted groupby."""
    if snap_x_tolerance > 0 or snap_y_tolerance > 0:
        edges = snap_edges_arrays(edges, snap_x_tolerance, snap_y_tolerance)

    n = edges["x0"].shape[0]
    if n == 0:
        return edges
    is_v = edges["orientation"] == "v"
    pos = np.where(is_v, edges["x0"], edges["top"])
    lo = np.where(is_v, edges["top"], edges["x0"])
    hi = np.where(is_v, edges["bottom"], edges["x1"])
    # 'h' < 'v' so h groups come first, as in the reference's tuple sort
    order = np.lexsort((lo, pos, is_v))

    group_break = np.zeros(n, dtype=bool)
    group_break[0] = True
    sv = is_v[order]
    sp = pos[order]
    group_break[1:] = (sv[1:] != sv[:-1]) | (sp[1:] != sp[:-1])
    starts = np.flatnonzero(group_break)
    ends = np.append(starts, n)[1:]
    lo_s = lo[order]
    hi_s = hi[order]
    keep_idx_parts: List[np.ndarray] = []
    new_max_parts: List[np.ndarray] = []
    is_v_parts: List[bool] = []
    for s, e in zip(starts, ends):
        g_v = bool(sv[s])
        tol = join_y_tolerance if g_v else join_x_tolerance
        lo_g = lo_s[s:e]
        hi_g = hi_s[s:e]
        # vectorized sweep: a run continues while its start is within tol
        # of the running max extent (reference table.py:39-65)
        cummax = np.maximum.accumulate(hi_g)
        brk = np.empty(lo_g.shape[0], dtype=bool)
        brk[0] = True
        brk[1:] = lo_g[1:] > cummax[:-1] + tol
        rs = np.flatnonzero(brk)
        keep_idx_parts.append(order[s:e][rs])
        new_max_parts.append(np.maximum.reduceat(hi_g, rs))
        is_v_parts.extend([g_v] * rs.shape[0])
    keep_idx = np.concatenate(keep_idx_parts)
    new_max = np.concatenate(new_max_parts)
    out = _take(edges, keep_idx)
    vmask = np.asarray(is_v_parts, dtype=bool)
    out["bottom"] = np.where(vmask, new_max, out["bottom"])
    out["x1"] = np.where(~vmask, new_max, out["x1"])
    out["width"] = out["x1"] - out["x0"]
    out["height"] = out["bottom"] - out["top"]
    return out


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


def edges_to_intersections_arrays(
    edges: ObjArrays, x_tolerance: float, y_tolerance: float
) -> Dict[Point, Tuple[set, set]]:
    """Vertex map (table.py:207-231) via a vectorized broadcast compare of
    v-edges x h-edges; per-vertex edge membership kept as bbox-tuple sets,
    matching the reference's edge identity semantics (table.py:245-246)."""
    is_v = edges["orientation"] == "v"
    vi = np.flatnonzero(is_v)
    hi = np.flatnonzero(~is_v)
    if vi.shape[0] == 0 or hi.shape[0] == 0:
        return {}
    vx0 = edges["x0"][vi][:, None]
    vtop = edges["top"][vi][:, None]
    vbottom = edges["bottom"][vi][:, None]
    htop = edges["top"][hi][None, :]
    hx0 = edges["x0"][hi][None, :]
    hx1 = edges["x1"][hi][None, :]
    hit = (
        (vtop <= htop + y_tolerance)
        & (vbottom >= htop - y_tolerance)
        & (vx0 >= hx0 - x_tolerance)
        & (vx0 <= hx1 + x_tolerance)
    )
    out: Dict[Point, Tuple[set, set]] = {}
    v_bbox = [
        (edges["x0"][i], edges["top"][i], edges["x1"][i], edges["bottom"][i]) for i in vi
    ]
    h_bbox = [
        (edges["x0"][i], edges["top"][i], edges["x1"][i], edges["bottom"][i]) for i in hi
    ]
    for a, b in zip(*np.nonzero(hit)):
        vertex = (float(vx0[a, 0]), float(htop[0, b]))
        if vertex not in out:
            out[vertex] = (set(), set())
        out[vertex][0].add(v_bbox[a])
        out[vertex][1].add(h_bbox[b])
    return out


def intersections_to_cells(intersections: Dict[Point, Tuple[set, set]]) -> List[Bbox]:
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
_WORD_CHAR_COLS = ("text", "x0", "x1", "top", "bottom", "doctop", "upright", "size")


def page_cell_texts(
    chars: CharTable, tables: Sequence[PageTable]
) -> List[List[List[Optional[str]]]]:
    """Rows of cell text for every table on one page, in one pass.

    Same result as the reference's ``Table.extract`` (table.py:399-435) on
    each table: a char belongs to every cell that holds its midpoint
    (``char_in_bbox``), absent cells are ``None``, cells without words are
    ``""``, and the rest are ``extract_text`` of the cell's chars under the
    tables' shared ``text_settings``. The (cell, char) pairs are gathered
    into one char table with the cell id as its segment, so one
    ``extract_words_page`` call assembles every cell's words and one
    ``segment_texts`` call joins them.
    """
    if not tables:
        return []
    settings = dict(tables[0].text_settings)
    if any(t.text_settings != settings for t in tables[1:]):
        raise ValueError("page_cell_texts needs tables that share text_settings")
    h_mid = (np.asarray(chars["x0"]) + np.asarray(chars["x1"])) / 2
    v_mid = (np.asarray(chars["top"]) + np.asarray(chars["bottom"])) / 2

    # cells are numbered in (table, row, column) order
    grids: List[List[List[Optional[int]]]] = []
    boxes: List[Bbox] = []
    row_sizes: List[int] = []
    for table in tables:
        grid = []
        for row in table.rows:
            present = [c for c in row if c is not None]
            ids = iter(range(len(boxes), len(boxes) + len(present)))
            grid.append([None if c is None else next(ids) for c in row])
            boxes.extend(present)
            row_sizes.append(len(present))
        grids.append(grid)
    # membership: chars in each row's bbox, then each such (row, char) pair
    # against every cell of its row; a char inside two cells counts in both
    box = np.asarray(boxes, dtype=np.float64)
    n_cells = np.asarray(row_sizes)
    first = n_cells.cumsum() - n_cells
    row_i, char_i = np.nonzero(
        _midpoint_in(
            h_mid, v_mid,
            np.minimum.reduceat(box[:, 0], first)[:, None],
            np.minimum.reduceat(box[:, 1], first)[:, None],
            np.maximum.reduceat(box[:, 2], first)[:, None],
            np.maximum.reduceat(box[:, 3], first)[:, None],
        )
    )
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
        cols = dict.fromkeys([k for k in _WORD_CHAR_COLS if k in chars] + list(wcfg.extra_attrs))
        cell_chars = {k: np.asarray(chars[k])[src] for k in cols}
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
    return [
        [[None if i is None else texts.get(i, "") for i in ids] for ids in grid] for grid in grids
    ]


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


def get_table_edges(
    page_edges: ObjArrays,
    cfg: TableConfig,
    page_bbox: Bbox,
    words_provider: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
) -> ObjArrays:
    """Strategy dispatch + merge + min-length filter (table.py:580-671)."""
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

    words: Optional[Dict[str, np.ndarray]] = None
    if "text" in (cfg.vertical_strategy, cfg.horizontal_strategy):
        if words_provider is None:
            raise ValueError("text strategy requires a words provider")
        words = words_provider()

    parts: List[ObjArrays] = []
    for orientation, strat_name, words_fn, thresh in (
        ("v", cfg.vertical_strategy, words_to_edges_v_arrays, cfg.min_words_vertical),
        ("h", cfg.horizontal_strategy, words_to_edges_h_arrays, cfg.min_words_horizontal),
    ):
        if strat_name == "lines":
            base = _take(page_edges, np.flatnonzero(filter_edges_mask(page_edges, orientation)))
        elif strat_name == "lines_strict":
            base = _take(
                page_edges,
                np.flatnonzero(filter_edges_mask(page_edges, orientation, edge_type="line")),
            )
        elif strat_name == "text":
            assert words is not None
            base = words_fn(words, thresh)
        else:  # explicit
            base = concat_edges([])
        explicit = rows_to_edges(
            _explicit_edges(
                getattr(cfg, f"explicit_{'vertical' if orientation == 'v' else 'horizontal'}_lines"),
                orientation,
                page_bbox,
            )
        ) if getattr(
            cfg, f"explicit_{'vertical' if orientation == 'v' else 'horizontal'}_lines"
        ) else None
        parts.append(concat_edges([base, explicit]))

    edges = concat_edges(parts)
    edges = merge_edges_arrays(
        edges,
        snap_x_tolerance=cfg.resolved("snap_x_tolerance"),
        snap_y_tolerance=cfg.resolved("snap_y_tolerance"),
        join_x_tolerance=cfg.resolved("join_x_tolerance"),
        join_y_tolerance=cfg.resolved("join_y_tolerance"),
    )
    return _take(edges, np.flatnonzero(filter_edges_mask(edges, min_length=cfg.edge_min_length)))


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
    """Full TableFinder chain (table.py:566-578)."""
    # fast path: a pure lattice strategy needs BOTH orientations to form any
    # intersection (table.py:207-231) — pages carrying only decorative
    # h-lines (e.g. heading underlines) skip snap/join/merge entirely.
    if (
        cfg.vertical_strategy in ("lines", "lines_strict")
        and cfg.horizontal_strategy in ("lines", "lines_strict")
        and not cfg.explicit_vertical_lines
        and not cfg.explicit_horizontal_lines
    ):
        if (
            not filter_edges_mask(page_edges, "v").any()
            or not filter_edges_mask(page_edges, "h").any()
        ):
            return []
    edges = get_table_edges(page_edges, cfg, page_bbox, words_provider)
    intersections = edges_to_intersections_arrays(
        edges,
        cfg.resolved("intersection_x_tolerance"),
        cfg.resolved("intersection_y_tolerance"),
    )
    cells = intersections_to_cells(intersections)
    return [
        PageTable(group, text_settings=dict(cfg.text_settings))
        for group in cells_to_tables(cells)
    ]
