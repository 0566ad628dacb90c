"""Layout analysis: chars -> text lines -> text boxes (the pdfminer
LAParams algorithm the reference exposes via ``laparams=...``,
reference page.py:402-414 + tests/test_laparams.py).

Implements the published grouping model over the engine's top-left char
records: adjacent compatible chars chain into lines (``line_overlap`` /
``char_margin``), lines group into boxes by height similarity and
left/right/center alignment within ``line_margin`` (connected
components over the neighbor relation), with ``word_margin`` space
imputation in line text.

Parity status (tests/test_real_pdf_regressions.py): issue-13 is
reference-exact end to end (79 horizontal lines AND 27 horizontal
boxes — box exactness required excluding whitespace-only lines from
grouping, the published ``LTTextLine.is_empty`` semantics); issue-192
vertical counts are exact (11 lines / 6 boxes) while its horizontal
counts run high (157 lines vs the reference's 142): the divergence is
upstream of grouping — the char stream this engine decodes for that
redacted scan differs slightly from pdfminer's (pdfminer is not
installable here to pin which glyphs it drops), and the line chainer
is order-sensitive. Grouping itself is the published
connected-component closure over ``find_neighbors``.

Ruled out experimentally (r4, issue-192): dropping whitespace/overprint
/zero-width chars, upright-compatibility gating in the chainer, figure
exclusion, out-of-mediabox clipping, and duplicate-bbox dedup — none
move the horizontal counts toward 142/74 (the vertical counts are exact
under all variants). The doc's OCR layer positions every fragment with
its own ``Tm`` (per-glyph anisotropic scaling), so the residual gap is
in per-glyph advance/bbox math for that one scan class, not in the
grouping rules.

Internal math runs in PDF bottom-left y coordinates (y0 = height -
bottom) so the comparisons mirror the published algorithm verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..functions.clustering import connected_components


@dataclass
class LAParams:
    line_overlap: float = 0.5
    char_margin: float = 2.0
    line_margin: float = 0.5
    word_margin: float = 0.1
    boxes_flow: Optional[float] = 0.5
    detect_vertical: bool = False
    all_texts: bool = False


class _Line:
    """A text line under construction (horizontal or vertical)."""

    __slots__ = ("horizontal", "x0", "y0", "x1", "y1", "chars", "texts", "_wx1", "word_margin")

    def __init__(self, horizontal: bool, word_margin: float):
        self.horizontal = horizontal
        self.word_margin = word_margin
        self.x0 = float("inf")
        self.y0 = float("inf")
        self.x1 = float("-inf")
        self.y1 = float("-inf")
        self.chars: List[dict] = []
        self.texts: List[str] = []
        self._wx1 = float("inf")  # last char's extent for word-margin gaps

    def add(self, c: dict) -> None:
        if self.word_margin:
            margin = self.word_margin * max(c["_w"], c["_h"])
            if self.horizontal:
                if self._wx1 < c["_x0"] - margin:
                    self.texts.append(" ")
            else:
                if self._wx1 > c["_y1"] + margin:
                    self.texts.append(" ")
        self._wx1 = c["_x1"] if self.horizontal else c["_y0"]
        self.chars.append(c)
        self.texts.append(c["text"])
        if c["_x0"] < self.x0:
            self.x0 = c["_x0"]
        if c["_y0"] < self.y0:
            self.y0 = c["_y0"]
        if c["_x1"] > self.x1:
            self.x1 = c["_x1"]
        if c["_y1"] > self.y1:
            self.y1 = c["_y1"]

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def is_empty(self) -> bool:
        """Published LTTextLine.is_empty: degenerate bbox OR
        whitespace-only text. Whitespace-only lines stay in the page's
        line list but never join a text box — this is what keeps
        blank spacer lines from bridging every paragraph into one
        column (issue-13: 79 lines must yield 27 boxes, not 21)."""
        return self.width <= 0 or self.height <= 0 or self.is_blank()

    def is_blank(self) -> bool:
        t = "".join(self.texts)
        return bool(t) and t.isspace()

    def text(self) -> str:
        return "".join(self.texts) + "\n"


def _is_voverlap(a, b) -> bool:
    return a["_y0"] <= b["_y1"] and b["_y0"] <= a["_y1"]


def _voverlap(a, b) -> float:
    if _is_voverlap(a, b):
        return min(abs(a["_y0"] - b["_y1"]), abs(a["_y1"] - b["_y0"]))
    return 0.0


def _is_hoverlap(a, b) -> bool:
    return a["_x0"] <= b["_x1"] and b["_x0"] <= a["_x1"]


def _hoverlap(a, b) -> float:
    if _is_hoverlap(a, b):
        return min(abs(a["_x0"] - b["_x1"]), abs(a["_x1"] - b["_x0"]))
    return 0.0


def _hdistance(a, b) -> float:
    if _is_hoverlap(a, b):
        return 0.0
    return min(abs(a["_x0"] - b["_x1"]), abs(a["_x1"] - b["_x0"]))


def _vdistance(a, b) -> float:
    if _is_voverlap(a, b):
        return 0.0
    return min(abs(a["_y0"] - b["_y1"]), abs(a["_y1"] - b["_y0"]))


def group_chars_to_lines(
    chars: List[dict], page_height: float, laparams: LAParams
) -> List[_Line]:
    """Sequential char chaining into lines (published group_objects)."""
    cs: List[dict] = []
    for c in chars:
        cs.append(
            {
                "text": c["text"],
                "_x0": c["x0"],
                "_x1": c["x1"],
                "_y0": page_height - c["bottom"],
                "_y1": page_height - c["top"],
                "_w": c["x1"] - c["x0"],
                "_h": c["bottom"] - c["top"],
                "src": c,
            }
        )
    lines: List[_Line] = []
    wm = laparams.word_margin
    line: Optional[_Line] = None
    obj0: Optional[dict] = None
    for obj1 in cs:
        if obj0 is not None:
            halign = (
                _is_voverlap(obj0, obj1)
                and min(obj0["_h"], obj1["_h"]) * laparams.line_overlap
                < _voverlap(obj0, obj1)
                and _hdistance(obj0, obj1)
                < max(obj0["_w"], obj1["_w"]) * laparams.char_margin
            )
            valign = (
                laparams.detect_vertical
                and _is_hoverlap(obj0, obj1)
                and min(obj0["_w"], obj1["_w"]) * laparams.line_overlap
                < _hoverlap(obj0, obj1)
                and _vdistance(obj0, obj1)
                < max(obj0["_h"], obj1["_h"]) * laparams.char_margin
            )
            if (halign and line is not None and line.horizontal) or (
                valign and line is not None and not line.horizontal
            ):
                line.add(obj1)
            elif line is not None:
                lines.append(line)
                line = None
            else:
                if valign and not halign:
                    line = _Line(False, wm)
                    line.add(obj0)
                    line.add(obj1)
                elif halign and not valign:
                    line = _Line(True, wm)
                    line.add(obj0)
                    line.add(obj1)
                else:
                    line = _Line(True, wm)
                    line.add(obj0)
                    lines.append(line)
                    line = None
        obj0 = obj1
    if line is None:
        line = _Line(True, wm)
        if obj0 is not None:
            line.add(obj0)
    lines.append(line)
    # all lines, empties included — the published pipeline keeps empty
    # lines as page objects and only excludes them from box grouping
    return [ln for ln in lines if ln.chars]


def _find_neighbors(line: _Line, lines: List[_Line], ratio: float) -> List[_Line]:
    if line.horizontal:
        d = ratio * line.height
        qx0, qy0, qx1, qy1 = line.x0, line.y0 - d, line.x1, line.y1 + d
        out = []
        for o in lines:
            if not o.horizontal:
                continue
            if o.x1 <= qx0 or qx1 <= o.x0 or o.y1 <= qy0 or qy1 <= o.y0:
                continue
            if (
                abs(o.height - line.height) <= d
                and (
                    abs(o.x0 - line.x0) <= d
                    or abs(o.x1 - line.x1) <= d
                    or abs((o.x0 + o.x1) / 2 - (line.x0 + line.x1) / 2) <= d
                )
            ):
                out.append(o)
        return out
    d = ratio * line.width
    qx0, qy0, qx1, qy1 = line.x0 - d, line.y0, line.x1 + d, line.y1
    out = []
    for o in lines:
        if o.horizontal:
            continue
        if o.x1 <= qx0 or qx1 <= o.x0 or o.y1 <= qy0 or qy1 <= o.y0:
            continue
        if (
            abs(o.width - line.width) <= d
            and (
                abs(o.y0 - line.y0) <= d
                or abs(o.y1 - line.y1) <= d
                or abs((o.y0 + o.y1) / 2 - (line.y0 + line.y1) / 2) <= d
            )
        ):
            out.append(o)
    return out


def group_lines_to_boxes(
    lines: List[_Line], laparams: LAParams
) -> List[List[_Line]]:
    """Connected components over the neighbor relation (published
    group_textlines), each in line order, ordered by their first line."""
    idx = {id(ln): i for i, ln in enumerate(lines)}
    pairs = [
        (i, idx[id(nb)])
        for i, ln in enumerate(lines)
        for nb in _find_neighbors(ln, lines, laparams.line_margin)
    ]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # a component's label is its first line's index
    label = connected_components(a, b, len(lines)).tolist()
    groups: Dict[int, List[_Line]] = {}
    for ln, lab in zip(lines, label):
        groups.setdefault(lab, []).append(ln)
    return list(groups.values())


class _BoxNode:
    """A textbox or a group-of-boxes node in the flow-grouping tree."""

    __slots__ = ("x0", "y0", "x1", "y1", "vertical", "children", "box_i")

    def __init__(self, x0, y0, x1, y1, vertical, children=None, box_i=None):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.vertical = vertical  # TBRL group / vertical box
        self.children = children  # None for a leaf textbox
        self.box_i = box_i

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0


def flow_order(boxes: List[dict], page_height: float, laparams: LAParams) -> List[int]:
    """Reading-order indices for textboxes under ``boxes_flow`` — the
    published flow model: hierarchically merge the two closest boxes
    (distance = merged-bbox area minus member areas, deferring merges
    whose merged bbox would swallow an unrelated box), then order each
    group's children by the boxes_flow-weighted key (LRTB for horizontal
    groups, TBRL when either member is vertical) and emit leaf indices in
    depth-first order. ``boxes_flow=None`` skips grouping and sorts
    top-to-bottom / left-to-right (vertical boxes right-to-left first).
    Returns ``order`` such that ``order[i]`` is box i's reading index."""
    import heapq

    n = len(boxes)
    if n == 0:
        return []
    nodes: List[_BoxNode] = [
        _BoxNode(
            b["x0"], page_height - b["bottom"], b["x1"], page_height - b["top"],
            not b["horizontal"], box_i=i,
        )
        for i, b in enumerate(boxes)
    ]
    flow = laparams.boxes_flow
    if flow is not None and n > 1000:
        # O(n^2) pair heap: a pathological page (thousands of boxes) falls
        # back to the strict sort rather than stalling the worker
        import logging

        logging.getLogger(__name__).warning(
            "flow_order: %d boxes exceeds the 1000-box grouping cap; "
            "falling back to strict top-down ordering for this page", n,
        )
        flow = None
    if flow is None:
        def key(nd: _BoxNode):
            if nd.vertical:
                return (0, -nd.x1, -nd.y0)
            return (1, -nd.y0, nd.x0)

        order = [0] * n
        for rank, nd in enumerate(sorted(nodes, key=key)):
            order[nd.box_i] = rank
        return order

    def dist(a: _BoxNode, b: _BoxNode) -> float:
        x0 = min(a.x0, b.x0); y0 = min(a.y0, b.y0)
        x1 = max(a.x1, b.x1); y1 = max(a.y1, b.y1)
        return (x1 - x0) * (y1 - y0) - a.width * a.height - b.width * b.height

    live = set(range(n))
    all_nodes = list(nodes)

    def isany(i: int, j: int) -> bool:
        a, b = all_nodes[i], all_nodes[j]
        x0 = min(a.x0, b.x0); y0 = min(a.y0, b.y0)
        x1 = max(a.x1, b.x1); y1 = max(a.y1, b.y1)
        for k in live:
            if k == i or k == j:
                continue
            o = all_nodes[k]
            if o.x1 <= x0 or x1 <= o.x0 or o.y1 <= y0 or y1 <= o.y0:
                continue
            return True
        return False

    heap: List[tuple] = []
    seq = 0
    for i in range(n):
        for j in range(i + 1, n):
            heap.append((False, dist(all_nodes[i], all_nodes[j]), i, j))
    heapq.heapify(heap)
    while heap and len(live) > 1:
        skip_isany, d, i, j = heapq.heappop(heap)
        if i not in live or j not in live:
            continue
        if not skip_isany and isany(i, j):
            # an unrelated box sits inside the merged bbox: defer (the
            # published code merges a deferred pair unconditionally when
            # it is popped again)
            heapq.heappush(heap, (True, d, i, j))
            continue
        a, b = all_nodes[i], all_nodes[j]
        node = _BoxNode(
            min(a.x0, b.x0), min(a.y0, b.y0), max(a.x1, b.x1), max(a.y1, b.y1),
            a.vertical or b.vertical, children=[a, b],
        )
        live.discard(i); live.discard(j)
        k = len(all_nodes)
        all_nodes.append(node)
        for m in list(live):
            heapq.heappush(heap, (False, dist(all_nodes[m], node), min(m, k), max(m, k)))
        live.add(k)

    def sort_key_lrtb(nd: _BoxNode):
        return (1 - flow) * nd.x0 - (1 + flow) * (nd.y0 + nd.y1)

    def sort_key_tbrl(nd: _BoxNode):
        return -(1 + flow) * (nd.x0 + nd.x1) - (1 - flow) * nd.y1

    order = [0] * n
    counter = [0]

    def walk(nd: _BoxNode) -> None:
        if nd.children is None:
            order[nd.box_i] = counter[0]
            counter[0] += 1
            return
        kids = sorted(
            nd.children,
            key=sort_key_tbrl if nd.vertical else sort_key_lrtb,
        )
        for c in kids:
            walk(c)

    for k in sorted(live):
        walk(all_nodes[k])
    return order


def analyze_chars(
    chars: List[dict], page_height: float, laparams: Optional[LAParams] = None
) -> Tuple[List[dict], List[dict]]:
    """chars (top-left records) -> (textlines, textboxes) records.

    Each record: horizontal(bool), x0/x1/top/bottom (top-left coords),
    text; boxes carry n_lines. Counts match the reference laparams
    surface (page.textlinehorizontals / page.textboxhorizontals...)."""
    laparams = laparams or LAParams()
    if not laparams.all_texts:
        # figure-contained text is not line-grouped at page level
        # (published behavior: LTFigure contents stay raw chars unless
        # all_texts is set)
        chars = [c for c in chars if not c.get("in_figure")]
    lines = group_chars_to_lines(chars, page_height, laparams)
    # published analyze(): empty lines (degenerate bbox OR
    # whitespace-only) remain page objects but never join a box
    groups = group_lines_to_boxes(
        [ln for ln in lines if not ln.is_empty()], laparams
    )

    def line_rec(ln: _Line) -> dict:
        return {
            "horizontal": ln.horizontal,
            "x0": ln.x0,
            "x1": ln.x1,
            "top": page_height - ln.y1,
            "bottom": page_height - ln.y0,
            "text": ln.text(),
        }

    out_lines = [line_rec(ln) for ln in lines]
    out_boxes = []
    for grp in groups:
        horizontal = grp[0].horizontal
        x0 = min(ln.x0 for ln in grp)
        y0 = min(ln.y0 for ln in grp)
        x1 = max(ln.x1 for ln in grp)
        y1 = max(ln.y1 for ln in grp)
        # in-box reading order: horizontal boxes top-down, vertical
        # boxes right-to-left (published LTTextBox ordering)
        if horizontal:
            ordered = sorted(grp, key=lambda ln: -ln.y1)
        else:
            ordered = sorted(grp, key=lambda ln: -ln.x1)
        out_boxes.append(
            {
                "horizontal": horizontal,
                "x0": x0,
                "x1": x1,
                "top": page_height - y1,
                "bottom": page_height - y0,
                "n_lines": len(grp),
                "text": "".join(ln.text() for ln in ordered),
            }
        )
    # reading-order index per the boxes_flow model (page.textboxes are
    # exposed sorted by this index in the reference surface)
    for i, rank in enumerate(flow_order(out_boxes, page_height, laparams)):
        out_boxes[i]["flow_index"] = rank
    return out_lines, out_boxes
