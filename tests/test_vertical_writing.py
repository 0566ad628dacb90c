"""Vertical writing mode (ISO 32000-1 §9.7.4).

The reference handles Identity-V composite fonts through pdfminer's
``render_string_vertical`` + ``LTChar`` vertical-bbox rules (pdfminer
pdffont.py get_widths2 / layout.py LTChar.__init__). The reference
corpus has no true vertical-writing PDF (issue-192 is rotated
Identity-H), so the fixture here is built from scratch: a one-page PDF
with an Identity-V Type0 font, /DW2 defaults, a /W2 override for the
first CID, and a ToUnicode CMap mapping CIDs to CJK codepoints.
"""

from __future__ import annotations

import pytest

from pdfplumber_ray.pdfio import PDFDocument
from pdfplumber_ray.pdfio.fixtures import make_vertical_pdf
from pdfplumber_ray.pdfio.interp import PageInterpreter
from pdfplumber_ray.pdfio.reader import decode_pdf_doc

COLUMN = b"BT /F1 24 Tf 1 0 0 1 300 700 Tm <0001000200030004> Tj ET"


def _chars():
    doc = PDFDocument(make_vertical_pdf(COLUMN))
    it = PageInterpreter(doc, doc.pages()[0])
    it.run()
    return it.chars


def test_vertical_column_descends():
    """Glyphs advance DOWN the page by w1y*fontsize, not rightward."""
    ch = _chars()
    assert "".join(c["text"] for c in ch) == "一二三四"
    tops = [c["top"] for c in ch]
    assert tops == sorted(tops)
    # DW2/W2 displacement -1000 at 24pt -> successive glyphs 24pt apart
    for prev, cur in zip(tops, tops[1:]):
        assert cur - prev == pytest.approx(24.0)
    # all glyphs share the column's x span (no horizontal advance)
    assert len({round(c["x0"], 6) for c in ch}) == 1
    assert len({round(c["x1"], 6) for c in ch}) == 1


def test_vertical_bbox_follows_position_vector():
    """LTChar vertical rule: bbox = (-vx .. -vx+fontsize) horizontally,
    (vy+rise+adv .. vy+rise) vertically, in text space."""
    ch = _chars()
    c0 = ch[0]  # /W2 override: vx=500 -> 12pt at 24pt font
    assert c0["x0"] == pytest.approx(300 - 12)
    assert c0["x1"] == pytest.approx(300 + 12)
    # vy=880 -> top edge at y=700+(1000-880)*0.024 = 702.88
    assert c0["top"] == pytest.approx(792 - 702.88)
    assert c0["bottom"] == pytest.approx(792 - 678.88)
    # vertical glyphs size by width (pdfminer LTChar.size)
    assert c0["size"] == pytest.approx(24.0)
    c1 = ch[1]  # DW2 default: vx = fontsize/2 -> same 12pt here
    assert c1["x0"] == pytest.approx(288.0)
    assert c1["top"] == pytest.approx(792 - (700 - 24 + 2.88))


def test_vertical_tj_adjustments_move_down():
    """TJ numbers shift along the vertical axis (ISO 32000-1 §9.4.3:
    ty = -tj/1000*Tfs — in vertical mode the advance is already
    downward, so a POSITIVE tj adds forward (downward) space)."""
    content = b"BT /F1 24 Tf 1 0 0 1 300 700 Tm [<0001> 500 <0002>] TJ ET"
    doc = PDFDocument(make_vertical_pdf(content))
    it = PageInterpreter(doc, doc.pages()[0])
    it.run()
    ch = it.chars
    assert len(ch) == 2
    # 500/1000 * 24 = 12pt extra gap on top of the 24pt advance
    assert ch[1]["top"] - ch[0]["top"] == pytest.approx(24.0 + 12.0)
    assert ch[0]["x0"] == pytest.approx(ch[1]["x0"], abs=1e-9)


def test_vertical_decodes_through_reader():
    rows, err = decode_pdf_doc("vert", make_vertical_pdf(COLUMN))
    assert err is None
    ch = rows[0]["chars"]
    assert "".join(c["text"] for c in ch) == "一二三四"
    assert all(c["upright"] for c in ch)


def test_q_restores_text_state():
    """``Q`` restores the text state saved by ``q`` with the graphics
    state (pdfminer's ``do_q`` pushes ``textstate.copy()``): the ``Tf``
    inside ``q … Q`` does not outlive it."""
    content = b"BT /F1 24 Tf ET q BT /F1 10 Tf ET Q BT 1 0 0 1 400 700 Tm <0001> Tj ET"
    doc = PDFDocument(make_vertical_pdf(content))
    it = PageInterpreter(doc, doc.pages()[0])
    it.run()
    assert [c["size"] for c in it.chars] == [pytest.approx(24.0)]
