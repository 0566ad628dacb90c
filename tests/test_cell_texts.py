"""``page_cell_texts`` against a scalar per-cell oracle.

The oracle is the reference's ``Table.extract`` (table.py:399-435) spelled
out cell by cell: a midpoint mask per cell, then ``extract_text_page`` on
that cell's chars with the table's text settings (plus the cell's
layout box in layout mode). The pages carry two tables, a spanning cell
next to a ``None`` slot, two overlapping cells, an empty row, cuts on a
char midpoint, rotated lines and ligature glyphs.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from synth_chars import make_chars, to_arrays  # noqa: E402

from pdfplumber_ray.functions.tables import PageTable, page_cell_texts  # noqa: E402
from pdfplumber_ray.functions.textmap import extract_text_page  # noqa: E402

SETTINGS = [
    {},
    {"x_tolerance": 1.5},
    {"x_tolerance": 9.0, "y_tolerance": 1.0},
    {"layout": True},
    {"layout": True, "x_density": 5.0, "y_density": 9.0},
    {"layout": False},
    {"split_at_punctuation": True, "keep_blank_chars": True},
    {"use_text_flow": True},
    {"extra_attrs": ["fontname"]},
    {"line_dir": "ttb", "char_dir": "rtl"},
    {"char_dir_render": "rtl"},
    {"x_tolerance_ratio": 0.2, "expand_ligatures": False},
]


def oracle(chars, table):
    h_mid = (chars["x0"] + chars["x1"]) / 2
    v_mid = (chars["top"] + chars["bottom"]) / 2
    out = []
    for row in table.rows:
        texts = []
        for cell in row:
            if cell is None:
                texts.append(None)
                continue
            m = (h_mid >= cell[0]) & (h_mid < cell[2]) & (v_mid >= cell[1]) & (v_mid < cell[3])
            if not m.any():
                texts.append("")
                continue
            kw = dict(table.text_settings)
            if "layout" in kw:
                kw.update(
                    layout_width=cell[2] - cell[0],
                    layout_height=cell[3] - cell[1],
                    layout_bbox=cell,
                )
            texts.append(extract_text_page({k: v[m] for k, v in chars.items()}, **kw))
        out.append(texts)
    return out


def _grid(xs, tops):
    return [(x0, t0, x1, t1) for t0, t1 in zip(tops, tops[1:]) for x0, x1 in zip(xs, xs[1:])]


def page(seed):
    """16 lines of chars (top 72 + 13 i; the last three rotated) under two
    tables whose column cuts fall inside words."""
    rng = np.random.default_rng(seed)
    chars = to_arrays(
        make_chars(seed=seed, n_lines=16, words_per_line=6, rotated_lines=3, jitter=0.6)
    )
    h_mid = (chars["x0"] + chars["x1"]) / 2
    v_mid = (chars["top"] + chars["bottom"]) / 2
    # one column cut and one row cut fall exactly on a char midpoint
    col_cut = float(h_mid[(v_mid > 100.0) & (v_mid < 118.0) & (h_mid > 150.0)][0])
    cuts = rng.uniform(90.0, 300.0, 2).round(2).tolist() + [col_cut]
    xs = [70.0] + sorted(cuts) + [330.0]
    a = _grid(xs, [70.0, 96.5, 122.0, 150.0])
    # row 2: the first cell spans two columns, leaving a None slot
    a = [c for c in a if c[1] != 96.5 or c[0] not in (xs[0], xs[1])] + [(xs[0], 96.5, xs[2], 122.0)]
    # row 3: the second cell overlaps the third by 12 pt
    a = [(c[0], c[1], c[2] + 12.0, c[3]) if c[1] == 122.0 and c[0] == xs[1] else c for c in a]
    row_cut = float(v_mid[(v_mid > 195.0) & (v_mid < 215.0) & (h_mid > 100.0)][0])
    # the last row is empty
    b = _grid([80.0, 160.0, 240.0, 335.0], [160.0, row_cut, 240.0, 282.0, 300.0])
    return chars, [a, b]


@pytest.mark.parametrize("settings", SETTINGS, ids=[str(s) for s in SETTINGS])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_page_cell_texts_matches_per_cell_oracle(seed, settings):
    chars, cell_sets = page(seed)
    tables = [PageTable(cells, text_settings=dict(settings)) for cells in cell_sets]
    got = page_cell_texts(chars, tables)
    want = [oracle(chars, t) for t in tables]
    assert got == want
    assert [t.extract(chars) for t in tables] == want


def test_oracle_page_has_the_planted_cases():
    chars, cell_sets = page(1)
    a, b = (PageTable(c) for c in cell_sets)
    texts = oracle(chars, a) + oracle(chars, b)
    assert None in a.rows[1]  # spanning cell leaves a None slot
    assert any(t == "" for row in texts for t in row)  # empty cells
    assert any("fi" in (t or "") or "fl" in (t or "") for row in texts for t in row)
    assert not chars["upright"].all()
    # a char midpoint on a column cut and one on a row cut
    h_mid = (chars["x0"] + chars["x1"]) / 2
    v_mid = (chars["top"] + chars["bottom"]) / 2
    assert np.isin(h_mid, [c[0] for c in a.cells]).any()
    assert np.isin(v_mid, [c[1] for c in b.cells]).any()
    # a char midpoint inside both overlapping cells
    over = [c for c in a.cells if c[1] == 122.0]
    over.sort()
    both = (
        (h_mid >= over[2][0]) & (h_mid < over[1][2]) & (v_mid >= 122.0) & (v_mid < 150.0)
    )
    assert both.any()


def test_no_tables_and_no_chars():
    chars, cell_sets = page(2)
    assert page_cell_texts(chars, []) == []
    empty = {k: v[:0] for k, v in chars.items()}
    table = PageTable(cell_sets[0])
    assert page_cell_texts(empty, [table]) == [
        [[None if c is None else "" for c in row] for row in table.rows]
    ]


def test_pages_to_tables_makes_one_word_call_per_page(monkeypatch):
    """Cell text of a page costs one word-kernel call, not one per cell."""
    import pyarrow as pa

    from pdfplumber_ray.functions import tables, textmap
    from pdfplumber_ray.pdfio.reader import decode_pdf_batch
    from pdfplumber_ray.stages.decode import PagesToTables

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import pdfgen

    docs = [pdfgen.make_pdf(7, i) for i in range(3)]  # 2 + 3 + 4 pages
    pages = decode_pdf_batch(
        pa.table(
            {
                "doc_id": [f"d{i}" for i in range(len(docs))],
                "pdf_bytes": pa.array([data for data, _ in docs], pa.binary()),
            }
        )
    )
    calls = []
    for mod in (tables, textmap):
        real = mod.extract_words_page

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, "extract_words_page", counted)
    out = PagesToTables()(pages)
    expected = [page["table"] for _, exp in docs for page in exp]
    assert out.column("rows").to_pylist() == expected
    assert 0 < len(calls) <= pages.num_rows


def test_text_strategy_tables_use_text_settings():
    """Text-strategy edges come from words built with the table's
    ``text_settings`` (the reference's ``TableFinder.get_edges``), with or
    without ruling on the page, in both the fused and the table stage."""
    from pdfplumber_ray.config import TableConfig, WordConfig
    from pdfplumber_ray.functions.geometry import concat_edges
    from pdfplumber_ray.functions.tables import find_tables_page
    from pdfplumber_ray.functions.words import extract_words_page
    from pdfplumber_ray.stages import flatten
    from pdfplumber_ray.stages.decode import page_tables_full
    from pdfplumber_ray.stages.layout import layout_doc

    cells = ["id", "name", "qty", "1", "bolt", "40", "2", "nut", "75", "3", "washer", "120"]
    spans = [{"kind": "text", "text": "Parts on hand", "media_ref": ""}] + [
        {"kind": "table_cell", "text": c, "media_ref": ""} for c in cells
    ]
    (ruled,) = layout_doc(spans)
    bare = dict(ruled, rects={k: v[:0] for k, v in ruled["rects"].items()})
    cfg = TableConfig(
        vertical_strategy="text",
        horizontal_strategy="text",
        text_settings={"x_tolerance": 0.5},
    )
    chars = ruled["chars"]

    def by_hand(word_cfg):
        tables = find_tables_page(
            concat_edges([]),
            cfg,
            (0.0, 0.0, ruled["page_width"], ruled["page_height"]),
            words_provider=lambda: extract_words_page(chars, word_cfg),
        )
        return [(t.bbox, rows) for t, rows in zip(tables, page_cell_texts(chars, tables))]

    want = by_hand(WordConfig(x_tolerance=0.5))
    # the setting changes the table: 0.5 pt splits the 1.25 pt glyph gaps
    assert want and want != by_hand(WordConfig())
    flat = [(bbox, [t for row in rows for t in row if t is not None]) for bbox, rows in want]
    for page in (ruled, bare):
        assert page_tables_full(page, cfg) == want
        assert flatten.page_tables(page, cfg) == flat
