"""PageImage debug raster (reference display.py surface).

The reference renders via pypdfium2+PIL (tests/test_display.py); here the
base image is an object-level render, so assertions cover the overlay
geometry/API contract and PNG integrity rather than glyph pixels.
"""

import io
import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from pdfplumber_ray.display import (
    COLORS,
    PageImage,
    encode_png,
    page_images_batch,
)

REF_PDFS = "/root/reference/tests/pdfs"


def decode_png(data: bytes) -> np.ndarray:
    """Minimal PNG reader for the encoder's own output (8-bit RGB,
    filter 0 rows)."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    idat = b""
    w = h = None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        crc = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]
        assert crc == zlib.crc32(tag + body) & 0xFFFFFFFF
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", body[:10])
            assert depth == 8 and ctype == 2
        elif tag == b"IDAT":
            idat += body
        pos += 12 + length
    raw = zlib.decompress(idat)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, w * 3 + 1)
    assert (rows[:, 0] == 0).all()  # filter 0 everywhere
    return rows[:, 1:].reshape(h, w, 3)


def _page(with_grid: bool = False) -> dict:
    """A small synthetic PageDict: one word of chars + optional 2x3
    rect grid (monospace x=72+k*7.25 per the repo's known-good driver)."""
    n = 5
    x0 = 72.0 + np.arange(n) * 7.25
    chars = {
        "text": np.array(list("hello"), dtype=object),
        "x0": x0,
        "x1": x0 + 7.25,
        "top": np.full(n, 100.0),
        "bottom": np.full(n, 113.0),
        "doctop": np.full(n, 100.0),
        "size": np.full(n, 13.0),
        "fontname": np.array(["Mono"] * n, dtype=object),
        "upright": np.ones(n, dtype=bool),
        "adv": np.full(n, 7.25),
    }
    if with_grid:
        rx, ry = [], []
        cells_x = [200.0, 250.0, 300.0]
        cells_y = [300.0, 320.0]
        rects = {
            "x0": [], "top": [], "x1": [], "bottom": [],
        }
        for cx in cells_x:
            for cy in cells_y:
                rects["x0"].append(cx)
                rects["top"].append(cy)
                rects["x1"].append(cx + 50.0)
                rects["bottom"].append(cy + 20.0)
        rects = {k: np.asarray(v, dtype=np.float64) for k, v in rects.items()}
    else:
        rects = {
            "x0": np.array([150.0]),
            "top": np.array([200.0]),
            "x1": np.array([250.0]),
            "bottom": np.array([260.0]),
        }
    return {
        "page_number": 1,
        "page_width": 612.0,
        "page_height": 792.0,
        "initial_doctop": 0.0,
        "chars": chars,
        "rects": rects,
        "lines": {
            "x0": np.array([72.0]),
            "top": np.array([500.0]),
            "x1": np.array([540.0]),
            "bottom": np.array([500.0]),
        },
        "curves": [],
        "images": [],
    }


def test_png_roundtrip():
    arr = np.arange(3 * 2 * 3, dtype=np.uint8).reshape(2, 3, 3) * 10
    assert (decode_png(encode_png(arr)) == arr).all()


def test_base_render_shows_objects():
    img = PageImage(_page())
    assert img.annotated.img.shape == (792, 612, 3)
    # rect interior shaded, line pixel darkened, char cell shaded
    assert (img.annotated.img[230, 200] < 255).any()
    assert (img.annotated.img[500, 300] < 255).any()
    assert (img.annotated.img[106, 80] < 255).any()
    # margins stay white
    assert (img.annotated.img[10, 10] == 255).all()


def test_glyph_bitmap_render_differentiates_chars():
    """The base raster draws actual 5x7 glyph pixels scaled into each char
    bbox: an 'M' cell must carry more ink than a '.' cell, and both must
    stay inside their bboxes (readable pages without a native renderer)."""
    x0 = np.array([72.0, 100.0])
    chars = {
        "text": np.array(["M", "."], dtype=object),
        "x0": x0,
        "x1": x0 + 10.0,
        "top": np.array([100.0, 100.0]),
        "bottom": np.array([113.0, 113.0]),
    }
    page = {
        "page_number": 1, "page_width": 200.0, "page_height": 200.0,
        "chars": chars, "rects": None, "lines": None, "curves": [], "images": None,
    }
    img = PageImage(page, resolution=144).original
    scale = 144 / 72.0

    def ink(px0):
        cell = img[
            int(100 * scale) : int(113 * scale),
            int(px0 * scale) : int((px0 + 10) * scale),
        ]
        return int((cell < 128).all(axis=2).sum())

    m_ink, dot_ink = ink(72.0), ink(100.0)
    assert m_ink > dot_ink > 0
    assert m_ink > 3 * dot_ink
    # nothing outside the char cells
    assert (img[:, : int(71 * scale)] == 255).all()


def test_draw_rect_and_reset():
    img = PageImage(_page(), render_base=False)
    before = img.annotated.img.copy()
    assert (before == 255).all()
    img.draw_rect((300.0, 600.0, 400.0, 650.0))
    inside = img.annotated.img[625, 350]
    # default fill+stroke are red: red channel dominates
    assert inside[0] > inside[1] and inside[0] > inside[2]
    edge = img.annotated.img[600, 350]
    assert edge[0] > edge[1]
    img.reset()
    assert (img.annotated.img == before).all()


def test_draw_line_vline_hline_circle():
    img = PageImage(_page(), render_base=False)
    img.draw_line(((0.0, 0.0), (612.0, 792.0)), stroke=COLORS.GREEN)
    img.draw_vline(100.0, stroke=COLORS.BLUE)
    img.draw_hline(700.0)
    img.draw_circle((306.0, 396.0), radius=10)
    a = img.annotated.img
    assert (a[0, 0] != 255).any()  # diagonal start
    assert (a[400, 100] != 255).any()  # vline
    assert (a[700, 300] != 255).any()  # hline
    assert (a[396, 306] != 255).any()  # circle fill
    # chaining returns self
    assert img.draw_hlines([10.0]) is img


def test_outline_chars_and_words():
    img = PageImage(_page(), render_base=False)
    img.outline_chars()
    assert (img.annotated.img[106, 80] != 255).any()
    img.reset()
    img.outline_words()
    # the single word spans all five glyph cells
    assert (img.annotated.img[106, 75] != 255).any()
    assert (img.annotated.img[106, 105] != 255).any()


def test_debug_tablefinder_runs_and_marks_cells():
    img = PageImage(_page(with_grid=True), render_base=False)
    out = img.debug_tablefinder()
    assert out is img
    a = img.annotated.img
    # cell interiors carry the default translucent red fill
    assert (a[310, 225] != 255).any()
    # intersection circles use blue stroke: some pixel near a grid
    # corner is more blue than red
    region = a[295:330, 195:360].astype(int)
    assert (region[:, :, 2] > region[:, :, 0]).any()


def test_debug_tablefinder_honours_text_settings():
    """Under the text strategy the finder builds its words with the
    table's ``text_settings``, and a page without ruling still gets its
    tables: the drawn cells and merged edges are the one-page finder's."""
    from pdfplumber_ray.config import TableConfig, WordConfig
    from pdfplumber_ray.functions.geometry import concat_edges
    from pdfplumber_ray.functions.tables import find_tables_page, get_table_edges
    from pdfplumber_ray.functions.words import extract_words_page
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
    bbox = (0.0, 0.0, bare["page_width"], bare["page_height"])

    def words():
        return extract_words_page(bare["chars"], WordConfig(x_tolerance=0.5))

    want = [t.cells for t in find_tables_page(concat_edges([]), cfg, bbox, words)]
    merged = get_table_edges(concat_edges([]), cfg, bbox, words)
    assert want and merged["x0"].shape[0] > 0

    img = PageImage(bare, render_base=False)
    drawn_rects, drawn_lines = [], []
    img.draw_rects = lambda rects, **kw: drawn_rects.append(list(rects)) or img
    img.draw_lines = lambda lines, **kw: drawn_lines.append(list(lines)) or img
    img.debug_tablefinder(cfg)
    assert drawn_rects == want
    assert [len(lines) for lines in drawn_lines] == [merged["x0"].shape[0]]


def test_debug_tablefinder_on_a_page_of_ruling_only():
    """A page with rects but no chars and no page box (PageImage defaults
    it to 612x792) draws the one-page finder's cells."""
    from pdfplumber_ray.config import TableConfig
    from pdfplumber_ray.functions.tables import find_tables_page
    from pdfplumber_ray.stages.flatten import page_edge_union

    ruling = {"rects": _page(with_grid=True)["rects"]}
    want = [
        t.cells
        for t in find_tables_page(page_edge_union(ruling), TableConfig(), (0.0, 0.0, 612.0, 792.0))
    ]
    assert len(want) == 1 and len(want[0]) == 6

    img = PageImage(ruling, render_base=False)
    drawn_rects = []
    img.draw_rects = lambda rects, **kw: drawn_rects.append(list(rects)) or img
    assert img.debug_tablefinder() is img
    assert drawn_rects == want


def test_save_and_repr_png(tmp_path):
    img = PageImage(_page())
    p = tmp_path / "page.png"
    img.save(p)
    data = p.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert data == img._repr_png_()
    buf = io.BytesIO()
    img.save(buf)
    assert buf.getvalue() == data
    with pytest.raises(ValueError):
        img.save(p, format="JPEG")


def test_resolution_scales_canvas():
    img = PageImage(_page(), resolution=144)
    assert img.annotated.img.shape == (1584, 1224, 3)
    # reproject uses image pixels: page x=306 -> pixel 612
    assert img._reproject((306.0, 396.0)) == (612, 792)


def test_page_images_batch_real_pdf():
    from pdfplumber_ray.pdfio import decode_pdf_batch

    path = os.path.join(REF_PDFS, "pdffill-demo.pdf")
    blob = open(path, "rb").read()
    batch = pa.table(
        {
            "doc_id": pa.array(["pdffill"]),
            "pdf_bytes": pa.array([blob], pa.binary()),
        }
    )
    pages = decode_pdf_batch(batch)
    out = page_images_batch(pages)
    assert out.num_rows == pages.num_rows > 0
    assert out.column_names == [
        "doc_id", "page_number", "img_width", "img_height", "png",
        "raster_crc32",
    ]
    png0 = out.column("png")[0].as_py()
    arr = decode_png(png0)
    assert arr.shape[0] == out.column("img_height")[0].as_py()
    assert arr.shape[1] == out.column("img_width")[0].as_py()
    # a rendered page is not blank
    assert (arr < 250).any()


def test_draw_rects_accepts_dataframe():
    import pandas as pd

    img = PageImage(_page(), render_base=False)
    df = pd.DataFrame(
        [{"x0": 100.0, "top": 100.0, "x1": 150.0, "bottom": 130.0}]
    )
    img.draw_rects(df)
    assert (img.annotated.img[115, 125] != 255).any()


def test_composed_accent_glyphs():
    """Latin-1 letters render as composed glyphs (NFD base + accent in a
    5x9 cell), not coverage shading: é decomposes, the acute mark sits in
    the top rows, the base 'e' below; ß is a hand-authored special; a CJK
    char stays non-composable (coverage fallback)."""
    from pdfplumber_ray.display import _compose_glyph, _glyph_bitmap

    bm = _glyph_bitmap("é")  # é
    assert bm is not None and bm.shape == (9, 5)
    assert bm[:2].any()           # accent rows carry ink
    assert np.array_equal(bm[2:], _glyph_bitmap("e"))
    # cedilla composes BELOW the base
    cb = _glyph_bitmap("ç")  # ç
    assert cb is not None and cb.shape == (9, 5)
    assert np.array_equal(cb[:7], _glyph_bitmap("c")) and cb[7:].any()
    # non-decomposable Latin-1 special has a hand-drawn 5x7 shape
    assert _glyph_bitmap("ß").shape == (7, 5)  # ß
    # outside the repertoire -> coverage fallback path
    assert _glyph_bitmap("中") is None
    assert _compose_glyph("中") is None


def test_composed_glyph_renders_distinct_pixels():
    """An accent-composed glyph stamped into a cell must differ from its
    unaccented base (the accent is visible) and from coverage shading."""
    from pdfplumber_ray.display import _Canvas, _glyph_bitmap

    def stamp(ch):
        c = _Canvas(20, 30, (255, 255, 255))
        c.glyph(2, 2, 18, 28, _glyph_bitmap(ch), (0, 0, 0, 255))
        return c.img.copy()

    assert (stamp("é") != stamp("e")).any()
    assert (stamp("è") != stamp("é")).any()  # è vs é differ
