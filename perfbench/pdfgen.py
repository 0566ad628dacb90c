"""Seeded PDF writer for the ``pdf`` workload.

Every page carries Helvetica (standard-14, no embedded widths) text lines
and one ruled table whose cells are stroked ``re`` paths, each cell holding
one or two words. Every other content stream is Flate-compressed. The seed
draws the words; the page count, line count and table shape of each page
cycle with its index, so the amount of work does not depend on the seed.
The writer knows every glyph and rect it placed, so the expected values come
from construction, not from the decoder under test.

Output depends only on ``(seed, doc_index)``: the same pair always yields the
same bytes, whatever other documents are generated alongside it.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

import numpy as np

# seeded word list of the synthetic span corpus; plain ASCII, so no PDF
# string escaping is needed
from pdfplumber_ray.sources.synth_corpus import VOCAB

PAGE_W, PAGE_H = 612, 792
FONT_SIZE = 10
LINE_GAP = 14        # baseline-to-baseline distance of the text lines
TEXT_TOP = 740       # baseline of the first text line
CELL_W, CELL_H = 100, 20
TABLE_X = 72


def pages_in_doc(doc_index: int) -> int:
    """2, 3 or 4 pages, cycling by index: the page count of a corpus of n
    documents does not depend on the seed."""
    return 2 + doc_index % 3


def _words(rng: np.random.Generator, lo: int, hi: int) -> str:
    return " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), int(rng.integers(lo, hi))))


def _page(rng: np.random.Generator, k: int) -> Tuple[bytes, Dict]:
    """Content stream of page ``k`` of the corpus and what it draws: 8 to 20
    text lines and a table of 2 to 6 rows by 2 to 4 columns."""
    lines = [_words(rng, 3, 11) for _ in range(8 + k * 5 % 13)]
    n_rows = 2 + k % 5
    n_cols = 2 + k // 5 % 3
    grid = [[_words(rng, 1, 3) for _ in range(n_cols)] for _ in range(n_rows)]

    ops: List[str] = []
    for i, line in enumerate(lines):
        ops.append(f"BT /F1 {FONT_SIZE} Tf 72 {TEXT_TOP - i * LINE_GAP} Td ({line}) Tj ET")
    table_top = TEXT_TOP - len(lines) * LINE_GAP - 10
    ops.append("0.5 w")
    for r in range(n_rows):
        for c in range(n_cols):
            y = table_top - (r + 1) * CELL_H
            ops.append(f"{TABLE_X + c * CELL_W} {y} {CELL_W} {CELL_H} re")
    ops.append("S")
    for r, row in enumerate(grid):
        for c, word in enumerate(row):
            x = TABLE_X + c * CELL_W + 4
            y = table_top - (r + 1) * CELL_H + 6
            ops.append(f"BT /F1 {FONT_SIZE} Tf {x} {y} Td ({word}) Tj ET")

    expected = {
        "chars": "".join(lines) + "".join(w for row in grid for w in row),
        "rects": n_rows * n_cols,
        "text": "\n".join(lines + [" ".join(row) for row in grid]),
        "table": grid,
    }
    return "\n".join(ops).encode("ascii"), expected


def make_pdf(seed: int, doc_index: int) -> Tuple[bytes, List[Dict]]:
    """(pdf bytes, per-page expected values) for one document."""
    rng = np.random.default_rng((seed, doc_index))
    n_pages = pages_in_doc(doc_index)
    # object numbers: 1 catalog, 2 page tree, 3 font, then (page, contents)
    # pairs
    page_nums = [4 + 2 * p for p in range(n_pages)]
    objs: List[bytes] = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [%s] /Count %d >>"
        % (b" ".join(b"%d 0 R" % n for n in page_nums), n_pages),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
        b"/Encoding /WinAnsiEncoding >>",
    ]
    expected: List[Dict] = []
    for p in range(n_pages):
        k = 4 * doc_index + p
        content, exp = _page(rng, k)
        expected.append(exp)
        objs.append(
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 %d %d] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents %d 0 R >>"
            % (PAGE_W, PAGE_H, page_nums[p] + 1)
        )
        if k % 2:
            data = zlib.compress(content)
            head = b"<< /Length %d /Filter /FlateDecode >>" % len(data)
        else:
            data = content
            head = b"<< /Length %d >>" % len(data)
        objs.append(head + b"\nstream\n" + data + b"\nendstream")

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for num, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
    out += b"".join(b"%010d 00000 n \n" % off for off in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(objs) + 1,
        xref_at,
    )
    return bytes(out), expected
