"""Visual debugging: PageImage over a decoded page (the reference's
``Page.to_image`` surface, display.py:76-397).

The reference rasterizes the original PDF through pypdfium2 and draws
overlays with PIL; neither renderer ships in this environment, so the
base image here is an *object-level* render of the page's decoded
geometry (rects, lines, curves, char boxes, image placeholders) on a
numpy RGB canvas, and the overlay API (``draw_rect(s)``, ``draw_line(s)``,
``draw_vline(s)/draw_hline(s)``, ``draw_circle(s)``, ``outline_words``,
``outline_chars``, ``debug_tablefinder``, ``save``, ``_repr_png_``)
mirrors the reference's signatures and default colors exactly
(display.py:20-33 COLORS / DEFAULT_*). Text is rendered glyph-by-glyph
from a built-in 5x7 bitmap font scaled into each char's decoded bbox
(readable pages with zero native deps); accented Latin glyphs compose
from their NFD base + a combining-mark bitmap (5x9 cell), Latin-1
specials (ß æ ø ð þ ¡ ¿ « » ...) are hand-authored, and glyphs outside
that repertoire — or cells too small to carry pixels — fall back to
shading the char box by the glyph's estimated ink coverage, so dense
and sparse text remain visually distinct.

PNG output is encoded directly (zlib + struct, filter 0 rows) — no
imaging dependency.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import TableConfig, WordConfig


class COLORS:
    RED = (255, 0, 0)
    GREEN = (0, 255, 0)
    BLUE = (0, 0, 255)
    TRANSPARENT = (0, 0, 0, 0)


DEFAULT_FILL = COLORS.RED + (50,)
DEFAULT_STROKE = COLORS.RED + (200,)
DEFAULT_STROKE_WIDTH = 1
DEFAULT_RESOLUTION = 72

_NAMED = {
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
    "black": (0, 0, 0),
    "white": (255, 255, 255),
    "yellow": (255, 255, 0),
    "orange": (255, 165, 0),
    "purple": (128, 0, 128),
    "gray": (128, 128, 128),
    "grey": (128, 128, 128),
}

# base-render palette (object-level page raster)
_PAGE_BG = (255, 255, 255)
_RECT_STROKE = (120, 120, 120, 255)
_RECT_FILL = (200, 200, 200, 120)
_LINE_STROKE = (90, 90, 90, 255)
_CHAR_FILL = (60, 60, 60, 110)
_GLYPH_INK = (35, 35, 35, 235)
_IMAGE_FILL = (170, 190, 220, 160)
_IMAGE_STROKE = (100, 120, 160, 255)

# Built-in 5x7 bitmap font (printable ASCII). Each glyph is 7 rows, top to
# bottom, 5 bits wide (bit 4 = leftmost pixel). Hand-authored dot-matrix
# shapes — no external font data. Used by the base raster to draw readable
# text into decoded char bboxes; popcount/35 doubles as the glyph's ink
# coverage for the small-cell shading fallback.
_FONT_5X7: Dict[str, Tuple[int, ...]] = {
    " ": (0, 0, 0, 0, 0, 0, 0),
    "!": (0x04, 0x04, 0x04, 0x04, 0x04, 0x00, 0x04),
    '"': (0x0A, 0x0A, 0x0A, 0x00, 0x00, 0x00, 0x00),
    "#": (0x0A, 0x0A, 0x1F, 0x0A, 0x1F, 0x0A, 0x0A),
    "$": (0x04, 0x0F, 0x14, 0x0E, 0x05, 0x1E, 0x04),
    "%": (0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03),
    "&": (0x0C, 0x12, 0x14, 0x08, 0x15, 0x12, 0x0D),
    "'": (0x0C, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00),
    "(": (0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02),
    ")": (0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08),
    "*": (0x00, 0x04, 0x15, 0x0E, 0x15, 0x04, 0x00),
    "+": (0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00),
    ",": (0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08),
    "-": (0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00),
    ".": (0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C),
    "/": (0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x00),
    "0": (0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E),
    "1": (0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "2": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F),
    "3": (0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E),
    "4": (0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02),
    "5": (0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E),
    "6": (0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E),
    "7": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08),
    "8": (0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E),
    "9": (0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C),
    ":": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00),
    ";": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x04, 0x08),
    "<": (0x02, 0x04, 0x08, 0x10, 0x08, 0x04, 0x02),
    "=": (0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00),
    ">": (0x08, 0x04, 0x02, 0x01, 0x02, 0x04, 0x08),
    "?": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04),
    "@": (0x0E, 0x11, 0x01, 0x0D, 0x15, 0x15, 0x0E),
    "A": (0x0E, 0x11, 0x11, 0x11, 0x1F, 0x11, 0x11),
    "B": (0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E),
    "C": (0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E),
    "D": (0x1C, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1C),
    "E": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F),
    "F": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10),
    "G": (0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F),
    "H": (0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "I": (0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "J": (0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C),
    "K": (0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11),
    "L": (0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F),
    "M": (0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11),
    "N": (0x11, 0x11, 0x19, 0x15, 0x13, 0x11, 0x11),
    "O": (0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "P": (0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10),
    "Q": (0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D),
    "R": (0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11),
    "S": (0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E),
    "T": (0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04),
    "U": (0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "V": (0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "W": (0x11, 0x11, 0x11, 0x15, 0x15, 0x15, 0x0A),
    "X": (0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11),
    "Y": (0x11, 0x11, 0x11, 0x0A, 0x04, 0x04, 0x04),
    "Z": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F),
    "[": (0x0E, 0x08, 0x08, 0x08, 0x08, 0x08, 0x0E),
    "\\": (0x00, 0x10, 0x08, 0x04, 0x02, 0x01, 0x00),
    "]": (0x0E, 0x02, 0x02, 0x02, 0x02, 0x02, 0x0E),
    "^": (0x04, 0x0A, 0x11, 0x00, 0x00, 0x00, 0x00),
    "_": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F),
    "`": (0x08, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00),
    "a": (0x00, 0x00, 0x0E, 0x01, 0x0F, 0x11, 0x0F),
    "b": (0x10, 0x10, 0x16, 0x19, 0x11, 0x11, 0x1E),
    "c": (0x00, 0x00, 0x0E, 0x10, 0x10, 0x11, 0x0E),
    "d": (0x01, 0x01, 0x0D, 0x13, 0x11, 0x11, 0x0F),
    "e": (0x00, 0x00, 0x0E, 0x11, 0x1F, 0x10, 0x0E),
    "f": (0x06, 0x09, 0x08, 0x1C, 0x08, 0x08, 0x08),
    "g": (0x00, 0x0F, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "h": (0x10, 0x10, 0x16, 0x19, 0x11, 0x11, 0x11),
    "i": (0x04, 0x00, 0x0C, 0x04, 0x04, 0x04, 0x0E),
    "j": (0x02, 0x00, 0x06, 0x02, 0x02, 0x12, 0x0C),
    "k": (0x10, 0x10, 0x12, 0x14, 0x18, 0x14, 0x12),
    "l": (0x0C, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "m": (0x00, 0x00, 0x1A, 0x15, 0x15, 0x11, 0x11),
    "n": (0x00, 0x00, 0x16, 0x19, 0x11, 0x11, 0x11),
    "o": (0x00, 0x00, 0x0E, 0x11, 0x11, 0x11, 0x0E),
    "p": (0x00, 0x00, 0x1E, 0x11, 0x1E, 0x10, 0x10),
    "q": (0x00, 0x00, 0x0D, 0x13, 0x0F, 0x01, 0x01),
    "r": (0x00, 0x00, 0x16, 0x19, 0x10, 0x10, 0x10),
    "s": (0x00, 0x00, 0x0E, 0x10, 0x0E, 0x01, 0x1E),
    "t": (0x08, 0x08, 0x1C, 0x08, 0x08, 0x09, 0x06),
    "u": (0x00, 0x00, 0x11, 0x11, 0x11, 0x13, 0x0D),
    "v": (0x00, 0x00, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "w": (0x00, 0x00, 0x11, 0x11, 0x15, 0x15, 0x0A),
    "x": (0x00, 0x00, 0x11, 0x0A, 0x04, 0x0A, 0x11),
    "y": (0x00, 0x11, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "z": (0x00, 0x00, 0x1F, 0x02, 0x04, 0x08, 0x1F),
    "{": (0x02, 0x04, 0x04, 0x08, 0x04, 0x04, 0x02),
    "|": (0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04),
    "}": (0x08, 0x04, 0x04, 0x02, 0x04, 0x04, 0x08),
    "~": (0x00, 0x00, 0x08, 0x15, 0x02, 0x00, 0x00),
}

# Latin-1 / Latin-Extended glyphs compose from their NFD decomposition:
# base ASCII bitmap + a 2-row combining-mark bitmap stamped above (or
# below, for cedilla/ogonek) in a 5x9 cell, so European-language corpora
# render as readable text instead of coverage-shaded boxes. CJK and other
# non-composable scripts keep the coverage fallback.
_MARKS_ABOVE: Dict[str, Tuple[int, int]] = {
    "̀": (0x08, 0x04),  # grave
    "́": (0x02, 0x04),  # acute
    "̂": (0x04, 0x0A),  # circumflex
    "̃": (0x0D, 0x16),  # tilde
    "̄": (0x00, 0x1F),  # macron
    "̆": (0x11, 0x0E),  # breve
    "̇": (0x00, 0x04),  # dot above
    "̈": (0x0A, 0x00),  # diaeresis
    "̊": (0x0E, 0x0A),  # ring above
    "̋": (0x09, 0x12),  # double acute
    "̌": (0x0A, 0x04),  # caron
}
_MARKS_BELOW: Dict[str, Tuple[int, int]] = {
    "̧": (0x04, 0x0C),  # cedilla
    "̨": (0x04, 0x06),  # ogonek
}

# Latin-1 specials with no NFD decomposition — hand-authored 5x7 shapes.
_FONT_5X7.update(
    {
        "ß": (0x0C, 0x12, 0x12, 0x16, 0x11, 0x11, 0x16),  # ß
        "æ": (0x00, 0x00, 0x1A, 0x05, 0x1F, 0x14, 0x0F),  # æ
        "Æ": (0x0F, 0x14, 0x14, 0x1F, 0x14, 0x14, 0x17),  # Æ
        "ø": (0x00, 0x01, 0x0E, 0x13, 0x15, 0x19, 0x1E),  # ø
        "Ø": (0x0F, 0x11, 0x13, 0x15, 0x19, 0x11, 0x1E),  # Ø
        "ð": (0x08, 0x06, 0x0A, 0x0F, 0x11, 0x11, 0x0E),  # ð
        "Ð": (0x1C, 0x12, 0x11, 0x19, 0x11, 0x12, 0x1C),  # Ð
        "þ": (0x10, 0x10, 0x1E, 0x11, 0x1E, 0x10, 0x10),  # þ
        "Þ": (0x10, 0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10),  # Þ
        "¡": (0x04, 0x00, 0x04, 0x04, 0x04, 0x04, 0x04),  # ¡
        "¿": (0x04, 0x00, 0x04, 0x08, 0x10, 0x11, 0x0E),  # ¿
        "°": (0x0C, 0x12, 0x12, 0x0C, 0x00, 0x00, 0x00),  # °
        "·": (0x00, 0x00, 0x00, 0x0C, 0x0C, 0x00, 0x00),  # ·
        "«": (0x00, 0x05, 0x0A, 0x14, 0x0A, 0x05, 0x00),  # «
        "»": (0x00, 0x14, 0x0A, 0x05, 0x0A, 0x14, 0x00),  # »
        "×": (0x00, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x00),  # ×
        "÷": (0x00, 0x04, 0x00, 0x1F, 0x00, 0x04, 0x00),  # ÷
        # stroked Latin letters never NFD-decompose (the bar/stroke is
        # not a combining mark) — hand-authored like the Latin-1 specials
        "ł": (0x0C, 0x04, 0x06, 0x0C, 0x04, 0x04, 0x0E),  # ł
        "Ł": (0x08, 0x08, 0x0C, 0x18, 0x08, 0x08, 0x0F),  # Ł
        "đ": (0x01, 0x07, 0x0D, 0x13, 0x11, 0x11, 0x0F),  # đ
        "Đ": (0x1C, 0x12, 0x11, 0x19, 0x11, 0x12, 0x1C),  # Đ
        "ħ": (0x10, 0x18, 0x16, 0x19, 0x11, 0x11, 0x11),  # ħ
        "Ħ": (0x11, 0x1F, 0x11, 0x1F, 0x11, 0x11, 0x11),  # Ħ
    }
)

_BITMAP_CACHE: Dict[str, np.ndarray] = {}
_COMPOSE_FAILED: set = set()
_COVERAGE_CACHE: Dict[str, float] = {}
# (bitmap id, cell dims, clip) -> scaled boolean stamp; bounded
_SCALED_GLYPH_CACHE: Dict[tuple, np.ndarray] = {}


def _rows_to_bits(rows: Sequence[int]) -> np.ndarray:
    return np.array(
        [[(r >> (4 - c)) & 1 for c in range(5)] for r in rows], dtype=bool
    )


def _compose_glyph(ch: str) -> Optional[np.ndarray]:
    """Compose an accented Latin glyph from its NFD base + combining
    marks: 5x9 cell with the 2-row mark above (or below for cedilla /
    ogonek) the 5x7 base bitmap. Returns None when the base or any mark
    is outside the built-in repertoire (mixed above+below included)."""
    import unicodedata

    d = unicodedata.normalize("NFD", ch)
    if len(d) < 2:
        return None
    base_rows = _FONT_5X7.get(d[0])
    if base_rows is None:
        return None
    marks = d[1:]
    if all(m in _MARKS_ABOVE for m in marks):
        acc = np.zeros((2, 5), dtype=bool)
        for m in marks:
            acc |= _rows_to_bits(_MARKS_ABOVE[m])
        return np.vstack([acc, _rows_to_bits(base_rows)])
    if all(m in _MARKS_BELOW for m in marks):
        acc = np.zeros((2, 5), dtype=bool)
        for m in marks:
            acc |= _rows_to_bits(_MARKS_BELOW[m])
        return np.vstack([_rows_to_bits(base_rows), acc])
    return None


def _glyph_bitmap(ch: str) -> Optional[np.ndarray]:
    bm = _BITMAP_CACHE.get(ch)
    if bm is None:
        rows = _FONT_5X7.get(ch)
        if rows is None:
            if ch in _COMPOSE_FAILED:
                return None
            bm = _compose_glyph(ch)
            if bm is None:
                _COMPOSE_FAILED.add(ch)
                return None
        else:
            bm = _rows_to_bits(rows)
        _BITMAP_CACHE[ch] = bm
    return bm


def _glyph_coverage(ch: str) -> float:
    """Estimated ink fraction of the glyph cell (popcount / cell size);
    unknown (non-composable) glyphs get a mid density so they stay
    visible."""
    cov = _COVERAGE_CACHE.get(ch)
    if cov is None:
        bm = _glyph_bitmap(ch)
        cov = 0.4 if bm is None else float(bm.mean())
        _COVERAGE_CACHE[ch] = cov
    return cov


def _rgba(color: Any) -> Tuple[int, int, int, int]:
    if isinstance(color, str):
        color = _NAMED[color.lower()]
    c = tuple(int(v) for v in color)
    if len(c) == 3:
        return c + (255,)
    return c  # type: ignore[return-value]


def encode_png(arr: np.ndarray) -> bytes:
    """RGB uint8 (H, W, 3) array -> PNG bytes (8-bit truecolor,
    filter 0 rows)."""
    h, w = arr.shape[:2]

    def chunk(tag: bytes, data: bytes) -> bytes:
        raw = tag + data
        return struct.pack(">I", len(data)) + raw + struct.pack(
            ">I", zlib.crc32(raw) & 0xFFFFFFFF
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = np.empty((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 0] = 0  # filter type 0 per row
    rows[:, 1:] = arr.reshape(h, w * 3)
    idat = zlib.compress(rows.tobytes(), 6)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


class _Canvas:
    """Minimal RGBA-over-RGB raster: rect fill, stamped line, ellipse."""

    def __init__(self, width: int, height: int, bg: Tuple[int, int, int]):
        self.w = max(1, int(width))
        self.h = max(1, int(height))
        self.img = np.empty((self.h, self.w, 3), dtype=np.uint8)
        self.img[:] = bg

    def _blend_mask(
        self,
        mask: np.ndarray,
        rgba: Tuple[int, int, int, int],
        origin: Tuple[int, int] = (0, 0),
    ) -> None:
        """Blend ``rgba`` into the pixels of ``mask``; ``mask`` may be a
        sub-window whose top-left sits at ``origin`` (avoids allocating
        full-canvas masks for small primitives)."""
        a = rgba[3] / 255.0
        if a <= 0 or not mask.any():
            return
        oy, ox = origin
        window = self.img[oy : oy + mask.shape[0], ox : ox + mask.shape[1]]
        rgb = np.array(rgba[:3], dtype=np.float64)
        region = window[mask].astype(np.float64)
        window[mask] = (region * (1.0 - a) + rgb * a).astype(np.uint8)

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int, rgba) -> None:
        rgba = _rgba(rgba)
        if rgba[3] == 0:
            return
        x0 = max(0, min(self.w, x0))
        x1 = max(0, min(self.w, x1))
        y0 = max(0, min(self.h, y0))
        y1 = max(0, min(self.h, y1))
        if x1 <= x0 or y1 <= y0:
            return
        a = rgba[3] / 255.0
        rgb = np.array(rgba[:3], dtype=np.float64)
        region = self.img[y0:y1, x0:x1].astype(np.float64)
        self.img[y0:y1, x0:x1] = (region * (1.0 - a) + rgb * a).astype(np.uint8)

    def polyline(self, points: Sequence[Tuple[int, int]], rgba, width: int = 1) -> None:
        rgba = _rgba(rgba)
        if rgba[3] == 0 or len(points) < 2 or width <= 0:
            return
        half_lo = (width - 1) // 2
        half_hi = width // 2
        # localize the mask to the polyline's bounding box — a table grid
        # stroke must not pay a full-canvas boolean scan per segment
        bx0 = max(0, min(p[0] for p in points) - half_lo - 1)
        by0 = max(0, min(p[1] for p in points) - half_lo - 1)
        bx1 = min(self.w, max(p[0] for p in points) + half_hi + 2)
        by1 = min(self.h, max(p[1] for p in points) + half_hi + 2)
        if bx1 <= bx0 or by1 <= by0:
            return
        mw, mh = bx1 - bx0, by1 - by0
        mask = np.zeros((mh, mw), dtype=bool)
        for (ax, ay), (bx, by) in zip(points, points[1:]):
            n = int(max(abs(bx - ax), abs(by - ay))) + 1
            # round in ABSOLUTE coordinates, then shift by the integer
            # window origin — rint's half-even rule must see the same
            # values as the unlocalized path did (pixel-exact goldens)
            xs = np.rint(np.linspace(ax, bx, n)).astype(np.int64) - bx0
            ys = np.rint(np.linspace(ay, by, n)).astype(np.int64) - by0
            for dy in range(-half_lo, half_hi + 1):
                for dx in range(-half_lo, half_hi + 1):
                    xi = xs + dx
                    yi = ys + dy
                    keep = (xi >= 0) & (xi < mw) & (yi >= 0) & (yi < mh)
                    mask[yi[keep], xi[keep]] = True
        self._blend_mask(mask, rgba, origin=(by0, bx0))

    def glyph(self, x0: int, y0: int, x1: int, y1: int, bitmap: np.ndarray, rgba) -> None:
        """Scale a bool bitmap (7x5 base glyphs, 9x5 accent-composed) into
        the pixel rect by nearest-neighbor sampling and blend its set
        pixels."""
        rgba = _rgba(rgba)
        if rgba[3] == 0:
            return
        x0c, x1c = max(0, x0), min(self.w, x1)
        y0c, y1c = max(0, y0), min(self.h, y1)
        if x1c <= x0c or y1c <= y0c:
            return
        w = max(x1 - x0, 1)
        h = max(y1 - y0, 1)
        bh, bw = bitmap.shape
        # monospace text repeats identical (glyph, cell, clip) shapes all
        # over a page — memoize the scaled boolean stamp
        key = (id(bitmap), w, h, x0c - x0, x1c - x0, y0c - y0, y1c - y0)
        sub = _SCALED_GLYPH_CACHE.get(key)
        if sub is None:
            xs = np.clip((np.arange(x0c, x1c) - x0) * bw // w, 0, bw - 1)
            ys = np.clip((np.arange(y0c, y1c) - y0) * bh // h, 0, bh - 1)
            sub = bitmap[ys[:, None], xs]
            if len(_SCALED_GLYPH_CACHE) < 65536:
                _SCALED_GLYPH_CACHE[key] = sub
        if not sub.any():
            return
        a = rgba[3] / 255.0
        rgb = np.array(rgba[:3], dtype=np.float64)
        region = self.img[y0c:y1c, x0c:x1c].astype(np.float64)
        region[sub] = region[sub] * (1.0 - a) + rgb * a
        self.img[y0c:y1c, x0c:x1c] = region.astype(np.uint8)

    def ellipse(self, x0: float, y0: float, x1: float, y1: float, fill, stroke) -> None:
        fill = _rgba(fill)
        stroke = _rgba(stroke)
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        rx, ry = max((x1 - x0) / 2.0, 0.5), max((y1 - y0) / 2.0, 0.5)
        gx0 = max(0, int(np.floor(x0)) - 1)
        gy0 = max(0, int(np.floor(y0)) - 1)
        gx1 = min(self.w, int(np.ceil(x1)) + 2)
        gy1 = min(self.h, int(np.ceil(y1)) + 2)
        if gx1 <= gx0 or gy1 <= gy0:
            return
        yy, xx = np.mgrid[gy0:gy1, gx0:gx1]
        d = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2
        if fill[3] > 0:
            self._blend_mask(d <= 1.0, fill, origin=(gy0, gx0))
        if stroke[3] > 0:
            rim = max(1.0 / max(rx, ry), 0.25)
            self._blend_mask(
                (d <= 1.0) & (d >= (1.0 - rim) ** 2), stroke, origin=(gy0, gx0)
            )


def _obj_arrays_iter(objs: Any) -> Iterable[Tuple[float, float, float, float]]:
    """Iterate (x0, top, x1, bottom) over either an ObjArrays dict of
    numpy columns or a list of row dicts."""
    if objs is None:
        return
    if isinstance(objs, dict):
        x0 = np.asarray(objs.get("x0", ()))
        if x0.shape[0] == 0:
            return
        top = np.asarray(objs["top"])
        x1 = np.asarray(objs["x1"])
        bottom = np.asarray(objs["bottom"])
        for i in range(x0.shape[0]):
            yield float(x0[i]), float(top[i]), float(x1[i]), float(bottom[i])
    else:
        for o in objs:
            yield float(o["x0"]), float(o["top"]), float(o["x1"]), float(o["bottom"])


def _char_iter(objs: Any) -> Iterable[Tuple[float, float, float, float, str]]:
    """Like _obj_arrays_iter but also yields each char's text (first
    codepoint drives the glyph bitmap)."""
    if objs is None:
        return
    if isinstance(objs, dict):
        x0 = np.asarray(objs.get("x0", ()))
        if x0.shape[0] == 0:
            return
        top = np.asarray(objs["top"])
        x1 = np.asarray(objs["x1"])
        bottom = np.asarray(objs["bottom"])
        text = objs.get("text")
        for i in range(x0.shape[0]):
            t = text[i] if text is not None else ""
            yield float(x0[i]), float(top[i]), float(x1[i]), float(bottom[i]), (t or "")
    else:
        for o in objs:
            yield (
                float(o["x0"]), float(o["top"]), float(o["x1"]),
                float(o["bottom"]), o.get("text") or "",
            )


class PageImage:
    """Debug raster for one decoded page (PageDict or PAGES row dict).

    Accepts both array-form pages (``stages.decode.arrow_pages_to_dicts``
    output) and plain row dicts (``pdfio.reader.decode_pdf_doc`` rows):
    object columns may be dict-of-arrays or lists of dicts.
    """

    def __init__(
        self,
        page: Dict[str, Any],
        resolution: Union[int, float] = DEFAULT_RESOLUTION,
        antialias: bool = False,  # accepted for signature parity; no-op
        render_base: bool = True,
    ):
        self.page = page
        self.resolution = float(resolution)
        pw = float(page.get("page_width") or 0.0) or 612.0
        ph = float(page.get("page_height") or 0.0) or 792.0
        self.bbox = (0.0, 0.0, pw, ph)
        self.scale = self.resolution / 72.0
        self._size = (
            max(1, int(round(pw * self.scale))),
            max(1, int(round(ph * self.scale))),
        )
        self._render_base = render_base
        self.original = self._base_render()
        self.annotated: Optional[_Canvas] = None
        self.reset()

    # -- geometry ---------------------------------------------------------

    def _reproject(self, coord: Tuple[float, float]) -> Tuple[int, int]:
        x0, top = coord
        return (
            int((x0 - self.bbox[0]) * self.scale),
            int((top - self.bbox[1]) * self.scale),
        )

    def _reproject_bbox(self, bbox) -> Tuple[int, int, int, int]:
        x0, top, x1, bottom = bbox
        _x0, _top = self._reproject((x0, top))
        _x1, _bottom = self._reproject((x1, bottom))
        return (_x0, _top, _x1, _bottom)

    # -- base render ------------------------------------------------------

    def _base_render(self) -> np.ndarray:
        canvas = _Canvas(self._size[0], self._size[1], _PAGE_BG)
        if not self._render_base:
            return canvas.img
        page = self.page
        for bb in _obj_arrays_iter(page.get("rects")):
            x0, y0, x1, y1 = self._reproject_bbox(bb)
            canvas.fill_rect(x0, y0, x1, y1, _RECT_FILL)
            canvas.polyline(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
                _RECT_STROKE,
            )
        for bb in _obj_arrays_iter(page.get("lines")):
            p0 = self._reproject((bb[0], bb[1]))
            p1 = self._reproject((bb[2], bb[3]))
            canvas.polyline([p0, p1], _LINE_STROKE)
        for c in page.get("curves") or []:
            pts = [self._reproject((p["x"], p["top"])) for p in c.get("pts", [])]
            if len(pts) >= 2:
                canvas.polyline(pts, _LINE_STROKE)
        for bb in _obj_arrays_iter(page.get("images")):
            x0, y0, x1, y1 = self._reproject_bbox(bb)
            canvas.fill_rect(x0, y0, x1, y1, _IMAGE_FILL)
            canvas.polyline(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
                _IMAGE_STROKE,
            )
            canvas.polyline([(x0, y0), (x1, y1)], _IMAGE_STROKE)
        for cx0, ctop, cx1, cbottom, text in _char_iter(page.get("chars")):
            x0, y0, x1, y1 = self._reproject_bbox((cx0, ctop, cx1, cbottom))
            ch = text[0] if text else ""
            if ch in (" ", " ", ""):
                continue
            bm = _glyph_bitmap(ch)
            if bm is not None and (x1 - x0) >= 3 and (y1 - y0) >= 5:
                canvas.glyph(x0, y0, x1, y1, bm, _GLYPH_INK)
            else:
                # too small for pixels / outside the built-in font: shade
                # the cell by the glyph's ink coverage so text density
                # still reads at a glance
                cov = _glyph_coverage(ch)
                alpha = int(40 + 180 * cov)
                canvas.fill_rect(
                    x0, y0, x1, y1, _GLYPH_INK[:3] + (alpha,)
                )
        return canvas.img

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> "PageImage":
        c = _Canvas(self._size[0], self._size[1], _PAGE_BG)
        c.img[:] = self.original
        self.annotated = c
        return self

    def copy(self) -> "PageImage":
        other = self.__class__(
            self.page, resolution=self.resolution, render_base=self._render_base
        )
        return other

    # -- overlay API (reference display.py:177-397) -----------------------

    def draw_line(
        self, points_or_obj, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        if isinstance(points_or_obj, (tuple, list)):
            points = points_or_obj
        elif isinstance(points_or_obj, dict) and "pts" in points_or_obj:
            points = [(x, y) for x, y in points_or_obj["pts"]]
        else:
            obj = points_or_obj
            points = ((obj["x0"], obj["top"]), (obj["x1"], obj["bottom"]))
        self.annotated.polyline(
            [self._reproject(p) for p in points], stroke, stroke_width
        )
        return self

    def draw_lines(
        self, list_of_lines, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        for x in list(list_of_lines):
            self.draw_line(x, stroke=stroke, stroke_width=stroke_width)
        return self

    def draw_vline(
        self, location, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        x0, y0, x1, y1 = self._reproject_bbox(
            (location, self.bbox[1], location, self.bbox[3])
        )
        self.annotated.polyline([(x0, y0), (x1, y1)], stroke, stroke_width)
        return self

    def draw_vlines(
        self, locations, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        for x in list(locations):
            self.draw_vline(x, stroke=stroke, stroke_width=stroke_width)
        return self

    def draw_hline(
        self, location, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        x0, y0, x1, y1 = self._reproject_bbox(
            (self.bbox[0], location, self.bbox[2], location)
        )
        self.annotated.polyline([(x0, y0), (x1, y1)], stroke, stroke_width)
        return self

    def draw_hlines(
        self, locations, stroke=DEFAULT_STROKE, stroke_width: int = DEFAULT_STROKE_WIDTH
    ) -> "PageImage":
        for x in list(locations):
            self.draw_hline(x, stroke=stroke, stroke_width=stroke_width)
        return self

    def draw_rect(
        self,
        bbox_or_obj,
        fill=DEFAULT_FILL,
        stroke=DEFAULT_STROKE,
        stroke_width: int = DEFAULT_STROKE_WIDTH,
    ) -> "PageImage":
        if isinstance(bbox_or_obj, (tuple, list)):
            bbox = bbox_or_obj
        else:
            obj = bbox_or_obj
            bbox = (obj["x0"], obj["top"], obj["x1"], obj["bottom"])
        x0, top, x1, bottom = (float(v) for v in bbox)
        # same half-stroke inset as the reference (display.py:261-265)
        half = stroke_width / 2
        x0 = min(x0 + half, (x0 + x1) / 2)
        top = min(top + half, (top + bottom) / 2)
        x1 = max(x1 - half, (x0 + x1) / 2)
        bottom = max(bottom - half, (top + bottom) / 2)
        fx0, fy0, fx1, fy1 = self._reproject_bbox((x0, top, x1, bottom))
        self.annotated.fill_rect(fx0, fy0, fx1 + 1, fy1 + 1, fill)
        if stroke_width > 0:
            segments = [
                ((x0, top), (x1, top)),
                ((x0, bottom), (x1, bottom)),
                ((x0, top), (x0, bottom)),
                ((x1, top), (x1, bottom)),
            ]
            self.draw_lines(segments, stroke=stroke, stroke_width=stroke_width)
        return self

    def draw_rects(
        self,
        list_of_rects,
        fill=DEFAULT_FILL,
        stroke=DEFAULT_STROKE,
        stroke_width: int = DEFAULT_STROKE_WIDTH,
    ) -> "PageImage":
        for x in _as_obj_list(list_of_rects):
            self.draw_rect(x, fill=fill, stroke=stroke, stroke_width=stroke_width)
        return self

    def draw_circle(
        self, center_or_obj, radius: int = 5, fill=DEFAULT_FILL, stroke=DEFAULT_STROKE
    ) -> "PageImage":
        if isinstance(center_or_obj, tuple):
            center = center_or_obj
        else:
            obj = center_or_obj
            center = (
                (obj["x0"] + obj["x1"]) / 2,
                (obj["top"] + obj["bottom"]) / 2,
            )
        cx, cy = center
        x0, y0, x1, y1 = self._reproject_bbox(
            (cx - radius, cy - radius, cx + radius, cy + radius)
        )
        self.annotated.ellipse(x0, y0, x1, y1, fill, stroke)
        return self

    def draw_circles(
        self, list_of_circles, radius: int = 5, fill=DEFAULT_FILL, stroke=DEFAULT_STROKE
    ) -> "PageImage":
        for x in _as_obj_list(list_of_circles):
            self.draw_circle(x, radius=radius, fill=fill, stroke=stroke)
        return self

    # -- high-level debug overlays ---------------------------------------

    def outline_chars(
        self,
        stroke=(255, 0, 0, 255),
        fill=(255, 0, 0, 255 // 4),
        stroke_width: int = DEFAULT_STROKE_WIDTH,
    ) -> "PageImage":
        rects = [bb for bb in _obj_arrays_iter(self.page.get("chars"))]
        return self.draw_rects(
            rects, stroke=stroke, fill=fill, stroke_width=stroke_width
        )

    def outline_words(
        self,
        stroke=DEFAULT_STROKE,
        fill=DEFAULT_FILL,
        stroke_width: int = DEFAULT_STROKE_WIDTH,
        x_tolerance: float = 3,
        y_tolerance: float = 3,
    ) -> "PageImage":
        from .functions.words import extract_words_page

        chars = _char_table(self.page.get("chars"))
        if chars is None:
            return self
        words = extract_words_page(
            chars, WordConfig(x_tolerance=x_tolerance, y_tolerance=y_tolerance)
        )
        rects = list(
            zip(
                words["x0"].tolist(),
                words["top"].tolist(),
                words["x1"].tolist(),
                words["bottom"].tolist(),
            )
        )
        return self.draw_rects(
            rects, stroke=stroke, fill=fill, stroke_width=stroke_width
        )

    def debug_tablefinder(self, tf=None) -> "PageImage":
        """Reference display.py:343-367: outline detected table cells,
        draw the merged edge set, and mark intersections. The finder is the
        one-page table finder the pipeline runs: text-strategy words are
        built with the table's ``text_settings``, and a page without ruling
        still gets its text-strategy tables."""
        from .functions.geometry import concat_edges
        from .functions.tables import (
            edges_to_intersections_arrays,
            get_table_edges,
            intersections_to_tables,
        )
        from .stages.flatten import page_edge_union, table_words_group

        if tf is None or isinstance(tf, (TableConfig, dict)):
            cfg = TableConfig.resolve(tf)
        else:
            raise ValueError(
                "Argument must be a TableConfig or a settings dict."
            )
        chars = _char_table(self.page.get("chars"))
        edges = page_edge_union(_arrayify_page(self.page))
        if edges is None:
            edges = concat_edges([])
        words_provider = (
            (
                lambda: table_words_group(
                    chars, np.zeros(chars["x0"].shape[0], dtype=np.int64), cfg
                )[0]
            )
            if chars is not None
            else None
        )
        merged = get_table_edges(edges, cfg, self.bbox, words_provider)
        inter = edges_to_intersections_arrays(
            merged,
            cfg.resolved("intersection_x_tolerance"),
            cfg.resolved("intersection_y_tolerance"),
        )
        for t in intersections_to_tables(inter, cfg):
            self.draw_rects([c for c in t.cells], stroke_width=1)
        self.draw_lines(
            [
                (
                    (merged["x0"][i], merged["top"][i]),
                    (merged["x1"][i], merged["bottom"][i]),
                )
                for i in range(merged["x0"].shape[0])
            ],
            stroke_width=1,
        )
        self.draw_circles(
            list(inter.keys()),
            fill=COLORS.TRANSPARENT,
            stroke=COLORS.BLUE + (200,),
            radius=3,
        )
        return self

    # -- output -----------------------------------------------------------

    def to_png_bytes(self) -> bytes:
        return encode_png(self.annotated.img)

    def _repr_png_(self) -> bytes:
        return self.to_png_bytes()

    def save(self, dest, format: str = "PNG", **kwargs: Any) -> None:
        if format.upper() != "PNG":
            raise ValueError("only PNG output is supported")
        data = self.to_png_bytes()
        if hasattr(dest, "write"):
            dest.write(data)
        else:
            with open(dest, "wb") as f:
                f.write(data)


def _as_obj_list(objs: Any) -> List[Any]:
    if isinstance(objs, dict) and "x0" in objs:
        return list(_obj_arrays_iter(objs))
    if hasattr(objs, "to_dict") and hasattr(objs, "columns"):
        # pandas DataFrame (reference utils.to_list, display.py draw_*)
        return objs.to_dict("records")
    return list(objs)


def _char_table(chars: Any) -> Optional[Dict[str, np.ndarray]]:
    """chars (dict-of-arrays or list of dicts) -> CharTable arrays."""
    if chars is None:
        return None
    if isinstance(chars, dict):
        if np.asarray(chars.get("x0", ())).shape[0] == 0:
            return None
        return {k: np.asarray(v) for k, v in chars.items()}
    if not chars:
        return None
    keys = [
        k
        for k in (
            "text", "x0", "x1", "top", "bottom", "doctop", "size",
            "fontname", "upright", "adv",
        )
        if k in chars[0]
    ]
    out: Dict[str, np.ndarray] = {}
    for k in keys:
        vals = [c.get(k) for c in chars]
        if k in ("text", "fontname"):
            out[k] = np.asarray(vals, dtype=object)
        elif k == "upright":
            out[k] = np.asarray(vals, dtype=bool)
        else:
            out[k] = np.asarray(vals, dtype=np.float64)
    return out


def _arrayify_page(page: Dict[str, Any]) -> Dict[str, Any]:
    """Row-dict object lists -> ObjArrays columns where needed so the
    table kernels (which expect arrays) accept a raw PAGES row."""
    out = dict(page)
    for key in ("rects", "lines"):
        objs = out.get(key)
        if objs is None or isinstance(objs, dict):
            continue
        out[key] = {
            f: np.asarray([float(o[f]) for o in objs], dtype=np.float64)
            for f in ("x0", "top", "x1", "bottom")
        }
    if isinstance(out.get("rects"), dict) and "x0" in out["rects"]:
        out["rects"] = {k: np.asarray(v) for k, v in out["rects"].items()}
    chars = out.get("chars")
    if chars is not None and not isinstance(chars, dict):
        out["chars"] = _char_table(chars) or {"x0": np.empty(0)}
    return out


def page_images_batch(batch, resolution: Union[int, float] = DEFAULT_RESOLUTION):
    """PAGES rows -> one PNG per page: (doc_id, page_number, img_width,
    img_height, png). A ``map_batches`` stage (pyarrow in/out); rendering
    is per-page independent, so Ray parallelizes by block."""
    import pyarrow as pa

    from .stages.decode import arrow_pages_to_dicts

    import zlib

    doc_ids: List[str] = []
    page_numbers: List[int] = []
    widths: List[int] = []
    heights: List[int] = []
    pngs: List[bytes] = []
    raster_crcs: List[int] = []
    for doc_id, page in arrow_pages_to_dicts(batch):
        img = PageImage(page, resolution=resolution)
        doc_ids.append(doc_id)
        page_numbers.append(int(page["page_number"]))
        widths.append(img.annotated.img.shape[1])
        heights.append(img.annotated.img.shape[0])
        pngs.append(img.to_png_bytes())
        # checksum the RAW raster, not the encoded PNG: different zlib
        # builds (zlib vs zlib-ng) emit different streams at the same
        # level, so a PNG-byte crc would pin goldens to the zlib build.
        raster_crcs.append(
            zlib.crc32(img.annotated.img.tobytes()) & 0xFFFFFFFF
        )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "page_number": pa.array(page_numbers, pa.int32()),
            "img_width": pa.array(widths, pa.int32()),
            "img_height": pa.array(heights, pa.int32()),
            "png": pa.array(pngs, pa.binary()),
            "raster_crc32": pa.array(raster_crcs, pa.int64()),
        }
    )
