"""Deterministic span -> page-geometry layout (the synthetic decode kernel).

Plays the role of the reference's pdfminer interpreter step
(reference page.py:265-277 ``Page.layout`` + page.py:335-400
``process_object``): input-document spans are laid onto monospace pages,
producing the typed char/rect/image object tables the extraction kernels
consume. The layout is constructed so extraction *inverts* it exactly:

* every text/heading span starts a new block; blocks are separated by one
  blank line, so successive in-block lines are ``line_height`` apart and
  block boundaries are > ``para_gap_threshold`` apart;
* a maximal run of ``table_cell`` spans becomes a lattice grid of rects
  (``table_cols`` columns); runs taller than a page split at row
  boundaries into per-page grids — the row-major cell sequence is
  preserved across the split;
* ``media_ref`` spans become image objects carrying their ref;
* blocks never split across pages, so per-page extraction is complete.

Output pages are struct-of-numpy-array tables (zero-copy into the word /
table kernels), one dict per page. A document's glyphs, rects and lines
are expanded once, as whole-document arrays, and each page dict holds
slices of them, so a document costs a fixed number of numpy calls however
many pages it has.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SynthLayoutConfig

PageDict = Dict[str, object]


class LayoutError(ValueError):
    """Raised when a span cannot be laid out (quarantined by the stage)."""


def wrap_words(text: str, max_chars: int) -> List[str]:
    """Greedy word wrap over single-space separators; a single over-long
    word gets its own line. Each line is the longest run of whole words
    (the spaces between them kept) that fits in ``max_chars``: it ends
    before the last space that keeps it within the limit. The space a line
    breaks on and any spaces that would start a line are dropped."""
    lines: List[str] = []
    n = len(text)
    start = n - len(text.lstrip(" "))
    while start < n:
        if n - start <= max_chars:
            lines.append(text[start:])
            break
        cut = text.rfind(" ", start, start + max_chars + 1)
        if cut < 0:
            cut = text.find(" ", start)
            if cut < 0:
                lines.append(text[start:])
                break
        lines.append(text[start:cut])
        start = cut + 1
        while start < n and text[start] == " ":
            start += 1
    return lines or [""]


class _DocBuilder:
    """Accumulates a document's glyph runs, rects and lines in flat Python
    lists, one per field, and marks where each page's records start.
    ``finish`` materializes the numpy arrays once per document, and each
    page dict holds slices of them (per-line, then per-page array
    allocation was the layout hot spot)."""

    def __init__(self, cfg: SynthLayoutConfig):
        self.cfg = cfg
        self.page = 0
        self.initial_doctop = 0.0
        # glyph runs, expanded vectorized in finish(): upright text has one
        # run per line, rotated text one per glyph
        self.up = _Runs()
        self.rot = _Runs()
        self.r_x0: List[float] = []
        self.r_x1: List[float] = []
        self.r_top: List[float] = []
        self.r_bottom: List[float] = []
        self.r_doctop: List[float] = []
        self.r_mcid: List[int] = []
        self.r_tag: List[str] = []
        self.l_x0: List[float] = []
        self.l_x1: List[float] = []
        self.l_top: List[float] = []
        self.l_doctop: List[float] = []
        # each page's first upright run, rotated glyph, rect and line
        self.marks: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        self.images: List[List[Dict[str, object]]] = [[]]
        self.annots: List[List[Dict[str, object]]] = [[]]
        self.curves: List[List[Dict[str, object]]] = [[]]

    def _counts(self) -> Tuple[int, int, int, int]:
        return len(self.up.text), len(self.rot.text), len(self.r_x0), len(self.l_x0)

    def new_page(self) -> None:
        self.page += 1
        self.initial_doctop = self.page * self.cfg.page_height
        self.marks.append(self._counts())
        for per_page in (self.images, self.annots, self.curves):
            per_page.append([])

    def emit_line_chars(
        self, line: str, line_top: float, size: float, fontname: str,
        x_left: float, mcid: int = -1, tag: str = "P",
    ) -> None:
        if line:
            self.up.add(line, x_left, line_top, line_top + self.initial_doctop, size,
                        fontname, mcid, tag)

    def emit_rotated_chars(
        self, text: str, block_top: float, size: float, fontname: str,
        x_left: float, advance: float, mcid: int = -1, tag: str = "H",
    ) -> None:
        """Vertical (rotated, upright=False) char run: glyphs stack
        top-to-bottom at a fixed x; spaces advance the cursor but emit no
        glyph — the rotated word-break semantics of the reference's
        char_dir_rotated path (utils/text.py:55-75)."""
        for j, ch in enumerate(text):
            if ch != " ":
                top = block_top + j * advance
                self.rot.add(ch, x_left, top, top + self.initial_doctop, size, fontname, mcid, tag)

    def emit_rect(
        self, x0: float, top: float, x1: float, bottom: float,
        mcid: int = -1, tag: str = "TD",
    ) -> None:
        self.r_x0.append(x0)
        self.r_x1.append(x1)
        self.r_top.append(top)
        self.r_bottom.append(bottom)
        self.r_doctop.append(top + self.initial_doctop)
        self.r_mcid.append(mcid)
        self.r_tag.append(tag)

    def emit_line_obj(self, x0: float, x1: float, top: float) -> None:
        self.l_x0.append(x0)
        self.l_x1.append(x1)
        self.l_top.append(top)
        self.l_doctop.append(top + self.initial_doctop)

    def emit_image(
        self, x0: float, top: float, x1: float, bottom: float, ref: str,
        mcid: int = -1,
    ) -> None:
        self.images[self.page].append(
            {"x0": x0, "top": top, "x1": x1, "bottom": bottom,
             "media_ref": ref, "mcid": mcid, "tag": "Figure"}
        )

    def emit_curve(self, pts: List[tuple]) -> None:
        """Curve object from ordered (x, top) points (reference
        page.py:386-393). Diagonal point-pair segments are dropped by the
        table stage's orientation filter, so decorative curves never form
        spurious lattice cells."""
        xs = [p[0] for p in pts]
        tops = [p[1] for p in pts]
        top = min(tops)
        self.curves[self.page].append(
            {
                "x0": min(xs), "x1": max(xs), "top": top, "bottom": max(tops),
                "doctop": top + self.initial_doctop,
                "pts": [{"x": x, "top": t} for x, t in pts],
                # drawing commands + dash pattern (reference 0.11.0
                # curve["path"] / curve["dash"])
                "path": [
                    {"cmd": "m" if j == 0 else "l", "x": x, "top": t}
                    for j, (x, t) in enumerate(pts)
                ],
                "dash": {"array": [2.0, 1.0], "phase": 0.0},
            }
        )

    def emit_annot(
        self, x0: float, top: float, x1: float, bottom: float,
        uri: str = "", contents: str = "",
    ) -> None:
        """Annotation record (reference page.py:280-319: resolved /Annots
        entries with uri/contents and a top-left-origin bbox). The synthetic
        rule: headings carry a contents annotation, media a uri (link)
        annotation — so hyperlinks = annots with non-empty uri, mirroring
        reference page.py:321-323."""
        self.annots[self.page].append(
            {
                "x0": x0, "top": top, "x1": x1, "bottom": bottom,
                "doctop": top + self.initial_doctop,
                "uri": uri, "contents": contents,
            }
        )

    def _chars(self) -> Tuple[Dict[str, np.ndarray], List[int]]:
        """Vectorized per-run -> per-glyph expansion of the whole document,
        each page's upright glyphs before its rotated ones, and the offsets
        of each page's glyphs. A document takes a few dozen numpy calls,
        however many pages and runs it has."""
        up, rot = self.up, self.rot
        n_up, n_rot = len(up.text), len(rot.text)
        if not n_up + n_rot:
            chars = _empty_chars()
            chars["width"] = chars["x1"] - chars["x0"]
            chars["height"] = chars["bottom"] - chars["top"]
            return chars, [0] * (len(self.marks) + 1)
        cfg = self.cfg
        bounds = self.marks + [self._counts()]
        runs = [u + r for u, r in zip(up.columns(), rot.columns())]
        if n_rot:
            # each page's upright runs, then its rotated glyphs
            order = [
                i
                for (u0, g0, *_), (u1, g1, *_) in zip(bounds, bounds[1:])
                for i in (*range(u0, u1), *range(n_up + g0, n_up + g1))
            ]
            runs = [[col[i] for i in order] for col in runs]
        text, x_left, top, doctop, size, font, mcid, tag = runs
        all_text = "".join(text)
        # spaces advance the cursor but are not glyphs
        kept = [len(t) - t.count(" ") for t in text]
        starts = list(accumulate(map(len, text), initial=0))[:-1]
        pos = np.flatnonzero(
            np.frombuffer(all_text.encode("utf-32-le", "surrogatepass"), np.uint32) != 32
        )
        # a glyph's index within its run: its x advance (0 for a rotated
        # glyph, a run of its own)
        k = pos - np.repeat(starts, kept)
        run_size = np.array(size, dtype=np.float64)
        xl, tp, sz, dt = np.repeat(np.array((x_left, top, size, doctop), dtype=np.float64), kept, axis=1)
        # per-char text matrix (reference page.py:367-384 stamps pdfminer's
        # 6-tuple; columnar engine stores the six components flat): upright
        # glyphs render with (size, 0, 0, size, x0, y_baseline), rotated
        # (90 deg) ones with (0, size, -size, 0, x0, y_baseline)
        zero = np.zeros_like(run_size)
        if n_rot:
            is_rot = np.array([i >= n_up for i in order])
            run_a = np.where(is_rot, zero, run_size)
            run_b = np.where(is_rot, run_size, zero)
            run_c = np.where(is_rot, -run_size, zero)
            a, b, c = np.repeat(np.stack((run_a, run_b, run_c)), kept, axis=1)
        else:
            run_a, run_b, run_c = run_size, zero, zero
            a, b, c = sz, np.zeros_like(sz), np.zeros_like(sz)
        x0 = xl + k * cfg.char_advance
        x1 = x0 + cfg.char_width
        bottom = tp + sz
        chars = {
            "text": np.fromiter(all_text.replace(" ", ""), dtype=object, count=k.shape[0]),
            "x0": x0,
            "x1": x1,
            "top": tp,
            "bottom": bottom,
            "doctop": dt,
            "size": sz,
            "fontname": np.repeat(np.array(font, dtype=object), kept),
            # upright derived from the matrix exactly as the reference
            # does (layout.py LTChar: 0 < a*d*scaling and b*c <= 0)
            "upright": np.repeat(_upright_from_matrix(run_a, run_b, run_c, run_a), kept),
            "mcid": np.repeat(np.array(mcid, dtype=np.int32), kept),
            "tag": np.repeat(np.array(tag, dtype=object), kept),
            "mat_a": a,
            "mat_b": b,
            "mat_c": c,
            "mat_d": a,
            "mat_e": x0,
            "mat_f": cfg.page_height - bottom,
            "width": x1 - x0,
            "height": bottom - tp,
        }
        run_end = list(accumulate(kept, initial=0))
        return chars, [run_end[u + g] for u, g, *_ in bounds]

    def finish(self) -> List[PageDict]:
        """The document's pages: one dict per page whose object tables are
        slices of the document's arrays (a one-page document's are the
        arrays themselves)."""
        cfg = self.cfg
        chars, char_offsets = self._chars()
        x0, x1, top, bottom, doctop = np.array(
            (self.r_x0, self.r_x1, self.r_top, self.r_bottom, self.r_doctop), dtype=np.float64
        )
        rects = {
            "x0": x0,
            "x1": x1,
            "top": top,
            "bottom": bottom,
            "mcid": np.array(self.r_mcid, dtype=np.int32),
            "tag": np.array(self.r_tag, dtype=object),
            "doctop": doctop,
        }
        x0, x1, top, bottom, doctop = np.array(
            (self.l_x0, self.l_x1, self.l_top, self.l_top, self.l_doctop), dtype=np.float64
        )
        n_l = len(self.l_x0)
        lines = {
            "x0": x0,
            "x1": x1,
            "top": top,
            "mcid": np.full(n_l, -1, dtype=np.int32),
            "tag": np.full(n_l, "Artifact", dtype=object),
            "bottom": bottom,
            "doctop": doctop,
        }
        tables = (chars, rects, lines)
        offsets = (
            char_offsets,
            [m[2] for m in self.marks] + [len(self.r_x0)],
            [m[3] for m in self.marks] + [n_l],
        )
        n_pages = len(self.marks)
        pages: List[PageDict] = []
        for p in range(n_pages):
            views = tables if n_pages == 1 else [
                {k: v[o[p] : o[p + 1]] for k, v in cols.items()} for cols, o in zip(tables, offsets)
            ]
            pages.append({
                "page_number": p + 1,
                "page_width": cfg.page_width,
                "page_height": cfg.page_height,
                "initial_doctop": p * cfg.page_height,
                "chars": views[0],
                "rects": views[1],
                "lines": views[2],
                "images": self.images[p],
                "annots": self.annots[p],
                "curves": self.curves[p],
            })
        return pages


class _Runs:
    """Glyph runs as one flat list per field."""

    def __init__(self) -> None:
        self.text: List[str] = []
        self.x_left: List[float] = []
        self.top: List[float] = []
        self.doctop: List[float] = []
        self.size: List[float] = []
        self.font: List[str] = []
        self.mcid: List[int] = []
        self.tag: List[str] = []

    def add(self, text, x_left, top, doctop, size, font, mcid, tag) -> None:
        self.text.append(text)
        self.x_left.append(x_left)
        self.top.append(top)
        self.doctop.append(doctop)
        self.size.append(size)
        self.font.append(font)
        self.mcid.append(mcid)
        self.tag.append(tag)

    def columns(self) -> Tuple[List, ...]:
        return self.text, self.x_left, self.top, self.doctop, self.size, self.font, self.mcid, self.tag


def _upright_from_matrix(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Reference LTChar upright rule: ``0 < a*d*scaling and b*c <= 0``
    (pdfminer layout model; scaling is positive here)."""
    return (a * d > 0) & (b * c <= 0)


def _empty_chars() -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {
        k: np.empty(0, dtype=np.float64)
        for k in (
            "x0", "x1", "top", "bottom", "doctop", "size",
            "mat_a", "mat_b", "mat_c", "mat_d", "mat_e", "mat_f",
        )
    }
    out["text"] = np.empty(0, dtype=object)
    out["fontname"] = np.empty(0, dtype=object)
    out["upright"] = np.empty(0, dtype=bool)
    out["mcid"] = np.empty(0, dtype=np.int32)
    out["tag"] = np.empty(0, dtype=object)
    return out


def layout_doc(spans: Sequence[Dict], cfg: Optional[SynthLayoutConfig] = None) -> List[PageDict]:
    """Lay a document's span sequence (list of span dicts) onto pages."""
    return layout_doc_fields(
        [s["kind"] for s in spans],
        [s["text"] for s in spans],
        [s["media_ref"] for s in spans],
        cfg,
    )


def layout_doc_fields(
    kinds: Sequence[str],
    texts: Sequence[str],
    medias: Sequence[str],
    cfg: Optional[SynthLayoutConfig] = None,
) -> List[PageDict]:
    """Array-of-fields layout entry (the hot path): the decode stage slices
    these directly out of the Arrow span struct children, so no per-span
    Python dicts are ever materialized. ``offset`` is not consumed — the
    layout re-derives geometry from text alone."""
    cfg = cfg or SynthLayoutConfig()
    builder = _DocBuilder(cfg)
    li = 0  # next free line slot on the current page

    def line_top(slot: int) -> float:
        return cfg.margin_top + slot * cfg.line_height

    def new_page() -> None:
        nonlocal li
        builder.new_page()
        li = 0

    def ensure_lines(n: int) -> None:
        nonlocal li
        if n > cfg.lines_per_page:
            raise LayoutError(
                f"block of {n} lines exceeds page capacity {cfg.lines_per_page}"
            )
        if li + n > cfg.lines_per_page and li > 0:
            new_page()

    def emit_text_block(text: str, heading: bool, mcid: int = -1) -> None:
        nonlocal li
        size = cfg.heading_size if heading else cfg.body_size
        font = cfg.heading_font if heading else cfg.body_font
        if heading and cfg.rotate_short_headings and len(text) <= 24 and len(text) % 2 == 0:
            # deterministic content rule; extraction never needs it — it
            # reconstructs the block from upright=False geometry alone
            adv = cfg.rotated_advance
            n_slots = max(1, math.ceil((len(text) * adv + size) / cfg.line_height))
            ensure_lines(n_slots)
            builder.emit_rotated_chars(
                text, line_top(li), size, font, cfg.margin_left, adv, mcid
            )
            builder.emit_annot(
                cfg.margin_left, line_top(li), cfg.margin_left + cfg.char_width,
                line_top(li) + len(text) * adv, contents=text,
            )
            li += n_slots + 1
            return
        tag = "H" if heading else "P"
        lines = wrap_words(text, cfg.max_line_chars)
        ensure_lines(len(lines))
        if heading:
            block_w = max(len(ln) for ln in lines) * cfg.char_advance
            builder.emit_annot(
                cfg.margin_left, line_top(li), cfg.margin_left + block_w,
                line_top(li + len(lines) - 1) + size, contents=text,
            )
        first_w = len(lines[0]) * cfg.char_advance
        for line in lines:
            builder.emit_line_chars(
                line, line_top(li), size, font, cfg.margin_left, mcid, tag
            )
            li += 1
        if heading and first_w > 0:
            # decorative underline: a zero-height line object in the blank
            # gap; carried through the object model (reference 'line'
            # objects) but invisible to text/tables extraction
            builder.emit_line_obj(
                cfg.margin_left, cfg.margin_left + first_w, line_top(li - 1) + size + 1.0
            )
        li += 1  # blank separator line -> paragraph gap

    def emit_table_run(cells: List[str], mcids: List[int]) -> None:
        nonlocal li
        ncols = max(2, min(cfg.table_cols, len(cells)))
        width_chars = max(len(c) for c in cells) + 2 * cfg.cell_pad_chars
        col_w = width_chars * cfg.char_advance
        cell_h = cfg.cell_height_lines * cfg.line_height
        rows_per_page = max(1, cfg.lines_per_page // cfg.cell_height_lines - 1)
        i = 0
        while i < len(cells):
            chunk = cells[i : i + rows_per_page * ncols]
            chunk_mcids = mcids[i : i + rows_per_page * ncols]
            i += len(chunk)
            nrows = math.ceil(len(chunk) / ncols)
            ensure_lines(nrows * cfg.cell_height_lines)
            grid_top = line_top(li)
            for j, cell_text in enumerate(chunk):
                r, c = divmod(j, ncols)
                cx0 = cfg.margin_left + c * col_w
                ctop = grid_top + r * cell_h
                builder.emit_rect(
                    cx0, ctop, cx0 + col_w, ctop + cell_h, chunk_mcids[j], "TD"
                )
                pad = cfg.cell_pad_chars * cfg.char_advance
                text_top = ctop + (cell_h - cfg.body_size) / 2.0
                builder.emit_line_chars(
                    cell_text, text_top, cfg.body_size, cfg.body_font,
                    cx0 + pad, chunk_mcids[j], "TD",
                )
            li += nrows * cfg.cell_height_lines + 1

    def emit_media(ref: str, mcid: int = -1) -> None:
        nonlocal li
        ensure_lines(cfg.media_height_lines)
        top = line_top(li)
        bottom = top + cfg.media_height_lines * cfg.line_height
        builder.emit_image(
            cfg.margin_left, top, cfg.margin_left + cfg.media_width, bottom, ref,
            mcid,
        )
        builder.emit_annot(
            cfg.margin_left, top, cfg.margin_left + cfg.media_width, bottom, uri=ref
        )
        # decorative zigzag under the image: a real curve object (5 pts, 4
        # diagonal segments)
        w = cfg.media_width
        builder.emit_curve(
            [
                (cfg.margin_left, bottom + 2.0),
                (cfg.margin_left + w / 4, bottom + 4.0),
                (cfg.margin_left + w / 2, bottom + 2.0),
                (cfg.margin_left + 3 * w / 4, bottom + 4.0),
                (cfg.margin_left + w, bottom + 2.0),
            ]
        )
        li += cfg.media_height_lines + 1

    i = 0
    n = len(kinds)
    while i < n:
        kind = kinds[i]
        if kind == "table_cell":
            run = [texts[i]]
            run_mcids = [i]
            while i + 1 < n and kinds[i + 1] == "table_cell":
                i += 1
                run.append(texts[i])
                run_mcids.append(i)
            emit_table_run(run, run_mcids)
        elif kind == "media_ref":
            emit_media(medias[i], i)
        elif kind == "heading":
            emit_text_block(texts[i], heading=True, mcid=i)
        else:  # text (default)
            emit_text_block(texts[i], heading=False, mcid=i)
        i += 1

    return builder.finish()
