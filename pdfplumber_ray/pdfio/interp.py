"""Content-stream interpreter: PDF operators -> flat object records.

Executes a page's content stream (text state machine, path construction,
XObject recursion, marked-content stamping) and emits char/line/rect/
curve/image dicts in pdfplumber's top-left coordinate convention
(reference page.py:335-400 ``process_object``: ``top = height - y1``,
``doctop = initial_doctop + top``).

Geometry follows pdfminer.six's documented layout model so the engine's
word/textmap/table kernels reproduce the reference goldens:

- text advance: ``adv = char_width(cid) * fontsize * (Tz/100)``
- char bbox: ``(0, descent+rise) .. (adv, descent+rise+fontsize)`` in
  text space, transformed by (Tm x CTM)
- ``upright = 0 < a*d*scaling and b*c <= 0``
- TJ number adjustments: ``x -= v * 0.001 * fontsize * scaling``
- word spacing applies to single-byte code 32 only
- paths: rect/line/curve classification by subpath shape, with the
  closed-loop + square-coordinates rect test
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .document import PDFDocument, PDFPage
from .fonts import PDFFontBase, load_font
from .syntax import KW_EI, PDFStream, PSKeyword, tokenize_content

Matrix = Tuple[float, float, float, float, float, float]
Point = Tuple[float, float]

MATRIX_IDENTITY: Matrix = (1, 0, 0, 1, 0, 0)


def mult_matrix(m1: Matrix, m0: Matrix) -> Matrix:
    a1, b1, c1, d1, e1, f1 = m1
    a0, b0, c0, d0, e0, f0 = m0
    return (
        a0 * a1 + c0 * b1,
        b0 * a1 + d0 * b1,
        a0 * c1 + c0 * d1,
        b0 * c1 + d0 * d1,
        a0 * e1 + c0 * f1 + e0,
        b0 * e1 + d0 * f1 + f0,
    )


def translate_matrix(m: Matrix, v: Point) -> Matrix:
    a, b, c, d, e, f = m
    x, y = v
    return (a, b, c, d, x * a + y * c + e, x * b + y * d + f)


def apply_matrix_pt(m: Matrix, p: Point) -> Point:
    a, b, c, d, e, f = m
    x, y = p
    return (a * x + c * y + e, b * x + d * y + f)


class _GState:
    __slots__ = ("ctm", "linewidth", "dash", "scolor", "ncolor", "scs", "ncs")

    def __init__(self, ctm: Matrix):
        self.ctm = ctm
        self.linewidth: float = 0.0
        self.dash: Tuple[list, float] = ([], 0.0)
        self.scolor: Any = None
        self.ncolor: Any = None
        self.scs: Optional[str] = None
        self.ncs: Optional[str] = None

    def copy(self) -> "_GState":
        g = _GState(self.ctm)
        g.linewidth = self.linewidth
        g.dash = self.dash
        g.scolor = self.scolor
        g.ncolor = self.ncolor
        g.scs = self.scs
        g.ncs = self.ncs
        return g


class _TState:
    __slots__ = (
        "font", "fontsize", "charspace", "wordspace", "scaling",
        "leading", "rise", "render", "matrix", "linematrix",
    )

    def __init__(self) -> None:
        self.font: Optional[PDFFontBase] = None
        self.fontsize: float = 0.0
        self.charspace: float = 0.0
        self.wordspace: float = 0.0
        self.scaling: float = 100.0
        self.leading: float = 0.0
        self.rise: float = 0.0
        self.render: int = 0
        self.matrix: Matrix = MATRIX_IDENTITY
        self.linematrix: Point = (0.0, 0.0)

    def copy(self) -> "_TState":
        t = _TState.__new__(_TState)
        for name in _TState.__slots__:
            setattr(t, name, getattr(self, name))
        return t


def _num(v: Any, default: float = 0.0) -> float:
    c = v.__class__
    if c is float:
        return v
    if c is int or c is bool:
        return float(v)
    return default


def _read_array(toks: List[Any], i: int) -> Tuple[List[Any], int]:
    """Tokens after '[' -> (array, index after ']')."""
    out: List[Any] = []
    n = len(toks)
    while i < n:
        t = toks[i]
        i += 1
        if t == "]":
            break
        if t == "[":
            v, i = _read_array(toks, i)
            out.append(v)
        elif t == "<<":
            v, i = _read_dict(toks, i)
            out.append(v)
        elif isinstance(t, tuple):
            out.append(t[1])
        elif not isinstance(t, (str, PSKeyword)):
            out.append(t)
    return out, i


def _read_dict(toks: List[Any], i: int) -> Tuple[Dict[str, Any], int]:
    """Tokens after '<<' -> (dict, index after '>>')."""
    d: Dict[str, Any] = {}
    n = len(toks)
    while i < n:
        t = toks[i]
        i += 1
        if t == ">>":
            break
        if isinstance(t, tuple) and i < n:
            key = t[1]
            v = toks[i]
            i += 1
            if v == "[":
                d[key], i = _read_array(toks, i)
            elif v == "<<":
                d[key], i = _read_dict(toks, i)
            elif isinstance(v, tuple):
                d[key] = v[1]
            elif isinstance(v, PSKeyword):
                d[key] = {"true": True, "false": False}.get(v.name)
            else:
                d[key] = v
    return d, i


class PageInterpreter:
    """Interprets one page; collects flat object dicts per kind."""

    def __init__(
        self,
        doc: PDFDocument,
        page: PDFPage,
        initial_doctop: float = 0.0,
        max_form_depth: int = 8,
    ):
        self.doc = doc
        self.page = page
        self.initial_doctop = initial_doctop
        self.max_form_depth = max_form_depth

        x0, y0, x1, y1 = page.mediabox
        x0, x1 = sorted((x0, x1))
        y0, y1 = sorted((y0, y1))
        rotate = page.rotate
        # pdfminer PDFPageInterpreter.process_page rotation CTMs
        if rotate == 90:
            base_ctm: Matrix = (0, -1, 1, 0, -y0, x1)
            self.width, self.height = (y1 - y0), (x1 - x0)
        elif rotate == 180:
            base_ctm = (-1, 0, 0, -1, x1, y1)
            self.width, self.height = (x1 - x0), (y1 - y0)
        elif rotate == 270:
            base_ctm = (0, 1, -1, 0, y1, -x0)
            self.width, self.height = (y1 - y0), (x1 - x0)
        else:
            base_ctm = (1, 0, 0, 1, -x0, -y0)
            self.width, self.height = (x1 - x0), (y1 - y0)
        self.base_ctm = base_ctm

        # chars are struct-of-arrays: 9 per-glyph parallel lists plus one
        # run record per show operation for the fields that cannot change
        # within it (font, text-matrix a..d, marked content, colors).
        # ``chars`` (dict view) materializes lazily for kernel/test use;
        # the production reader consumes ``char_columns()`` directly.
        self._c_text: List[str] = []
        self._c_x0: List[float] = []
        self._c_x1: List[float] = []
        self._c_top: List[float] = []
        self._c_bottom: List[float] = []
        self._c_size: List[float] = []
        self._c_adv: List[float] = []
        self._c_e: List[float] = []
        self._c_f: List[float] = []
        # (end_index, fontname, upright, a, b, c, d, mcid, tag, ncs,
        #  scolor, ncolor, in_figure)
        self._c_runs: List[tuple] = []
        self._chars_view: Optional[List[Dict]] = None
        # bound appenders, unpacked once per show op (the per-call
        # attribute+method lookups were measurable: strings average
        # under ten glyphs)
        self._c_append = (
            self._c_text.append, self._c_x0.append, self._c_x1.append,
            self._c_top.append, self._c_bottom.append, self._c_size.append,
            self._c_adv.append, self._c_e.append, self._c_f.append,
        )
        self.lines: List[Dict] = []
        self.rects: List[Dict] = []
        self.curves: List[Dict] = []
        self.images: List[Dict] = []

        self._font_cache: Dict[int, PDFFontBase] = {}
        self.cur_mcid: Optional[int] = None
        self.cur_tag: Optional[str] = None
        self._form_depth = 0  # >0 while executing a Form XObject

    # ---- entry ----

    def run(self) -> None:
        content = self.page.content_bytes()
        self.gs = _GState(self.base_ctm)
        self.ts = _TState()
        self.gstack: List[Tuple[_GState, _TState]] = []
        self.execute(content, self.page.resources, depth=0)

    # ---- helpers ----

    def _top(self, y1: float) -> float:
        return self.height - y1

    def _get_font(self, resources: dict, name: str) -> PDFFontBase:
        # two-level cache: (resources identity, name) within this page,
        # then resolved-spec identity on the document so a font shared
        # across pages parses once per document, not once per page
        rkey = (id(resources), name)
        f = self._font_cache.get(rkey)
        if f is not None:
            return f
        fonts = self.doc.resolve(resources.get("Font")) or {}
        spec = fonts.get(name)
        spec_r = self.doc.resolve(spec)
        doc_cache = self.doc._font_obj_cache
        key = id(spec_r) if spec_r is not None else hash(name)
        f = doc_cache.get(key)
        if f is None:
            f = load_font(spec_r if spec_r is not None else {}, self.doc)
            doc_cache[key] = f
        self._font_cache[rkey] = f
        return f

    # ---- text rendering ----

    def _render_string(self, seq: List[Any]) -> None:
        ts = self.ts
        font = ts.font
        if font is None:
            return
        matrix = mult_matrix(ts.matrix, self.gs.ctm)
        fontsize = ts.fontsize
        scaling = ts.scaling * 0.01
        charspace = ts.charspace * scaling
        wordspace = ts.wordspace * scaling
        rise = ts.rise
        if font.multibyte:
            wordspace = 0.0
        dxscale = 0.001 * fontsize * scaling
        if font.vertical:
            ts.linematrix = self._render_vertical(
                seq, matrix, ts.linematrix, font, fontsize, scaling,
                charspace, wordspace, rise, dxscale,
            )
            return
        ts.linematrix = self._render_horizontal(
            seq, matrix, ts.linematrix, font, fontsize, scaling,
            charspace, wordspace, rise, dxscale,
        )

    def _render_vertical(
        self, seq, matrix, pos, font, fontsize, scaling,
        charspace, wordspace, rise, dxscale,
    ) -> Point:
        """Vertical writing mode (ISO 32000-1 §9.7.4; pdfminer
        render_string_vertical + LTChar vertical-bbox semantics, which
        the reference inherits): the pen advances along -v by the w1y
        displacement; the glyph bbox hangs left of the position vector
        (-vx .. -vx+fontsize) with vy measured down from 1000."""
        x, y = pos
        needcharspace = False
        (a, b, c, d, e0, f0) = matrix
        upright = (0 < a * d * scaling) and (b * c <= 0)
        height = self.height
        widths = font.widths
        default_width = font.default_width
        to_unichr = font.to_unichr
        char_disp = font.char_disp
        half = fontsize * 0.5

        start = len(self._c_text)
        (
            ap_text, ap_x0, ap_x1, ap_top, ap_bottom, ap_size,
            ap_adv, ap_e, ap_f,
        ) = self._c_append

        for obj in seq:
            if isinstance(obj, (int, float)):
                y -= obj * dxscale
                needcharspace = True
            elif isinstance(obj, bytes):
                for cid in font.decode(obj):
                    if needcharspace:
                        y += charspace
                    try:
                        text = to_unichr(cid)
                    except KeyError:
                        text = f"(cid:{cid})"
                    w = widths.get(cid)
                    if w is None:
                        w = default_width
                    adv = w * 0.001 * fontsize * scaling
                    vx, vy = char_disp(cid)
                    vx = half if vx is None else vx * fontsize * 0.001
                    vy = (1000 - vy) * fontsize * 0.001
                    # char matrix translation (translate_matrix order)
                    e = x * a + y * c + e0
                    f = x * b + y * d + f0
                    # LTChar vertical corners: ll=(-vx, vy+rise+adv),
                    # ur=(-vx+fontsize, vy+rise), then apply_matrix_pt
                    lx, ly = -vx, vy + rise + adv
                    ux, uy = -vx + fontsize, vy + rise
                    ll_x = a * lx + c * ly + e
                    ll_y = b * lx + d * ly + f
                    ur_x = a * ux + c * uy + e
                    ur_y = b * ux + d * uy + f
                    if ur_x < ll_x:
                        ll_x, ur_x = ur_x, ll_x
                    if ur_y < ll_y:
                        ll_y, ur_y = ur_y, ll_y
                    ap_text(text)
                    ap_x0(ll_x)
                    ap_x1(ur_x)
                    ap_top(height - ur_y)
                    ap_bottom(height - ll_y)
                    ap_size(ur_x - ll_x)  # vertical glyphs size by width
                    ap_adv(adv)
                    ap_e(e)
                    ap_f(f)
                    y += adv
                    if cid == 32 and wordspace:
                        y += wordspace
                    needcharspace = True
        if len(self._c_text) > start:
            gs = self.gs
            self._c_runs.append(
                (
                    len(self._c_text), font.fontname, upright, a, b, c, d,
                    self.cur_mcid, self.cur_tag, gs.ncs, gs.scolor,
                    gs.ncolor, self._form_depth > 0,
                )
            )
            self._chars_view = None
        return (x, y)

    def _render_horizontal(
        self, seq, matrix, pos, font, fontsize, scaling,
        charspace, wordspace, rise, dxscale,
    ) -> Point:
        x, y = pos
        needcharspace = False

        # constants for the whole string: the text matrix's a..d never
        # change within one show operation, only the (x, y) translation.
        # Float-op ORDER matches translate_matrix/apply_matrix_pt exactly
        # so coordinates stay bit-identical to the generic path.
        (a, b, c, d, e0, f0) = matrix
        dy = font.get_descent() * fontsize + rise
        dy2 = dy + fontsize
        c_dy = c * dy
        d_dy = d * dy
        c_dy2 = c * dy2
        d_dy2 = d * dy2
        upright = (0 < a * d * scaling) and (b * c <= 0)
        height = self.height
        widths = font.widths
        default_width = font.default_width
        to_unichr = font.to_unichr
        glyph_cache = font.glyph_cache
        cache_get = glyph_cache.get
        wscale = font.wscale  # 0.001; Type3 FontMatrix-derived

        start = len(self._c_text)
        (
            ap_text, ap_x0, ap_x1, ap_top, ap_bottom, ap_size,
            ap_adv, ap_e, ap_f,
        ) = self._c_append

        for obj in seq:
            if isinstance(obj, (int, float)):
                x -= obj * dxscale
                needcharspace = True
            elif isinstance(obj, bytes):
                for cid in font.decode(obj):
                    if needcharspace:
                        x += charspace
                    glyph = cache_get(cid)
                    if glyph is None:
                        try:
                            text = to_unichr(cid)
                        except KeyError:
                            text = f"(cid:{cid})"
                        w = widths.get(cid)
                        if w is None:
                            w = default_width
                        glyph = (text, w * wscale)
                        glyph_cache[cid] = glyph
                    text, w001 = glyph
                    # same float-op order as char_width()*fontsize*scaling
                    adv = w001 * fontsize * scaling
                    # char matrix translation (translate_matrix order)
                    e = x * a + y * c + e0
                    f = x * b + y * d + f0
                    ll_x = 0.0 * a + c_dy + e
                    ll_y = 0.0 * b + d_dy + f
                    ur_x = a * adv + c_dy2 + e
                    ur_y = b * adv + d_dy2 + f
                    if ur_x < ll_x:
                        ll_x, ur_x = ur_x, ll_x
                    if ur_y < ll_y:
                        ll_y, ur_y = ur_y, ll_y
                    ap_text(text)
                    ap_x0(ll_x)
                    ap_x1(ur_x)
                    ap_top(height - ur_y)
                    ap_bottom(height - ll_y)
                    ap_size(ur_y - ll_y)
                    ap_adv(adv)
                    ap_e(e)
                    ap_f(f)
                    x += adv
                    if cid == 32 and wordspace:
                        x += wordspace
                    needcharspace = True
        if len(self._c_text) > start:
            gs = self.gs
            self._c_runs.append(
                (
                    len(self._c_text), font.fontname, upright, a, b, c, d,
                    self.cur_mcid, self.cur_tag, gs.ncs, gs.scolor,
                    gs.ncolor, self._form_depth > 0,
                )
            )
            self._chars_view = None
        return (x, y)

    @property
    def chars(self) -> List[Dict]:
        """Per-glyph dicts (kernel/test view), expanded from the
        struct-of-arrays store on first access."""
        if self._chars_view is None:
            out = []
            append = out.append
            initial_doctop = self.initial_doctop
            texts = self._c_text
            x0s, x1s = self._c_x0, self._c_x1
            tops, bottoms = self._c_top, self._c_bottom
            sizes, advs = self._c_size, self._c_adv
            es, fs = self._c_e, self._c_f
            i = 0
            for (
                end, fontname, upright, a, b, c, d, mcid, tag, ncs,
                scolor, ncolor, in_figure,
            ) in self._c_runs:
                while i < end:
                    top = tops[i]
                    append(
                        {
                            "text": texts[i],
                            "x0": x0s[i],
                            "x1": x1s[i],
                            "top": top,
                            "bottom": bottoms[i],
                            "doctop": initial_doctop + top,
                            "size": sizes[i],
                            "adv": advs[i],
                            "fontname": fontname,
                            "upright": upright,
                            "matrix": (a, b, c, d, es[i], fs[i]),
                            "mcid": mcid,
                            "tag": tag,
                            "ncs": ncs,
                            "stroking_color": scolor,
                            "non_stroking_color": ncolor,
                            "in_figure": in_figure,
                        }
                    )
                    i += 1
            self._chars_view = out
        return self._chars_view

    def char_columns(self) -> Dict[str, Any]:
        """CHAR-schema columns as numpy arrays / lists (production path:
        feeds pyarrow directly, no per-glyph dicts)."""
        import numpy as np

        nch = len(self._c_text)
        runs = self._c_runs
        ends = np.fromiter((r[0] for r in runs), dtype=np.int64, count=len(runs))
        counts = np.diff(ends, prepend=0)
        top = np.asarray(self._c_top, dtype=np.float64)

        def rep(idx: int, dtype) -> Any:
            vals = np.array([r[idx] for r in runs], dtype=dtype)
            return np.repeat(vals, counts) if len(runs) else vals

        return {
            "text": self._c_text,
            "x0": np.asarray(self._c_x0, dtype=np.float64),
            "x1": np.asarray(self._c_x1, dtype=np.float64),
            "top": top,
            "bottom": np.asarray(self._c_bottom, dtype=np.float64),
            "doctop": self.initial_doctop + top,
            "size": np.asarray(self._c_size, dtype=np.float64),
            "fontname": rep(1, object),
            "upright": rep(2, bool),
            "mcid": np.repeat(
                np.array(
                    [-1 if r[7] is None else r[7] for r in runs],
                    dtype=np.int32,
                ),
                counts,
            ) if runs else np.empty(0, np.int32),
            "tag": np.repeat(
                np.array([r[8] or "" for r in runs], dtype=object), counts
            ) if runs else np.empty(0, object),
            "mat_a": rep(3, np.float64),
            "mat_b": rep(4, np.float64),
            "mat_c": rep(5, np.float64),
            "mat_d": rep(6, np.float64),
            "mat_e": np.asarray(self._c_e, dtype=np.float64),
            "mat_f": np.asarray(self._c_f, dtype=np.float64),
            "n": nch,
        }

    # ---- path painting ----

    def _paint_path(
        self, stroke: bool, fill: bool, evenodd: bool, path: List[tuple]
    ) -> None:
        shape = "".join(x[0] for x in path)
        if not shape.startswith("m"):
            return
        if shape.count("m") > 1:
            # decompose into single-subpath invocations
            start = 0
            for i in range(1, len(path) + 1):
                if i == len(path) or path[i][0] == "m":
                    self._paint_path(stroke, fill, evenodd, path[start:i])
                    start = i
            return
        ctm = self.gs.ctm
        raw_pts = [
            (p[-2], p[-1]) if p[0] != "h" else (path[0][-2], path[0][-1])
            for p in path
        ]
        pts = [apply_matrix_pt(ctm, pt) for pt in raw_pts]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        bbox = (min(xs), min(ys), max(xs), max(ys))

        # transformed full path with control points, pdfplumber-style
        # (cmd, x, top) steps — control points flattened in order
        path_steps: List[Tuple[str, float, float]] = []
        for p in path:
            cmd = p[0]
            coords = p[1:]
            if cmd == "h":
                px, py = apply_matrix_pt(ctm, (path[0][-2], path[0][-1]))
                path_steps.append(("h", px, self._top(py)))
                continue
            for i in range(0, len(coords), 2):
                px, py = apply_matrix_pt(ctm, (coords[i], coords[i + 1]))
                path_steps.append((cmd, px, self._top(py)))

        common = {
            "x0": bbox[0],
            "x1": bbox[2],
            "top": self._top(bbox[3]),
            "bottom": self._top(bbox[1]),
            "doctop": self.initial_doctop + self._top(bbox[3]),
            "mcid": self.cur_mcid,
            "tag": self.cur_tag,
        }
        if shape in ("mlh", "ml"):
            self.lines.append(common)
            return
        if shape in ("mlllh", "mllll"):
            (x0p, y0p), (x1p, y1p), (x2p, y2p), (x3p, y3p) = pts[0:4]
            p4 = pts[4] if len(pts) > 4 else pts[0]
            is_closed = pts[0] == p4
            has_square = (
                x0p == x1p and y1p == y2p and x2p == x3p and y3p == y0p
            ) or (y0p == y1p and x1p == x2p and y2p == y3p and x3p == x0p)
            if is_closed and has_square:
                self.rects.append(common)
                return
        self.curves.append(
            {
                **common,
                "pts": [(px, self._top(py)) for (px, py) in pts],
                "path": path_steps,
                "dash": {
                    "array": [float(v) for v in self.gs.dash[0]],
                    "phase": float(self.gs.dash[1]),
                },
            }
        )

    # ---- main execution loop ----

    def execute(self, content: bytes, resources: dict, depth: int) -> None:
        # token lists are memoized per document: form XObjects execute
        # once per referencing page, and re-tokenizing the same decoded
        # stream dominated repeated-form documents. bytes hashes are
        # computed once and cached by CPython; the cache dies with the
        # per-task document object.
        cache = self.doc.__dict__.setdefault("_token_cache", {})
        toks = cache.get(content)
        if toks is None:
            toks = tokenize_content(content)
            cache[content] = toks
        stack: List[Any] = []
        append = stack.append

        def pop(n: int) -> List[Any]:
            if n == 0:
                return []
            vals = stack[-n:]
            del stack[-n:]
            while len(vals) < n:
                vals.insert(0, 0)
            return vals

        i = 0
        n = len(toks)
        while i < n:
            tok = toks[i]
            i += 1
            t = tok.__class__
            if t is int or t is float or t is bytes:
                append(tok)
                continue
            if t is tuple:  # ("name", s)
                append(tok)
                continue
            if t is PSKeyword:
                op = tok.name
                try:
                    if op == "BI":
                        i = self._inline_image(toks, i)
                    else:
                        self._exec_op(op, stack, pop, resources, depth)
                except Exception:
                    stack.clear()
                continue
            if tok == "[":
                arr, i = _read_array(toks, i)
                append(arr)
                continue
            if tok == "<<":
                d, i = _read_dict(toks, i)
                append(d)
                continue

    def _exec_op(self, op, stack, pop, resources, depth) -> None:
        # branch order follows measured operator frequency over the
        # reference corpus (Tj/q/Q/re/Tm/BT/ET/Tf/c/l lead by far)
        gs, ts = self.gs, self.ts
        if op == "Tj":
            (s,) = pop(1)
            if isinstance(s, bytes):
                self._render_string([s])
        elif op == "q":
            # pdfminer's do_q saves the text state with the graphics state
            self.gstack.append((gs.copy(), ts.copy()))
        elif op == "Q":
            if self.gstack:
                self.gs, self.ts = self.gstack.pop()
        elif op == "re":
            x, y, w, h = [_num(v) for v in pop(4)]
            p = self._path()
            p.append(("m", x, y))
            p.append(("l", x + w, y))
            p.append(("l", x + w, y + h))
            p.append(("l", x, y + h))
            p.append(("h",))
        elif op == "Tm":
            a, b, c, d, e, f = pop(6)
            ts.matrix = (
                _num(a), _num(b), _num(c), _num(d), _num(e), _num(f)
            )
            ts.linematrix = (0.0, 0.0)
        elif op == "BT":
            ts.matrix = MATRIX_IDENTITY
            ts.linematrix = (0.0, 0.0)
        elif op == "ET":
            pass
        elif op == "Tf":
            name, size = pop(2)
            if isinstance(name, tuple):
                name = name[1]
            ts.font = self._get_font(resources, name)
            ts.fontsize = _num(size)
        elif op == "m" or op == "l":
            x, y = pop(2)
            if not hasattr(self, "curpath"):
                self.curpath: List[tuple] = []
            self.curpath.append((op, _num(x), _num(y)))
        elif op == "c":
            vals = [_num(v) for v in pop(6)]
            self._path().append(("c", *vals))
        elif op == "TD":
            tx, ty = pop(2)
            ts.leading = _num(ty)
            ts.matrix = translate_matrix(ts.matrix, (_num(tx), _num(ty)))
            ts.linematrix = (0.0, 0.0)
        elif op == "Td":
            tx, ty = pop(2)
            ts.matrix = translate_matrix(ts.matrix, (_num(tx), _num(ty)))
            ts.linematrix = (0.0, 0.0)
        elif op in ("S", "s", "f", "F", "f*", "B", "B*", "b", "b*", "n"):
            path = getattr(self, "curpath", [])
            if op in ("s", "b", "b*") and path:
                path.append(("h",))
            if op != "n" and path:
                stroke = op in ("S", "s", "B", "B*", "b", "b*")
                fill = op in ("f", "F", "f*", "B", "B*", "b", "b*")
                evenodd = op in ("f*", "B*", "b*")
                self._paint_path(stroke, fill, evenodd, path)
            self.curpath = []
        elif op == "TJ":
            (arr,) = pop(1)
            if isinstance(arr, list):
                self._render_string(arr)
        elif op == "cm":
            a, b, c, d, e, f = pop(6)
            gs.ctm = mult_matrix(
                (_num(a), _num(b), _num(c), _num(d), _num(e), _num(f)),
                gs.ctm,
            )
        elif op == "Tc":
            ts.charspace = _num(pop(1)[0])
        elif op == "W" or op == "W*":
            pass  # clipping: layout model ignores it
        elif op == "EMC":
            self.cur_mcid = None
            self.cur_tag = None
        elif op == "BDC" or op == "BMC":
            if op == "BDC":
                tag, props = pop(2)
            else:
                (tag,) = pop(1)
                props = None
            if isinstance(tag, tuple):
                tag = tag[1]
            self.cur_tag = tag if isinstance(tag, str) else None
            # reference page.py:135-141: MCID only from a direct props dict
            mcid = None
            if isinstance(props, dict):
                m = props.get("MCID")
                if isinstance(m, (int, float)):
                    mcid = int(m)
            self.cur_mcid = mcid
        elif op == "Tw":
            ts.wordspace = _num(pop(1)[0])
        elif op == "g":
            gs.ncolor = _num(pop(1)[0])
        elif op == "Tr":
            ts.render = int(_num(pop(1)[0]))
        elif op == "G":
            gs.scolor = _num(pop(1)[0])
        elif op == "h":
            self._path().append(("h",))
        elif op == "T*":
            ts.matrix = translate_matrix(ts.matrix, (0, ts.leading))
            ts.linematrix = (0.0, 0.0)
        elif op == "TL":
            ts.leading = -_num(pop(1)[0])
        elif op == "Tz":
            ts.scaling = _num(pop(1)[0], 100.0)
        elif op == "Ts":
            ts.rise = _num(pop(1)[0])
        elif op == "'":
            (s,) = pop(1)
            ts.matrix = translate_matrix(ts.matrix, (0, ts.leading))
            ts.linematrix = (0.0, 0.0)
            if isinstance(s, bytes):
                self._render_string([s])
        elif op == '"':
            aw, ac, s = pop(3)
            ts.wordspace = _num(aw)
            ts.charspace = _num(ac)
            ts.matrix = translate_matrix(ts.matrix, (0, ts.leading))
            ts.linematrix = (0.0, 0.0)
            if isinstance(s, bytes):
                self._render_string([s])
        elif op == "w":
            gs.linewidth = _num(pop(1)[0])
        elif op == "d":
            arr, phase = pop(2)
            if isinstance(arr, list):
                gs.dash = ([_num(v) for v in arr], _num(phase))
        elif op == "gs":
            (name,) = pop(1)
            if isinstance(name, tuple):
                name = name[1]
            eg = self.doc.resolve(
                (self.doc.resolve(resources.get("ExtGState")) or {}).get(name)
            )
            if isinstance(eg, dict):
                fspec = self.doc.resolve(eg.get("Font"))
                if isinstance(fspec, list) and len(fspec) == 2:
                    ts.font = load_font(fspec[0], self.doc)
                    ts.fontsize = _num(self.doc.resolve(fspec[1]))
        elif op == "v":
            vals = [_num(v) for v in pop(4)]
            self._path().append(("v", *vals))
        elif op == "y":
            vals = [_num(v) for v in pop(4)]
            self._path().append(("y", *vals))
        elif op == "RG":
            gs.scolor = tuple(_num(v) for v in pop(3))
        elif op == "rg":
            gs.ncolor = tuple(_num(v) for v in pop(3))
        elif op == "K":
            gs.scolor = tuple(_num(v) for v in pop(4))
        elif op == "k":
            gs.ncolor = tuple(_num(v) for v in pop(4))
        elif op == "CS":
            (n,) = pop(1)
            gs.scs = n[1] if isinstance(n, tuple) else n
        elif op == "cs":
            (n,) = pop(1)
            gs.ncs = n[1] if isinstance(n, tuple) else n
        elif op in ("SC", "SCN"):
            vals = list(stack)
            stack.clear()
            nums = [v for v in vals if isinstance(v, (int, float))]
            names = [v for v in vals if isinstance(v, tuple)]
            gs.scolor = (
                names[-1][1] if names else
                (tuple(float(v) for v in nums) if len(nums) > 1 else
                 (float(nums[0]) if nums else None))
            )
        elif op in ("sc", "scn"):
            vals = list(stack)
            stack.clear()
            nums = [v for v in vals if isinstance(v, (int, float))]
            names = [v for v in vals if isinstance(v, tuple)]
            gs.ncolor = (
                names[-1][1] if names else
                (tuple(float(v) for v in nums) if len(nums) > 1 else
                 (float(nums[0]) if nums else None))
            )
        elif op in ("MP", "DP"):
            pop(2 if op == "DP" else 1)
        elif op == "Do":
            (name,) = pop(1)
            if isinstance(name, tuple):
                name = name[1]
            self._do_xobject(name, resources, depth)
        elif op == "sh":
            pop(1)
        # unknown operators: operands already consumed lazily by pops of
        # later ops is a risk — clear anything obviously stale
        elif op in ("i", "j", "J", "M", "ri"):
            pop(1)

    def _path(self) -> List[tuple]:
        if not hasattr(self, "curpath"):
            self.curpath = []
        return self.curpath

    def _do_xobject(self, name: str, resources: dict, depth: int) -> None:
        xobjs = self.doc.resolve(resources.get("XObject")) or {}
        xobj = self.doc.resolve(xobjs.get(name))
        if not isinstance(xobj, PDFStream):
            return
        subtype = self.doc.resolve(xobj.dict.get("Subtype"))
        if subtype == "Image":
            self._emit_image(name, xobj)
        elif subtype == "Form" and depth < self.max_form_depth:
            matrix = self.doc.resolve(xobj.dict.get("Matrix"))
            m: Matrix = MATRIX_IDENTITY
            if isinstance(matrix, list) and len(matrix) == 6:
                m = tuple(_num(self.doc.resolve(v)) for v in matrix)  # type: ignore
            xres = self.doc.resolve(xobj.dict.get("Resources")) or resources
            saved_gs = self.gs
            saved_ts = self.ts
            saved_stack = self.gstack
            saved_path = getattr(self, "curpath", [])
            self.gs = saved_gs.copy()
            self.gs.ctm = mult_matrix(m, saved_gs.ctm)
            self.ts = _TState()
            self.gstack = []
            self.curpath = []
            self._form_depth += 1
            try:
                self.execute(self.doc.stream_data(xobj), xres, depth + 1)
            finally:
                self._form_depth -= 1
                self.gs = saved_gs
                self.ts = saved_ts
                self.gstack = saved_stack
                self.curpath = saved_path

    def _emit_image(self, name: str, xobj: Optional[PDFStream]) -> None:
        ctm = self.gs.ctm
        corners = [
            apply_matrix_pt(ctm, p)
            for p in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
        xs = [p[0] for p in corners]
        ys = [p[1] for p in corners]
        top = self._top(max(ys))
        srcsize = None
        if xobj is not None:
            w = self.doc.resolve(xobj.dict.get("Width"))
            h = self.doc.resolve(xobj.dict.get("Height"))
            if isinstance(w, (int, float)) and isinstance(h, (int, float)):
                srcsize = (int(w), int(h))
        self.images.append(
            {
                "x0": min(xs),
                "x1": max(xs),
                "top": top,
                "bottom": self._top(min(ys)),
                "doctop": self.initial_doctop + top,
                "media_ref": name,
                "srcsize": srcsize,
                "mcid": self.cur_mcid,
                "tag": self.cur_tag,
            }
        )

    def _inline_image(self, toks: List[Any], i: int) -> int:
        """BI <params> ID [EI] — the tokenizer already skipped the binary
        payload; parse params up to ID and emit the image."""
        n = len(toks)
        while i < n:
            t = toks[i]
            i += 1
            if isinstance(t, PSKeyword):
                if t.name == "ID":
                    if i < n and toks[i] is KW_EI:
                        i += 1
                    break
                if t.name == "EI":
                    break
            elif isinstance(t, tuple) and i < n:
                v = toks[i]
                i += 1
                if isinstance(v, tuple):
                    v = v[1]
        self._emit_image("inline", None)
        return i
