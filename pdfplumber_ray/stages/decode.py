"""Ray Data ``map_batches`` callables (zero-copy Arrow in/out).

Stage classes here are built once on the driver and run as task-mode
``map_batches`` callables (``pipelines.extract.stage_map_batches``): config
resolution happens in ``__init__``, which costs under 1 µs, so no stage is
worth an actor pool or a per-worker cache (the reference keeps comparable
state in its per-doc ``PDFResourceManager``, reference pdf.py:46,
page.py:269-275); per-batch work is vectorized numpy/pyarrow.

A pathological document never fails a task: per-doc decode errors are
quarantined into rows with a non-null ``error`` column (dead-letter
pattern; the reference would raise, pdf.py:65-108).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

from ..config import PipelineConfig, SynthLayoutConfig, TableConfig, WordConfig
from ..functions.words import extract_words_page
from ..functions.textmap import extract_text_page, extract_text_simple_page
from ..schemas import ANNOT, CHAR, CURVE, IMAGE, LINE, RECT, SPAN
from .flatten import (
    EDGE_COLS,
    PageGroup,
    Ruling,
    bounded_groups,
    extract_doc_spans,  # noqa: F401  (patched by perfbench/trace.py; ROADMAP item 2)
    page_table_cells,
    spans_group,
    table_cells_group,
)
from .layout import PageDict, layout_doc_fields

_CHAR_FIELDS = (
    "text", "x0", "x1", "top", "bottom", "doctop", "size", "fontname",
    "upright", "mcid", "tag", "mat_a", "mat_b", "mat_c", "mat_d", "mat_e",
    "mat_f",
)
_RECT_FIELDS = ("x0", "x1", "top", "bottom", "doctop", "mcid", "tag")


def _spans_column(span_lists: List[List[Dict]]) -> pa.Array:
    return pa.array(span_lists, type=pa.list_(SPAN))


def docs_batch_fields(batch: pa.Table):
    """Hot-path iterator: (doc_id, kinds, texts, medias) numpy slices per
    doc, sliced straight out of the Arrow span struct children — no
    per-span dict is ever built."""
    col = batch.column("spans").combine_chunks()
    offs = col.offsets.to_numpy()
    values = col.values
    kinds = values.field("kind").to_numpy(zero_copy_only=False)
    texts = values.field("text").to_numpy(zero_copy_only=False)
    medias = values.field("media_ref").to_numpy(zero_copy_only=False)
    for i, doc_id in enumerate(batch.column("doc_id").to_pylist()):
        s, e = int(offs[i]), int(offs[i + 1])
        yield doc_id, kinds[s:e], texts[s:e], medias[s:e]


class ExtractSpans:
    """Fused flagship stage: interleaved docs -> ordered output spans.

    Decode (span layout), extraction (tables + words + media) and per-doc
    flattening happen in one call per batch, so no intermediate Arrow
    materialization and no per-doc shuffle is needed. Layout runs per
    document; the table, cell-text and word kernels then run once per
    group of whole documents (``flatten.GROUP_CHARS`` chars, which bounds
    the batch's working set), not once per page. Each document's spans
    are the ones it gets alone, as in the reference's per-document
    pipeline (reference pdf.py:130-156), but across parallel Ray tasks.

    A group that raises is re-run one document at a time, so only the
    failing document gets an ``error`` row.
    """

    def __init__(self, cfg: Optional[PipelineConfig] = None):
        cfg = cfg or PipelineConfig()
        self.word_cfg = cfg.word
        self.table_cfg = cfg.table
        self.synth_cfg = cfg.synth
        self.quarantine = cfg.quarantine_errors

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_ids: List[str] = []
        out_spans: List[List[Dict]] = []
        out_err: List[Optional[str]] = []
        n_pages: List[int] = []

        def fail(row: int, exc: Exception) -> None:  # poison-pill quarantine
            if not self.quarantine:
                raise exc
            out_spans[row] = []
            out_err[row] = f"{type(exc).__name__}: {exc}"
            n_pages[row] = 0

        def laid_out():
            for doc_id, kinds, texts, medias in docs_batch_fields(batch):
                row = len(out_ids)
                out_ids.append(doc_id)
                out_spans.append([])
                out_err.append(None)
                n_pages.append(0)
                try:
                    pages = layout_doc_fields(kinds, texts, medias, self.synth_cfg)
                except Exception as exc:
                    fail(row, exc)
                    continue
                n_pages[row] = len(pages)
                yield row, pages

        def spans(docs: List[Tuple[int, List[PageDict]]]) -> None:
            result = spans_group(
                [pages for _, pages in docs], self.word_cfg, self.table_cfg, self.synth_cfg
            )
            for (row, _), doc_spans in zip(docs, result):
                out_spans[row] = doc_spans

        for group in bounded_groups(laid_out(), _doc_chars):
            try:
                spans(group)
            except Exception:
                if not self.quarantine:
                    raise
                for doc in group:
                    try:
                        spans([doc])
                    except Exception as exc:
                        fail(doc[0], exc)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.string()),
                "spans": _spans_column(out_spans),
                "n_pages": pa.array(n_pages, pa.int32()),
                "error": pa.array(out_err, pa.string()),
            }
        )


def _doc_chars(doc: Tuple[int, List[PageDict]]) -> int:
    return sum(int(page["chars"]["x0"].shape[0]) for page in doc[1])


class SynthDecodePages:
    """Decode stage alone: docs -> one row per page with typed object
    tables (chars/rects/images struct-lists) — the operator-level surface
    mirroring ``Page.objects`` (reference page.py:416-425)."""

    def __init__(self, cfg: Optional[PipelineConfig] = None):
        cfg = cfg or PipelineConfig()
        self.synth_cfg = cfg.synth
        self.quarantine = cfg.quarantine_errors

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: List[Tuple[str, PageDict]] = []
        for doc_id, kinds, texts, medias in docs_batch_fields(batch):
            try:
                for page in layout_doc_fields(kinds, texts, medias, self.synth_cfg):
                    rows.append((doc_id, page))
            except Exception:
                if not self.quarantine:
                    raise
                # dead-letter: a doc that fails decode contributes no pages
                continue
        return pages_to_arrow(rows)


def pages_to_arrow(rows: List[Tuple[str, PageDict]]) -> pa.Table:
    doc_ids = [d for d, _ in rows]
    char_flat: Dict[str, List[np.ndarray]] = {k: [] for k in _CHAR_FIELDS}
    char_lens: List[int] = []
    rect_flat: Dict[str, List[np.ndarray]] = {k: [] for k in _RECT_FIELDS}
    rect_lens: List[int] = []
    line_flat: Dict[str, List[np.ndarray]] = {k: [] for k in _RECT_FIELDS}
    line_lens: List[int] = []
    images: List[List[Dict]] = []
    annots: List[List[Dict]] = []
    curves: List[List[Dict]] = []
    pn: List[int] = []
    pw: List[float] = []
    ph: List[float] = []
    idt: List[float] = []
    for _, page in rows:
        chars = page["chars"]
        for k in _CHAR_FIELDS:
            char_flat[k].append(np.asarray(chars[k]))
        char_lens.append(int(chars["x0"].shape[0]))
        rects = page["rects"]
        for k in _RECT_FIELDS:
            rect_flat[k].append(np.asarray(rects[k]))
        rect_lens.append(int(rects["x0"].shape[0]))
        plines = page.get("lines") or {
            k: (np.empty(0, dtype=object) if k == "tag" else np.empty(0))
            for k in _RECT_FIELDS
        }
        for k in _RECT_FIELDS:
            arr = np.asarray(plines[k])
            if k not in ("mcid", "tag"):
                arr = arr.astype(np.float64, copy=False)
            line_flat[k].append(arr)
        line_lens.append(int(np.asarray(plines["x0"]).shape[0]))
        images.append(page["images"])
        annots.append(page.get("annots") or [])
        curves.append(page.get("curves") or [])
        pn.append(int(page["page_number"]))
        pw.append(float(page["page_width"]))
        ph.append(float(page["page_height"]))
        idt.append(float(page["initial_doctop"]))

    def struct_list(
        flat: Dict[str, List[np.ndarray]], lens: List[int], typ: pa.StructType
    ) -> pa.Array:
        arrays = []
        for f in typ:
            vals = (
                np.concatenate(flat[f.name])
                if flat[f.name]
                else np.empty(0, dtype=object)
            )
            arrays.append(pa.array(vals.tolist() if vals.dtype == object else vals, f.type))
        struct = pa.StructArray.from_arrays(arrays, fields=list(typ))
        offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int32))
        return pa.ListArray.from_arrays(offsets, struct)

    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "page_number": pa.array(pn, pa.int32()),
            "page_width": pa.array(pw, pa.float64()),
            "page_height": pa.array(ph, pa.float64()),
            "initial_doctop": pa.array(idt, pa.float64()),
            "chars": struct_list(char_flat, char_lens, CHAR),
            "rects": struct_list(rect_flat, rect_lens, RECT),
            "lines": struct_list(line_flat, line_lens, LINE),
            "images": pa.array(images, pa.list_(IMAGE)),
            "annots": pa.array(annots, pa.list_(ANNOT)),
            "curves": pa.array(curves, pa.list_(CURVE)),
        }
    )


def _field_arrays(
    col: pa.ListArray, fields: Tuple[str, ...]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """A list<struct> column -> its flat field arrays and list offsets
    (offsets index the flat arrays)."""
    values = col.values
    return {name: values.field(name).to_numpy(zero_copy_only=False) for name in fields}, (
        col.offsets.to_numpy()
    )


def _list_column(batch: pa.Table, name: str) -> List[List[Dict]]:
    if name in batch.column_names:
        return batch.column(name).to_pylist()
    return [[] for _ in range(batch.num_rows)]


def arrow_pages_to_dicts(batch: pa.Table) -> List[Tuple[str, PageDict]]:
    """Inverse of :func:`pages_to_arrow` — numpy views per page row."""
    out: List[Tuple[str, PageDict]] = []
    doc_ids = batch.column("doc_id").to_pylist()
    images = batch.column("images").to_pylist()
    annots = _list_column(batch, "annots")
    curves = _list_column(batch, "curves")
    pn = batch.column("page_number").to_numpy()
    pw = batch.column("page_width").to_numpy()
    ph = batch.column("page_height").to_numpy()
    idt = batch.column("initial_doctop").to_numpy()
    cflat, coffs = _field_arrays(batch.column("chars").combine_chunks(), _CHAR_FIELDS)
    rflat, roffs = _field_arrays(batch.column("rects").combine_chunks(), _RECT_FIELDS)
    lflat, loffs = _field_arrays(batch.column("lines").combine_chunks(), _RECT_FIELDS)

    for i, doc_id in enumerate(doc_ids):
        cs, ce = int(coffs[i]), int(coffs[i + 1])
        rs, re_ = int(roffs[i]), int(roffs[i + 1])
        chars = {k: v[cs:ce] for k, v in cflat.items()}
        chars["width"] = chars["x1"] - chars["x0"]
        chars["height"] = chars["bottom"] - chars["top"]
        page: PageDict = {
            "page_number": int(pn[i]),
            "page_width": float(pw[i]),
            "page_height": float(ph[i]),
            "initial_doctop": float(idt[i]),
            "chars": chars,
            "rects": {k: v[rs:re_] for k, v in rflat.items()},
            "lines": {k: v[int(loffs[i]):int(loffs[i + 1])] for k, v in lflat.items()},
            "images": images[i],
            "annots": annots[i],
            "curves": curves[i],
        }
        out.append((doc_id, page))
    return out


def arrow_page_group(batch: pa.Table) -> PageGroup:
    """Page rows -> one :class:`PageGroup`: the rows' flat char, rect and
    line columns, as Arrow holds them, with the list offsets as page
    bounds."""

    def flat(name: str, fields: Tuple[str, ...]) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        cols, offs = _field_arrays(batch.column(name).combine_chunks(), fields)
        lo, hi = offs[0], offs[-1]
        return {k: v[lo:hi] for k, v in cols.items()}, (offs - lo).astype(np.int64)

    chars, char_offsets = flat("chars", _CHAR_FIELDS)
    chars["width"] = chars["x1"] - chars["x0"]
    chars["height"] = chars["bottom"] - chars["top"]
    widths = batch.column("page_width").to_pylist()
    heights = batch.column("page_height").to_pylist()
    return PageGroup(
        bboxes=[(0.0, 0.0, w, h) for w, h in zip(widths, heights)],
        chars=chars,
        char_offsets=char_offsets,
        ruling=Ruling(
            *flat("rects", EDGE_COLS), *flat("lines", EDGE_COLS), _list_column(batch, "curves")
        ),
    )


# ---- stateless per-page operator stages (plain map_batches functions) ----


def pages_batch_to_chars(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat chars table (one row per char) —
    vectorized (no per-char Python loop): repeats the page keys by list
    length and reuses the flattened struct child arrays."""
    chars_col = batch.column("chars").combine_chunks()
    lens = np.diff(chars_col.offsets.to_numpy())
    doc_rep = pa.array(np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), lens))
    pn_rep = pa.array(np.repeat(batch.column("page_number").to_numpy(), lens), pa.int32())
    values = chars_col.values
    cols: Dict[str, pa.Array] = {"doc_id": doc_rep, "page_number": pn_rep}
    for f in _CHAR_FIELDS:
        cols[f] = values.field(f)
    t = pa.table(cols)
    w = pa.compute.subtract(t.column("x1"), t.column("x0"))
    h = pa.compute.subtract(t.column("bottom"), t.column("top"))
    return t.append_column("width", w).append_column("height", h)


def pages_batch_to_rects(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat rects table (one row per rect, with
    stamped mcid/tag — reference 0.10.3 marked-content sequences)."""
    col = batch.column("rects").combine_chunks()
    lens = np.diff(col.offsets.to_numpy())
    doc_rep = pa.array(
        np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), lens)
    )
    pn_rep = pa.array(np.repeat(batch.column("page_number").to_numpy(), lens), pa.int32())
    values = col.values
    cols: Dict[str, pa.Array] = {"doc_id": doc_rep, "page_number": pn_rep}
    for f in _RECT_FIELDS:
        cols[f] = values.field(f)
    return pa.table(cols)


class PagesToTextBoxes:
    """Layout-container objects — the engine analogue of pdfminer's
    ``LTTextBox`` rows that appear when ``laparams`` is passed (reference
    page.py:402-414, tests/test_laparams.py:24-32): upright words are
    clustered into lines (y-tolerance) and lines into paragraph boxes
    (vertical-gap threshold); each box row carries its envelope bbox and
    space-joined text."""

    def __init__(self, word_cfg: Optional[WordConfig] = None):
        self.word_cfg = word_cfg or WordConfig()
        from ..config import SynthLayoutConfig

        self.synth_cfg = SynthLayoutConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.clustering import cluster_ids

        doc_ids: List[str] = []
        pns: List[int] = []
        bidx: List[int] = []
        x0s: List[float] = []
        tops: List[float] = []
        x1s: List[float] = []
        bottoms: List[float] = []
        texts_out: List[str] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            chars = page["chars"]
            up = np.asarray(chars["upright"], dtype=bool)
            if not up.all():
                chars = {k: np.asarray(v)[up] for k, v in chars.items()}
            words = extract_words_page(chars, self.word_cfg)
            nw = words["text"].shape[0]
            if nw == 0:
                continue
            lids = cluster_ids(words["top"], float(self.word_cfg.y_tolerance))
            order = np.lexsort((words["x0"], lids))
            lid_s = lids[order]
            top_s = words["top"][order]
            line_start = np.empty(nw, dtype=bool)
            line_start[0] = True
            line_start[1:] = lid_s[1:] != lid_s[:-1]
            ls = np.flatnonzero(line_start)
            le = np.append(ls[1:], nw)
            line_tops = top_s[ls]
            block_start = np.empty(ls.shape[0], dtype=bool)
            block_start[0] = True
            block_start[1:] = (
                line_tops[1:] - line_tops[:-1]
            ) > self.synth_cfg.para_gap_threshold
            bs = np.flatnonzero(block_start)
            be = np.append(bs[1:], ls.shape[0])
            tl = words["text"][order].tolist()
            wx0 = words["x0"][order]
            wx1 = words["x1"][order]
            wtop = top_s
            wbot = words["bottom"][order]
            for b, (lb, leb) in enumerate(zip(bs, be)):
                sl = slice(ls[lb], le[leb - 1])
                doc_ids.append(doc_id)
                pns.append(int(page["page_number"]))
                bidx.append(b)
                x0s.append(float(wx0[sl].min()))
                tops.append(float(wtop[sl].min()))
                x1s.append(float(wx1[sl].max()))
                bottoms.append(float(wbot[sl].max()))
                texts_out.append(
                    " ".join(
                        " ".join(tl[ls[li] : le[li]]) for li in range(lb, leb)
                    )
                )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "page_number": pa.array(pns, pa.int32()),
                "box_index": pa.array(bidx, pa.int32()),
                "x0": pa.array(x0s, pa.float64()),
                "top": pa.array(tops, pa.float64()),
                "x1": pa.array(x1s, pa.float64()),
                "bottom": pa.array(bottoms, pa.float64()),
                "text": pa.array(texts_out, pa.string()),
            }
        )


# deterministic font -> fill color table: the synthetic stand-in for the
# content-stream graphics state (the reference normalizes pdfminer's
# PSLiteral/tuple color soup into plain tuples + a pattern side channel,
# page.py:98-118)
_FONT_COLORS: Dict[str, Tuple[float, ...]] = {
    "SynthMono": (0.0, 0.0, 0.0),
    "SynthMono-Bold": (0.0, 0.0, 0.5),
}


def chars_batch_normalize_colors(batch: pa.Table) -> pa.Table:
    """Flat chars table -> + stroking_color / non_stroking_color
    (list<float64>) and nullable *_pattern columns (reference
    page.py:98-118 normalize_color). Vectorized: one dictionary lookup per
    distinct fontname, broadcast by take."""
    fonts = batch.column("fontname")
    enc = fonts.combine_chunks().dictionary_encode()
    dict_vals = enc.dictionary.to_pylist()
    colors = [list(_FONT_COLORS.get(f, (0.0, 0.0, 0.0))) for f in dict_vals]
    nsc = pa.array(colors, pa.list_(pa.float64())).take(enc.indices)
    none_str = pa.nulls(batch.num_rows, pa.string())
    black = pa.array([[0.0, 0.0, 0.0]] * batch.num_rows, pa.list_(pa.float64()))
    return (
        batch.append_column("stroking_color", black)
        .append_column("non_stroking_color", nsc)
        .append_column("stroking_pattern", none_str)
        .append_column("non_stroking_pattern", none_str)
    )


def pages_batch_to_annots(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat annotations table (one row per annot)
    — the reference's ``page.annots`` list (page.py:280-319) as a typed
    dataset. Vectorized: repeats page keys by list length and reuses the
    flattened struct child arrays (zero-copy)."""
    col = batch.column("annots").combine_chunks()
    lens = np.diff(col.offsets.to_numpy())
    doc_rep = pa.array(
        np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), lens)
    )
    pn_rep = pa.array(np.repeat(batch.column("page_number").to_numpy(), lens), pa.int32())
    values = col.values
    cols: Dict[str, pa.Array] = {"doc_id": doc_rep, "page_number": pn_rep}
    for f in ("x0", "x1", "top", "bottom", "doctop", "uri", "contents", "data"):
        cols[f] = values.field(f)
    return pa.table(cols)


def pages_batch_to_curves(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat curves table (one row per curve,
    pts kept as a list column) — reference ``page.curves``."""
    col = batch.column("curves").combine_chunks()
    lens = np.diff(col.offsets.to_numpy())
    doc_rep = pa.array(
        np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), lens)
    )
    pn_rep = pa.array(np.repeat(batch.column("page_number").to_numpy(), lens), pa.int32())
    values = col.values
    cols: Dict[str, pa.Array] = {"doc_id": doc_rep, "page_number": pn_rep}
    for f in ("x0", "x1", "top", "bottom", "doctop", "pts", "path", "dash"):
        cols[f] = values.field(f)
    return pa.table(cols)


def pages_batch_to_hyperlinks(batch: pa.Table) -> pa.Table:
    """Annots with a non-empty uri (reference page.py:321-323)."""
    import pyarrow.compute as pc

    annots = pages_batch_to_annots(batch)
    return annots.filter(pc.not_equal(annots.column("uri"), ""))


class PagesToWords:
    """Per-page word assembly stage (stateless kernels; class only to carry
    resolved config)."""

    def __init__(self, word_cfg: Optional[WordConfig] = None):
        self.word_cfg = word_cfg or WordConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        word_keys = (
            "text", "x0", "x1", "top", "bottom", "doctop", "width",
            "height", "upright", "direction", *self.word_cfg.extra_attrs,
        )
        out: Dict[str, List[Any]] = {
            k: [] for k in ("doc_id", "page_number", *word_keys)
        }
        for doc_id, page in arrow_pages_to_dicts(batch):
            words = extract_words_page(page["chars"], self.word_cfg)
            n = words["text"].shape[0]
            out["doc_id"].append(np.full(n, doc_id, dtype=object))
            out["page_number"].append(np.full(n, page["page_number"], dtype=np.int32))
            for k in word_keys:
                out[k].append(words[k])
        cols = {}
        for k, parts in out.items():
            arr = np.concatenate(parts) if parts else np.empty(0, dtype=object)
            cols[k] = pa.array(arr.tolist() if arr.dtype == object else arr)
        return pa.table(cols)


class PagesToText:
    """Per-page text extraction: ``mode`` in {"simple", "default",
    "layout"} (reference extract_text_simple / extract_text / layout=True,
    utils/text.py:713-781)."""

    def __init__(self, mode: str = "default", page_box: bool = False, **kwargs: Any):
        # page_box=True: layout dimensions come from each page row
        # (reference Page.extract_text defaults layout_width/height to the
        # page's own size, page.py:473-482) — required for real-PDF pages
        # whose sizes vary; False keeps the chars-bbox default.
        self.mode = mode
        self.page_box = page_box
        self.kwargs = kwargs

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: List[str] = []
        pns: List[int] = []
        texts: List[str] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            kwargs = self.kwargs
            if self.page_box and self.mode == "layout":
                w = float(page["page_width"])
                h = float(page["page_height"])
                kwargs = {
                    "layout_width": w,
                    "layout_height": h,
                    "layout_bbox": (0.0, 0.0, w, h),
                    **self.kwargs,
                }
            if self.mode == "simple":
                txt = extract_text_simple_page(page["chars"], **kwargs)
            elif self.mode == "layout":
                txt = extract_text_page(page["chars"], layout=True, **kwargs)
            else:
                txt = extract_text_page(page["chars"], **kwargs)
            doc_ids.append(doc_id)
            pns.append(page["page_number"])
            texts.append(txt)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "page_number": pa.array(pns, pa.int32()),
                "text": pa.array(texts, pa.string()),
            }
        )


class PagesToMcidText:
    """Marked-content text assembly — the reference's MCID machinery
    (page.py:128-176 stamping + cli.py:72-91 structure-text join): chars
    are grouped by their marked-content id within a page (an mcid never
    spans pages) and concatenated in reading order, yielding one text row
    per (doc, mcid) ready to join against structure/outline elements."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: List[str] = []
        mcids: List[int] = []
        texts: List[str] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            chars = page["chars"]
            n = chars["x0"].shape[0]
            if n == 0:
                continue
            mc = np.asarray(chars["mcid"], dtype=np.int64)
            order = np.lexsort((chars["x0"], chars["doctop"], mc))
            mc_s = mc[order]
            txt_s = np.asarray(chars["text"], dtype=object)[order]
            starts = np.flatnonzero(np.r_[True, mc_s[1:] != mc_s[:-1]])
            ends = np.append(starts[1:], mc_s.shape[0])
            for st, en in zip(starts, ends):
                if mc_s[st] < 0:
                    continue
                doc_ids.append(doc_id)
                mcids.append(int(mc_s[st]))
                texts.append("".join(txt_s[st:en].tolist()))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "mcid": pa.array(mcids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )


class PagesFilter:
    """Arbitrary user predicate over the char table (the reference's
    ``Page.filter``, page.py:545-546 / FilteredPage page.py:689-703):
    ``predicate(chars: dict[str, np.ndarray]) -> bool mask``."""

    def __init__(self, predicate):
        self.predicate = predicate

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: List[Tuple[str, PageDict]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            chars = page["chars"]
            if chars["x0"].shape[0]:
                mask = np.asarray(self.predicate(chars), dtype=bool)
                page = dict(page)
                page["chars"] = {k: np.asarray(v)[mask] for k, v in chars.items()}
            rows.append((doc_id, page))
        return pages_to_arrow(rows)


class PagesCrop:
    """Per-page geometric filtering of the object tables — the engine's
    ``Page.crop`` / ``within_bbox`` / ``outside_bbox`` (reference
    page.py:649-686, utils/geometry.py:75-125).

    mode: "crop" clips object geometry to the bbox; "within" keeps fully
    contained objects; "outside" keeps disjoint ones."""

    def __init__(
        self,
        bbox: Tuple[float, float, float, float],
        mode: str = "crop",
        strict: bool = True,
    ):
        if mode not in ("crop", "within", "outside"):
            raise ValueError(f"invalid crop mode: {mode}")
        self.bbox = tuple(float(v) for v in bbox)
        self.mode = mode
        self.strict = strict

    def _apply(self, objs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        from ..functions.geometry import (
            clip_to_bbox,
            outside_bbox_mask,
            within_bbox_mask,
        )

        if objs["x0"].shape[0] == 0:
            return objs
        if self.mode == "crop":
            clipped, _ = clip_to_bbox(objs, self.bbox)
            return clipped
        mask = (
            within_bbox_mask(objs, self.bbox)
            if self.mode == "within"
            else outside_bbox_mask(objs, self.bbox)
        )
        return {k: np.asarray(v)[mask] for k, v in objs.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: List[Tuple[str, PageDict]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            if self.strict:
                # reference page.py:627-644 via CroppedPage(strict=True)
                from ..functions.geometry import test_proposed_bbox

                test_proposed_bbox(
                    self.bbox,
                    (0.0, 0.0, page["page_width"], page["page_height"]),
                )
            page = dict(page)
            page["chars"] = self._apply(page["chars"])
            page["rects"] = self._apply(page["rects"])
            if "lines" in page:
                page["lines"] = self._apply(page["lines"])
            imgs = page["images"]
            if imgs:
                arr = {
                    k: np.array([float(i[k]) for i in imgs]) for k in ("x0", "x1", "top", "bottom")
                }
                arr["media_ref"] = np.array([i["media_ref"] for i in imgs], dtype=object)
                out = self._apply(arr)
                page["images"] = [
                    {k: out[k][j] for k in arr} for j in range(out["x0"].shape[0])
                ]
            rows.append((doc_id, page))
        return pages_to_arrow(rows)


class PagesDedupeChars:
    """Per-page duplicate-char removal (reference utils/text.py:784-804);
    keeps the positionally-first char of each (font,size,upright,text)
    cluster within tolerance."""

    def __init__(self, tolerance: float = 1.0, extra_key_cols: Tuple[str, ...] = ()):
        self.tolerance = tolerance
        self.extra_key_cols = tuple(extra_key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.dedupe import dedupe_chars_mask

        rows: List[Tuple[str, PageDict]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            chars = page["chars"]
            if chars["x0"].shape[0]:
                keep = dedupe_chars_mask(chars, self.tolerance, self.extra_key_cols)
                page = dict(page)
                page["chars"] = {k: np.asarray(v)[keep] for k, v in chars.items()}
            rows.append((doc_id, page))
        return pages_to_arrow(rows)


class DuplicateChars:
    """Test-harness stage: append a jittered duplicate of every char
    (sub-tolerance offset), the input shape ``dedupe_chars`` must undo
    (cf. reference tests/test_dedupe_chars.py)."""

    def __init__(self, dx: float = 0.4, dy: float = 0.25):
        self.dx = dx
        self.dy = dy

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: List[Tuple[str, PageDict]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            chars = page["chars"]
            n = chars["x0"].shape[0]
            if n:
                dup = {}
                for k, v in chars.items():
                    v = np.asarray(v)
                    if k in ("x0", "x1"):
                        dup[k] = np.concatenate([v, v + self.dx])
                    elif k in ("top", "bottom", "doctop"):
                        dup[k] = np.concatenate([v, v + self.dy])
                    else:
                        dup[k] = np.concatenate([v, v])
                page = dict(page)
                page["chars"] = dup
            rows.append((doc_id, page))
        return pages_to_arrow(rows)


class PagesToTextLines:
    """Per-page line records via the textmap (reference
    TextMap.extract_text_lines, utils/text.py:212-230)."""

    def __init__(self, strip: bool = True):
        self.strip = strip

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.textmap import extract_text_lines_page

        doc_ids: List[str] = []
        pns: List[int] = []
        texts: List[str] = []
        tops: List[Optional[float]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            for line in extract_text_lines_page(page["chars"], strip=self.strip):
                doc_ids.append(doc_id)
                pns.append(page["page_number"])
                texts.append(line["text"])
                tops.append(line.get("top"))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "page_number": pa.array(pns, pa.int32()),
                "top": pa.array(tops, pa.float64()),
                "text": pa.array(texts, pa.string()),
            }
        )


class PagesSearch:
    """Per-page regex search over the page textmap with char-level
    provenance (reference TextMap.search, utils/text.py:172-210). The
    pattern is compiled once per worker in ``__init__``."""

    def __init__(self, pattern: str, regex: bool = True, case: bool = True):
        import re as _re

        from ..functions.textmap import search_page

        self._search_page = search_page
        if not regex:
            pattern = _re.escape(pattern)
        self.compiled = _re.compile(pattern, 0 if case else _re.I)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: List[str] = []
        pns: List[int] = []
        texts: List[str] = []
        groups: List[List[Optional[str]]] = []
        x0s: List[Optional[float]] = []
        tops: List[Optional[float]] = []
        x1s: List[Optional[float]] = []
        bottoms: List[Optional[float]] = []
        for doc_id, page in arrow_pages_to_dicts(batch):
            for m in self._search_page(page["chars"], self.compiled):
                doc_ids.append(doc_id)
                pns.append(page["page_number"])
                texts.append(m["text"])
                groups.append(list(m.get("groups") or ()))
                x0s.append(m["x0"])
                tops.append(m["top"])
                x1s.append(m["x1"])
                bottoms.append(m["bottom"])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "page_number": pa.array(pns, pa.int32()),
                "text": pa.array(texts, pa.string()),
                "groups": pa.array(groups, pa.list_(pa.string())),
                "x0": pa.array(x0s, pa.float64()),
                "top": pa.array(tops, pa.float64()),
                "x1": pa.array(x1s, pa.float64()),
                "bottom": pa.array(bottoms, pa.float64()),
            }
        )


class PagesToTables:
    """Table detection + extraction (lattice/stream per config) over page
    rows: the rows' flat Arrow columns feed the table and cell-text kernels
    directly, in groups of whole pages of about ``flatten.GROUP_CHARS``
    chars."""

    def __init__(self, table_cfg: Optional[TableConfig] = None):
        self.table_cfg = TableConfig.resolve(table_cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: List[str] = []
        pns: List[int] = []
        tidx: List[int] = []
        bbox_cols: Dict[str, List[float]] = {k: [] for k in ("x0", "top", "x1", "bottom")}
        rows_out: List[List[List[Optional[str]]]] = []
        batch_ids = batch.column("doc_id").to_pylist()
        batch_pns = batch.column("page_number").to_pylist()
        pages = arrow_page_group(batch)
        chars = np.diff(pages.char_offsets)
        for run in bounded_groups(range(pages.n_pages), lambda i: int(chars[i])):
            group = pages.pages(run[0], run[-1] + 1)
            for i, cells in zip(run, table_cells_group(group, self.table_cfg)):
                for t, (table, rows) in enumerate(cells):
                    doc_ids.append(batch_ids[i])
                    pns.append(batch_pns[i])
                    tidx.append(t)
                    for k, v in zip(("x0", "top", "x1", "bottom"), table.bbox):
                        bbox_cols[k].append(float(v))
                    rows_out.append(rows)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "page_number": pa.array(pns, pa.int32()),
                "table_index": pa.array(tidx, pa.int32()),
                "x0": pa.array(bbox_cols["x0"], pa.float64()),
                "top": pa.array(bbox_cols["top"], pa.float64()),
                "x1": pa.array(bbox_cols["x1"], pa.float64()),
                "bottom": pa.array(bbox_cols["bottom"], pa.float64()),
                "rows": pa.array(rows_out, pa.list_(pa.list_(pa.string()))),
            }
        )


def page_tables_full(page: PageDict, table_cfg: TableConfig):
    """Like flatten.page_tables but keeps the row/col structure."""
    return [(t.bbox, rows) for t, rows in page_table_cells(page, table_cfg)]
