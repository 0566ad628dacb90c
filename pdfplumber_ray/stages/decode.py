"""Ray Data ``map_batches`` callables (zero-copy Arrow in/out).

Stage classes here are built once on the driver and run as task-mode
``map_batches`` callables (``pipelines.extract.stage_map_batches``): config
resolution happens in ``__init__``, which costs under 1 µs, so no stage is
worth an actor pool or a per-worker cache (the reference keeps comparable
state in its per-doc ``PDFResourceManager``, reference pdf.py:46,
page.py:269-275); per-batch work is vectorized numpy/pyarrow.

Every page stage reads its batch of page rows as one ``flatten.PageGroup``
(:func:`arrow_page_group`): the rows' flat char, rect and line columns with
the list offsets as page bounds. Words and default text take the whole
group in one word-kernel call, with the page as segment. The textmap
stages (layout and simple text, text lines, search) lay out each page
alone, so they read each page's slice of the group's columns. The mask
stages (filter, crop, dedupe, duplicate) write new list offsets over the
flat ``list<struct>`` children and pass every other column through. Page
dicts serve only one-page consumers outside the stages, and the dict ->
Arrow rebuild only the synthetic decode.

A pathological document never fails a task: per-doc decode errors are
quarantined into rows with a non-null ``error`` column (dead-letter
pattern; the reference would raise, pdf.py:65-108).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig, SynthLayoutConfig, TableConfig, WordConfig
from ..functions.dedupe import dedupe_chars_mask
from ..functions.geometry import (
    clip_to_bbox,
    outside_bbox_mask,
    test_proposed_bbox,
    within_bbox_mask,
)
from ..functions.textmap import (
    extract_text_lines_page,
    extract_text_page,
    extract_text_simple_page,
    search_page,
    segment_texts,
)
from ..functions.words import extract_words_page
from ..schemas import ANNOT, CHAR, CURVE, IMAGE, LINE, RECT, SPAN
from .flatten import (
    EDGE_COLS,
    PageGroup,
    Ruling,
    _char_cols,
    bounded_groups,
    extract_doc_spans,  # noqa: F401  (patched by perfbench/trace.py; ROADMAP item 2)
    page_ids,
    page_table_cells,
    paragraph_blocks,
    spans_group,
    table_cells_group,
    word_ids,
)
from .layout import PageDict, layout_doc_fields

_CHAR_FIELDS = (
    "text", "x0", "x1", "top", "bottom", "doctop", "size", "fontname",
    "upright", "mcid", "tag", "mat_a", "mat_b", "mat_c", "mat_d", "mat_e",
    "mat_f",
)
_RECT_FIELDS = ("x0", "x1", "top", "bottom", "doctop", "mcid", "tag")
_WORD_KEYS = (
    "text", "x0", "x1", "top", "bottom", "doctop", "width", "height", "upright", "direction",
)


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


def _page_rows(batch: pa.Table, name: str) -> Tuple[pa.StructArray, np.ndarray]:
    """List column ``name`` of page rows -> the objects the rows hold (the
    struct child rows) and the page offsets into them."""
    col = batch.column(name).combine_chunks()
    offs = col.offsets.to_numpy().astype(np.int64)
    return col.values.slice(offs[0], offs[-1] - offs[0]), offs - offs[0]


def _flat(
    batch: pa.Table, name: str, fields: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """List column ``name`` of page rows -> the objects' ``fields`` as flat
    numpy arrays and the page offsets into them."""
    values, offs = _page_rows(batch, name)
    return {k: values.field(k).to_numpy(zero_copy_only=False) for k in fields}, offs


def _list_column(batch: pa.Table, name: str) -> List[List[Dict]]:
    if name in batch.column_names:
        return batch.column(name).to_pylist()
    return [[] for _ in range(batch.num_rows)]


def arrow_pages_to_dicts(batch: pa.Table) -> List[Tuple[str, PageDict]]:
    """Inverse of :func:`pages_to_arrow` — numpy views per page row, for
    the consumers of one page at a time outside the stages."""
    out: List[Tuple[str, PageDict]] = []
    doc_ids = batch.column("doc_id").to_pylist()
    images = batch.column("images").to_pylist()
    annots = _list_column(batch, "annots")
    curves = _list_column(batch, "curves")
    pn = batch.column("page_number").to_numpy()
    pw = batch.column("page_width").to_numpy()
    ph = batch.column("page_height").to_numpy()
    idt = batch.column("initial_doctop").to_numpy()
    cflat, coffs = _flat(batch, "chars", _CHAR_FIELDS)
    rflat, roffs = _flat(batch, "rects", _RECT_FIELDS)
    lflat, loffs = _flat(batch, "lines", _RECT_FIELDS)

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


def arrow_page_group(
    batch: pa.Table, char_cols: Sequence[str] = _CHAR_FIELDS, ruling: bool = False
) -> PageGroup:
    """Page rows -> one :class:`PageGroup`: the rows' flat ``char_cols``
    (a stage passes the ones its kernels read) plus ``width`` and
    ``height``, as Arrow holds them, with the list offsets as page
    bounds. The rects, lines and curves (the :class:`Ruling`) are
    converted only with ``ruling``: only table detection reads them."""
    chars, char_offsets = _flat(batch, "chars", char_cols)
    chars["width"] = chars["x1"] - chars["x0"]
    chars["height"] = chars["bottom"] - chars["top"]
    widths = batch.column("page_width").to_pylist()
    heights = batch.column("page_height").to_pylist()
    return PageGroup(
        bboxes=[(0.0, 0.0, w, h) for w, h in zip(widths, heights)],
        chars=chars,
        char_offsets=char_offsets,
        ruling=Ruling(
            *_flat(batch, "rects", EDGE_COLS), *_flat(batch, "lines", EDGE_COLS),
            _list_column(batch, "curves"),
        )
        if ruling
        else None,
    )


def _page_table(batch: pa.Table, page: Sequence[int], **cols: Any) -> pa.Table:
    """One output row per entry of ``page`` (a row index of ``batch``):
    that page row's doc_id and page_number, then ``cols``."""
    idx = pa.array(page, pa.int64())
    return pa.table(
        {
            "doc_id": batch.column("doc_id").take(idx),
            "page_number": batch.column("page_number").take(idx),
            **cols,
        }
    )


def _kept(keep: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A keep mask over a list column's objects -> (the kept rows, the page
    offsets into them)."""
    return np.flatnonzero(keep), np.concatenate(([0], np.cumsum(keep)))[offsets]


def _with_objects(
    batch: pa.Table,
    name: str,
    values: pa.StructArray,
    rows: np.ndarray,
    offsets: np.ndarray,
    **fields: np.ndarray,
) -> pa.Table:
    """``batch`` whose list column ``name`` holds the objects ``values[rows]``
    within page offsets ``offsets``, ``fields`` (arrays over ``rows``)
    replacing those struct children. Every other column stays as it is."""
    kept = values.take(pa.array(rows, pa.int64()))
    if fields:
        kept = pa.StructArray.from_arrays(
            [
                pa.array(fields[f.name], f.type) if f.name in fields else kept.field(f.name)
                for f in kept.type
            ],
            fields=list(kept.type),
        )
    i = batch.schema.get_field_index(name)
    field = batch.schema.field(i)
    col = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept, type=field.type)
    return batch.set_column(i, field, col)


# ---- stateless per-object operator stages (plain map_batches functions) ----


def _explode(batch: pa.Table, name: str, fields: Sequence[str]) -> pa.Table:
    """Page rows -> one row per object of list column ``name``: the page's
    doc_id and page_number, then the objects' ``fields`` (the struct
    children, zero-copy). Vectorized: no per-object Python."""
    values, offs = _page_rows(batch, name)
    return _page_table(batch, page_ids(offs), **{f: values.field(f) for f in fields})


def pages_batch_to_chars(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat chars table (one row per char)."""
    t = _explode(batch, "chars", _CHAR_FIELDS)
    w = pc.subtract(t.column("x1"), t.column("x0"))
    h = pc.subtract(t.column("bottom"), t.column("top"))
    return t.append_column("width", w).append_column("height", h)


def pages_batch_to_rects(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat rects table (one row per rect, with
    stamped mcid/tag — reference 0.10.3 marked-content sequences)."""
    return _explode(batch, "rects", _RECT_FIELDS)


def pages_batch_to_annots(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat annotations table (one row per annot)
    — the reference's ``page.annots`` list (page.py:280-319) as a typed
    dataset."""
    return _explode(
        batch, "annots", ("x0", "x1", "top", "bottom", "doctop", "uri", "contents", "data")
    )


def pages_batch_to_curves(batch: pa.Table) -> pa.Table:
    """Explode page rows into a flat curves table (one row per curve,
    pts kept as a list column) — reference ``page.curves``."""
    return _explode(
        batch, "curves", ("x0", "x1", "top", "bottom", "doctop", "pts", "path", "dash")
    )


def pages_batch_to_hyperlinks(batch: pa.Table) -> pa.Table:
    """Annots with a non-empty uri (reference page.py:321-323)."""
    annots = pages_batch_to_annots(batch)
    return annots.filter(pc.not_equal(annots.column("uri"), ""))


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


# ---- page stages: one PageGroup per batch ----


def _arrow_type(dtype: np.dtype) -> pa.DataType:
    return pa.string() if dtype == object else pa.from_numpy_dtype(dtype)


class PagesToWords:
    """Word assembly over page rows: one word-kernel call per batch, with
    the page as its segment."""

    def __init__(self, word_cfg: Optional[WordConfig] = None):
        self.word_cfg = word_cfg or WordConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch, _char_cols(self.word_cfg, None))
        words = extract_words_page(group.chars, self.word_cfg, segment=group.char_page)
        extra = self.word_cfg.extra_attrs
        # an extra attribute keeps its char column's type, also in a batch
        # without words
        return _page_table(
            batch,
            word_ids(words, group.char_page),
            **{
                k: pa.array(words[k], _arrow_type((group.chars if k in extra else words)[k].dtype))
                for k in (*_WORD_KEYS, *extra)
            },
        )


class PagesToText:
    """Per-page text extraction: ``mode`` in {"simple", "default",
    "layout"} (reference extract_text_simple / extract_text / layout=True,
    utils/text.py:713-781). The default text of every page of a batch comes
    from one word-kernel call and one ``segment_texts`` join; the layout
    and simple textmaps lay out each page alone."""

    def __init__(self, mode: str = "default", page_box: bool = False, **kwargs: Any):
        # page_box=True: layout dimensions come from each page row
        # (reference Page.extract_text defaults layout_width/height to the
        # page's own size, page.py:473-482) — required for real-PDF pages
        # whose sizes vary; False keeps the chars-bbox default.
        self.mode = mode
        self.page_box = page_box
        self.kwargs = kwargs

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode in ("simple", "layout"):
            group = arrow_page_group(batch)
            texts = [self._page_text(group, p) for p in range(group.n_pages)]
        else:
            wcfg = WordConfig.from_kwargs(**self.kwargs)
            group = arrow_page_group(batch, _char_cols(wcfg, None))
            words = extract_words_page(group.chars, wcfg, segment=group.char_page)
            by_page = segment_texts(
                words,
                word_ids(words, group.char_page),
                wcfg,
                self.kwargs.get("line_dir_render") or wcfg.line_dir,
                self.kwargs.get("char_dir_render") or wcfg.char_dir,
            )
            texts = [by_page.get(p, "") for p in range(group.n_pages)]
        return _page_table(batch, range(group.n_pages), text=pa.array(texts, pa.string()))

    def _page_text(self, group: PageGroup, p: int) -> str:
        chars = group.page_chars(p)
        if self.mode == "simple":
            return extract_text_simple_page(chars, **self.kwargs)
        kwargs = self.kwargs
        if self.page_box:
            _, _, w, h = group.bboxes[p]
            kwargs = {
                "layout_width": w,
                "layout_height": h,
                "layout_bbox": (0.0, 0.0, w, h),
                **self.kwargs,
            }
        return extract_text_page(chars, layout=True, **kwargs)


class PagesToMcidText:
    """Marked-content text assembly — the reference's MCID machinery
    (page.py:128-176 stamping + cli.py:72-91 structure-text join): chars
    are grouped by their marked-content id within a page (an mcid never
    spans pages) and concatenated in reading order, yielding one text row
    per (doc, mcid) ready to join against structure/outline elements."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch)
        chars = group.chars
        mc = np.asarray(chars["mcid"], dtype=np.int64)
        order = np.lexsort((chars["x0"], chars["doctop"], mc, group.char_page))
        mc_s = mc[order]
        page_s = group.char_page[order]
        run = np.ones(order.shape[0], dtype=bool)
        run[1:] = (mc_s[1:] != mc_s[:-1]) | (page_s[1:] != page_s[:-1])
        starts = np.flatnonzero(run)
        ends = np.append(starts[1:], order.shape[0])
        marked = mc_s[starts] >= 0
        starts, ends = starts[marked], ends[marked]
        txt = chars["text"][order].tolist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(pa.array(page_s[starts])),
                "mcid": pa.array(mc_s[starts], pa.int64()),
                "text": pa.array(
                    ["".join(txt[s:e]) for s, e in zip(starts.tolist(), ends.tolist())],
                    pa.string(),
                ),
            }
        )


class PagesToTextBoxes:
    """Layout-container objects — the engine analogue of pdfminer's
    ``LTTextBox`` rows that appear when ``laparams`` is passed (reference
    page.py:402-414, tests/test_laparams.py:24-32): upright words are
    clustered into lines (y-tolerance) and lines into paragraph boxes
    (vertical-gap threshold, ``flatten.paragraph_blocks``); each box row
    carries its envelope bbox and space-joined text."""

    def __init__(self, word_cfg: Optional[WordConfig] = None):
        self.word_cfg = word_cfg or WordConfig()
        self.synth_cfg = SynthLayoutConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch, _char_cols(self.word_cfg, None))
        up = np.asarray(group.chars["upright"], dtype=bool)
        char_page = group.char_page[up]
        words = extract_words_page(
            {k: v[up] for k, v in group.chars.items()}, self.word_cfg, segment=char_page
        )
        word_page = word_ids(words, char_page)
        order, bounds = paragraph_blocks(
            words, word_page, self.word_cfg.y_tolerance, self.synth_cfg.para_gap_threshold
        )
        starts = bounds[:-1]
        page = word_page[order][starts]
        # a box's index counts the boxes before it on its page
        first = np.ones(starts.shape[0], dtype=bool)
        first[1:] = page[1:] != page[:-1]
        box = np.arange(starts.shape[0])
        box -= np.maximum.accumulate(np.where(first, box, 0))
        tl = words["text"][order].tolist()
        return _page_table(
            batch,
            page,
            box_index=pa.array(box, pa.int32()),
            x0=np.minimum.reduceat(words["x0"][order], starts),
            top=np.minimum.reduceat(words["top"][order], starts),
            x1=np.maximum.reduceat(words["x1"][order], starts),
            bottom=np.maximum.reduceat(words["bottom"][order], starts),
            text=pa.array(
                [" ".join(tl[s:e]) for s, e in zip(starts.tolist(), bounds[1:].tolist())],
                pa.string(),
            ),
        )


class PagesToTextLines:
    """Per-page line records via the textmap (reference
    TextMap.extract_text_lines, utils/text.py:212-230)."""

    def __init__(self, strip: bool = True):
        self.strip = strip

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch)
        pages: List[int] = []
        tops: List[Optional[float]] = []
        texts: List[str] = []
        for p in range(group.n_pages):
            for line in extract_text_lines_page(group.page_chars(p), strip=self.strip):
                pages.append(p)
                tops.append(line.get("top"))
                texts.append(line["text"])
        return _page_table(
            batch, pages, top=pa.array(tops, pa.float64()), text=pa.array(texts, pa.string())
        )


class PagesSearch:
    """Per-page regex search over the page textmap with char-level
    provenance (reference TextMap.search, utils/text.py:172-210). The
    pattern is compiled once, in ``__init__``."""

    def __init__(self, pattern: str, regex: bool = True, case: bool = True):
        if not regex:
            pattern = re.escape(pattern)
        self.compiled = re.compile(pattern, 0 if case else re.I)

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch)
        pages: List[int] = []
        matches: List[Dict[str, Any]] = []
        for p in range(group.n_pages):
            for m in search_page(group.page_chars(p), self.compiled):
                pages.append(p)
                matches.append(m)
        col = lambda k: [m[k] for m in matches]  # noqa: E731
        return _page_table(
            batch,
            pages,
            text=pa.array(col("text"), pa.string()),
            groups=pa.array([list(m.get("groups") or ()) for m in matches], pa.list_(pa.string())),
            **{k: pa.array(col(k), pa.float64()) for k in ("x0", "top", "x1", "bottom")},
        )


class PagesFilter:
    """Arbitrary user predicate over the char table (the reference's
    ``Page.filter``, page.py:545-546 / FilteredPage page.py:689-703):
    ``predicate(chars: dict[str, np.ndarray]) -> bool mask``, called on each
    page's chars."""

    def __init__(self, predicate):
        self.predicate = predicate

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch)
        offs = group.char_offsets
        keep = np.ones(offs[-1], dtype=bool)
        for p in range(group.n_pages):
            if offs[p + 1] > offs[p]:
                keep[offs[p]:offs[p + 1]] = self.predicate(group.page_chars(p))
        values, _ = _page_rows(batch, "chars")
        return _with_objects(batch, "chars", values, *_kept(keep, offs))


class PagesCrop:
    """Per-page geometric filtering of the object tables — the engine's
    ``Page.crop`` / ``within_bbox`` / ``outside_bbox`` (reference
    page.py:649-686, utils/geometry.py:75-125), applied to chars, rects,
    lines, images and curves by their bboxes.

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

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.strict:
            # reference page.py:627-644 via CroppedPage(strict=True); a
            # quarantined document's row (non-null ``error``, a 0x0 page
            # with no objects) is not checked and passes through
            pages = batch.select(["page_width", "page_height"])
            if "error" in batch.column_names:
                pages = pages.filter(pc.is_null(batch.column("error")))
            sizes = zip(pages.column(0).to_pylist(), pages.column(1).to_pylist())
            for w, h in dict.fromkeys(sizes):
                test_proposed_bbox(self.bbox, (0.0, 0.0, w, h))
        for name in ("chars", "rects", "lines", "images", "curves"):
            values, offs = _page_rows(batch, name)
            box = {
                k: values.field(k).to_numpy(zero_copy_only=False)
                for k in (*EDGE_COLS, "doctop")
                if values.type.get_field_index(k) >= 0
            }
            fields: Dict[str, np.ndarray] = {}
            if self.mode == "crop":
                clipped, keep = clip_to_bbox(box, self.bbox)
                fields = {k: clipped[k] for k in box}
            elif self.mode == "within":
                keep = within_bbox_mask(box, self.bbox)
            else:
                keep = outside_bbox_mask(box, self.bbox)
            batch = _with_objects(batch, name, values, *_kept(keep, offs), **fields)
        return batch


class PagesDedupeChars:
    """Per-page duplicate-char removal (reference utils/text.py:784-804);
    keeps the positionally-first char of each (font,size,upright,text)
    cluster within tolerance."""

    def __init__(self, tolerance: float = 1.0, extra_key_cols: Tuple[str, ...] = ()):
        self.tolerance = tolerance
        self.extra_key_cols = tuple(extra_key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        group = arrow_page_group(batch)
        # one call for the batch: duplicate keys never cross pages, so the
        # page is one more key column
        keep = dedupe_chars_mask(
            {**group.chars, "page": group.char_page},
            self.tolerance,
            (*self.extra_key_cols, "page"),
        )
        values, offs = _page_rows(batch, "chars")
        return _with_objects(batch, "chars", values, *_kept(keep, offs))


class DuplicateChars:
    """Test-harness stage: append a jittered duplicate of every char
    (sub-tolerance offset), the input shape ``dedupe_chars`` must undo
    (cf. reference tests/test_dedupe_chars.py). Each page holds its chars,
    then their copies."""

    def __init__(self, dx: float = 0.4, dy: float = 0.25):
        self.dx = dx
        self.dy = dy

    def __call__(self, batch: pa.Table) -> pa.Table:
        values, offs = _page_rows(batch, "chars")
        n = len(values)
        copy = np.repeat([False, True], n)
        order = np.lexsort((copy, np.tile(page_ids(offs), 2)))
        rows, copy = np.tile(np.arange(n), 2)[order], copy[order]
        shifts = dict.fromkeys(("x0", "x1"), self.dx) | dict.fromkeys(
            ("top", "bottom", "doctop"), self.dy
        )
        fields = {}
        for k, d in shifts.items():
            v = values.field(k).to_numpy()[rows]
            fields[k] = np.where(copy, v + d, v)
        return _with_objects(batch, "chars", values, rows, 2 * offs, **fields)


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
        pages = arrow_page_group(batch, _char_cols(None, self.table_cfg), ruling=True)
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
