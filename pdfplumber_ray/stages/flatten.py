"""Page geometry -> ordered output spans (the north-rule flattening).

Pure extraction: consumes only the decoded object tables (chars with
font/size, rects, images) and reconstructs the document's span sequence
using the same kernels the operator API exposes —

* lattice table detection over rect edges (reference table.py:566-578 chain)
  with per-cell text extraction (table.py:399-435),
* word assembly via the x/y-tolerance char clustering
  (reference utils/text.py:423-688),
* line clustering + paragraph grouping by vertical gap
  (reference utils/clustering.py:9-26 applied to line tops),
* heading classification by glyph size,
* media spans from image objects at their geometric position.

The kernels run on a group of pages (:class:`PageGroup`): whole documents
of an ``ExtractSpans`` batch, or the page rows of a page stage's batch
(``decode.arrow_page_group``).
Every kernel takes all of the group's pages in one call, with the page id
as its sort or segment key, so a group costs a fixed number of numpy and
word-kernel calls however many pages it holds; each page's result is the
one it gets alone. The one-page and one-document functions
(``page_edge_union``, ``page_table_cells``, ``page_tables``,
``page_text_blocks``, ``extract_doc_spans``) are the group of one.

No information flows from the input span structs; round-trip equality with
them is the correctness gate (BASELINE.json north_rule: span-sequence
equality ``(kind, text, media_ref, order)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..config import SynthLayoutConfig, TableConfig, WordConfig
from ..functions.clustering import cluster_ids
from ..functions.geometry import (
    Bbox,
    ObjArrays,
    band_pairs,
    concat_paged_edges,
    curves_to_edges,
    lines_to_edges,
    rects_to_edges,
)
from ..functions.tables import (  # noqa: F401  (find_tables_page: patched by perfbench/trace.py)
    WORD_CHAR_COLS,
    PageTable,
    cell_texts_group,
    find_tables_group,
    find_tables_page,
    word_char_cols,
)
from ..functions.words import CharTable, extract_words_page
from ..sources.synth_corpus import assign_offsets
from .layout import PageDict

# Pages are grouped until they hold about this many chars (a page with
# more is a group of its own). A group's working set grows with its chars,
# so this bounds a batch's memory. Measured on ``mixed`` (seed 1, 600 docs,
# 64-doc batches; tracemalloc peak per batch, max / median): page by page
# 8.9 / 1.1 MiB; 16k-char groups 14.5 / 7.9 MiB; one group per batch
# 58.6 / 17.6 MiB, from the batch that holds the 100x doc (53k chars, 80
# pages). CPU per doc was the same within noise from 8k chars up to one
# group per batch, and ~15 % higher at 4k.
GROUP_CHARS = 16_384

# the rect and line columns the edge union reads
EDGE_COLS = ("x0", "x1", "top", "bottom")
T = TypeVar("T")


def bounded_groups(items: Iterable[T], size: Callable[[T], int]) -> Iterator[List[T]]:
    """Consecutive runs of ``items`` whose sizes sum to at most
    ``GROUP_CHARS``; an item larger than that is a run of its own."""
    limit = GROUP_CHARS
    run: List[T] = []
    total = 0
    for item in items:
        n = size(item)
        if run and total + n > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def page_ids(offsets: np.ndarray) -> np.ndarray:
    """Page id of each row of a table with per-page ``offsets``."""
    return np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))


def _stack(
    tables: Sequence[Optional[Dict]], keys: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Per-page object tables -> one column set and per-page offsets.
    Empty or absent tables contribute no rows (and need no columns); of
    ``keys``, the columns every non-empty table has are kept."""
    lens = [0 if t is None else int(np.asarray(t["x0"]).shape[0]) for t in tables]
    offsets = np.zeros(len(tables) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    full = [t for t, n in zip(tables, lens) if n]
    return {
        k: np.concatenate([np.asarray(t[k]) for t in full]) if full else np.empty(0)
        for k in keys
        if all(k in t for t in full)
    }, offsets


def _cut(
    cols: Dict[str, np.ndarray], offsets: np.ndarray, start: int, stop: int
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """The rows and offsets of pages ``start`` to ``stop`` (exclusive)."""
    lo, hi = offsets[start], offsets[stop]
    return {k: v[lo:hi] for k, v in cols.items()}, offsets[start : stop + 1] - lo


def _char_cols(word_cfg: Optional[WordConfig], table_cfg: Optional[TableConfig]) -> List[str]:
    """The char columns the word and cell-text kernels read under these
    settings: the word columns plus every ``extra_attrs``."""
    extra = list(word_cfg.extra_attrs) if word_cfg else []
    if table_cfg:
        extra += table_cfg.text_settings.get("extra_attrs") or []
    return list(dict.fromkeys([*WORD_CHAR_COLS, *extra]))


@dataclass
class Ruling:
    """A group's edge sources: its pages' rects and lines (``EDGE_COLS``)
    as one column set each, rows page-contiguous and in page order, with
    ``*_offsets`` (one more than the pages) delimiting each page's rows,
    and each page's curves."""

    rects: ObjArrays
    rect_offsets: np.ndarray
    lines: ObjArrays
    line_offsets: np.ndarray
    curves: List[List[Dict]]

    @classmethod
    def from_pages(cls, pages: Sequence[PageDict]) -> "Ruling":
        """Reads only the pages' ``rects``, ``lines`` and ``curves``; any
        of them may be absent."""
        return cls(
            *_stack([p.get("rects") for p in pages], EDGE_COLS),
            *_stack([p.get("lines") for p in pages], EDGE_COLS),
            [p.get("curves") or [] for p in pages],
        )

    def pages(self, start: int, stop: int) -> "Ruling":
        """The ruling of pages ``start`` to ``stop`` (exclusive)."""
        return Ruling(
            *_cut(self.rects, self.rect_offsets, start, stop),
            *_cut(self.lines, self.line_offsets, start, stop),
            self.curves[start:stop],
        )


@dataclass
class PageGroup:
    """Pages as one column set per object kind: the page boxes, the chars
    (rows page-contiguous and in page order, ``char_offsets`` delimiting
    each page's rows) and the :class:`Ruling` (None for a stage that reads
    no ruling)."""

    bboxes: List[Bbox]
    chars: CharTable
    char_offsets: np.ndarray
    ruling: Optional[Ruling]

    @property
    def n_pages(self) -> int:
        return len(self.bboxes)

    @cached_property
    def char_page(self) -> np.ndarray:
        return page_ids(self.char_offsets)

    def page_chars(self, p: int) -> CharTable:
        """Page ``p``'s chars: views of the group's columns."""
        lo, hi = self.char_offsets[p], self.char_offsets[p + 1]
        return {k: v[lo:hi] for k, v in self.chars.items()}

    @classmethod
    def from_pages(cls, pages: Sequence[PageDict], char_cols: Sequence[str]) -> "PageGroup":
        """Stacks the ``char_cols`` the pages' chars have."""
        chars, char_offsets = _stack([p["chars"] for p in pages], char_cols)
        if char_offsets[-1] == 0:
            chars = {
                **{k: np.empty(0) for k in ("x0", "x1", "top", "bottom", "doctop", "size")},
                "text": np.empty(0, dtype=object),
                "upright": np.empty(0, dtype=bool),
            }
        return cls(
            bboxes=[(0.0, 0.0, p["page_width"], p["page_height"]) for p in pages],
            chars=chars,
            char_offsets=char_offsets,
            ruling=Ruling.from_pages(pages),
        )

    def pages(self, start: int, stop: int) -> "PageGroup":
        """The group of pages ``start`` to ``stop`` (exclusive)."""
        return PageGroup(
            self.bboxes[start:stop],
            *_cut(self.chars, self.char_offsets, start, stop),
            self.ruling and self.ruling.pages(start, stop),
        )


def edge_union_group(ruling: Ruling) -> Tuple[ObjArrays, np.ndarray]:
    """Edge union of every page of a group and the edges' pages, mirroring
    the reference container (container.py:84-90): each page's rect edges,
    then its line edges, then its curve point-pair segments (diagonal
    segments are dropped later by the orientation filter). One
    ``rects_to_edges``/``lines_to_edges``/``curves_to_edges`` call each
    covers the group; a stable sort by page restores each page's order."""
    rect_page = page_ids(ruling.rect_offsets)
    parts = [rects_to_edges(ruling.rects), lines_to_edges(ruling.lines)]
    pages = [np.tile(rect_page, 4), page_ids(ruling.line_offsets)]
    pts = [
        ([(q["x"], q["top"]) for q in c["pts"]], p)
        for p, curves in enumerate(ruling.curves)
        for c in curves
    ]
    if pts:
        parts.append(curves_to_edges(c for c, _ in pts))
        pages.append(np.repeat([p for _, p in pts], [max(len(c) - 1, 0) for c, _ in pts]))
    return concat_paged_edges(parts, pages)


def page_edge_union(page: PageDict):
    """:func:`edge_union_group` on one page, which needs only the page's
    rects, lines and curves; None when it has none of them."""
    ruling = Ruling.from_pages([page])
    if not (ruling.rect_offsets[-1] or ruling.line_offsets[-1] or ruling.curves[0]):
        return None
    return edge_union_group(ruling)[0]


def word_ids(words: Dict[str, np.ndarray], char_ids: np.ndarray) -> np.ndarray:
    """Each word's entry of ``char_ids`` (one id per char of the kernel's
    input, such as its page or segment), read at the word's first char."""
    return char_ids[words["char_indices"][words["char_offsets"][:-1]]]


def table_words_group(
    chars: CharTable, char_page: np.ndarray, table_cfg: TableConfig
) -> Tuple[Optional[Dict[str, np.ndarray]], Optional[np.ndarray]]:
    """The text strategy's words for the chars of a group's pages (``chars``
    sorted by ``char_page``) and the words' pages, built with the table's
    ``text_settings`` as the reference's ``TableFinder.get_edges`` does
    (table.py:580-671); (None, None) when no strategy is "text"."""
    if "text" not in (table_cfg.vertical_strategy, table_cfg.horizontal_strategy):
        return None, None
    words = extract_words_page(
        chars, WordConfig.from_kwargs(**table_cfg.text_settings), segment=char_page
    )
    return words, word_ids(words, char_page)


def table_cells_group(
    group: PageGroup, table_cfg: TableConfig
) -> List[List[Tuple[PageTable, List[List[Optional[str]]]]]]:
    """Every page's detected tables with their rows of cell text: one edge
    union, one finder pass and one cell-text pass for the whole group."""
    edges, edge_page = edge_union_group(group.ruling)
    tables = find_tables_group(
        edges,
        edge_page,
        group.bboxes,
        table_cfg,
        *table_words_group(group.chars, group.char_page, table_cfg),
    )
    texts = cell_texts_group(group.chars, group.char_page, tables)
    return [list(zip(t, x)) for t, x in zip(tables, texts)]


def page_table_cells(
    page: PageDict, table_cfg: TableConfig
) -> List[Tuple[PageTable, List[List[Optional[str]]]]]:
    """:func:`table_cells_group` on one page, for ``page_tables`` and
    ``decode.page_tables_full``."""
    return table_cells_group(
        PageGroup.from_pages([page], _char_cols(None, table_cfg)), table_cfg
    )[0]


def _flat_tables(
    cells: List[Tuple[PageTable, List[List[Optional[str]]]]]
) -> List[Tuple[Bbox, List[str]]]:
    """One page's tables -> [(bbox, row-major texts of the present cells)]
    in reading order: top-left first (cells_to_tables already sorts
    groups, but order defensively by geometric position)."""
    out = [
        (t.bbox, [text for row in rows for text in row if text is not None])
        for t, rows in cells
    ]
    out.sort(key=lambda bc: (bc[0][1], bc[0][0]))
    return out


def page_tables(
    page: PageDict, table_cfg: TableConfig
) -> List[Tuple[Tuple[float, float, float, float], List[str]]]:
    """Detected tables on one page -> [(bbox, row-major texts of the present
    cells)]."""
    return _flat_tables(page_table_cells(page, table_cfg))


Block = Tuple[float, str, str]


def rotated_text_blocks(
    sub: Dict[str, np.ndarray],
    page: np.ndarray,
    word_cfg: WordConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[Tuple[int, Block]]:
    """upright=False char runs of a group's pages -> [(page, (doctop,
    kind, text))] blocks.

    Rotated text stacks glyphs vertically at a fixed x (the reference's
    rotated line/char direction swap, utils/text.py:55-75): columns come
    from clustering x0 within each page, blocks within a column from
    vertical-gap breaks (> per-glyph advance). One word-kernel call
    assembles every block, with the block id as its segment; the kernel's
    rotated direction resolution orders chars top-to-bottom."""
    heading_cut = (synth_cfg.body_size + synth_cfg.heading_size) / 2.0
    col_ids = cluster_ids(sub["x0"], float(word_cfg.x_tolerance), segment=page)
    order = np.lexsort((sub["top"], col_ids))
    # between-word gap in a rotated run is 2*advance (skipped space slot);
    # between-block gap is >= 2*advance + line_height + glyph size — cut in
    # the dead zone between them
    gap_cut = 2.0 * synth_cfg.rotated_advance + synth_cfg.line_height / 2.0
    cid_s = col_ids[order]
    top_s = sub["top"][order]
    brk = np.ones(order.shape[0], dtype=bool)
    if order.shape[0] > 1:
        brk[1:] = (cid_s[1:] != cid_s[:-1]) | (
            (top_s[1:] - top_s[:-1]) > gap_cut
        )
    by_block = {k: np.asarray(v)[order] for k, v in sub.items()}
    block_of = np.cumsum(brk) - 1
    words = extract_words_page(by_block, word_cfg, segment=block_of)
    word_block = word_ids(words, block_of)
    if word_block.shape[0] == 0:
        return []
    first_word = np.flatnonzero(np.r_[True, word_block[1:] != word_block[:-1]])
    block = word_block[first_word]
    starts = np.flatnonzero(brk)
    doctops = np.minimum.reduceat(by_block["doctop"], starts)[block]
    headings = by_block["size"][starts[block]] >= heading_cut
    pages = page[order][starts[block]]
    tl = words["text"].tolist()
    ends = np.append(first_word[1:], len(tl))
    return [
        (p, (float(d), "heading" if h else "text", " ".join(tl[s:e])))
        for p, d, h, s, e in zip(pages.tolist(), doctops, headings, first_word, ends)
    ]


def paragraph_blocks(
    words: Dict[str, np.ndarray], word_page: np.ndarray, y_tolerance: float, para_gap: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Upright words of a group's pages -> reading order and paragraph
    blocks, as (``order``, ``bounds``): block ``j`` is the words
    ``order[bounds[j]:bounds[j + 1]]``.

    Words cluster into lines by ``top`` (within ``y_tolerance``, on their
    page) and read by ``x0`` within a line. A block starts on a new page or
    where the top gap between consecutive lines exceeds ``para_gap`` (a
    blank separator line in the layout). A block's lines are consecutive
    and never empty, so its text is its words joined by single spaces."""
    nw = word_page.shape[0]
    line_ids = cluster_ids(words["top"], float(y_tolerance), segment=word_page)
    order = np.lexsort((words["x0"], line_ids))
    lid_s = line_ids[order]
    line_start = np.ones(nw, dtype=bool)
    line_start[1:] = lid_s[1:] != lid_s[:-1]
    ls = np.flatnonzero(line_start)
    line_tops = words["top"][order][ls]
    line_page = word_page[order][ls]
    block_start = np.ones(ls.shape[0], dtype=bool)
    block_start[1:] = (line_page[1:] != line_page[:-1]) | (
        (line_tops[1:] - line_tops[:-1]) > para_gap
    )
    return order, np.append(ls[block_start], nw)


def text_blocks_group(
    group: PageGroup,
    table_bboxes: Sequence[Sequence[Bbox]],
    word_cfg: WordConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[List[Block]]:
    """Every page's non-table text -> [(doctop, kind, text)] paragraph
    blocks, upright blocks first. ``table_bboxes[p]`` are page ``p``'s
    tables, whose chars (by midpoint) are left out."""
    out: List[List[Block]] = [[] for _ in range(group.n_pages)]
    chars = group.chars
    char_page = group.char_page
    n = char_page.shape[0]
    if n == 0:
        return out
    keep = np.ones(n, dtype=bool)
    boxed = [(p, b) for p, bboxes in enumerate(table_bboxes) for b in bboxes]
    if boxed:
        # char_in_bbox (table.py:404-410) against the tables of its page
        box = np.asarray([b for _, b in boxed], dtype=np.float64)
        h_mid = (chars["x0"] + chars["x1"]) / 2
        band, ci = band_pairs(
            char_page,
            (chars["top"] + chars["bottom"]) / 2,
            np.asarray([p for p, _ in boxed], dtype=np.int64),
            box[:, 1],
            box[:, 3],
        )
        inside = (h_mid[ci] >= box[band, 0]) & (h_mid[ci] < box[band, 2])
        keep[ci[inside]] = False
    cols = word_char_cols(chars, word_cfg)
    upright = np.asarray(chars["upright"], dtype=bool)

    rot = keep & ~upright
    rotated: List[Tuple[int, Block]] = []
    if rot.any():
        rotated = rotated_text_blocks(
            {k: np.asarray(chars[k])[rot] for k in cols}, char_page[rot], word_cfg, synth_cfg
        )

    up = keep & upright
    sub_page = char_page[up]
    words = extract_words_page(
        {k: np.asarray(chars[k])[up] for k in cols}, word_cfg, segment=sub_page
    )
    word_page = word_ids(words, sub_page)
    order, bounds = paragraph_blocks(
        words, word_page, word_cfg.y_tolerance, synth_cfg.para_gap_threshold
    )
    first_word = order[bounds[:-1]]
    heading_cut = (synth_cfg.body_size + synth_cfg.heading_size) / 2.0
    headings = words["height"][first_word] >= heading_cut
    tl = words["text"][order].tolist()
    for p, d, h, ws, we in zip(
        word_page[first_word].tolist(),
        words["doctop"][first_word].tolist(),
        headings.tolist(),
        bounds[:-1].tolist(),
        bounds[1:].tolist(),
    ):
        out[p].append((d, "heading" if h else "text", " ".join(tl[ws:we])))
    for p, block in rotated:
        out[p].append(block)
    return out


def page_text_blocks(
    page: PageDict,
    table_bboxes: Sequence[Tuple[float, float, float, float]],
    word_cfg: WordConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[Tuple[float, str, str]]:
    """:func:`text_blocks_group` on one page."""
    return text_blocks_group(
        PageGroup.from_pages([page], _char_cols(word_cfg, None)),
        [table_bboxes],
        word_cfg,
        synth_cfg,
    )[0]


def spans_group(
    docs: Sequence[Sequence[PageDict]],
    word_cfg: WordConfig,
    table_cfg: TableConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[List[Dict]]:
    """Ordered span records for each of a group of documents. Their pages
    run through the table and text kernels as :class:`PageGroup` s of
    about ``GROUP_CHARS`` chars: one group for documents that fit, a
    larger document split between pages."""
    pages = [page for doc in docs for page in doc]
    char_cols = _char_cols(word_cfg, table_cfg)
    tables: List[List[Tuple[Bbox, List[str]]]] = []
    blocks: List[List[Block]] = []
    for run in bounded_groups(pages, lambda page: int(page["chars"]["x0"].shape[0])):
        group = PageGroup.from_pages(run, char_cols)
        run_tables = [_flat_tables(cells) for cells in table_cells_group(group, table_cfg)]
        tables.extend(run_tables)
        blocks.extend(
            text_blocks_group(
                group, [[bbox for bbox, _ in tabs] for tabs in run_tables], word_cfg, synth_cfg
            )
        )
    out: List[List[Dict]] = []
    first = 0
    for doc in docs:
        last = first + len(doc)
        out.append(_doc_spans(pages[first:last], tables[first:last], blocks[first:last]))
        first = last
    return out


def _doc_spans(
    pages: Sequence[PageDict],
    tables: Sequence[List[Tuple[Bbox, List[str]]]],
    blocks: Sequence[List[Block]],
) -> List[Dict]:
    """One document's pages, with their tables and text blocks -> ordered
    span records (all pages, in page order)."""
    # items: (doctop, kind, payload)
    items: List[Tuple[float, str, object]] = []
    for page, tabs, page_blocks in zip(pages, tables, blocks):
        idt = float(page["initial_doctop"])
        for bbox, cells in tabs:
            items.append((idt + bbox[1], "table", cells))
        items.extend(page_blocks)
        for img in page["images"]:
            items.append((idt + float(img["top"]), "media_ref", img["media_ref"]))

    items.sort(key=lambda it: it[0])

    kinds: List[str] = []
    texts: List[str] = []
    media: List[str] = []
    for _, kind, payload in items:
        if kind == "table":
            for cell in payload:  # type: ignore[union-attr]
                kinds.append("table_cell")
                texts.append(cell)
                media.append("")
        elif kind == "media_ref":
            kinds.append("media_ref")
            texts.append("")
            media.append(str(payload))
        else:
            kinds.append(kind)
            texts.append(str(payload))
            media.append("")
    offsets = assign_offsets(texts)
    return [
        {"kind": k, "text": t, "media_ref": m, "offset": o}
        for k, t, m, o in zip(kinds, texts, media, offsets)
    ]


def extract_doc_spans(
    pages: Sequence[PageDict],
    word_cfg: Optional[WordConfig] = None,
    table_cfg: Optional[TableConfig] = None,
    synth_cfg: Optional[SynthLayoutConfig] = None,
) -> List[Dict]:
    """Ordered span records for one document: :func:`spans_group` on one
    document."""
    return spans_group(
        [pages],
        word_cfg or WordConfig(),
        table_cfg or TableConfig(),
        synth_cfg or SynthLayoutConfig(),
    )[0]
