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

No information flows from the input span structs; round-trip equality with
them is the correctness gate (BASELINE.json north_rule: span-sequence
equality ``(kind, text, media_ref, order)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SynthLayoutConfig, TableConfig, WordConfig
from ..functions.clustering import cluster_ids
from ..functions.geometry import (
    concat_edges,
    curves_to_edges,
    lines_to_edges,
    midpoint_in_bbox_mask,
    rects_to_edges,
)
from ..functions.tables import PageTable, find_tables_page, page_cell_texts
from ..functions.words import extract_words_page
from ..sources.synth_corpus import assign_offsets
from .layout import PageDict


def page_edge_union(page: PageDict):
    """Edge union for one page, mirroring the reference container
    (container.py:84-90): rect edges + line edges + curve point-pair
    segments (diagonal curve segments are dropped later by the
    orientation filter). Returns None when the page has no edge source."""
    rects = page["rects"]
    plines = page.get("lines")
    pcurves = page.get("curves") or []
    has_lines = plines is not None and np.asarray(plines["x0"]).shape[0] > 0
    if rects["x0"].shape[0] == 0 and not has_lines and not pcurves:
        return None
    parts = [rects_to_edges(rects)]
    if has_lines:
        parts.append(lines_to_edges(plines))
    if pcurves:
        parts.append(
            curves_to_edges(
                [(p["x"], p["top"]) for p in c["pts"]] for c in pcurves
            )
        )
    return concat_edges(parts)


def page_table_cells(
    page: PageDict, table_cfg: TableConfig
) -> List[Tuple[PageTable, List[List[Optional[str]]]]]:
    """Detected tables on one page with their rows of cell text, for
    ``page_tables`` and ``decode.page_tables_full``. The text strategy
    builds its words with the table's ``text_settings``, as the
    reference's ``TableFinder.get_edges`` does (table.py:580-671), and
    needs no edges on the page."""
    edges = page_edge_union(page)
    if edges is None:
        if "text" not in (
            table_cfg.vertical_strategy, table_cfg.horizontal_strategy
        ) and not (
            table_cfg.explicit_vertical_lines or table_cfg.explicit_horizontal_lines
        ):
            return []
        edges = concat_edges([])
    bbox = (0.0, 0.0, page["page_width"], page["page_height"])
    chars = page["chars"]
    tables = find_tables_page(
        edges,
        table_cfg,
        bbox,
        words_provider=lambda: extract_words_page(
            chars, WordConfig.from_kwargs(**table_cfg.text_settings)
        ),
    )
    return list(zip(tables, page_cell_texts(chars, tables)))


def page_tables(
    page: PageDict, table_cfg: TableConfig
) -> List[Tuple[Tuple[float, float, float, float], List[str]]]:
    """Detected tables on one page -> [(bbox, row-major texts of the present
    cells)]."""
    out = [
        (t.bbox, [text for row in rows for text in row if text is not None])
        for t, rows in page_table_cells(page, table_cfg)
    ]
    # reading order: top-left first (cells_to_tables already sorts groups,
    # but order defensively by geometric position)
    out.sort(key=lambda bc: (bc[0][1], bc[0][0]))
    return out


def rotated_text_blocks(
    sub: Dict[str, np.ndarray],
    word_cfg: WordConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[Tuple[float, str, str]]:
    """upright=False char runs -> [(doctop, kind, text)] blocks.

    Rotated text stacks glyphs vertically at a fixed x (the reference's
    rotated line/char direction swap, utils/text.py:55-75): columns come
    from clustering x0, blocks within a column from vertical-gap breaks
    (> per-glyph advance). One word-kernel call assembles every block, with
    the block id as its segment; the kernel's rotated direction resolution
    orders chars top-to-bottom."""
    heading_cut = (synth_cfg.body_size + synth_cfg.heading_size) / 2.0
    col_ids = cluster_ids(sub["x0"], float(word_cfg.x_tolerance))
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
    word_block = block_of[words["char_indices"][words["char_offsets"][:-1]]]
    if word_block.shape[0] == 0:
        return []
    first_word = np.flatnonzero(np.r_[True, word_block[1:] != word_block[:-1]])
    block = word_block[first_word]
    starts = np.flatnonzero(brk)
    doctops = np.minimum.reduceat(by_block["doctop"], starts)[block]
    headings = by_block["size"][starts[block]] >= heading_cut
    tl = words["text"].tolist()
    ends = np.append(first_word[1:], len(tl))
    return [
        (float(d), "heading" if h else "text", " ".join(tl[s:e]))
        for d, h, s, e in zip(doctops, headings, first_word, ends)
    ]


def page_text_blocks(
    page: PageDict,
    table_bboxes: Sequence[Tuple[float, float, float, float]],
    word_cfg: WordConfig,
    synth_cfg: SynthLayoutConfig,
) -> List[Tuple[float, str, str]]:
    """Non-table text -> [(doctop, kind, text)] paragraph blocks."""
    chars = page["chars"]
    n = chars["x0"].shape[0]
    if n == 0:
        return []
    keep = np.ones(n, dtype=bool)
    for bbox in table_bboxes:
        keep &= ~midpoint_in_bbox_mask(
            chars["x0"], chars["top"], chars["x1"], chars["bottom"], bbox
        )
    if not keep.any():
        return []
    sub = {k: np.asarray(v)[keep] for k, v in chars.items()}

    rotated_blocks: List[Tuple[float, str, str]] = []
    upright_mask = np.asarray(sub["upright"], dtype=bool)
    if not upright_mask.all():
        rot = {k: np.asarray(v)[~upright_mask] for k, v in sub.items()}
        rotated_blocks = rotated_text_blocks(rot, word_cfg, synth_cfg)
        if upright_mask.any():
            sub = {k: np.asarray(v)[upright_mask] for k, v in sub.items()}
        else:
            return rotated_blocks

    words = extract_words_page(sub, word_cfg)
    nw = words["text"].shape[0]
    if nw == 0:
        return rotated_blocks

    line_ids = cluster_ids(words["top"], float(word_cfg.y_tolerance))
    order = np.lexsort((words["x0"], line_ids))
    heading_cut = (synth_cfg.body_size + synth_cfg.heading_size) / 2.0

    # vectorized line/block segmentation: line starts from cluster-id
    # changes, block starts where the inter-line top gap exceeds the
    # paragraph threshold (blank separator line in the layout).
    lid_s = line_ids[order]
    top_s = words["top"][order]
    texts_s = words["text"][order]
    line_start = np.empty(order.shape[0], dtype=bool)
    line_start[0] = True
    line_start[1:] = lid_s[1:] != lid_s[:-1]
    ls = np.flatnonzero(line_start)
    le = np.append(ls[1:], order.shape[0])
    line_tops = top_s[ls]
    block_start_line = np.empty(ls.shape[0], dtype=bool)
    block_start_line[0] = True
    block_start_line[1:] = (line_tops[1:] - line_tops[:-1]) > synth_cfg.para_gap_threshold
    bs_lines = np.flatnonzero(block_start_line)
    be_lines = np.append(bs_lines[1:], ls.shape[0])

    first_word = order[ls[bs_lines]]
    doctops = words["doctop"][first_word]
    headings = words["height"][first_word] >= heading_cut
    tl = texts_s.tolist()

    blocks: List[Tuple[float, str, str]] = []
    for b, (lb, leb) in enumerate(zip(bs_lines, be_lines)):
        text = " ".join(
            " ".join(tl[ls[li] : le[li]]) for li in range(lb, leb)
        )
        blocks.append(
            (float(doctops[b]), "heading" if headings[b] else "text", text)
        )
    return blocks + rotated_blocks


def extract_doc_spans(
    pages: Sequence[PageDict],
    word_cfg: Optional[WordConfig] = None,
    table_cfg: Optional[TableConfig] = None,
    synth_cfg: Optional[SynthLayoutConfig] = None,
) -> List[Dict]:
    """Ordered span records for one document (all pages, in page order)."""
    word_cfg = word_cfg or WordConfig()
    table_cfg = table_cfg or TableConfig()
    synth_cfg = synth_cfg or SynthLayoutConfig()

    # items: (doctop, seq, kind, payload)
    items: List[Tuple[float, str, object]] = []
    for page in pages:
        idt = float(page["initial_doctop"])
        tabs = page_tables(page, table_cfg)
        for bbox, cells in tabs:
            items.append((idt + bbox[1], "table", cells))
        for doctop, kind, text in page_text_blocks(
            page, [b for b, _ in tabs], word_cfg, synth_cfg
        ):
            items.append((doctop, kind, text))
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
