"""End-to-end ``ray.data`` pipelines (docs -> out_spans and operator tables).

All stages are streaming ``map_batches`` over zero-copy Arrow; nothing here
materializes the dataset or loops rows on the driver.

Every stage class runs one way: ``stage_map_batches`` takes an instance
built once on the driver and hands it to ``map_batches`` as a plain
callable, so it runs as tasks. There is no actor pool and no per-worker
instance cache, because no stage holds state worth caching: building
``ExtractSpans``, ``PagesToText``, ``MediaDecode`` or ``StripBoilerplate``
takes under 1 µs and ``_MinHashBandStage`` 0.2–0.3 ms, against milliseconds
per batch. Ray puts the pickled instance (under 5 KB) in the object store
once per operator. Tasks need no pool minimum, so every stage runs on a
1-CPU cluster.

Correctness never depends on block/execution order: ordering is data
(``page_number``, in-row span lists — SURVEY.md §4).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import ray.data

from ..config import PipelineConfig, TableConfig, WordConfig
from ..stages.decode import (
    DuplicateChars,
    ExtractSpans,
    PagesCrop,
    PagesDedupeChars,
    PagesSearch,
    PagesToTables,
    PagesToText,
    PagesToTextBoxes,
    PagesToTextLines,
    PagesToWords,
    SynthDecodePages,
    pages_batch_to_annots,
    pages_batch_to_chars,
    pages_batch_to_curves,
    pages_batch_to_hyperlinks,
    pages_batch_to_rects,
)

Dataset = ray.data.Dataset


def stage_map_batches(
    ds: Dataset, stage: Callable[[pa.Table], pa.Table], *, batch_size: Optional[int]
) -> Dataset:
    """Run ``stage`` (an instance built on the driver) over ``ds`` as
    zero-copy Arrow ``map_batches`` tasks; ``batch_size=None`` gives each
    call a whole block."""
    return ds.map_batches(
        stage, batch_size=batch_size, batch_format="pyarrow", zero_copy_batch=True
    )


def read_docs(paths: Union[str, Sequence[str]], **kwargs: Any) -> Dataset:
    """Read an interleaved-doc corpus.

    Lance in production (``*.lance`` datasets use ``ray.data.read_lance``;
    pylance is not installable in this sandbox, so the path is gated on
    import), Parquet otherwise with the identical Arrow schema. Parquet
    corpus files are written with small row groups
    (synth_corpus.write_corpus) so the read splits into many blocks and no
    downstream stage is bundle-starved."""
    if isinstance(paths, str) and paths.rstrip("/").endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as exc:  # pragma: no cover - prod-only path
            raise ImportError(
                "reading a .lance dataset requires the pylance package"
            ) from exc
        return ray.data.read_lance(paths, **kwargs)
    return ray.data.read_parquet(paths, **kwargs)


def extract_spans_ds(docs: Dataset, cfg: Optional[PipelineConfig] = None) -> Dataset:
    """Flagship: docs -> OUT_SPANS (+ n_pages, error cols). One fused
    stage; embarrassingly parallel, shuffle-free."""
    cfg = cfg or PipelineConfig()
    return stage_map_batches(docs, ExtractSpans(cfg), batch_size=cfg.batch_size)


def split_errors(out_spans: Dataset) -> Dataset:
    """Dead-letter view: quarantined docs only (vectorized Arrow filter)."""
    import pyarrow.compute as pc

    def _keep_errors(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column("error")))

    return out_spans.map_batches(
        _keep_errors, batch_format="pyarrow", zero_copy_batch=True
    )


def decode_pages_ds(docs: Dataset, cfg: Optional[PipelineConfig] = None) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(docs, SynthDecodePages(cfg), batch_size=cfg.batch_size)


def chars_ds(pages: Dataset) -> Dataset:
    return pages.map_batches(
        pages_batch_to_chars, batch_format="pyarrow", zero_copy_batch=True
    )


def chars_with_colors_ds(pages: Dataset) -> Dataset:
    """Flat chars + normalized color columns (reference page.py:98-118)."""
    from ..stages.decode import chars_batch_normalize_colors

    return chars_ds(pages).map_batches(
        chars_batch_normalize_colors, batch_format="pyarrow", zero_copy_batch=True
    )


def annots_ds(pages: Dataset) -> Dataset:
    """Flat annotation table (reference page.py:280-319)."""
    return pages.map_batches(
        pages_batch_to_annots, batch_format="pyarrow", zero_copy_batch=True
    )


def curves_ds(pages: Dataset) -> Dataset:
    """Flat curve-object table (reference page.curves)."""
    return pages.map_batches(
        pages_batch_to_curves, batch_format="pyarrow", zero_copy_batch=True
    )


def rects_ds(pages: Dataset) -> Dataset:
    """Flat rect-object table with stamped mcid/tag (reference page.rects)."""
    return pages.map_batches(
        pages_batch_to_rects, batch_format="pyarrow", zero_copy_batch=True
    )


def hyperlinks_ds(pages: Dataset) -> Dataset:
    """Annots with a uri (reference page.py:321-323, pdf.py:163-166)."""
    return pages.map_batches(
        pages_batch_to_hyperlinks, batch_format="pyarrow", zero_copy_batch=True
    )


def words_ds(
    pages: Dataset,
    word_cfg: Optional[WordConfig] = None,
    cfg: Optional[PipelineConfig] = None,
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(pages, PagesToWords(word_cfg), batch_size=cfg.batch_size)


def page_text_ds(
    pages: Dataset,
    mode: str = "default",
    cfg: Optional[PipelineConfig] = None,
    **kwargs: Any,
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(
        pages, PagesToText(mode=mode, **kwargs), batch_size=cfg.batch_size
    )


def mcid_text_ds(pages: Dataset, cfg: Optional[PipelineConfig] = None) -> Dataset:
    """Marked-content text per (doc, mcid) — reference MCID stamping
    (page.py:128-176) + the CLI structure-text groupby-concat
    (cli.py:72-91). Join against outline elements with exchange.attach."""
    from ..stages.decode import PagesToMcidText

    cfg = cfg or PipelineConfig()
    return stage_map_batches(pages, PagesToMcidText(), batch_size=cfg.batch_size)


def filter_pages_ds(
    pages: Dataset, predicate, cfg: Optional[PipelineConfig] = None
) -> Dataset:
    """User-extension hook: arbitrary predicate over the char arrays
    (reference Page.filter). ``predicate`` must be picklable."""
    from ..stages.decode import PagesFilter

    cfg = cfg or PipelineConfig()
    return stage_map_batches(pages, PagesFilter(predicate), batch_size=cfg.batch_size)


def crop_ds(
    pages: Dataset,
    bbox,
    mode: str = "crop",
    cfg: Optional[PipelineConfig] = None,
    strict: bool = True,
) -> Dataset:
    """Geometric crop / within_bbox / outside_bbox over page rows.

    ``strict=True`` (the reference's default) validates the bbox against
    every page's bounds inside the stage — zero-area, inverted, or
    out-of-page boxes fail the task with ValueError; ``strict=False``
    clips silently (reference page.py:520-543, 627-644)."""
    cfg = cfg or PipelineConfig()
    return stage_map_batches(
        pages, PagesCrop(tuple(bbox), mode, strict), batch_size=cfg.batch_size
    )


def dedupe_chars_ds(
    pages: Dataset,
    tolerance: float = 1.0,
    extra_key_cols=(),
    cfg: Optional[PipelineConfig] = None,
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(
        pages,
        PagesDedupeChars(tolerance, tuple(extra_key_cols)),
        batch_size=cfg.batch_size,
    )


def duplicate_chars_ds(pages: Dataset, dx: float = 0.4, dy: float = 0.25) -> Dataset:
    """Test harness: inject sub-tolerance duplicate chars."""
    return stage_map_batches(pages, DuplicateChars(dx, dy), batch_size=64)


def text_lines_ds(
    pages: Dataset, strip: bool = True, cfg: Optional[PipelineConfig] = None
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(pages, PagesToTextLines(strip), batch_size=cfg.batch_size)


def text_boxes_ds(
    pages: Dataset,
    word_cfg: Optional[WordConfig] = None,
    cfg: Optional[PipelineConfig] = None,
) -> Dataset:
    """Layout-container (laparams-analogue) text boxes per page."""
    cfg = cfg or PipelineConfig()
    return stage_map_batches(
        pages, PagesToTextBoxes(word_cfg), batch_size=cfg.batch_size
    )


def doc_metadata_ds(docs: Dataset) -> Dataset:
    """Document metadata (the reference's resolved/decoded info dict,
    pdf.py:47-63, utils/pdfinternals.py:19-34): in the interleaved-doc
    model the source of truth is the span sequence — Title = first
    heading's text, plus typed span-census columns. Vectorized over the
    flattened span struct arrays (no per-span Python loop)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column("spans").combine_chunks()
        import numpy as np

        lens = np.diff(col.offsets.to_numpy())
        values = col.values
        kinds = values.field("kind").to_numpy(zero_copy_only=False)
        texts = values.field("text").to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        n = len(lens)

        def census(mask: np.ndarray) -> np.ndarray:
            return np.bincount(doc_idx[mask], minlength=n).astype(np.int64)

        is_head = kinds == "heading"
        titles = np.full(n, "", dtype=object)
        # first heading per doc: reversed scatter keeps the earliest
        hi = np.flatnonzero(is_head)[::-1]
        titles[doc_idx[hi]] = texts[hi]
        text_lens = np.fromiter(
            (len(t or "") for t in texts), dtype=np.int64, count=len(texts)
        )
        n_chars = np.bincount(doc_idx, weights=text_lens, minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "title": pa.array(titles.tolist(), pa.string()),
                "n_spans": pa.array(lens.astype(np.int64)),
                "n_headings": pa.array(census(is_head)),
                "n_media": pa.array(census(kinds == "media_ref")),
                "n_cells": pa.array(census(kinds == "table_cell")),
                "n_chars": pa.array(n_chars),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def element_bbox_ds(pages: Dataset) -> Dataset:
    """Per-structure-element bbox — the reference's ``element_bbox``
    (structure.py:464-509): the envelope of all member-mcid objects, plus
    the member char count. Scale shape: a vectorized per-batch partial
    envelope (pyarrow group_by) so the distributed ``groupby(doc_id, mcid)``
    only moves one row per (doc, element) per block."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    chars = chars_ds(pages)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("mcid"), 0))
        g = pa.TableGroupBy(
            t.select(["doc_id", "mcid", "x0", "top", "x1", "bottom"]),
            ["doc_id", "mcid"],
        ).aggregate(
            [("x0", "min"), ("top", "min"), ("x1", "max"), ("bottom", "max"), ("mcid", "count")]
        )
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "mcid": g.column("mcid"),
                "p_x0": g.column("x0_min"),
                "p_top": g.column("top_min"),
                "p_x1": g.column("x1_max"),
                "p_bottom": g.column("bottom_max"),
                "p_n": g.column("mcid_count").cast(pa.int64()),
            }
        )

    agg = (
        chars.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["doc_id", "mcid"])
        .aggregate(
            Min("p_x0"), Min("p_top"), Max("p_x1"), Max("p_bottom"), Sum("p_n")
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "mcid": batch.column("mcid").cast(pa.int64()),
                "x0": batch.column("min(p_x0)"),
                "top": batch.column("min(p_top)"),
                "x1": batch.column("max(p_x1)"),
                "bottom": batch.column("max(p_bottom)"),
                "n_chars": batch.column("sum(p_n)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def outline_ds(out_spans: Dataset) -> Dataset:
    """Document outline from extracted spans — the engine-side analogue of
    the reference's logical structure tree (reference structure.py:151-459):
    heading spans open sections ('H'), text spans are paragraphs ('P'),
    table_cell runs collapse to one 'Table' element, media to 'Figure'."""

    def fn(batch: pa.Table) -> pa.Table:
        # vectorized run-length encode over the flat span struct arrays —
        # consecutive table_cell spans within a doc collapse to one element
        col = batch.column("spans").combine_chunks()
        lens = np.diff(col.offsets.to_numpy())
        values = col.values
        kinds = values.field("kind").to_numpy(zero_copy_only=False)
        span_texts = values.field("text").to_numpy(zero_copy_only=False)
        media = values.field("media_ref").to_numpy(zero_copy_only=False)
        n = len(kinds)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "element_index": pa.array([], pa.int64()),
                    "type": pa.array([], pa.string()),
                    "text": pa.array([], pa.string()),
                }
            )
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        is_cell = kinds == "table_cell"
        starts = np.ones(n, dtype=bool)
        starts[1:] = (
            (doc_idx[1:] != doc_idx[:-1]) | ~(is_cell[1:] & is_cell[:-1])
        )
        start_pos = np.flatnonzero(starts)
        run_len = np.diff(np.append(start_pos, n))
        e_doc = doc_idx[start_pos]
        # element_index = per-doc running count of starts
        first_of_doc = np.ones(len(start_pos), dtype=bool)
        first_of_doc[1:] = e_doc[1:] != e_doc[:-1]
        seq = np.arange(len(start_pos))
        e_idx = seq - np.maximum.accumulate(np.where(first_of_doc, seq, 0))
        e_kind = kinds[start_pos]
        types = np.where(
            is_cell[start_pos],
            "Table",
            np.where(
                e_kind == "heading", "H", np.where(e_kind == "media_ref", "Figure", "P")
            ),
        )
        texts = np.where(
            e_kind == "media_ref", media[start_pos], span_texts[start_pos]
        ).astype(object)
        cell_elems = np.flatnonzero(is_cell[start_pos])
        for ce in cell_elems:  # bounded by element count, not span count
            texts[ce] = f"[{run_len[ce]} cells]"
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[e_doc]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "element_index": pa.array(e_idx, pa.int64()),
                "type": pa.array(types.astype(object), pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return out_spans.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def search_ds(
    pages: Dataset,
    pattern: str,
    regex: bool = True,
    case: bool = True,
    cfg: Optional[PipelineConfig] = None,
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(
        pages, PagesSearch(pattern, regex, case), batch_size=cfg.batch_size
    )


def tables_ds(
    pages: Dataset,
    table_cfg: Optional[TableConfig] = None,
    cfg: Optional[PipelineConfig] = None,
) -> Dataset:
    cfg = cfg or PipelineConfig()
    return stage_map_batches(pages, PagesToTables(table_cfg), batch_size=cfg.batch_size)
