"""Group kernels: a batch's output does not depend on how its pages are
grouped.

``ExtractSpans`` runs the edge union, the table finder, cell text and page
text once per group of whole documents, and ``PagesToTables`` once per
group of page rows. Each document's (or page's) output must be the one it
gets alone, whatever the group holds; a failing group falls back to one
document at a time; and the number of word-kernel and finder calls per
batch must not grow with the number of documents in a group.
"""

from typing import Dict, List

import pyarrow as pa
import pytest

from pdfplumber_ray.config import PipelineConfig, TableConfig
from pdfplumber_ray.functions import tables
from pdfplumber_ray.schemas import SPAN
from pdfplumber_ray.sources.synth_corpus import assign_offsets, make_doc_spans
from pdfplumber_ray.stages import decode, flatten
from pdfplumber_ray.stages.layout import layout_doc

STRATEGIES = {
    "lines": TableConfig(),
    "text": TableConfig(vertical_strategy="text", horizontal_strategy="text"),
    "explicit": TableConfig(
        vertical_strategy="explicit",
        horizontal_strategy="lines",
        explicit_vertical_lines=[72, 200, 320, 500],
    ),
}


def _spans(items: List[tuple]) -> List[Dict]:
    """(kind, text, media_ref) triples -> span dicts with offsets."""
    offsets = assign_offsets([t for _, t, _ in items])
    return [
        {"kind": k, "text": t, "media_ref": m, "offset": o}
        for (k, t, m), o in zip(items, offsets)
    ]


def _docs_table(docs: List[List[Dict]]) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([f"doc-{i:03d}" for i in range(len(docs))], pa.string()),
            "spans": pa.array(docs, pa.list_(SPAN)),
        }
    )


def _long_table_doc() -> List[Dict]:
    """A table run too long for one page, so its grid splits across
    pages, between a rotated heading and a media span."""
    cells = [("table_cell", f"c{i}", "") for i in range(240)]
    return _spans(
        [("heading", "Inventory", ""), ("text", "stock on hand", "")]
        + cells
        + [("media_ref", "", "media://long/0"), ("heading", "Tally", "")]
    )


def _mixed_batch(n: int = 64) -> pa.Table:
    docs = [make_doc_spans(i, seed=11, pathological_rate=0.0) for i in range(n - 2)]
    docs.append(_long_table_doc())
    docs.append(make_doc_spans(n, seed=11, pathological_rate=1.0))
    return _docs_table(docs)


@pytest.fixture(scope="module")
def batch() -> pa.Table:
    table = _mixed_batch()
    kinds = {s["kind"] for doc in table.column("spans").to_pylist() for s in doc}
    assert kinds == {"text", "heading", "table_cell", "media_ref"}
    pages = [layout_doc(doc) for doc in table.column("spans").to_pylist()]
    # rotated headings, a table grid on consecutive pages, a 100x doc
    assert any(not p["chars"]["upright"].all() for doc in pages for p in doc)
    long_doc = pages[-2]
    assert sum(p["rects"]["x0"].shape[0] > 0 for p in long_doc) >= 2
    assert len(pages[-1]) > 20
    return table


def _one_by_one(stage, table: pa.Table) -> pa.Table:
    return pa.concat_tables([stage(table.slice(i, 1)) for i in range(table.num_rows)])


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("group_chars", [None, 10**9])
def test_extract_spans_batch_equals_single_docs(batch, strategy, group_chars, monkeypatch):
    """A 64-doc batch (several bounded groups, or one unbounded group)
    gives the spans of the same docs run as 1-doc batches."""
    if group_chars is not None:
        monkeypatch.setattr(flatten, "GROUP_CHARS", group_chars)
    stage = decode.ExtractSpans(PipelineConfig(table=STRATEGIES[strategy]))
    got = stage(batch)
    assert got.column("error").null_count == batch.num_rows
    assert got.equals(_one_by_one(stage, batch))
    spans = got.column("spans").to_pylist()
    assert any(s["kind"] == "table_cell" for doc in spans for s in doc)


@pytest.mark.parametrize("strategy", ["lines", "text"])
def test_pages_to_tables_batch_equals_page_slices(batch, strategy):
    pages = decode.SynthDecodePages()(batch)
    stage = decode.PagesToTables(STRATEGIES[strategy])
    got = stage(pages)
    assert got.num_rows > 0
    assert got.equals(_one_by_one(stage, pages))


def _poisoned_batch() -> pa.Table:
    docs = [make_doc_spans(i, seed=3, pathological_rate=0.0) for i in range(8)]
    docs[5] = docs[5] + _spans([("text", "QZXJQZXJ marks this document", "")])
    return _docs_table(docs)


def test_failing_group_quarantines_only_its_document(monkeypatch):
    table = _poisoned_batch()
    stage = decode.ExtractSpans(PipelineConfig())
    want = stage(table)
    real = flatten.text_blocks_group

    def poisoned(group, *args):
        if "QZXJQZXJ" in "".join(group.chars["text"].tolist()):
            raise RuntimeError("poisoned page")
        return real(group, *args)

    monkeypatch.setattr(flatten, "text_blocks_group", poisoned)
    got = stage(table)
    errors = got.column("error").to_pylist()
    assert errors == [None] * 5 + ["RuntimeError: poisoned page"] + [None] * 2
    assert got.column("spans")[5].as_py() == []
    assert got.column("n_pages")[5].as_py() == 0
    keep = [i for i in range(table.num_rows) if i != 5]
    assert got.take(keep).equals(want.take(keep))

    with pytest.raises(RuntimeError, match="poisoned page"):
        decode.ExtractSpans(PipelineConfig(quarantine_errors=False))(table)


def _small_docs(n: int) -> pa.Table:
    """Short docs with every kind of content: a rotated heading, an
    upright heading, text, a table run and a media span."""
    return _docs_table(
        [
            _spans(
                [
                    ("heading", "Parts", ""),
                    ("heading", "Parts list", ""),
                    ("text", f"stock count {i} for the week", ""),
                    ("table_cell", "id", ""),
                    ("table_cell", "name", ""),
                    ("table_cell", str(i), ""),
                    ("table_cell", "bolt", ""),
                    ("media_ref", "", f"media://small/{i}"),
                ]
            )
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("strategy", ["lines", "text"])
def test_kernel_calls_do_not_grow_with_the_group(monkeypatch, strategy):
    """Word-kernel and finder calls per ExtractSpans call are the same for
    8 and 64 small docs that fit one group: no per-page call creeps back."""
    calls: Dict[str, int] = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in (
        (flatten, "extract_words_page"),
        (tables, "extract_words_page"),
        (flatten, "find_tables_group"),
        (tables, "find_tables_page"),
        (flatten, "find_tables_page"),
    ):
        if hasattr(owner, name):
            counting(owner, name)
    stage = decode.ExtractSpans(PipelineConfig(table=STRATEGIES[strategy]))
    counts = []
    for n in (8, 64):
        docs = _small_docs(n)
        chars = sum(
            p["chars"]["x0"].shape[0]
            for doc in docs.column("spans").to_pylist()
            for p in layout_doc(doc)
        )
        assert chars <= flatten.GROUP_CHARS  # one group
        calls.clear()
        out = stage(docs)
        assert out.column("error").null_count == n
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["find_tables_group"] == 1
    # cell text, upright text and rotated text (+ the text strategy's words)
    assert sum(v for k, v in counts[0].items() if k == "extract_words_page") <= 4


def test_page_edge_union_reads_only_the_ruling():
    """The one-page edge union needs a page's rects, lines and curves
    only (no chars, no page box; lines and curves may be absent) and keeps
    the order rect edges, line edges, curve segments."""
    import numpy as np

    from pdfplumber_ray.functions.geometry import (
        concat_edges,
        curves_to_edges,
        lines_to_edges,
        rects_to_edges,
    )

    def boxes(*rows):
        return {
            k: np.array([r[i] for r in rows], dtype=np.float64)
            for i, k in enumerate(("x0", "top", "x1", "bottom"))
        }

    rects = boxes((72, 100, 300, 140), (72, 140, 300, 180))
    lines = boxes((72, 200, 300, 200))
    curve = [(72.0, 220.0), (150.0, 220.0), (150.0, 260.0)]
    pts = [{"x": x, "top": t} for x, t in curve]
    page = {"rects": rects, "lines": lines, "curves": [{"pts": pts}]}
    got = flatten.page_edge_union(page)
    want = concat_edges([rects_to_edges(rects), lines_to_edges(lines), curves_to_edges([curve])])
    assert got.keys() == want.keys()
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])

    only_rects = flatten.page_edge_union({"rects": rects, "lines": None, "curves": []})
    for k, v in rects_to_edges(rects).items():
        np.testing.assert_array_equal(only_rects[k], v)
    assert flatten.page_edge_union({"rects": boxes()}) is None
