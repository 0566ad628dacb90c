"""Ray Data integration: streaming pipelines over the synthetic corpus.

Verifies (a) the flagship fused pipeline reproduces every doc's span
sequence, (b) operator-level datasets (pages/chars/words/text/tables) are
consistent with the pure kernels, (c) results are independent of
parallelism/block order (north-rule order-independence)."""

import pyarrow as pa
import pytest

import ray.data

from pdfplumber_ray.config import PipelineConfig
from pdfplumber_ray.pipelines import (
    chars_ds,
    decode_pages_ds,
    extract_spans_ds,
    page_text_ds,
    read_docs,
    split_errors,
    tables_ds,
    words_ds,
)
from pdfplumber_ray.sources.synth_corpus import make_docs_table, write_corpus
from pdfplumber_ray.stages.layout import layout_doc

N_DOCS = 60


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d), N_DOCS, seed=42, docs_per_shard=20)
    return str(d)


@pytest.fixture(scope="module")
def expected_spans():
    t = make_docs_table(N_DOCS, seed=42)
    return dict(zip(t.column("doc_id").to_pylist(), t.column("spans").to_pylist()))


def span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"]) for s in spans]


def test_flagship_extract_spans(corpus_dir, expected_spans):
    cfg = PipelineConfig(batch_size=16)
    out = extract_spans_ds(read_docs(corpus_dir), cfg).take_all()
    assert len(out) == N_DOCS
    for row in out:
        assert row["error"] is None
        assert span_key(row["spans"]) == span_key(expected_spans[row["doc_id"]])


def test_parallelism_independence(corpus_dir, expected_spans):
    ds = read_docs(corpus_dir).repartition(13)
    out = extract_spans_ds(ds, PipelineConfig(batch_size=3)).take_all()
    got = {r["doc_id"]: span_key(r["spans"]) for r in out}
    assert got == {d: span_key(s) for d, s in expected_spans.items()}


def test_errors_quarantined_not_fatal(ray_session):
    # a span too long for one page must become an error row, not a task failure
    long_text = " ".join(["word"] * 5000)
    docs = pa.table(
        {
            "doc_id": pa.array(["bad-doc", "ok-doc"]),
            "spans": pa.array(
                [
                    [{"kind": "text", "text": long_text, "media_ref": "", "offset": 0}],
                    [{"kind": "text", "text": "hello world", "media_ref": "", "offset": 0}],
                ],
                type=extract_spans_schema_span_list(),
            ),
        }
    )
    ds = ray.data.from_arrow(docs)
    out = extract_spans_ds(ds).take_all()
    by_id = {r["doc_id"]: r for r in out}
    assert by_id["bad-doc"]["error"] is not None
    assert by_id["ok-doc"]["error"] is None
    assert [s["text"] for s in by_id["ok-doc"]["spans"]] == ["hello world"]
    errs = split_errors(extract_spans_ds(ds)).take_all()
    assert [e["doc_id"] for e in errs] == ["bad-doc"]


def extract_spans_schema_span_list():
    from pdfplumber_ray.schemas import SPAN

    return pa.list_(SPAN)


def test_operator_datasets_consistent(corpus_dir, expected_spans):
    pages = decode_pages_ds(read_docs(corpus_dir), PipelineConfig(batch_size=16))
    # page counts match the pure layout
    page_counts = {}
    for row in pages.select_columns(["doc_id", "page_number"]).take_all():
        page_counts[row["doc_id"]] = max(
            page_counts.get(row["doc_id"], 0), row["page_number"]
        )
    for doc_id, spans in expected_spans.items():
        assert page_counts[doc_id] == len(layout_doc(spans))

    # chars explode: totals match
    n_chars_ds = chars_ds(pages).count()
    n_chars_ref = sum(
        int(p["chars"]["x0"].shape[0])
        for spans in expected_spans.values()
        for p in layout_doc(spans)
    )
    assert n_chars_ds == n_chars_ref

    # words: every word text non-empty, schema stable
    w = words_ds(pages).take(50)
    assert all(r["text"] for r in w)

    # text: page text contains the first body word of some doc
    txt = page_text_ds(pages, mode="simple").take(5)
    assert all(isinstance(r["text"], str) for r in txt)

    # tables: cell rows present where corpus has table_cell spans
    tabs = tables_ds(pages).take_all()
    got_cells = sum(
        sum(1 for row in t["rows"] for c in row if c is not None) for t in tabs
    )
    want_cells = sum(
        sum(1 for s in spans if s["kind"] == "table_cell")
        for spans in expected_spans.values()
    )
    assert got_cells == want_cells


def test_filter_pages_predicate(ray_session):
    import ray.data as rd

    from pdfplumber_ray.pipelines import chars_ds, decode_pages_ds
    from pdfplumber_ray.pipelines.extract import filter_pages_ds

    t = make_docs_table(10, seed=13)
    pages = decode_pages_ds(rd.from_arrow(t), PipelineConfig(batch_size=4))
    big_only = filter_pages_ds(pages, lambda ch: ch["size"] >= 14.0)
    out = chars_ds(big_only).take_all()
    n_all = chars_ds(pages).count()
    assert 0 < len(out) < n_all
    assert all(r["size"] >= 14.0 for r in out)


def test_empty_and_degenerate_inputs(ray_session):
    import ray.data as rd

    from pdfplumber_ray.schemas import DOCS, SPAN

    # zero-doc dataset flows through without error
    empty = pa.table(
        {"doc_id": pa.array([], pa.string()), "spans": pa.array([], pa.list_(SPAN))}
    )
    assert extract_spans_ds(rd.from_arrow(empty)).count() == 0

    # a doc with zero spans and a doc with an empty-text span
    degenerate = pa.table(
        {
            "doc_id": pa.array(["no-spans", "blank"]),
            "spans": pa.array(
                [[], [{"kind": "text", "text": "x", "media_ref": "", "offset": 0}]],
                pa.list_(SPAN),
            ),
        }
    )
    out = {r["doc_id"]: r for r in extract_spans_ds(rd.from_arrow(degenerate)).take_all()}
    assert out["no-spans"]["spans"] == [] and out["no-spans"]["error"] is None
    assert [s["text"] for s in out["blank"]["spans"]] == ["x"]


def test_mcid_text_matches_source_spans(ray_session):
    import ray.data as rd

    from pdfplumber_ray.pipelines.extract import mcid_text_ds

    t = make_docs_table(20, seed=21)
    pages = decode_pages_ds(rd.from_arrow(t), PipelineConfig(batch_size=8))
    got = {}
    for r in mcid_text_ds(pages).take_all():
        got[(r["doc_id"], r["mcid"])] = r["text"]
    n_checked = 0
    for did, spans in zip(t.column("doc_id").to_pylist(), t.column("spans").to_pylist()):
        for i, s in enumerate(spans):
            if s["kind"] == "media_ref":
                assert (did, i) not in got  # images carry no chars
                continue
            assert got[(did, i)] == s["text"].replace(" ", ""), (did, i)
            n_checked += 1
    assert n_checked > 100
