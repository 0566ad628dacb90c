"""Layout golden: the synthetic decode's page geometry, column by column.

``goldens/layout_synth.parquet`` holds every page that ``layout_doc_fields``
makes of a fixed set of documents: seeded ``synth_corpus`` documents, a
100x document of 70+ pages, a document with a rotated heading and a table
run split across pages, and a media-only document. Each page row stores the chars,
rects, lines, images, annots and curves with every column and the numpy
dtype of each, so a change to the layout that moves a glyph, drops a column
or widens a dtype fails here.

Regenerate (only when the layout is meant to change) with
``python tests/test_layout_golden.py --write``.
"""

import os
import sys
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from pdfplumber_ray.config import PipelineConfig, SynthLayoutConfig
from pdfplumber_ray.schemas import SPAN
from pdfplumber_ray.sources.synth_corpus import VOCAB, assign_offsets, make_doc_spans
from pdfplumber_ray.stages import decode
from pdfplumber_ray.stages.layout import LayoutError, layout_doc_fields, wrap_words

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens", "layout_synth.parquet")
SEED = 7
COLUMNAR = ("chars", "rects", "lines")
RECORDS = ("images", "annots", "curves")
_ARROW = {"float64": pa.float64(), "int32": pa.int32(), "bool": pa.bool_(), "object": pa.string()}


def _spans(items: List[tuple]) -> List[Dict]:
    offsets = assign_offsets([t for _, t, _ in items])
    return [
        {"kind": k, "text": t, "media_ref": m, "offset": o}
        for (k, t, m), o in zip(items, offsets)
    ]


def golden_docs() -> List[List[Dict]]:
    """The documents the golden lays out."""
    rng = np.random.default_rng(SEED)
    words = lambda n: " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), n))  # noqa: E731
    docs = [make_doc_spans(i, seed=SEED, pathological_rate=0.0) for i in range(12)]
    docs.append(make_doc_spans(12, seed=SEED, pathological_rate=1.0))
    # a 200-cell run (67 rows of 3) splits across pages; "Sums" is a short
    # heading of even length, which renders rotated, and "Tally" is not
    docs.append(
        _spans(
            [("heading", "Tally", ""), ("heading", "Sums", ""), ("text", words(40), "")]
            + [("table_cell", words(1 + i % 2), "") for i in range(200)]
            + [("media_ref", "", "media://golden/0"), ("heading", "Sums", "")]
        )
    )
    docs.append(_spans([("media_ref", "", f"media://golden/m{i}") for i in range(3)]))
    return docs


def _fields(spans: List[Dict]):
    return (
        np.array([s["kind"] for s in spans], dtype=object),
        np.array([s["text"] for s in spans], dtype=object),
        np.array([s["media_ref"] for s in spans], dtype=object),
    )


def _columnar(objs: Dict[str, np.ndarray]) -> pa.Array:
    keys = sorted(objs)
    return pa.StructArray.from_arrays(
        [pa.array(np.asarray(objs[k]).tolist(), _ARROW[np.asarray(objs[k]).dtype.name]) for k in keys],
        names=keys,
    )


def pages_table(docs: List[List[Dict]], cfg: SynthLayoutConfig) -> pa.Table:
    """Every page of ``docs``: one row per page, each object kind as a
    list of structs with its columns in name order, and the columnar kinds'
    dtypes as ``name:dtype`` strings."""
    rows: Dict[str, list] = {
        k: [] for k in ("doc", "page_number", "page_width", "page_height", "initial_doctop")
    }
    objs: Dict[str, list] = {k: [] for k in COLUMNAR + RECORDS}
    dtypes: Dict[str, List[str]] = {k: [] for k in COLUMNAR}
    for d, spans in enumerate(docs):
        for page in layout_doc_fields(*_fields(spans), cfg):
            rows["doc"].append(d)
            for k in ("page_number", "page_width", "page_height", "initial_doctop"):
                rows[k].append(page[k])
            for k in COLUMNAR:
                cols = page[k]
                objs[k].append(_columnar(cols))
                dtypes[k].append(",".join(f"{c}:{np.asarray(cols[c]).dtype}" for c in sorted(cols)))
            for k in RECORDS:
                objs[k].append(page[k])
    out = {
        "doc": pa.array(rows["doc"], pa.int32()),
        "page_number": pa.array(rows["page_number"], pa.int32()),
        "page_width": pa.array(rows["page_width"], pa.float64()),
        "page_height": pa.array(rows["page_height"], pa.float64()),
        "initial_doctop": pa.array(rows["initial_doctop"], pa.float64()),
    }
    for k in COLUMNAR:
        parts = objs[k]
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in parts])]).astype(np.int32)
        out[k] = pa.ListArray.from_arrays(pa.array(offsets), pa.concat_arrays(parts))
        out[k + "_dtypes"] = pa.array(dtypes[k], pa.string())
    for k in RECORDS:
        out[k] = pa.array(objs[k])
    return pa.table(out)


@pytest.fixture(scope="module")
def laid_out() -> pa.Table:
    return pages_table(golden_docs(), SynthLayoutConfig())


def test_golden_covers_its_cases(laid_out):
    per_doc = np.bincount(laid_out.column("doc").to_numpy())
    assert per_doc.max() >= 70
    uprights = [c["upright"] for page in laid_out.column("chars").to_pylist() for c in page]
    assert False in uprights
    long_doc = laid_out.filter(pc.equal(laid_out.column("doc"), 13))
    assert sum(len(r) > 0 for r in long_doc.column("rects").to_pylist()) >= 2
    media_doc = laid_out.filter(pc.equal(laid_out.column("doc"), 14))
    assert [len(c) for c in media_doc.column("chars").to_pylist()] == [0] * media_doc.num_rows
    assert sum(len(i) for i in media_doc.column("images").to_pylist()) == 3


def test_layout_matches_golden(laid_out):
    golden = pq.read_table(GOLDEN)
    assert laid_out.schema.equals(golden.schema)
    for name in golden.column_names:
        assert laid_out.column(name).equals(golden.column(name)), name


@pytest.mark.parametrize(
    "text, lines",
    [
        ("", [""]), (" ", [""]), ("a", ["a"]), (" a b", ["a b"]), ("a  b", ["a  b"]),
        ("a b ", ["a b "]), ("ab cd", ["ab cd"]), ("abcdef", ["abcdef"]),
        ("abc def", ["abc", "def"]), ("abcd efgh ij", ["abcd", "efgh", "ij"]), ("  x", ["x"]),
        ("x  ", ["x  "]), ("xxxxxxxxxxxx yy", ["xxxxxxxxxxxx", "yy"]),
        ("ab  cd  ef", ["ab ", "cd ", "ef"]),
    ],
)
def test_wrap_words_at_five_chars(text, lines):
    assert wrap_words(text, 5) == lines


def _wrap_word_by_word(text: str, max_chars: int) -> List[str]:
    """The word-at-a-time greedy wrap ``wrap_words`` replaced: the
    reference for the fuzz below."""
    lines: List[str] = []
    cur = ""
    for w in text.split(" "):
        if not cur:
            cur = w
        elif len(cur) + 1 + len(w) <= max_chars:
            cur = cur + " " + w
        else:
            lines.append(cur)
            cur = w
    if cur:
        lines.append(cur)
    return lines or [""]


def test_wrap_words_matches_word_by_word_wrap():
    rng = np.random.default_rng(SEED)
    pieces = ["", " ", "  ", "a", "bc", "def", "ghij", "klmnopq", "rstuvwxyzab"]
    for _ in range(3000):
        text = "".join(rng.choice(pieces, int(rng.integers(0, 12))))
        width = int(rng.integers(1, 12))
        assert wrap_words(text, width) == _wrap_word_by_word(text, width), (text, width)


def test_over_capacity_block_raises_and_is_quarantined():
    cfg = SynthLayoutConfig()
    long_text = " ".join(["word"] * (cfg.max_line_chars * (cfg.lines_per_page + 1) // 5))
    bad = _spans([("text", "fine", ""), ("text", long_text, "")])
    with pytest.raises(LayoutError, match="exceeds page capacity"):
        layout_doc_fields(*_fields(bad), cfg)
    good = make_doc_spans(0, seed=SEED, pathological_rate=0.0)
    batch = pa.table(
        {
            "doc_id": pa.array(["good", "bad"], pa.string()),
            "spans": pa.array([good, bad], pa.list_(SPAN)),
        }
    )
    out = decode.ExtractSpans(PipelineConfig())(batch).to_pylist()
    assert out[0]["error"] is None and out[0]["n_pages"] >= 1 and out[0]["spans"]
    assert out[1]["error"].startswith("LayoutError: ")
    assert out[1]["spans"] == [] and out[1]["n_pages"] == 0


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    pq.write_table(pages_table(golden_docs(), SynthLayoutConfig()), GOLDEN)
