"""Page-stage golden: every page stage of ``stages/decode.py`` on fixed page rows.

``goldens/page_stages.parquet`` holds each (stage, input) pair's output as
an Arrow IPC stream: the stage run over the input's page rows in batches of
``BATCH`` pages. The inputs are the synthetic decode of ``make_docs_table``
documents (the generator behind the ``mixed`` workload; seeds 1 and 2, plus
a media-only document whose page has no chars) and the pdfio decode of
``perfbench/pdfgen.py`` documents (the ``pdf`` workload; seeds 1 and 2).
Between them they hold rotated, empty, table, image and curve pages.

The golden was written by the per-page stages that read one page dict at a
time. The stages now read one ``PageGroup`` per batch, and three
differences are deliberate fixes, named in ``_as_before_fixes``:

* ``PagesCrop`` keeps every image field (the rebuild nulled ``mcid``/``tag``);
* ``PagesCrop`` crops, keeps or drops curves by bbox, as rects and lines
  (they passed through uncropped);
* the mask stages pass the columns they do not rewrite through, so the PDF
  path's ``error`` column survives them.

Regenerate (only when a stage is meant to change) with
``python tests/test_page_stages.py --write``.
"""

import ast
import glob
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdfplumber_ray.config import WordConfig
from pdfplumber_ray.pdfio.reader import decode_pdf_batch
from pdfplumber_ray.schemas import CHAR, DOCS, LINE, RECT
from pdfplumber_ray.sources.synth_corpus import make_docs_table
from pdfplumber_ray.stages import decode

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "goldens", "page_stages.parquet")
BATCH = 7
BBOX = (60.0, 120.0, 400.0, 500.0)


def _left_half(chars: Dict[str, np.ndarray]) -> np.ndarray:
    return chars["x0"] + chars["width"] / 2 < 306.0


def _dedupe(extra_key_cols=()) -> Callable[[pa.Table], pa.Table]:
    dup = decode.DuplicateChars()
    dedupe = decode.PagesDedupeChars(extra_key_cols=extra_key_cols)
    return lambda batch: dedupe(dup(batch))


STAGES: Dict[str, Callable[[], Callable[[pa.Table], pa.Table]]] = {
    "words": lambda: decode.PagesToWords(),
    "words_attrs": lambda: decode.PagesToWords(WordConfig(extra_attrs=("fontname", "size"))),
    "text_default": lambda: decode.PagesToText(),
    "text_simple": lambda: decode.PagesToText("simple"),
    "text_layout": lambda: decode.PagesToText("layout"),
    "text_layout_page_box": lambda: decode.PagesToText("layout", page_box=True),
    "text_lines": lambda: decode.PagesToTextLines(),
    "search": lambda: decode.PagesSearch(r"(qu\w+) (\w+)"),
    "mcid_text": lambda: decode.PagesToMcidText(),
    "text_boxes": lambda: decode.PagesToTextBoxes(),
    "filter": lambda: decode.PagesFilter(_left_half),
    "crop": lambda: decode.PagesCrop(BBOX, "crop"),
    "within": lambda: decode.PagesCrop(BBOX, "within"),
    "outside": lambda: decode.PagesCrop(BBOX, "outside"),
    "duplicate": lambda: decode.DuplicateChars(),
    "dedupe": lambda: _dedupe(),
    "dedupe_mcid": lambda: _dedupe(("mcid",)),
}
MASK_STAGES = ("filter", "crop", "within", "outside", "duplicate", "dedupe", "dedupe_mcid")
CROP_STAGES = ("crop", "within", "outside")


def _synth_pages(seed: int) -> pa.Table:
    media_only = [
        {"kind": "media_ref", "text": "", "media_ref": f"media://golden/{i}", "offset": 0}
        for i in range(2)
    ]
    docs = pa.concat_tables(
        [
            make_docs_table(6, seed=seed, pathological_rate=0.0),
            pa.table({"doc_id": ["media-only"], "spans": [media_only]}, schema=DOCS),
        ]
    )
    return decode.SynthDecodePages()(docs)


def _pdf_table(seed: int, n_docs: int) -> pa.Table:
    sys.path.insert(0, ROOT)
    from perfbench import pdfgen

    return pa.table(
        {
            "doc_id": [f"pdf-{seed}-{i}" for i in range(n_docs)],
            "pdf_bytes": pa.array(
                [pdfgen.make_pdf(seed, i)[0] for i in range(n_docs)], pa.binary()
            ),
        }
    )


def _pdf_pages(seed: int) -> pa.Table:
    return decode_pdf_batch(_pdf_table(seed, 3))


INPUTS = {
    "mixed-1": lambda: _synth_pages(1),
    "mixed-2": lambda: _synth_pages(2),
    "pdf-1": lambda: _pdf_pages(1),
    "pdf-2": lambda: _pdf_pages(2),
}


def run_stage(
    stage: Callable[[pa.Table], pa.Table], pages: pa.Table, batch: int, promote: str = "none"
) -> pa.Table:
    return pa.concat_tables(
        [stage(pages.slice(i, batch)) for i in range(0, pages.num_rows, batch)],
        promote_options=promote,
    )


def _ipc(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def golden_table() -> pa.Table:
    rows: Dict[str, List] = {"stage": [], "input": [], "output": []}
    for input_name, make in INPUTS.items():
        pages = make()
        for name, stage in STAGES.items():
            rows["stage"].append(name)
            rows["input"].append(input_name)
            # the page-dict stages typed the columns of a batch without
            # words as null; promoting them records the columns' types
            rows["output"].append(_ipc(run_stage(stage(), pages, BATCH, "permissive")))
    return pa.table(
        {
            "stage": pa.array(rows["stage"], pa.string()),
            "input": pa.array(rows["input"], pa.string()),
            "output": pa.array(rows["output"], pa.binary()),
        }
    )


@pytest.fixture(scope="module")
def inputs() -> Dict[str, pa.Table]:
    return {name: make() for name, make in INPUTS.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[tuple, pa.Table]:
    table = pq.read_table(GOLDEN).to_pydict()
    return {
        (s, i): pa.ipc.open_stream(o).read_all()
        for s, i, o in zip(table["stage"], table["input"], table["output"])
    }


def test_inputs_cover_their_cases(inputs):
    synth = pa.concat_tables([inputs["mixed-1"], inputs["mixed-2"]])
    chars = synth.column("chars").to_pylist()
    assert any(c and not all(x["upright"] for x in c) for c in chars)  # rotated
    assert [len(c) for c in chars].count(0) >= 2  # empty
    assert sum(bool(r) for r in synth.column("rects").to_pylist()) >= 10  # tables
    assert any(any(i["mcid"] >= 0 for i in page) for page in synth.column("images").to_pylist())
    assert any(synth.column("curves").to_pylist())
    assert any(m >= 0 for c in chars for m in (x["mcid"] for x in c))
    for name in ("pdf-1", "pdf-2"):
        pdf = inputs[name]
        assert pdf.num_rows >= 9 and pdf.column("error").null_count == pdf.num_rows
        assert sum(bool(r) for r in pdf.column("rects").to_pylist()) == pdf.num_rows


def _curve_crop(curve: dict, mode: str) -> Optional[dict]:
    """One curve record under ``mode``, as the reference crops any object
    by its bbox (utils/geometry.py:53-125: the overlap rule, ``clip_obj``
    and the within/outside filters); None when it is dropped."""
    bx0, btop, bx1, bbottom = BBOX
    x0, x1 = max(curve["x0"], bx0), min(curve["x1"], bx1)
    top, bottom = max(curve["top"], btop), min(curve["bottom"], bbottom)
    overlaps = x1 - x0 >= 0 and bottom - top >= 0 and (x1 - x0) + (bottom - top) > 0
    if mode == "outside":
        return None if overlaps else curve
    if mode == "within":
        inside = (curve["x0"], curve["top"], curve["x1"], curve["bottom"]) == (x0, top, x1, bottom)
        return curve if overlaps and inside else None
    if not overlaps:
        return None
    return {**curve, "x0": x0, "x1": x1, "top": top, "bottom": bottom,
            "doctop": curve["doctop"] + (top - curve["top"])}


def _as_before_fixes(name: str, out: pa.Table, pages: pa.Table) -> pa.Table:
    """``out`` with the three deliberate fixes undone, after checking that
    each holds on this input; what is left must equal the golden."""
    if name not in MASK_STAGES:
        return out
    if "error" in pages.column_names:
        # fix: the mask stages keep page rows one to one and pass the
        # quarantine column through
        assert out.column("error").equals(pages.column("error"))
        out = out.drop_columns(["error"])
    if name not in CROP_STAGES:
        return out
    # fix: curves are cropped; the golden holds the input's curves
    want = [
        [c for c in (_curve_crop(c, name) for c in page) if c is not None]
        for page in pages.column("curves").to_pylist()
    ]
    assert out.column("curves").to_pylist() == want
    out = out.set_column(out.column_names.index("curves"), "curves", pages.column("curves"))
    # fix: images keep mcid and tag
    images = out.column("images").combine_chunks()
    kids = images.values
    nulled = pa.StructArray.from_arrays(
        [
            pa.nulls(len(kids), f.type) if f.name in ("mcid", "tag") else kids.field(f.name)
            for f in kids.type
        ],
        fields=list(kids.type),
    )
    rebuilt = pa.ListArray.from_arrays(images.offsets, nulled)
    return out.set_column(out.column_names.index("images"), "images", rebuilt)


@pytest.mark.parametrize("input_name", list(INPUTS))
@pytest.mark.parametrize("name", list(STAGES))
def test_stage_matches_golden(name, input_name, inputs, golden):
    pages = inputs[input_name]
    out = run_stage(STAGES[name](), pages, BATCH)
    want = golden[(name, input_name)]
    got = _as_before_fixes(name, out, pages)
    assert got.schema.equals(want.schema), (got.schema, want.schema)
    assert got.equals(want)


@pytest.mark.parametrize("input_name", ["mixed-1", "pdf-1"])
@pytest.mark.parametrize("name", list(STAGES))
def test_batch_equals_its_page_slices(name, input_name, inputs):
    pages = inputs[input_name]
    whole = STAGES[name]()(pages)
    assert whole.equals(run_stage(STAGES[name](), pages, 1))


def test_crop_keeps_image_mcid_and_tag():
    image = {"x0": 100.0, "x1": 150.0, "top": 200.0, "bottom": 250.0,
             "media_ref": "media://x", "mcid": 7, "tag": "Figure"}
    pages = _one_page(images=[image])
    for mode in ("crop", "within"):
        out = decode.PagesCrop(BBOX, mode)(pages).column("images").to_pylist()
        assert out == [[image]], mode
    assert decode.PagesCrop(BBOX, "outside")(pages).column("images").to_pylist() == [[]]


def test_crop_applies_to_curves():
    inside = _curve([(100.0, 200.0), (110.0, 210.0)])
    far = _curve([(500.0, 500.0), (510.0, 510.0)])
    across = _curve([(50.0, 200.0), (100.0, 200.0), (100.0, 230.0)])
    pages = _one_page(curves=[inside, far, across])

    def curves(mode, bbox=BBOX):
        return decode.PagesCrop(bbox, mode)(pages).column("curves").to_pylist()[0]

    assert curves("crop", (0.0, 0.0, 100.0, 100.0)) == []
    assert curves("within") == [inside]
    assert curves("outside") == [far]
    clipped = curves("crop")
    assert [c["x0"] for c in clipped] == [100.0, 60.0]
    assert clipped[0] == inside and clipped[1]["pts"] == across["pts"]


def _curve(pts):
    xs = [x for x, _ in pts]
    tops = [t for _, t in pts]
    return {
        "x0": min(xs), "x1": max(xs), "top": min(tops), "bottom": max(tops),
        "doctop": min(tops), "pts": [{"x": x, "top": t} for x, t in pts],
        "path": [{"cmd": "m" if j == 0 else "l", "x": x, "top": t} for j, (x, t) in enumerate(pts)],
        "dash": {"array": [], "phase": 0.0},
    }


def _one_page(images=(), curves=()) -> pa.Table:
    """One 612x792 page row holding only ``images`` and ``curves``."""
    empty = lambda struct: {f.name: np.empty(0, dtype=object) for f in struct}  # noqa: E731
    page = {
        "page_number": 1, "page_width": 612.0, "page_height": 792.0, "initial_doctop": 0.0,
        "chars": empty(CHAR), "rects": empty(RECT), "lines": empty(LINE),
        "images": list(images), "annots": [], "curves": list(curves),
    }
    return decode.pages_to_arrow([("d", page)])


def test_mask_stages_pass_the_error_column_through():
    broken = pa.table(
        {"doc_id": ["broken"], "pdf_bytes": pa.array([b"%PDF-1.4 nothing"], pa.binary())}
    )
    pages = decode_pdf_batch(pa.concat_tables([_pdf_table(1, 1), broken]))
    assert pages.column("error").to_pylist()[-1] is not None
    stages = {
        "filter": decode.PagesFilter(_left_half),
        "crop": decode.PagesCrop(BBOX, "crop", strict=False),
        "dedupe": decode.PagesDedupeChars(),
        "duplicate": decode.DuplicateChars(),
    }
    for name, stage in stages.items():
        out = stage(pages)
        assert out.column_names == pages.column_names, name
        assert out.column("error").equals(pages.column("error")), name
        assert out.column("doc_id").equals(pages.column("doc_id")), name


def test_strict_crop_passes_quarantined_rows_through():
    """``PagesCrop`` at its default ``strict=True`` checks the bbox on the
    real pages only: a batch that holds a quarantined document crops the
    rest and passes the error row through as it is."""
    junk = pa.table({"doc_id": ["junk"], "pdf_bytes": pa.array([b"not a PDF, 16 B."], pa.binary())})
    pages = decode_pdf_batch(pa.concat_tables([_pdf_table(1, 3), junk]))
    err = pages.column("error").to_pylist()
    assert err[-1] is not None and all(e is None for e in err[:-1])
    out = decode.PagesCrop(BBOX)(pages)
    real = pages.slice(0, pages.num_rows - 1)
    assert out.slice(0, real.num_rows).equals(decode.PagesCrop(BBOX)(real))
    assert out.slice(real.num_rows).equals(pages.slice(real.num_rows))
    # a bbox outside a real page still raises
    with pytest.raises(ValueError, match="not fully within"):
        decode.PagesCrop((0.0, 0.0, 5000.0, 5000.0))(pages)


def test_no_stage_reads_page_dicts():
    """Every page stage reads ``arrow_page_group``: no code in ``stages/``
    calls ``arrow_pages_to_dicts``, and only ``SynthDecodePages`` calls
    ``pages_to_arrow``."""
    callers: Dict[str, List[str]] = {"arrow_pages_to_dicts": [], "pages_to_arrow": []}
    for path in sorted(glob.glob(os.path.join(ROOT, "pdfplumber_ray", "stages", "*.py"))):
        tree = ast.parse(open(path).read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = node.func
                    called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    if called in callers:
                        where = f"{os.path.basename(path)}:{getattr(top, 'name', '?')}"
                        callers[called].append(where)
    assert callers == {"arrow_pages_to_dicts": [], "pages_to_arrow": ["decode.py:SynthDecodePages"]}


if __name__ == "__main__":
    if "--write" in sys.argv:
        pq.write_table(golden_table(), GOLDEN, compression="zstd")
        print("wrote", GOLDEN, os.path.getsize(GOLDEN), "bytes")
