"""The contract between the program and ``perfbench/trace.py``.

``perfbench/run.py --trace 1`` measures layers by wrapping module
attributes of the program (``trace.layer_patches``) and counts pages and
chars from what ``decode.layout_doc_fields`` returns. A refactor that
renames a patched attribute, or stops calling it where the tracer expects,
breaks the traced benchmark without failing any program test; this file
makes it fail here.
"""

import importlib.util
import os

import pyarrow as pa
import pytest

from pdfplumber_ray.config import PipelineConfig
from pdfplumber_ray.sources.synth_corpus import make_docs_table
from pdfplumber_ray.stages import decode

TRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "trace.py")


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves(trace):
    patches = trace.layer_patches(trace.Tracer())
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in vars(owner)
    ]
    assert missing == []


def test_traced_extract_spans_counts_pages_and_chars(trace):
    # three ordinary documents and one 100x document of many pages
    batch = pa.concat_tables(
        [
            make_docs_table(3, seed=3, pathological_rate=0.0),
            make_docs_table(1, seed=3, start_index=5, pathological_rate=1.0),
        ]
    )
    stage = decode.ExtractSpans(PipelineConfig())
    plain = stage(batch)

    tracer = trace.Tracer()
    with trace.patched(trace.layer_patches(tracer)):
        traced = stage(batch)
    assert traced.equals(plain)

    pages = 0
    chars = 0
    for doc_id, kinds, texts, medias in decode.docs_batch_fields(batch):
        laid_out = decode.layout_doc_fields(kinds, texts, medias, PipelineConfig().synth)
        pages += len(laid_out)
        chars += sum(int(p["chars"]["x0"].shape[0]) for p in laid_out)
    assert pages == sum(plain.column("n_pages").to_pylist()) > len(plain)
    assert tracer.counts["decode.pages"] == pages
    assert tracer.counts["decode.chars"] == chars > 0
    common, _ = trace.layer_metrics(tracer, batch.num_rows, pages)
    assert common["decode.pages"] == pages and common["decode.chars"] == chars
    assert common["decode.cpu_ms_per_doc"] > 0
