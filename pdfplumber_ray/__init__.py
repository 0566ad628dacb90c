"""pdfplumber_ray — a Ray-Data-native extraction engine.

A brand-new engine with the query/data-processing capabilities of
jsvine/pdfplumber (reference at /root/reference), re-expressed as
``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy Arrow
batches; stage classes run as tasks over instances built on the driver.

Layout:
    functions/  pure vectorized kernels (numpy / pyarrow; no Ray)
    sources/    readers + adapters (parquet now, lance in prod) + synth corpus
    stages/     map_batches callables (plain fns and stage classes)
    pipelines/  end-to-end dataset pipelines (docs -> out_spans, tables, ...)
    state/      checkpoint manifests, lineage, metrics
"""

__version__ = "0.1.0"

from .config import (  # noqa: E402,F401
    LayoutConfig,
    PipelineConfig,
    SynthLayoutConfig,
    TableConfig,
    WordConfig,
)

# user-facing conveniences (heavier imports stay lazy inside submodules)
from .display import PageImage  # noqa: E402,F401


def open_corpus(paths, password: str = "", **kwargs):
    """Raw-PDF corpus -> PAGES Dataset (the engine's ``pdfplumber.open``
    front door for many documents at once)."""
    from .pdfio import read_pdf_corpus

    return read_pdf_corpus(paths, password=password, **kwargs)


def repair(data: bytes, password: str = "") -> bytes:
    """Structurally rewrite one PDF's bytes (gs-repair analogue)."""
    from .pdfio.rewrite import rewrite_pdf

    return rewrite_pdf(data, password=password)
