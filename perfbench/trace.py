"""In-memory span tracer wrapped around the public functions of each layer.

Tracing is installed from the outside: :func:`patched` replaces module
attributes with timing wrappers and puts the originals back on exit. A span
records ``(name, start, end, parent, doc_id)`` in thread CPU seconds; a
layer's self time is its spans' durations minus the part their child spans
cover. The program under test is not changed.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int, Optional[str]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.doc: Optional[str] = None
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Counter, Any], None]] = None,
        new_batch: bool = False,
        doc_arg: bool = False,
    ) -> Callable:
        """``new_batch``: the call starts a stage batch, so no document is
        current; ``doc_arg``: the first argument is the document id."""

        def traced_call(*args: Any, **kwargs: Any) -> Any:
            if new_batch:
                self.doc = None
            if doc_arg:
                self.doc = args[0]
            doc = self.doc
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.thread_time()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, doc)
            if count is not None:
                count(self.counts, out)
            return out

        return traced_call

    def doc_iter(self, fn: Callable, doc_of: Callable[[Any], str]) -> Callable:
        """Wrap a per-document iterator so each item makes its document
        current."""

        def iterate(*args: Any, **kwargs: Any) -> Iterator[Any]:
            for item in fn(*args, **kwargs):
                self.doc = doc_of(item)
                yield item

        return iterate

    # ---- reports ----

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """(self seconds per layer, total seconds per layer counting only
        outermost spans of that layer, self seconds per document)."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        by_layer: Dict[str, float] = defaultdict(float)
        total: Dict[str, float] = defaultdict(float)
        by_doc: Dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, doc) in enumerate(spans):
            own = (t1 - t0) - child_time[i]
            by_layer[name] += own
            if doc is not None:
                by_doc[doc] += own
            # outermost span of its layer: no ancestor of the same name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += t1 - t0
        return dict(by_layer), dict(total), dict(by_doc)

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "doc_id": s[4]}
            for s in self.spans
            if s is not None
        ]


@contextlib.contextmanager
def patched(patches: List[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``setattr(owner, attr, new)`` for each patch; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class ABRunner:
    """Calls ``fn(*args)`` twice, once plain and once with ``patches``
    installed, alternating which goes first, and sums the thread CPU time of
    each side. Returns ``(plain output, traced output)``."""

    def __init__(self, patches: List[Tuple[Any, str, Callable]]):
        self.patches = patches
        self.plain_s = 0.0
        self.traced_s = 0.0
        self._calls = 0

    def __call__(self, fn: Callable, *args: Any) -> Tuple[Any, Any]:
        order = (False, True) if self._calls % 2 == 0 else (True, False)
        self._calls += 1
        out: Dict[bool, Any] = {}
        for traced in order:
            with patched(self.patches) if traced else contextlib.nullcontext():
                t0 = time.thread_time()
                out[traced] = fn(*args)
                dt = time.thread_time() - t0
            if traced:
                self.traced_s += dt
            else:
                self.plain_s += dt
        return out[False], out[True]


# ---- counters ----

def _count_layout(c: Counter, pages: List[Dict]) -> None:
    c["decode.pages"] += len(pages)
    c["decode.chars"] += sum(int(p["chars"]["x0"].shape[0]) for p in pages)


def _count_pdf_doc(c: Counter, out: Tuple[List[Dict], Optional[str]]) -> None:
    rows, err = out
    c["decode.pages"] += len(rows)
    c["decode.chars"] += sum(r["chars_cols"]["n"] for r in rows if r.get("chars_cols"))
    c["decode.errors"] += err is not None


def _count_edges(c: Counter, edges: Any) -> None:
    if edges is not None:
        c["edges.count"] += int(edges["x0"].shape[0])


def _count_page_tables(c: Counter, tables: List) -> None:
    c["tables.pages_scanned"] += 1
    c["tables.found"] += len(tables)
    c["tables.pages_hit"] += bool(tables)


def _count_words(c: Counter, words: Dict) -> None:
    c["words.count"] += int(words["text"].shape[0])


def layer_patches(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """Wrappers around every layer's public entry points (both the
    synthetic-span path and the PDF path)."""
    from pdfplumber_ray.functions import tables, textmap
    from pdfplumber_ray.pdfio import document, interp, reader
    from pdfplumber_ray.stages import decode, flatten

    t = tracer
    words = lambda fn: t.wrap("words", fn, _count_words)  # noqa: E731
    patches = [
        # stage glue: Arrow batches in and out
        (decode.ExtractSpans, "__call__",
         t.wrap("encode", decode.ExtractSpans.__call__, new_batch=True)),
        (decode.PagesToText, "__call__",
         t.wrap("encode", decode.PagesToText.__call__, new_batch=True)),
        (decode.PagesToTables, "__call__",
         t.wrap("encode", decode.PagesToTables.__call__, new_batch=True)),
        (decode, "docs_batch_fields", t.doc_iter(decode.docs_batch_fields, lambda it: it[0])),
        (decode, "arrow_pages_to_dicts",
         t.doc_iter(decode.arrow_pages_to_dicts, lambda it: it[0])),
        # synthetic decode: spans -> page geometry
        (decode, "layout_doc_fields", t.wrap("layout", decode.layout_doc_fields, _count_layout)),
        (decode, "extract_doc_spans", t.wrap("flatten", decode.extract_doc_spans)),
        # PDF decode: bytes -> page geometry
        (reader, "decode_pdf_batch",
         t.wrap("pdfio.encode", reader.decode_pdf_batch, new_batch=True)),
        (reader, "decode_pdf_doc",
         t.wrap("pdfio.encode", reader.decode_pdf_doc, _count_pdf_doc, doc_arg=True)),
        (reader, "PDFDocument", t.wrap("pdfio.parse", reader.PDFDocument)),
        (document.PDFDocument, "pages", t.wrap("pdfio.parse", document.PDFDocument.pages)),
        (interp.PageInterpreter, "run", t.wrap("pdfio.interp", interp.PageInterpreter.run)),
        # tables
        (flatten, "page_tables", t.wrap("tables.cells", flatten.page_tables, _count_page_tables)),
        (decode, "page_tables_full",
         t.wrap("tables.cells", decode.page_tables_full, _count_page_tables)),
        (flatten, "page_edge_union", t.wrap("edges", flatten.page_edge_union, _count_edges)),
        (flatten, "find_tables_page", t.wrap("tables.find", flatten.find_tables_page)),
        (tables, "find_tables_page", t.wrap("tables.find", tables.find_tables_page)),
        # words and text
        (flatten, "page_text_blocks", t.wrap("words", flatten.page_text_blocks)),
        (flatten, "extract_words_page", words(flatten.extract_words_page)),
        (decode, "extract_words_page", words(decode.extract_words_page)),
        (textmap, "extract_words_page", words(textmap.extract_words_page)),
        (decode, "extract_text_page", t.wrap("text", decode.extract_text_page)),
    ]
    return patches


def layer_metrics(tracer: Tracer, docs: int, pages: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(per-layer metrics on every workload, metrics of layers that only
    some workloads run). Times are CPU milliseconds."""
    own, total, by_doc = tracer.self_times()
    c = tracer.counts
    ms = lambda s: s * 1000.0  # noqa: E731
    per_doc = np.array(sorted(by_doc.values())) * 1000.0
    decode_s = own.get("layout", 0.0) + sum(
        own.get(k, 0.0) for k in ("pdfio.parse", "pdfio.interp", "pdfio.encode")
    )
    common = {
        "decode.cpu_ms_per_doc": ms(decode_s) / docs,
        "decode.pages": float(c["decode.pages"]),
        "decode.chars": float(c["decode.chars"]),
        "edges.cpu_ms_per_doc": ms(own.get("edges", 0.0)) / docs,
        "edges.count": float(c["edges.count"]),
        "tables.find_cpu_ms_per_doc": ms(own.get("tables.find", 0.0)) / docs,
        "tables.cells_cpu_ms_per_doc": ms(own.get("tables.cells", 0.0)) / docs,
        "tables.pages_scanned": float(c["tables.pages_scanned"]),
        "tables.found": float(c["tables.found"]),
        "tables.hit_ratio": c["tables.pages_hit"] / max(1, c["tables.pages_scanned"]),
        "words.cpu_ms_per_doc": ms(own.get("words", 0.0)) / docs,
        "words.count": float(c["words.count"]),
        "encode.cpu_ms_per_doc": ms(own.get("encode", 0.0)) / docs,
        "extract.doc_ms_p50": float(np.percentile(per_doc, 50)),
        "extract.doc_ms_p99": float(np.percentile(per_doc, 99)),
        "extract.doc_ms_max": float(per_doc.max()),
    }
    specific = {
        "layout.cpu_ms_per_doc": ms(own.get("layout", 0.0)) / docs,
        "flatten.cpu_ms_per_doc": ms(own.get("flatten", 0.0)) / docs,
        "pdfio.parse_ms_per_doc": ms(own.get("pdfio.parse", 0.0)) / docs,
        "pdfio.interp_ms_per_page": ms(own.get("pdfio.interp", 0.0)) / pages,
        "pdfio.encode_ms_per_page": ms(own.get("pdfio.encode", 0.0)) / pages,
        "text.cpu_ms_per_page": ms(total.get("text", 0.0)) / pages,
    }
    return common, specific
