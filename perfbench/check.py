"""Correctness checks: every output document against what its input says
it must be. Each returns the set of document ids that failed."""

from __future__ import annotations

from typing import Dict, Set, Tuple

import pyarrow as pa
import pyarrow.compute as pc


def _sorted(table: pa.Table, keys) -> pa.Table:
    return table.take(pc.sort_indices(table, [(k, "ascending") for k in keys]))


def check_spans(out: pa.Table, expected: pa.Table) -> Set[str]:
    """``extract_spans_ds`` output vs the input documents: every document
    present once, no error, and the same span sequence (kind, text,
    media_ref, offset, in order)."""
    out = _sorted(out, ["doc_id"])
    exp = _sorted(expected, ["doc_id"])
    exp_ids = exp.column("doc_id").to_pylist()
    out_ids = out.column("doc_id").to_pylist()
    errors = out.column("error")
    if (
        out_ids == exp_ids
        and errors.null_count == len(errors)
        and out.column("spans").combine_chunks().equals(exp.column("spans").combine_chunks())
    ):
        return set()
    # slow path, only when something is wrong: find the documents
    got: Dict[str, list] = {}
    dup: Set[str] = set()
    for doc_id, spans, err in zip(
        out_ids, out.column("spans").to_pylist(), errors.to_pylist()
    ):
        if doc_id in got:
            dup.add(doc_id)
        got[doc_id] = spans if err is None else None
    failed = set(dup)
    for doc_id, spans in zip(exp_ids, exp.column("spans").to_pylist()):
        if got.get(doc_id) != spans:
            failed.add(doc_id)
    return failed


def check_pdf(
    pages: pa.Table,
    text: pa.Table,
    tables: pa.Table,
    expected: Dict[Tuple[str, int], Dict],
) -> Set[str]:
    """Decoded pages, page text and tables vs what the PDF writer drew:
    per page the char text equals the drawn strings, the rect count the
    rects drawn, the text the drawn lines and table rows, and the one table
    found the drawn words cell by cell."""
    failed: Set[str] = set()
    want_docs = {doc for doc, _ in expected}

    chars = pages.column("chars").combine_chunks()
    char_text = pc.binary_join(
        pa.ListArray.from_arrays(chars.offsets, chars.values.field("text")), ""
    ).to_pylist()
    n_rects = pc.list_value_length(pages.column("rects")).to_pylist()
    seen = set()
    for doc, pn, err, txt, nr in zip(
        pages.column("doc_id").to_pylist(),
        pages.column("page_number").to_pylist(),
        pages.column("error").to_pylist(),
        char_text,
        n_rects,
    ):
        exp = expected.get((doc, pn))
        if err is not None or exp is None or (doc, pn) in seen:
            failed.add(doc)
            continue
        seen.add((doc, pn))
        if txt != exp["chars"] or nr != exp["rects"]:
            failed.add(doc)
    failed |= {doc for doc, pn in expected if (doc, pn) not in seen}

    got_text = {}
    for doc, pn, txt in zip(
        text.column("doc_id").to_pylist(),
        text.column("page_number").to_pylist(),
        text.column("text").to_pylist(),
    ):
        got_text[(doc, pn)] = txt
    got_tables: Dict[Tuple[str, int], list] = {}
    for doc, pn, rows in zip(
        tables.column("doc_id").to_pylist(),
        tables.column("page_number").to_pylist(),
        tables.column("rows").to_pylist(),
    ):
        got_tables.setdefault((doc, pn), []).append(rows)
    for key, exp in expected.items():
        if got_text.get(key) != exp["text"] or got_tables.get(key) != [exp["table"]]:
            failed.add(key[0])
    # outputs for documents that were never input
    failed |= {d for d in text.column("doc_id").to_pylist() if d not in want_docs}
    failed |= {d for d in tables.column("doc_id").to_pylist() if d not in want_docs}
    return failed
