"""Relational rows -> interleaved table documents (lattice-oracle source).

Turns each ``lineitem`` order into one interleaved document whose
spans are all ``table_cell``: the decode stage lays them into a lattice
grid (rects), and table extraction must recover every cell in row-major
order — giving the full edge/intersection/cell/table chain a SQL-checkable
oracle over real relational data (row_number + unnest on the same table).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..pipelines.exchange import bucket_map, segment_runs
from ..schemas import SPAN

CELL_COLS = ("l_linenumber", "l_returnflag", "l_linestatus")
N_CELL_COLS = len(CELL_COLS)


def orders_to_docs(group: pa.Table) -> pa.Table:
    """Whole lineitem orders -> one DOCS row of table_cell spans per
    order: lineitems ordered by (l_linenumber, l_returnflag,
    l_linestatus), a total order, so that the SQL oracle's ROW_NUMBER sees
    the identical sequence (l_linenumber alone is not unique within an
    order); N_CELL_COLS cells per lineitem, offsets running on through
    the order's cells."""
    okey = group.column("l_orderkey").to_numpy()
    ln = group.column("l_linenumber").to_numpy()
    flag, stat = (group.column(c).to_numpy(zero_copy_only=False) for c in CELL_COLS[1:])
    order, starts, lengths = segment_runs(okey, ln, flag, stat)
    texts = pa.array(
        np.stack([ln[order].astype(str), flag[order], stat[order]], axis=1).ravel(),
        pa.string(),
    )
    n_cells = lengths * N_CELL_COLS
    doc_cells = np.concatenate(([0], np.cumsum(n_cells)))
    size = pc.utf8_length(texts).to_numpy()
    before = np.cumsum(size) - size  # chars ahead of each cell in the bucket
    spans = pa.StructArray.from_arrays(
        [
            pa.array(np.full(len(texts), "table_cell"), pa.string()),
            texts,
            pa.array(np.full(len(texts), ""), pa.string()),
            pa.array(before - np.repeat(before[doc_cells[:-1]], n_cells), pa.int32()),
        ],
        fields=list(SPAN),
    )
    keys = pc.cast(pa.array(okey[order][starts]), pa.string())
    return pa.table(
        {
            "doc_id": pc.binary_join_element_wise(
                "order-", pc.utf8_lpad(keys, width=10, padding="0"), ""
            ),
            "spans": pa.ListArray.from_arrays(pa.array(doc_cells, pa.int32()), spans),
        }
    )


def docs_from_lineitem(sf_dir: str) -> ray.data.Dataset:
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_linestatus"],
    )
    return bucket_map(
        li, "l_orderkey", orders_to_docs, {"doc_id": pa.string(), "spans": pa.list_(SPAN)}
    )


def cells_table_from_spans(batch: pa.Table) -> pa.Table:
    """out_spans rows -> (doc_key:int64, cell_index:int64, cell_text)."""
    doc_ids = batch.column("doc_id").to_pylist()
    span_lists = batch.column("spans").to_pylist()
    keys: List[int] = []
    idxs: List[int] = []
    texts: List[str] = []
    for did, spans in zip(doc_ids, span_lists):
        okey = int(did.rsplit("-", 1)[1])
        for i, s in enumerate(spans):
            keys.append(okey)
            idxs.append(i)
            texts.append(s["text"])
    return pa.table(
        {
            "doc_key": pa.array(keys, pa.int64()),
            "cell_index": pa.array(idxs, pa.int64()),
            "cell_text": pa.array(texts, pa.string()),
        }
    )
