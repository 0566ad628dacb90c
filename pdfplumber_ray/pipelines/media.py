"""Multimodal dataset pipelines: payload attach -> decode / resize /
frame-sample / hash stages. Each stage is an instance built on the driver
and run as ``map_batches`` tasks (``extract.stage_map_batches``). Small
batch sizes: payload bytes x batch must fit the worker heap (SURVEY.md §4
memory note).
"""

from __future__ import annotations

import ray.data

from ..stages.multimodal import (
    FrameSample,
    MediaDecode,
    MediaFeatures,
    MediaResize,
    attach_payloads,
)
from .extract import stage_map_batches

Dataset = ray.data.Dataset

MEDIA_BATCH_SIZE = 128  # large binary rows -> smaller batches than text


def with_payloads(docs: Dataset, id_col: str = "doc_id") -> Dataset:
    def fn(batch):
        return attach_payloads(batch, id_col=id_col)

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def media_decode_ds(docs: Dataset, id_col: str = "doc_id") -> Dataset:
    return decode_payloads_ds(with_payloads(docs, id_col), id_col)


def decode_payloads_ds(payloads: Dataset, id_col: str = "doc_id") -> Dataset:
    """Decode rows that already carry ``media_ref`` and ``payload``."""
    return stage_map_batches(payloads, MediaDecode(id_col), batch_size=MEDIA_BATCH_SIZE)


def media_resize_ds(
    docs: Dataset, target_w: int, target_h: int, id_col: str = "doc_id"
) -> Dataset:
    return stage_map_batches(
        with_payloads(docs, id_col),
        MediaResize(target_w, target_h, id_col),
        batch_size=MEDIA_BATCH_SIZE,
    )


def frame_sample_ds(docs: Dataset, stride: int = 5, id_col: str = "doc_id") -> Dataset:
    return stage_map_batches(
        with_payloads(docs, id_col),
        FrameSample(stride, id_col),
        batch_size=MEDIA_BATCH_SIZE,
    )


def media_features_ds(docs: Dataset, id_col: str = "doc_id") -> Dataset:
    """Batched feature extraction over the binary media column (the
    model-inference shape: one batched call per ``MEDIA_BATCH_SIZE`` rows)."""
    return stage_map_batches(
        with_payloads(docs, id_col), MediaFeatures(id_col), batch_size=MEDIA_BATCH_SIZE
    )


def phash_dedup_ds(docs: Dataset, id_col: str = "doc_id") -> Dataset:
    """Perceptual-hash image dedup: dHash-56 per payload (task stage)
    -> exact dedup groups over the hash — the multimodal counterpart of
    text exact-dedup (near-identical images collide on the gradient
    hash). Output: one row per distinct hash with ``keep_doc_id`` (min
    id) and ``n_docs``. Combiner-before-groupby: each block reduces to
    one (dhash, min-id, count) partial per distinct hash, so only
    partials shuffle."""
    import pyarrow as pa
    from ray.data.aggregate import Min, Sum

    from ..stages.multimodal import PerceptualHash

    hashed = stage_map_batches(
        with_payloads(docs, id_col), PerceptualHash(id_col), batch_size=MEDIA_BATCH_SIZE
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("dhash").aggregate(
            [(id_col, "min"), (id_col, "count")]
        )
        return pa.table(
            {
                "dhash": g.column("dhash"),
                "keep_partial": g.column(f"{id_col}_min"),
                "n_partial": g.column(f"{id_col}_count").cast(pa.int64()),
            }
        )

    agg = (
        hashed.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dhash")
        .aggregate(Min("keep_partial"), Sum("n_partial"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dhash": batch.column("dhash").cast(pa.int64()),
                "keep_doc_id": batch.column("min(keep_partial)").cast(pa.int64()),
                "n_docs": batch.column("sum(n_partial)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
