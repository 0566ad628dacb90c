"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

Codec selection is feature-flagged at import:

* ``SYNM`` synthetic containers (the sandbox default) always decode —
  deterministic struct-packed fields so SQL oracles predict every value.
* Real **PNG**, **JPEG**, and **WAV** payloads decode their metadata
  with ZERO native deps — PNG via the IHDR chunk, JPEG via an SOF-marker
  scan, WAV via the RIFF fmt/data chunks (rate/channels/sample frames). When **PIL** is importable
  (``HAVE_PIL``), pixel-level ops (resize) use it; without PIL,
  metadata decode still works and pixel ops raise a clear
  ``NotImplementedError`` instead of producing garbage.

Everything Ray-side — binary column schema, task-mode stage shape, batch
sizing for large payloads, output layout — is identical across codecs.

SYNM payload layout (big-endian):
    0:4   magic  b"SYNM"
    4:5   kind   (1=image, 2=audio, 3=video)
    5:7   width  uint16
    7:9   height uint16
    9:11  n_frames uint16
    11:.. body   (width*height)//64 pseudo bytes
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa

try:  # feature flag: real pixel codecs when the imaging lib exists
    from PIL import Image as _PILImage  # type: ignore

    HAVE_PIL = True
except Exception:  # pragma: no cover - sandbox default
    _PILImage = None
    HAVE_PIL = False

MAGIC = b"SYNM"
KIND_IMAGE, KIND_AUDIO, KIND_VIDEO = 1, 2, 3
_HEADER = struct.Struct(">4sBHHH")

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
_JPEG_MAGIC = b"\xff\xd8"
# JPEG SOF markers that carry frame dimensions (all SOFn except DHT/DAC/RST)
_JPEG_SOF = frozenset(
    (0xC0, 0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF)
)


def _decode_png_meta(payload: bytes) -> Dict[str, int]:
    """PNG dims from the IHDR chunk (always first, RFC 2083 §3) — no
    imaging dep needed for metadata."""
    if len(payload) < 24 or payload[12:16] != b"IHDR":
        raise NotImplementedError("malformed PNG: missing IHDR")
    w, h = struct.unpack(">II", payload[16:24])
    return {
        "kind": KIND_IMAGE, "width": w, "height": h,
        "n_frames": 1, "n_bytes": len(payload),
    }


def _decode_wav_meta(payload: bytes) -> Dict[str, int]:
    """WAV (RIFF/WAVE) metadata from the fmt/data chunks — pure byte scan.
    Field mapping for the typed-metadata schema: ``width`` = sample rate,
    ``height`` = channel count, ``n_frames`` = sample frames (documented
    reuse of the image-oriented columns for audio payloads)."""
    pos = 12  # past RIFF<size>WAVE
    n = len(payload)
    rate = channels = block_align = None
    data_len = None
    while pos + 8 <= n:
        cid = payload[pos : pos + 4]
        clen = int.from_bytes(payload[pos + 4 : pos + 8], "little")
        body = payload[pos + 8 : pos + 8 + clen]
        if cid == b"fmt " and len(body) >= 16:
            channels = int.from_bytes(body[2:4], "little")
            rate = int.from_bytes(body[4:8], "little")
            block_align = int.from_bytes(body[12:14], "little")
        elif cid == b"data":
            data_len = clen
        pos += 8 + clen + (clen & 1)  # chunks are word-aligned
    if rate is None or data_len is None or not block_align:
        raise NotImplementedError("malformed WAV: missing fmt/data chunk")
    return {
        "kind": KIND_AUDIO,
        "width": rate,
        "height": channels or 0,
        "n_frames": data_len // block_align,
        "n_bytes": len(payload),
    }


def _decode_jpeg_meta(payload: bytes) -> Dict[str, int]:
    """JPEG dims from the first SOFn marker segment — pure byte scan."""
    pos = 2
    n = len(payload)
    while pos + 4 <= n:
        if payload[pos] != 0xFF:
            pos += 1
            continue
        marker = payload[pos + 1]
        if marker == 0xFF:  # legal fill byte between segments
            pos += 1
            continue
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        seglen = int.from_bytes(payload[pos + 2 : pos + 4], "big")
        if marker in _JPEG_SOF and pos + 9 <= n:
            h, w = struct.unpack(">HH", payload[pos + 5 : pos + 9])
            return {
                "kind": KIND_IMAGE, "width": w, "height": h,
                "n_frames": 1, "n_bytes": len(payload),
            }
        pos += 2 + seglen
    raise NotImplementedError("malformed JPEG: no SOF marker found")


def pack_payload(kind: int, width: int, height: int, n_frames: int) -> bytes:
    body_len = (width * height) // 64
    body = bytes((i * 31 + width + height) % 256 for i in range(body_len))
    return _HEADER.pack(MAGIC, kind, width, height, n_frames) + body


def _decode_payload(payload: bytes) -> Dict[str, int]:
    if payload[:4] == MAGIC:
        magic, kind, width, height, n_frames = _HEADER.unpack_from(payload)
        return {
            "kind": kind,
            "width": width,
            "height": height,
            "n_frames": n_frames,
            "n_bytes": len(payload),
        }
    if payload[:8] == _PNG_MAGIC:
        if HAVE_PIL:  # pragma: no cover - PIL absent in sandbox
            import io

            with _PILImage.open(io.BytesIO(payload)) as im:
                return {
                    "kind": KIND_IMAGE, "width": im.width, "height": im.height,
                    "n_frames": getattr(im, "n_frames", 1),
                    "n_bytes": len(payload),
                }
        return _decode_png_meta(payload)
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return _decode_wav_meta(payload)
    if payload[:2] == _JPEG_MAGIC:
        if HAVE_PIL:  # pragma: no cover - PIL absent in sandbox
            import io

            with _PILImage.open(io.BytesIO(payload)) as im:
                return {
                    "kind": KIND_IMAGE, "width": im.width, "height": im.height,
                    "n_frames": 1, "n_bytes": len(payload),
                }
        return _decode_jpeg_meta(payload)
    raise NotImplementedError(
        "unrecognized media container (supported: SYNM synthetic, PNG, "
        "JPEG, WAV; compressed audio/video codecs require ffmpeg, not "
        "available here)"
    )


def payloads_for_doc_ids(doc_ids: List[int], kind: int = KIND_VIDEO) -> List[bytes]:
    """Deterministic payload per doc id (width/height/frames are simple
    arithmetic on the id, so SQL oracles can predict the decoded values)."""
    return [
        pack_payload(
            kind,
            64 + int(d) % 1024,
            64 + (int(d) * 7) % 1024,
            1 + int(d) % 30,
        )
        for d in doc_ids
    ]


def attach_payloads(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    ids = batch.column(id_col).to_pylist()
    return pa.table(
        {
            id_col: batch.column(id_col),
            "media_ref": pa.array([f"media://doc-{int(d):08d}/0" for d in ids]),
            "payload": pa.array(payloads_for_doc_ids(ids), pa.binary()),
        }
    )


class MediaDecode:
    """Task-mode stage: binary payload -> typed metadata columns.

    Built once on the driver (``__init__`` costs under 1 µs); per-batch
    work stays a tight loop over the binary column."""

    def __init__(self, id_col: str = "doc_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        metas = [_decode_payload(p) for p in payloads]
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "media_ref": batch.column("media_ref"),
                "media_kind": pa.array([m["kind"] for m in metas], pa.int32()),
                "width": pa.array([m["width"] for m in metas], pa.int64()),
                "height": pa.array([m["height"] for m in metas], pa.int64()),
                "n_frames": pa.array([m["n_frames"] for m in metas], pa.int64()),
                "n_bytes": pa.array([m["n_bytes"] for m in metas], pa.int64()),
            }
        )


class MediaFeatures:
    """Task-mode feature-extraction stage — the batched-model-inference
    shape: one batched forward pass per ``__call__``. A real extractor whose
    weights are measured to be expensive to load would bring back an actor
    pool for this stage alone. Here the "model" is a deterministic function
    of the payload (header fields + a body checksum) so a SQL oracle can
    verify the plumbing end to end. Emits a quantized feature vector as
    typed columns."""

    def __init__(self, id_col: str = "doc_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        checksums: List[int] = []
        f0: List[int] = []
        f1: List[int] = []
        f2: List[int] = []
        for p in payloads:
            meta = _decode_payload(p)
            body = np.frombuffer(p, dtype=np.uint8, offset=_HEADER.size)
            checksums.append(int(body.sum(dtype=np.int64)) % 65536)
            # pure integer quantization: floor division avoids the
            # round-half-even vs round-half-away divergence on exact .5s
            f0.append(meta["width"] * 1_000_000 // 1024)
            f1.append(meta["height"] * 1_000_000 // 1024)
            f2.append(meta["n_frames"] * 1_000_000 // 30)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "checksum": pa.array(checksums, pa.int64()),
                "f0_e6": pa.array(f0, pa.int64()),
                "f1_e6": pa.array(f1, pa.int64()),
                "f2_e6": pa.array(f2, pa.int64()),
            }
        )


class MediaResize:
    """Task-mode stage: deterministic 'resize' — header rewritten to the
    target size, body resampled by stride (stands in for a real kernel)."""

    def __init__(self, target_w: int, target_h: int, id_col: str = "doc_id"):
        self.tw = target_w
        self.th = target_h
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: List[bytes] = []
        for p in batch.column("payload").to_pylist():
            if p[:8] == _PNG_MAGIC or p[:2] == _JPEG_MAGIC:
                if not HAVE_PIL:
                    raise NotImplementedError(
                        "pixel-level resize of real images requires PIL "
                        "(metadata decode works without it)"
                    )
                import io  # pragma: no cover - PIL absent in sandbox

                with _PILImage.open(io.BytesIO(p)) as im:
                    buf = io.BytesIO()
                    im.resize((self.tw, self.th)).save(buf, format=im.format)
                    out.append(buf.getvalue())
                continue
            if p[:4] == b"RIFF" and p[8:12] == b"WAVE":
                # resampling real audio needs a DSP kernel; falling through
                # to the SYNM branch would slice/repack the RIFF bytes into
                # garbage under a SYNM header.
                raise NotImplementedError(
                    "resize/resample of real WAV audio is not implemented "
                    "(metadata decode works; see MediaFeatures)"
                )
            meta = _decode_payload(p)
            body = p[_HEADER.size :]
            tgt_len = (self.tw * self.th) // 64
            if len(body) >= tgt_len:
                stride = max(1, len(body) // max(tgt_len, 1))
                body2 = body[::stride][:tgt_len]
            else:
                body2 = (body * ((tgt_len // max(len(body), 1)) + 1))[:tgt_len]
            out.append(
                _HEADER.pack(MAGIC, meta["kind"], self.tw, self.th, meta["n_frames"])
                + body2
            )
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "media_ref": batch.column("media_ref"),
                "payload": pa.array(out, pa.binary()),
            }
        )


class FrameSample:
    """Task-mode stage: video payload -> one row per sampled frame index
    (every ``stride``-th frame)."""

    def __init__(self, stride: int = 5, id_col: str = "doc_id"):
        self.stride = stride
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        refs = batch.column("media_ref").to_pylist()
        out_id: List = []
        out_ref: List[str] = []
        out_fi: List[int] = []
        for i, (d, r) in enumerate(zip(ids, refs)):
            meta = _decode_payload(batch.column("payload")[i].as_py())
            for fi in range(0, meta["n_frames"], self.stride):
                out_id.append(d)
                out_ref.append(r)
                out_fi.append(fi)
        return pa.table(
            {
                self.id_col: pa.array(out_id),
                "media_ref": pa.array(out_ref),
                "frame_index": pa.array(out_fi, pa.int64()),
            }
        )


class PerceptualHash:
    """Task-mode stage: binary image payload -> 56-bit perceptual dHash
    (8x8 grayscale grid, 7 horizontal gradient bits per row — the public
    difference-hash method used for near-duplicate image detection).

    For SYNM containers the grid samples the synthetic body bytes at 64
    evenly spaced offsets ``idx = p*(len-1)//63`` — pure integer
    arithmetic on the payload, so a SQL oracle reproduces the hash
    bit-for-bit. With PIL present, real PNG/JPEG payloads resize to an
    8x8 grayscale grid and hash the same way; without PIL they raise
    ``NotImplementedError`` (never garbage). Bits occupy positions
    0..55, so the hash is always a non-negative int64 in any engine."""

    def __init__(self, id_col: str = "doc_id"):
        self.id_col = id_col
        self._ramp = np.arange(64, dtype=np.int64)

    def _grid(self, payload: bytes) -> np.ndarray:
        if payload[:4] == MAGIC:
            body = np.frombuffer(payload, dtype=np.uint8, offset=_HEADER.size)
            idx = self._ramp * (len(body) - 1) // 63
            return body[idx].astype(np.int64)
        if payload[:8] == _PNG_MAGIC or payload[:2] == _JPEG_MAGIC:
            if HAVE_PIL:  # pragma: no cover - PIL absent in sandbox
                import io

                with _PILImage.open(io.BytesIO(payload)) as im:
                    g = im.convert("L").resize((8, 8))
                    return np.asarray(g, dtype=np.int64).reshape(64)
            raise NotImplementedError(
                "pixel-level dHash of real images requires PIL"
            )
        raise NotImplementedError(
            "unsupported container for perceptual hashing (SYNM or, with "
            "PIL, PNG/JPEG)"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        payloads = batch.column("payload").to_pylist()
        weights = (np.int64(1) << (np.arange(64, dtype=np.int64) // 8 * 7
                                   + np.arange(64, dtype=np.int64) % 8))
        mask = (np.arange(64) % 8) < 7
        hashes = np.empty(len(payloads), dtype=np.int64)
        for j, p in enumerate(payloads):
            g = self._grid(p)
            bits = np.zeros(64, dtype=bool)
            bits[:-1] = g[1:] > g[:-1]
            hashes[j] = int((weights[mask & bits]).sum())
        return pa.table(
            {
                self.id_col: ids,
                "dhash": pa.array(hashes, pa.int64()),
            }
        )
