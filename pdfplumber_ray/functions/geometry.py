"""Vectorized geometry kernels over struct-of-arrays "object tables".

An object table is a dict of equal-length numpy arrays with at least
``x0, top, x1, bottom`` — the columnar equivalent of the reference's object
dicts. Semantics mirror reference utils/geometry.py (clip geometry.py:75-92,
containment filters geometry.py:95-117, snap geometry.py:150-159, edge
derivation geometry.py:189-260).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .clustering import cluster_means

Bbox = Tuple[float, float, float, float]
ObjArrays = Dict[str, np.ndarray]


def merge_bboxes(x0: np.ndarray, top: np.ndarray, x1: np.ndarray, bottom: np.ndarray) -> Bbox:
    """Smallest bbox containing all objects (geometry.py:44-50)."""
    return (float(x0.min()), float(top.min()), float(x1.max()), float(bottom.max()))


def bbox_overlap_mask(objs: ObjArrays, bbox: Bbox) -> np.ndarray:
    """True where the object's bbox overlaps ``bbox`` under the reference's
    rule (geometry.py:53-65): non-negative overlap extents with positive
    total extent — zero-area touch on exactly one axis still counts."""
    bx0, btop, bx1, bbottom = bbox
    o_left = np.maximum(objs["x0"], bx0)
    o_right = np.minimum(objs["x1"], bx1)
    o_top = np.maximum(objs["top"], btop)
    o_bottom = np.minimum(objs["bottom"], bbottom)
    w = o_right - o_left
    h = o_bottom - o_top
    return (w >= 0) & (h >= 0) & ((w + h) > 0)


def within_bbox_mask(objs: ObjArrays, bbox: Bbox) -> np.ndarray:
    """Full containment (geometry.py:102-110): overlap == own bbox."""
    bx0, btop, bx1, bbottom = bbox
    overlap = bbox_overlap_mask(objs, bbox)
    return (
        overlap
        & (objs["x0"] >= bx0)
        & (objs["x1"] <= bx1)
        & (objs["top"] >= btop)
        & (objs["bottom"] <= bbottom)
    )


def outside_bbox_mask(objs: ObjArrays, bbox: Bbox) -> np.ndarray:
    return ~bbox_overlap_mask(objs, bbox)


def clip_to_bbox(objs: ObjArrays, bbox: Bbox) -> Tuple[ObjArrays, np.ndarray]:
    """Crop objects to bbox (geometry.py:75-92, 120-125).

    Returns (clipped arrays for surviving objects, survivor mask).
    Coordinate columns are rewritten; ``doctop`` is shifted by the top
    delta; ``width``/``height`` recomputed.
    """
    mask = bbox_overlap_mask(objs, bbox)
    bx0, btop, bx1, bbottom = bbox
    out: ObjArrays = {}
    for k, v in objs.items():
        out[k] = v[mask].copy() if isinstance(v, np.ndarray) else v
    new_top = np.clip(out["top"], btop, bbottom)
    if "doctop" in out:
        out["doctop"] = out["doctop"] + (new_top - out["top"])
    out["x0"] = np.clip(out["x0"], bx0, bx1)
    out["x1"] = np.clip(out["x1"], bx0, bx1)
    out["top"] = new_top
    out["bottom"] = np.clip(out["bottom"], btop, bbottom)
    out["width"] = out["x1"] - out["x0"]
    out["height"] = out["bottom"] - out["top"]
    return out, mask


def snap_positions(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Cluster values within tolerance and move each to its cluster mean
    (geometry.py:150-159)."""
    return cluster_means(values, tolerance)


def midpoint_in_bbox_mask(
    x0: np.ndarray, top: np.ndarray, x1: np.ndarray, bottom: np.ndarray, bbox: Bbox
) -> np.ndarray:
    """Reference ``char_in_bbox`` (table.py:404-410): centre-point binning
    with half-open right/bottom."""
    h_mid = (x0 + x1) / 2
    v_mid = (top + bottom) / 2
    bx0, btop, bx1, bbottom = bbox
    return (h_mid >= bx0) & (h_mid < bx1) & (v_mid >= btop) & (v_mid < bbottom)


# ---- edge derivation (geometry.py:189-260) ----
# Edges are an ObjArrays with x0, top, x1, bottom and an "orientation" array
# of 'v'/'h' codes (object dtype).


def get_bbox_overlap(a: Bbox, b: Bbox) -> Optional[Bbox]:
    """Intersection rectangle or None (reference geometry.py:53-65 —
    including its degenerate rule: touching edges/corners with zero area
    count as overlap only when width+height > 0)."""
    o_left = max(a[0], b[0])
    o_top = max(a[1], b[1])
    o_right = min(a[2], b[2])
    o_bottom = min(a[3], b[3])
    o_w = o_right - o_left
    o_h = o_bottom - o_top
    if o_h >= 0 and o_w >= 0 and o_h + o_w > 0:
        return (o_left, o_top, o_right, o_bottom)
    return None


def calculate_area(bbox: Bbox) -> float:
    """(reference geometry.py:68-72)"""
    left, top, right, bottom = bbox
    if left > right or top > bottom:
        raise ValueError(f"{bbox} has a negative width or height.")
    return (right - left) * (bottom - top)


def test_proposed_bbox(bbox: Bbox, parent_bbox: Bbox) -> None:
    """Crop-bbox validation (reference page.py:627-644
    ``test_proposed_bbox``): zero-area, fully-outside, and
    partially-outside boxes raise ValueError."""
    bbox_area = calculate_area(bbox)
    if bbox_area == 0:
        raise ValueError(f"Bounding box {bbox} has an area of zero.")
    overlap = get_bbox_overlap(bbox, parent_bbox)
    if overlap is None:
        raise ValueError(
            f"Bounding box {bbox} is entirely outside "
            f"parent page bounding box {parent_bbox}"
        )
    if calculate_area(overlap) < bbox_area:
        raise ValueError(
            f"Bounding box {bbox} is not fully within "
            f"parent page bounding box {parent_bbox}"
        )


def move_objects(objs: ObjArrays, axis: str, value) -> ObjArrays:
    """Vectorized move_object (reference geometry.py:128-147): shift every
    record along one axis; ``value`` may be a scalar or a per-row array."""
    if axis not in ("h", "v"):
        raise ValueError(f"axis must be 'h' or 'v', not {axis!r}")
    out = dict(objs)
    if axis == "h":
        out["x0"] = objs["x0"] + value
        out["x1"] = objs["x1"] + value
    else:
        out["top"] = objs["top"] + value
        out["bottom"] = objs["bottom"] + value
        if "doctop" in objs:
            out["doctop"] = objs["doctop"] + value
        if "y0" in objs:
            out["y0"] = objs["y0"] - value
            out["y1"] = objs["y1"] - value
    return out


def snap_objects_arrays(objs: ObjArrays, attr: str, tolerance: float) -> ObjArrays:
    """Vectorized snap_objects (reference geometry.py:150-159): cluster on
    ``attr``, move every member to its cluster mean along the implied axis."""
    axis = {"x0": "h", "x1": "h", "top": "v", "bottom": "v"}[attr]
    delta = snap_positions(objs[attr], tolerance) - objs[attr]
    return move_objects(objs, axis, delta)


def resize_objects(objs: ObjArrays, key: str, value) -> ObjArrays:
    """Vectorized resize_object (reference geometry.py:162-186): set one
    side, maintaining width/height/doctop (and y0/y1 when present)."""
    if key not in ("x0", "x1", "top", "bottom"):
        raise ValueError(f"invalid resize key: {key!r}")
    value = np.broadcast_to(np.asarray(value, dtype=np.float64), objs[key].shape)
    diff = value - objs[key]
    out = dict(objs)
    out[key] = value
    if key == "x0":
        if not (value <= objs["x1"]).all():
            raise ValueError("x0 must stay <= x1")
        out["width"] = objs["x1"] - value
    elif key == "x1":
        if not (value >= objs["x0"]).all():
            raise ValueError("x1 must stay >= x0")
        out["width"] = value - objs["x0"]
    elif key == "top":
        if not (value <= objs["bottom"]).all():
            raise ValueError("top must stay <= bottom")
        out["doctop"] = objs["doctop"] + diff
        out["height"] = objs["height"] - diff
        if "y1" in objs:
            out["y1"] = objs["y1"] - diff
    else:  # bottom
        if not (value >= objs["top"]).all():
            raise ValueError("bottom must stay >= top")
        out["height"] = objs["height"] + diff
        if "y0" in objs:
            out["y0"] = objs["y0"] - diff
    return out


def rects_to_edges(rects: ObjArrays) -> ObjArrays:
    """4 zero-thickness edges per rect (geometry.py:207-244)."""
    n = rects["x0"].shape[0]
    x0, x1 = rects["x0"], rects["x1"]
    top, bottom = rects["top"], rects["bottom"]
    # order per rect: top edge, bottom edge, left edge, right edge
    ex0 = np.concatenate([x0, x0, x0, x1])
    ex1 = np.concatenate([x1, x1, x0, x1])
    etop = np.concatenate([top, bottom, top, top])
    ebottom = np.concatenate([top, bottom, bottom, bottom])
    orient = np.concatenate(
        [np.full(n, "h", dtype=object), np.full(n, "h", dtype=object),
         np.full(n, "v", dtype=object), np.full(n, "v", dtype=object)]
    )
    return {
        "x0": ex0,
        "x1": ex1,
        "top": etop,
        "bottom": ebottom,
        "width": ex1 - ex0,
        "height": ebottom - etop,
        "orientation": orient,
        "object_type": np.full(4 * n, "rect_edge", dtype=object),
    }


def lines_to_edges(lines: ObjArrays) -> ObjArrays:
    """orientation = 'h' when top == bottom else 'v' (geometry.py:247-250)."""
    horiz = lines["top"] == lines["bottom"]
    orient = np.where(horiz, "h", "v").astype(object)
    return {
        "x0": lines["x0"].copy(),
        "x1": lines["x1"].copy(),
        "top": lines["top"].copy(),
        "bottom": lines["bottom"].copy(),
        "width": lines["x1"] - lines["x0"],
        "height": lines["bottom"] - lines["top"],
        "orientation": orient,
        "object_type": np.full(lines["x0"].shape[0], "line", dtype=object),
    }


def curves_to_edges(pts_per_curve: Iterable) -> ObjArrays:
    """Point-pair segments per curve (reference geometry.py:189-204
    ``curve_to_edges``): each consecutive point pair becomes one edge;
    orientation 'h' when the two tops coincide, 'v' when the two x
    coincide — matching line_to_edge's rule applied per segment. Only
    axis-aligned segments are emitted as usable edges (the reference keeps
    obliques too but the table finder only consumes v/h; we tag obliques
    orientation '' so filter_edges drops them)."""
    x0s, x1s, tops, bottoms, orients = [], [], [], [], []
    for pts in pts_per_curve:
        for (xa, ta), (xb, tb) in zip(pts[:-1], pts[1:]):
            x0, x1 = min(xa, xb), max(xa, xb)
            t0, t1 = min(ta, tb), max(ta, tb)
            x0s.append(x0)
            x1s.append(x1)
            tops.append(t0)
            bottoms.append(t1)
            if ta == tb:
                orients.append("h")
            elif xa == xb:
                orients.append("v")
            else:
                orients.append("")
    n = len(x0s)
    x0a = np.asarray(x0s, dtype=np.float64)
    x1a = np.asarray(x1s, dtype=np.float64)
    ta = np.asarray(tops, dtype=np.float64)
    ba = np.asarray(bottoms, dtype=np.float64)
    return {
        "x0": x0a,
        "x1": x1a,
        "top": ta,
        "bottom": ba,
        "width": x1a - x0a,
        "height": ba - ta,
        "orientation": np.asarray(orients, dtype=object),
        "object_type": np.full(n, "curve_edge", dtype=object),
    }


def concat_edges(parts: Iterable[Optional[ObjArrays]]) -> ObjArrays:
    parts = [p for p in parts if p is not None and p["x0"].shape[0] > 0]
    keys = ("x0", "x1", "top", "bottom", "width", "height", "orientation", "object_type")
    if not parts:
        return {
            k: np.empty(0, dtype=object if k in ("orientation", "object_type") else np.float64)
            for k in keys
        }
    return {k: np.concatenate([p[k] for p in parts]) for k in keys}


def concat_paged_edges(
    parts: Sequence[ObjArrays], pages: Sequence[np.ndarray]
) -> Tuple[ObjArrays, np.ndarray]:
    """Edge tables of a group of pages, each with a page id per row -> one
    edge table and its page ids, stably sorted by page: each page's edges
    keep the order of ``parts`` and their order within each part."""
    keep = [i for i, part in enumerate(parts) if part["x0"].shape[0] > 0]
    edges = concat_edges([parts[i] for i in keep])
    if not keep:
        return edges, np.empty(0, dtype=np.int64)
    page = np.concatenate([pages[i] for i in keep]).astype(np.int64, copy=False)
    order = np.argsort(page, kind="stable")
    return {k: v[order] for k, v in edges.items()}, page[order]


def band_pairs(
    page: np.ndarray,
    v: np.ndarray,
    band_page: np.ndarray,
    band_lo: np.ndarray,
    band_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(band, point) index pairs for every point on the band's page with
    ``band_lo <= v < band_hi``, without a bands x points broadcast. The
    values and bounds are ranked together, so each (page, value) becomes
    one exact integer key; the points are sorted by it once and each band's
    points are the range between two ``searchsorted`` results. Pairs come
    grouped by band."""
    n, n_bands = v.shape[0], band_lo.shape[0]
    uniq, rank = np.unique(np.concatenate((v, band_lo, band_hi)), return_inverse=True)
    rank = rank.reshape(-1)
    width = max(1, uniq.shape[0])
    key = page.astype(np.int64) * width + rank[:n]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    base = band_page.astype(np.int64) * width
    start = np.searchsorted(sorted_key, base + rank[n : n + n_bands])
    count = np.maximum(np.searchsorted(sorted_key, base + rank[n + n_bands :]) - start, 0)
    band = np.repeat(np.arange(n_bands), count)
    pos = np.arange(band.shape[0]) + np.repeat(start - (np.cumsum(count) - count), count)
    return band, order[pos]


def filter_edges_mask(
    edges: ObjArrays,
    orientation: Optional[str] = None,
    edge_type: Optional[str] = None,
    min_length: float = 1,
) -> np.ndarray:
    """Reference filter_edges (geometry.py:263-278): keep edges matching
    orientation/type whose length along their own axis >= min_length."""
    if orientation not in ("v", "h", None):
        raise ValueError("Orientation must be 'v' or 'h'")
    is_v = edges["orientation"] == "v"
    dim = np.where(is_v, edges["height"], edges["width"])
    mask = dim >= min_length
    if orientation is not None:
        mask &= edges["orientation"] == orientation
    if edge_type is not None:
        mask &= edges["object_type"] == edge_type
    return mask
