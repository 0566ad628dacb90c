"""Differential test of the table finder's columnar topology.

``functions/tables.py`` finds vertices, cells and tables for a whole group
of pages with array kernels. ``topology_oracle.py`` keeps the per-vertex
implementation they replaced. A seeded fuzz builds edge sets with lattices,
missing edges, T-junctions, duplicate-bbox edges, edge ends just inside and
just outside the intersection tolerance, nested and corner-touching tables,
random ruling, and multi-page groups with pages that have no vertices; the
kernels must give the oracle's cells and tables, order included, and the
one-page vertex map must read as the oracle's dict.
"""

import os
import sys
from typing import List, Tuple

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import topology_oracle as oracle  # noqa: E402

from pdfplumber_ray.config import TableConfig  # noqa: E402
from pdfplumber_ray.functions import tables  # noqa: E402

Row = Tuple[str, float, float, float, float]  # orientation, x0, top, x1, bottom


def _v(x: float, top: float, bottom: float) -> Row:
    return ("v", x, top, x, bottom)


def _h(y: float, x0: float, x1: float) -> Row:
    return ("h", x0, y, x1, y)


def _edges(rows: List[Row], page: List[int]):
    order = np.argsort(page, kind="stable")
    rows = [rows[i] for i in order]
    cols = list(zip(*rows)) if rows else [(), (), (), (), ()]
    x0, top, x1, bottom = (np.asarray(c, dtype=np.float64) for c in cols[1:])
    edges = {
        "x0": x0, "top": top, "x1": x1, "bottom": bottom,
        "width": x1 - x0, "height": bottom - top,
        "orientation": np.asarray(cols[0], dtype=object),
        "object_type": np.full(len(rows), "line", dtype=object),
    }
    return edges, np.asarray(page, dtype=np.int64)[order]


def _steps(rng, n: int, lo: float, grain: float) -> List[float]:
    return list(lo + np.cumsum(rng.integers(2, 9, n) * grain))


def _lattice(rng, x: float, y: float, segmented: bool) -> List[Row]:
    """A grid; ``segmented`` draws each cell side on its own, as rects do,
    so shared sides come twice (same bbox) and some go missing."""
    xs = [x] + _steps(rng, int(rng.integers(1, 5)), x, 4.0)
    ys = [y] + _steps(rng, int(rng.integers(1, 6)), y, 3.0)
    if not segmented:
        return [_v(c, ys[0], ys[-1]) for c in xs] + [_h(r, xs[0], xs[-1]) for r in ys]
    rows: List[Row] = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            for side in (
                _v(xs[i], ys[j], ys[j + 1]), _v(xs[i + 1], ys[j], ys[j + 1]),
                _h(ys[j], xs[i], xs[i + 1]), _h(ys[j + 1], xs[i], xs[i + 1]),
            ):
                if rng.random() > 0.12:
                    rows.append(side)
    return rows


def _near(rng, tol: float) -> float:
    """An offset just inside, on, or just outside a tolerance."""
    return float(rng.choice([-tol - 0.5, -tol, -tol + 0.25, 0.0, tol - 0.25, tol, tol + 0.5]))


def _soup(rng, tol: float) -> List[Row]:
    """Random ruling on a coarse grid: T-junctions, crossings, partial
    lines, and ends near the tolerance."""
    grid = np.arange(0.0, 60.0, 6.0)
    rows: List[Row] = []
    for _ in range(int(rng.integers(3, 16))):
        a, b = sorted(rng.choice(grid, 2, replace=False))
        at = float(rng.choice(grid))
        if rng.random() < 0.5:
            rows.append(_v(at, a + _near(rng, tol), b + _near(rng, tol)))
        else:
            rows.append(_h(at, a + _near(rng, tol), b + _near(rng, tol)))
    return rows


def _page_rows(rng, tol: float) -> List[Row]:
    kind = rng.integers(0, 6)
    if kind == 0:  # no vertices: v edges only, or nothing
        return [_v(10.0 * i, 0.0, 50.0) for i in range(int(rng.integers(0, 3)))]
    if kind == 1:
        return _lattice(rng, 10.0, 10.0, segmented=bool(rng.random() < 0.5))
    if kind == 2:  # nested: a small lattice inside a cell of a larger one
        outer = _lattice(rng, 0.0, 0.0, segmented=False)
        return outer + [_v(2.0, 1.0, 2.5), _v(3.0, 1.0, 2.5), _h(1.0, 2.0, 3.0), _h(2.5, 2.0, 3.0)]
    if kind == 3:  # corner-touching lattices
        first = _lattice(rng, 0.0, 0.0, segmented=False)
        x1 = max(r[3] for r in first)
        y1 = max(r[4] for r in first)
        return first + _lattice(rng, x1, y1, segmented=False)
    rows = _soup(rng, tol) if kind == 4 else _lattice(rng, 5.0, 5.0, segmented=True) + _soup(rng, tol)
    # duplicate-bbox edges
    return rows + [rows[i] for i in rng.integers(0, len(rows), int(rng.integers(0, 3)))] if rows else rows


def _group(seed: int):
    rng = np.random.default_rng(seed)
    tol = float(rng.choice([0.0, 1.0, 3.0]))
    rows: List[Row] = []
    page: List[int] = []
    n_pages = int(rng.integers(1, 5))
    for p in range(n_pages):
        page_rows = _page_rows(rng, tol)
        rows += page_rows
        page += [p] * len(page_rows)
    # edges of a page come in any orientation order
    perm = rng.permutation(len(rows))
    edges, page_ids = _edges([rows[i] for i in perm], [page[i] for i in perm])
    return edges, page_ids, n_pages, tol


def _oracle_pages(edges, page, n_pages, tol):
    out = []
    for inter in oracle.intersections_group(edges, page, n_pages, tol, tol):
        cells = oracle.intersections_to_cells(inter)
        out.append((inter, cells, oracle.cells_to_tables(cells)))
    return out


@pytest.mark.parametrize("seed", range(300))
def test_group_topology_matches_oracle(seed):
    edges, page, n_pages, tol = _group(seed)
    want = _oracle_pages(edges, page, n_pages, tol)
    inter = tables.intersections_group(edges, page, tol, tol)
    assert len(inter) == sum(len(w[0]) for w in want)
    cell_page, boxes, _ = tables.cells_group(inter)
    got_cells = [list(map(tuple, boxes[cell_page == p].tolist())) for p in range(n_pages)]
    assert got_cells == [w[1] for w in want]
    assert tables.tables_group(inter, n_pages) == [w[2] for w in want]


@pytest.mark.parametrize("seed", range(0, 300, 3))
def test_one_page_wrappers_match_oracle(seed):
    edges, page, n_pages, tol = _group(seed)
    first = page == 0
    one = {k: v[first] for k, v in edges.items()}
    (want, want_cells, want_tables), = _oracle_pages(one, page[first], 1, tol)
    got = tables.edges_to_intersections_arrays(one, tol, tol)
    assert list(got.keys()) == list(want.keys())
    assert dict(got) == want
    assert tables.intersections_to_cells(got) == want_cells
    assert tables.cells_to_tables(want_cells) == want_tables
    cfg = TableConfig()
    assert [t.cells for t in tables.intersections_to_tables(got, cfg)] == want_tables


def test_fuzz_reaches_its_cases():
    """The fuzz makes multi-cell tables, several tables on one page,
    vertices without cells and pages without vertices."""
    multi = several = cell_less = empty = 0
    for seed in range(300):
        for inter, cells, found in _oracle_pages(*_group(seed)):
            multi += any(len(t) > 2 for t in found)
            several += len(found) > 1
            cell_less += len(inter) > len(cells) + 1
            empty += not inter
    assert min(multi, several, cell_less, empty) > 5


def test_debug_tablefinder_draws_oracle_topology():
    from pdfplumber_ray.display import PageImage
    from pdfplumber_ray.stages.flatten import page_edge_union

    rng = np.random.default_rng(5)
    rows = _lattice(rng, 100.0, 100.0, segmented=True) + _lattice(rng, 100.0, 300.0, segmented=False)
    rects = {
        "x0": np.asarray([r[1] for r in rows]), "top": np.asarray([r[2] for r in rows]),
        "x1": np.asarray([r[3] for r in rows]) + 0.5, "bottom": np.asarray([r[4] for r in rows]) + 0.5,
    }
    page = {"rects": rects, "page_width": 612.0, "page_height": 792.0}
    cfg = TableConfig()
    merged = tables.get_table_edges(page_edge_union(page), cfg, (0.0, 0.0, 612.0, 792.0))
    (want, _, want_tables), = _oracle_pages(merged, np.zeros(merged["x0"].shape[0], dtype=np.int64), 1, 3.0)
    assert len(want_tables) == 2

    img = PageImage(page, render_base=False)
    drawn_rects, drawn_circles = [], []
    img.draw_rects = lambda r, **kw: drawn_rects.append(list(r)) or img
    img.draw_circles = lambda c, **kw: drawn_circles.append(list(c)) or img
    img.debug_tablefinder(cfg)
    assert drawn_rects == want_tables
    assert drawn_circles == [list(want.keys())]
