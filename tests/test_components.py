"""The one connected-components kernel and its callers against a
pure-Python union-find: ``clustering.connected_components`` on dense ids,
``exchange.components`` on its driver path and on the distributed
min-label propagation (forced by lowering ``MAX_BROADCAST_ROWS``), and
``laparams.group_lines_to_boxes``' membership and order."""

import itertools
import random

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from pdfplumber_ray.functions.clustering import connected_components
from pdfplumber_ray.pdfio.laparams import LAParams, _find_neighbors, _Line, group_lines_to_boxes
from pdfplumber_ray.pipelines import exchange


def _union_find(pairs):
    """Each id named by ``pairs`` -> its component's minimum id."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in pairs:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {x: find(x) for x in parent}


def _random_pairs(seed, n_nodes, n_pairs):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n_nodes), rng.randrange(n_nodes)) for _ in range(n_pairs)]
    return pairs + pairs[: n_pairs // 4]  # repeated pairs


STRINGS = ["c\x00", "c", "c\x00\x00", "é", "é", "日", "日本", "a", "b", ""]

# id pairs: seeded int graphs (self-pairs and repeats included), cliques,
# string ids with trailing NULs and non-ASCII text, and a 300-node chain
CASES = {
    "int_sparse": (_random_pairs(1, 60, 30), pa.int64()),
    "int_dense": (_random_pairs(2, 20, 40), pa.int64()),
    "int_self_pairs": ([(5, 5), (7, 7), (7, 3), (9, 9), (3, 3)], pa.int64()),
    "cliques": (
        list(itertools.combinations(range(10, 16), 2))
        + list(itertools.combinations(range(30, 26, -1), 2))
        + [(15, 27)],
        pa.int64(),
    ),
    "strings": (
        [p for i, p in enumerate(itertools.combinations(STRINGS, 2)) if i % 3 == 0]
        + [("c", "c\x00"), ("z\x00", "y"), ("z", "z")],
        pa.string(),
    ),
    "chain": ([(i, i + 1) for i in range(299)], pa.int64()),
}


@pytest.mark.parametrize("seed", range(8))
def test_connected_components_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    m = int(rng.integers(0, 2 * n))
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    want = {i: i for i in range(n)}
    want.update(_union_find(zip(a.tolist(), b.tolist())))
    assert connected_components(a, b, n).tolist() == [want[i] for i in range(n)]


def _components(pairs, typ):
    table = pa.table(
        {"a": pa.array([x for x, _ in pairs], typ), "b": pa.array([y for _, y in pairs], typ)}
    )
    out = exchange.components(ray.data.from_arrow(table), "a", "b")
    rows = out.take_all()
    assert out.schema().types == [typ, typ]
    return {r["node"]: r["label"] for r in rows}, len(rows)


# MAX_BROADCAST_ROWS per path, from the pair count: the driver path, and
# the propagation loop with its joins broadcast while the nodes fit, or
# co-grouped throughout
PATHS = {
    "driver": lambda n_pairs: exchange.MAX_BROADCAST_ROWS,
    "propagation": lambda n_pairs: n_pairs - 1,
    "propagation_cogroup": lambda n_pairs: 0,
}


@pytest.mark.parametrize(
    "case,path",
    # the chain has more nodes than pairs: its propagation path co-groups already
    [(c, p) for c in sorted(CASES) for p in sorted(PATHS) if (c, p) != ("chain", "propagation_cogroup")],
)
def test_components_paths_match_union_find(ray_session, monkeypatch, case, path):
    pairs, typ = CASES[case]
    calls = []
    real = exchange._min_label_propagation
    monkeypatch.setattr(
        exchange, "_min_label_propagation", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", PATHS[path](len(pairs)))
    # fewer buckets keep the co-grouped rounds short; rows do not depend on it
    monkeypatch.setattr(exchange, "N_EXCHANGE_BUCKETS", 4)
    got, n_rows = _components(pairs, typ)
    assert calls == ([] if path == "driver" else [1])
    want = _union_find(pairs)
    assert n_rows == len(want)
    assert got == want


def _lines(seed, n):
    """Lines on a coarse grid, so heights, edges and centres often align."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        ln = _Line(rng.random() < 0.8, 0.1)
        h = rng.choice([8.0, 10.0, 10.5, 20.0])
        w = rng.choice([40.0, 60.0, 90.0])
        ln.x0, ln.y0 = rng.choice([0.0, 10.0, 50.0, 100.0]), rng.randrange(0, 30) * 6.0
        ln.x1, ln.y1 = ln.x0 + w, ln.y0 + h
        if not ln.horizontal:
            ln.x1, ln.y1 = ln.x0 + h, ln.y0 + w
        out.append(ln)
    return out


def _union_find_boxes(lines, laparams):
    """The line grouping as a dict union-find (the published
    group_textlines' closure), keeping first-seen root order."""
    idx = {id(ln): i for i, ln in enumerate(lines)}
    parent = list(range(len(lines)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ln in lines:
        for nb in _find_neighbors(ln, lines, laparams.line_margin):
            ri, rj = find(idx[id(ln)]), find(idx[id(nb)])
            if ri != rj:
                parent[rj] = ri
    groups = {}
    for ln in lines:
        groups.setdefault(find(idx[id(ln)]), []).append(ln)
    return list(groups.values())


@pytest.mark.parametrize("seed", range(6))
def test_group_lines_to_boxes_matches_union_find(seed):
    laparams = LAParams()
    lines = _lines(seed, [0, 1, 5, 30, 80, 150][seed])
    got = group_lines_to_boxes(lines, laparams)
    want = _union_find_boxes(lines, laparams)
    assert [[id(ln) for ln in g] for g in got] == [[id(ln) for ln in g] for g in want]
    if seed >= 3:
        assert any(len(g) > 1 for g in got) and any(len(g) == 1 for g in got)
