"""Differential test of duplicate-char removal.

``functions/dedupe.py`` finds every char's key with one ``np.unique`` over
the key columns and clusters doctop, then x0, with segmented
``cluster_ids``. ``dedupe_oracle.py`` keeps the per-char dict loop it
replaced. A seeded fuzz builds char sets with exact duplicates, equal
positions (ties broken by index), positions on and just past the
tolerance, chains of near neighbours, null font names and the same keys
on several pages; the kernel must keep exactly the oracle's chars.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import dedupe_oracle as oracle  # noqa: E402

from pdfplumber_ray.functions.dedupe import dedupe_chars_mask  # noqa: E402


def _chars(rng: np.random.Generator, n: int) -> dict:
    """``n`` chars from small value pools, so keys and positions repeat."""
    step = rng.choice([0.25, 0.5, 1.0, 1.5])
    fonts = np.array(["Helvetica", "Times-Roman", "Courier", None], dtype=object)
    return {
        "text": np.array(list("aab c"), dtype=object)[rng.integers(0, 5, n)],
        "fontname": fonts[rng.integers(0, 3 if rng.random() < 0.5 else 4, n)],
        "size": rng.choice([9.0, 10.0, 10.5], n),
        "upright": rng.random(n) < 0.8,
        "doctop": rng.integers(0, 12, n) * step + rng.choice([0.0, 0.3, 1.0], n),
        "x0": rng.integers(0, 12, n) * step + rng.choice([0.0, 0.7, 1.0, 1.01], n),
        "page": rng.integers(0, 3, n),
    }


@pytest.mark.parametrize("seed", range(200))
def test_dedupe_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    chars = _chars(rng, int(rng.integers(0, 80)))
    tol = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    for extra in ((), ("page",)):
        got = dedupe_chars_mask(chars, tol, extra)
        want = oracle.dedupe_chars_mask(chars, tol, extra)
        assert got.tolist() == want.tolist(), (seed, tol, extra)


def test_exact_duplicates_keep_the_first_index():
    chars = {
        "text": np.array(["a", "a", "a"], dtype=object),
        "fontname": np.array(["F", "F", "F"], dtype=object),
        "size": np.array([10.0, 10.0, 10.0]),
        "upright": np.array([True, True, True]),
        "doctop": np.array([5.0, 5.0, 4.5]),
        "x0": np.array([1.0, 1.0, 1.0]),
        "page": np.array([1, 0, 1]),
    }
    # one cluster: the smallest doctop wins
    assert dedupe_chars_mask(chars).tolist() == [False, False, True]
    # the page splits the key: page 0's char stays on its own
    assert dedupe_chars_mask(chars, 1.0, ("page",)).tolist() == [False, True, True]
    # equal positions: the lower index wins
    chars["doctop"][2] = 5.0
    assert dedupe_chars_mask(chars).tolist() == [True, False, False]
