"""Frozen word-kernel output on multi-run pages.

``extract_words_page`` assembles every (upright, *extra_attrs) run of a
page in one segmented pass. This test pins its full output (every column,
char provenance included) on seeded pages whose runs interleave upright and
rotated lines, repeat the same geometry in separate runs, and carry
ligatures, punctuation and x0 ties, across the word settings that change
run, line or break semantics. The golden was written by the per-run
implementation the segmented pass replaced; it needs no reference tree.

Regenerate (only for a deliberate output change) with
``PYTHONPATH=. python tests/test_words_segmented.py`` from the repository root.
"""

import os
import sys
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from synth_chars import make_chars, to_arrays  # noqa: E402

from pdfplumber_ray.config import WordConfig  # noqa: E402
from pdfplumber_ray.functions.words import extract_words_page  # noqa: E402

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "words_multirun.parquet"
)

_FLOAT_COLS = ("x0", "x1", "top", "bottom", "doctop", "width", "height")


def _shuffled_lines(seed: int) -> List[Dict]:
    """Lines of one page in a seeded order, so upright and rotated runs
    alternate several times."""
    chars = make_chars(seed=seed, n_lines=8, jitter=1.2, rotated_lines=3)
    lines: Dict[int, List[Dict]] = {}
    for c in chars:
        lines.setdefault(round((c["top"] - 72.0) / 13.0), []).append(c)
    order = np.random.default_rng(seed).permutation(len(lines))
    return [c for i in order for c in lines[int(i)]]


def _with_narrow_copies(chars: List[Dict]) -> List[Dict]:
    """Every third glyph followed by a 1 pt narrower copy at the same x0
    (a faux-bold double print): ties on x0 that only the secondary sort key
    orders."""
    out: List[Dict] = []
    for i, c in enumerate(chars):
        out.append(c)
        if i % 3 == 0:
            out.append({**c, "x1": c["x1"] - 1.0, "width": c["width"] - 1.0})
    return out


def _pages() -> Dict[str, Dict[str, np.ndarray]]:
    return {
        # two pages' chars back to back: the second repeats the first's
        # line geometry in later runs
        "stacked": to_arrays(
            make_chars(seed=1, n_lines=6, jitter=0.4, rotated_lines=2)
            + make_chars(seed=2, n_lines=5, rotated_lines=1)
        ),
        "shuffled": to_arrays(_shuffled_lines(3)),
        "narrow_copies": to_arrays(
            _with_narrow_copies(make_chars(seed=5, n_lines=5, jitter=0.2, rotated_lines=1))
        ),
        "noblanks": to_arrays(
            make_chars(seed=4, n_lines=7, jitter=0.3, rotated_lines=2, blanks=False)
        ),
    }


CONFIGS: List[Dict] = [
    {},
    {"extra_attrs": ("fontname",)},
    {"extra_attrs": ("fontname", "size")},
    {"keep_blank_chars": True, "extra_attrs": ("fontname",)},
    {"split_at_punctuation": True},
    {"split_at_punctuation": ".,;", "extra_attrs": ("fontname",)},
    {"x_tolerance": 1.0},
    {"x_tolerance_ratio": 0.15, "extra_attrs": ("fontname",)},
    {"y_tolerance_ratio": 0.3},
    {"use_text_flow": True},
    {"use_text_flow": True, "extra_attrs": ("fontname",)},
    {"expand_ligatures": False},
    {"line_dir": "ttb", "char_dir": "rtl", "extra_attrs": ("fontname",)},
    {"line_dir": "btt", "char_dir": "ltr"},
    {"line_dir": "ltr", "char_dir": "ttb", "extra_attrs": ("fontname",)},
    {"line_dir": "rtl", "char_dir": "btt"},
    {"line_dir_rotated": "rtl", "char_dir_rotated": "btt", "x_tolerance_ratio": 0.2},
]


def _cases() -> List[Tuple[str, Dict[str, np.ndarray], WordConfig, Tuple[str, ...]]]:
    out = []
    for pname, chars in _pages().items():
        for i, kw in enumerate(CONFIGS):
            cfg = WordConfig.from_kwargs(**kw)
            out.append((f"{pname}/{i}", chars, cfg, cfg.extra_attrs))
    return out


def _row(name: str, words: Dict[str, np.ndarray], attrs: Tuple[str, ...]) -> Dict:
    row = {"case": name, "text": words["text"].tolist()}
    for k in _FLOAT_COLS:
        row[k] = words[k].astype(np.float64).tolist()
    row["upright"] = words["upright"].astype(bool).tolist()
    row["direction"] = words["direction"].tolist()
    for a in attrs:
        row["attr_" + a] = [str(v) for v in words[a].tolist()]
    row["char_indices"] = words["char_indices"].tolist()
    row["char_offsets"] = words["char_offsets"].tolist()
    return row


def _write_golden() -> None:
    rows = []
    for name, chars, cfg, attrs in _cases():
        rows.append(_row(name, extract_words_page(chars, cfg), attrs))
    cols = sorted({k for r in rows for k in r})
    table = pa.table({k: [r.get(k) for r in rows] for k in cols})
    pq.write_table(table, GOLDEN)


def _golden_rows() -> Dict[str, Dict]:
    return {r["case"]: r for r in pq.read_table(GOLDEN).to_pylist()}


@pytest.mark.parametrize("case", range(len(_pages()) * len(CONFIGS)))
def test_words_match_multirun_golden(case):
    name, chars, cfg, attrs = _cases()[case]
    want = _golden_rows()[name]
    words = extract_words_page(chars, cfg)
    got = _row(name, words, attrs)
    assert got["text"] == want["text"]
    for k in _FLOAT_COLS:
        # bit-equality, signed zero included
        assert np.array_equal(
            np.asarray(got[k], np.float64).view(np.int64),
            np.asarray(want[k], np.float64).view(np.int64),
        ), k
    for k in ("upright", "direction", "char_indices", "char_offsets"):
        assert got[k] == want[k], k
    for a in attrs:
        assert got["attr_" + a] == want["attr_" + a], a
    assert words["char_indices"].dtype == np.int64
    assert words["char_offsets"].dtype == np.int64
    assert words["upright"].dtype == bool
    assert words["direction"].dtype == object and words["text"].dtype == object


def test_golden_covers_multirun_pages():
    rows = _golden_rows()
    assert len(rows) == len(_pages()) * len(CONFIGS)
    # rotated and upright words on every page, more than one run each
    for pname in _pages():
        ups = rows[f"{pname}/1"]["upright"]
        assert any(ups) and not all(ups)
        assert sum(a != b for a, b in zip(ups, ups[1:])) >= 1
    # ligatures expand in one setting and stay in the other
    assert any("fi" in t or "fl" in t for t in rows["stacked/0"]["text"])
    assert any("ﬁ" in t or "ﬂ" in t for t in rows["stacked/11"]["text"])


if __name__ == "__main__":
    _write_golden()
