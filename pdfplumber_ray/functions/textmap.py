"""Text extraction: layout-preserving textmap, plain text, search, lines.

Semantics ported from reference utils/text.py — WordMap.to_textmap
(text.py:241-420), TextMap.to_string (text.py:113-143), search
(text.py:145-230), extract_text (text.py:713-758), extract_text_simple
(text.py:761-781). The textmap is an intra-kernel structure: a rendered
string plus a parallel int64 array mapping every output character to its
source char row (-1 for layout-implied whitespace); only projections of it
cross stage boundaries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Any, Dict, List, Optional, Pattern, Tuple, Union

import numpy as np

from ..config import LIGATURES, LayoutConfig, WordConfig, validate_directions
from .clustering import cluster_groups, cluster_ids
from .words import CharTable, extract_words_page

WordTable = Dict[str, np.ndarray]


def _word_line_key(words: WordTable, line_dir: str) -> np.ndarray:
    if line_dir == "ttb":
        return words["top"]
    if line_dir == "btt":
        return -words["bottom"]
    if line_dir == "ltr":
        return words["x0"]
    return -words["x1"]  # rtl


def _word_sort_keys(words: WordTable, char_dir: str) -> Tuple[np.ndarray, np.ndarray]:
    if char_dir == "ttb":
        return words["top"], words["bottom"]
    if char_dir == "btt":
        return -words["bottom"], -words["top"]
    if char_dir == "ltr":
        return words["x0"], words["x0"]
    return -words["x1"], -words["x0"]  # rtl


_POSITION_COL = {"ttb": "top", "btt": "bottom", "ltr": "x0", "rtl": "x1"}
_BBOX_ORIGIN_IDX = {"ttb": 1, "btt": 3, "ltr": 0, "rtl": 2}


@dataclass
class TextMapResult:
    """Rendered page text + per-character provenance into the char table."""

    string: str
    char_idx: np.ndarray  # int64, -1 where no source char

    def __len__(self) -> int:
        return len(self.string)


def render_string(base: str, line_dir_render: str, char_dir_render: str) -> str:
    """TextMap.to_string render transform (text.py:113-143)."""
    validate_directions(line_dir_render, char_dir_render, "_render")
    cd, ld = char_dir_render, line_dir_render
    if cd == "ltr" and ld == "ttb":
        return base
    lines = base.split("\n")
    if ld in ("btt", "rtl"):
        lines = list(reversed(lines))
    if cd == "rtl":
        lines = [line[::-1] for line in lines]
    if ld in ("rtl", "ltr"):
        max_len = max(map(len, lines))
        if cd == "btt":
            lines = [(" " * (max_len - len(line))) + line for line in lines]
        else:
            lines = [line + (" " * (max_len - len(line))) for line in lines]
        return "\n".join("".join(line[i] for line in lines) for i in range(max_len))
    return "\n".join(lines)


def words_to_textmap(
    words: WordTable,
    chars: CharTable,
    cfg: LayoutConfig,
) -> TextMapResult:
    """WordMap.to_textmap (text.py:241-420), including the layout-mode
    newline/space imputation rules, blank-line padding and terminal trim.
    Uses Python round() (banker's rounding) to match byte-for-byte."""
    out_chars: List[str] = []
    out_idx: List[int] = []
    ldr = cfg.line_dir_render or cfg.line_dir
    cdr = cfg.char_dir_render or cfg.char_dir
    validate_directions(ldr, cdr, "_render")

    nw = words["text"].shape[0]
    if nw == 0:
        return TextMapResult("", np.empty(0, dtype=np.int64))

    expansions = LIGATURES if cfg.expand_ligatures else {}
    layout = cfg.layout
    lwc, lhc = cfg.layout_width_chars, cfg.layout_height_chars
    if layout:
        if lwc:
            if cfg.layout_width:
                raise ValueError("`layout_width` and `layout_width_chars` cannot both be set.")
        else:
            lwc = int(round(cfg.layout_width / cfg.x_density))
        if lhc:
            if cfg.layout_height:
                raise ValueError("`layout_height` and `layout_height_chars` cannot both be set.")
        else:
            lhc = int(round(cfg.layout_height / cfg.y_density))
    blank_len = lwc if layout else 0

    bbox = cfg.layout_bbox or (0, 0, 0, 0)
    y_origin = bbox[_BBOX_ORIGIN_IDX[cfg.line_dir]]
    x_origin = bbox[_BBOX_ORIGIN_IDX[cfg.char_dir]]
    line_pos_col = _POSITION_COL[cfg.line_dir]
    char_pos_col = _POSITION_COL[cfg.char_dir]
    y_adj = -1 if cfg.line_dir in ("btt", "rtl") else 1
    x_adj = -1 if cfg.char_dir in ("btt", "rtl") else 1

    preserve = cfg.presorted or cfg.use_text_flow
    if preserve:
        word_order = np.arange(nw)
    else:
        word_order = np.argsort(_word_line_key(words, cfg.line_dir), kind="stable")
    line_vals = _word_line_key(words, cfg.line_dir)[word_order]
    groups = cluster_groups(line_vals, cfg.y_tolerance, preserve_order=preserve)

    ch_text = chars["text"]
    w_char_idx = words["char_indices"]
    w_char_off = words["char_offsets"]

    def emit_blank() -> None:
        out_chars.extend([" "] * blank_len)
        out_idx.extend([-1] * blank_len)

    num_newlines = 0
    for i, grp in enumerate(groups):
        grp_words = word_order[grp]
        if layout:
            line_position = float(words[line_pos_col][grp_words[0]])
            y_dist = (line_position - (y_origin + cfg.y_shift)) * y_adj / cfg.y_density
        else:
            y_dist = 0
        prepend = max(int(i > 0), round(y_dist) - num_newlines)
        for _ in range(prepend):
            if not out_chars or out_chars[-1] == "\n":
                emit_blank()
            out_chars.append("\n")
            out_idx.append(-1)
        num_newlines += prepend

        if not preserve:
            p, s = _word_sort_keys(words, cfg.char_dir)
            sub = np.lexsort((s[grp_words], p[grp_words]))
            grp_words = grp_words[sub]

        line_len = 0
        for w in grp_words:
            if layout:
                char_position = float(words[char_pos_col][w])
                x_dist = (char_position - (x_origin + cfg.x_shift)) * x_adj / cfg.x_density
            else:
                x_dist = 0
            n_spaces = max(min(1, line_len), round(x_dist) - line_len)
            out_chars.extend([" "] * n_spaces)
            out_idx.extend([-1] * n_spaces)
            line_len += n_spaces
            for ci in w_char_idx[w_char_off[w]: w_char_off[w + 1]]:
                t = ch_text[ci]
                for letter in expansions.get(t, t):
                    out_chars.append(letter)
                    out_idx.append(int(ci))
                    line_len += 1
        if layout:
            pad = lwc - line_len
            out_chars.extend([" "] * pad)
            out_idx.extend([-1] * pad)

    if layout:
        for j in range(lhc - (num_newlines + 1)):
            if j > 0:
                emit_blank()
            out_chars.append("\n")
            out_idx.append(-1)
        if out_chars and out_chars[-1] == "\n" and out_idx[-1] == -1:
            out_chars.pop()
            out_idx.pop()

    base = "".join(out_chars)
    rendered = render_string(base, ldr, cdr)
    return TextMapResult(rendered, np.asarray(out_idx, dtype=np.int64))


def chars_to_textmap_page(
    chars: CharTable,
    word_cfg: Optional[WordConfig] = None,
    layout_cfg: Optional[LayoutConfig] = None,
) -> Tuple[TextMapResult, WordTable]:
    """chars -> (textmap, words); mirrors utils.chars_to_textmap
    (text.py:695-710): presorted=True, layout_bbox defaults to the chars'
    merged bbox."""
    word_cfg = word_cfg or WordConfig()
    layout_cfg = layout_cfg or LayoutConfig()
    words = extract_words_page(chars, word_cfg)
    if layout_cfg.layout_bbox is None and chars["x0"].shape[0]:
        bbox = (
            float(np.min(chars["x0"])),
            float(np.min(chars["top"])),
            float(np.max(chars["x1"])),
            float(np.max(chars["bottom"])),
        )
        layout_cfg = dc_replace(layout_cfg, layout_bbox=bbox)
    layout_cfg = dc_replace(layout_cfg, presorted=True)
    return words_to_textmap(words, chars, layout_cfg), words


def extract_text_page(
    chars: CharTable,
    line_dir_render: Optional[str] = None,
    char_dir_render: Optional[str] = None,
    **kwargs: Any,
) -> str:
    """utils.extract_text (text.py:713-758)."""
    n = chars["text"].shape[0] if isinstance(chars["text"], np.ndarray) else len(chars["text"])
    if n == 0:
        return ""
    if kwargs.get("layout"):
        lcfg = LayoutConfig.from_kwargs(
            **{**kwargs, "line_dir_render": line_dir_render, "char_dir_render": char_dir_render}
        )
        wcfg = WordConfig.from_kwargs(**kwargs)
        tm, _ = chars_to_textmap_page(chars, wcfg, lcfg)
        return tm.string

    wcfg = WordConfig.from_kwargs(**kwargs)
    words = extract_words_page(chars, wcfg)
    ldr = line_dir_render or wcfg.line_dir
    cdr = char_dir_render or wcfg.char_dir
    one = np.zeros(words["text"].shape[0], dtype=np.int64)
    return segment_texts(words, one, wcfg, ldr, cdr).get(0) or render_string("", ldr, cdr)


def segment_texts(
    words: WordTable, segment: np.ndarray, wcfg: WordConfig, ldr: str, cdr: str
) -> Dict[int, str]:
    """extract_text's join (text.py:740-758) for every segment of a word
    table at once: within each segment, words are clustered into lines by
    their line key, joined by " " within a line and "\n" between lines, and
    the result goes through ``render_string(base, ldr, cdr)``. Each
    segment's words must be contiguous. Returns {segment: text} for the
    segments that have words.

    NB: the reference picks the clustering tolerance based on the *render*
    line direction (text.py:743-747) — replicated deliberately."""
    nw = segment.shape[0]
    if nw == 0:
        return {}
    tol = wcfg.y_tolerance if ldr in ("ttb", "btt") else wcfg.x_tolerance
    # cluster_groups within each segment: lines keep word order
    line = cluster_ids(_word_line_key(words, wcfg.line_dir), tol, segment=segment)
    order = np.argsort(line, kind="stable")
    line_o = line[order]
    seg_o = segment[order]
    # the separator before each word, then the word
    tokens = np.empty(2 * nw, dtype=object)
    tokens[0] = ""
    tokens[2::2] = np.where(line_o[1:] != line_o[:-1], "\n", " ")
    firsts = np.concatenate(([0], (seg_o[1:] != seg_o[:-1]).nonzero()[0] + 1))
    tokens[2 * firsts] = ""
    tokens[1::2] = words["text"][order]
    tl = tokens.tolist()
    bounds = (2 * np.concatenate((firsts, [nw]))).tolist()
    texts = ["".join(tl[a:b]) for a, b in zip(bounds, bounds[1:])]
    if (ldr, cdr) != ("ttb", "ltr"):
        texts = [render_string(t, ldr, cdr) for t in texts]
    return dict(zip(seg_o[firsts].tolist(), texts))


def collate_line(
    texts: np.ndarray, x0: np.ndarray, x1: np.ndarray, tolerance: float
) -> str:
    """collate_line (text.py:761-772): sort by x0; insert a space when the
    gap from the previous char's x1 exceeds tolerance."""
    order = np.argsort(x0, kind="stable")
    parts: List[str] = []
    last_x1 = None
    for i in order:
        if last_x1 is not None and x0[i] > last_x1 + tolerance:
            parts.append(" ")
        last_x1 = x1[i]
        parts.append(texts[i])
    return "".join(parts)


def extract_text_simple_page(
    chars: CharTable, x_tolerance: float = 3, y_tolerance: float = 3
) -> str:
    """extract_text_simple (text.py:775-781): cluster chars by doctop,
    collate each line."""
    n = chars["text"].shape[0] if isinstance(chars["text"], np.ndarray) else len(chars["text"])
    if n == 0:
        return ""
    groups = cluster_groups(np.asarray(chars["doctop"], dtype=np.float64), y_tolerance)
    texts = np.asarray(chars["text"], dtype=object)
    return "\n".join(
        collate_line(texts[g], chars["x0"][g], chars["x1"][g], x_tolerance) for g in groups
    )


def search_page(
    chars: CharTable,
    pattern: Union[str, Pattern[str]],
    regex: bool = True,
    case: bool = True,
    main_group: int = 0,
    return_groups: bool = True,
    word_cfg: Optional[WordConfig] = None,
    layout_cfg: Optional[LayoutConfig] = None,
) -> List[Dict[str, Any]]:
    """TextMap.search (text.py:172-210): regex over the page textmap with
    char-level provenance; zero-width and whitespace-only matches dropped."""
    if isinstance(pattern, Pattern):
        if regex is False:
            raise ValueError("Cannot pass a compiled search pattern *and* regex=False together.")
        if case is False:
            raise ValueError("Cannot pass a compiled search pattern *and* case=False together.")
        compiled = pattern
    else:
        if regex is False:
            pattern = re.escape(pattern)
        compiled = re.compile(pattern, re.I if case is False else 0)

    tm, _ = chars_to_textmap_page(chars, word_cfg, layout_cfg)
    results = []
    for m in re.finditer(compiled, tm.string):
        if not m.group(main_group).strip():
            continue
        s, e = m.span(main_group)
        sub = tm.char_idx[s:e]
        ci = sub[sub >= 0]
        res: Dict[str, Any] = {"text": m.group(main_group)}
        if ci.shape[0]:
            res.update(
                x0=float(np.min(chars["x0"][ci])),
                top=float(np.min(chars["top"][ci])),
                x1=float(np.max(chars["x1"][ci])),
                bottom=float(np.max(chars["bottom"][ci])),
            )
        else:
            res.update(x0=None, top=None, x1=None, bottom=None)
        if return_groups:
            res["groups"] = m.groups()
        res["char_indices"] = ci
        results.append(res)
    return results


def extract_text_lines_page(
    chars: CharTable,
    strip: bool = True,
    word_cfg: Optional[WordConfig] = None,
    layout_cfg: Optional[LayoutConfig] = None,
) -> List[Dict[str, Any]]:
    """TextMap.extract_text_lines (text.py:212-230)."""
    pat = r" *([^\n]+?) *(\n|$)" if strip else r"([^\n]+)"
    return search_page(
        chars, pat, main_group=1, return_groups=False,
        word_cfg=word_cfg, layout_cfg=layout_cfg,
    )
