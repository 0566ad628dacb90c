"""Configuration dataclasses (the engine's user-extension surface).

Mirrors the reference's tunables: WordExtractor kwargs
(reference utils/text.py:423-476), TableSettings (reference table.py:462-552),
and the synthetic interleaved-span layout used by the decode stage.
All configs are plain frozen dataclasses resolved once per job and held by
the stage instance built on the driver, which runs as ``map_batches`` tasks
(``pipelines/extract.py`` gives the measured reason there is no actor pool).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

Number = Union[int, float]

DEFAULT_X_TOLERANCE = 3.0
DEFAULT_Y_TOLERANCE = 3.0
DEFAULT_X_DENSITY = 7.25
DEFAULT_Y_DENSITY = 13.0

# Ligature expansions applied during word merge (reference utils/text.py:34-42)
LIGATURES = {
    "ﬀ": "ff",
    "ﬃ": "ffi",
    "ﬄ": "ffl",
    "ﬁ": "fi",
    "ﬂ": "fl",
    "ﬆ": "st",
    "ﬅ": "st",
}

_VALID_DIRS = ("ttb", "btt", "ltr", "rtl")


def validate_directions(line_dir: str, char_dir: str, suffix: str = "") -> None:
    if line_dir not in _VALID_DIRS:
        raise ValueError(f"line_dir{suffix} must be one of {_VALID_DIRS}, not {line_dir}")
    if char_dir not in _VALID_DIRS:
        raise ValueError(f"char_dir{suffix} must be one of {_VALID_DIRS}, not {char_dir}")
    if set(line_dir) == set(char_dir):
        raise ValueError(
            f"line_dir{suffix}={line_dir} is incompatible with char_dir{suffix}={char_dir}"
        )


@dataclass(frozen=True)
class WordConfig:
    """Word-assembly settings (reference utils/text.py:423-476)."""

    x_tolerance: Number = DEFAULT_X_TOLERANCE
    y_tolerance: Number = DEFAULT_Y_TOLERANCE
    x_tolerance_ratio: Optional[Number] = None
    y_tolerance_ratio: Optional[Number] = None
    keep_blank_chars: bool = False
    use_text_flow: bool = False
    line_dir: str = "ttb"
    char_dir: str = "ltr"
    line_dir_rotated: Optional[str] = None
    char_dir_rotated: Optional[str] = None
    extra_attrs: Tuple[str, ...] = ()
    split_at_punctuation: Union[bool, str] = False
    expand_ligatures: bool = True

    def __post_init__(self) -> None:
        validate_directions(self.line_dir, self.char_dir)
        validate_directions(self.resolved_line_dir_rotated, self.resolved_char_dir_rotated, "_rotated")

    @property
    def resolved_line_dir_rotated(self) -> str:
        return self.line_dir_rotated or self.char_dir

    @property
    def resolved_char_dir_rotated(self) -> str:
        return self.char_dir_rotated or self.line_dir

    @property
    def punct_set(self) -> str:
        s = self.split_at_punctuation
        if s is True:
            return string.punctuation
        return s or ""

    @property
    def expansions(self) -> Dict[str, str]:
        return LIGATURES if self.expand_ligatures else {}

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "WordConfig":
        names = {f for f in cls.__dataclass_fields__}
        picked = {k: v for k, v in kwargs.items() if k in names}
        if "extra_attrs" in picked and picked["extra_attrs"] is not None:
            picked["extra_attrs"] = tuple(picked["extra_attrs"])
        elif picked.get("extra_attrs") is None and "extra_attrs" in picked:
            picked["extra_attrs"] = ()
        return cls(**picked)


@dataclass(frozen=True)
class LayoutConfig:
    """Layout-mode textmap settings (reference utils/text.py:241-263)."""

    layout: bool = False
    layout_width: Number = 0
    layout_height: Number = 0
    layout_width_chars: int = 0
    layout_height_chars: int = 0
    layout_bbox: Optional[Tuple[Number, Number, Number, Number]] = None
    x_density: Number = DEFAULT_X_DENSITY
    y_density: Number = DEFAULT_Y_DENSITY
    x_shift: Number = 0
    y_shift: Number = 0
    y_tolerance: Number = DEFAULT_Y_TOLERANCE
    line_dir: str = "ttb"
    char_dir: str = "ltr"
    line_dir_render: Optional[str] = None
    char_dir_render: Optional[str] = None
    use_text_flow: bool = False
    presorted: bool = False
    expand_ligatures: bool = True

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "LayoutConfig":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in kwargs.items() if k in names})


TABLE_STRATEGIES = ("lines", "lines_strict", "text", "explicit")

_NON_NEGATIVE = (
    "snap_tolerance",
    "snap_x_tolerance",
    "snap_y_tolerance",
    "join_tolerance",
    "join_x_tolerance",
    "join_y_tolerance",
    "edge_min_length",
    "min_words_vertical",
    "min_words_horizontal",
    "intersection_tolerance",
    "intersection_x_tolerance",
    "intersection_y_tolerance",
)


@dataclass(frozen=True)
class TableConfig:
    """Table-detection settings (reference table.py:462-552).

    ``None`` in the *_x_/*_y_ fields means "fall back to the combined
    tolerance", mirroring the reference's UNSET sentinel.
    """

    vertical_strategy: str = "lines"
    horizontal_strategy: str = "lines"
    explicit_vertical_lines: Optional[List[Any]] = None
    explicit_horizontal_lines: Optional[List[Any]] = None
    snap_tolerance: Number = 3
    snap_x_tolerance: Optional[Number] = None
    snap_y_tolerance: Optional[Number] = None
    join_tolerance: Number = 3
    join_x_tolerance: Optional[Number] = None
    join_y_tolerance: Optional[Number] = None
    edge_min_length: Number = 3
    min_words_vertical: int = 3
    min_words_horizontal: int = 1
    intersection_tolerance: Number = 3
    intersection_x_tolerance: Optional[Number] = None
    intersection_y_tolerance: Optional[Number] = None
    text_settings: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _NON_NEGATIVE:
            v = getattr(self, name)
            if (v or 0) < 0:
                raise ValueError(f"Table setting '{name}' cannot be negative")
        for orientation in ("vertical", "horizontal"):
            strategy = getattr(self, orientation + "_strategy")
            if strategy not in TABLE_STRATEGIES:
                raise ValueError(
                    f"{orientation}_strategy must be one of {TABLE_STRATEGIES}"
                )
        # text_settings back-compat: bare "tolerance" fans out to x/y
        ts = dict(self.text_settings)
        for attr in ("x_tolerance", "y_tolerance"):
            if attr not in ts:
                ts[attr] = ts.get("tolerance", 3)
        ts.pop("tolerance", None)
        object.__setattr__(self, "text_settings", ts)

    def resolved(self, name: str) -> Number:
        """snap/join/intersection per-axis value with fallback."""
        v = getattr(self, name)
        if v is not None:
            return v
        base = name.rsplit("_", 2)[0]  # snap_x_tolerance -> snap
        return getattr(self, base + "_tolerance")

    @classmethod
    def resolve(cls, settings: Union["TableConfig", Dict[str, Any], None]) -> "TableConfig":
        if settings is None:
            return cls()
        if isinstance(settings, cls):
            return settings
        if isinstance(settings, dict):
            core: Dict[str, Any] = {}
            text: Dict[str, Any] = {}
            for k, v in settings.items():
                if k.startswith("text_"):
                    text[k[5:]] = v
                else:
                    core[k] = v
            core["text_settings"] = text
            return cls(**core)
        raise ValueError(f"Cannot resolve settings: {settings}")


@dataclass(frozen=True)
class SynthLayoutConfig:
    """Deterministic geometry for the interleaved-span decode stage.

    Every input span is laid onto monospace pages so that the extraction
    kernels (words, lines, lattice tables) can *invert* the layout exactly —
    the round-trip invariant of BASELINE.json's north rule.
    """

    page_width: float = 612.0
    page_height: float = 792.0
    margin_left: float = 72.0
    margin_top: float = 72.0
    char_advance: float = 7.25   # == DEFAULT_X_DENSITY so layout mode aligns
    char_width: float = 6.0      # glyph ink width; intra-word gap 1.25 < x_tol 3
    line_height: float = 13.0    # == DEFAULT_Y_DENSITY
    body_size: float = 10.0
    heading_size: float = 16.0   # flatten classifies size >= 14 as "heading"
    max_line_chars: int = 64
    lines_per_page: int = 48
    table_cols: int = 3
    cell_pad_chars: int = 1
    cell_height_lines: int = 2
    media_height_lines: int = 2
    media_width: float = 100.0
    body_font: str = "SynthMono"
    heading_font: str = "SynthMono-Bold"
    rotate_short_headings: bool = True  # short headings render vertically
    rotated_advance: float = 12.0       # per-glyph vertical advance

    @property
    def para_gap_threshold(self) -> float:
        # consecutive lines within a block are line_height apart; blocks are
        # separated by a blank line (2 * line_height) — split midway.
        return 1.5 * self.line_height


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level job config for the flagship extraction pipeline."""

    word: WordConfig = field(default_factory=WordConfig)
    table: TableConfig = field(default_factory=TableConfig)
    synth: SynthLayoutConfig = field(default_factory=SynthLayoutConfig)
    batch_size: int = 64           # docs per batch into the decode/extract stage
    quarantine_errors: bool = True  # poison-pill docs -> errors rows, not task failure

    def with_(self, **kw: Any) -> "PipelineConfig":
        return replace(self, **kw)
