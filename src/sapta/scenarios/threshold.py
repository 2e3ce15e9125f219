"""The perception threshold: no, uncertain or yes per band of stimulus intensity."""
from __future__ import annotations

import math
from typing import Sequence

from ..errors import BadCuts
from . import MAX_LEVELS, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_threshold"]


def scenario_threshold(
    intensity_levels: Sequence[float] = (0.1, 0.5, 0.9),
    lower_cut: float = 0.3,
    upper_cut: float = 0.7,
) -> ScenarioReport:
    """Stimulus-threshold judgments: no / uncertain / yes per intensity band.

    Each intensity level is its own presentation context.  Below the lower
    cut the subject reports "no" (F), between the cuts "it is uncertain"
    (U), above the upper cut "yes" (T).  Levels spanning all three bands
    exhaust the sevenfold schema's seventh predication; restricted level
    sets reproduce the others.  Levels and cuts must be finite, there are at
    most ``MAX_LEVELS`` levels, and distinct levels must name distinct
    contexts (``0.3`` and ``0.2999999`` do not).
    """
    if not (math.isfinite(lower_cut) and math.isfinite(upper_cut)):
        raise BadCuts(f"cuts must be finite, got {lower_cut} and {upper_cut}")
    if lower_cut >= upper_cut:
        raise BadCuts(f"lower cut {lower_cut} must be below upper cut {upper_cut}")
    levels = list(intensity_levels)
    if not levels:
        raise ValueError("at least one intensity level is required")
    if len(levels) > MAX_LEVELS:
        raise ValueError(f"at most {MAX_LEVELS} intensity levels are allowed, got {len(levels)}")
    for level in levels:
        if not math.isfinite(level):
            raise ValueError(f"intensity levels must be finite, got {level}")
    if len(set(levels)) != len(levels):
        raise ValueError("intensity levels must be distinct")

    def band(level: float) -> Tv3:
        if level < lower_cut:
            return Tv3.FALSE
        if level <= upper_cut:
            return Tv3.UNDET
        return Tv3.TRUE

    named: dict[str, float] = {}
    for level in levels:
        name = f"intensity_{level:g}"
        if named.setdefault(name, level) != level:
            raise ValueError(
                f"intensity levels {named[name]!r} and {level!r} both name context {name!r}"
            )
    bands = [band(level) for level in named.values()]  # one per level: names are distinct
    judgments = tuple(Judgment(name, "perceived", value) for name, value in zip(named, bands))
    witness: dict[str, float | complex] = {
        "count_below_lower_cut": float(bands.count(Tv3.FALSE)),
        "count_between_cuts": float(bands.count(Tv3.UNDET)),
        "count_above_upper_cut": float(bands.count(Tv3.TRUE)),
    }
    return _report("threshold", "perceived", "stimulus", judgments, witness)
