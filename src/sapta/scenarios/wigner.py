"""Wigner's friend: a collapsed state inside the lab, an entangled one outside."""
from __future__ import annotations

from ..quantum import StateVector
from . import _SQRT2, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_wigner"]


def scenario_wigner(perspective: str = "combined", friend_outcome: str = "up") -> ScenarioReport:
    """Collapsed state inside the lab versus entangled composite outside.

    The friend, having measured, asserts the spin outcome (T for up); for
    the uninformed outsider the lab is an entangled system-plus-friend
    composite and the spin value is indeterminate (U).  The combined report
    is predication P5 (P6 if the friend found spin down).
    """
    if perspective not in ("friend", "wigner", "combined"):
        raise ValueError(f"perspective must be 'friend', 'wigner' or 'combined', got {perspective!r}")
    if friend_outcome not in ("up", "down"):
        raise ValueError(f"friend_outcome must be 'up' or 'down', got {friend_outcome!r}")

    spin = StateVector([1 / _SQRT2, 1 / _SQRT2], ("up", "down"))
    up = friend_outcome == "up"
    collapsed = StateVector([1, 0] if up else [0, 1], ("up", "down"))
    # The outsider's description, system and friend records correlated:
    # (|up>|F_up> + |down>|F_down>)/sqrt(2).
    composite = StateVector(
        [1 / _SQRT2, 0, 0, 1 / _SQRT2], ("up⊗F_up", "up⊗F_down", "down⊗F_up", "down⊗F_down")
    )
    probs = composite.probabilities()
    witness: dict[str, float | complex] = {
        "composite_norm": composite.norm(),
        "prob_friend_up": float(probs[0] + probs[1]),
        "prob_friend_down": float(probs[2] + probs[3]),
        "collapsed_amp_up": complex(collapsed.amplitude("up")),
        "pre_measurement_amp_up": complex(spin.amplitude("up")),
    }

    friend = Judgment("friend_lab", "spin_up", Tv3.from_bool(up))
    outside = Judgment("outside_lab", "spin_up", Tv3.UNDET)
    judgments = {"friend": (friend,), "wigner": (outside,), "combined": (friend, outside)}[perspective]
    return _report("wigner", "spin_up", "spin_system", judgments, witness)
