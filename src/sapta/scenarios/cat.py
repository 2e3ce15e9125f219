"""Schrödinger's cat: a sealed box's superposition against an opened box's draw."""
from __future__ import annotations

from .. import MAX_TRIALS
from ..quantum import StateVector
from . import _SQRT2, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_cat", "find_cat_seed"]

# The sealed cat, and the Born probability of finding it alive: a draw below
# it finds the cat alive, in the scenario and in the seed search alike.
_CAT = StateVector([1 / _SQRT2, 1 / _SQRT2], ("alive", "dead"))
_P_ALIVE = float(abs(_CAT.amplitude("alive")) ** 2)


def scenario_cat(open_box: bool, seed: int = 0, trials: int | None = None) -> ScenarioReport:
    """Sealed-box superposition versus an opened-box observation.

    Sealed, the cat state (|alive> + |dead>)/sqrt(2) supports only the
    indeterminate judgment.  Opening the box samples alive/dead with the
    Born probability |1/sqrt(2)|^2 = 1/2 from the seeded generator; the
    opened- and sealed-box judgments together land on P5 (found alive) or
    P6 (found dead).  With ``trials`` the sampled alive frequency over that
    many draws is added to the numeric witness.
    """
    witness: dict[str, float | complex] = {"p_alive": _P_ALIVE}

    judgments = [Judgment("box_closed", "alive", Tv3.UNDET)]
    if open_box:
        if trials is not None and trials < 0:
            raise ValueError(f"trials must be non-negative, got {trials}")
        if trials is not None and trials > MAX_TRIALS:
            raise ValueError(f"at most {MAX_TRIALS} trials are allowed, got {trials}")
        from ..sampling import _first_draw, sample_alive

        if not trials:
            alive = _first_draw(seed) < _P_ALIVE
        else:
            alive, count = sample_alive(seed, trials, _P_ALIVE)
            witness["alive_frequency"] = count / trials
        witness["sampled_alive"] = 1.0 if alive else 0.0
        judgments.insert(0, Judgment("box_open", "alive", Tv3.from_bool(alive)))
    return _report("cat", "alive", "cat", judgments, witness)


def find_cat_seed(base_seed: int, want_alive: bool) -> int:
    """Smallest seed >= base_seed whose first draw gives the wanted outcome."""
    from ..sampling import _first_draw

    seed = base_seed
    while (_first_draw(seed) < _P_ALIVE) != want_alive:
        seed += 1
    return seed
