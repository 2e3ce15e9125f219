"""The double slit: wave and particle judgments across three slit arrangements."""
from __future__ import annotations

from ..quantum import StateVector, fringe_visibility
from . import _SQRT2, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_double_slit"]

_SLIT_CONTEXTS = (
    ("one_slit_observed", Tv3.TRUE),
    ("one_slit_unobserved", Tv3.FALSE),
    ("two_slits_unobserved", Tv3.UNDET),
)


def scenario_double_slit(
    one_slit_observed: bool = True,
    one_slit_unobserved: bool = True,
    two_slits_unobserved: bool = True,
) -> ScenarioReport:
    """Wave/particle judgments across the three slit arrangements.

    A detected entity behind a single open slit is a particle (T); with no
    detection the single-slit diffraction pattern shows it is not (F); with
    both slits open and no observation it is in a pure state (U).  The full
    three-context run exhibits the seventh predication.
    """
    included = [one_slit_observed, one_slit_unobserved, two_slits_unobserved]
    judgments = tuple(
        Judgment(name, "particle", value)
        for (name, value), flag in zip(_SLIT_CONTEXTS, included)
        if flag
    )
    # Two equal-amplitude paths: full fringe visibility while coherent,
    # none once which-path information exists.
    paths = StateVector([1 / _SQRT2, 1 / _SQRT2], ("slit1", "slit2"))
    witness = {
        "visibility_two_slits_unobserved": fringe_visibility(paths, which_path_known=False),
        "visibility_which_path_recorded": fringe_visibility(paths, which_path_known=True),
    }
    return _report("double_slit", "particle", "electron", judgments, witness)
