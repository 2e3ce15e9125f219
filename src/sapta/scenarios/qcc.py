"""The quantum Cheshire cat: weak values on a pre- and post-selected photon."""
from __future__ import annotations

from .. import scenarios
from ..quantum import Operator, StateVector, inner_product, kron, tensor_product, weak_value
from . import _SQRT2, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_qcc"]


def _kron_matrix(a, b):
    """Kronecker product of two matrices given as rows."""
    return [kron(row_a, row_b) for row_a in a for row_b in b]


def scenario_qcc() -> ScenarioReport:
    """Weak values on a pre- and post-selected interferometer photon.

    Pre-selection (i|L> + |R>)|H>/sqrt(2) — the 50:50 splitter puts i on the
    reflected arm — and post-selection (|L>|H> + |R>|V>)/sqrt(2) overlap in
    i/2, so weak values exist: the path projectors give 1 on the left arm
    and 0 on the right, while the circular-polarization observable
    localizes entirely on the right arm.  Position found in one arm,
    polarization in the other, a pure state with no probe: predication P7.
    """
    path = StateVector([1j / _SQRT2, 1 / _SQRT2], ("L", "R"))
    horizontal = StateVector([1, 0], ("H", "V"))
    pre = tensor_product(path, horizontal)
    post = StateVector([1 / _SQRT2, 0, 0, 1 / _SQRT2], pre.labels)

    on_l = ((1 + 0j, 0j), (0j, 0j))
    on_r = ((0j, 0j), (0j, 1 + 0j))
    eye2 = ((1 + 0j, 0j), (0j, 1 + 0j))
    proj_l = Operator(_kron_matrix(on_l, eye2), "path_L")
    proj_r = Operator(_kron_matrix(on_r, eye2), "path_R")
    # Circular polarization |+i><+i| - |-i><-i| in the H/V basis, confined
    # per arm by the path projector; swappable without touching judgments.
    sigma_circ = ((0j, -1j), (1j, 0j))
    pol_l = Operator(_kron_matrix(on_l, sigma_circ), "circ_pol_in_L")
    pol_r = Operator(_kron_matrix(on_r, sigma_circ), "circ_pol_in_R")

    # `weak_value` as the package holds it when called (see its _HOMES).
    weak = scenarios.weak_value
    witness: dict[str, float | complex] = {
        "overlap_post_pre": inner_product(post, pre),
        "weak_value_path_L": weak(proj_l, pre, post),
        "weak_value_path_R": weak(proj_r, pre, post),
        "weak_value_polarization_L": weak(pol_l, pre, post),
        "weak_value_polarization_R": weak(pol_r, pre, post),
    }

    judgments = (
        Judgment("probe_arm_L", "photon_present", Tv3.TRUE),
        Judgment("probe_arm_R", "photon_present", Tv3.FALSE),
        Judgment("no_probe", "photon_present", Tv3.UNDET),
    )
    return _report("qcc", "photon_present", "photon", judgments, witness)
