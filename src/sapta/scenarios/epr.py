"""The EPR pair: an entangled pair measured in one of two exclusive bases."""
from __future__ import annotations

from ..quantum import StateVector, divide, kron, norm, vdot
from . import _SQRT2, Judgment, ScenarioReport, Tv3, _report

__all__ = ["scenario_epr"]


def scenario_epr(basis: str = "zero_one") -> ScenarioReport:
    """Entangled pair measured in one of two mutually exclusive bases.

    The singlet-like state (A0 B0 + A1 B1)/sqrt(2) re-expressed over the
    rotated bases A± = (A0 ± A1)/sqrt(2), B± likewise, is amplitude-for-
    amplitude the same vector; the report records the largest deviation.
    Alice's measurement in the chosen basis (first outcome) conditions B
    into B0 or B+ accordingly.  Whether "B is in state B0" is settled (T,
    in the 0/1 context) or indeterminate (U, in the +/- context) depends on
    the measurement context, and the two contexts are incompatible.
    """
    if basis not in ("zero_one", "plus_minus"):
        raise ValueError(f"basis must be 'zero_one' or 'plus_minus', got {basis!r}")

    labels = ("A0⊗B0", "A0⊗B1", "A1⊗B0", "A1⊗B1")
    half = complex(1 / _SQRT2)
    direct = (half, 0j, 0j, half)

    a_plus = (half, half)
    a_minus = (half, complex(-1 / _SQRT2))
    rotated = [
        divide(x + y, _SQRT2) for x, y in zip(kron(a_plus, a_plus), kron(a_minus, a_minus))
    ]
    max_diff = max(abs(x - y) for x, y in zip(direct, rotated))

    amps = StateVector(direct, labels).amplitudes  # A outcome major, B minor
    alice = (1 + 0j, 0j) if basis == "zero_one" else a_plus
    # <alice| on the A factor: one inner product per column of B amplitudes.
    conditional_raw = [vdot(alice, amps[b::2]) for b in range(2)]
    length = norm(conditional_raw)
    outcome_prob = length**2
    conditional_b = [divide(z, length) for z in conditional_raw]

    judgments = (
        Judgment("basis_zero_one", "b_in_state_b0", Tv3.TRUE),
        Judgment("basis_plus_minus", "b_in_state_b0", Tv3.UNDET),
    )
    witness: dict[str, float | complex] = {
        "max_amplitude_difference": max_diff,
        "alice_outcome_probability": outcome_prob,
        "conditional_b_amp_0": conditional_b[0],
        "conditional_b_amp_1": conditional_b[1],
    }
    return _report("epr", "b_in_state_b0", "pair", judgments, witness)
