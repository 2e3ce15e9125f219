"""Scenario generators: context-tagged judgments from toy physical models.

Each generator builds a small state-vector computation and derives a
judgment set over mutually incompatible observation contexts; ``_report``
adds the induced model and the expected predication class.  All randomness
comes from numpy's seeded PCG64 generator (``numpy.random.default_rng``),
so reports are reproducible bit-for-bit given the same parameters and
seed.  The draws are in ``sampling``, which only an opened box loads: its
one draw is computed in pure Python, and only a cat run with ``trials``
imports numpy, for its bulk sample.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from . import MAX_LEVELS, MAX_TRIALS, SCENARIO_NAMES
from .errors import BadCuts
from .records import Record
from .predication import (
    Judgment,
    PredicationClass,
    PredicationTag,
    classify,
    induced_model,
    judgments_to_json,
    tag_for_values,
)
from .quantum import (
    Operator,
    StateVector,
    complex_to_json,
    divide,
    fringe_visibility,
    inner_product,
    kron,
    norm,
    tensor_product,
    vdot,
    weak_value,
)
from .semantics import Model
from .trivalent import Tv3

__all__ = [
    "ScenarioReport",
    "scenario_double_slit",
    "scenario_cat",
    "scenario_wigner",
    "scenario_epr",
    "scenario_qcc",
    "scenario_threshold",
    "SCENARIO_NAMES",
    "CORPUS_ORDER",
    "CorpusResult",
    "run_corpus",
    "find_cat_seed",
]

_SQRT2 = math.sqrt(2.0)


class ScenarioReport(Record):
    """A scenario's model, judgments, expected class, and numeric evidence."""

    __slots__ = _fields = ("scenario_name", "model", "judgments", "expected_class", "numeric_witness")

    def __init__(
        self,
        scenario_name: str,
        model: Model,
        judgments: tuple[Judgment, ...],
        expected_class: PredicationClass,
        numeric_witness: dict[str, float | complex] | None = None,
    ):
        for j in judgments:
            if not model.is_context(j.context):
                raise ValueError(f"judgment context {j.context!r} not declared in scenario model")
        object.__setattr__(self, "scenario_name", scenario_name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "judgments", judgments)
        object.__setattr__(self, "expected_class", expected_class)
        object.__setattr__(self, "numeric_witness", {} if numeric_witness is None else numeric_witness)

    def to_json(self) -> dict:
        witness = {
            name: complex_to_json(v) if isinstance(v, complex) else float(v)
            for name, v in self.numeric_witness.items()
        }
        return {
            "scenarioName": self.scenario_name,
            "model": self.model.to_json(),
            "judgments": judgments_to_json(self.judgments),
            "expectedClass": self.expected_class.to_json(),
            "numericWitness": witness,
        }


def _report(name: str, predicate: str, entity: str, judgments: Sequence[Judgment],
            witness: dict[str, float | complex]) -> ScenarioReport:
    """A scenario's report on its judgments about `predicate` of `entity`.

    Each context is an arrangement of its own, incompatible with every
    other, so the asserted values alone fix the expected class: the tag of
    their set, with the lexicographically first context per value as
    witness, in T, F, U order; no judgment at all is Degenerate.  The rule
    is stated here apart from ``classify``, which the corpus checks
    against it.
    """
    judgments = tuple(judgments)
    values = [v for v in (Tv3.TRUE, Tv3.FALSE, Tv3.UNDET) if any(j.value is v for j in judgments)]
    if values:
        model = induced_model(judgments, predicate, entity)
        contexts = tuple(min(j.context for j in judgments if j.value is v) for v in values)
        expected = PredicationClass(tag_for_values(values), contexts)
    else:
        model = Model([entity], [], [predicate])
        expected = PredicationClass(PredicationTag.DEGENERATE, ())
    return ScenarioReport(name, model, judgments, expected, witness)


# ---------------------------------------------------------------------------
# Double slit.

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


# ---------------------------------------------------------------------------
# Schrödinger's cat.

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
        from .sampling import _first_draw, sample_alive

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
    from .sampling import _first_draw

    seed = base_seed
    while (_first_draw(seed) < _P_ALIVE) != want_alive:
        seed += 1
    return seed


# ---------------------------------------------------------------------------
# Wigner's friend.


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


# ---------------------------------------------------------------------------
# EPR pair.


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


# ---------------------------------------------------------------------------
# Quantum Cheshire cat.


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

    witness: dict[str, float | complex] = {
        "overlap_post_pre": inner_product(post, pre),
        "weak_value_path_L": weak_value(proj_l, pre, post),
        "weak_value_path_R": weak_value(proj_r, pre, post),
        "weak_value_polarization_L": weak_value(pol_l, pre, post),
        "weak_value_polarization_R": weak_value(pol_r, pre, post),
    }

    judgments = (
        Judgment("probe_arm_L", "photon_present", Tv3.TRUE),
        Judgment("probe_arm_R", "photon_present", Tv3.FALSE),
        Judgment("no_probe", "photon_present", Tv3.UNDET),
    )
    return _report("qcc", "photon_present", "photon", judgments, witness)


# ---------------------------------------------------------------------------
# Perception threshold.


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


# ---------------------------------------------------------------------------
# Corpus.

# The corpus, in output order: each entry's name and its report for a base
# seed.  The open-box entries pin their branch by searching forward from the
# base seed for one whose honest sample lands on that branch.
_CORPUS: tuple[tuple[str, Callable[[int], ScenarioReport]], ...] = (
    ("double_slit", lambda seed: scenario_double_slit()),
    ("cat_closed", lambda seed: scenario_cat(False, seed)),
    ("cat_open_alive", lambda seed: scenario_cat(True, find_cat_seed(seed, want_alive=True))),
    ("cat_open_dead", lambda seed: scenario_cat(True, find_cat_seed(seed, want_alive=False))),
    ("wigner", lambda seed: scenario_wigner()),
    ("epr", lambda seed: scenario_epr()),
    ("qcc", lambda seed: scenario_qcc()),
    ("threshold", lambda seed: scenario_threshold()),
)
CORPUS_ORDER = tuple(name for name, _ in _CORPUS)


class CorpusResult(Record):
    __slots__ = _fields = ("name", "report", "classified")

    @property
    def match(self) -> bool:
        return self.classified == self.report.expected_class

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expectedClass": self.report.expected_class.to_json(),
            "classifiedClass": self.classified.to_json(),
            "match": self.match,
        }


def run_corpus(seed: int = 0) -> list[CorpusResult]:
    """Generate every built-in scenario and classify its judgments.

    Output order is fixed regardless of execution strategy; each result
    compares the classifier's verdict against the scenario's expectation.
    """
    results = []
    for name, build in _CORPUS:
        report = build(seed)
        predicate = report.judgments[0].predicate
        classified = classify(report.judgments, report.model, predicate)
        results.append(CorpusResult(name, report, classified))
    return results
