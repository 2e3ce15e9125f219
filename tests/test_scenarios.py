"""Scenario generators and the built-in corpus."""
import math
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from sapta import MAX_TRIALS, scenarios
from sapta.errors import BadCuts
from sapta.evaluation import evaluate
from sapta.predication import PredicationTag, classify, schema_formula_for
from sapta.scenarios import (
    CORPUS_ORDER,
    CorpusResult,
    ScenarioReport,
    find_cat_seed,
    run_corpus,
    scenario_cat,
    scenario_double_slit,
    scenario_epr,
    scenario_qcc,
    scenario_threshold,
    scenario_wigner,
)
from sapta.trivalent import Tv3

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET
ATOL = 1e-12
SQRT2 = math.sqrt(2.0)


def classified_tag(report: ScenarioReport) -> PredicationTag:
    predicate = report.judgments[0].predicate
    return classify(report.judgments, report.model, predicate).tag


# -- double slit ---------------------------------------------------------------


def test_double_slit_full_run_is_p7():
    report = scenario_double_slit()
    assert report.expected_class.tag is PredicationTag.P7
    assert classified_tag(report) is PredicationTag.P7
    values = {j.context: j.value for j in report.judgments}
    assert values == {
        "one_slit_observed": T,
        "one_slit_unobserved": F,
        "two_slits_unobserved": U,
    }


def test_double_slit_observed_vs_unobserved_is_p4():
    report = scenario_double_slit(two_slits_unobserved=False)
    assert report.expected_class.tag is PredicationTag.P4
    assert classified_tag(report) is PredicationTag.P4


def test_double_slit_pure_state_only_is_p3():
    report = scenario_double_slit(one_slit_observed=False, one_slit_unobserved=False)
    assert report.expected_class.tag is PredicationTag.P3


def test_double_slit_visibility_witnesses():
    report = scenario_double_slit()
    witness = report.numeric_witness
    assert witness["visibility_two_slits_unobserved"] == pytest.approx(1.0, abs=ATOL)
    assert witness["visibility_which_path_recorded"] == 0.0
    # Brute-force oracle: phase sweep over the equal-amplitude two-path state.
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    intensity = np.abs(1 / SQRT2 + np.exp(1j * thetas) / SQRT2) ** 2
    oracle = (intensity.max() - intensity.min()) / (intensity.max() + intensity.min())
    assert witness["visibility_two_slits_unobserved"] == pytest.approx(oracle, abs=ATOL)


# -- cat -------------------------------------------------------------------------


def test_cat_closed_box_is_p3():
    report = scenario_cat(open_box=False)
    assert report.judgments == tuple(
        [j for j in report.judgments if j.context == "box_closed" and j.value is U]
    )
    assert report.expected_class.tag is PredicationTag.P3
    assert classified_tag(report) is PredicationTag.P3


def test_cat_open_box_branches():
    alive_seed = find_cat_seed(0, want_alive=True)
    dead_seed = find_cat_seed(0, want_alive=False)
    alive = scenario_cat(open_box=True, seed=alive_seed)
    dead = scenario_cat(open_box=True, seed=dead_seed)
    assert alive.expected_class.tag is PredicationTag.P5
    assert dead.expected_class.tag is PredicationTag.P6
    assert classified_tag(alive) is PredicationTag.P5
    assert classified_tag(dead) is PredicationTag.P6
    assert alive.numeric_witness["sampled_alive"] == 1.0
    assert dead.numeric_witness["sampled_alive"] == 0.0


def test_cat_sampling_reproducible():
    a = scenario_cat(open_box=True, seed=7)
    b = scenario_cat(open_box=True, seed=7)
    assert a.to_json() == b.to_json()


def test_cat_trials_frequency():
    report = scenario_cat(open_box=True, seed=0, trials=100_000)
    assert report.numeric_witness["alive_frequency"] == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("trials", [1, 2, 6, 7, 8, 15, 50])
def test_cat_trials_chunked_equal_one_draw(monkeypatch, trials):
    p_alive = scenario_cat(open_box=False).numeric_witness["p_alive"]
    draws = np.random.default_rng(3).random(trials)
    want = {"p_alive": p_alive, "alive_frequency": float(np.mean(draws < p_alive)),
            "sampled_alive": float(draws[0] < p_alive)}
    assert scenario_cat(open_box=True, seed=3, trials=trials).numeric_witness == want
    monkeypatch.setattr(scenarios, "_CAT_CHUNK", 7)
    assert scenario_cat(open_box=True, seed=3, trials=trials).numeric_witness == want


def test_cat_negative_trials_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        scenario_cat(open_box=True, trials=-1)


def test_cat_trials_limit_checked_before_the_first_draw(monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew before checking the trial count")

    monkeypatch.setattr(scenarios, "_first_draw", no_draw)
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy fails
    with pytest.raises(ValueError, match=f"at most {MAX_TRIALS} trials"):
        scenario_cat(open_box=True, trials=MAX_TRIALS + 1)
    # The limit itself passes the check and goes on to import numpy for the
    # bulk sample, which fails here before a single draw.
    with pytest.raises(ImportError):
        scenario_cat(open_box=True, trials=MAX_TRIALS)


def test_cat_negative_seed_rejected():
    # As numpy's default_rng rejects one.
    with pytest.raises(ValueError, match="non-negative"):
        scenario_cat(open_box=True, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        find_cat_seed(-1, want_alive=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128, 2**2000)))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64 + 5)
@example(2**128 - 1)
@example(2**128)
def test_first_draw_equals_numpy(seed):
    assert scenarios._first_draw(seed) == np.random.default_rng(seed).random()


def test_first_draw_equals_numpy_on_every_small_seed():
    # The seeds the corpus and find_cat_seed search most.
    for seed in range(2000):
        assert scenarios._first_draw(seed) == np.random.default_rng(seed).random(), seed


def test_cat_born_probability():
    report = scenario_cat(open_box=False)
    assert report.numeric_witness["p_alive"] == pytest.approx(0.5, abs=ATOL)


# -- wigner -----------------------------------------------------------------------


def test_wigner_perspectives():
    friend = scenario_wigner("friend")
    outside = scenario_wigner("wigner")
    combined = scenario_wigner()
    assert friend.judgments[0].context == "friend_lab"
    assert friend.judgments[0].value is T
    assert outside.judgments[0].context == "outside_lab"
    assert outside.judgments[0].value is U
    assert combined.expected_class.tag is PredicationTag.P5
    assert classified_tag(combined) is PredicationTag.P5


def test_wigner_spin_down_branch():
    report = scenario_wigner(friend_outcome="down")
    assert report.judgments[0].value is F
    assert report.expected_class.tag is PredicationTag.P6
    assert classified_tag(report) is PredicationTag.P6


def test_wigner_composite_witnesses():
    witness = scenario_wigner().numeric_witness
    assert witness["composite_norm"] == pytest.approx(1.0, abs=ATOL)
    assert witness["prob_friend_up"] == pytest.approx(0.5, abs=ATOL)
    assert witness["prob_friend_down"] == pytest.approx(0.5, abs=ATOL)
    assert witness["collapsed_amp_up"] == 1 + 0j


def test_wigner_rejects_unknown_perspective():
    with pytest.raises(ValueError):
        scenario_wigner("bohr")


# -- EPR --------------------------------------------------------------------------


def test_epr_basis_equivalence():
    report = scenario_epr()
    assert report.numeric_witness["max_amplitude_difference"] <= ATOL


def test_epr_conditional_states():
    zero_one = scenario_epr("zero_one")
    assert zero_one.numeric_witness["conditional_b_amp_0"] == pytest.approx(1 + 0j, abs=ATOL)
    assert zero_one.numeric_witness["conditional_b_amp_1"] == pytest.approx(0j, abs=ATOL)
    plus_minus = scenario_epr("plus_minus")
    assert plus_minus.numeric_witness["conditional_b_amp_0"] == pytest.approx(
        1 / SQRT2, abs=ATOL
    )
    assert plus_minus.numeric_witness["conditional_b_amp_1"] == pytest.approx(
        1 / SQRT2, abs=ATOL
    )
    for report in (zero_one, plus_minus):
        assert report.numeric_witness["alice_outcome_probability"] == pytest.approx(
            0.5, abs=ATOL
        )


def test_epr_judgments_and_class():
    report = scenario_epr()
    assert report.expected_class.tag is PredicationTag.P5
    assert classified_tag(report) is PredicationTag.P5
    assert report.model.incompatible("basis_zero_one", "basis_plus_minus")


def test_epr_rejects_unknown_basis():
    with pytest.raises(ValueError):
        scenario_epr("diagonal")


# -- QCC --------------------------------------------------------------------------


def test_qcc_weak_values():
    witness = scenario_qcc().numeric_witness
    assert witness["overlap_post_pre"] == pytest.approx(0.5j, abs=ATOL)
    assert witness["weak_value_path_L"] == pytest.approx(1 + 0j, abs=ATOL)
    assert witness["weak_value_path_R"] == pytest.approx(0 + 0j, abs=ATOL)
    assert witness["weak_value_polarization_L"] == pytest.approx(0 + 0j, abs=ATOL)
    assert witness["weak_value_polarization_R"] == pytest.approx(1 + 0j, abs=ATOL)


def test_qcc_path_weak_values_sum_to_one():
    witness = scenario_qcc().numeric_witness
    total = witness["weak_value_path_L"] + witness["weak_value_path_R"]
    assert total == pytest.approx(1 + 0j, abs=ATOL)


def test_qcc_classifies_to_p7():
    report = scenario_qcc()
    assert report.expected_class.tag is PredicationTag.P7
    assert classified_tag(report) is PredicationTag.P7
    contexts = [j.context for j in report.judgments]
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            assert report.model.incompatible(contexts[i], contexts[j])


# -- numpy as the reference ---------------------------------------------------------


def _numpy_witnesses():
    """The quantum witnesses as numpy computes them, scenario by scenario."""
    s2 = SQRT2
    norm = np.linalg.norm
    out = {}
    for outcome in ("up", "down"):
        composite = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])).astype(complex) / s2
        probs = np.abs(composite) ** 2
        collapsed = np.array([1, 0] if outcome == "up" else [0, 1], dtype=complex)
        out["wigner", outcome] = {
            "composite_norm": float(norm(composite)),
            "prob_friend_up": float(probs[0] + probs[1]),
            "prob_friend_down": float(probs[2] + probs[3]),
            "collapsed_amp_up": complex(collapsed[0]),
            "pre_measurement_amp_up": complex(1 / s2),
        }
    direct = np.array([1 / s2, 0, 0, 1 / s2], dtype=complex)
    a_plus = np.array([1, 1], dtype=complex) / s2
    a_minus = np.array([1, -1], dtype=complex) / s2
    rotated = (np.kron(a_plus, a_plus) + np.kron(a_minus, a_minus)) / s2
    for basis, alice in (("zero_one", np.array([1, 0], dtype=complex)), ("plus_minus", a_plus)):
        raw = np.conj(alice) @ direct.reshape(2, 2)
        conditional = raw / norm(raw)
        out["epr", basis] = {
            "max_amplitude_difference": float(np.max(np.abs(direct - rotated))),
            "alice_outcome_probability": float(norm(raw) ** 2),
            "conditional_b_amp_0": complex(conditional[0]),
            "conditional_b_amp_1": complex(conditional[1]),
        }
    pre = np.kron(np.array([1j, 1]) / s2, [1, 0])
    post = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])).astype(complex) / s2
    on_l, on_r = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    sigma = np.array([[0, -1j], [1j, 0]])
    overlap = np.vdot(post, pre)
    qcc = {"overlap_post_pre": complex(overlap)}
    for name, matrix in (
        ("path_L", np.kron(on_l, np.eye(2))),
        ("path_R", np.kron(on_r, np.eye(2))),
        ("polarization_L", np.kron(on_l, sigma)),
        ("polarization_R", np.kron(on_r, sigma)),
    ):
        qcc[f"weak_value_{name}"] = complex(np.vdot(post, matrix.astype(complex) @ pre) / overlap)
    out["qcc", None] = qcc
    return out


def test_witnesses_equal_numpys_to_the_last_bit():
    # repr tells 0.4999999999999999 from 0.5 and -0.0 from 0.0.
    build = {
        "wigner": lambda outcome: scenario_wigner(friend_outcome=outcome),
        "epr": scenario_epr,
        "qcc": lambda _: scenario_qcc(),
    }
    for (name, variant), want in _numpy_witnesses().items():
        got = build[name](variant).numeric_witness
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


# -- threshold ---------------------------------------------------------------------


def test_threshold_three_bands_is_p7():
    report = scenario_threshold()
    assert report.expected_class.tag is PredicationTag.P7
    assert classified_tag(report) is PredicationTag.P7


def test_threshold_needs_a_level():
    with pytest.raises(ValueError, match="at least one"):
        scenario_threshold(())


def test_threshold_band_assignment():
    report = scenario_threshold((0.1, 0.3, 0.5, 0.7, 0.9), 0.3, 0.7)
    values = {j.context: j.value for j in report.judgments}
    assert values["intensity_0.1"] is F
    assert values["intensity_0.3"] is U  # cuts are inclusive
    assert values["intensity_0.5"] is U
    assert values["intensity_0.7"] is U
    assert values["intensity_0.9"] is T


def test_threshold_restricted_bands():
    bright = scenario_threshold((0.8, 0.9), 0.3, 0.7)
    assert bright.expected_class.tag is PredicationTag.P1
    straddle_lower = scenario_threshold((0.1, 0.5), 0.3, 0.7)
    assert straddle_lower.expected_class.tag is PredicationTag.P6
    assert classified_tag(straddle_lower) is PredicationTag.P6


@pytest.mark.parametrize("levels", [(0.5, math.nan), (math.nan,), (0.5, 1e400), (-math.inf, 0.9)])
def test_threshold_rejects_non_finite_levels(levels):
    with pytest.raises(ValueError, match="finite"):
        scenario_threshold(levels)


@pytest.mark.parametrize("cuts", [(math.nan, 0.7), (0.3, math.nan), (-math.inf, 0.7), (0.3, math.inf)])
def test_threshold_rejects_non_finite_cuts(cuts):
    with pytest.raises(BadCuts, match="finite"):
        scenario_threshold((0.5,), *cuts)


def test_threshold_bad_cuts():
    with pytest.raises(BadCuts):
        scenario_threshold((0.5,), 0.7, 0.3)
    with pytest.raises(BadCuts):
        scenario_threshold((0.5,), 0.5, 0.5)
    with pytest.raises(ValueError):
        scenario_threshold((0.5, 0.5), 0.3, 0.7)


def test_threshold_rejects_levels_that_print_alike():
    with pytest.raises(ValueError, match="0.3 and 0.2999999 both name context 'intensity_0.3'"):
        scenario_threshold((0.3, 0.2999999))
    with pytest.raises(ValueError, match="must be distinct"):
        scenario_threshold((0.3, 0.3))
    report = scenario_threshold((0.3, 0.29999))
    assert [j.context for j in report.judgments] == ["intensity_0.3", "intensity_0.29999"]


# -- corpus -------------------------------------------------------------------------


def test_corpus_order_and_matches():
    results = run_corpus(0)
    assert tuple(r.name for r in results) == CORPUS_ORDER
    for r in results:
        assert isinstance(r, CorpusResult)
        assert r.match, (r.name, r.classified, r.report.expected_class)


def test_expected_classes_are_not_read_off_classify(monkeypatch):
    # The corpus checks classify against each scenario's expected class, so
    # building a report must not consult classify.
    def refuse(*args):
        raise AssertionError("classify called while building a report")

    monkeypatch.setattr(scenarios, "classify", refuse)
    monkeypatch.setattr("sapta.predication.classify", refuse)
    assert [build(0).expected_class.tag.value for _, build in scenarios._CORPUS] == [
        "P7", "P3", "P5", "P6", "P5", "P5", "P7", "P7",
    ]


def test_corpus_pinned_classes():
    by_name = {r.name: r for r in run_corpus(0)}
    expected = {
        "double_slit": PredicationTag.P7,
        "cat_closed": PredicationTag.P3,
        "cat_open_alive": PredicationTag.P5,
        "cat_open_dead": PredicationTag.P6,
        "wigner": PredicationTag.P5,
        "qcc": PredicationTag.P7,
        "threshold": PredicationTag.P7,
    }
    for name, tag in expected.items():
        assert by_name[name].classified.tag is tag


def test_corpus_deterministic():
    first = [r.report.to_json() for r in run_corpus(42)]
    second = [r.report.to_json() for r in run_corpus(42)]
    assert first == second


def test_corpus_respects_seed_for_branch_pinning():
    # Whatever the base seed, the alive/dead entries stay on their branch.
    for seed in (0, 1, 5, 123):
        by_name = {r.name: r for r in run_corpus(seed)}
        assert by_name["cat_open_alive"].classified.tag is PredicationTag.P5
        assert by_name["cat_open_dead"].classified.tag is PredicationTag.P6


def test_every_report_judgments_reference_declared_contexts():
    for r in run_corpus(0):
        for j in r.report.judgments:
            assert r.report.model.is_context(j.context)


def test_report_json_shape():
    data = scenario_qcc().to_json()
    assert set(data) == {"scenarioName", "model", "judgments", "expectedClass", "numericWitness"}
    assert data["scenarioName"] == "qcc"
    assert data["expectedClass"]["class"] == "P7"
    overlap = data["numericWitness"]["overlap_post_pre"]
    assert set(overlap) == {"re", "im"}
    assert overlap["im"] == pytest.approx(0.5, abs=ATOL)


def _scenario_variants():
    yield from (("corpus " + r.name, r.report) for r in run_corpus(0))
    flags = [(a, b, c) for a in (True, False) for b in (True, False) for c in (True, False)]
    yield from ((f"double_slit {f}", scenario_double_slit(*f)) for f in flags if any(f))
    yield "cat closed", scenario_cat(False)
    for alive in (True, False):
        yield f"cat open alive={alive}", scenario_cat(True, find_cat_seed(0, want_alive=alive))
    for perspective in ("friend", "wigner", "combined"):
        for outcome in ("up", "down"):
            yield f"wigner {perspective} {outcome}", scenario_wigner(perspective, outcome)
    for basis in ("zero_one", "plus_minus"):
        yield f"epr {basis}", scenario_epr(basis)
    for levels in [(0.9,), (0.1,), (0.5,), (0.1, 0.9), (0.5, 0.8, 0.9), (0.1, 0.2, 0.5), (0.9, 0.1, 0.4, 0.6)]:
        yield f"threshold {levels}", scenario_threshold(levels)


def test_scenario_models_satisfy_their_expected_schema():
    for label, report in _scenario_variants():
        predicate = report.judgments[0].predicate
        formula = schema_formula_for(report.expected_class, predicate)
        assert evaluate(formula, report.model) is Tv3.TRUE, label
