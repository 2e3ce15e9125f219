"""State vectors, inner products, tensor products, weak values."""
import math
import warnings

import numpy as np
import pytest

from sapta.errors import BasisMismatch, DimensionMismatch, OrthogonalSelection
from sapta.quantum import (
    Operator,
    StateVector,
    complex_to_json,
    divide,
    fringe_visibility,
    inner_product,
    tensor_product,
    weak_value,
)

SQRT2 = math.sqrt(2.0)
ATOL = 1e-12


def qcc_states():
    # Pre-selection (i|L> + |R>)|H>/sqrt(2); post-selection (|L>|H> + |R>|V>)/sqrt(2).
    labels = ("L⊗H", "L⊗V", "R⊗H", "R⊗V")
    pre = StateVector([1j / SQRT2, 0, 1 / SQRT2, 0], labels)
    post = StateVector([1 / SQRT2, 0, 0, 1 / SQRT2], labels)
    return pre, post


def random_state(rng, labels):
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    return StateVector(amps, labels)


# -- StateVector ---------------------------------------------------------------


def test_normalizes_on_construction():
    sv = StateVector([2, 0], ("a", "b"))
    assert abs(sv.norm() - 1.0) <= ATOL
    assert sv.amplitude("a") == pytest.approx(1.0)


def test_rejects_zero_vector_and_bad_labels():
    with pytest.raises(ValueError):
        StateVector([0, 0], ("a", "b"))
    with pytest.raises(ValueError):
        StateVector([1, 0], ("a", "a"))
    with pytest.raises(ValueError):
        StateVector([1, 0, 0], ("a", "b"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0, float("nan"))])
def test_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(ValueError, match="must be finite"):
            StateVector([bad, 1], ("a", "b"))
        with pytest.raises(ValueError, match="must be finite"):
            Operator([[bad, 0], [0, 1]])


def test_amplitudes_immutable():
    sv = StateVector([1, 0], ("a", "b"))
    with pytest.raises(TypeError):
        sv.amplitudes[0] = 0.5
    op = Operator(np.eye(2))
    with pytest.raises(TypeError):
        op.matrix[0][0] = 2


def test_operator_needs_square_rows():
    for bad in ([1, 0], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="operator matrix"):
            Operator(bad)
    assert Operator([[1, 2j], [3, 4]]).matrix == ((1, 2j), (3, 4))
    assert repr(Operator(np.eye(3))) == "Operator((3, 3))"


def test_divide_is_numpys_quotient():
    # numpy divides by Smith's method scaled by one reciprocal, so a quotient
    # is not Python's; `divide` takes numpy's steps and agrees to the last bit.
    rng = np.random.default_rng(41)
    for ar, ai, br, bi in rng.normal(size=(2000, 4)):
        a = complex(ar, ai)
        for b in (complex(br, bi), complex(br, 0.0), complex(0.0, bi)):
            assert repr(divide(a, b)) == repr(complex(np.complex128(a) / np.complex128(b)))
        assert repr(divide(a, br)) == repr(complex((np.array([a]) / br)[0]))


def test_random_states_normalized():
    rng = np.random.default_rng(3)
    for _ in range(25):
        sv = random_state(rng, ("a", "b", "c"))
        assert abs(sv.norm() - 1.0) <= ATOL


# -- inner product ---------------------------------------------------------------


def test_self_inner_product_is_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sv = random_state(rng, ("a", "b", "c", "d"))
        assert inner_product(sv, sv) == pytest.approx(1.0, abs=ATOL)


def test_orthogonal_basis_states():
    a = StateVector([1, 0], ("a", "b"))
    b = StateVector([0, 1], ("a", "b"))
    assert inner_product(a, b) == 0


def test_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(11)
    x = random_state(rng, ("a", "b", "c"))
    y = random_state(rng, ("a", "b", "c"))
    assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)), abs=ATOL)


def test_qcc_overlap_is_half_i():
    # Hand expansion: <post|pre> = conj(1/sqrt2) * i/sqrt2 = i/2.
    pre, post = qcc_states()
    assert inner_product(post, pre) == pytest.approx(0.5j, abs=ATOL)


def test_inner_product_mismatches():
    a = StateVector([1, 0], ("a", "b"))
    with pytest.raises(DimensionMismatch):
        inner_product(a, StateVector([1, 0, 0], ("a", "b", "c")))
    with pytest.raises(BasisMismatch):
        inner_product(a, StateVector([1, 0], ("a", "c")))


# -- tensor product ----------------------------------------------------------------


def test_tensor_basis_states():
    a = StateVector([1, 0], ("0", "1"))
    b = StateVector([0, 1], ("H", "V"))
    t = tensor_product(a, b)
    assert t.labels == ("0⊗H", "0⊗V", "1⊗H", "1⊗V")
    assert list(t.amplitudes) == [0, 1, 0, 0]


def test_tensor_label_layout():
    path = StateVector([1j / SQRT2, 1 / SQRT2], ("L", "R"))
    pol = StateVector([1, 0], ("H", "V"))
    t = tensor_product(path, pol)
    assert t.amplitude("L⊗H") == pytest.approx(1j / SQRT2, abs=ATOL)
    assert t.amplitude("R⊗H") == pytest.approx(1 / SQRT2, abs=ATOL)
    assert t.amplitude("L⊗V") == 0


def test_tensor_preserves_normalization():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_state(rng, ("a", "b"))
        b = random_state(rng, ("u", "v", "w"))
        assert abs(tensor_product(a, b).norm() - 1.0) <= ATOL


# -- weak values ----------------------------------------------------------------------


def test_weak_value_of_identity_is_one():
    rng = np.random.default_rng(23)
    labels = ("a", "b", "c")
    eye = Operator(np.eye(3))
    for _ in range(20):
        pre = random_state(rng, labels)
        post = random_state(rng, labels)
        if abs(inner_product(post, pre)) <= 1e-6:
            continue
        assert weak_value(eye, pre, post) == pytest.approx(1.0, abs=ATOL)


def test_qcc_weak_values_against_matrix_oracle():
    pre, post = qcc_states()
    proj_l = Operator(np.kron(np.diag([1.0, 0.0]), np.eye(2)))
    proj_r = Operator(np.kron(np.diag([0.0, 1.0]), np.eye(2)))
    # Independent oracle: raw numpy matrix algebra on the same amplitudes.
    pre_raw = np.array([1j, 0, 1, 0]) / SQRT2
    post_raw = np.array([1, 0, 0, 1]) / SQRT2
    for op, raw_mat in ((proj_l, np.diag([1, 1, 0, 0])), (proj_r, np.diag([0, 0, 1, 1]))):
        oracle = np.vdot(post_raw, raw_mat @ pre_raw) / np.vdot(post_raw, pre_raw)
        assert weak_value(op, pre, post) == pytest.approx(oracle, abs=ATOL)
    assert weak_value(proj_l, pre, post) == pytest.approx(1 + 0j, abs=ATOL)
    assert weak_value(proj_r, pre, post) == pytest.approx(0 + 0j, abs=ATOL)


def test_weak_value_linearity():
    rng = np.random.default_rng(31)
    labels = ("a", "b", "c")
    pre = random_state(rng, labels)
    post = random_state(rng, labels)
    for _ in range(25):
        m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        combined = weak_value(Operator(alpha * m1 + beta * m2), pre, post)
        separate = alpha * weak_value(Operator(m1), pre, post) + beta * weak_value(
            Operator(m2), pre, post
        )
        assert combined == pytest.approx(separate, abs=1e-9)


def test_complete_projector_weak_values_sum_to_one():
    pre, post = qcc_states()
    proj_l = Operator(np.kron(np.diag([1.0, 0.0]), np.eye(2)))
    proj_r = Operator(np.kron(np.diag([0.0, 1.0]), np.eye(2)))
    total = weak_value(proj_l, pre, post) + weak_value(proj_r, pre, post)
    assert total == pytest.approx(1 + 0j, abs=ATOL)


def test_orthogonal_selection_rejected():
    a = StateVector([1, 0], ("a", "b"))
    b = StateVector([0, 1], ("a", "b"))
    with pytest.raises(OrthogonalSelection):
        weak_value(Operator(np.eye(2)), a, b)


def test_weak_value_dimension_mismatch():
    a = StateVector([1, 0], ("a", "b"))
    with pytest.raises(DimensionMismatch):
        weak_value(Operator(np.eye(3)), a, a)
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))


# -- entangled-pair basis change -------------------------------------------------------


def test_rotated_basis_amplitudes_agree():
    # (A0 B0 + A1 B1)/sqrt(2) expanded over A± = (A0 ± A1)/sqrt(2) and B±
    # likewise gives back the same four amplitudes exactly.
    direct = np.array([1 / SQRT2, 0, 0, 1 / SQRT2], dtype=complex)
    plus = np.array([1, 1]) / SQRT2
    minus = np.array([1, -1]) / SQRT2
    rotated = (np.kron(plus, plus) + np.kron(minus, minus)) / SQRT2
    assert np.max(np.abs(direct - rotated)) <= ATOL


# -- visibility -----------------------------------------------------------------------


def grid_visibility(amps, samples=4096):
    """Brute-force oracle: sweep the relative phase, read the fringe contrast."""
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    intensity = np.abs(amps[0] + amps[1] * np.exp(1j * thetas)) ** 2
    return (intensity.max() - intensity.min()) / (intensity.max() + intensity.min())


def test_visibility_equal_paths():
    paths = StateVector([1 / SQRT2, 1 / SQRT2], ("s1", "s2"))
    assert fringe_visibility(paths, which_path_known=False) == pytest.approx(
        grid_visibility(paths.amplitudes), abs=ATOL
    )
    assert fringe_visibility(paths, which_path_known=False) == pytest.approx(1.0, abs=ATOL)
    assert fringe_visibility(paths, which_path_known=True) == 0.0


def test_visibility_unbalanced_paths():
    paths = StateVector([math.sqrt(0.8), math.sqrt(0.2)], ("s1", "s2"))
    assert fringe_visibility(paths, which_path_known=False) == pytest.approx(
        grid_visibility(paths.amplitudes), abs=ATOL
    )
    assert fringe_visibility(paths, which_path_known=False) == pytest.approx(0.8, abs=ATOL)


def test_visibility_requires_two_paths():
    with pytest.raises(ValueError):
        fringe_visibility(StateVector([1, 0, 0], ("a", "b", "c")), which_path_known=False)


def test_complex_to_json():
    assert complex_to_json(0.5j) == {"re": 0.0, "im": 0.5}
