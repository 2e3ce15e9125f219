"""Small complex state vectors, operators, and weak values.

Just enough Hilbert-space machinery for the scenario generators: labelled
amplitude vectors (normalized on construction), tensor products, the
sesquilinear inner product (conjugate-linear in its first argument), and
the weak value <post|A|pre> / <post|pre> of an observable on a pre- and
post-selected pair of states.

The states have two or four dimensions, so the arithmetic is plain Python
on tuples of ``complex`` and needs no numpy.  It takes numpy's operation
order: a norm is ``sqrt(Σ re² + Σ im²)``, an inner product ``Σ conj(a)·b``
in index order, and a quotient is Smith's method scaled by one reciprocal,
as numpy divides.  The sums are plain loops, since ``sum()`` compensates
rounding on newer Pythons and numpy does not.  On the scenarios' states
every witness equals numpy's to the last bit, and a test pins that; on
arbitrary vectors the two can differ in the last bit, since numpy's BLAS
kernels fuse multiply-adds.
"""
from __future__ import annotations

import math

from .errors import BasisMismatch, DimensionMismatch, OrthogonalSelection

__all__ = [
    "TOL",
    "StateVector",
    "Operator",
    "inner_product",
    "tensor_product",
    "weak_value",
    "fringe_visibility",
    "complex_to_json",
    "divide",
    "kron",
    "norm",
    "vdot",
]

TOL = 1e-12


def _complex_entries(values, what: str) -> tuple[complex, ...]:
    try:
        entries = tuple(map(complex, values))
    except TypeError:
        raise ValueError(f"{what} must be numbers") from None
    for z in entries:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{what} must be finite numbers")
    return entries


def norm(amplitudes) -> float:
    """Euclidean norm, summing the squared real parts, then the imaginary."""
    re = im = 0.0
    for z in amplitudes:
        re += z.real * z.real
    for z in amplitudes:
        im += z.imag * z.imag
    return math.sqrt(re + im)


def divide(a: complex, b: complex | float) -> complex:
    """``a / b`` as numpy computes it: Smith's method, scaled by a reciprocal."""
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        scale = 1.0 / (b.real + b.imag * ratio)
        return complex((a.real + a.imag * ratio) * scale, (a.imag - a.real * ratio) * scale)
    ratio = b.real / b.imag
    scale = 1.0 / (b.imag + b.real * ratio)
    return complex((a.real * ratio + a.imag) * scale, (a.imag * ratio - a.real) * scale)


def vdot(a, b) -> complex:
    """``Σ conj(a_i)·b_i`` in index order."""
    total = 0j
    for x, y in zip(a, b):
        total += x.conjugate() * y
    return total


def kron(a, b) -> tuple[complex, ...]:
    """Kronecker product of two vectors: ``a_i·b_j`` with ``i`` outer."""
    return tuple(x * y for x in a for y in b)


class StateVector:
    """A finite complex amplitude vector over distinct basis labels.

    Amplitudes are normalized on construction (a zero vector and non-finite
    amplitudes are rejected) and stored as a tuple of ``complex``.
    """

    def __init__(self, amplitudes, labels):
        amps = _complex_entries(amplitudes, "amplitudes")
        labels = tuple(labels)
        if len(labels) != len(amps):
            raise ValueError(f"{len(amps)} amplitudes but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        length = norm(amps)
        if length <= TOL:
            raise ValueError("cannot normalize a zero vector")
        if abs(length - 1.0) > TOL:
            amps = tuple(divide(z, length) for z in amps)
        self.amplitudes = amps
        self.labels = labels

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return norm(self.amplitudes)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(m * m for m in map(abs, self.amplitudes))

    def amplitude(self, label: str) -> complex:
        try:
            return self.amplitudes[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        parts = ", ".join(f"{l}: {a:.4g}" for l, a in zip(self.labels, self.amplitudes))
        return f"StateVector({parts})"


class Operator:
    """A square, finite complex matrix acting on a state of matching dimension.

    ``matrix`` is a tuple of rows, each a tuple of ``complex``.
    """

    def __init__(self, matrix, label: str = ""):
        try:
            rows = tuple(tuple(row) for row in matrix)
        except TypeError:
            raise ValueError("operator matrix must be a sequence of rows") from None
        if any(len(row) != len(rows) for row in rows):
            lengths = sorted({len(row) for row in rows})
            raise ValueError(f"operator matrix must be square, got {len(rows)} rows of length {lengths}")
        self.matrix = tuple(_complex_entries(row, "operator entries") for row in rows)
        self.label = label

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"Operator({self.label or (self.dim, self.dim)})"


def _check_pair(a: StateVector, b: StateVector) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    if a.labels != b.labels:
        raise BasisMismatch(f"basis labels differ: {a.labels} vs {b.labels}")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_pair(a, b)
    return vdot(a.amplitudes, b.amplitudes)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; labels combine as "aLabel⊗bLabel"."""
    labels = tuple(f"{x}⊗{y}" for x in a.labels for y in b.labels)
    return StateVector(kron(a.amplitudes, b.amplitudes), labels)


def weak_value(op: Operator, pre: StateVector, post: StateVector) -> complex:
    """Weak value <post|A|pre> / <post|pre> of observable A.

    Raises OrthogonalSelection when the post-selection overlap vanishes
    (|<post|pre>| <= 1e-12): the conditional expectation does not exist.
    """
    _check_pair(pre, post)
    if op.dim != pre.dim:
        raise DimensionMismatch(f"operator dimension {op.dim} vs state dimension {pre.dim}")
    overlap = vdot(post.amplitudes, pre.amplitudes)
    if abs(overlap) <= TOL:
        raise OrthogonalSelection(
            f"pre- and post-selected states are orthogonal (|overlap| = {abs(overlap):.3e})"
        )
    applied = []
    for row in op.matrix:
        total = 0j
        for x, y in zip(row, pre.amplitudes):
            total += x * y
        applied.append(total)
    return divide(vdot(post.amplitudes, applied), overlap)


def fringe_visibility(path_state: StateVector, which_path_known: bool) -> float:
    """Interference visibility of a two-path state.

    With path coherence the screen intensity is |a1 + a2 e^{i θ}|² as the
    relative phase θ sweeps, giving visibility 2|a1||a2| / (|a1|² + |a2|²);
    recording which-path information destroys the cross term, so the
    intensities add and the visibility is 0.
    """
    if path_state.dim != 2:
        raise ValueError(f"visibility is defined for two-path states, got dim {path_state.dim}")
    if which_path_known:
        return 0.0
    m1, m2 = map(abs, path_state.amplitudes)
    return 2.0 * m1 * m2 / (m1**2 + m2**2)


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}
