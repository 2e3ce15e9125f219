"""Small complex state vectors, operators, and weak values.

Just enough Hilbert-space machinery for the scenario generators: labelled
amplitude vectors (normalized on construction), tensor products, the
sesquilinear inner product (conjugate-linear in its first argument), and
the weak value <post|A|pre> / <post|pre> of an observable on a pre- and
post-selected pair of states.
"""
from __future__ import annotations

import importlib.util
import sys

from .errors import BasisMismatch, DimensionMismatch, OrthogonalSelection


def _lazy_import(name: str):
    """Module `name`, executed on its first attribute access (PEP 451).

    numpy is most of the package's import time and only the scenario
    generators use it, so commands that never touch a state vector never
    load it.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")

__all__ = [
    "TOL",
    "StateVector",
    "Operator",
    "inner_product",
    "tensor_product",
    "weak_value",
    "fringe_visibility",
    "complex_to_json",
]

TOL = 1e-12


def _check_finite(values, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite numbers")


class StateVector:
    """A finite complex amplitude vector over distinct basis labels.

    Amplitudes are normalized on construction (a zero vector and non-finite
    amplitudes are rejected), stored as an immutable complex128 array.
    """

    def __init__(self, amplitudes, labels):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        _check_finite(amps, "amplitudes")
        labels = tuple(labels)
        if len(labels) != amps.size:
            raise ValueError(f"{amps.size} amplitudes but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be pairwise distinct")
        norm = float(np.linalg.norm(amps))
        if norm <= TOL:
            raise ValueError("cannot normalize a zero vector")
        if abs(norm - 1.0) > TOL:
            amps = amps / norm
        amps.flags.writeable = False
        self.amplitudes = amps
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def amplitude(self, label: str) -> complex:
        try:
            return complex(self.amplitudes[self.labels.index(label)])
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        parts = ", ".join(f"{l}: {a:.4g}" for l, a in zip(self.labels, self.amplitudes))
        return f"StateVector({parts})"


class Operator:
    """A square, finite complex matrix acting on a state of matching dimension."""

    def __init__(self, matrix, label: str = ""):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        _check_finite(mat, "operator entries")
        mat = mat.copy()
        mat.flags.writeable = False
        self.matrix = mat
        self.label = label

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_projector(self) -> bool:
        return bool(np.allclose(self.matrix @ self.matrix, self.matrix, atol=TOL))

    @classmethod
    def identity(cls, dim: int, label: str = "I") -> "Operator":
        return cls(np.eye(dim), label)

    @classmethod
    def label_projector(cls, labels, keep, label: str = "") -> "Operator":
        """Diagonal projector onto the basis states whose label is in `keep`."""
        keep = set(keep)
        diag = [1.0 if l in keep else 0.0 for l in labels]
        return cls(np.diag(diag), label or f"proj[{','.join(sorted(keep))}]")

    def __repr__(self) -> str:
        return f"Operator({self.label or self.matrix.shape})"


def _check_pair(a: StateVector, b: StateVector) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    if a.labels != b.labels:
        raise BasisMismatch(f"basis labels differ: {a.labels} vs {b.labels}")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_pair(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; labels combine as "aLabel⊗bLabel"."""
    amps = np.kron(a.amplitudes, b.amplitudes)
    labels = tuple(f"{x}⊗{y}" for x in a.labels for y in b.labels)
    return StateVector(amps, labels)


def weak_value(op: Operator, pre: StateVector, post: StateVector) -> complex:
    """Weak value <post|A|pre> / <post|pre> of observable A.

    Raises OrthogonalSelection when the post-selection overlap vanishes
    (|<post|pre>| <= 1e-12): the conditional expectation does not exist.
    """
    _check_pair(pre, post)
    if op.dim != pre.dim:
        raise DimensionMismatch(f"operator dimension {op.dim} vs state dimension {pre.dim}")
    overlap = np.vdot(post.amplitudes, pre.amplitudes)
    if abs(overlap) <= TOL:
        raise OrthogonalSelection(
            f"pre- and post-selected states are orthogonal (|overlap| = {abs(overlap):.3e})"
        )
    return complex(np.vdot(post.amplitudes, op.matrix @ pre.amplitudes) / overlap)


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
    m1, m2 = np.abs(path_state.amplitudes)
    return float(2.0 * m1 * m2 / (m1**2 + m2**2))


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}
