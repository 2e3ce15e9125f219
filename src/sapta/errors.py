"""Exception types shared across the package.

Everything raised on a user-facing path derives from SaptaError so the CLI
can map failures to diagnostics uniformly.
"""
from __future__ import annotations


class SaptaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SaptaError):
    """Malformed formula text.

    Carries the source span of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message, span=None, expected=frozenset(), found=None):
        super().__init__(message)
        self.span = span
        self.expected = frozenset(expected)
        self.found = found


class UnboundVariable(SaptaError):
    """A variable occurs free where a closed formula is required."""

    def __init__(self, var, span=None):
        super().__init__(f"unbound variable {var!r}")
        self.var = var
        self.span = span


class ArityMismatch(SaptaError):
    """Wrong number of context names for the requested predication schema."""


class DuplicateContext(SaptaError):
    """The same context name was supplied more than once."""


class UndeclaredName(SaptaError):
    """A context, predicate, or entity is not declared by the model.

    Carries the source span of the atom naming it, when a formula did.
    """

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class ModelError(SaptaError):
    """A model definition violates its structural invariants."""


class DimensionMismatch(SaptaError):
    """State vectors or operators of incompatible dimension were combined."""


class BasisMismatch(SaptaError):
    """State vectors over different basis labellings were combined."""


class OrthogonalSelection(SaptaError):
    """Pre- and post-selected states are orthogonal; no weak value exists."""


class BadCuts(SaptaError):
    """Threshold scenario cuts are not ordered lowerCut < upperCut."""
