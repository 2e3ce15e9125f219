"""Finite models: the structures formulas are evaluated against.

A model is a finite entity domain, a set of named contexts (each with a
bivalent extension), a set of predicate names, a total three-valued
valuation indexed by (context, entity, predicate), and a symmetric
incompatibility relation over context pairs.  Models are immutable after
construction, so one model may be evaluated against concurrently; the
evaluator is in ``sapta.evaluation``.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .errors import ModelError, UndeclaredName
from .formulas import Formula, Record
# Truth values are coded by their rank on the chain F < U < T.
from .trivalent import _CHAIN, _RANK, Tv3

__all__ = [
    "ContextDef",
    "Model",
]


class ContextDef(Record):
    """A named context and the set of entities satisfying its condition.

    Guards are bivalent: an entity is in the extension or it is not.
    """

    __slots__ = _fields = ("name", "extension")

    def __init__(self, name: str, extension: Iterable[str] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "extension", frozenset(extension))


# The code of a valuation cell no row has listed yet; such cells become U.
_UNLISTED = len(_CHAIN)
_U_BYTE = bytes([_RANK[Tv3.UNDET]])
_CODE_OF_TEXT = {v.value: rank for v, rank in _RANK.items()}


def _index_of(index: dict, name) -> int | None:
    """Position of a declared name; None for an undeclared or unhashable one."""
    try:
        return index.get(name)
    except TypeError:
        return None


def _declared(index: dict, name, kind: str, at: Formula | None = None) -> int:
    """Position of a declared `kind` name; raises UndeclaredName, located at
    the atom `at` if one is given, for an undeclared or unhashable one."""
    i = _index_of(index, name)
    if i is None:
        raise UndeclaredName(f"undeclared {kind} {name!r}", None if at is None else at.span)
    return i


class Model:
    """Immutable finite structure formulas are evaluated against.

    Names are resolved to indices once, on construction.  The valuation is
    kept per (context, predicate) column: a dict from ``ci * P + pi`` to the
    N rank codes of that column, indexed by entity.  Only columns some row
    lists are stored; every other column reads one shared all-U column, so
    memory grows with the listed rows, not with the N·K·P cells declared.
    Extensions are sets of entity indices, and the incompatibility relation
    is a set of packed context-index pairs ``min * K + max``.
    """

    def __init__(
        self,
        domain: Sequence[str],
        contexts: Iterable[ContextDef],
        predicates: Iterable[str],
        valuation: Mapping[tuple[str, str, str], Tv3] | None = None,
        incompatible: Iterable[tuple[str, str]] = (),
        background: str | None = None,
    ):
        rows = []
        for (c, e, p), v in (valuation or {}).items():
            if not isinstance(v, Tv3):
                raise ModelError(f"valuation of {(c, e, p)!r} is not a truth value: {v!r}")
            rows.append({"context": c, "entity": e, "predicate": p, "value": v.value})
        self._build(domain, contexts, predicates, rows, incompatible, background)

    def _build(self, domain, contexts, predicates, rows, incompatible, background) -> None:
        """Index and check every part; ``rows`` are valuation rows in JSON
        form, of which the last one listing a cell wins."""
        self.domain: tuple[str, ...] = tuple(domain)
        self._entity_index = {e: i for i, e in enumerate(self.domain)}
        if len(self._entity_index) != len(self.domain):
            raise ModelError("duplicate entity names in domain")
        ctx_list = list(contexts)
        self._context_index = {c.name: i for i, c in enumerate(ctx_list)}
        if len(self._context_index) != len(ctx_list):
            raise ModelError("duplicate context names")
        self.contexts: dict[str, ContextDef] = {c.name: c for c in ctx_list}
        for c in ctx_list:
            stray = c.extension.difference(self._entity_index)
            if stray:
                raise ModelError(
                    f"context {c.name!r} extension mentions undeclared entities {sorted(stray)}"
                )
        self._extensions = [{self._entity_index[e] for e in c.extension} for c in ctx_list]
        self.predicates: tuple[str, ...] = tuple(predicates)
        self._predicate_index = {p: i for i, p in enumerate(self.predicates)}
        if len(self._predicate_index) != len(self.predicates):
            raise ModelError("duplicate predicate names")
        overlap = self._predicate_index.keys() & self.contexts.keys()
        if overlap:
            raise ModelError(f"names used as both context and predicate: {sorted(overlap)}")

        # Unguarded predicate lookups resolve against the background context,
        # which any model with contexts must name.
        if self.contexts:
            if background is None:
                raise ModelError("a model with contexts must declare a background context")
            if background not in self.contexts:
                raise ModelError(f"background context {background!r} is not declared")
        elif background is not None:
            raise ModelError("background given but no contexts declared")
        self.background = background

        # One pass per pair: a pair whose names both resolve is well formed
        # unless it is some other two-item iterable (a string, a dict).
        k = len(ctx_list)
        contexts_at = self._context_index
        self._incompatible: set[int] = set()
        add = self._incompatible.add
        for pair in incompatible:
            try:
                a, b = pair
                i, j = contexts_at[a], contexts_at[b]
            except (KeyError, TypeError, ValueError):
                raise _pair_fault(pair) from None
            if pair.__class__ is not list and pair.__class__ is not tuple:
                raise _pair_fault(pair)
            if i < j:
                add(i * k + j)
            elif j < i:
                add(j * k + i)
            else:
                raise ModelError(f"context {a!r} cannot be incompatible with itself")

        # Each row is coded straight into its column; which check a row fails
        # is worked out only once one has.
        n, p = len(self.domain), len(self.predicates)
        blank = bytearray([_UNLISTED]) * n
        columns = defaultdict(blank.copy)
        entities_at, predicates_at, codes = self._entity_index, self._predicate_index, _CODE_OF_TEXT
        try:
            for row in rows:
                columns[contexts_at[row["context"]] * p + predicates_at[row["predicate"]]][
                    entities_at[row["entity"]]
                ] = codes[row["value"]]
        except (KeyError, TypeError):
            self._raise_row_fault(rows)
            raise
        # Unlisted cells read U.  Each column is translated in place of its
        # original, so no more than one column is ever held twice.  How many
        # declared cells no row listed is output metadata.
        listed = 0
        for key in columns:
            column = columns[key]
            listed += n - column.count(_UNLISTED)
            columns[key] = column.replace(bytes([_UNLISTED]), _U_BYTE)
        self.defaulted_valuations = k * p * n - listed
        self._columns = dict(columns)
        self._undetermined = _U_BYTE * n

    def _column(self, ci: int, pi: int) -> bytes:
        """The rank codes of the (context, predicate) column, by entity."""
        return self._columns.get(ci * len(self.predicates) + pi, self._undetermined)

    # -- lookups ------------------------------------------------------------

    def is_context(self, name: str) -> bool:
        return name in self.contexts

    def extension(self, context: str) -> frozenset[str]:
        _declared(self._context_index, context, "context")
        return self.contexts[context].extension

    def value(self, context: str, entity: str, predicate: str) -> Tv3:
        ci = _declared(self._context_index, context, "context")
        ei = _declared(self._entity_index, entity, "entity")
        pi = _declared(self._predicate_index, predicate, "predicate")
        return _CHAIN[self._column(ci, pi)[ei]]

    def incompatible(self, c1: str, c2: str) -> bool:
        """Whether the unordered context pair is marked mutually incompatible.

        Every context is compatible with itself.
        """
        i, j = sorted(_declared(self._context_index, c, "context") for c in (c1, c2))
        return i != j and i * len(self.contexts) + j in self._incompatible

    # -- serialization --------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "Model":
        """Build a model from its JSON object form.

        Unlisted valuation entries default to "U"; the number of defaulted
        cells is available as ``defaulted_valuations`` for output metadata.
        When a cell is listed more than once, the last row wins.  Every name
        list must be a JSON array of strings, and every incompatible entry an
        array of two context names.
        """
        _object(data, "a model", "domain", "contexts", "predicates")
        domain = _names(data["domain"], "'domain'")
        ctx_objs = []
        for c in _array(data["contexts"], "'contexts'"):
            name = _name(_object(c, "every entry of 'contexts'", "name")["name"], "a context name")
            extension = _names(c.get("extension", []), f"the extension of {name!r}")
            ctx_objs.append(ContextDef(name, extension))
        predicates = _names(data["predicates"], "'predicates'")
        rows = _array(data.get("valuation", []), "'valuation'")
        incompatible = _array(data.get("incompatible", []), "'incompatible'")
        background = data.get("background")
        if background is not None:
            _name(background, "'background'")
        model = cls.__new__(cls)
        model._build(domain, ctx_objs, predicates, rows, incompatible, background)
        return model

    def _raise_row_fault(self, rows: list) -> None:
        """Raise the ModelError for the first valuation row that is malformed
        or names an undeclared context, entity or predicate."""
        for row in rows:
            try:
                key = (row["context"], row["entity"], row["predicate"])
                Tv3.from_str(row["value"])
                hash(key)
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"malformed valuation row {row!r}: {exc}") from None
            for name, kind, index in zip(
                key,
                ("context", "entity", "predicate"),
                (self._context_index, self._entity_index, self._predicate_index),
            ):
                if name not in index:
                    raise ModelError(f"valuation names undeclared {kind} {name!r}")

    def to_json(self) -> dict:
        """Emit the JSON object form with a fully explicit valuation."""
        entities = sorted(self._entity_index.items())
        predicates = sorted(self._predicate_index.items())
        valuation = []
        for c, ci in sorted(self._context_index.items()):
            for e, ei in entities:
                for p, pi in predicates:
                    code = self._column(ci, pi)[ei]
                    valuation.append(
                        {"context": c, "entity": e, "predicate": p, "value": _CHAIN[code].value}
                    )
        names, k = list(self.contexts), len(self.contexts)
        return {
            "domain": list(self.domain),
            "background": self.background,
            "contexts": [
                {"name": c.name, "extension": sorted(c.extension)}
                for c in self.contexts.values()
            ],
            "predicates": list(self.predicates),
            "valuation": valuation,
            "incompatible": sorted(
                sorted((names[key // k], names[key % k])) for key in self._incompatible
            ),
        }


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{what} must be an array, got {type(value).__name__}")
    return value


def _object(value, what: str, *keys: str) -> dict:
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ModelError(f"{what} must have a {key!r} key")
    return value


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ModelError(f"{what} must be a string, got {value!r}")
    return value


def _pair_fault(pair) -> ModelError:
    """The error for an incompatible entry that could not be stored."""
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and isinstance(pair[0], str) and isinstance(pair[1], str)):
        a, b = pair
        return ModelError(f"incompatible pair ({a!r}, {b!r}) names an undeclared context")
    return ModelError(f"incompatible entry must be a pair of context names, got {pair!r}")


def _names(value, what: str) -> list[str]:
    for name in _array(value, what):
        _name(name, f"every entry of {what}")
    return value
