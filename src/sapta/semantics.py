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
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ModelError, UndeclaredName
from .records import Record
# Truth values are coded by their rank on the chain F < U < T.
from .trivalent import _CHAIN, _RANK, Tv3

if TYPE_CHECKING:
    from .formulas import Formula

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
    Extensions are sets of entity indices.  The incompatibility relation
    keys the pair of context indices i < j as ``i * K + j``.  A dense
    relation, one whose K·K is at most 64 times the number of declared
    entries, is a K·K byte map holding 1 at each pair's key: at most 64
    bytes an entry, where a set takes 81 to 98.  Any other relation is a set
    of the keys, so a model that declares many contexts and few pairs
    allocates nothing quadratic.
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
        self._build(domain, contexts, predicates, rows, list(incompatible), background)

    def _build(self, domain, contexts, predicates, rows, incompatible, background) -> None:
        """Index and check every part; ``rows`` are valuation rows in JSON
        form, of which the last one listing a cell wins, and ``incompatible``
        is a list of context-name pairs."""
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
        # unless it is not a list or tuple (a string, a dict).  The key
        # i * K + j is read as row offset plus j, which allocates one int.
        k = len(ctx_list)
        contexts_at = self._context_index
        offsets = [i * k for i in range(k)]
        if k * k <= 64 * len(incompatible):
            relation, add = bytearray(k * k), None
        else:
            relation = set()
            add = relation.add
        for pair in incompatible:
            try:
                a, b = pair
                i, j = contexts_at[a], contexts_at[b]
                if (pair.__class__ is not list and pair.__class__ is not tuple
                        and not isinstance(pair, (list, tuple))):
                    raise TypeError
            except (KeyError, TypeError, ValueError):
                from .inputs import _pair_fault

                raise _pair_fault(pair) from None
            if i < j:
                key = offsets[i] + j
            elif j < i:
                key = offsets[j] + i
            else:
                raise ModelError(f"context {a!r} cannot be incompatible with itself")
            if add is None:
                relation[key] = 1
            else:
                add(key)
        self._relation: bytes | set[int] = bytes(relation) if add is None else relation

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
            from .inputs import _raise_row_fault

            _raise_row_fault(self, rows)
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
        i, j = (_declared(self._context_index, c, "context") for c in (c1, c2))
        return i != j and self._incompatible_with_each([j])(i)

    def _incompatible_with_each(self, others: list[int]):
        """A test of whether the context at an index is incompatible with
        every context at the indices ``others``, which do not include it.

        On a byte map, one index is tested by reading its pair's byte; more
        become one K-byte mask holding 1 at each, and a context passes when
        its row of the map, read as an int, has every mask bit set: one AND
        of K bytes a test.  On a set, the test looks up the key of each pair.
        """
        relation, k = self._relation, len(self.contexts)
        if relation.__class__ is bytes:
            if len(others) == 1:
                b = others[0]
                return lambda a: relation[a * k + b if a < b else b * k + a] == 1
            marks = bytearray(k)
            for b in others:
                marks[b] = 1
            mask = int.from_bytes(marks, "little")

            def test(a: int) -> bool:
                # Row a: the keys b * K + a of the contexts b < a, a zero for
                # a itself, then the keys a * K + b of the contexts b > a.
                row = relation[a:a * k:k] + b"\0" + relation[a * k + a + 1:(a + 1) * k]
                return int.from_bytes(row, "little") & mask == mask
        else:
            def test(a: int) -> bool:
                ak = a * k
                return relation.issuperset([ak + b if a < b else b * k + a for b in others])
        return test

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
        from .inputs import model_from_json

        return model_from_json(cls, data)

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
        names, k, relation = list(self.contexts), len(self.contexts), self._relation
        keys = compress(range(k * k), relation) if relation.__class__ is bytes else relation
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
                sorted((names[key // k], names[key % k])) for key in keys
            ),
        }
