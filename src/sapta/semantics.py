"""Finite models and three-valued evaluation of formulas over them.

A model is a finite entity domain, a set of named contexts (each with a
bivalent extension), a set of predicate names, a total three-valued
valuation indexed by (context, entity, predicate), and a symmetric
incompatibility relation over context pairs.  Models are immutable after
construction; evaluation is pure, so one model may be evaluated against
concurrently.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import ModelError, NotASchema, UndeclaredName, UnboundVariable
from .formulas import (
    And,
    ContextGuard,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    Record,
    atom_name,
    free_variables,
)
# Truth values are coded by their rank on the chain F < U < T; the compiled
# connectives read trivalent's tables.
from .trivalent import _CHAIN, _RANK, AND, IFF, IMPL, NOT, OR, Tv3

__all__ = [
    "ContextDef",
    "Model",
    "evaluate",
    "check_incompatibility",
    "guard_of",
]


class ContextDef(Record):
    """A named context and the set of entities satisfying its condition.

    Guards are bivalent: an entity is in the extension or it is not.
    """

    __slots__ = _fields = ("name", "extension")

    def __init__(self, name: str, extension: Iterable[str] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "extension", frozenset(extension))


# The code of a valuation cell no entry has listed yet; such cells become U.
_UNLISTED = len(_CHAIN)
_CODE_OF_TEXT = {v.value: rank for v, rank in _RANK.items()}


def _index_of(index: dict, name) -> int | None:
    """Position of a declared name; None for an undeclared or unhashable one."""
    try:
        return index.get(name)
    except TypeError:
        return None


class Model:
    """Immutable finite structure formulas are evaluated against.

    Names are resolved to indices once, on construction.  The totalized
    valuation is one bytearray of rank codes laid out
    [context][predicate][entity], so each (context, predicate) column is
    contiguous; extensions are sets of entity indices, and the
    incompatibility relation is a set of packed context-index pairs
    ``min * K + max``.  Every structure is proportional to the input or to
    the N·K·P cells of the valuation.
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
        cells = self._build(domain, contexts, predicates, incompatible, background)
        for (c, e, p), v in (valuation or {}).items():
            cell = self._cell(c, e, p)
            if not isinstance(v, Tv3):
                raise ModelError(f"valuation of {(c, e, p)!r} is not a truth value: {v!r}")
            cells[cell] = _RANK[v]
        self._store(cells)

    def _build(self, domain, contexts, predicates, incompatible, background) -> bytearray:
        """Index and check everything but the valuation, which the caller
        writes into the returned cells before passing them to ``_store``."""
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
        return bytearray([_UNLISTED]) * (k * len(self.predicates) * len(self.domain))

    def _store(self, cells: bytearray) -> None:
        """Keep the valuation, defaulting every cell no entry listed to U.

        The count of defaulted cells is kept for output metadata.
        """
        self.defaulted_valuations = cells.count(_UNLISTED)
        self._cells = cells.replace(bytes([_UNLISTED]), bytes([_RANK[Tv3.UNDET]]))

    def _cell(self, context, entity, predicate) -> int:
        """Offset of a valuation cell; raises on an undeclared (hashable) name."""
        ci = self._context_index.get(context)
        if ci is None:
            raise ModelError(f"valuation names undeclared context {context!r}")
        ei = self._entity_index.get(entity)
        if ei is None:
            raise ModelError(f"valuation names undeclared entity {entity!r}")
        pi = self._predicate_index.get(predicate)
        if pi is None:
            raise ModelError(f"valuation names undeclared predicate {predicate!r}")
        return self._column(ci, pi) + ei

    def _column(self, ci: int, pi: int) -> int:
        """Offset of the (context, predicate) column in the valuation cells."""
        return (ci * len(self.predicates) + pi) * len(self.domain)

    # -- lookups ------------------------------------------------------------

    def is_context(self, name: str) -> bool:
        return name in self.contexts

    def is_predicate(self, name: str) -> bool:
        return name in self._predicate_index

    def extension(self, context: str) -> frozenset[str]:
        try:
            return self.contexts[context].extension
        except KeyError:
            raise UndeclaredName(f"undeclared context {context!r}") from None

    def value(self, context: str, entity: str, predicate: str) -> Tv3:
        if context not in self.contexts:
            raise UndeclaredName(f"undeclared context {context!r}")
        ei = self._entity_index.get(entity)
        if ei is None:
            raise UndeclaredName(f"undeclared entity {entity!r}")
        if predicate not in self._predicate_index:
            raise UndeclaredName(f"undeclared predicate {predicate!r}")
        column = self._column(self._context_index[context], self._predicate_index[predicate])
        return _CHAIN[self._cells[column + ei]]

    def incompatible(self, c1: str, c2: str) -> bool:
        """Whether the unordered context pair is marked mutually incompatible.

        Every context is compatible with itself.
        """
        for c in (c1, c2):
            if c not in self.contexts:
                raise UndeclaredName(f"undeclared context {c!r}")
        i, j = sorted((self._context_index[c1], self._context_index[c2]))
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
        try:
            domain = _names(data["domain"], "'domain'")
            ctx_objs = []
            for c in _array(data["contexts"], "'contexts'"):
                name = _name(c["name"], "a context name")
                extension = _names(c.get("extension", []), f"the extension of {name!r}")
                ctx_objs.append(ContextDef(name, extension))
            predicates = _names(data["predicates"], "'predicates'")
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed model object: {exc}") from None
        rows = _array(data.get("valuation", []), "'valuation'")
        incompatible = _array(data.get("incompatible", []), "'incompatible'")
        background = data.get("background")
        if background is not None:
            _name(background, "'background'")
        model = cls.__new__(cls)
        cells = model._build(domain, ctx_objs, predicates, incompatible, background)
        # Each row is coded straight into its cell; which check a row fails
        # is worked out only once one has.
        contexts_at, entities_at = model._context_index, model._entity_index
        predicates_at, codes = model._predicate_index, _CODE_OF_TEXT
        n, p = len(model.domain), len(model.predicates)
        try:
            for row in rows:
                cells[
                    (contexts_at[row["context"]] * p + predicates_at[row["predicate"]]) * n
                    + entities_at[row["entity"]]
                ] = codes[row["value"]]
        except (KeyError, TypeError):
            model._raise_row_fault(rows)
            raise
        model._store(cells)
        return model

    def _raise_row_fault(self, rows: list) -> None:
        """Raise the ModelError for the first JSON valuation row that is
        malformed or names an undeclared context, entity or predicate."""
        for row in rows:
            try:
                key = (row["context"], row["entity"], row["predicate"])
                Tv3.from_str(row["value"])
                hash(key)
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(f"malformed valuation row {row!r}: {exc}") from None
            self._cell(*key)

    def to_json(self) -> dict:
        """Emit the JSON object form with a fully explicit valuation."""
        entities = sorted(self._entity_index.items())
        predicates = sorted(self._predicate_index.items())
        valuation = []
        for c, ci in sorted(self._context_index.items()):
            for e, ei in entities:
                for p, pi in predicates:
                    code = self._cells[self._column(ci, pi) + ei]
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


# ---------------------------------------------------------------------------
# Evaluation.


def _guard_context(model: Model, f: Formula) -> str | None:
    """Context named by a guard atom, or None if `f` is not a guard."""
    if isinstance(f, ContextGuard):
        return f.context
    if isinstance(f, PredicateApp) and model.is_context(f.name):
        return f.name
    return None


def _incompat_pattern(model: Model, f: Formula) -> tuple[str, str] | None:
    """Match the guard-incompatibility clause ``~(c1(x) <-> c2(x))``."""
    if not (isinstance(f, Not) and isinstance(f.operand, Iff)):
        return None
    c1 = _guard_context(model, f.operand.left)
    c2 = _guard_context(model, f.operand.right)
    if c1 is not None and c2 is not None and c1 != c2:
        return (c1, c2)
    return None


def evaluate(
    f: Formula,
    model: Model,
    env: Mapping[str, str] | None = None,
    *,
    incompat_mode: str = "relational",
) -> Tv3:
    """Evaluate a formula to a three-valued truth value.

    Predicate lookups resolve against the context of the innermost enclosing
    guarded implication, and against the model's background context outside
    any guard.  Guards themselves are bivalent extension-membership tests.
    Universal quantification folds conjunction over the domain (vacuously T
    on an empty domain); existential quantification is dual.

    ``incompat_mode`` fixes the reading of guard-incompatibility clauses
    ``~(c1(x) <-> c2(x))``: ``"relational"`` (default) consults the model's
    declared incompatibility relation — mutual exclusivity as a physical fact
    about the arrangements — while ``"extensional"`` evaluates the clause
    literally from the guard extensions.

    The formula is compiled once, with every name resolved, into closures
    over the entity indices bound by its quantifiers, so evaluation takes
    O(|f|·N^depth) cell reads.  A bad name raises while compiling, at the
    first offending node in evaluation order; nodes evaluation never reaches
    (the body of a quantifier over an empty domain, the atoms of a
    relational incompatibility clause) never raise.
    """
    if incompat_mode not in ("relational", "extensional"):
        raise ValueError(f"incompat_mode must be 'relational' or 'extensional', got {incompat_mode!r}")
    compiler = _Compiler(model, dict(env or {}), incompat_mode == "relational")
    run = compiler.compile(f, {}, None)
    return _CHAIN[run([0] * compiler.slots)]


def _const(code: int):
    return lambda env: code


_TABLES = {And: AND, Or: OR, Implies: IMPL, Iff: IFF}


class _Compiler:
    """Compiles a formula against one model into a closure ``run(env) -> code``.

    ``env`` is a list holding, per enclosing quantifier, the index of the
    entity its variable is bound to.
    """

    def __init__(self, model: Model, env: dict, relational: bool):
        self.model = model
        self.env = env
        self.relational = relational
        self.slots = 0

    def compile(self, f: Formula, scope: dict[str, int], ctx: str | None):
        """`scope` maps bound variables to env slots; `ctx` is the context of
        the innermost enclosing guard."""
        m = self.model
        if isinstance(f, (PredicateApp, ContextGuard)):
            return self.atom(f, scope, ctx)
        if isinstance(f, Not):
            if self.relational:
                pair = _incompat_pattern(m, f)
                if pair is not None:
                    return _const(2 if m.incompatible(*pair) else 0)
            a = self.compile(f.operand, scope, ctx)
            return lambda env: NOT[a(env)]
        table = _TABLES.get(type(f))
        if table is not None:
            a = self.compile(f.left, scope, ctx)
            if isinstance(f, Implies):
                # Innermost guard wins: the consequent is read in the guard's context.
                ctx = _guard_context(m, f.left) or ctx
            b = self.compile(f.right, scope, ctx)
            return lambda env: table[a(env)][b(env)]
        if isinstance(f, (ForAll, Exists)):
            table, unit, absorbing = (AND, 2, 0) if isinstance(f, ForAll) else (OR, 0, 2)
            if not m.domain:
                return _const(unit)
            # Past every slot in scope, so a variable this one shadows keeps its own.
            slot = max(scope.values(), default=-1) + 1
            self.slots = max(self.slots, slot + 1)
            body = self.compile(f.body, {**scope, f.var: slot}, ctx)
            if f.var not in free_variables(f.body):
                return body  # a fold of N equal values is that value
            domain = range(len(m.domain))

            def fold(env):
                out = unit
                for e in domain:
                    env[slot] = e
                    out = table[out][body(env)]
                    if out == absorbing:
                        break
                return out

            return fold
        raise TypeError(f"not a formula node: {f!r}")

    def atom(self, f: PredicateApp | ContextGuard, scope: dict[str, int], ctx: str | None):
        m = self.model
        name = atom_name(f)
        slot = scope.get(f.var)
        if slot is None:
            if f.var not in self.env:
                raise UnboundVariable(f.var, getattr(f, "span", None))
            entity = self.env[f.var]
            ei = _index_of(m._entity_index, entity)
            if ei is None:
                raise UndeclaredName(f"undeclared entity {entity!r}")
        ci = m._context_index.get(name)
        if ci is not None:
            extension = m._extensions[ci]
            if slot is None:
                return _const(2 if ei in extension else 0)
            return lambda env: 2 if env[slot] in extension else 0
        if isinstance(f, ContextGuard):
            raise UndeclaredName(f"undeclared context {name!r}")
        pi = m._predicate_index.get(name)
        if pi is None:
            raise UndeclaredName(f"undeclared predicate {name!r}")
        column = ctx or m.background
        if column is None:
            raise UndeclaredName(
                f"predicate {name!r} used outside any guard and the model declares no background context"
            )
        cells, base = m._cells, m._column(m._context_index[column], pi)
        if slot is None:
            return _const(cells[base + ei])
        return lambda env: cells[base + env[slot]]


def check_incompatibility(
    model: Model,
    c1: str,
    c2: str,
    mode: str = "relational",
    *,
    quantifier: str = "exists",
) -> Tv3:
    """Decide whether two contexts are mutually incompatible.

    Relational mode reads the model's declared relation.  Extensional mode
    evaluates the clause ``~(c1(x) <-> c2(x))`` from the guard extensions,
    quantified by ``quantifier``: under ``"exists"`` (default) the contexts
    are incompatible when at least one entity distinguishes them; under
    ``"forall"`` every entity must distinguish them.
    """
    for c in (c1, c2):
        if not model.is_context(c):
            raise UndeclaredName(f"undeclared context {c!r}")
    if mode == "relational":
        return Tv3.from_bool(model.incompatible(c1, c2))
    if mode != "extensional":
        raise ValueError(f"mode must be 'relational' or 'extensional', got {mode!r}")
    if quantifier not in ("exists", "forall"):
        raise ValueError(f"quantifier must be 'exists' or 'forall', got {quantifier!r}")
    clause = Not(Iff(ContextGuard(c1, "x"), ContextGuard(c2, "x")))
    quantified = Exists("x", clause) if quantifier == "exists" else ForAll("x", clause)
    return evaluate(quantified, model, incompat_mode="extensional")


# ---------------------------------------------------------------------------
# Schema destructuring.


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _atom_over(f: Formula, var: str) -> str | None:
    name = atom_name(f)
    return name if name is not None and f.var == var else None


def guard_of(f: Formula) -> list[tuple[str, Formula]]:
    """Extract (context, consequent) pairs from a predication-schema instance.

    The formula must be a universally quantified conjunction of one to three
    guarded implications whose consequents are literals over the bound
    variable, together with exactly the pairwise guard-incompatibility
    clauses.  Pairs are returned in textual order.  Anything else raises
    :class:`NotASchema`.
    """
    if not isinstance(f, ForAll):
        raise NotASchema("schema instances are universally quantified")
    var = f.var
    impls: list[tuple[str, Formula]] = []
    clauses: list[frozenset[str]] = []
    for part in _conjuncts(f.body):
        if isinstance(part, Implies):
            guard = _atom_over(part.left, var)
            if guard is None:
                raise NotASchema("implication antecedent is not a guard atom")
            consequent = part.right
            literal = consequent.operand if isinstance(consequent, Not) else consequent
            if _atom_over(literal, var) is None:
                raise NotASchema("implication consequent is not a literal over the bound variable")
            impls.append((guard, consequent))
        elif isinstance(part, Not) and isinstance(part.operand, Iff):
            a = _atom_over(part.operand.left, var)
            b = _atom_over(part.operand.right, var)
            if a is None or b is None or a == b:
                raise NotASchema("incompatibility clause must relate two distinct guard atoms")
            clauses.append(frozenset({a, b}))
        else:
            raise NotASchema(f"unexpected conjunct: {type(part).__name__}")
    guards = [g for g, _ in impls]
    if not 1 <= len(guards) <= 3:
        raise NotASchema(f"schemas carry 1..3 guarded implications, found {len(guards)}")
    if len(set(guards)) != len(guards):
        raise NotASchema("guard contexts must be distinct")
    wanted = {
        frozenset({guards[i], guards[j]})
        for i in range(len(guards))
        for j in range(i + 1, len(guards))
    }
    if len(clauses) != len(wanted) or set(clauses) != wanted:
        raise NotASchema("pairwise incompatibility clauses do not match the guards")
    return impls
