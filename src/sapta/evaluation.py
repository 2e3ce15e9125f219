"""Three-valued evaluation of formulas over finite models, and schema
destructuring.

Evaluation is pure, so one model may be evaluated against concurrently.
Only the ``eval`` command loads this module; the commands that build a model
without evaluating it import ``sapta.semantics`` alone.
"""
from __future__ import annotations

from typing import Mapping

from .errors import NotASchema, UndeclaredName, UnboundVariable
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
    _INCOMPAT_PAIRS,
    atom_name,
    free_variables,
)
from .semantics import Model, _declared, _index_of
# The compiled connectives read trivalent's tables, over the rank codes the
# model stores.
from .trivalent import _CHAIN, AND, IFF, IMPL, NOT, OR, Tv3

__all__ = [
    "evaluate",
    "check_incompatibility",
    "guard_of",
]


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
            ei = _declared(m._entity_index, self.env[f.var], "entity", f)
        ci = _index_of(m._context_index, name)
        if ci is not None:
            extension = m._extensions[ci]
            if slot is None:
                return _const(2 if ei in extension else 0)
            return lambda env: 2 if env[slot] in extension else 0
        if isinstance(f, ContextGuard):  # a guard naming no context: raises
            _declared(m._context_index, name, "context", f)
        pi = _declared(m._predicate_index, name, "predicate", f)
        context = ctx or m.background
        if context is None:
            raise UndeclaredName(
                f"predicate {name!r} used outside any guard and the model declares no background context",
                f.span,
            )
        column = m._column(m._context_index[context], pi)
        if slot is None:
            return _const(column[ei])
        return lambda env: column[env[slot]]


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
        _declared(model._context_index, c, "context")
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
    wanted = {frozenset({guards[i], guards[j]}) for i, j in _INCOMPAT_PAIRS[len(guards)]}
    if len(clauses) != len(wanted) or set(clauses) != wanted:
        raise NotASchema("pairwise incompatibility clauses do not match the guards")
    return impls
