"""Three-valued evaluation of formulas over finite models.

Evaluation is pure, so one model may be evaluated against concurrently.
Only the ``eval`` command loads this module; the commands that build a model
without evaluating it import ``sapta.semantics`` alone.
"""
from __future__ import annotations

from typing import Mapping

from .errors import UndeclaredName, UnboundVariable
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
    free_variables,
)
from .semantics import _U, Model, _declared, _index_of
# The compiled connectives read trivalent's tables, over the rank codes the
# model stores.
from .trivalent import _CHAIN, AND, IFF, IMPL, NOT, OR, Tv3

__all__ = ["evaluate"]


def _guard(model: Model, f: Formula) -> int | None:
    """Index of the context a guard atom names, or None if `f` is no guard:
    a guard is a ContextGuard, whose context must be declared, or a
    PredicateApp naming a declared context."""
    if isinstance(f, ContextGuard):
        return _declared(model._context_index, f.context, "context", f)
    if isinstance(f, PredicateApp):
        return _index_of(model._context_index, f.name)
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

    The formula is compiled once, with every name resolved to its index,
    into closures over a list of entity indices: the variables of ``env``
    take its first slots and each quantifier the next, so evaluation takes
    O(|f|·N^depth) cell reads.  A bad name raises while compiling, at the
    first offending node in evaluation order; nodes evaluation never reaches
    (the body of a quantifier over an empty domain, the atoms of a
    relational incompatibility clause) never raise.
    """
    if incompat_mode not in ("relational", "extensional"):
        raise ValueError(f"incompat_mode must be 'relational' or 'extensional', got {incompat_mode!r}")
    env = env or {}
    compiler = _Compiler(model, list(env.values()), incompat_mode == "relational")
    run = compiler.compile(f, {var: slot for slot, var in enumerate(env)}, None)
    return _CHAIN[run(compiler.entities + [0] * (compiler.slots - len(compiler.entities)))]


def _const(code: int):
    return lambda env: code


_TABLES = {And: AND, Or: OR, Implies: IMPL, Iff: IFF}


class _Compiler:
    """Compiles a formula against one model into a closure ``run(env) -> code``.

    ``env`` is a list holding, per slot, the index of the entity a variable
    is bound to: the given entities first, then one slot per enclosing
    quantifier.  Every name resolves to its index here, once per atom.
    """

    def __init__(self, model: Model, names: list, relational: bool):
        self.model = model
        self.relational = relational
        # The given entities; an undeclared one's index is None, and it
        # raises at the first atom reading it.
        self.names = names
        self.entities = [_index_of(model._entity_index, e) for e in names]
        self.slots = len(names)
        self.background = model._context_index.get(model.background)  # None without contexts

    def compile(self, f: Formula, scope: dict[str, int], ctx: int | None):
        """`scope` maps variables to env slots; `ctx` is the index of the
        context of the innermost enclosing guard."""
        m = self.model
        if isinstance(f, (PredicateApp, ContextGuard)):
            return self.atom(f, scope, ctx)
        if isinstance(f, Not):
            operand = f.operand
            if self.relational and isinstance(operand, Iff):
                i = _guard(m, operand.left)
                j = None if i is None else _guard(m, operand.right)
                if j is not None and i != j:
                    return _const(2 if m._incompatible_with_each([j])(i) else 0)
            a = self.compile(operand, scope, ctx)
            return lambda env: NOT[a(env)]
        table = _TABLES.get(type(f))
        if table is not None:
            a = self.compile(f.left, scope, ctx)
            if isinstance(f, Implies):
                # Innermost guard wins: the consequent is read in the guard's context.
                guard = _guard(m, f.left)
                ctx = ctx if guard is None else guard
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

    def atom(self, f: PredicateApp | ContextGuard, scope: dict[str, int], ctx: int | None):
        m = self.model
        slot = scope.get(f.var)
        if slot is None:
            raise UnboundVariable(f.var, f.span)
        if slot < len(self.entities) and self.entities[slot] is None:
            _declared(m._entity_index, self.names[slot], "entity", f)  # raises
        ci = _guard(m, f)
        if ci is not None:
            extension = m._extensions[ci]
            return lambda env: 2 if env[slot] in extension else 0
        pi = _declared(m._predicate_index, f.name, "predicate", f)
        context = self.background if ctx is None else ctx
        if context is None:
            raise UndeclaredName(
                f"predicate {f.name!r} used outside any guard and the model declares no background context",
                f.span,
            )
        read, u = m._column(context, pi).get, _U
        return lambda env: read(env[slot], u)
