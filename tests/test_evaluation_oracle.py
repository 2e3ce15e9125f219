"""`evaluate` against an independent oracle on random small models.

The oracle works on plain dicts and ranks (F, U, T = 0, 1, 2): conjunction
is min, disjunction max, negation 2 - x, and the quantifiers fold min / max
over the domain.  It shares no code with sapta's semantics.
"""
import time

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sapta.evaluation import evaluate
from sapta.formulas import (
    And,
    ContextGuard,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
)
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3

RANK = {"F": 0, "U": 1, "T": 2}
PREDICATES = ("p", "q")
CONTEXTS = ("c0", "c1", "c2")
VARS = ("x", "y", "z")


@st.composite
def worlds(draw):
    """A plain-dict model: N <= 5 entities (N = 0 included), 1 <= K <= 3."""
    domain = [f"e{i}" for i in range(draw(st.integers(0, 5)))]
    contexts = draw(st.permutations(CONTEXTS[: draw(st.integers(1, 3))]))
    entity_sets = st.frozensets(st.sampled_from(domain)) if domain else st.just(frozenset())
    cells = [(c, e, p) for c in contexts for e in domain for p in PREDICATES]
    values = draw(st.lists(st.sampled_from(("T", "F", "U", None)),
                           min_size=len(cells), max_size=len(cells)))
    pairs = [(a, b) for i, a in enumerate(contexts) for b in contexts[i + 1:]]
    return {
        "domain": domain,
        "contexts": {c: draw(entity_sets) for c in contexts},
        "valuation": {cell: v for cell, v in zip(cells, values) if v is not None},
        "incompatible": draw(st.sets(st.sampled_from(pairs))) if pairs else set(),
        "background": draw(st.sampled_from(contexts)),
    }


def formulas(contexts):
    """Pairs (body, closed formula): a body over x, y, z with guards, guarded
    implications and incompatibility clauses among the given contexts, and
    the body under a random x, y, z quantifier prefix."""
    var = st.sampled_from(VARS)
    guard = st.one_of(
        st.builds(ContextGuard, st.sampled_from(contexts), var),
        st.builds(PredicateApp, st.sampled_from(contexts), var),  # a guard spelled as a plain atom
    )
    atom = st.one_of(st.builds(PredicateApp, st.sampled_from(PREDICATES), var), guard)
    body = st.recursive(
        atom,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Iff, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Implies, guard, kids),
            st.builds(lambda a, b: Not(Iff(a, b)), guard, guard),
            st.builds(ForAll, var, kids),
            st.builds(Exists, var, kids),
        ),
        max_leaves=10,
    )

    @st.composite
    def closed(draw):
        open_body = f = draw(body)
        for v in draw(st.permutations(VARS)):
            f = draw(st.sampled_from((ForAll, Exists)))(v, f)
        return open_body, f

    return closed()


def _guard_name(f, world):
    if isinstance(f, ContextGuard):
        return f.context
    if isinstance(f, PredicateApp) and f.name in world["contexts"]:
        return f.name
    return None


def oracle(f, world, env, ctx, relational):
    if isinstance(f, (PredicateApp, ContextGuard)):
        name = f.context if isinstance(f, ContextGuard) else f.name
        entity = env[f.var]
        if name in world["contexts"]:
            return 2 if entity in world["contexts"][name] else 0
        return RANK[world["valuation"].get((ctx or world["background"], entity, name), "U")]
    if isinstance(f, Not):
        if relational and isinstance(f.operand, Iff):
            a = _guard_name(f.operand.left, world)
            b = _guard_name(f.operand.right, world)
            if a is not None and b is not None and a != b:
                related = (a, b) in world["incompatible"] or (b, a) in world["incompatible"]
                return 2 if related else 0
        return 2 - oracle(f.operand, world, env, ctx, relational)
    if isinstance(f, (ForAll, Exists)):
        values = [oracle(f.body, world, {**env, f.var: e}, ctx, relational) for e in world["domain"]]
        return min(values, default=2) if isinstance(f, ForAll) else max(values, default=0)
    left = oracle(f.left, world, env, ctx, relational)
    if isinstance(f, Implies):
        right_ctx = _guard_name(f.left, world) or ctx
        return max(2 - left, oracle(f.right, world, env, right_ctx, relational))
    right = oracle(f.right, world, env, ctx, relational)
    if isinstance(f, And):
        return min(left, right)
    if isinstance(f, Or):
        return max(left, right)
    return min(max(2 - left, right), max(2 - right, left))  # Iff


def to_model(world):
    return Model(
        domain=world["domain"],
        contexts=[ContextDef(c, ext) for c, ext in world["contexts"].items()],
        predicates=PREDICATES,
        valuation={cell: Tv3.from_str(v) for cell, v in world["valuation"].items()},
        incompatible=sorted(world["incompatible"]),
        background=world["background"],
    )


# One strategy per K: building a recursive strategy costs more than drawing from it.
FORMULAS = {k: formulas(CONTEXTS[:k]) for k in range(1, len(CONTEXTS) + 1)}


@st.composite
def cases(draw):
    world = draw(worlds())
    open_body, closed = draw(FORMULAS[len(world["contexts"])])
    domain = world["domain"]
    env = {v: draw(st.sampled_from(domain)) for v in VARS} if domain else None
    return world, open_body, closed, env


# A shadowed variable followed by another quantifier: each needs its own slot.
SHADOWING = Exists("x", Exists("x", Exists("y", And(PredicateApp("p", "x"),
                                                     Not(PredicateApp("p", "y"))))))
TWO_ENTITIES = {
    "domain": ["e0", "e1"],
    "contexts": {"c0": frozenset({"e0"})},
    "valuation": {("c0", "e0", "p"): "T", ("c0", "e1", "p"): "F"},
    "incompatible": set(),
    "background": "c0",
}

# A consequent is read in its guard's context, not the background.
GUARDED = ForAll("x", Implies(ContextGuard("c1", "x"), PredicateApp("p", "x")))
TWO_CONTEXTS = {
    "domain": ["e0"],
    "contexts": {"c0": frozenset({"e0"}), "c1": frozenset({"e0"})},
    "valuation": {("c0", "e0", "p"): "F", ("c1", "e0", "p"): "T"},
    "incompatible": {("c0", "c1")},
    "background": "c0",
}


@settings(max_examples=300, deadline=None)
@given(cases())
@example((TWO_ENTITIES, SHADOWING, SHADOWING, None))
@example((TWO_CONTEXTS, GUARDED, GUARDED, None))
def test_evaluate_matches_rank_oracle(case):
    world, open_body, closed, env = case
    model = to_model(world)
    for mode in ("relational", "extensional"):
        relational = mode == "relational"
        want = oracle(closed, world, {}, None, relational)
        assert RANK[evaluate(closed, model, incompat_mode=mode).value] == want, (mode, closed)
        if env is not None:
            # The body alone, its variables bound by the caller's environment.
            want = oracle(open_body, world, env, None, relational)
            got = evaluate(open_body, model, env, incompat_mode=mode)
            assert RANK[got.value] == want, (mode, open_body, env)


def test_vacuous_quantifiers_run_their_body_once():
    # Neither the outer x nor the outer y (shadowed by the body's own) is read,
    # so 60 levels over 2 entities must not fold 2**60 times.
    body = Exists("y", And(PredicateApp("p", "y"), Not(PredicateApp("q", "y"))))
    model = to_model(TWO_ENTITIES)

    def nest(depth):
        f = body
        for level in range(depth):
            f = (ForAll if level % 2 else Exists)("y" if level % 3 == 0 else "x", f)
        return f

    for depth in (1, 8):  # shallow enough for the oracle's full folds
        want = oracle(nest(depth), TWO_ENTITIES, {}, None, True)
        assert RANK[evaluate(nest(depth), model).value] == want
    start = time.perf_counter()
    got = evaluate(nest(60), model)
    assert time.perf_counter() - start < 1.0
    assert RANK[got.value] == oracle(body, TWO_ENTITIES, {}, None, True)
