"""Models, three-valued evaluation, incompatibility, schema destructuring."""
import itertools
import json

import pytest

from sapta.errors import ModelError, NotASchema, UnboundVariable, UndeclaredName
from sapta.evaluation import check_incompatibility, evaluate, guard_of
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
    schema,
    undet_name,
)
from sapta.parser import parse
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3
from sapta.trivalent import conj3, disj3, iff3, impl3, neg3

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET


def simple_model(**overrides):
    kwargs = dict(
        domain=["a", "b"],
        contexts=[ContextDef("c1", {"a"}), ContextDef("c2", {"a", "b"})],
        predicates=["p", "q"],
        valuation={
            ("c1", "a", "p"): T,
            ("c2", "a", "p"): F,
            ("c1", "b", "p"): F,
            ("c2", "b", "p"): T,
        },
        incompatible=[("c1", "c2")],
        background="c1",
    )
    kwargs.update(overrides)
    return Model(**kwargs)


# -- construction -----------------------------------------------------------


def test_model_rejects_duplicates_and_strays():
    with pytest.raises(ModelError):
        simple_model(domain=["a", "a"])
    with pytest.raises(ModelError):
        simple_model(contexts=[ContextDef("c1", {"zz"}), ContextDef("c2")])
    with pytest.raises(ModelError, match="duplicate context names"):
        simple_model(contexts=[ContextDef("c1", {"a"}), ContextDef("c1", {"b"})])
    with pytest.raises(ModelError):
        simple_model(predicates=["p", "p"])
    with pytest.raises(ModelError):
        simple_model(predicates=["p", "c1"])  # context/predicate names overlap


@pytest.mark.parametrize("args, message", [
    (("zz", "a", "p"), "undeclared context 'zz'"),
    (("c1", "zz", "p"), "undeclared entity 'zz'"),
    (("c1", "a", "zz"), "undeclared predicate 'zz'"),
    ((["c1"], "a", "p"), r"undeclared context \['c1'\]"),
    (("c1", ["a"], "p"), r"undeclared entity \['a'\]"),
    (("c1", "a", ["p"]), r"undeclared predicate \['p'\]"),
])
def test_value_rejects_undeclared_names(args, message):
    with pytest.raises(UndeclaredName, match=message):
        simple_model().value(*args)


def test_unhashable_names_are_undeclared():
    m = simple_model()
    with pytest.raises(UndeclaredName, match=r"undeclared context \['c1'\]"):
        m.extension(["c1"])
    with pytest.raises(UndeclaredName, match=r"undeclared context \['c2'\]"):
        m.incompatible("c1", ["c2"])
    with pytest.raises(UndeclaredName, match=r"undeclared context \['c2'\]"):
        check_incompatibility(m, "c1", ["c2"], "extensional")
    with pytest.raises(UndeclaredName, match=r"undeclared entity \['a'\]"):
        evaluate(PredicateApp("p", "x"), m, {"x": ["a"]})


def test_undeclared_atoms_carry_their_span():
    m = simple_model()
    for text, message in [
        ("p(x) & nope(x)", "undeclared predicate 'nope'"),
        ("p(x) & zz(x)", "undeclared context 'zz'"),
    ]:
        f = parse(text, contexts={"zz"})
        with pytest.raises(UndeclaredName, match=message) as info:
            evaluate(f, m, {"x": "a"})
        assert info.value.span == f.right.span
    with pytest.raises(UndeclaredName, match="undeclared entity 'zz'") as info:
        evaluate(parse("q(y) | p(x)"), m, {"x": "zz", "y": "a"})
    assert info.value.span.column == 8
    # A node built without a span raises without one.
    with pytest.raises(UndeclaredName) as info:
        evaluate(PredicateApp("nope", "x"), m, {"x": "a"})
    assert info.value.span is None


def test_extension_lookup():
    m = simple_model()
    assert m.extension("c2") == frozenset({"a", "b"})
    with pytest.raises(UndeclaredName, match="undeclared context 'zz'"):
        m.extension("zz")


@pytest.mark.parametrize("value", ["T", 2, None, ["T"], True])
def test_model_rejects_non_truth_values(value):
    with pytest.raises(ModelError, match="valuation of .* is not a truth value"):
        simple_model(valuation={("c1", "a", "p"): value})


def test_background_rules():
    with pytest.raises(ModelError):
        simple_model(background=None)
    with pytest.raises(ModelError):
        simple_model(background="nope")
    # Zero contexts: no background allowed, construction fine.
    bare = Model(["a"], [], ["p"])
    assert bare.background is None
    with pytest.raises(ModelError):
        Model(["a"], [], ["p"], background="c1")


def test_incompatibility_relation():
    m = simple_model()
    assert m.incompatible("c1", "c2")
    assert m.incompatible("c2", "c1")  # symmetric
    assert not m.incompatible("c1", "c1")  # self-compatible
    with pytest.raises(ModelError):
        simple_model(incompatible=[("c1", "c1")])
    with pytest.raises(UndeclaredName):
        m.incompatible("c1", "zz")


def test_valuation_defaults_to_undet():
    m = simple_model()
    # 2 contexts x 2 entities x 2 predicates = 8 cells, 4 given.
    assert m.defaulted_valuations == 4
    assert m.value("c1", "a", "q") is U
    assert m.value("c1", "a", "p") is T


def test_json_round_trip():
    m = simple_model()
    again = Model.from_json(json.loads(json.dumps(m.to_json())))
    assert again.to_json() == m.to_json()
    assert again.defaulted_valuations == 0  # serialized form is total


def test_from_json_reports_defaults():
    data = {
        "domain": ["a"],
        "background": "c",
        "contexts": [{"name": "c", "extension": ["a"]}],
        "predicates": ["p", "q"],
        "valuation": [{"context": "c", "entity": "a", "predicate": "p", "value": "T"}],
        "incompatible": [],
    }
    m = Model.from_json(data)
    assert m.defaulted_valuations == 1
    assert m.value("c", "a", "q") is U


def test_to_json_sorts_names_and_pairs():
    m = Model(
        domain=["b", "a"],
        contexts=[ContextDef("z", {"b", "a"}), ContextDef("y", {"b"})],
        predicates=["q"],
        valuation={("z", "b", "q"): T, ("y", "a", "q"): F},
        incompatible=[("z", "y")],
        background="z",
    )
    cell = lambda c, e, v: {"context": c, "entity": e, "predicate": "q", "value": v}
    assert m.to_json() == {
        "domain": ["b", "a"],
        "background": "z",
        "contexts": [{"name": "z", "extension": ["a", "b"]}, {"name": "y", "extension": ["b"]}],
        "predicates": ["q"],
        "valuation": [cell("y", "a", "F"), cell("y", "b", "U"), cell("z", "a", "U"),
                      cell("z", "b", "T")],
        "incompatible": [["y", "z"]],
    }


@pytest.mark.parametrize("field, bad, message", [
    ("domain", "ab", "'domain' must be an array"),
    ("domain", ["a", 1], "every entry of 'domain' must be a string"),
    ("predicates", "pq", "'predicates' must be an array"),
    ("contexts", "c", "'contexts' must be an array"),
    ("contexts", [{"name": 3}, {"name": "d"}], "a context name must be a string"),
    ("contexts", [{"name": "c", "extension": "a"}, {"name": "d"}],
     "the extension of 'c' must be an array"),
    ("incompatible", ["ab"], "incompatible entry must be a pair"),
    ("incompatible", [["c", "d", "c"]], "incompatible entry must be a pair"),
    ("incompatible", [["c", ["d"]]], "incompatible entry must be a pair"),
    ("incompatible", {"c": "d"}, "'incompatible' must be an array"),
    ("valuation", 5, "'valuation' must be an array"),
    ("background", ["c"], "'background' must be a string"),
])
def test_from_json_rejects_wrongly_typed_fields(field, bad, message):
    data = {
        "domain": ["a", "b"],
        "background": "c",
        "contexts": [{"name": "c", "extension": ["a"]}, {"name": "d"}],
        "predicates": ["p"],
        "valuation": [],
        "incompatible": [["c", "d"]],
    }
    Model.from_json(data)
    data[field] = bad
    with pytest.raises(ModelError, match=message):
        Model.from_json(data)


def test_from_json_malformed():
    with pytest.raises(ModelError):
        Model.from_json({"domain": ["a"]})
    with pytest.raises(ModelError):
        Model.from_json(
            {
                "domain": ["a"],
                "background": "c",
                "contexts": [{"name": "c"}],
                "predicates": ["p"],
                "valuation": [{"context": "c", "entity": "a", "predicate": "p", "value": "X"}],
            }
        )


# -- evaluation -------------------------------------------------------------


def test_guarded_universal_true_on_extension():
    # Everything satisfying the condition is T for p under that context;
    # entities outside the extension are vacuous.
    m = simple_model(
        valuation={("c1", "a", "p"): T, ("c1", "b", "p"): F}
    )
    assert evaluate(schema(1, ["c1"], "p"), m) is T


def test_empty_domain_universal_vacuously_true():
    m = Model(
        domain=[],
        contexts=[ContextDef("c", set())],
        predicates=["p"],
        background="c",
    )
    assert evaluate(ForAll("x", PredicateApp("p", "x")), m) is T
    assert evaluate(Exists("x", PredicateApp("p", "x")), m) is F


def test_double_slit_hand_model():
    # One entity; particle under c1, not under c2, contexts incompatible.
    m = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", {"e"})],
        predicates=["p"],
        valuation={("c1", "e", "p"): T, ("c2", "e", "p"): F},
        incompatible=[("c1", "c2")],
        background="c1",
    )
    assert evaluate(schema(4, ["c1", "c2"], "p"), m) is T


def test_incompat_clause_modes():
    # Same extensions: the literal (extensional) reading of the clause fails
    # while the declared relation holds.
    m = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", {"e"})],
        predicates=["p"],
        valuation={("c1", "e", "p"): T, ("c2", "e", "p"): F},
        incompatible=[("c1", "c2")],
        background="c1",
    )
    f = schema(4, ["c1", "c2"], "p")
    assert evaluate(f, m, incompat_mode="relational") is T
    assert evaluate(f, m, incompat_mode="extensional") is F
    # Differing extensions: extensional reading holds even with no relation.
    m2 = Model(
        domain=["e"],
        contexts=[ContextDef("c1", {"e"}), ContextDef("c2", set())],
        predicates=["p"],
        valuation={("c1", "e", "p"): T},
        background="c1",
    )
    clause = Not(Iff(ContextGuard("c1", "x"), ContextGuard("c2", "x")))
    assert evaluate(ForAll("x", clause), m2, incompat_mode="extensional") is T
    assert evaluate(ForAll("x", clause), m2, incompat_mode="relational") is F


def test_connectives_evaluate_as_the_trivalent_functions():
    # One entity whose p and q take every pair of values, read in the background.
    p, q = PredicateApp("p", "x"), PredicateApp("q", "x")
    for a, b in itertools.product((T, F, U), repeat=2):
        m = Model(["e"], [ContextDef("c", {"e"})], ["p", "q"],
                  valuation={("c", "e", "p"): a, ("c", "e", "q"): b}, background="c")
        for node, fn in ((And, conj3), (Or, disj3), (Implies, impl3), (Iff, iff3)):
            assert evaluate(ForAll("x", node(p, q)), m) is fn(a, b), (node.__name__, a, b)
        assert evaluate(ForAll("x", Not(p)), m) is neg3(a)


def test_background_column_used_outside_guards():
    m = simple_model()
    # p(a) under background c1 is T; under c2 it is F.
    assert evaluate(PredicateApp("p", "x"), m, {"x": "a"}) is T
    assert evaluate(Implies(ContextGuard("c2", "x"), PredicateApp("p", "x")), m, {"x": "a"}) is F


def test_nested_guards_innermost_wins():
    m = simple_model()
    f = Implies(
        ContextGuard("c1", "x"),
        Implies(ContextGuard("c2", "x"), PredicateApp("p", "x")),
    )
    # Innermost guard is c2, so p(a) reads F there.
    assert evaluate(f, m, {"x": "a"}) is F


def test_guard_atom_spelled_as_predicate_app():
    # A parsed formula carries plain atoms; a name declared as a context
    # still resolves as a guard.
    m = simple_model()
    f = parse("forall x. (c1(x) -> p(x))")
    g = parse("forall x. (c1(x) -> p(x))", contexts={"c1"})
    assert evaluate(f, m) is evaluate(g, m)


def test_guard_bivalence():
    m = simple_model()
    for entity in ("a", "b"):
        v = evaluate(ContextGuard("c1", "x"), m, {"x": entity})
        assert v in (T, F)


def test_evaluation_errors():
    m = simple_model()
    with pytest.raises(UndeclaredName):
        evaluate(PredicateApp("nope", "x"), m, {"x": "a"})
    with pytest.raises(UndeclaredName):
        evaluate(ContextGuard("nope", "x"), m, {"x": "a"})
    with pytest.raises(UnboundVariable):
        evaluate(PredicateApp("p", "x"), m)
    with pytest.raises(UndeclaredName):
        evaluate(PredicateApp("p", "x"), m, {"x": "zz"})
    # The first bad node in evaluation order raises, left before right.
    bad = And(PredicateApp("p", "y"), PredicateApp("nope", "x"))
    with pytest.raises(UnboundVariable, match="'y'"):
        evaluate(bad, m, {"x": "a"})
    with pytest.raises(UndeclaredName, match="undeclared predicate 'nope'"):
        evaluate(ForAll("y", bad), m, {"x": "a"})
    # A quantifier over an empty domain never reaches its body.
    empty = Model(domain=[], contexts=[ContextDef("c", set())], predicates=["p"], background="c")
    for body in (PredicateApp("nope", "x"), ContextGuard("nope", "x"), PredicateApp("p", "y")):
        assert evaluate(ForAll("x", body), empty) is T
        assert evaluate(Exists("x", body), empty) is F
    with pytest.raises(UndeclaredName, match="undeclared entity 'a'"):
        evaluate(And(ForAll("x", PredicateApp("p", "x")), PredicateApp("p", "x")), empty,
                 {"x": "a"})
    # Relational mode reads an incompatibility clause off the relation and
    # never reads its atoms; extensional mode reads them.
    clause = Not(Iff(ContextGuard("c1", "y"), ContextGuard("c2", "y")))
    assert evaluate(clause, m) is T
    with pytest.raises(UnboundVariable, match="'y'"):
        evaluate(clause, m, incompat_mode="extensional")
    stray = Not(Iff(ContextGuard("zz", "y"), ContextGuard("c1", "y")))
    with pytest.raises(UndeclaredName, match="undeclared context 'zz'"):
        evaluate(stray, m)
    with pytest.raises(ValueError, match="incompat_mode"):
        evaluate(clause, m, incompat_mode="modal")


def test_zero_context_model_rejects_guards():
    bare = Model(["a"], [], ["p"])
    with pytest.raises(UndeclaredName):
        evaluate(ContextGuard("c", "x"), bare, {"x": "a"})
    # Bare predicates need a background context too.
    with pytest.raises(UndeclaredName):
        evaluate(PredicateApp("p", "x"), bare, {"x": "a"})


def test_evaluation_deterministic():
    m = simple_model()
    f = parse("forall x. ((c1(x) -> p(x)) | exists y. q(y))")
    assert evaluate(f, m) is evaluate(f, m)


def test_concurrent_evaluation_of_shared_model():
    from concurrent.futures import ThreadPoolExecutor

    m = simple_model()
    f = parse("forall x. ((c1(x) -> p(x)) & (c2(x) -> ~q(x)))")
    expected = evaluate(f, m)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: evaluate(f, m), range(64)))
    assert all(r is expected for r in results)


def test_forall_exists_duality():
    m = simple_model()
    bodies = [
        PredicateApp("p", "x"),
        And(PredicateApp("p", "x"), PredicateApp("q", "x")),
        Implies(ContextGuard("c1", "x"), PredicateApp("p", "x")),
        Or(Not(PredicateApp("q", "x")), ContextGuard("c2", "x")),
    ]
    for body in bodies:
        lhs = evaluate(Not(ForAll("x", body)), m)
        rhs = evaluate(Exists("x", Not(body)), m)
        assert lhs is rhs


# -- classical embedding ----------------------------------------------------


def classical_eval(f, m, env, ctx):
    """Independent two-valued oracle mirroring the context-resolution rule."""
    if isinstance(f, (PredicateApp, ContextGuard)):
        name = f.context if isinstance(f, ContextGuard) else f.name
        entity = env[f.var]
        if m.is_context(name):
            return entity in m.extension(name)
        column = ctx or m.background
        return m.value(column, entity, name) is T
    if isinstance(f, Not):
        return not classical_eval(f.operand, m, env, ctx)
    if isinstance(f, And):
        return classical_eval(f.left, m, env, ctx) and classical_eval(f.right, m, env, ctx)
    if isinstance(f, Or):
        return classical_eval(f.left, m, env, ctx) or classical_eval(f.right, m, env, ctx)
    if isinstance(f, Iff):
        return classical_eval(f.left, m, env, ctx) == classical_eval(f.right, m, env, ctx)
    if isinstance(f, Implies):
        guard = None
        if isinstance(f.left, ContextGuard):
            guard = f.left.context
        elif isinstance(f.left, PredicateApp) and m.is_context(f.left.name):
            guard = f.left.name
        a = classical_eval(f.left, m, env, ctx)
        b = classical_eval(f.right, m, env, guard or ctx)
        return (not a) or b
    if isinstance(f, ForAll):
        return all(classical_eval(f.body, m, {**env, f.var: e}, ctx) for e in m.domain)
    if isinstance(f, Exists):
        return any(classical_eval(f.body, m, {**env, f.var: e}, ctx) for e in m.domain)
    raise TypeError(f)


CLASSICAL_POOL = [
    "forall x. (c1(x) -> p(x))",
    "forall x. (c1(x) -> ~q(x))",
    "exists x. (c1(x) & p(x))",
    "forall x. (c1(x) -> (c2(x) -> p(x)))",
    "forall x. ~(c1(x) <-> c2(x))",
    "exists x. (p(x) | q(x))",
    "forall x. ((c1(x) -> p(x)) & (c2(x) -> ~p(x)))",
    "exists x. ~p(x)",
]


@pytest.mark.parametrize("domain", [["a"], ["a", "b"]])
def test_classical_embedding_exhaustive(domain):
    # Over models whose valuation never uses U, three-valued evaluation in
    # extensional mode agrees with the classical oracle.
    formulas = [parse(text) for text in CLASSICAL_POOL]
    entities = list(domain)
    cells = [
        (c, e, p) for c in ("c1", "c2") for e in entities for p in ("p", "q")
    ]
    ext_choices = list(itertools.product(*[[frozenset(s) for s in _subsets(entities)]] * 2))
    for ext1, ext2 in ext_choices:
        for bits in itertools.product((T, F), repeat=len(cells)):
            valuation = dict(zip(cells, bits))
            m = Model(
                domain=entities,
                contexts=[ContextDef("c1", ext1), ContextDef("c2", ext2)],
                predicates=["p", "q"],
                valuation=valuation,
                background="c1",
            )
            for f in formulas:
                got = evaluate(f, m, incompat_mode="extensional")
                want = Tv3.from_bool(classical_eval(f, m, {}, None))
                assert got is want, (f, m.to_json())


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_classical_embedding_three_entities():
    # Larger domain, single predicate, still exhaustive.
    formulas = [parse(t) for t in CLASSICAL_POOL if "q" not in t]
    entities = ["a", "b", "c"]
    cells = [("c1", e, "p") for e in entities] + [("c2", e, "p") for e in entities]
    subsets = [frozenset(s) for s in _subsets(entities)]
    for ext1 in subsets:
        for ext2 in subsets:
            for bits in itertools.product((T, F), repeat=len(cells)):
                m = Model(
                    domain=entities,
                    contexts=[ContextDef("c1", ext1), ContextDef("c2", ext2)],
                    predicates=["p"],
                    valuation=dict(zip(cells, bits)),
                    background="c1",
                )
                for f in formulas:
                    got = evaluate(f, m, incompat_mode="extensional")
                    assert got is Tv3.from_bool(classical_eval(f, m, {}, None))


# -- check_incompatibility ----------------------------------------------------


def test_check_incompatibility_modes():
    m = Model(
        domain=["a", "b"],
        contexts=[
            ContextDef("same1", {"a"}),
            ContextDef("same2", {"a"}),
            ContextDef("left", {"a"}),
            ContextDef("right", {"b"}),
        ],
        predicates=["p"],
        incompatible=[("same1", "same2")],
        background="same1",
    )
    assert check_incompatibility(m, "same1", "same2", "extensional") is F
    assert check_incompatibility(m, "left", "right", "extensional") is T
    assert check_incompatibility(m, "same1", "same2", "relational") is T
    assert check_incompatibility(m, "left", "right", "relational") is F
    # Quantifier flag: every entity distinguishes left/right, but not
    # left/same1 (entity b is in neither).
    assert check_incompatibility(m, "left", "right", "extensional", quantifier="forall") is T
    assert check_incompatibility(m, "left", "same2", "extensional", quantifier="forall") is F
    with pytest.raises(UndeclaredName):
        check_incompatibility(m, "left", "zz")


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_extensional_incompatibility_against_extension_oracle(n):
    # Every pair of extensions over an n-entity domain: an entity distinguishes
    # the contexts when it lies in exactly one of the two extensions.
    domain = [f"e{i}" for i in range(n)]
    subsets = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(domain, r)]
    for ext1, ext2 in itertools.product(subsets, repeat=2):
        m = Model(domain, [ContextDef("c1", ext1), ContextDef("c2", ext2)], [], background="c1")
        differs = [(e in ext1) != (e in ext2) for e in domain]
        for quantifier, oracle in (("exists", any), ("forall", all)):
            got = check_incompatibility(m, "c1", "c2", "extensional", quantifier=quantifier)
            assert got is Tv3.from_bool(oracle(differs)), (ext1, ext2, quantifier)


# -- guard_of ------------------------------------------------------------------


def test_guard_of_extracts_pairs():
    f5 = schema(5, ["c1", "c2"], "p")
    pairs = guard_of(f5)
    assert pairs == [
        ("c1", PredicateApp("p", "x")),
        ("c2", PredicateApp(undet_name("p"), "x")),
    ]
    f2 = schema(2, ["c"], "p")
    assert guard_of(f2) == [("c", Not(PredicateApp("p", "x")))]


def test_guard_of_rejects_non_schemas():
    with pytest.raises(NotASchema):
        guard_of(Or(PredicateApp("p", "x"), PredicateApp("p", "x")))
    with pytest.raises(NotASchema):
        # Quantifier does not scope over the whole conjunction.
        guard_of(parse("(forall x. (c1(x) -> p(x))) & (c2(x) -> q(x))"))
    with pytest.raises(NotASchema):
        # Missing incompatibility clause for the second guard pair.
        g1, g2 = ContextGuard("c1", "x"), ContextGuard("c2", "x")
        p = PredicateApp("p", "x")
        guard_of(ForAll("x", And(Implies(g1, p), Implies(g2, Not(p)))))
    with pytest.raises(NotASchema):
        guard_of(parse("forall x. (c(x) -> p(x) & q(x))", contexts={"c"}))


def test_guard_of_accepts_parsed_schema_instances():
    text = "forall x. ((w1(x) -> r(x)) & (w2(x) -> ~r(x)) & ~(w1(x) <-> w2(x)))"
    pairs = guard_of(parse(text))
    assert [c for c, _ in pairs] == ["w1", "w2"]


def test_guard_of_takes_three_guards_in_textual_order():
    pairs = guard_of(schema(7, ["a", "b", "c"], "p"))
    assert pairs == [
        ("a", PredicateApp("p", "x")),
        ("b", Not(PredicateApp("p", "x"))),
        ("c", PredicateApp(undet_name("p"), "x")),
    ]


@pytest.mark.parametrize("clauses", [
    "~(c1(x) <-> c2(x)) & ~(c2(x) <-> c3(x)) & ~(c1(x) <-> c4(x))",
    "~(c1(x) <-> c2(x)) & ~(c2(x) <-> c3(x)) & ~(c2(x) <-> c1(x))",
])
def test_guard_of_rejects_the_right_count_of_wrong_clauses(clauses):
    text = f"forall x. ((c1(x) -> p(x)) & (c2(x) -> ~p(x)) & (c3(x) -> q(x)) & {clauses})"
    with pytest.raises(NotASchema, match="pairwise incompatibility clauses do not match"):
        guard_of(parse(text))
