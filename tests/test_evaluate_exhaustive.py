"""`evaluate` against the rank oracle on every small formula.

Every formula of up to ``MAX_NODES`` nodes over the atoms ``p(x)``,
``c1(x)`` and ``c2(x)`` (``c1`` built as a guard node, ``c2`` as a plain atom
that names a context), with negation, the four binary connectives and both
quantifiers over ``x``, is evaluated with ``x`` bound to each entity of each
model in a fixed family of 2-entity, 2-context models, under both readings
of incompatibility clauses.  The oracle is the one in
`tests/test_evaluation_oracle.py`, which shares no code with sapta's
semantics.
"""
from __future__ import annotations

from sapta.evaluation import evaluate
from sapta.formulas import And, ContextGuard, Exists, ForAll, Iff, Implies, Not, Or, PredicateApp
from test_evaluation_oracle import RANK, oracle, to_model

MAX_NODES = 5
ATOMS = (PredicateApp("p", "x"), ContextGuard("c1", "x"), PredicateApp("c2", "x"))
UNARY = (Not, lambda f: ForAll("x", f), lambda f: Exists("x", f))
BINARY = (And, Or, Implies, Iff)


def formulas_by_size(max_nodes: int) -> list[list]:
    """sizes[n]: every formula of exactly n nodes."""
    sizes = [[], list(ATOMS)]
    for n in range(2, max_nodes + 1):
        out = [make(f) for make in UNARY for f in sizes[n - 1]]
        for left in range(1, n - 1):
            out += [op(a, b) for op in BINARY for a in sizes[left] for b in sizes[n - 1 - left]]
        sizes.append(out)
    return sizes


# (c1's extension, c2's extension, c1 and c2 declared incompatible, background,
#  p in c1 at e0 e1, p in c2 at e0 e1), "-" an unlisted cell.  Between them
# the extensions are disjoint, nested, empty and overlapping, the declared
# relation agrees with the extensions and disagrees, and each column holds
# values the other does not.
MODELS = (
    ("0", "1", True, "c1", "TU", "F-"),
    ("01", "0", False, "c2", "F-", "UT"),
    ("", "01", True, "c2", "-T", "TF"),
    ("1", "01", False, "c1", "UF", "-U"),
)


def world(c1, c2, related, background, p_c1, p_c2) -> dict:
    def extension(digits):
        return frozenset(f"e{d}" for d in digits)

    cells = {("c1", f"e{i}", "p"): v for i, v in enumerate(p_c1)}
    cells.update({("c2", f"e{i}", "p"): v for i, v in enumerate(p_c2)})
    return {
        "domain": ["e0", "e1"],
        "contexts": {"c1": extension(c1), "c2": extension(c2)},
        "valuation": {cell: v for cell, v in cells.items() if v != "-"},
        "incompatible": {("c1", "c2")} if related else set(),
        "background": background,
    }


def test_the_enumeration_counts():
    assert [len(fs) for fs in formulas_by_size(MAX_NODES)] == [0, 3, 9, 63, 405, 3051]


def test_evaluate_matches_the_oracle_on_every_formula_up_to_the_node_bound():
    formulas = [f for fs in formulas_by_size(MAX_NODES) for f in fs]
    worlds = [world(*spec) for spec in MODELS]
    checked = 0
    for w in worlds:
        model = to_model(w)
        for mode in ("relational", "extensional"):
            relational = mode == "relational"
            for entity in w["domain"]:
                env = {"x": entity}
                for f in formulas:
                    want = oracle(f, w, env, None, relational)
                    got = evaluate(f, model, env, incompat_mode=mode)
                    assert RANK[got.value] == want, (w, mode, entity, f)
                    checked += 1
    assert checked == 3531 * len(MODELS) * 2 * 2
