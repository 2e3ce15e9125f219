"""Parser, pretty-printer, and their round-trip."""
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers_formulas import random_formula
from sapta.errors import ParseError, UnboundVariable
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
    pretty,
)
from sapta.parser import MAX_DEPTH, parse, parse_formula_file, tokenize


def P(name, var="x"):
    return PredicateApp(name, var)


def test_parse_guarded_conditional():
    got = parse("forall x. (phi(x) -> p(x))", contexts={"phi"})
    assert got == ForAll("x", Implies(ContextGuard("phi", "x"), P("p")))


def test_parse_without_context_hint_yields_predicates():
    got = parse("forall x. (phi(x) -> p(x))")
    assert got == ForAll("x", Implies(P("phi"), P("p")))


def test_parse_follows_declared_precedence():
    # '&' binds tighter than '->', and '->' is right-associative, so the
    # unparenthesized guard chain groups as a nested implication.
    got = parse(
        "forall x. (phi(x) -> p(x) & phi2(x) -> ~p(x)) & ~(phi(x) <-> phi2(x))",
        contexts={"phi", "phi2"},
    )
    g1, g2 = ContextGuard("phi", "x"), ContextGuard("phi2", "x")
    expected = ForAll(
        "x",
        And(
            Implies(g1, Implies(And(P("p"), g2), Not(P("p")))),
            Not(Iff(g1, g2)),
        ),
    )
    assert got == expected


def test_unbalanced_delimiter_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("p(x")
    assert exc.value.span.start == 3
    assert ")" in exc.value.expected


def test_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("p(x) &")
    assert exc.value.span.start == 6
    assert exc.value.span.column == 7


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("p(x) $ q(x)")
    assert exc.value.span.start == 5


def test_unicode_aliases():
    ascii_form = parse("forall x. (a(x) -> b(x) & ~c(x) | d(x) <-> exists y. e(y))")
    unicode_form = parse("∀x. (a(x) → b(x) ∧ ¬c(x) ∨ d(x) ↔ ∃y. e(y))")
    assert ascii_form == unicode_form


def test_comments_and_whitespace_insignificant():
    assert parse("p(x)&q(x)  # trailing comment") == parse(" p( x ) & q( x ) ")


def test_precedence_chain():
    got = parse("~a(x) & b(x) | c(x) -> d(x) <-> e(x)")
    expected = Iff(
        Implies(Or(And(Not(P("a")), P("b")), P("c")), P("d")),
        P("e"),
    )
    assert got == expected


def test_arrows_right_associative():
    assert parse("a(x) -> b(x) -> c(x)") == Implies(P("a"), Implies(P("b"), P("c")))
    assert parse("a(x) <-> b(x) <-> c(x)") == Iff(P("a"), Iff(P("b"), P("c")))


def test_chains_left_associative():
    assert parse("a(x) & b(x) & c(x)") == And(And(P("a"), P("b")), P("c"))
    assert parse("a(x) | b(x) | c(x)") == Or(Or(P("a"), P("b")), P("c"))


def test_quantifier_extends_maximally_right():
    got = parse("a(x) & forall y. b(y) & c(x)")
    assert got == And(P("a"), ForAll("y", And(P("b", "y"), P("c"))))


def test_nesting_depth_is_bounded():
    # At most MAX_DEPTH constructs open at once...
    fits = "(" * MAX_DEPTH + "p(x)" + ")" * MAX_DEPTH
    assert parse(fits) == P("p")
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse("(" + fits + ")")
    assert exc.value.span.start == MAX_DEPTH  # the first parenthesis too many
    # ...and at most MAX_DEPTH nodes from the root of the tree to a leaf.
    for opener in ("~", "forall x. ", "p(x) -> "):
        fits = opener * (MAX_DEPTH - 1) + "p(x)"
        assert parse(pretty(parse(fits))) == parse(fits)
        with pytest.raises(ParseError, match="nested deeper"):
            parse(opener + fits)
    # Left-associative chains build deep trees without deep recursion.
    assert parse(" & ".join(["p(x)"] * MAX_DEPTH))
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse(" | ".join(["p(x)"] * (MAX_DEPTH + 1)))
    assert exc.value.span is not None
    with pytest.raises(ParseError, match="nested deeper"):
        parse("~" * 60 + "(" + " & ".join(["p(x)"] * 60) + ")")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse("p(x) q(x)")


def test_parse_determinism():
    text = "forall x. ((a(x) -> b(x)) & ~(a(x) <-> c(x)))"
    assert parse(text) == parse(text)


def test_require_closed():
    with pytest.raises(UnboundVariable):
        parse("p(x)", require_closed=True)
    parse("forall x. p(x)", require_closed=True)


def test_pretty_canonical_guarded_conditional():
    f = ForAll("x", Implies(ContextGuard("phi", "x"), P("p")))
    assert pretty(f) == "forall x. (phi(x) -> p(x))"


def test_pretty_does_not_rewrite():
    assert pretty(Not(Not(P("p")))) == "~~p(x)"


def test_pretty_parenthesizes_open_quantifiers():
    f = And(ForAll("y", P("b", "y")), P("c"))
    text = pretty(f)
    assert text == "(forall y. b(y)) & c(x)"
    assert parse(text) == f


def test_pretty_right_edge_quantifier_unparenthesized():
    f = And(P("c"), ForAll("y", P("b", "y")))
    assert pretty(f) == "c(x) & forall y. b(y)"
    assert parse(pretty(f)) == f


def test_roundtrip_seeded_generator():
    rng = random.Random(20240811)
    for _ in range(300):
        f = random_formula(rng)
        assert parse(pretty(f)) == f


_names = st.sampled_from(("p", "q", "phi"))
_vars = st.sampled_from(("x", "y"))
_atoms = st.builds(PredicateApp, _names, _vars)
_formulas = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(ForAll, _vars, kids),
        st.builds(Exists, _vars, kids),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_roundtrip_hypothesis(f):
    assert parse(pretty(f)) == f


def test_every_parsed_node_carries_a_span():
    f = parse("forall x. (~a(x) & b(x) | c(x) -> d(x) <-> exists y. e(y))")

    def walk(node):
        assert node.span is not None
        assert node.span.start <= node.span.end
        for attr in ("operand", "left", "right", "body"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child)

    walk(f)


def test_spans_ignored_by_equality():
    assert parse("p(x) & q(x)") == parse("p(x)   &   q(x)")


def test_formula_file_named_blocks():
    text = (
        "# corpus of schemas\n"
        "\n"
        "let one = forall x. (c(x) -> p(x))\n"
        "p(x) & q(x)\n"
        "   # indented comment only\n"
        "let two = ~p(x)\n"
    )
    entries = parse_formula_file(text)
    assert [(e.name, e.line) for e in entries] == [("one", 3), (None, 4), ("two", 6)]
    assert entries[0].formula == ForAll("x", Implies(P("c"), P("p")))
    assert entries[2].formula == Not(P("p"))


def test_formula_file_error_carries_file_line():
    with pytest.raises(ParseError) as exc:
        parse_formula_file("p(x)\nlet bad = q(x\n")
    assert exc.value.span.line == 2


def test_formula_file_marks_contexts():
    entries = parse_formula_file("forall x. (c(x) -> p(x))\n", contexts={"c"})
    assert entries[0].formula == ForAll("x", Implies(ContextGuard("c", "x"), P("p")))


_LEXEMES = {
    "<->": "iff", "->": "implies", "~": "not", "&": "and", "|": "or", "(": "lparen",
    ")": "rparen", ".": "dot", "forall": "forall", "exists": "exists", "¬": "not",
    "∧": "and", "∨": "or", "→": "implies", "↔": "iff", "∀": "forall", "∃": "exists",
}
_WORD = re.compile(r"[A-Za-z0-9_]")
_GAPS = st.lists(
    st.sampled_from([" ", "\t", "\n", "　", "\xa0", "\r", "# ¬ é ∀\n", "#\n"]), max_size=3
).map("".join)


@st.composite
def _token_texts(draw):
    """Formula text with the (kind, text, character offset) of every token."""
    text, tokens = "", []
    for _ in range(draw(st.integers(0, 12))):
        gap = draw(_GAPS)
        word = draw(st.sampled_from(sorted(_LEXEMES))
                    | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True))
        if not gap and tokens and _WORD.match(word) and _WORD.match(tokens[-1][1][-1]):
            gap = " "  # two words in a row need something between them
        text += gap
        tokens.append((_LEXEMES.get(word, "ident"), word, len(text)))
        text += word
    return text + draw(_GAPS), tokens


@settings(max_examples=200, deadline=None)
@given(_token_texts(), st.integers(1, 5), st.integers(1, 5), st.integers(0, 50))
def test_token_spans_match_the_text(case, line, column, offset):
    text, expected = case
    tokens = tokenize(text, line=line, column=column, offset=offset)
    assert [(t.kind, t.text) for t in tokens[:-1]] == [(kind, word) for kind, word, _ in expected]
    data = text.encode("utf-8")
    for tok, (_, word, at) in zip(tokens, expected):
        before = text[:at]
        assert data[tok.span.start - offset:tok.span.end - offset].decode("utf-8") == word
        assert tok.span.start == offset + len(before.encode("utf-8"))
        assert tok.span.line == line + before.count("\n")
        if "\n" in before:
            assert tok.span.column == at - before.rindex("\n")
        else:
            assert tok.span.column == column + at
    eof = tokens[-1]
    assert eof.kind == "eof" and eof.span.start == eof.span.end == offset + len(data)
    assert eof.span.line == line + text.count("\n")
