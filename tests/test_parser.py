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
    SourceSpan,
    ast_to_dict,
    free_variables,
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


@pytest.mark.parametrize("text, found, start, end", [
    # "surrogatepass" counts a lone surrogate as three bytes; strict UTF-8
    # raised UnicodeEncodeError while measuring its span.
    ("p(x) & \ud800", "'\\ud800'", 7, 10),
    ("$\ud800", "'$'", 0, 1),  # the first unexpected character raises
])
def test_lone_surrogate_is_an_unexpected_character(text, found, start, end):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert exc.value.found == found
    assert (exc.value.span.start, exc.value.span.end) == (start, end)
    with pytest.raises(ParseError) as exc:
        parse_formula_file("p(x)\n" + text)
    assert (exc.value.span.start, exc.value.span.line) == (start + 5, 2)


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


@pytest.mark.parametrize("text, var, column", [
    ("p(x)", "x", 1),
    ("(forall y. p(y)) & q(y) & r(y)", "y", 20),
    ("exists x. (p(x) -> forall z. q(z) | r(z) | s(a) | t(x))", "a", 44),
    ("q(z) & p(b)", "b", 8),  # the first variable in sorted order
])
def test_unbound_variable_names_its_first_free_atom(text, var, column):
    with pytest.raises(UnboundVariable) as info:
        parse(text, require_closed=True)
    assert info.value.var == var
    assert str(info.value) == f"unbound variable {var!r}"
    assert info.value.span == SourceSpan(column - 1, column + 3, 1, column)


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


def _free_atoms_oracle(f, bound=frozenset()):
    """The atoms at which a variable occurs free, in textual order, by
    recursion on the node classes."""
    if isinstance(f, PredicateApp):
        return [] if f.var in bound else [f]
    if isinstance(f, Not):
        return _free_atoms_oracle(f.operand, bound)
    if isinstance(f, (ForAll, Exists)):
        return _free_atoms_oracle(f.body, bound | {f.var})
    return _free_atoms_oracle(f.left, bound) + _free_atoms_oracle(f.right, bound)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_free_variables_and_unbound_span_match_an_oracle(f):
    text = pretty(f)
    atoms = _free_atoms_oracle(parse(text))
    free = {atom.var for atom in atoms}
    assert free_variables(f) == free
    if free:
        var = min(free)
        with pytest.raises(UnboundVariable) as info:
            parse(text, require_closed=True)
        assert info.value.var == var
        assert info.value.span == next(atom for atom in atoms if atom.var == var).span
    else:
        parse(text, require_closed=True)


@pytest.mark.parametrize("walk", [free_variables, ast_to_dict])
def test_walks_reject_a_non_formula(walk):
    with pytest.raises(TypeError, match="not a formula node: 'p'"):
        walk("p")


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("read", [parse, parse_formula_file])
def test_a_line_ends_at_cr_lf_cr_or_lf_in_a_formula_and_in_a_file(read, newline):
    # A comment ends at the line's end too, so the `$` after it is read.
    text = f"p(x)  # ¬ p{newline}{newline} $ q(x)"
    with pytest.raises(ParseError) as exc:
        read(text)
    start = len(text[:text.index("$")].encode("utf-8"))
    assert exc.value.span == (start, start + 1, 3, 2)
    if read is parse:  # an unfinished formula goes on past the line's end
        with pytest.raises(ParseError) as exc:
            parse(f"p(x) &{newline}$")
        assert exc.value.span == (6 + len(newline), 7 + len(newline), 2, 1)


def test_formula_file_marks_contexts():
    entries = parse_formula_file("forall x. (c(x) -> p(x))\n", contexts={"c"})
    assert entries[0].formula == ForAll("x", Implies(ContextGuard("c", "x"), P("p")))


_LEXEMES = {
    "<->": "iff", "->": "implies", "~": "not", "&": "and", "|": "or", "(": "lparen",
    ")": "rparen", ".": "dot", "forall": "forall", "exists": "exists", "¬": "not",
    "∧": "and", "∨": "or", "→": "implies", "↔": "iff", "∀": "forall", "∃": "exists",
}
_WORD = re.compile(r"[A-Za-z0-9_]")
_LINE_END = re.compile(r"\r\n?|\n")
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
        line_ends = _LINE_END.findall(before)
        assert tok.span.line == line + len(line_ends)
        if line_ends:
            assert tok.span.column == at - max(before.rfind("\n"), before.rfind("\r"))
        else:
            assert tok.span.column == column + at
    eof = tokens[-1]
    assert eof.kind == "eof" and eof.span.start == eof.span.end == offset + len(data)
    assert eof.span.line == line + len(_LINE_END.findall(text))


def _node_spans(node):
    """(node type, *span) of every node, in pre-order."""
    out = [(type(node).__name__, *node.span)]
    for attr in ("operand", "left", "right", "body"):
        child = getattr(node, attr, None)
        if child is not None:
            out += _node_spans(child)
    return out


_PINNED_SPANS = [
    # Every binary level, loosest at the root.
    ("~a(x) & b(x) | c(x) -> d(x) <-> e(x)", (), [
        ("Iff", 0, 36, 1, 1), ("Implies", 0, 27, 1, 1), ("Or", 0, 19, 1, 1),
        ("And", 0, 12, 1, 1), ("Not", 0, 5, 1, 1), ("PredicateApp", 1, 5, 1, 2),
        ("PredicateApp", 8, 12, 1, 9), ("PredicateApp", 15, 19, 1, 16),
        ("PredicateApp", 23, 27, 1, 24), ("PredicateApp", 32, 36, 1, 33),
    ]),
    # & and | chains group to the left.
    ("a(x) & b(x) & c(x) | d(x) | e(x)", (), [
        ("Or", 0, 32, 1, 1), ("Or", 0, 25, 1, 1), ("And", 0, 18, 1, 1),
        ("And", 0, 11, 1, 1), ("PredicateApp", 0, 4, 1, 1), ("PredicateApp", 7, 11, 1, 8),
        ("PredicateApp", 14, 18, 1, 15), ("PredicateApp", 21, 25, 1, 22),
        ("PredicateApp", 28, 32, 1, 29),
    ]),
    # Arrow chains group to the right.
    ("a(x) -> b(x) -> c(x) <-> d(x) <-> e(x)", (), [
        ("Iff", 0, 38, 1, 1), ("Implies", 0, 20, 1, 1), ("PredicateApp", 0, 4, 1, 1),
        ("Implies", 8, 20, 1, 9), ("PredicateApp", 8, 12, 1, 9),
        ("PredicateApp", 16, 20, 1, 17), ("Iff", 25, 38, 1, 26),
        ("PredicateApp", 25, 29, 1, 26), ("PredicateApp", 34, 38, 1, 35),
    ]),
    # A parenthesized operand's span leaves its parentheses out.
    ("(a(x) | b(x)) & ~(c(x) -> d(x))", (), [
        ("And", 1, 30, 1, 2), ("Or", 1, 12, 1, 2), ("PredicateApp", 1, 5, 1, 2),
        ("PredicateApp", 8, 12, 1, 9), ("Not", 16, 30, 1, 17), ("Implies", 18, 30, 1, 19),
        ("PredicateApp", 18, 22, 1, 19), ("PredicateApp", 26, 30, 1, 27),
    ]),
    ("forall x. (p(x) -> exists y. q(y) & r(x))", (), [
        ("ForAll", 0, 40, 1, 1), ("Implies", 11, 40, 1, 12), ("PredicateApp", 11, 15, 1, 12),
        ("Exists", 19, 40, 1, 20), ("And", 29, 40, 1, 30), ("PredicateApp", 29, 33, 1, 30),
        ("PredicateApp", 36, 40, 1, 37),
    ]),
    # Unicode aliases: byte offsets run ahead of columns, across a line break.
    ("∀x. (p(x) → ¬q(x) ∧ r(x)) ↔\n  ∃y. s(y) ∨ t(y)", (), [
        ("ForAll", 0, 58, 1, 1), ("Iff", 7, 58, 1, 6), ("Implies", 7, 31, 1, 6),
        ("PredicateApp", 7, 11, 1, 6), ("And", 16, 31, 1, 13), ("Not", 16, 22, 1, 13),
        ("PredicateApp", 18, 22, 1, 14), ("PredicateApp", 27, 31, 1, 21),
        ("Exists", 39, 58, 2, 3), ("Or", 45, 58, 2, 7), ("PredicateApp", 45, 49, 2, 7),
        ("PredicateApp", 54, 58, 2, 14),
    ]),
    ("forall x. (c(x) -> ~p(x))", ("c",), [
        ("ForAll", 0, 24, 1, 1), ("Implies", 11, 24, 1, 12), ("ContextGuard", 11, 15, 1, 12),
        ("Not", 19, 24, 1, 20), ("PredicateApp", 20, 24, 1, 21),
    ]),
]


@pytest.mark.parametrize("text, contexts, spans", _PINNED_SPANS)
def test_node_spans_are_pinned(text, contexts, spans):
    assert _node_spans(parse(text, contexts=contexts)) == spans


# ASCII spelling -> Unicode alias, read off _LEXEMES.
_ALIASES = {
    plain: alias
    for plain, kind in _LEXEMES.items() if plain.isascii()
    for alias, alias_kind in _LEXEMES.items() if alias_kind == kind and not alias.isascii()
}
_SPELLINGS = re.compile("|".join(re.escape(s) for s in sorted(_ALIASES, key=len, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(_formulas, st.sets(st.sampled_from(sorted(_ALIASES))))
def test_roundtrip_with_unicode_aliases(f, replaced):
    text = _SPELLINGS.sub(
        lambda m: _ALIASES[m.group()] if m.group() in replaced else m.group(), pretty(f)
    )
    assert parse(text) == f
