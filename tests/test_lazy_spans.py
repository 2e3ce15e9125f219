"""Lazy spans: parsed nodes and tokens resolve their spans only when read."""
import copy
import pickle
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import sapta.parser as parser
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
    pretty,
)
from sapta.cli import main
from sapta.parser import parse, parse_formula_file, tokenize

_CHILDREN = ("operand", "left", "right", "body")


def _nodes(node):
    """Every node of the tree, in pre-order."""
    out = [node]
    for attr in _CHILDREN:
        child = getattr(node, attr, None)
        if child is not None:
            out += _nodes(child)
    return out


def _node_spans(node):
    return [(type(n).__name__, *n.span) for n in _nodes(node)]


# The token kind that opens each node class other than the binary ones.
_OPENER = {Not: "not", ForAll: "forall", Exists: "exists", PredicateApp: "ident", ContextGuard: "ident"}


def _oracle_spans(node, tokens):
    """(type, *span) of every node in pre-order, read off the token list.

    The Not, quantifier and atom nodes, in pre-order, are the `~`, quantifier
    and atom-name tokens in source order.  A node starts at its own token, a
    binary node where its left operand starts; every node ends at the `)`
    closing its rightmost atom.
    """
    openers = iter([
        k for k, tok in enumerate(tokens)
        if tok.kind in ("not", "forall", "exists")
        or (tok.kind == "ident" and tokens[k + 1].kind == "lparen")
    ])
    out = []

    def walk(n):
        entry = len(out)
        out.append(None)
        if hasattr(n, "left"):
            first, _ = walk(n.left)
            _, last = walk(n.right)
        else:
            first = next(openers)
            assert tokens[first].kind == _OPENER[type(n)]
            if hasattr(n, "var") and not hasattr(n, "body"):  # an atom
                last = first + 3
                assert tokens[last].kind == "rparen"
            else:
                _, last = walk(getattr(n, "operand", None) or n.body)
        start, _, line, column = tokens[first].span
        out[entry] = (type(n).__name__, start, tokens[last].span.end, line, column)
        return first, last

    walk(node)
    assert next(openers, None) is None
    return out


_names = st.sampled_from(("p", "q", "phi"))
_vars = st.sampled_from(("x", "y"))
_formulas = st.recursive(
    st.builds(PredicateApp, _names, _vars),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(ForAll, _vars, kids),
        st.builds(Exists, _vars, kids),
    ),
    max_leaves=20,
)
_ALIASES = {"~": "¬", "&": "∧", "|": "∨", "->": "→", "<->": "↔", "forall": "∀", "exists": "∃"}
_WORDS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|<->|->|[~&|().]")
_WORD_CHAR = re.compile(r"\w")
_SPACES = ["", " ", "  ", "\t", "　", "\xa0"]
_BREAKS = ["\n", "# ¬ é ∀\n", "\n\n  "]


@st.composite
def _texts(draw, breaks: bool):
    """(formula, text): the formula written with random spacing, Unicode
    aliases and enclosing parentheses; with `breaks`, also line breaks and
    comments."""
    f = draw(_formulas)
    words = _WORDS.findall(pretty(f))
    wraps = draw(st.integers(0, 2))
    words = ["("] * wraps + words + [")"] * wraps
    gaps = st.sampled_from(_SPACES + _BREAKS if breaks else _SPACES)
    text = draw(gaps)
    for k, word in enumerate(words):
        if k:
            gap = draw(gaps)
            if not gap and _WORD_CHAR.match(text[-1]) and _WORD_CHAR.match(word):
                gap = " "  # two words in a row need something between them
            text += gap
        text += _ALIASES[word] if word in _ALIASES and draw(st.booleans()) else word
    return f, text + draw(gaps)


def _with_contexts(f, contexts):
    """`f` with the atoms named in `contexts` as guards."""
    if isinstance(f, PredicateApp):
        return ContextGuard(f.name, f.var) if f.name in contexts else f
    if isinstance(f, Not):
        return Not(_with_contexts(f.operand, contexts))
    if hasattr(f, "body"):
        return type(f)(f.var, _with_contexts(f.body, contexts))
    return type(f)(_with_contexts(f.left, contexts), _with_contexts(f.right, contexts))


_CONTEXTS = st.sets(_names)


@settings(max_examples=200, deadline=None)
@given(_texts(breaks=True), _CONTEXTS)
def test_parse_node_spans_match_the_tokens(case, contexts):
    f, text = case
    got = parse(text, contexts=contexts)
    assert got == _with_contexts(f, contexts)
    assert _node_spans(got) == _oracle_spans(got, list(tokenize(text)))


_PREFIX_LINES = st.lists(st.sampled_from(["", "  ", "# é ∀ ¬", "\t# comment"]), max_size=3)
_LET = st.sampled_from(["", "let f = ", "  let  g1=", "let h =　"])


@settings(max_examples=200, deadline=None)
@given(_PREFIX_LINES, _LET, _texts(breaks=False), st.sampled_from(["", "  # ¬ trailing"]),
       _CONTEXTS)
def test_file_node_spans_match_the_tokens(before, let, case, comment, contexts):
    f, text = case
    lines = [*before, let + text + comment]
    (entry,) = parse_formula_file("\n".join(lines) + "\n", contexts=contexts)
    assert entry.formula == _with_contexts(f, contexts)
    assert entry.line == len(lines)
    # The target line lexed on its own at its place in the file, with the
    # characters of its `let` prefix blanked out, so columns and offsets stay.
    offset = sum(len(line.encode("utf-8")) + 1 for line in before)
    blanked = re.sub(r"\S", " ", let)
    tokens = list(tokenize(blanked + text + comment, line=len(lines), offset=offset))
    assert _node_spans(entry.formula) == _oracle_spans(entry.formula, tokens)


def _balanced_text(groups: int, width: int) -> str:
    return " | ".join(
        "(" + " & ".join(f"p{g}_{k}(x)" for k in range(width)) + ")" for g in range(groups)
    )


def test_span_pass_runs_once_per_fragment(monkeypatch):
    calls = []
    spans_of = parser._token_list

    def counted(*args):
        calls.append(args[0])
        return spans_of(*args)

    monkeypatch.setattr(parser, "_token_list", counted)
    text = _balanced_text(20, 20)
    f = parse(text)
    assert len(tokenize(text)) > 2000 and not calls  # parsing builds no span
    spans = [node.span for node in _nodes(f)]
    assert len(spans) == 799 and calls == [text]
    assert spans[0] == SourceSpan(1, len(text) - 1, 1, 2)

    lines = [_balanced_text(4, 5), "# comment", "let a = " + _balanced_text(3, 6), ""]
    entries = parse_formula_file("\n".join(lines))
    calls.clear()
    for entry in entries:
        assert all(node.span is not None for node in _nodes(entry.formula))
    assert len(calls) == len(entries) == 2


def test_spans_are_built_for_errors_only(monkeypatch, tmp_path):
    calls = []
    spans_of = parser._token_list

    def counted(*args):
        calls.append(args[0])
        return spans_of(*args)

    monkeypatch.setattr(parser, "_token_list", counted)
    model = tmp_path / "m.json"
    model.write_text(
        '{"domain": ["a"], "background": "c", "contexts": [{"name": "c", "extension": ["a"]}],'
        ' "predicates": ["p"]}'
    )
    good, open_, undeclared = (tmp_path / name for name in ("good", "open", "undeclared"))
    good.write_text("forall x. (c(x) -> p(x))\nlet e = exists y. ~p(y)\n")
    open_.write_text("forall x. p(x)\nforall x. p(y)\n")
    undeclared.write_text("forall x. p(x)\nforall x. q(x)\n")
    assert main(["eval", str(good), "--model", str(model)]) == 0
    assert calls == []
    for path in (open_, undeclared):
        assert main(["eval", str(path), "--model", str(model), "--format", "text"]) == 1
    assert calls == ["forall x. p(y)", "forall x. q(x)"]


def test_tokenize_hook_sees_every_formula_line(monkeypatch):
    """The benchmark's traced run counts tokens by wrapping ``parser.tokenize``."""
    lines = [
        "forall x. (c(x) -> p(x))",
        "",
        "# ¬ comment",
        "~p(y) ∧ q(y)   # trailing",
        "let one = exists z. r(z)",
    ]
    fragments = ["forall x. (c(x) -> p(x))", "~p(y) ∧ q(y)   ", "exists z. r(z)"]
    seen = []
    original = parser.tokenize

    def counting(text, **coords):
        tokens = original(text, **coords)
        seen.append(len(tokens))
        return tokens

    monkeypatch.setattr(parser, "tokenize", counting)
    assert len(parse_formula_file("\n".join(lines))) == 3
    assert len(seen) == 3  # one call per formula line
    assert sum(seen) == sum(len(list(original(frag))) for frag in fragments)
    parse("p(x) & q(x)")
    assert seen[3:] == [len(list(original("p(x) & q(x)")))] == [10]


def test_tokens_read_like_the_token_list():
    text = "∀x. (p(x)\n  → ¬q(x))"
    tokens = tokenize(text, line=3, column=4, offset=10)
    eager = parser._token_list(text, 3, 4, 10)
    assert list(tokens) == eager and len(tokens) == len(eager)
    assert tokens[0] == eager[0] and tokens[-1] == eager[-1]
    assert tokens[2:5] == eager[2:5] and isinstance(tokens[2:5], list)
    assert tokens.words == [tok.text for tok in eager]


def test_unexpected_character_raises_from_tokenize():
    with pytest.raises(parser.ParseError) as exc:
        tokenize("p(x) &\n  é $ q(x)", offset=5)
    assert str(exc.value).startswith("unexpected character 'é'")
    assert exc.value.span == SourceSpan(14, 16, 2, 3)


_MARKER = "zzq_marker_comment"


def test_parsed_nodes_pickle_without_their_tokens():
    text = f"forall x. (p(x) -> ~q(x) & exists y. r(y))  # {_MARKER}"
    f = parse(text)
    data = pickle.dumps(f)
    assert _MARKER.encode() not in data and b"Tokens" not in data
    assert b"SourceSpan" in data
    back = pickle.loads(data)
    assert all(type(node._span) is SourceSpan for node in _nodes(back))
    for other in (back, copy.deepcopy(f), copy.copy(f)):
        assert other == f
        assert _node_spans(other) == _node_spans(f)


def test_parsed_nodes_compare_like_built_nodes():
    built = ForAll("x", Implies(PredicateApp("p", "x"), And(Not(PredicateApp("q", "x")),
                                                            ContextGuard("c", "x"))))
    text = "forall x. (p(x) -> ~q(x) & c(x))"
    parsed = parse(text, contexts={"c"})
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert parsed.span == SourceSpan(0, len(text) - 1, 1, 1) and built.span is None
