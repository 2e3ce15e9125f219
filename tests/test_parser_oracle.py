"""The parser against the one it replaced, kept here as an oracle.

The oracle dispatched on a list of token kinds, one per word, and opened
every nesting level through one method, `nested(at, production, *args)`.
`parse` must give the same tree with the same span on every node, and the
same error: its type, message, span, `expected` and `found`.
"""
import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from sapta.errors import ParseError
from sapta.formulas import OPERATORS, ContextGuard, Formula, Not, PredicateApp
from sapta.parser import MAX_DEPTH, _check_height, _too_deep, parse, tokenize

_KIND = {text: kind for kind, _, plain, alias, _ in OPERATORS for text in (plain, alias)} | {
    "(": "lparen", ")": "rparen", ".": "dot", "": "eof"
}
_DESCRIPTION = {
    **{kind: f"'{plain}'" for kind, _, plain, _, _ in OPERATORS},
    "lparen": "'('", "rparen": "')'", "dot": "'.'", "ident": "identifier", "eof": "end of input",
}
_INFIX = {
    kind: (level, node, assoc == "right")
    for level, (kind, node, _, _, assoc) in enumerate(OPERATORS, 1)
    if assoc != "prefix"
}
_PREFIX = {kind: node for kind, node, _, _, assoc in OPERATORS if assoc == "prefix"}
_OPERAND_START = {*_PREFIX, "lparen", "ident"}


class _OracleParser:
    def __init__(self, tokens, contexts):
        self.tokens = tokens
        self.kinds = [_KIND.get(word, "ident") for word in tokens.words]
        self.words = tokens.words
        self.contexts = contexts
        self.pos = 0
        self.depth = 0
        self.operators = 0

    def expect(self, kind):
        if self.kinds[self.pos] != kind:
            self.fail({kind})
        self.pos += 1
        return self.words[self.pos - 1]

    def fail(self, expected):
        tok = self.tokens[self.pos]
        names = sorted(_DESCRIPTION[k] for k in expected)
        found = repr(tok.text) if tok.kind == "ident" else _DESCRIPTION.get(tok.kind, repr(tok.text))
        raise ParseError(
            f"expected {' or '.join(names)}, got {found}",
            span=tok.span,
            expected={_DESCRIPTION[k].strip("'") for k in expected},
            found=found,
        )

    def nested(self, at, production, *args):
        if self.depth == MAX_DEPTH:
            raise _too_deep(self.tokens[at].span)
        self.depth += 1
        self.operators += 1
        node = production(*args)
        self.depth -= 1
        return node

    def formula(self, level=1):
        node = self.unary()
        while True:
            row = _INFIX.get(self.kinds[self.pos])
            if row is None or row[0] < level:
                return node
            op_level, cls, right_assoc = row
            self.pos += 1
            if right_assoc:
                rhs = self.nested(self.pos - 1, self.formula, op_level)
            else:
                self.operators += 1
                rhs = self.formula(op_level + 1)
            node = cls(node, rhs, (self.tokens, node._span[1], rhs._span[2]))

    def unary(self):
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        if kind == "ident":
            if kinds[pos + 1] != "lparen" or kinds[pos + 2] != "ident" or kinds[pos + 3] != "rparen":
                self.pos += 1
                self.expect("lparen")
                self.expect("ident")
                self.expect("rparen")
            self.pos = pos + 4
            name = self.words[pos]
            cls = ContextGuard if name in self.contexts else PredicateApp
            return cls(name, self.words[pos + 2], (self.tokens, pos, pos + 3))
        cls = _PREFIX.get(kind)
        if cls is Not:
            self.pos += 1
            operand = self.nested(pos, self.unary)
            return Not(operand, (self.tokens, pos, operand._span[2]))
        if cls is not None:
            self.pos += 1
            var = self.expect("ident")
            self.expect("dot")
            body = self.nested(pos, self.formula)
            return cls(var, body, (self.tokens, pos, body._span[2]))
        if kind == "lparen":
            self.pos += 1
            inner = self.nested(pos, self.formula)
            self.expect("rparen")
            return inner
        self.fail(_OPERAND_START)
        raise AssertionError("unreachable")


def _oracle_parse(text, contexts):
    tokens = tokenize(text)
    parser = _OracleParser(tokens, contexts)
    f = parser.formula()
    if parser.kinds[parser.pos] != "eof":
        parser.fail({"eof"})
    tokens.words = None
    if parser.operators >= MAX_DEPTH:
        _check_height(f)
    return f


def _spans(f):
    """(type, span) of every node, in pre-order."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        out.append((type(node).__name__, node.span))
        stack.extend(reversed([v for v in node._values() if isinstance(v, Formula)]))
    return out


def _outcome(run):
    """The tree and its nodes' spans, or the error's type, text, span, expected and found."""
    try:
        f = run()
    except ParseError as exc:
        return type(exc), str(exc), exc.span, exc.expected, exc.found
    return f, _spans(f)


def _assert_parses_like_the_oracle(text, contexts=frozenset({"c"})):
    want = _outcome(lambda: _oracle_parse(text, contexts))
    assert _outcome(lambda: parse(text, contexts=contexts)) == want


_SPELLINGS = sorted({text for _, _, plain, alias, _ in OPERATORS for text in (plain, alias)})
_WORDS = [*_SPELLINGS, "(", ")", ".", "p", "q", "c", "x", "y", "and", "not", "implies", "eof",
          "forallx", "# comment", "# ¬ (", "p(x)", "c(y)"]
_SEPARATORS = st.sampled_from([" ", "", "\n", "  ", "\t"])
_WORD_TEXTS = st.lists(st.tuples(st.sampled_from(_WORDS), _SEPARATORS), max_size=24).map(
    lambda pairs: "".join(word + sep for word, sep in pairs))


def _render(tree, draw):
    """Formula text of a generated tree: each operator in a drawn spelling,
    each binary connective and quantifier body parenthesized or not."""
    kind, *parts = tree
    if kind == "atom":
        return f"{parts[0]}({parts[1]})"
    text = draw(st.sampled_from(_SPELLING[kind]))
    if kind == "not":
        return text + _render(parts[0], draw)
    if kind in ("forall", "exists"):
        text, inner = f"{text} {parts[0]}.", _render(parts[1], draw)
    else:
        text, inner = _render(parts[0], draw), f"{text} {_render(parts[1], draw)}"
    return f"({text} {inner})" if draw(st.booleans()) else f"{text} {inner}"


_ATOMS = st.tuples(st.just("atom"), st.sampled_from(["p", "q", "c"]), st.sampled_from(["x", "y"]))
_TREES = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["and", "or", "implies", "iff"]), sub, sub),
    st.tuples(st.just("not"), sub),
    st.tuples(st.sampled_from(["forall", "exists"]), st.sampled_from(["x", "y"]), sub),
), max_leaves=12)
_SPELLING = {kind: (plain, alias) for kind, _, plain, alias, _ in OPERATORS}


@st.composite
def _formula_texts(draw):
    return _render(draw(_TREES), draw)


@settings(max_examples=600, deadline=None)
@given(_WORD_TEXTS)
@example("forall x. (c(x) -> p(x)) & ~(c(x) <-> q(x)) | exists y. q(y)")
@example("p(x) & q(x) p(x)")
@example("forall . p(x)")
@example("p(x")
@example("p(( x)")
@example("")
@example("and(x) → not(x)")
def test_word_sequences_parse_as_the_oracle_parses(text):
    _assert_parses_like_the_oracle(text)


@pytest.mark.parametrize("word", _WORDS)
def test_each_word_in_each_place_of_an_atom_parses_as_the_oracle_parses(word):
    for text in (f"{word}(x)", f"p({word})", f"p({word} x)", f"p {word} x)", f"p(x {word}",
                 f"p(x) {word}", f"{word} p(x)", f"~{word}", f"forall {word}. p(x)"):
        _assert_parses_like_the_oracle(text)


@settings(max_examples=300, deadline=None)
@given(_formula_texts())
def test_formulas_parse_as_the_oracle_parses(text):
    _assert_parses_like_the_oracle(text)
    _assert_parses_like_the_oracle(text[:-1])  # cut short


def _nestings(n):
    """Texts that nest each construct `n` times around or after p(x)."""
    yield "(" * n + "p(x)" + ")" * n
    yield "~" * n + "p(x)"
    yield "¬(" * n + "p(x)" + ")" * n
    for quantifier in ("forall", "∃"):
        yield f"{quantifier} x. " * n + "p(x)"
        yield f"{quantifier} x. (" * n + "p(x)" + ")" * n
        yield f"{quantifier} . " * n + "p(x)"  # malformed: the variable is missing
    for op in ("->", "→", "<->", "↔", "&", "∧", "|", "∨"):
        yield f"p(x) {op} " * n + "p(x)"
        yield "(" * n + "p(x)" + f" {op} p(x))" * n
    yield "~(p(x) -> " * n + "p(x)" + ")" * n
    # Malformed at the limit: a quantifier's header is read before its level is checked.
    yield "(" * n + "forall . p(x)" + ")" * n
    yield "~" * n + "∃ x p(x)"
    yield "p(x) -> " * n + "p(x"


@pytest.mark.parametrize("n", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
def test_nesting_to_the_limit_parses_as_the_oracle_parses(n):
    for text in _nestings(n):
        _assert_parses_like_the_oracle(text)
        _assert_parses_like_the_oracle(text + " )")
