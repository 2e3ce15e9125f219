"""Exhaustive checks of the strong-Kleene connective tables."""
import itertools

import pytest

from sapta.trivalent import Tv3, conj3, disj3, iff3, impl3, neg3

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET
ALL = (T, F, U)


def test_three_distinct_values():
    assert len({T, F, U}) == 3
    assert U is not T and U is not F


def test_value_strings_round_trip():
    for v in ALL:
        assert Tv3.from_str(v.value) is v
    with pytest.raises(ValueError):
        Tv3.from_str("t")


@pytest.mark.parametrize("a,expected", [(T, F), (F, T), (U, U)])
def test_negation_table(a, expected):
    assert neg3(a) is expected


def test_negation_involution():
    for a in ALL:
        assert neg3(neg3(a)) is a


@pytest.mark.parametrize(
    "a,b,expected",
    [(T, T, T), (F, U, F), (U, U, U), (U, T, U), (F, F, F), (T, F, F)],
)
def test_conjunction_table(a, b, expected):
    assert conj3(a, b) is expected


@pytest.mark.parametrize(
    "a,b,expected",
    [(F, F, F), (T, U, T), (U, U, U), (U, F, U), (T, T, T), (F, T, T)],
)
def test_disjunction_table(a, b, expected):
    assert disj3(a, b) is expected


@pytest.mark.parametrize(
    "a,b,expected",
    [(F, T, T), (F, F, T), (F, U, T), (T, U, U), (T, T, T), (T, F, F), (U, U, U)],
)
def test_implication_table(a, b, expected):
    assert impl3(a, b) is expected


def test_de_morgan_all_pairs():
    for a, b in itertools.product(ALL, repeat=2):
        assert disj3(a, b) is neg3(conj3(neg3(a), neg3(b)))
        assert conj3(a, b) is neg3(disj3(neg3(a), neg3(b)))


def test_classical_restriction():
    # Over {T, F} the tables reproduce two-valued logic.
    as_bool = {T: True, F: False}
    for a, b in itertools.product((T, F), repeat=2):
        assert conj3(a, b) is Tv3.from_bool(as_bool[a] and as_bool[b])
        assert disj3(a, b) is Tv3.from_bool(as_bool[a] or as_bool[b])
        assert impl3(a, b) is Tv3.from_bool((not as_bool[a]) or as_bool[b])
        assert neg3(a) is Tv3.from_bool(not as_bool[a])


def test_commutativity_and_idempotence():
    for a, b in itertools.product(ALL, repeat=2):
        assert conj3(a, b) is conj3(b, a)
        assert disj3(a, b) is disj3(b, a)
    for a in ALL:
        assert conj3(a, a) is a
        assert disj3(a, a) is a


def test_associativity_all_triples():
    for a, b, c in itertools.product(ALL, repeat=3):
        assert conj3(conj3(a, b), c) is conj3(a, conj3(b, c))
        assert disj3(disj3(a, b), c) is disj3(a, disj3(b, c))


def test_iff_table():
    for a, b in itertools.product(ALL, repeat=2):
        assert iff3(a, b) is conj3(impl3(a, b), impl3(b, a))
    assert iff3(T, T) is T
    assert iff3(T, F) is F
    assert iff3(U, U) is U
