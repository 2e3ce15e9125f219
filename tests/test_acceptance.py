"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import math
import random

import numpy as np

from helpers_formulas import random_formula
from sapta.evaluation import evaluate
from sapta.formulas import pretty, schema
from sapta.parser import parse
from sapta.predication import (
    Entailment,
    Judgment,
    PredicationTag,
    classify,
    entails,
    induced_model,
    mutual_exclusivity_certificate,
    tag_for_values,
)
from sapta.quantum import Operator, StateVector, weak_value
from sapta.scenarios import run_corpus, scenario_cat, scenario_epr
from sapta.semantics import ContextDef, Model
from sapta.trivalent import Tv3, conj3, disj3, impl3, neg3

T, F, U = Tv3.TRUE, Tv3.FALSE, Tv3.UNDET
SQRT2 = math.sqrt(2.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def incompat_model(*names):
    names = sorted(names)
    return Model(
        domain=["e"],
        contexts=[ContextDef(c, {"e"}) for c in names],
        predicates=["p"],
        incompatible=list(itertools.combinations(names, 2)),
        background=names[0],
    )


def test_criterion_1_sevenfold_exhaustiveness():
    m = incompat_model("c1", "c2", "c3")
    contexts = ("c1", "c2", "c3")
    tags = set()
    ok = True
    for r in range(1, 4):
        for values in itertools.combinations((T, F, U), r):
            js = [Judgment(contexts[i], "p", v) for i, v in enumerate(values)]
            got = classify(js, m, "p")
            ok = ok and got.tag is tag_for_values(values)
            tags.add(got.tag)
    expected = {PredicationTag(f"P{k}") for k in range(1, 8)}
    ok = ok and tags == expected
    report(1, "sevenfold exhaustiveness", ok, f"{len(tags)}/7 classes, bijective")


def test_criterion_2_mutual_exclusivity():
    rows = mutual_exclusivity_certificate()
    distinct = sum(1 for r in rows if r.verdict == "distinct")
    report(2, "mutual exclusivity certificate", distinct == 21 and len(rows) == 21,
           f"{distinct}/21 distinct")


def test_criterion_3_explosion_blocking():
    rng = random.Random(0)
    m = Model(
        domain=["e"],
        contexts=[ContextDef(c, {"e"}) for c in ("c1", "c2", "c3", "c4")],
        predicates=["p", "r"],
        incompatible=list(itertools.combinations(("c1", "c2", "c3", "c4"), 2)),
        background="c1",
    )
    undetermined = 0
    trials = 1000
    for _ in range(trials):
        # A T/F pair on one predicate under incompatible contexts ...
        js = [Judgment("c1", "p", T), Judgment("c2", "p", F)]
        if rng.random() < 0.5:
            js.append(Judgment("c3", "p", rng.choice((T, F, U))))
        rng.shuffle(js)
        # ... queried about a fresh predicate or a fresh context.
        if rng.random() < 0.5:
            query = Judgment(rng.choice(("c1", "c2", "c3", "c4")), "r", rng.choice((T, F, U)))
        else:
            query = Judgment("c4", rng.choice(("p", "r")), rng.choice((T, F, U)))
        if entails(js, m, query) is Entailment.UNDETERMINED:
            undetermined += 1
    report(3, "explosion blocking", undetermined == trials, f"{undetermined}/{trials} undetermined")


def test_criterion_4_schema_round_trip():
    passed = 0
    for k in range(1, 8):
        values = [v for v, keep in zip((T, F, U), _membership(k)) if keep]
        contexts = ("c1", "c2", "c3")[: len(values)]
        js = [Judgment(c, "p", v) for c, v in zip(contexts, values)]
        m = induced_model(js, "p")
        cls = classify(js, m, "p")
        if cls.tag is PredicationTag(f"P{k}") and evaluate(
            schema(k, cls.contexts_used, "p"), m
        ) is T:
            passed += 1
    report(4, "schema round-trip", passed == 7, f"{passed}/7")


def _membership(k):
    return {
        1: (True, False, False),
        2: (False, True, False),
        3: (False, False, True),
        4: (True, True, False),
        5: (True, False, True),
        6: (False, True, True),
        7: (True, True, True),
    }[k]


def test_criterion_5_corpus_pinning():
    pinned = {
        "double_slit": "P7",
        "cat_closed": "P3",
        "cat_open_alive": "P5",
        "cat_open_dead": "P6",
        "wigner": "P5",
        "qcc": "P7",
        "threshold": "P7",
    }
    by_name = {r.name: r for r in run_corpus(0)}
    failures = [
        name
        for name, tag in pinned.items()
        if by_name[name].classified.tag.value != tag or not by_name[name].match
    ]
    report(5, "corpus pinning", not failures,
           f"{len(pinned) - len(failures)}/{len(pinned)} scenarios" + (f", failed: {failures}" if failures else ""))


def test_criterion_6_epr_basis_equivalence():
    diff = scenario_epr().numeric_witness["max_amplitude_difference"]
    report(6, "EPR basis equivalence", diff <= 1e-12, f"max amplitude diff {diff:.3e}")


def test_criterion_7_qcc_weak_values():
    labels = ("L⊗H", "L⊗V", "R⊗H", "R⊗V")
    pre = StateVector([1j / SQRT2, 0, 1 / SQRT2, 0], labels)
    post = StateVector([1 / SQRT2, 0, 0, 1 / SQRT2], labels)
    proj_l = Operator(np.kron(np.diag([1.0, 0.0]), np.eye(2)))
    proj_r = Operator(np.kron(np.diag([0.0, 1.0]), np.eye(2)))
    wv_l = weak_value(proj_l, pre, post)
    wv_r = weak_value(proj_r, pre, post)
    # Independent matrix-algebra oracle on raw arrays.
    pre_raw = np.array([1j, 0, 1, 0]) / SQRT2
    post_raw = np.array([1, 0, 0, 1]) / SQRT2
    oracle_l = np.vdot(post_raw, np.diag([1, 1, 0, 0]) @ pre_raw) / np.vdot(post_raw, pre_raw)
    oracle_r = np.vdot(post_raw, np.diag([0, 0, 1, 1]) @ pre_raw) / np.vdot(post_raw, pre_raw)
    ok = (
        abs(wv_l - oracle_l) <= 1e-12
        and abs(wv_r - oracle_r) <= 1e-12
        and abs(wv_l - 1) <= 1e-12
        and abs(wv_r) <= 1e-12
        and abs(wv_l + wv_r - 1) <= 1e-12
    )
    report(7, "QCC weak values", ok, f"wv(L)={wv_l:.12g}, wv(R)={wv_r:.12g}")


def test_criterion_8_cat_statistics():
    freq = scenario_cat(open_box=True, seed=0, trials=100_000).numeric_witness[
        "alive_frequency"
    ]
    report(8, "cat statistics", abs(freq - 0.5) <= 0.01, f"alive frequency {freq:.4f}")


def test_criterion_9_logic_core_tables():
    values = (T, F, U)
    ok = True
    for a in values:
        ok = ok and neg3(neg3(a)) is a
    for a, b in itertools.product(values, repeat=2):
        ok = ok and disj3(a, b) is neg3(conj3(neg3(a), neg3(b)))
        ok = ok and conj3(a, b) is conj3(b, a)
        ok = ok and disj3(a, b) is disj3(b, a)
    as_bool = {T: True, F: False}
    for a, b in itertools.product((T, F), repeat=2):
        ok = ok and conj3(a, b) is Tv3.from_bool(as_bool[a] and as_bool[b])
        ok = ok and disj3(a, b) is Tv3.from_bool(as_bool[a] or as_bool[b])
        ok = ok and impl3(a, b) is Tv3.from_bool(not as_bool[a] or as_bool[b])
    triples = 0
    for a, b, c in itertools.product(values, repeat=3):
        ok = ok and conj3(conj3(a, b), c) is conj3(a, conj3(b, c))
        ok = ok and disj3(disj3(a, b), c) is disj3(a, disj3(b, c))
        triples += 1
    report(9, "logic-core tables", ok and triples == 27, f"{triples} triples checked")


def test_criterion_10_parser_round_trip():
    rng = random.Random(42)
    failures = 0
    count = 1000
    for _ in range(count):
        f = random_formula(rng)
        if parse(pretty(f)) != f:
            failures += 1
    report(10, "parser round-trip", failures == 0, f"{count - failures}/{count} formulas")
