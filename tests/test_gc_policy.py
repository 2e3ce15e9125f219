"""The CLI process runs without the cyclic garbage collector.

`entry()` turns the collector off before `main()`; `main()` leaves it as it
found it.  That is safe only while one command leaves a fixed amount of
cyclic garbage whatever its input size, which the tests below pin.
"""
import gc
import itertools
import json
import os
import tracemalloc

import pytest

import sapta.cli as cli
from sapta.cli import EX_OK, EX_USAGE, main


@pytest.fixture
def collector():
    """Restore the collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_entry_runs_main_with_the_collector_off(collector, monkeypatch):
    # entry() ends the process through os._exit; intercepted here, so that
    # the test process goes on.
    seen, exits = [], []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or EX_OK)
    monkeypatch.setattr(os, "_exit", exits.append)
    gc.enable()
    cli.entry()
    assert exits == [EX_OK]
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [(["exclusivity"], EX_OK), (["eval"], EX_USAGE)])
def test_main_leaves_the_collector_as_it_found_it(collector, capsys, enabled, argv, code):
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is enabled


def _classify_argv(tmp_path, k):
    names = [f"c{i:03d}" for i in range(k)]
    model = {
        "domain": ["e"],
        "background": names[0],
        "contexts": [{"name": c, "extension": ["e"]} for c in names],
        "predicates": ["p"],
        "valuation": [{"context": c, "entity": "e", "predicate": "p", "value": "TFU"[i % 3]}
                      for i, c in enumerate(names)],
        "incompatible": [list(pair) for pair in itertools.combinations(names, 2)],
    }
    judgments = [{"context": c, "predicate": "p", "value": "TFU"[i % 3]}
                 for i, c in enumerate(names[:3])]
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "judgments.json").write_text(json.dumps(judgments))
    return ["classify", str(tmp_path / "judgments.json"), "--model", str(tmp_path / "model.json")]


def _eval_argv(tmp_path, n):
    entities = [f"e{i}" for i in range(n)]
    model = {
        "domain": entities,
        "background": "c1",
        "contexts": [{"name": "c1", "extension": entities[::2]},
                     {"name": "c2", "extension": entities[1::2]}],
        "predicates": ["p"],
        "valuation": [{"context": "c1", "entity": e, "predicate": "p", "value": "T"}
                      for e in entities],
        "incompatible": [["c1", "c2"]],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "f.lgc").write_text(
        "forall x. ((c1(x) -> p(x)) & (c2(x) -> ~p(x)) & ~(c1(x) <-> c2(x)))\nexists x. p(x)\n"
    )
    return ["eval", str(tmp_path / "f.lgc"), "--model", str(tmp_path / "model.json")]


def _parse_argv(tmp_path, count):
    (tmp_path / "f.lgc").write_text(
        "".join(f"let f{i} = forall x. (c(x) -> (p(x) & ~q(x)))\n" for i in range(count))
    )
    return ["parse", str(tmp_path / "f.lgc")]


def _cat_argv(tmp_path, trials):
    return ["scenario", "cat", "--open", "--trials", str(trials)]


def _cycles_left(argv, capsys):
    """Objects `gc.collect()` finds unreachable after `main(argv)`, on the
    second of two runs: a command's first run may leave one-off cycles (numpy's
    first use does)."""
    for _ in range(2):
        gc.collect()
        assert main(argv) == EX_OK
        capsys.readouterr()
        found = gc.collect()
    return found


@pytest.mark.parametrize("make_argv, small, large", [
    (_classify_argv, 50, 400),
    (_eval_argv, 100, 1600),
    (_parse_argv, 20, 1000),
    (_cat_argv, 10**3, 10**5),
])
def test_cyclic_garbage_does_not_grow_with_input(collector, capsys, tmp_path, make_argv, small, large):
    gc.disable()
    (tmp_path / "small").mkdir()
    (tmp_path / "large").mkdir()
    at_small = _cycles_left(make_argv(tmp_path / "small", small), capsys)
    at_large = _cycles_left(make_argv(tmp_path / "large", large), capsys)
    assert at_small == at_large


def test_encoding_leaves_nothing_behind(collector):
    # With the collector off, as in the CLI process, a cycle through the
    # encoder's writer would hold its output chunks and caches until exit.
    nodes = [{"node": "ForAll", "var": f"x{i}", "body": {"node": "PredicateApp", "name": "p",
                                                        "var": f"x{i}"}} for i in range(2000)]
    value = {"formulas": [{"line": i, "pretty": f"forall x{i}. p(x{i})", "ast": node}
                          for i, node in enumerate(nodes)]}

    def encode():
        return json.dumps(value, indent=2, ensure_ascii=False, cls=cli._Encoder)

    encode()  # one-off allocations of a first call
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        text = encode()
        assert len(text) > 400_000
        del text
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gc.collect() == 0
    assert after - before < 16_000
