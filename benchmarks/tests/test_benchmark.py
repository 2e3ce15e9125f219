"""Tests of the benchmark itself: oracle, generator, metric names, failure counting.

Run from the repository root:  python -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import client  # noqa: E402
import workloads  # noqa: E402


def _sapta_schema_values(model_json: dict) -> dict[str, str]:
    from sapta import Model, evaluate, parse_formula_file

    model = Model.from_json(model_json)
    formulas = parse_formula_file(workloads.SCHEMA_FILE, contexts=model.contexts, require_closed=True)
    return {nf.name: evaluate(nf.formula, model).value for nf in formulas}


def test_oracle_agrees_with_evaluate_on_small_models():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        model = workloads.eval_model(rng, n, listed_share=rng.random())
        if seed % 2:
            # Arbitrary extensions and values, beyond the generator's layout.
            for c in model["contexts"]:
                c["extension"] = sorted(rng.sample(model["domain"], rng.randint(0, n)))
            for row in model["valuation"]:
                row["value"] = rng.choice("TFU")
        reference = workloads.kleene_schema_values(model)
        assert _sapta_schema_values(model) == reference, seed
        seen.update(reference.values())
    assert seen == {"T", "F", "U"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    build = workloads.GENERATORS[name]
    first, again, other = build(7), build(7), build(8)
    assert first.files == again.files
    assert [(r.argv, r.expected) for r in first.requests] == [(r.argv, r.expected) for r in again.requests]
    assert first.files != other.files


def test_classify_wide_construction_matches_the_rule():
    workload = workloads.classify_wide(5, 40)
    model = json.loads(workload.files["model.json"])
    for request in workload.requests:
        judgments = json.loads(workload.files[request.argv[1]])
        assert workloads.classify_reference(judgments, model["incompatible"]) == request.expected
    assert [r.expected["class"] for r in workload.requests] == ["P7", "P1", "Inconsistent"]


def _corrupt(request):
    if request.key == "eval":
        values = request.expected["values"]
        values["S7"] = {"T": "F", "F": "U", "U": "T"}[values["S7"]]
    elif request.key == "parse":
        request.expected[0] = {"node": "PredicateApp", "name": "p", "var": "w"}
    elif request.key == "classify":
        request.expected["class"] = "Degenerate"
    elif request.key == "corpus":
        request.expected["qcc"] = "P1"
    elif request.key == "exclusivity":
        request.expected = 20
    elif request.key == "malformed":
        request.exit_code = workloads.EX_OK


@pytest.mark.parametrize("key", ["eval", "parse", "classify", "corpus", "exclusivity", "malformed"])
def test_corrupted_reference_counts_as_failure(tmp_path, key):
    workload = workloads.cli_small(3)
    workload.write(tmp_path)
    request = next(r for r in workload.requests if r.key == key)
    env = client.child_env(ROOT)
    samples, _ = client.closed_loop([request], tmp_path, env, 0.0, client.Verifier())
    assert [s.reason for s in samples] == [None]
    _corrupt(request)
    samples, _ = client.closed_loop([request], tmp_path, env, 0.0, client.Verifier())
    assert samples[0].reason is not None


def test_response_differing_from_the_first_fails():
    request = workloads.Request("r", [], {"a": 1}, lambda expected, out: None if out == expected else "x")
    verifier = client.Verifier()
    assert verifier.verdict(request, 0, b'{"a": 1}') is None
    assert verifier.verdict(request, 0, b'{"a": 1}') is None
    assert verifier.verdict(request, 0, b'{"a":1}') is not None
    assert verifier.verdict(request, 1, b'{"a": 1}') is not None


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace", [("cli_small", "0"), ("cli_small", "1"), ("parse_bulk", "1")])
def test_printed_metrics_are_the_declared_ones(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
