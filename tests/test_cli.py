"""CLI behaviour: exit codes, JSON-on-every-path, determinism."""
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict, namedtuple
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import sapta.cli as cli
from sapta.cli import EX_ERROR, EX_MISMATCH, EX_OK, EX_USAGE, main
from sapta.predication import PredicationClass, PredicationTag
from sapta import MAX_TRIALS, SCENARIO_NAMES
from sapta.scenarios import MAX_LEVELS


CAT_MODEL = {
    "domain": ["cat"],
    "background": "box_closed",
    "contexts": [
        {"name": "box_closed", "extension": ["cat"]},
        {"name": "box_open", "extension": ["cat"]},
    ],
    "predicates": ["alive"],
    "valuation": [
        {"context": "box_closed", "entity": "cat", "predicate": "alive", "value": "U"},
        {"context": "box_open", "entity": "cat", "predicate": "alive", "value": "T"},
    ],
    "incompatible": [["box_closed", "box_open"]],
}

CAT_OPEN_ALIVE = [
    {"context": "box_open", "predicate": "alive", "value": "T"},
    {"context": "box_closed", "predicate": "alive", "value": "U"},
]


@pytest.fixture
def cat_files(tmp_path):
    model = tmp_path / "cat.json"
    model.write_text(json.dumps(CAT_MODEL))
    judgments = tmp_path / "cat_open_alive.json"
    judgments.write_text(json.dumps(CAT_OPEN_ALIVE))
    return model, judgments


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_cat_open_alive(capsys, cat_files):
    model, judgments = cat_files
    code, out, _ = run_cli(capsys, "classify", str(judgments), "--model", str(model))
    assert code == EX_OK
    data = json.loads(out)
    assert data["class"] == "P5"
    assert data["contexts"] == ["box_open", "box_closed"]
    assert data["schemaFormula"].startswith("forall x. ((box_open(x) -> alive(x))")
    assert data["metadata"]["connectives"] == "strong-kleene"


def test_classify_judgments_flag_spelling(capsys, cat_files):
    model, judgments = cat_files
    code, out, _ = run_cli(
        capsys, "classify", "--judgments", str(judgments), "--model", str(model)
    )
    assert code == EX_OK
    assert json.loads(out)["class"] == "P5"
    # Giving both spellings is rejected.
    code, out, _ = run_cli(
        capsys, "classify", str(judgments), "--judgments", str(judgments), "--model", str(model)
    )
    assert code == EX_ERROR
    # Giving neither is rejected.
    code, _, _ = run_cli(capsys, "classify", "--model", str(model))
    assert code == EX_ERROR


def test_classify_text_format_names_the_predication(capsys, cat_files):
    model, judgments = cat_files
    code, out, _ = run_cli(
        capsys, "classify", str(judgments), "--model", str(model), "--format", "text"
    )
    assert code == EX_OK
    assert "P5 (syāt asti cha avaktavyam cha)" in out


def test_classify_requires_unique_predicate(capsys, tmp_path, cat_files):
    model, _ = cat_files
    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps(
            [
                {"context": "box_open", "predicate": "alive", "value": "T"},
                {"context": "box_open", "predicate": "purring", "value": "T"},
            ]
        )
    )
    code, out, err = run_cli(capsys, "classify", str(mixed), "--model", str(model))
    assert code == EX_ERROR
    assert "--predicate required" in json.loads(out)["error"]["message"]


def test_eval_formulas_over_model(capsys, tmp_path, cat_files):
    model, _ = cat_files
    formulas = tmp_path / "schemas.lgc"
    formulas.write_text(
        "# found alive and indeterminate in the box\n"
        "let p5 = forall x. ((box_open(x) -> alive(x)) & (box_closed(x) -> alive_undet(x))"
        " & ~(box_open(x) <-> box_closed(x)))\n"
        "let p1 = forall x. (box_open(x) -> alive(x))\n"
    )
    # alive_undet is not declared in the cat model: declare it via a copy.
    model2 = tmp_path / "cat2.json"
    data = json.loads(model.read_text())
    data["predicates"].append("alive_undet")
    data["valuation"].append(
        {"context": "box_closed", "entity": "cat", "predicate": "alive_undet", "value": "T"}
    )
    model2.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "eval", str(formulas), "--model", str(model2))
    assert code == EX_OK
    data = json.loads(out)
    values = {r["name"]: r["value"] for r in data["results"]}
    assert values == {"p5": "T", "p1": "T"}
    assert data["metadata"]["implication"] == "material"
    assert data["metadata"]["defaultedValuationEntries"] == 1  # box_open/alive_undet


def test_eval_missing_file(capsys):
    code, out, err = run_cli(capsys, "eval", "nonexistent.lgc", "--model", "nonexistent.json")
    assert code == EX_ERROR
    assert "error" in json.loads(out)
    assert "nonexistent" in err


def test_parse_reports_span_in_json(capsys, tmp_path):
    bad = tmp_path / "bad.lgc"
    bad.write_text("p(x\n")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == EX_ERROR
    payload = json.loads(out)["error"]
    assert payload["kind"] == "ParseError"
    assert payload["span"]["start"] == 3
    assert ")" in payload["expected"]
    assert "1:4" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("text, kind, message, span", [
    ("forall x. alive(x)\n# the last line is open\nlet bad = forall x. alive(y)\n",
     "UnboundVariable", "unbound variable 'y'", {"start": 63, "end": 71, "line": 3, "column": 21}),
    ("forall x. alive(x)\nforall x. q(x)\n",
     "UndeclaredName", "undeclared predicate 'q'", {"start": 29, "end": 33, "line": 2, "column": 11}),
])
def test_eval_error_names_the_atom_at_fault(capsys, tmp_path, cat_files, fmt, text, kind, message, span):
    model, _ = cat_files
    src = tmp_path / "f.lgc"
    src.write_text(text)
    code, out, err = run_cli(capsys, "eval", str(src), "--model", str(model), "--format", fmt)
    assert code == EX_ERROR
    assert err == f"{span['line']}:{span['column']}: error: {message}\n"
    if fmt == "json":
        assert json.loads(out)["error"] == {"kind": kind, "message": message, "span": span}
    else:
        assert out == ""


# Each file holds one error: the command, its lines, the text at fault, and
# the error's line and column.  A non-ASCII line before it makes characters
# and bytes differ.
_LINE_ENDING_ERRORS = {
    "parse": (["alive(x)", "# ∀ stands for forall", "let s = ∀x. alive(x)", "alive(x) & $"],
              "$", 4, 12),
    "eval": (["forall x. alive(x)", "", "let s = ∀x. box_open(x)  # ∀", "let t = alive(y)"],
             "alive(y)", 4, 9),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("command", _LINE_ENDING_ERRORS)
def test_error_offsets_count_the_bytes_of_the_file(capsys, monkeypatch, tmp_path, cat_files,
                                                   command, newline, source):
    lines, at_fault, line, column = _LINE_ENDING_ERRORS[command]
    data = (newline.join(lines) + newline).encode("utf-8")
    path = tmp_path / "f.lgc"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    argv = [command, str(path) if source == "file" else "-"]
    if command == "eval":
        argv += ["--model", str(cat_files[0])]
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_ERROR
    start = data.index(at_fault.encode("utf-8"))
    assert json.loads(out)["error"]["span"] == {
        "start": start, "end": start + len(at_fault), "line": line, "column": column
    }
    assert err.startswith(f"{line}:{column}: error: ")


# A formula file that is not UTF-8: its text, the bad bytes' span, its line and column.
_NOT_UTF8 = {
    "LF": (b"p(x)\n\xff\n", 5, 6, 2, 1),
    "CRLF": (b"p(x)\r\n  \xc3(x)\r\n", 8, 9, 2, 3),
    "CR": (b"p(x)\r\xe2\x88\x80x. q(x) \xed\xa0\x80\r", 16, 17, 2, 10),
    "a lone surrogate": (b"\xe2\x88\x80x. q(x) & \xed\xa0\x80", 13, 14, 1, 12),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["parse", "eval"])
@pytest.mark.parametrize("case", _NOT_UTF8)
def test_a_formula_file_not_in_utf8_is_a_parse_error_at_the_bad_byte(
        capsys, monkeypatch, tmp_path, cat_files, command, source, case):
    data, start, end, line, column = _NOT_UTF8[case]
    path = tmp_path / "bad.lgc"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    name = str(path) if source == "file" else "-"
    argv = [command, name] + (["--model", str(cat_files[0])] if command == "eval" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_ERROR
    error = json.loads(out)["error"]
    assert error["kind"] == "ParseError"
    assert error["message"].startswith(f"{name}: byte {start} is not UTF-8 (")
    assert error["span"] == {"start": start, "end": end, "line": line, "column": column}
    assert err == f"{line}:{column}: error: {error['message']}\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("role", ["eval --model", "classify --model", "classify judgments"])
def test_a_json_input_not_in_utf8_is_a_model_error(capsys, monkeypatch, tmp_path, cat_files,
                                                  role, source):
    data = json.dumps(CAT_MODEL if "model" in role else CAT_OPEN_ALIVE).encode()
    at = data.index(b"box_open") + 3
    data = data[:at] + b"\xff" + data[at:]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    bad = str(path) if source == "file" else "-"
    formulas = tmp_path / "one.lgc"
    formulas.write_text("forall x. alive(x)\n")
    model, judgments = str(cat_files[0]), str(cat_files[1])
    argv = {"eval --model": ["eval", str(formulas), "--model", bad],
            "classify --model": ["classify", judgments, "--model", bad],
            "classify judgments": ["classify", bad, "--model", model]}[role]
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_ERROR
    message = f"{bad}: byte {at} is not UTF-8 (invalid start byte)"
    assert json.loads(out) == {"error": {"kind": "ModelError", "message": message, "span": None}}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, reason", [
    ('{"a": }', "Expecting value: line 1 column 7 (char 6)"),
    ("\ufeff" + json.dumps(CAT_MODEL), "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
], ids=["syntax", "bom"])
def test_a_json_syntax_error_names_its_file(capsys, tmp_path, cat_files, text, reason):
    # classify reads two JSON files; the error names the one that is malformed.
    model, judgments = map(str, cat_files)
    bad_model, bad_judgments = tmp_path / "bad_model.json", tmp_path / "bad_judgments.json"
    for path in (bad_model, bad_judgments):
        path.write_text(text, encoding="utf-8")
    for argv, bad in [(["classify", str(bad_judgments), "--model", str(bad_model)], bad_model),
                      (["classify", str(bad_judgments), "--model", model], bad_judgments),
                      (["classify", judgments, "--model", str(bad_model)], bad_model)]:
        code, out, err = run_cli(capsys, *argv)
        assert code == EX_ERROR
        message = f"{bad}: {reason}"
        assert json.loads(out) == {"error": {"kind": "ModelError", "message": message, "span": None}}
        assert err == f"error: {message}\n"


def test_parse_dumps_ast(capsys, tmp_path):
    src = tmp_path / "f.lgc"
    src.write_text("let s1 = forall x. (c(x) -> p(x))\n")
    code, out, _ = run_cli(capsys, "parse", str(src))
    assert code == EX_OK
    entry = json.loads(out)["formulas"][0]
    assert entry["name"] == "s1"
    assert entry["pretty"] == "forall x. (c(x) -> p(x))"
    assert entry["ast"]["node"] == "ForAll"


def test_parse_text_format_labels_by_name_or_path_line(capsys, tmp_path):
    src = tmp_path / "f.lgc"
    src.write_text("# comment\nlet s1 = forall x. (c(x) -> p(x))\n\n~(p(x) & q(x))\n")
    code, out, _ = run_cli(capsys, "parse", str(src), "--format", "text")
    assert code == EX_OK
    assert out == f"s1: forall x. (c(x) -> p(x))\n{src}:4: ~(p(x) & q(x))\n"


def test_eval_text_format_labels_by_name_or_path_line(capsys, tmp_path, cat_files):
    model, _ = cat_files
    src = tmp_path / "f.lgc"
    src.write_text("let opened = forall x. (box_open(x) -> alive(x))\nexists x. alive(x)\n")
    code, out, _ = run_cli(capsys, "eval", str(src), "--model", str(model), "--format", "text")
    assert code == EX_OK
    # Outside any guard alive(x) is read in the background context box_closed.
    assert out == f"opened: T\n{src}:2: U\n"


def _raising(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} runs, but text output prints nothing of it")
    return call


def _counting(calls, name, function):
    def call(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)
    return call


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FORMULAS = str(GOLDEN / "closed.lgc")
GOLDEN_MODEL = str(GOLDEN / "model.json")


@pytest.mark.parametrize("argv, unprinted", [
    (["parse", GOLDEN_FORMULAS], "ast_to_dict"),
    (["eval", GOLDEN_FORMULAS, "--model", GOLDEN_MODEL], "pretty"),
])
def test_text_output_computes_only_what_it_prints(capsys, monkeypatch, argv, unprinted):
    argv = [*argv, "--format", "text"]
    want = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, unprinted, _raising(unprinted))
    assert run_cli(capsys, *argv) == want
    assert want[0] == EX_OK and want[1].count("\n") == 6


_WEAK_VALUES = ["weak_value"] * 4  # the Cheshire cat's four, through `sapta.scenarios`


@pytest.mark.parametrize("argv, wanted", [
    (["parse", GOLDEN_FORMULAS], ["parse_formula_file", *["pretty", "ast_to_dict"] * 6]),
    (["eval", GOLDEN_FORMULAS, "--model", GOLDEN_MODEL],
     ["json.loads", "Model.from_json", "parse_formula_file", *["evaluate", "pretty"] * 6]),
    (["classify", "JUDGMENTS", "--model", "MODEL"],
     ["json.loads", "Model.from_json", "json.loads", "judgments_from_json", "classify", "pretty"]),
    (["exclusivity"], ["mutual_exclusivity_certificate"]),
    (["corpus"], ["run_corpus", *_WEAK_VALUES]),
    *((["scenario", name], [f"scenario_{name}", *(_WEAK_VALUES if name == "qcc" else [])])
      for name in SCENARIO_NAMES),
], ids=["parse", "eval", "classify", "exclusivity", "corpus", *SCENARIO_NAMES])
def test_json_output_calls_the_names_the_traced_replay_wraps(capsys, monkeypatch, cat_files, argv, wanted):
    # The replay times a layer by rebinding its name for the length of a pass,
    # so each command must call every callee through those names, when it runs.
    import sapta.scenarios as scenarios

    calls = []
    monkeypatch.setattr(cli, "json", SimpleNamespace(
        loads=_counting(calls, "json.loads", json.loads),
        dumps=_counting(calls, "json.dumps", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    ))
    monkeypatch.setattr(cli, "Model", SimpleNamespace(
        from_json=_counting(calls, "Model.from_json", cli.Model.from_json)))
    for name in cli._CALLEES:  # the names benchmarks/tracing.py's `instrumented` rebinds
        if name != "Model":
            monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))
    monkeypatch.setattr(scenarios, "weak_value", _counting(calls, "weak_value", scenarios.weak_value))
    model, judgments = cat_files
    argv = [{"MODEL": str(model), "JUDGMENTS": str(judgments)}.get(word, word) for word in argv]
    code, _, _ = run_cli(capsys, *argv)
    assert code == EX_OK
    assert calls == [*wanted, "json.dumps"]


class TerminalStdout(io.StringIO):
    """A stdout that says it is a terminal, and counts how often it is asked."""

    def __init__(self):
        super().__init__()
        self.isatty_calls = 0

    def isatty(self):
        self.isatty_calls += 1
        return True


@pytest.mark.parametrize("color, painted", [("1", True), ("0", False)])
def test_text_eval_reads_the_terminal_once_a_run(monkeypatch, color, painted):
    monkeypatch.setenv("SAPTA_COLOR", color)
    out = TerminalStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["eval", GOLDEN_FORMULAS, "--model", GOLDEN_MODEL, "--format", "text"]) == EX_OK
    assert out.isatty_calls == (1 if painted else 0)
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    for line in lines:
        value = line.rsplit(": ", 1)[1]
        if painted:
            assert value in {"\x1b[32mT\x1b[0m", "\x1b[31mF\x1b[0m", "\x1b[33mU\x1b[0m"}
        else:
            assert value in {"T", "F", "U"}


def test_bad_flags_exit_64(capsys):
    code, out, err = run_cli(capsys, "scenario", "heisenberg")
    assert code == EX_USAGE
    assert json.loads(out)["error"]["kind"] == "UsageError"
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "corpus", "--bogus")
    assert code == EX_USAGE


@pytest.mark.parametrize("fmt", [["--format", "text"], ["--format=text"]])
def test_usage_error_in_text_mode_prints_nothing_on_stdout(capsys, fmt):
    code, out, err = run_cli(capsys, "corpus", "--bogus", *fmt)
    assert code == EX_USAGE
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("argv, text_mode", [
    (["--format", "text", "--format", "json"], False),
    (["--format=json", "--format", "text"], True),
    (["--format", "json", "--format=text"], True),
    (["--format=text", "--format=json"], False),
])
def test_usage_error_reads_the_last_format(capsys, argv, text_mode):
    code, out, _ = run_cli(capsys, "corpus", *argv, "--bogus")
    assert code == EX_USAGE
    if text_mode:
        assert out == ""
    else:
        assert json.loads(out)["error"]["kind"] == "UsageError"


@pytest.mark.parametrize("abbreviation", ["--form", "--f", "--se", "--tri"])
def test_abbreviated_flags_are_usage_errors(capsys, abbreviation):
    # An abbreviation of --format would make the usage-error path guess the
    # output format; no flag may be abbreviated, so there is nothing to guess.
    code, out, _ = run_cli(capsys, "scenario", "cat", abbreviation, "text")
    assert code == EX_USAGE
    assert json.loads(out)["error"]["message"].startswith("unrecognized arguments: " + abbreviation)


def test_unknown_command_exits_64(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EX_USAGE


def test_corpus_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "corpus", "--seed", "42")
    assert code1 == code2 == EX_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["allMatch"] is True
    assert len(data["results"]) == 8


# argv and exit code of each child; inputs are written to its working directory.
HASH_SEED_RUNS = {
    "parse": (["parse", "formulas.lgc"], EX_OK),
    "eval": (["eval", "closed.lgc", "--model", "model.json"], EX_OK),
    "corpus": (["corpus", "--seed", "42"], EX_OK),
    "classify_p7": (["classify", "p7.json", "--model", "p7_model.json"], EX_OK),
    "classify_inconsistent": (["classify", "inconsistent.json", "--model", "model.json"], EX_OK),
    "malformed_formula": (["parse", "malformed.lgc"], EX_ERROR),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_RUNS))
def test_output_byte_identical_across_hash_seeds(tmp_path, name):
    argv, exit_code = HASH_SEED_RUNS[name]
    for input_name in ("formulas.lgc", "closed.lgc", "model.json"):
        (tmp_path / input_name).write_bytes((GOLDEN / input_name).read_bytes())
    p7 = json.loads((GOLDEN / "canonical_witnesses.json").read_text(encoding="utf-8"))["P7"]
    (tmp_path / "p7.json").write_text(json.dumps(p7["judgments"]))
    (tmp_path / "p7_model.json").write_text(json.dumps(p7["model"]))
    # c1 and c2 are not declared incompatible in model.json.
    (tmp_path / "inconsistent.json").write_text(json.dumps([
        {"context": "c1", "predicate": "p", "value": "T"},
        {"context": "c2", "predicate": "p", "value": "F"},
    ]))
    (tmp_path / "malformed.lgc").write_text("p(x\n")
    runs = set()
    for seed in ("0", "1", "12345"):
        run = subprocess.run([sys.executable, "-m", "sapta.cli", *argv], cwd=tmp_path,
                             capture_output=True, env=dict(_child_env(), PYTHONHASHSEED=seed))
        runs.add((run.returncode, run.stdout, run.stderr))
    assert len(runs) == 1
    [(code, out, _)] = runs
    assert code == exit_code
    data = json.loads(out)
    assert ("error" in data) == (code == EX_ERROR)


def test_corpus_mismatch_exits_2(capsys, monkeypatch):
    real = cli.run_corpus

    def sabotaged(seed=0):
        results = real(seed)
        broken = CorpusResult_replace(results[0])
        return [broken] + results[1:]

    def CorpusResult_replace(result):
        from sapta.scenarios import CorpusResult

        return CorpusResult(
            result.name, result.report, PredicationClass(PredicationTag.P1, ("one_slit_observed",))
        )

    monkeypatch.setattr(cli, "run_corpus", sabotaged)
    code, out, _ = run_cli(capsys, "corpus")
    assert code == EX_MISMATCH
    assert json.loads(out)["allMatch"] is False


def test_exclusivity_certificate(capsys):
    code, out, _ = run_cli(capsys, "exclusivity")
    assert code == EX_OK
    data = json.loads(out)
    assert data["total"] == 21
    assert data["distinct"] == 21
    assert data["allDistinct"] is True
    assert len(data["rows"]) == 21


def test_exclusivity_text_format(capsys):
    code, out, _ = run_cli(capsys, "exclusivity", "--format", "text")
    assert code == EX_OK
    assert out.strip().endswith("21/21 distinct")


def test_scenario_qcc_json_complex_encoding(capsys):
    code, out, _ = run_cli(capsys, "scenario", "qcc")
    assert code == EX_OK
    data = json.loads(out)
    wv = data["numericWitness"]["weak_value_path_L"]
    assert abs(wv["re"] - 1.0) <= 1e-12 and abs(wv["im"]) <= 1e-12
    assert data["metadata"]["seed"] == 0


def test_scenario_cat_flags(capsys):
    code, out, _ = run_cli(capsys, "scenario", "cat", "--open", "--seed", "2", "--trials", "1000")
    assert code == EX_OK
    data = json.loads(out)
    assert data["expectedClass"]["class"] in ("P5", "P6")
    assert "alive_frequency" in data["numericWitness"]


def test_scenario_double_slit_subset(capsys):
    code, out, _ = run_cli(capsys, "scenario", "double_slit", "--no-two-slits-unobserved")
    assert code == EX_OK
    assert json.loads(out)["expectedClass"]["class"] == "P4"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_scenario_double_slit_with_every_context_off_is_degenerate(capsys, fmt):
    off = ["--no-one-slit-observed", "--no-one-slit-unobserved", "--no-two-slits-unobserved"]
    code, out, err = run_cli(capsys, "scenario", "double_slit", *off, "--format", fmt)
    assert code == EX_OK and err == ""
    if fmt == "text":
        assert out.splitlines()[:2] == ["scenario: double_slit", "expected: Degenerate"]
        return
    data = json.loads(out)
    assert data["judgments"] == []
    assert data["expectedClass"] == {"class": "Degenerate", "contexts": []}
    assert data["model"]["contexts"] == [] and data["model"]["background"] is None


def test_scenario_threshold_flags(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "threshold", "--levels", "0.1,0.2", "--lower-cut", "0.3",
        "--upper-cut", "0.7",
    )
    assert code == EX_OK
    assert json.loads(out)["expectedClass"]["class"] == "P2"
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--lower-cut", "0.9")
    assert code == EX_ERROR
    assert json.loads(out)["error"]["kind"] == "BadCuts"


@pytest.mark.parametrize(
    "flags, kind",
    [
        (["--levels", "nan,1e400"], "ValueError"),
        (["--levels", "0.5,inf"], "ValueError"),
        (["--lower-cut", "nan"], "BadCuts"),
        (["--upper-cut", "nan"], "BadCuts"),
        (["--lower-cut=-inf"], "BadCuts"),
    ],
)
def test_scenario_threshold_rejects_non_finite_numbers(capsys, flags, kind):
    code, out, _ = run_cli(capsys, "scenario", "threshold", *flags)
    assert code == EX_ERROR
    data = json.loads(out)  # exactly one JSON value on stdout
    assert list(data) == ["error"]
    assert data["error"]["kind"] == kind
    assert "finite" in data["error"]["message"]


def test_scenario_threshold_level_count_is_capped(capsys):
    levels = [f"{i / 1000:g}" for i in range(MAX_LEVELS + 1)]
    code, out, _ = run_cli(
        capsys, "scenario", "threshold", "--levels", ",".join(levels[:MAX_LEVELS]),
        "--format", "text",
    )
    assert code == EX_OK
    assert out.count(": perceived = ") == MAX_LEVELS
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--levels", ",".join(levels))
    assert code == EX_ERROR
    data = json.loads(out)
    assert list(data) == ["error"]
    assert data["error"]["kind"] == "ValueError"
    assert f"at most {MAX_LEVELS}" in data["error"]["message"]


def test_scenario_threshold_rejects_levels_that_share_a_context_name(capsys):
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--levels", "0.3,0.2999999")
    assert code == EX_ERROR
    data = json.loads(out)
    assert list(data) == ["error"]
    assert data["error"]["kind"] == "ValueError"
    assert "'intensity_0.3'" in data["error"]["message"]


@pytest.mark.parametrize("value", ["-1e3", "-2.5E-1", "-.5", "-7"])
def test_negative_number_after_a_flag_reads_as_its_value(capsys, value):
    separate = run_cli(capsys, "scenario", "threshold", "--lower-cut", value)
    joined = run_cli(capsys, "scenario", "threshold", f"--lower-cut={value}")
    assert separate == joined
    assert separate[0] == EX_OK


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_non_finite_negative_cut_is_a_bad_cut_not_a_usage_error(capsys, value):
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--lower-cut", value)
    assert code == EX_ERROR
    error = json.loads(out)["error"]
    assert error["kind"] == "BadCuts"
    assert "cuts must be finite" in error["message"]


def test_negative_levels_in_exponent_form(capsys):
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--levels", "-1e-3,0.5")
    assert code == EX_OK
    contexts = [j["context"] for j in json.loads(out)["judgments"]]
    assert contexts == ["intensity_-0.001", "intensity_0.5"]


def test_an_unknown_single_dash_option_is_still_a_usage_error(capsys):
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--lower-cut", "-x")
    assert code == EX_USAGE
    assert json.loads(out)["error"]["kind"] == "UsageError"


def test_eval_stdin(capsys, monkeypatch, tmp_path, cat_files):
    model, _ = cat_files
    stdin = io.TextIOWrapper(io.BytesIO(b"forall x. (box_open(x) -> alive(x))\n"))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run_cli(capsys, "eval", "-", "--model", str(model))
    assert code == EX_OK
    assert json.loads(out)["results"][0]["value"] == "T"


@pytest.mark.parametrize("argv", [
    ["parse", "-", "-"],
    ["eval", "-", "--model", "-"],
    ["classify", "-", "--model", "-"],
    ["classify", "--judgments", "-", "--model", "-"],
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdin_may_be_named_once(capsys, monkeypatch, argv, fmt):
    # The first input named '-' would read all of stdin and the next one
    # nothing, so the command line is refused before either is read.
    stdin = io.TextIOWrapper(io.BytesIO(b"p(x)\n"))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == EX_USAGE
    assert stdin.buffer.tell() == 0
    assert "'-'" in err
    if fmt == "json":
        error = json.loads(out)["error"]
        assert error["kind"] == "UsageError" and "'-'" in error["message"]
    else:
        assert out == ""


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def _loaded_modules(*args: str) -> set[str]:
    """The sapta modules a child Python has loaded after running ``args``."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env=_child_env())
    modules = set(done.stdout.split())
    assert {"dataclasses", "numpy", "argparse", "gettext", "locale"}.isdisjoint(modules), args
    return {m for m in modules if m.partition(".")[0] == "sapta"}


def test_import_does_not_run_numpy(tmp_path, cat_files):
    # Each command imports only the modules it runs: only `scenario cat` with
    # --trials needs numpy, no module needs dataclasses, only `eval` loads the
    # evaluator, and only a command that builds a formula loads `formulas`.
    # Only the commands that read JSON input load its decoder (`inputs`),
    # only `exclusivity` the certificate, only an opened box and the corpus
    # the cat's draws (`sampling`), only a P1-P7 `classify` the schemas, and
    # only -h or --help the help writer (`helptext`).  A command loads its
    # own module under `sapta.commands` and no other command's; a scenario
    # loads its own generator under `sapta.scenarios` and no other one, and
    # `threshold`, which uses no state vector, no `quantum`; the corpus loads
    # every generator.
    # No run, a usage error or --help included, loads argparse, gettext or
    # locale (see _loaded_modules).
    model, judgments = cat_files
    formulas = tmp_path / "f.lgc"
    formulas.write_text("forall x. (box_open(x) -> alive(x))\n")
    conflicting = tmp_path / "conflicting.json"
    conflicting.write_text(json.dumps([
        {"context": "box_open", "predicate": "alive", "value": "T"},
        {"context": "box_open", "predicate": "alive", "value": "F"},
    ]))
    code = (
        "import contextlib, io, sys\n"
        "import sapta.cli\n"
        "if sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert sapta.cli.main(sys.argv[2:]) == int(sys.argv[1])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    startup = {"sapta", "sapta.cli", "sapta.errors"}
    based = startup | {"sapta.records"}
    parsing = based | {"sapta.formulas", "sapta.parser"}
    modelled = based | {"sapta.semantics", "sapta.trivalent"}
    judged = modelled | {"sapta.predication"}
    read = {"sapta.inputs"}
    generators = {f"sapta.scenarios.{name}" for name in SCENARIO_NAMES}
    drawn = judged | generators | {"sapta.quantum", "sapta.scenarios", "sapta.sampling"}

    def scenario(name: str) -> set[str]:
        quantum = set() if name == "threshold" else {"sapta.quantum"}
        return judged | quantum | {"sapta.scenarios", f"sapta.scenarios.{name}"}

    cases = [
        (["parse", str(formulas)], parsing),
        (["eval", str(formulas), "--model", str(model)], modelled | parsing | read | {"sapta.evaluation"}),
        (["classify", str(judgments), "--model", str(model)],
         judged | read | {"sapta.formulas", "sapta.schemas"}),
        (["classify", str(conflicting), "--model", str(model)], judged | read),
        (["exclusivity"], judged | {"sapta.certificate"}),
    ]
    cases += [(["scenario", name], scenario(name)) for name in SCENARIO_NAMES]
    cases += [(["scenario", "cat", "--open", "--seed", "7"], scenario("cat") | {"sapta.sampling"}),
              (["corpus"], drawn | {"sapta.scenarios.corpus"})]
    assert _loaded_modules("-c", code, str(EX_OK)) == startup
    for argv, loaded in cases:
        command = {"sapta.commands", f"sapta.commands.{argv[0]}"}
        assert _loaded_modules("-c", code, str(EX_OK), *argv) == loaded | command, argv
    # A usage error loads nothing past the startup modules, and help only
    # the help writer.
    for argv, exit_code, loaded in [
        (["--help"], EX_OK, startup | {"sapta.helptext"}),
        (["scenario", "--help"], EX_OK, startup | {"sapta.helptext"}),
        (["eval", str(formulas)], EX_USAGE, startup),
        (["scenario", "cat", "--seed", "-1", "--format", "text"], EX_USAGE, startup),
    ]:
        assert _loaded_modules("-c", code, str(exit_code), *argv) == loaded, argv
    show = "import sys, sapta.records; print(' '.join(sys.modules))"
    assert _loaded_modules("-c", show) == {"sapta", "sapta.records"}
    show = "import sys, sapta; sapta.undet_name; print(' '.join(sys.modules))"
    assert _loaded_modules("-c", show) == {"sapta", "sapta.records"}


def test_each_callee_is_its_home_modules_own_object_once_read():
    # A bare import of the CLI loads none of its callees' homes.  The first
    # read of a callee's name loads it and keeps it as the CLI's own name, so
    # a command's call through that name makes one call, not two.
    import sapta

    homes = {name: f"sapta.{sapta._HOME[name]}" for name in cli._CALLEES}
    show = "import sys, sapta.cli; print(' '.join(sys.modules))"
    assert set(homes.values()).isdisjoint(_loaded_modules("-c", show))
    for name, home in homes.items():
        assert getattr(cli, name) is getattr(importlib.import_module(home), name)
        assert vars(cli)[name] is getattr(cli, name)
    with pytest.raises(AttributeError):
        cli.no_such_name


# Every name the package exported when its __init__ imported all submodules.
_PACKAGE_NAMES = """
    ArityMismatch BadCuts BasisMismatch DimensionMismatch DuplicateContext ModelError
    NotASchema OrthogonalSelection ParseError SaptaError UnboundVariable UndeclaredName
    And ContextGuard Exists ForAll Formula Iff Implies Not Or PredicateApp SourceSpan
    ast_to_dict free_variables pretty schema undet_name NamedFormula parse parse_formula_file
    CertificateRow Entailment Judgment PredicationClass PredicationTag SANSKRIT_NAMES
    canonical_witness classify entails induced_model judgments_from_json judgments_to_json
    mutual_exclusivity_certificate schema_formula_for tag_for_values Operator StateVector
    fringe_visibility inner_product tensor_product weak_value ContextDef Model
    check_incompatibility evaluate guard_of CorpusResult ScenarioReport find_cat_seed
    run_corpus scenario_cat scenario_double_slit scenario_epr scenario_qcc scenario_threshold
    scenario_wigner Tv3 conj3 disj3 iff3 impl3 neg3
""".split()


def test_package_names_still_resolve():
    import sapta
    from sapta import formulas, scenarios, semantics

    star: dict = {}
    exec("from sapta import *", star)
    for name in _PACKAGE_NAMES:
        home = getattr(sapta, name)
        assert star[name] is home
        assert name in dir(sapta)
    assert sapta.Model is semantics.Model and sapta.And is formulas.And
    assert sapta.run_corpus is scenarios.run_corpus
    assert sapta.__version__ == "0.1.0"
    assert "formulas" in dir(sapta) and sapta.formulas is formulas
    from sapta import records  # the one home of the names below

    assert formulas.Record is records.Record and sapta.undet_name is records.undet_name
    assert not hasattr(formulas, "PREDICATIONS") and not hasattr(formulas, "undet_name")
    with pytest.raises(AttributeError):
        sapta.no_such_name


def test_every_exported_name_has_one_home():
    import importlib

    import sapta

    for module_name, names in sapta._HOMES.items():
        module = importlib.import_module(f"sapta.{module_name}")
        for name in names:
            assert getattr(sapta, name) is getattr(module, name)
            if module_name == "errors":  # no __all__: every public class is exported
                assert not name.startswith("_")
            else:
                assert name in module.__all__, (module_name, name)
    assert sorted(sapta.__all__) == sorted(name for names in sapta._HOMES.values() for name in names)


_HIDE_NUMPY = (
    "import sys\n"
    "from importlib.machinery import PathFinder\n"
    "sys.path[:] = [p for p in sys.path if PathFinder.find_spec('numpy', [p]) is None]\n"
    "from sapta.cli import entry\n"
    "entry()\n"
)


@pytest.mark.parametrize(
    "command", ["parse", "eval", "classify", "exclusivity", "scenario", "corpus", "cat_trials"]
)
def test_commands_without_numpy(tmp_path, cat_files, command):
    model, judgments = cat_files
    formulas = tmp_path / "f.lgc"
    formulas.write_text("forall x. (box_open(x) -> alive(x))\n")
    argv = {
        "parse": ["parse", str(formulas)],
        "eval": ["eval", str(formulas), "--model", str(model)],
        "classify": ["classify", str(judgments), "--model", str(model)],
        "exclusivity": ["exclusivity"],
        "scenario": ["scenario", "epr"],
        "corpus": ["corpus"],
        "cat_trials": ["scenario", "cat", "--open", "--trials", "10"],
    }[command]
    done = subprocess.run([sys.executable, "-c", _HIDE_NUMPY, *argv], capture_output=True,
                          text=True, env=_child_env())
    assert "Traceback" not in done.stderr
    data = json.loads(done.stdout)
    if command == "cat_trials":  # only the bulk sample needs numpy
        assert done.returncode == EX_ERROR
        assert data["error"]["kind"] == "ModuleNotFoundError"
        assert "numpy" in data["error"]["message"]
    else:
        assert done.returncode == EX_OK, done.stderr
        assert "error" not in data


@pytest.mark.parametrize("argv", [
    ["scenario", "cat", "--open", "--seed", "-1"],
    ["scenario", "epr", "--seed", "-1"],
    ["corpus", "--seed", "-5"],
    ["corpus", "--seed=-5", "--format", "text"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_USAGE
    assert "--seed" in err and "non-negative" in err
    if "text" not in argv:
        assert "--seed" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("flags", [["--open"], []])
def test_negative_trials_is_a_usage_error(capsys, flags):
    code, out, err = run_cli(capsys, "scenario", "cat", *flags, "--trials", "-5")
    assert code == EX_USAGE
    message = "argument --trials: invalid non-negative int value: '-5'"
    assert json.loads(out)["error"]["message"] == message
    assert message in err


def test_trials_limit_is_checked_before_any_draw(capsys, monkeypatch):
    # Only parsed here: the limit itself would sample for seconds.
    argv = ["scenario", "cat", "--open", "--trials", str(MAX_TRIALS)]
    assert cli._parse_args(argv).trials == MAX_TRIALS
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy fails
    for flags in (["--open"], []):
        code, out, err = run_cli(capsys, "scenario", "cat", *flags, "--trials", str(MAX_TRIALS + 1))
        assert code == EX_USAGE
        message = f"argument --trials: invalid trial count: '{MAX_TRIALS + 1}' is above {MAX_TRIALS}"
        assert json.loads(out)["error"]["message"] == message
        assert message in err


@pytest.mark.parametrize("levels", ["a,b", "0.5,x", "0.1;0.2"])
def test_non_numeric_levels_is_a_usage_error(capsys, levels):
    code, out, err = run_cli(capsys, "scenario", "threshold", "--levels", levels)
    assert code == EX_USAGE
    assert json.loads(out)["error"]["message"].startswith("argument --levels: ")
    assert "--levels" in err


def test_levels_skip_empty_parts(capsys):
    code, out, _ = run_cli(capsys, "scenario", "threshold", "--levels", ",0.1,, 0.9,")
    assert code == EX_OK
    assert [j["context"] for j in json.loads(out)["judgments"]] == [
        "intensity_0.1", "intensity_0.9"
    ]


_DEFAULT_SCENARIO_CLASSES = {
    "double_slit": "P7", "cat": "P3", "wigner": "P5",
    "epr": "P5", "qcc": "P7", "threshold": "P7",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_runs_through_main(capsys, name, fmt):
    code, out, _ = run_cli(capsys, "scenario", name, "--format", fmt)
    assert code == EX_OK
    expected = _DEFAULT_SCENARIO_CLASSES[name]
    if fmt == "json":
        data = json.loads(out)
        assert data["scenarioName"] == name
        assert data["expectedClass"]["class"] == expected
    else:
        assert out.startswith(f"scenario: {name}\n")
        assert f"\nexpected: {expected} (" in out


def test_lazy_loads_show_in_importtime(tmp_path, cat_files):
    # The package loads a name's home module through the import statement's
    # machinery, which is what `-X importtime` reports on.  Under `python -m`
    # the CLI module is `__main__`, and reading its callees loads no second
    # `sapta.cli`.
    model, _ = cat_files
    formulas = tmp_path / "f.lgc"
    formulas.write_text("forall x. (box_open(x) -> alive(x))\n")
    cases = [
        (["-c", "import sapta; sapta.Model"], "sapta.semantics"),
        (["-m", "sapta.cli", "parse", str(formulas)], "sapta.parser"),
        (["-m", "sapta.cli", "eval", str(formulas), "--model", str(model)], "sapta.semantics"),
    ]
    for argv, module in cases:
        done = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                              text=True, check=True, env=_child_env())
        listed = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
        assert module in listed, argv
        assert "sapta.cli" not in listed, argv


def test_large_seed_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "scenario", "cat", "--open", "--seed", str(2**70))
    assert code == EX_OK
    assert json.loads(out)["metadata"]["seed"] == 2**70


@pytest.mark.parametrize("field, bad", [
    ("domain", "cat"),
    ("predicates", "alive"),
    ("incompatible", ["ab"]),
])
def test_eval_rejects_wrongly_typed_model_fields(capsys, tmp_path, field, bad):
    data = dict(CAT_MODEL, **{field: bad})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    formulas = tmp_path / "f.lgc"
    formulas.write_text("forall x. (box_open(x) -> alive(x))\n")
    code, out, _ = run_cli(capsys, "eval", str(formulas), "--model", str(model))
    assert code == EX_ERROR
    assert json.loads(out)["error"]["kind"] == "ModelError"


def test_eval_names_a_missing_model_key(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({k: v for k, v in CAT_MODEL.items() if k != "domain"}))
    formulas = tmp_path / "f.lgc"
    formulas.write_text("forall x. (box_open(x) -> alive(x))\n")
    code, out, _ = run_cli(capsys, "eval", str(formulas), "--model", str(model))
    assert code == EX_ERROR
    error = json.loads(out)["error"]
    assert error["kind"] == "ModelError"
    assert error["message"] == "a model must have a 'domain' key"


@pytest.mark.parametrize("text", ["~" * 5000 + "p(x)", "(" * 3000 + "p(x)" + ")" * 3000])
def test_deep_nesting_is_a_parse_error(capsys, tmp_path, text):
    src = tmp_path / "deep.lgc"
    src.write_text(text + "\n")
    code, out, err = run_cli(capsys, "parse", str(src))
    assert code == EX_ERROR
    payload = json.loads(out)["error"]
    assert payload["kind"] == "ParseError"
    assert payload["span"]["line"] == 1
    assert "nested deeper" in err


@pytest.mark.parametrize("judgments", [
    5,
    {"context": "box_open", "predicate": "alive", "value": "T"},
    [{"context": "box_open", "predicate": ["alive"], "value": "T"}],
    [{"context": 7, "predicate": "alive", "value": "T"}],
])
def test_classify_rejects_wrongly_typed_judgments(capsys, tmp_path, cat_files, judgments):
    model, _ = cat_files
    path = tmp_path / "judgments.json"
    path.write_text(json.dumps(judgments))
    code, out, _ = run_cli(capsys, "classify", str(path), "--model", str(model))
    assert code == EX_ERROR
    assert json.loads(out)["error"]["kind"] == "ModelError"


def test_closed_stdout_exits_without_traceback(tmp_path):
    # Far more output than a pipe buffers, so the write fails once the reader is gone.
    src = tmp_path / "many.lgc"
    src.write_text("forall x. ((c1(x) -> p(x)) & (c2(x) -> ~p(x))) & ~(c1(x) <-> c2(x))\n" * 300)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "sapta.cli", "parse", str(src)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EX_ERROR
    assert "Traceback" not in err
    assert "Exception ignored" not in err


_Pair = namedtuple("_Pair", "first second")  # a tuple subclass, encoded as a list

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats() | st.just(-0.0) | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                      kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"": [], "a\x00 \"\\": {}, "é": [[{}], ()], "n": [float("nan"), float("-inf")]})
@example([{1: 2}, {None: 1}, {1.5: "a"}, {True: 1}, {"1": 0}, {1.0: {"1": 0}}, {float("nan"): 0}])
@example([{1: 2, "a": 3}, {True: 2, "a": 3}, {"1": 2, "a": 3}, {1.0: 2, "a": 3}])
@example([OrderedDict([("b", [1]), ("a", OrderedDict())]), {"n": OrderedDict([(2, "x")])}])
@example([_Pair(1, [2.5, None]), _Pair(_Pair("a", ()), {"k": _Pair(True, False)})])
def test_encoder_matches_stock_json(value):
    want = json.dumps(value, indent=2, ensure_ascii=False)
    assert json.dumps(value, indent=2, ensure_ascii=False, cls=cli._Encoder) == want


@pytest.mark.parametrize("value", [{(1, 2): 0}, [{"a": 1}, {"b": {frozenset(): 2}}], {1: {b"x": 0}}])
def test_encoder_rejects_keys_as_stock_json_does(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError) as got:
        json.dumps(value, indent=2, ensure_ascii=False, cls=cli._Encoder)
    assert str(got.value) == str(want.value)


def test_encoding_peaks_under_twice_its_output(big_formulas):
    # The writer fills one buffer: it keeps no string per item until a join.
    from sapta.commands import parse

    _, output = parse.run(cli, SimpleNamespace(paths=[big_formulas], format="json"), [])

    def encode():
        return json.dumps(output, indent=2, ensure_ascii=False, cls=cli._Encoder)

    encode()  # one-off allocations of a first call
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = encode()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.isascii() and len(text) > 1_000_000
    assert peak - before < 2 * len(text)


@pytest.mark.parametrize("nested", ["model", "judgments"])
def test_deeply_nested_json_is_a_json_error(capsys, tmp_path, cat_files, nested):
    model, judgments = cat_files
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    if nested == "model":
        formulas = tmp_path / "one.lgc"
        formulas.write_text("forall x. alive(x)\n")
        argv = ["eval", str(formulas), "--model", str(deep)]
    else:
        argv = ["classify", str(deep), "--model", str(model)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EX_ERROR
    data = json.loads(out)
    assert list(data) == ["error"]
    assert data["error"]["kind"] == "ModelError"
    assert "nested too deeply" in data["error"]["message"]
    assert "Traceback" not in err
