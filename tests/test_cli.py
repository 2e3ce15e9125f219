"""CLI behaviour: exit codes, JSON-on-every-path, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import sapta.cli as cli
from sapta.cli import EX_ERROR, EX_MISMATCH, EX_OK, EX_USAGE, main
from sapta.predication import PredicationClass, PredicationTag


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


def test_corpus_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "sapta.cli", "corpus", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


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
    monkeypatch.setattr("sys.stdin", _FakeStdin("forall x. (box_open(x) -> alive(x))\n"))
    code, out, _ = run_cli(capsys, "eval", "-", "--model", str(model))
    assert code == EX_OK
    assert json.loads(out)["results"][0]["value"] == "T"


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text


def test_import_does_not_run_numpy():
    # Only scenario and corpus need numpy; importing the CLI must not load it.
    code = (
        "import sys, sapta.cli\n"
        "print(sorted(m for m in ('numpy._core', 'numpy.core') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats() | st.just(-0.0) | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"": [], "a\x00 \"\\": {}, "é": [[{}], ()], "n": [float("nan"), float("-inf")]})
def test_encoder_matches_stock_json(value):
    want = json.dumps(value, indent=2, ensure_ascii=False)
    assert json.dumps(value, indent=2, ensure_ascii=False, cls=cli._Encoder) == want
