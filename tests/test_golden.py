"""Byte-for-byte pins of CLI output that no refactor may change.

The files under ``golden/`` hold the exact stdout of ``exclusivity``,
``corpus --seed 0``, thirteen ``scenario`` runs covering every branch of
each scenario, ``parse`` of a formula file using every node class the
parser builds, and ``eval`` of a closed formula file under both
``--incompat`` readings (all JSON and text); ``--help`` of ``sapta`` and
of each command; the JSON error object of each kind of usage error; and,
for each of the seven canonical witnesses, its judgment set, its induced
model and the ``classify --format text`` output on them.  The usage
errors' messages are sapta's own, so they are the same on every Python
version.  The pinned commands run in
``golden/`` and name their inputs by relative path, since ``parse`` and
``eval`` print each path as given.  The sha256 prefixes guard the pinned
files themselves against being regenerated from changed code.
"""
import hashlib
import json
from pathlib import Path

import pytest

from sapta.cli import EX_OK, EX_USAGE, main
from sapta.certificate import canonical_witness
from sapta.formulas import ast_to_dict
from sapta.predication import PredicationTag, judgments_to_json
from sapta.schemas import schema

GOLDEN = Path(__file__).parent / "golden"

NO_SLITS = ["--no-one-slit-observed", "--no-one-slit-unobserved", "--no-two-slits-unobserved"]

PINNED = {
    "exclusivity.json": (["exclusivity"], "c5d007f598e67efa"),
    "exclusivity.txt": (["exclusivity", "--format", "text"], "96f59496a7bb11e7"),
    "corpus_seed0.json": (["corpus", "--seed", "0"], "84ca2775df2db185"),
    "corpus_seed0.txt": (["corpus", "--seed", "0", "--format", "text"], "436bd31e06c99674"),
    # Every scenario's report: each branch of its expected class, JSON and text.
    "scenario_double_slit.json": (["scenario", "double_slit"], "a5a7a1b188e8ce30"),
    "scenario_double_slit.txt": (["scenario", "double_slit", "--format", "text"], "786ae3d225f7dd35"),
    "scenario_double_slit_none.json": (["scenario", "double_slit", *NO_SLITS], "a01d36a6d73d11c1"),
    "scenario_double_slit_none.txt": (["scenario", "double_slit", *NO_SLITS, "--format", "text"], "061cc7eaf7b71565"),
    "scenario_cat_closed.json": (["scenario", "cat"], "db5ed4a053f6a6f4"),
    "scenario_cat_closed.txt": (["scenario", "cat", "--format", "text"], "3ed7833ad8ed955f"),
    "scenario_cat_open_seed0.json": (["scenario", "cat", "--open", "--seed", "0"], "1656905c3b931ff0"),
    "scenario_cat_open_seed0.txt": (["scenario", "cat", "--open", "--seed", "0", "--format", "text"], "794b9c96bdc0767f"),
    "scenario_cat_open_seed2.json": (["scenario", "cat", "--open", "--seed", "2"], "f7176907dbb74db9"),
    "scenario_cat_open_seed2.txt": (["scenario", "cat", "--open", "--seed", "2", "--format", "text"], "a433b9690dc1f3b9"),
    "scenario_wigner.json": (["scenario", "wigner"], "787411c786478ad6"),
    "scenario_wigner.txt": (["scenario", "wigner", "--format", "text"], "d9ce9d4cce8d47f9"),
    "scenario_wigner_friend_down.json": (["scenario", "wigner", "--perspective", "friend", "--friend-outcome", "down"], "147683e59d2bd057"),
    "scenario_wigner_friend_down.txt": (["scenario", "wigner", "--perspective", "friend", "--friend-outcome", "down", "--format", "text"], "44ffbfeeb2b703b0"),
    "scenario_wigner_outside.json": (["scenario", "wigner", "--perspective", "wigner"], "bcd3663f7f925a6e"),
    "scenario_wigner_outside.txt": (["scenario", "wigner", "--perspective", "wigner", "--format", "text"], "4040c7e27f3b0bfe"),
    "scenario_epr_zero_one.json": (["scenario", "epr", "--basis", "zero_one"], "e6735224cb9c8a05"),
    "scenario_epr_zero_one.txt": (["scenario", "epr", "--basis", "zero_one", "--format", "text"], "6b54fdd9a5ed562f"),
    "scenario_epr_plus_minus.json": (["scenario", "epr", "--basis", "plus_minus"], "c8293084dfa7033f"),
    "scenario_epr_plus_minus.txt": (["scenario", "epr", "--basis", "plus_minus", "--format", "text"], "9437752b9906f3ab"),
    "scenario_qcc.json": (["scenario", "qcc"], "48adfa09172f9a8e"),
    "scenario_qcc.txt": (["scenario", "qcc", "--format", "text"], "72fb7f7c84512e9c"),
    "scenario_threshold.json": (["scenario", "threshold"], "b1c4f488a806880c"),
    "scenario_threshold.txt": (["scenario", "threshold", "--format", "text"], "cdadad6d6162f55e"),
    "scenario_threshold_high.json": (["scenario", "threshold", "--levels", "0.9,0.95"], "9fd6601850f0a4be"),
    "scenario_threshold_high.txt": (["scenario", "threshold", "--levels", "0.9,0.95", "--format", "text"], "6f8439b2b4243d01"),
    # Every node class, let names, comments, Unicode operators, deep nesting.
    "parse_formulas.json": (["parse", "formulas.lgc"], "56459270bf2dba18"),
    "parse_formulas.txt": (["parse", "formulas.lgc", "--format", "text"], "c7b6479257d30bd7"),
    "eval_relational.json": (["eval", "closed.lgc", "--model", "model.json"], "816d37313ab35db8"),
    "eval_relational.txt": (["eval", "closed.lgc", "--model", "model.json", "--format", "text"], "45e4b17224f3e823"),
    "eval_extensional.json": (["eval", "closed.lgc", "--model", "model.json", "--incompat", "extensional"], "ae8012b2d2d36def"),
    "eval_extensional.txt": (["eval", "closed.lgc", "--model", "model.json", "--incompat", "extensional", "--format", "text"], "b8d2b770b54b12f6"),
    # Help lists every flag of the command-line table, unwrapped.
    "help.txt": (["--help"], "1699c5dc0a037c22"),
    "help_parse.txt": (["parse", "--help"], "7f326a9b0dafa7b3"),
    "help_eval.txt": (["eval", "--help"], "59e74baa9b4e6195"),
    "help_classify.txt": (["classify", "--help"], "21c18f30945bd640"),
    "help_scenario.txt": (["scenario", "--help"], "66ffd8fc4f6ab5f8"),
    "help_corpus.txt": (["corpus", "--help"], "902205c1d56868b7"),
    "help_exclusivity.txt": (["exclusivity", "--help"], "6ee722c5cd6bd12a"),
}

# Usage errors, which exit 64.
USAGE_PINNED = {
    "usage_invalid_choice.json": (["exclusivity", "--format", "xml"], "0ea55f25cf41ca80"),
    "usage_no_value.json": (["eval", "closed.lgc", "--model"], "a9d3fa4c6db7c951"),
    "usage_unrecognized.json": (["corpus", "--bogus"], "a6b3b29336d9bd3a"),
    "usage_missing_model.json": (["eval", "closed.lgc"], "b0225f787ea07aa1"),
    "usage_missing_command.json": ([], "eadf64d011d5ff2f"),
    "usage_bad_seed.json": (["corpus", "--seed", "-1"], "7b011a63b628f495"),
    "usage_bad_trials.json": (["scenario", "cat", "--open", "--trials", "1000000001"], "ec8c876b9648c827"),
    "usage_bad_levels.json": (["scenario", "threshold", "--levels", "0.5,x"], "b6ec6fcd4f5a5722"),
    # After `--` a `--format` is a positional word, not the output format.
    "usage_format_after_double_dash.json": (["corpus", "--", "--format", "text"], "c4d358850ec13a44"),
    # Standard input is read once: naming it twice is refused before reading it.
    "usage_stdin_twice.json": (["parse", "-", "-"], "c24fdebece1bb1cd"),
    # classify's judgment file is named once, or the line is refused before
    # any file is read: these files do not exist.
    "usage_judgments_twice.json": (["classify", "j.json", "--judgments", "j.json", "--model", "m.json"], "835c7f3150d4e395"),
    "usage_judgments_missing.json": (["classify", "--model", "m.json"], "835c7f3150d4e395"),
}

WITNESSES = json.loads((GOLDEN / "canonical_witnesses.json").read_text(encoding="utf-8"))


def stdout_bytes(capsys, argv, code=EX_OK) -> bytes:
    assert main(list(argv)) == code
    return capsys.readouterr().out.encode("utf-8")


def _pinned(name: str, digest: str) -> bytes:
    pinned = (GOLDEN / name).read_bytes()
    assert hashlib.sha256(pinned).hexdigest()[:16] == digest
    return pinned


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_byte_identical_to_pin(capsys, monkeypatch, name):
    argv, digest = PINNED[name]
    monkeypatch.chdir(GOLDEN)
    assert stdout_bytes(capsys, argv) == _pinned(name, digest)


@pytest.mark.parametrize("name", sorted(USAGE_PINNED))
def test_usage_error_is_byte_identical_to_pin(capsys, monkeypatch, name):
    argv, digest = USAGE_PINNED[name]
    monkeypatch.chdir(GOLDEN)
    assert stdout_bytes(capsys, argv, EX_USAGE) == _pinned(name, digest)


def test_json_output_takes_the_writers_own_path(capsys, monkeypatch):
    # `cli._Encoder` writes non-empty containers itself and hands anything
    # else to the stock encoder; no pinned JSON output may reach it with one.
    stock, handed = json.JSONEncoder.encode, []

    def encode(self, o):
        if isinstance(o, (dict, list, tuple)) and o:
            handed.append(type(o).__name__)
        return stock(self, o)

    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(json.JSONEncoder, "encode", encode)
    pins = {**PINNED, **USAGE_PINNED}
    for name in sorted(name for name in pins if name.endswith(".json")):
        stdout_bytes(capsys, pins[name][0], EX_USAGE if name in USAGE_PINNED else EX_OK)
    assert handed == []


def _guard(context):
    return {"node": "ContextGuard", "context": context, "var": "x"}


P = {"node": "PredicateApp", "name": "p", "var": "x"}


def test_schema_dump_is_pinned():
    # The CLI parses no ContextGuard; a schema carries them.  Comparing the
    # JSON text pins the key order too.
    pinned = {
        "node": "ForAll",
        "var": "x",
        "body": {
            "node": "And",
            "left": {
                "node": "And",
                "left": {"node": "Implies", "left": _guard("c1"), "right": P},
                "right": {"node": "Implies", "left": _guard("c2"), "right": {"node": "Not", "operand": P}},
            },
            "right": {
                "node": "Not",
                "operand": {"node": "Iff", "left": _guard("c1"), "right": _guard("c2")},
            },
        },
    }
    assert json.dumps(ast_to_dict(schema(4, ["c1", "c2"], "p"))) == json.dumps(pinned)


def test_pins_cover_the_seven_witnesses():
    assert sorted(WITNESSES) == [f"P{k}" for k in range(1, 8)]


@pytest.mark.parametrize("tag", sorted(WITNESSES))
def test_canonical_witness_is_pinned(tag):
    judgments, model = canonical_witness(PredicationTag(tag))
    assert judgments_to_json(judgments) == WITNESSES[tag]["judgments"]
    assert model.to_json() == WITNESSES[tag]["model"]


@pytest.mark.parametrize("tag", sorted(WITNESSES))
def test_classify_text_is_byte_identical_to_pin(capsys, tmp_path, tag):
    judgments, model = tmp_path / "judgments.json", tmp_path / "model.json"
    judgments.write_text(json.dumps(WITNESSES[tag]["judgments"]))
    model.write_text(json.dumps(WITNESSES[tag]["model"]))
    argv = ["classify", str(judgments), "--model", str(model), "--format", "text"]
    assert stdout_bytes(capsys, argv) == WITNESSES[tag]["classifyText"].encode("utf-8")
