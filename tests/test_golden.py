"""Byte-for-byte pins of CLI output that no refactor may change.

The files under ``golden/`` hold the exact stdout of ``exclusivity`` and
``corpus --seed 0`` (JSON and text) and, for each of the seven canonical
witnesses, its judgment set, its induced model and the ``classify --format
text`` output on them.  The sha256 prefixes guard the pinned files
themselves against being regenerated from changed code.
"""
import hashlib
import json
from pathlib import Path

import pytest

from sapta.cli import EX_OK, main
from sapta.predication import PredicationTag, canonical_witness, judgments_to_json

GOLDEN = Path(__file__).parent / "golden"

PINNED = {
    "exclusivity.json": (["exclusivity"], "c5d007f598e67efa"),
    "exclusivity.txt": (["exclusivity", "--format", "text"], "96f59496a7bb11e7"),
    "corpus_seed0.json": (["corpus", "--seed", "0"], "84ca2775df2db185"),
    "corpus_seed0.txt": (["corpus", "--seed", "0", "--format", "text"], "436bd31e06c99674"),
}

WITNESSES = json.loads((GOLDEN / "canonical_witnesses.json").read_text(encoding="utf-8"))


def stdout_bytes(capsys, argv) -> bytes:
    assert main(list(argv)) == EX_OK
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_byte_identical_to_pin(capsys, name):
    argv, digest = PINNED[name]
    pinned = (GOLDEN / name).read_bytes()
    assert hashlib.sha256(pinned).hexdigest()[:16] == digest
    assert stdout_bytes(capsys, argv) == pinned


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
