"""The `sapta` process ends through `entry()`'s one exit point.

`entry()` flushes stdout, then stderr, and ends the process with
`os._exit`, so the interpreter's teardown never runs.  These tests start
``python -m sapta.cli`` as a process and require that what arrives on its
pipes, and its exit code, are what `main()` gives in-process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sapta.cli as cli
from sapta.cli import EX_ERROR, EX_OK, EX_USAGE, main

GOLDEN = Path(__file__).parent / "golden"
FORMULAS = str(GOLDEN / "closed.lgc")
MODEL = str(GOLDEN / "model.json")
# Children get Python's default block-buffered stdout, so that output waits
# for entry()'s flush, whatever this process's PYTHONUNBUFFERED says.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(cli.__file__).parents[1])}
PIPE_BUFFER = 64 * 1024  # Linux's default pipe capacity


def run(*argv: str, env=ENV) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "sapta.cli", *argv], capture_output=True,
                          stdin=subprocess.DEVNULL, env=env, timeout=60)


def in_process(capsys, *argv: str) -> tuple[int, bytes, bytes]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("exit")
    (directory / "big.lgc").write_text("".join(
        f"let f{i} = forall x. ((c(x) -> (p(x) & ~q(x))) & (d(x) -> (q(x) | ~p(x))) & ~(c(x) <-> d(x)))\n"
        for i in range(1000)
    ))
    (directory / "judgments.json").write_text(
        json.dumps([{"context": "c1", "predicate": "p", "value": "T"}]))
    (directory / "bad.json").write_text("{")
    return directory


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_larger_than_the_pipe_arrives_whole(capsys, files, fmt, unbuffered):
    argv = ["parse", str(files / "big.lgc"), "--format", fmt]
    code, out, _ = in_process(capsys, *argv)
    assert code == EX_OK
    assert len(out) > PIPE_BUFFER
    proc = run(*argv, env=dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV)
    assert proc.returncode == EX_OK
    assert proc.stdout == out
    assert proc.stderr == b""


# name -> (argv, the exit code main() returns for it)
CASES = {
    "parse": (["parse", FORMULAS], EX_OK),
    "parse-missing-file": (["parse", "no-such-file.lgc"], EX_ERROR),
    "eval": (["eval", FORMULAS, "--model", MODEL], EX_OK),
    "eval-extensional-text": (["eval", FORMULAS, "--model", MODEL, "--incompat", "extensional",
                               "--format", "text"], EX_OK),
    "eval-bad-model": (["eval", FORMULAS, "--model", "BAD"], EX_ERROR),
    "classify": (["classify", "JUDGMENTS", "--model", MODEL], EX_OK),
    "classify-bad-judgments": (["classify", "BAD", "--model", MODEL], EX_ERROR),
    "scenario": (["scenario", "wigner", "--format", "text"], EX_OK),
    "scenario-bad-cuts": (["scenario", "threshold", "--lower-cut", "0.9"], EX_ERROR),
    "corpus": (["corpus"], EX_OK),
    "exclusivity": (["exclusivity", "--format", "text"], EX_OK),
    "usage": (["eval", FORMULAS], EX_USAGE),
    "usage-text": (["scenario", "nowhere", "--format", "text"], EX_USAGE),
}


@pytest.mark.parametrize("name", CASES)
def test_every_command_exits_as_main_returns(capsys, files, name):
    argv, expected = CASES[name]
    paths = {"JUDGMENTS": str(files / "judgments.json"), "BAD": str(files / "bad.json")}
    argv = [paths.get(arg, arg) for arg in argv]
    code, out, err = in_process(capsys, *argv)
    assert code == expected
    proc = run(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_is_written_and_exits_0(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EX_OK
    out = capsys.readouterr().out.encode()
    proc = run(*argv, env=dict(ENV, COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EX_OK, out, b"")
