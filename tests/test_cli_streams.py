"""The CLI at the process boundary: a standard stream closed or failing.

Each case starts ``python -m sapta.cli`` through ``sh`` so that the shell can
close a descriptor (``<&-``, ``>&-``, ``2>&-``), open stderr read-only, or
point stdout at ``/dev/full``.  Whatever the stream, the process exits with
one of the CLI's codes, and an open stderr never shows a traceback.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sapta.cli as cli
from sapta.cli import EX_ERROR, EX_OK, EX_USAGE

GOLDEN = Path(__file__).parent / "golden"
FORMULAS = str(GOLDEN / "closed.lgc")
MODEL = str(GOLDEN / "model.json")
# Children get Python's default block-buffered stdout, whatever this
# process's PYTHONUNBUFFERED says: a failed write then surfaces at entry()'s
# flush, not at the print.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(cli.__file__).parents[1])}
HAS_DEV_FULL = os.path.exists("/dev/full")


def run(redirect: str, *argv: str) -> subprocess.CompletedProcess:
    script = f'exec "$0" -m sapta.cli "$@" {redirect}'
    return subprocess.run(["sh", "-c", script, sys.executable, *argv], capture_output=True,
                          stdin=subprocess.DEVNULL, env=ENV, timeout=60)


@pytest.fixture(scope="module")
def judgments(tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "judgments.json"
    path.write_text(json.dumps([{"context": "c1", "predicate": "p", "value": "T"}]))
    return str(path)


# name -> (argv, exit code with every stream open)
COMMANDS = {
    "parse": (["parse", FORMULAS], EX_OK),
    "parse-stdin": (["parse", "-"], EX_OK),
    "eval": (["eval", FORMULAS, "--model", MODEL], EX_OK),
    "classify": (["classify", "JUDGMENTS", "--model", MODEL], EX_OK),
    "scenario": (["scenario", "qcc"], EX_OK),
    "corpus": (["corpus", "--format", "text"], EX_OK),
    "exclusivity": (["exclusivity"], EX_OK),
    "usage": (["parse", "--bogus"], EX_USAGE),
}


def argv_of(name, judgments):
    return [judgments if arg == "JUDGMENTS" else arg for arg in COMMANDS[name][0]]


def assert_clean(err: bytes):
    text = err.decode()
    assert "Traceback" not in text
    assert "Exception ignored" not in text


@pytest.mark.parametrize("name", COMMANDS)
def test_closed_stdin(name, judgments):
    proc = run("<&-", *argv_of(name, judgments))
    assert_clean(proc.stderr)
    if name != "parse-stdin":
        assert proc.returncode == COMMANDS[name][1]
        return
    assert proc.returncode == EX_ERROR
    assert json.loads(proc.stdout)["error"] == {
        "kind": "SaptaError", "message": "standard input is closed", "span": None}
    assert proc.stderr == b"error: standard input is closed\n"


@pytest.mark.parametrize("name", COMMANDS)
def test_closed_stdout(name, judgments):
    proc = run(">&-", *argv_of(name, judgments))
    assert proc.returncode == EX_ERROR
    assert proc.stderr == b"error: standard output is closed\n"


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("name", COMMANDS)
def test_closed_or_failing_stderr(name, redirect, judgments):
    proc = run(redirect, *argv_of(name, judgments))
    assert proc.returncode == COMMANDS[name][1]
    if name != "corpus":  # the one command run with --format text here
        json.loads(proc.stdout)  # no diagnostic leaked into stdout


@pytest.mark.parametrize("name", COMMANDS)
def test_reader_that_closes_early(name, judgments):
    proc = subprocess.Popen([sys.executable, "-m", "sapta.cli", *argv_of(name, judgments)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # The whole output may fit the pipe before the reader leaves.
    assert proc.wait(timeout=60) in {COMMANDS[name][1], EX_ERROR}
    assert_clean(err)


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_error_with_stderr_closed_still_reports_on_stdout(redirect):
    proc = run(redirect, "parse", "no-such-file.lgc")
    assert proc.returncode == EX_ERROR
    assert json.loads(proc.stdout)["error"]["kind"] == "FileNotFoundError"


@pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_on_a_full_device(name, fmt, judgments):
    proc = run(">/dev/full", *argv_of(name, judgments), "--format", fmt)
    assert_clean(proc.stderr)
    if fmt == "text" and name in ("usage", "parse-stdin"):  # nothing to write to stdout
        assert proc.returncode == COMMANDS[name][1]
        return
    assert proc.returncode == EX_ERROR
    assert proc.stderr.decode().splitlines()[-1].startswith("error: cannot write output: ")


@pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")
def test_full_device_gives_one_stderr_line():
    proc = run(">/dev/full", "parse", FORMULAS)
    assert proc.returncode == EX_ERROR
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(b"error: cannot write output: ")


class FullStdout:
    """A stdout whose every write fails as on a full disk."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["parse", FORMULAS], ["parse", "no-such-file.lgc"], ["parse", "--bogus"]])
def test_failed_write_is_not_retried(monkeypatch, argv):
    out = FullStdout()
    monkeypatch.setattr(sys, "stdout", out)
    with pytest.raises(OSError):
        cli.main(argv)
    assert out.writes == 1
