"""The CLI at the process boundary: a standard stream closed or failing.

Each case starts ``python -m sapta.cli`` through ``sh`` so that the shell can
close a descriptor (``<&-``, ``>&-``, ``2>&-``), open stderr read-only, or
point stdout at ``/dev/full``.  Whatever the stream, the process exits with
one of the CLI's codes, and an open stderr never shows a traceback.  A write
to stdout is tried once, whether it fails at entry()'s flush (block-buffered
stdout) or in the write itself (``PYTHONUNBUFFERED=1``, or an output larger
than the buffer).
"""
import errno
import io
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
UNBUFFERED = {**ENV, "PYTHONUNBUFFERED": "1"}
HAS_DEV_FULL = os.path.exists("/dev/full")


def run(redirect: str, *argv: str, env=ENV) -> subprocess.CompletedProcess:
    script = f'exec "$0" -m sapta.cli "$@" {redirect}'
    return subprocess.run(["sh", "-c", script, sys.executable, *argv], capture_output=True,
                          stdin=subprocess.DEVNULL, env=env, timeout=60)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, big_formulas):
    """The files that COMMANDS names by placeholder."""
    path = tmp_path_factory.mktemp("streams") / "judgments.json"
    path.write_text(json.dumps([{"context": "c1", "predicate": "p", "value": "T"}]))
    return {"JUDGMENTS": str(path), "BIG": big_formulas}


# name -> (argv, exit code with every stream open)
COMMANDS = {
    "parse": (["parse", FORMULAS], EX_OK),
    "parse-stdin": (["parse", "-"], EX_OK),
    "parse-big": (["parse", "BIG"], EX_OK),
    "eval": (["eval", FORMULAS, "--model", MODEL], EX_OK),
    "classify": (["classify", "JUDGMENTS", "--model", MODEL], EX_OK),
    "scenario": (["scenario", "qcc"], EX_OK),
    "corpus": (["corpus", "--format", "text"], EX_OK),
    "exclusivity": (["exclusivity"], EX_OK),
    "usage": (["parse", "--bogus"], EX_USAGE),
}


def argv_of(name, inputs):
    return [inputs.get(arg, arg) for arg in COMMANDS[name][0]]


# (name, env): every command with block-buffered stdout, then unbuffered.
BUFFERINGS = [*(pytest.param(name, ENV, id=name) for name in COMMANDS),
              *(pytest.param(name, UNBUFFERED, id=f"{name}-unbuffered") for name in COMMANDS)]


def assert_clean(err: bytes):
    text = err.decode()
    assert "Traceback" not in text
    assert "Exception ignored" not in text


@pytest.mark.parametrize("name", COMMANDS)
def test_closed_stdin(name, inputs):
    proc = run("<&-", *argv_of(name, inputs))
    assert_clean(proc.stderr)
    if name != "parse-stdin":
        assert proc.returncode == COMMANDS[name][1]
        return
    assert proc.returncode == EX_ERROR
    assert json.loads(proc.stdout)["error"] == {
        "kind": "SaptaError", "message": "standard input is closed", "span": None}
    assert proc.stderr == b"error: standard input is closed\n"


@pytest.mark.parametrize("name", COMMANDS)
def test_closed_stdout(name, inputs):
    proc = run(">&-", *argv_of(name, inputs))
    assert proc.returncode == EX_ERROR
    assert proc.stderr == b"error: standard output is closed\n"


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("name", COMMANDS)
def test_closed_or_failing_stderr(name, redirect, inputs):
    proc = run(redirect, *argv_of(name, inputs))
    assert proc.returncode == COMMANDS[name][1]
    if name != "corpus":  # the one command run with --format text here
        json.loads(proc.stdout)  # no diagnostic leaked into stdout


@pytest.mark.parametrize("name, env", BUFFERINGS)
def test_reader_that_closes_early(name, env, inputs):
    proc = subprocess.Popen([sys.executable, "-m", "sapta.cli", *argv_of(name, inputs)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert_clean(err)
    if name == "parse-big":  # cannot fit the pipe: a closed pipe gives no stderr line
        assert (code, err) == (EX_ERROR, b"")
    else:  # the whole output may fit the pipe before the reader leaves
        assert code in {COMMANDS[name][1], EX_ERROR}


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_error_with_stderr_closed_still_reports_on_stdout(redirect):
    proc = run(redirect, "parse", "no-such-file.lgc")
    assert proc.returncode == EX_ERROR
    assert json.loads(proc.stdout)["error"]["kind"] == "FileNotFoundError"


@pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, env", BUFFERINGS)
def test_stdout_on_a_full_device(name, env, fmt, inputs):
    proc = run(">/dev/full", *argv_of(name, inputs), "--format", fmt, env=env)
    assert_clean(proc.stderr)
    if fmt == "text" and name in ("usage", "parse-stdin"):  # nothing to write to stdout
        assert proc.returncode == COMMANDS[name][1]
        return
    assert proc.returncode == EX_ERROR
    lines = proc.stderr.decode().splitlines()
    assert lines[-1].startswith("error: cannot write output: ")
    # A usage error's own line is written before the write that fails,
    # buffered or not.
    assert [line.partition(": ")[0] for line in lines[:-1]] == (["usage error"] if name == "usage" else [])


@pytest.mark.parametrize("argv, code", [(["parse", "--bogus"], EX_USAGE), (["parse", "BAD"], EX_ERROR)],
                         ids=["usage", "parse-error"])
def test_an_errors_line_comes_before_its_json(tmp_path, argv, code):
    # With unbuffered stdout and stderr joined to it, every error, a usage
    # error included, shows its stderr line first and then its JSON object.
    bad = tmp_path / "bad.lgc"
    bad.write_text("p(x) &\n")
    proc = run("2>&1", *(str(bad) if arg == "BAD" else arg for arg in argv), env=UNBUFFERED)
    assert proc.returncode == code
    line, _, rest = proc.stdout.decode().partition("\n")
    error = json.loads(rest)["error"]
    assert line.endswith("error: " + error["message"])


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
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass

    def isatty(self):
        return False


class RecordingStdout(io.StringIO):
    """A stdout that keeps each text it is asked to write."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


# Every command, a usage error and a failing run, each with its exit code.
WRITE_CASES = {**COMMANDS, "missing-file": (["parse", "no-such-file.lgc"], EX_ERROR)}


def run_in_process(monkeypatch, inputs, name, fmt, stdout):
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(Path(FORMULAS).read_bytes())))
    argv = [inputs.get(arg, arg) for arg in WRITE_CASES[name][0]]
    return cli.main([*argv, "--format", fmt])


def writes_nothing(name, fmt):
    """Whether the run has no output: a text run that fails prints nothing."""
    return fmt == "text" and name in ("usage", "missing-file")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", WRITE_CASES)
def test_failed_write_is_not_retried(monkeypatch, inputs, name, fmt):
    out = FullStdout()
    if writes_nothing(name, fmt):
        assert run_in_process(monkeypatch, inputs, name, fmt, out) == WRITE_CASES[name][1]
        assert out.writes == 0
        return
    with pytest.raises(OSError) as raised:
        run_in_process(monkeypatch, inputs, name, fmt, out)
    assert raised.value.errno == errno.ENOSPC  # the stream's own error
    assert out.writes == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", WRITE_CASES)
def test_a_run_writes_its_whole_output_at_once(monkeypatch, inputs, name, fmt):
    out = RecordingStdout()
    assert run_in_process(monkeypatch, inputs, name, fmt, out) == WRITE_CASES[name][1]
    if writes_nothing(name, fmt):
        assert out.texts == []
    else:  # the output, then its final newline
        assert out.texts == [out.getvalue()[:-1], "\n"]
