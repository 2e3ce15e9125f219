"""The `sapta` process ends through `entry()`'s one exit point.

`entry()` flushes stdout, then stderr, and ends the process with
`os._exit`, so the interpreter's teardown never runs.  These tests start
``python -m sapta.cli`` as a process and require that what arrives on its
pipes, and its exit code, are what `main()` gives in-process.  What the
command built lives until `os._exit` under `entry()`, and is freed when
`main()` returns.
"""
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import sapta.cli as cli
import sapta.semantics
from sapta.cli import EX_ERROR, EX_OK, EX_USAGE, main

GOLDEN = Path(__file__).parent / "golden"
FORMULAS = str(GOLDEN / "closed.lgc")
MODEL = str(GOLDEN / "model.json")
# Children get Python's default block-buffered stdout, so that output waits
# for entry()'s flush, whatever this process's PYTHONUNBUFFERED says.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(cli.__file__).parents[1])}
PIPE_BUFFER = 64 * 1024  # Linux's default pipe capacity
HAS_DEV_FULL = os.path.exists("/dev/full")


def run(*argv: str, env=ENV, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "sapta.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, timeout=60)


def in_process(capsys, *argv: str) -> tuple[int, bytes, bytes]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("exit")
    (directory / "judgments.json").write_text(
        json.dumps([{"context": "c1", "predicate": "p", "value": "T"}]))
    (directory / "bad.json").write_text("{")
    return directory


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_larger_than_the_pipe_arrives_whole(capsys, big_formulas, fmt, unbuffered):
    argv = ["parse", big_formulas, "--format", fmt]
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
def test_help_is_written_and_exits_0(capsys, argv):
    code, out, err = in_process(capsys, *argv)
    assert (code, err) == (EX_OK, b"")
    proc = run(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EX_OK, out, b"")


@pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["parse", "--help"]])
def test_help_to_a_full_device_fails_with_one_stderr_line(argv):
    # Unbuffered, the help's one write in _write fails, not entry()'s flush.
    with open("/dev/full", "w") as full:
        proc = run(*argv, env=dict(ENV, PYTHONUNBUFFERED="1"), stdout=full)
    assert proc.returncode == EX_ERROR
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(b"error: cannot write output: ")


@pytest.fixture
def collector():
    """Turn the collector off, as entry() does, so that only a reference,
    not a collection, decides what is freed; restore it after the test."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def built_models(monkeypatch):
    """Weak references to every Model the CLI builds."""
    refs = []
    from_json = cli.Model.from_json

    def recording(data):
        model = from_json(data)
        refs.append(weakref.ref(model))
        return model

    monkeypatch.setattr(cli.Model, "from_json", recording)
    return refs


def test_main_frees_what_the_command_built(capsys, collector, files, built_models):
    assert main(["classify", str(files / "judgments.json"), "--model", MODEL]) == EX_OK
    capsys.readouterr()
    assert len(built_models) == 1
    assert built_models[0]() is None


def test_entry_holds_what_the_command_built_until_os_exit(capsys, collector, monkeypatch, files,
                                                           built_models):
    exits = []
    monkeypatch.setattr(os, "_exit", lambda code: exits.append((code, built_models[0]())))
    monkeypatch.setattr(sys, "argv", ["sapta", "classify", str(files / "judgments.json"),
                                      "--model", MODEL])
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # entry() sets it
    cli.entry()
    capsys.readouterr()
    [(code, model)] = exits
    assert code == EX_OK
    assert isinstance(model, sapta.semantics.Model)
    exits.clear()
    del model
    assert built_models[0]() is None  # the intercepted os._exit returned, so entry() did


# Counts the process's threads in os._exit, after everything else has run.
COUNT_THREADS_AT_EXIT = """
import os, sys
from sapta.cli import entry
exit_now = os._exit
def counting_exit(code):
    os.write(2, b"threads: %d\\n" % len(os.listdir("/proc/self/task")))
    exit_now(code)
os._exit = counting_exit
entry()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cat_sampling_runs_one_thread():
    pytest.importorskip("numpy")
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_THREADS_AT_EXIT, "scenario", "cat", "--open", "--trials", "10"],
        capture_output=True, stdin=subprocess.DEVNULL, env=env, timeout=60)
    assert proc.returncode == EX_OK
    assert proc.stderr == b"threads: 1\n"


def test_only_entry_sets_the_blas_thread_default(capsys, collector, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["scenario", "cat", "--open", "--trials", "10"]) == EX_OK
    capsys.readouterr()
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    monkeypatch.setattr(cli, "_run", lambda argv, keep: EX_OK)
    monkeypatch.setattr(os, "_exit", lambda code: None)
    cli.entry()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_entry_leaves_a_blas_thread_count_the_user_set(collector, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(cli, "_run", lambda argv, keep: EX_OK)
    monkeypatch.setattr(os, "_exit", lambda code: None)
    cli.entry()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def _limit_address_space():
    """Cap the child's address space at 512 MiB, as ``ulimit -v 524288``."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))


@pytest.fixture(scope="module")
def large_models(tmp_path_factory):
    """name -> (model, judgments, formulas) files of two models whose size
    lies in what they declare, not in what they list."""
    directory = tmp_path_factory.mktemp("large")

    def write(name, model, judgments, formula):
        paths = [directory / f"{name}.json", directory / f"{name}_judged.json",
                 directory / f"{name}.lgc"]
        paths[0].write_text(json.dumps(model))
        paths[1].write_text(json.dumps(judgments))
        paths[2].write_text(formula + "\n")
        return [str(path) for path in paths]

    n, k = 10_000, 316  # declares N·K·P = 10^9 cells and lists none
    sparse = write("sparse", {
        "domain": [f"e{i}" for i in range(n)], "background": "c0",
        "contexts": [{"name": f"c{i}"} for i in range(k)],
        "predicates": [f"p{i}" for i in range(k)],
    }, [{"context": "c0", "predicate": "p0", "value": "U"}], "forall x. (c1(x) -> p1(x))")
    k = 30_000  # 30,000 contexts and one declared pair
    wide = write("wide", {
        "domain": ["e"], "background": "c0",
        "contexts": [{"name": f"c{i}", "extension": ["e"]} for i in range(k)],
        "predicates": ["p"], "incompatible": [["c0", f"c{k - 1}"]],
    }, [{"context": "c0", "predicate": "p", "value": "T"},
        {"context": f"c{k - 1}", "predicate": "p", "value": "F"}], "forall x. (c1(x) -> p(x))")
    return {"sparse": sparse, "wide": wide}


# (model, command) -> what the command finds: the formula's value or the class
LARGE_MODEL_RESULTS = {
    ("sparse", "eval"): "T",  # no entity is in c1
    ("sparse", "classify"): "P3",
    ("wide", "eval"): "U",  # e is in c1, and p is unlisted there
    ("wide", "classify"): "P4",
}


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("shape, command", LARGE_MODEL_RESULTS)
def test_a_large_declared_model_runs_in_512_mib(large_models, shape, command):
    model, judgments, formulas = large_models[shape]
    argv = ([command, formulas, "--model", model] if command == "eval"
            else [command, judgments, "--model", model])
    proc = subprocess.run([sys.executable, "-m", "sapta.cli", *argv], capture_output=True,
                          stdin=subprocess.DEVNULL, env=ENV, timeout=60,
                          preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (EX_OK, b"")
    out = json.loads(proc.stdout)
    found = out["results"][0]["value"] if command == "eval" else out["class"]
    assert found == LARGE_MODEL_RESULTS[shape, command]
