"""Traced in-process replay and layer probes.

The replay calls ``sapta.cli.main(argv)`` in this process for each request
of a workload.  Spans are recorded around the public functions the
subcommands call, by rebinding those names in the package's module
namespaces for the length of a pass; nothing under ``src/`` records them.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import sys
import time
import types
from pathlib import Path

from client import Verifier, spawn
from workloads import SCENARIO_CLASS, SCHEMA_FILE, Request, classify_wide, eval_large

# A span is named "<module>.<function>" after the package function it times,
# so its module is its layer.  parse_file's self time excludes its tokenize
# children; scenario self times exclude their weak_value children.
SCENARIO_SPANS = tuple(f"scenarios.{name}" for name in SCENARIO_CLASS)


class Tracer:
    """Collects spans as (name, start ns, end ns, parent index, request id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        # Work counts of the current pass, tallied after each span closes.
        self.counts: dict[str, int] = {}
        self.request_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tally=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserves the index; children append after it
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter_ns(), parent, self.request_id)
                stack.pop()
            if tally is not None:
                tally(self, args, result)
            return result

        return traced


def _add(counts: dict[str, int], name: str, n: int) -> None:
    counts[name] = counts.get(name, 0) + n


def _tally_tokens(tracer: Tracer, args, tokens) -> None:
    _add(tracer.counts, "parser.tokens", len(tokens))


def _tally_model(tracer: Tracer, args, model) -> None:
    _add(tracer.counts, "semantics.model_cells",
         len(model.domain) * len(model.contexts) * len(model.predicates))
    _add(tracer.counts, "semantics.defaulted_cells", model.defaulted_valuations)
    _add(tracer.counts, "semantics.incompatible_pairs", len(args[0].get("incompatible", [])))


def _ast_nodes(f) -> int:
    return 1 + sum(_ast_nodes(getattr(f, a)) for a in ("operand", "left", "right", "body") if hasattr(f, a))


def _tally_formulas(tracer: Tracer, args, entries) -> None:
    _add(tracer.counts, "formulas.nodes", sum(_ast_nodes(nf.formula) for nf in entries))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the CLI's callees to traced wrappers; restore them on exit."""
    import sapta.cli as cli
    import sapta.parser as parser
    import sapta.scenarios as scenarios

    wrap = tracer.wrap
    patches = [
        (cli, "json", types.SimpleNamespace(
            loads=wrap("cli.json_load", json.loads),
            dumps=wrap("cli.json_emit", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )),
        (cli, "Model", types.SimpleNamespace(
            from_json=wrap("semantics.from_json", cli.Model.from_json, _tally_model))),
        (cli, "parse_formula_file", wrap("parser.parse_file", cli.parse_formula_file, _tally_formulas)),
        (parser, "tokenize", wrap("parser.tokenize", parser.tokenize, _tally_tokens)),
        (cli, "evaluate", wrap("semantics.evaluate", cli.evaluate)),
        (cli, "pretty", wrap("formulas.pretty", cli.pretty)),
        (cli, "ast_to_dict", wrap("formulas.ast_to_dict", cli.ast_to_dict)),
        (cli, "judgments_from_json", wrap("predication.judgments_from_json", cli.judgments_from_json)),
        (cli, "classify", wrap("predication.classify", cli.classify)),
        (cli, "mutual_exclusivity_certificate",
         wrap("predication.certificate", cli.mutual_exclusivity_certificate)),
        (cli, "run_corpus", wrap("scenarios.run_corpus", cli.run_corpus)),
        (scenarios, "weak_value", wrap("quantum.weak_value", scenarios.weak_value)),
    ]
    for span in SCENARIO_SPANS:
        attr = "scenario_" + span.split(".", 1)[1]
        patches.append((cli, attr, wrap(span, getattr(cli, attr))))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, value in patches:
        setattr(module, attr, value)
    try:
        yield wrap("cli.main", cli.main)
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def replay_pass(requests: list[Request], main, tracer: Tracer | None):
    """Run every request once through main(argv); returns (seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for request in requests:
        if tracer is not None:
            tracer.request_id += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(request.argv)
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - start, outputs


def check_outputs(requests, outputs, verifier: Verifier) -> int:
    """Count outputs that fail the same checks as the subprocess responses."""
    failed = 0
    for request, (code, text) in zip(requests, outputs):
        reason = verifier.verdict(request, code, text.encode("utf-8"))
        if reason is not None:
            print(f"FAILED in-process {request.key}: {reason}", file=sys.stderr)
            failed += 1
    return failed


def pass_layers(tracer: Tracer, lo: int, outputs) -> dict[str, float]:
    """Per-layer numbers of the traced pass whose spans start at index `lo`.

    Times are self times per request that called the function (``cli.main_ms``
    is the whole main call per request); counts are per calling request.
    """
    spans = tracer.spans
    hi = len(spans)
    child = [0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    callers: dict[str, set] = {}
    for offset, (name, start, end, parent, request) in enumerate(spans[lo:hi]):
        self_ns[name] = self_ns.get(name, 0) + end - start - child[offset]
        total_ns[name] = total_ns.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        callers.setdefault(name, set()).add(request)

    out: dict[str, float] = {}
    for name, ns in self_ns.items():
        if name == "cli.main":
            out["cli.main_ms"] = total_ns[name] / len(callers[name]) / 1e6
        elif name == "quantum.weak_value":
            out["quantum.weak_value_us"] = ns / calls[name] / 1e3
        else:
            out[name + "_ms"] = ns / len(callers[name]) / 1e6
    out["cli.output_bytes"] = statistics.fmean(len(text.encode("utf-8")) for _, text in outputs)

    counts = tracer.counts
    owner = {"parser.tokens": "parser.tokenize", "formulas.nodes": "parser.parse_file"}
    for metric, total in counts.items():
        span = owner.get(metric, "semantics.from_json")
        out[metric] = total / len(callers[span])
    if "parser.tokenize" in self_ns:
        parser_s = (self_ns["parser.tokenize"] + self_ns["parser.parse_file"]) / 1e9
        out["parser.tokens_per_s"] = counts["parser.tokens"] / parser_s
    return out


def replay(requests: list[Request], verifier: Verifier, tracer: Tracer, seconds: float,
           between=None):
    """Alternate traced and untraced passes for `seconds` (at least two of
    each), after one untimed pass.

    ``between()``, when given, runs before each pair of passes, so that work
    it measures sees the same machine conditions as the replay.  Returns
    (median per-layer numbers over traced passes, overhead ratio, requests
    replayed, requests failed).
    """
    import sapta.cli as cli

    # Objects alive now, the benchmark's own included, are left out of
    # garbage collection during the replay, as they would not exist in a
    # fresh CLI process.
    gc.collect()
    gc.freeze()
    try:
        return _replay(cli.main, requests, verifier, tracer, seconds, between)
    finally:
        gc.unfreeze()


def _replay(main, requests, verifier, tracer, seconds, between):
    attempted = failed = 0
    _, outputs = replay_pass(requests, main, None)
    failed += check_outputs(requests, outputs, verifier)
    attempted += len(requests)
    traced_s, plain_s, layers = [], [], []
    start = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - start < seconds:
        if between is not None:
            between()
        # The order of the two passes alternates, so neither gains from it.
        for traced in (True, False) if len(traced_s) % 2 == 0 else (False, True):
            if traced:
                lo = len(tracer.spans)
                with instrumented(tracer) as traced_main:
                    elapsed, outputs = replay_pass(requests, traced_main, tracer)
                traced_s.append(elapsed)
                layers.append(pass_layers(tracer, lo, outputs))
                tracer.counts = {}
            else:
                elapsed, outputs = replay_pass(requests, main, None)
                plain_s.append(elapsed)
            failed += check_outputs(requests, outputs, verifier)
        attempted += 2 * len(requests)
    merged = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    return merged, overhead, attempted, failed


# ---------------------------------------------------------------------------
# Probes that do not depend on the workload's requests.


def startup_ms(env, workdir: Path, repeats: int = 5) -> float:
    walls = [spawn([sys.executable, "-c", "pass"], workdir, env, workdir / "stderr.txt")[2]
             for _ in range(repeats)]
    return statistics.median(walls) * 1e3


def import_ms(env, workdir: Path, repeats: int = 3) -> tuple[float, float]:
    """Cumulative import time of sapta.cli and of numpy, from -X importtime."""
    cli_us, numpy_us = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import sapta.cli"]
    for _ in range(repeats):
        code = spawn(argv, workdir, env, workdir / "stderr.txt")[0]
        if code != 0:
            raise RuntimeError("import sapta.cli failed")
        cumulative = {}
        for line in (workdir / "stderr.txt").read_text().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    cumulative[module.strip()] = int(cum)
        cli_us.append(cumulative["sapta.cli"])
        numpy_us.append(cumulative.get("numpy", 0))
    return statistics.median(cli_us) / 1e3, statistics.median(numpy_us) / 1e3


def slope(sizes, times) -> float:
    """Least-squares slope of log(time) on log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


EVAL_SWEEP = (400, 800, 1600)
CLASSIFY_SWEEP = (150, 300, 600)


def eval_sweep(seed: int, repeats: int = 3) -> tuple[float, float, int]:
    """(from_json exponent, evaluate exponent, wrong values) over EVAL_SWEEP."""
    from sapta import Model, evaluate, parse_formula_file

    load, run, wrong = [], [], 0
    for n in EVAL_SWEEP:
        workload = eval_large(seed, n)
        data = json.loads(workload.files["model.json"])
        expected = workload.requests[0].expected["values"]
        load_s, run_s = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            model = Model.from_json(data)
            t1 = time.perf_counter()
            formulas = parse_formula_file(SCHEMA_FILE, contexts=model.contexts, require_closed=True)
            t2 = time.perf_counter()
            values = {nf.name: evaluate(nf.formula, model).value for nf in formulas}
            t3 = time.perf_counter()
            load_s.append(t1 - t0)
            run_s.append(t3 - t2)
            wrong += values != expected
        load.append(statistics.median(load_s))
        run.append(statistics.median(run_s))
    return slope(EVAL_SWEEP, load), slope(EVAL_SWEEP, run), wrong


def classify_sweep(seed: int, repeats: int = 3) -> tuple[float, int]:
    """(classify exponent, wrong classes) over CLASSIFY_SWEEP on the P7 set."""
    from sapta import Model, classify, judgments_from_json

    times, wrong = [], 0
    for k in CLASSIFY_SWEEP:
        workload = classify_wide(seed, k)
        request = workload.requests[0]
        model = Model.from_json(json.loads(workload.files["model.json"]))
        judgments = judgments_from_json(json.loads(workload.files[request.argv[1]]))
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = classify(judgments, model, "p")
            samples.append(time.perf_counter() - t0)
            wrong += result.to_json() != request.expected
        times.append(statistics.median(samples))
    return slope(CLASSIFY_SWEEP, times), wrong


def connective_ns(repeats: int = 5, loops: int = 2000) -> float:
    """Time per call of conj3/disj3/impl3/iff3 over all nine input pairs."""
    from sapta.trivalent import Tv3, conj3, disj3, iff3, impl3

    calls = [(f, a, b) for f in (conj3, disj3, impl3, iff3) for a in Tv3 for b in Tv3]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for f, a, b in calls:
                f(a, b)
        samples.append((time.perf_counter_ns() - t0) / (loops * len(calls)))
    return statistics.median(samples)


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)
