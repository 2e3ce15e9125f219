"""Benchmark of the `sapta` CLI: closed-loop end-to-end runs and a traced per-layer run.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload cli_small --seed 1 --seconds 25 --trace 0

With ``--trace 0`` one client sends the workload's requests back to back,
one `python -m sapta.cli` process per request with PYTHONPATH=<checkout>/src,
checks every response, and reports the end-to-end metrics.  With
``--trace 1`` it replays the same requests in-process through
``sapta.cli.main`` with spans around the package's public functions and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from client import Verifier, child_env, closed_loop, spawn  # noqa: E402
from workloads import GENERATORS, SCENARIO_CLASS, WORKLOADS, Workload  # noqa: E402

# Set-up is repeated and its median reported, so that one slow repetition
# (or the first run's bytecode compilation) does not decide setup_s.
SETUP_REPEATS = 5
# Share of --seconds a traced run spends alternating subprocess request
# cycles with in-process replay passes; the probes and sweeps take a fixed
# few seconds on top.
TRACE_SHARE = 0.6

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_rel": "ref",
    "request_cpu_rel": "ref",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

# Metrics every traced run measures the same way, whatever the workload.
SWEEP_METRICS = {
    "semantics.from_json_exponent",
    "semantics.evaluate_exponent",
    "predication.classify_exponent",
    "trivalent.connective_ns",
}
PER_LAYER_UNITS = {
    "interpreter.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.json_load_ms": "ms",
    "cli.json_emit_ms": "ms",
    "cli.output_bytes": "bytes",
    "parser.tokens": "count",
    "parser.tokenize_ms": "ms",
    "parser.parse_file_ms": "ms",
    "parser.tokens_per_s": "1/s",
    "formulas.nodes": "count",
    "formulas.pretty_ms": "ms",
    "formulas.ast_to_dict_ms": "ms",
    "semantics.from_json_ms": "ms",
    "semantics.model_cells": "count",
    "semantics.defaulted_cells": "count",
    "semantics.incompatible_pairs": "count",
    "semantics.evaluate_ms": "ms",
    "semantics.evaluate_exponent": "exponent",
    "semantics.from_json_exponent": "exponent",
    "predication.judgments_from_json_ms": "ms",
    "predication.classify_ms": "ms",
    "predication.classify_exponent": "exponent",
    "predication.certificate_ms": "ms",
    **{f"scenarios.{name}_ms": "ms" for name in SCENARIO_CLASS},
    "scenarios.run_corpus_ms": "ms",
    "quantum.weak_value_us": "us",
    "trivalent.connective_ns": "ns",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def set_up(name: str, seed: int, workdir: Path, env) -> tuple[Workload, float]:
    """Generate and write the inputs, then warm up by importing the CLI once,
    which compiles its bytecode and pages in the interpreter and numpy."""
    start = time.perf_counter()
    workload = GENERATORS[name](seed)
    workload.write(workdir)
    if spawn([sys.executable, "-c", "import sapta.cli"], workdir, env, workdir / "stderr.txt")[0]:
        raise RuntimeError("warm-up import of sapta.cli failed")
    return workload, time.perf_counter() - start


def relative(samples, attr: str) -> float:
    """Requests' summed time over the summed time of the reference jobs run
    right after each of them.

    The host's speed switches between a fast and a slow state from second to
    second (a fixed pure-Python loop takes about 26 or about 37 ms), and its
    level drifts by a quarter over tens of minutes.  Absolute times follow
    both; a request and the reference jobs run next to it see the same host,
    so their ratio does not.
    """
    return sum(getattr(s, attr) for s in samples) / sum(getattr(s, "ref_" + attr) for s in samples)


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, env) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, elapsed = set_up(name, seed, workdir, env)
        setups.append(elapsed)
    samples, _ = closed_loop(workload.requests, workdir, env, seconds, Verifier(),
                             reference=True)
    failed = sum(s.reason is not None for s in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "request_rel": relative(samples, "wall_s"),
        "request_cpu_rel": relative(samples, "cpu_s"),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
        "success_ratio": (len(samples) - failed) / len(samples),
    }
    # Absolute figures follow the host's speed; printed for reading, not reported.
    busy = sum(s.wall_s for s in samples)
    print(f"{name} request_p50_ms {statistics.median(s.wall_s for s in samples) * 1e3:.6g} ms"
          f" request_cpu_p50_ms {statistics.median(s.cpu_s for s in samples) * 1e3:.6g} ms"
          f" reference_p50_ms {statistics.median(s.ref_wall_s for s in samples) * 1e3:.6g} ms"
          f" requests_per_busy_s {len(samples) / busy:.6g} 1/s")
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def traced(name: str, seed: int, seconds: float, workdir: Path, env) -> dict:
    import tracing

    workload, _ = set_up(name, seed, workdir, env)
    values = {"interpreter.startup_ms": tracing.startup_ms(env, workdir)}
    values["cli.import_ms"], values["cli.import_numpy_ms"] = tracing.import_ms(env, workdir)

    # Subprocess cycles alternate with replay passes, so request_p50_ms and
    # the spans are measured under the same machine conditions.
    verifier = Verifier()
    samples = []

    def subprocess_cycle():
        samples.extend(closed_loop(workload.requests, workdir, env, 0.0, verifier)[0])

    sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer()
    with tracing.working_directory(workdir):
        layers, overhead, n, bad = tracing.replay(
            workload.requests, verifier, tracer, seconds * TRACE_SHARE, subprocess_cycle)
    attempted = n + len(samples)
    failed = bad + sum(s.reason is not None for s in samples)
    request_p50_ms = statistics.median(s.wall_s for s in samples) * 1e3
    values.update(layers)
    values["trace.overhead_ratio"] = overhead
    values["trace.accounted_ratio"] = (
        values["interpreter.startup_ms"] + values["cli.import_ms"] + layers["cli.main_ms"]
    ) / request_p50_ms

    # Layers this workload's requests do not reach are measured on the
    # cli_small request that reaches them, and listed as probed.
    probed = [m for m in PER_LAYER_UNITS if m not in values and m not in SWEEP_METRICS]
    if probed:
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        probe = GENERATORS["cli_small"](seed)
        probe.write(probe_dir)
        with tracing.working_directory(probe_dir):
            probe_layers, _, n, bad = tracing.replay(probe.requests, Verifier(), tracer, 0.0)
        attempted, failed = attempted + n, failed + bad
        for metric in probed:
            values[metric] = probe_layers[metric]
        print("probed on cli_small: " + " ".join(probed))

    values["semantics.from_json_exponent"], values["semantics.evaluate_exponent"], bad = (
        tracing.eval_sweep(seed))
    attempted, failed = attempted + len(tracing.EVAL_SWEEP), failed + bad
    values["predication.classify_exponent"], bad = tracing.classify_sweep(seed)
    attempted, failed = attempted + len(tracing.CLASSIFY_SWEEP), failed + bad
    values["trivalent.connective_ns"] = tracing.connective_ns()

    tracing.write_spans(tracer, ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER_UNITS.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sapta" / "cli.py").is_file():
        print(f"no sapta source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env(ROOT)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for metric, m in result["metrics"].items():
        print(f"{args.workload} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} requests attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
