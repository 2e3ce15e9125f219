"""Closed-loop client: one `python -m sapta.cli` process per request.

Each child is reaped with ``os.wait4`` so its own rusage gives the CPU time
and peak RSS of that request alone.  In the end-to-end run every request is
followed by runs of the reference job, a fixed Python program that imports
nothing of sapta, so that each request's time can be read against the
host's speed at that moment.  A request fails on a wrong exit code, stdout
that is not JSON, a value that differs from the reference, stdout that
differs byte-for-byte from the first response to the same request, or a
timeout.
"""
from __future__ import annotations

import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Request

REQUEST_TIMEOUT_S = 60.0

# After each request the reference job runs until it has taken this share of
# the request's wall time, and at least once, so that a long request is
# matched by more than a brief look at the host's speed.
REFERENCE_SHARE = 0.3
# The reference job: interpreter start-up, then the kind of work the CLI
# does (building dicts and lists, JSON both ways, splitting strings), 0.1 to
# 0.2 s.  It runs with -I, so it reads nothing of the tree under test.
REFERENCE_JOB = (
    "import json\n"
    "rows = [{'name': 'k%d' % i, 'value': 'TFU'[i % 3], 'kids': [i, i + 1, str(i)]}"
    " for i in range(10000)]\n"
    "back = json.loads(json.dumps(rows))\n"
    "words = ' '.join(r['name'] for r in back).split()\n"
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    reason: str | None  # None when the response is correct
    # Mean times of the reference jobs run right after the request; NaN when
    # none was run.
    ref_wall_s: float = math.nan
    ref_cpu_s: float = math.nan


@dataclass
class Verifier:
    """Checks responses; the first response to a request fixes its bytes."""

    first: dict[str, tuple[bytes, str | None]] = field(default_factory=dict)

    def verdict(self, request: Request, exit_code: int, stdout: bytes) -> str | None:
        if exit_code != request.exit_code:
            return f"exit code {exit_code}, expected {request.exit_code}"
        seen = self.first.get(request.key)
        if seen is not None:
            if stdout != seen[0]:
                return "stdout differs from the first response to this request"
            return seen[1]
        try:
            reason = request.check(request.expected, json.loads(stdout))
        except ValueError:
            reason = "stdout is not JSON"
        self.first[request.key] = (stdout, reason)
        return reason


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), SAPTA_COLOR="0")


def spawn(argv: list[str], cwd: Path, env: dict[str, str], stderr_path: Path,
          timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes, float, float, int]:
    """Run one child to exit; returns (exit code, stdout, wall s, cpu s, maxrss KiB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
    chunks = []
    fd = proc.stdout.fileno()
    timed_out = False
    try:
        while True:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                os.kill(proc.pid, signal.SIGKILL)
                timed_out = True
                break
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall = time.perf_counter() - start
    code = -1 if timed_out else proc.returncode
    return code, b"".join(chunks), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_reference(workdir: Path, env: dict[str, str]) -> tuple[float, float]:
    """Run the reference job once; returns (wall s, cpu s)."""
    code, _, wall, cpu, _ = spawn([sys.executable, "-I", "-c", REFERENCE_JOB], workdir, env,
                                  workdir / "stderr.txt")
    if code != 0:
        raise RuntimeError(f"the reference job exited with {code}")
    return wall, cpu


def run_request(request: Request, workdir: Path, env: dict[str, str], verifier: Verifier,
                reference: bool = False) -> Sample:
    argv = [sys.executable, "-m", "sapta.cli", *request.argv]
    code, out, wall, cpu, rss = spawn(argv, workdir, env, workdir / "stderr.txt")
    reason = verifier.verdict(request, code, out)
    if reason is not None:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-400:]
        print(f"FAILED {request.key}: {reason}\n{tail}", file=sys.stderr)
    sample = Sample(wall, cpu, rss, reason)
    if reference:
        runs = [run_reference(workdir, env)]
        while sum(r[0] for r in runs) < REFERENCE_SHARE * wall:
            runs.append(run_reference(workdir, env))
        sample.ref_wall_s = statistics.mean(r[0] for r in runs)
        sample.ref_cpu_s = statistics.mean(r[1] for r in runs)
    return sample


def closed_loop(requests: list[Request], workdir: Path, env: dict[str, str], seconds: float,
                verifier: Verifier, reference: bool = False) -> tuple[list[Sample], float]:
    """Send the request cycle back to back until `seconds` have passed, in whole cycles,
    with the reference job after each request when `reference` is set."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        for request in requests:
            samples.append(run_request(request, workdir, env, verifier, reference))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return samples, elapsed
