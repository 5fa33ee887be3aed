"""vtangle benchmark: drive vtangle.cli.main in-process and check its outputs.

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for how inputs follow from the seed):

  query      single-vector `bracket` and `conductance [--path P]` calls with
             0-13 classical crossings; the interactive user
  enumerate  `enumerate --envelope 3,5 --format json`; the survey user
  verify     `verify --suite invariance|ratio|additivity` on seeded samples;
             the harness user

Each measurement runs in a fresh worker process (worker.py), one at a time,
as a closed loop with one client.  The outputs are checked here afterwards,
against references that do not use the route under test (reference.py).

--trace 0 reports the end-to-end metrics of an untraced run:

  setup_s         median time for a fresh interpreter to import vtangle.cli
  ops_per_s       completed ops / call time of the run; an op is a call
                  (query), a classified vector (enumerate) or a reported
                  check row (verify)
  latency_p50_ms  median latency of one main(argv) call
  latency_p95_ms  95th-percentile latency of one main(argv) call, over all
                  the calls of the run
  peak_rss_mib    ru_maxrss of the worker

The four time metrics are scaled to the reference machine speed of
speed.py, call by call (import by import for setup_s), by the time of a
fixed kernel sampled in the same process during the measurement; the
unscaled figures and the kernel's mean time are printed above the result.

--trace 1 replays a fixed number of rounds twice, untraced and with layer
spans installed from outside the program (tracer.py), and reports the
per-layer metrics of tracer.METRICS.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  failed counts ops whose output the reference check rejected;
failed_ratio (failed / attempted) is printed above it, and so is the number
of query calls refused with exit 3 for a documented degenerate route.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
}
SETUP_PROBES = 15
# Each probe samples the speed kernel before and after its import, and
# prints the import time and the kernel's mean time.
SETUP_KERNELS = 20
SETUP_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "from speed import kernel_mean, time_kernel\n"
    f"samples = [time_kernel() for _ in range({SETUP_KERNELS})]\n"
    "start = time.perf_counter()\n"
    "import vtangle.cli\n"
    "seconds = time.perf_counter() - start\n"
    f"samples += [time_kernel() for _ in range({SETUP_KERNELS})]\n"
    "print(seconds, kernel_mean(samples))\n"
)
# A worker may run this long beyond the call time it was given.
WORKER_SLACK_S = 60
SHOWN_PROBLEMS = 5


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _run(cmd, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # Imports read cached bytecode, as an installed package's would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}:\n{err[-3000:]}")
    return out


def measure_setup() -> tuple:
    """(median import time at reference speed, unscaled median)."""
    # Write the bytecode cache first, so that neither a probe nor the
    # worker's peak memory includes compiling.
    _run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], 60)
    probe = [sys.executable, "-c", SETUP_PROBE]
    _run(probe, 60)  # warms the file cache
    probes = [[float(x) for x in _run(probe, 60).split()] for _ in range(SETUP_PROBES)]
    return (statistics.median(t * REFERENCE_S / k for t, k in probes),
            statistics.median(t for t, _ in probes))


def run_worker(workload: str, seed: int, seconds: float = 0, rounds: int = 0,
               trace: bool = False):
    """(call records, summary) of one fresh worker process."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    cmd += ["--rounds", str(rounds)] if rounds else ["--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    lines = _run(cmd, seconds + WORKER_SLACK_S).splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])["summary"]


class Checker:
    """Checks call records of one workload; keeps the running totals."""

    def __init__(self, workload: str):
        import reference
        import workloads

        self.attempted = self.failed = self.refused = 0
        self.problems = []
        if workload == "query":
            self._check = lambda r: reference.check_query(r["argv"], r["rc"], r["out"], r["err"])
        elif workload == "verify":
            self._check = lambda r: reference.check_verify(r["argv"], r["rc"], r["out"])
        else:
            expected = reference.envelope_reference(*workloads.ENUMERATE_ENVELOPE)
            self._check = lambda r: reference.check_enumerate(r["rc"], r["out"], expected)

    def add(self, records) -> list:
        """Check records; return the ops each one reported."""
        ops = []
        for record in records:
            outcome = self._check(record)
            ops.append(outcome.ops)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.refused += outcome.refused
            self.problems.extend(outcome.problems)
            if record["rc"] is None:
                self.problems.append(record["err"])
        return ops


def end_to_end(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    setup_s, setup_raw_s = measure_setup()
    records, summary = run_worker(workload, seed, seconds=seconds)
    ops = checker.add(records)
    raw = [r["seconds"] for r in records]
    scaled = [r["seconds"] * REFERENCE_S / r["kernel_s"] for r in records]
    print(f"{workload}: {len(records)} calls in {summary['rounds']} rounds, "
          f"{sum(ops)} ops in {summary['timed_s']:.3f} s of call time")
    print(f"  speed kernel {summary['kernel_s'] * 1e6:.1f} us over "
          f"{summary['kernel_samples']} samples; reference {REFERENCE_S * 1e6:.0f} us")
    unscaled = dict(setup_s=setup_raw_s, **call_metrics(ops, raw))
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    return {
        "setup_s": setup_s,
        **call_metrics(ops, scaled),
        "peak_rss_mib": summary["maxrss_kib"] / 1024,
    }


def call_metrics(ops: list, seconds: list) -> dict:
    latencies = [s * 1000 for s in seconds]
    return {
        "ops_per_s": sum(ops) / sum(seconds),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": (statistics.quantiles(latencies, n=20, method="inclusive")[18]
                           if len(latencies) > 1 else latencies[0]),
    }


def per_layer(workload: str, seed: int, checker: Checker) -> tuple:
    import tracer
    import workloads

    rounds = workloads.TRACE_ROUNDS[workload]
    plain_records, plain = run_worker(workload, seed, rounds=rounds)
    traced_records, traced = run_worker(workload, seed, rounds=rounds, trace=True)
    checker.add(plain_records)
    checker.add(traced_records)
    overhead = traced["timed_s"] / plain["timed_s"]
    tables = traced["trace"]
    layer_s = tracer.layer_self_s(tables)
    total = sum(layer_s.values())
    print(f"{workload}: traced {len(traced_records)} calls in {rounds} rounds, "
          f"{traced['timed_s']:.3f} s traced / {plain['timed_s']:.3f} s untraced")
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} self {seconds:9.4f} s  {100 * seconds / total:5.1f}%")
    return tracer.layer_metrics(tables, overhead), tracer.METRICS


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checker = Checker(workload)
    if trace:
        values, units = per_layer(workload, seed, checker)
    else:
        values, units = end_to_end(workload, seed, seconds, checker), END_TO_END
    for name, value in values.items():
        print(f"  {name:<26} {value:.6g} {units[name]}")
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'failed_ratio':<26} {ratio:.6g} 1 "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    if checker.refused:
        print(f"  {checker.refused} calls refused for a degenerate route")
    for problem in checker.problems[:SHOWN_PROBLEMS]:
        print(f"  problem: {problem}", file=sys.stderr)
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="vtangle benchmark")
    p.add_argument("--workload", required=True, choices=("query", "enumerate", "verify", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="call time one untraced run measures, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "vtangle" / "cli.py").is_file():
        print(f"no vtangle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = ("query", "enumerate", "verify") if args.workload == "all" else (args.workload,)
    try:
        for workload in names:
            result = run_one(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
