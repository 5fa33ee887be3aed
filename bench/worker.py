"""Benchmark worker: one workload through vtangle.cli.main, in-process.

A closed loop with one client: each call starts after the previous one
returned.  Only the main(argv) call is timed; generating the next round and
writing each call's record happen outside that region.  A time-bounded run
also samples the machine's speed (speed.py); the samples' handler time is
taken out of the call it interrupted.  Every call becomes one JSON line on
stdout (argv, exit code, seconds, captured stdout and stderr, and in a
time-bounded run the kernel time for the call) and the last line is a
summary with the timed seconds, rounds, ru_maxrss, the mean kernel time
of a time-bounded run and, when traced, the tracer's tables.

    python3 bench/worker.py --workload query --seed 1 --seconds 10
    python3 bench/worker.py --workload query --seed 1 --rounds 2 --trace

Run it with src on PYTHONPATH; bench/run.py does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import workloads
from speed import SpeedProbe, kernel_mean


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="run whole rounds until this much call time has passed")
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead")
    p.add_argument("--trace", action="store_true", help="record layer spans")
    args = p.parse_args()

    import vtangle.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = None
    if not args.rounds:
        probe = SpeedProbe()
        probe.install()
    min_rounds = workloads.MIN_ROUNDS[args.workload]
    report = sys.stdout
    timed = 0.0
    done = 0
    for calls in workloads.rounds(args.workload, args.seed):
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer:
                    tracer.active = True
                if probe:
                    first = len(probe.samples)
                    probe.resume()
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    rc = None
                    err.write(traceback.format_exc())
                end = time.perf_counter()
                seconds = end - start
                if probe:
                    probe.pause()
                    seconds -= probe.spent(first, start, end)
                if tracer:
                    tracer.active = False
            timed += seconds
            record = {"argv": argv, "rc": rc, "seconds": seconds,
                      "out": out.getvalue(), "err": err.getvalue()}
            if probe:
                record["kernel_s"] = probe.local_mean(first)
            report.write(json.dumps(record) + "\n")
        done += 1
        if args.rounds:
            if done >= args.rounds:
                break
        elif timed >= args.seconds and done >= min_rounds:
            break
    if probe:
        probe.uninstall()
    summary = {
        "rounds": done,
        "timed_s": timed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if probe:
        summary["kernel_s"] = kernel_mean(probe.samples)
        summary["kernel_samples"] = len(probe.samples)
    if tracer:
        summary["trace"] = tracer.tables()
    report.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
