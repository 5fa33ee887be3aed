"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workload query --seeds 1-10 [--trace 1] [--json out.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median.  Runs are
sequential, each a fresh `bench/run.py` process with its default
--seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", help="also write the runs and summary to this file")
    args = p.parse_args()
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:<26} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {summary[name]['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                               "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
