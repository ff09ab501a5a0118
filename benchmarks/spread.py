"""Run the benchmark once per seed on each workload, echo each run's
metrics with their units and sample counts, and report, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartiles as a share of the median.  A
metric is steady when its spread is below a third of its bound in
BENCHMARK.json.  Seeds run from 1 and each run lasts run_seconds of
BENCHMARK.json, as the benchmark is run.  With --trace the runs are traced and
the per-layer metrics are summarised the same way; they have no bound.

Usage, from the repository root:

    python3 benchmarks/spread.py --runs 10 [--workload map-genus] [--trace] [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="summarise per-layer metrics")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}

    seconds = config["run_seconds"]
    summary = {"run_seconds": seconds, "trace": int(args.trace), "workloads": {}}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, 1 + args.runs):
            proc = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            summary.setdefault("machine", json.loads(
                next(line for line in lines if line.startswith("machine "))[len("machine "):]))
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds[name]
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                steady = steady and ok
                verdict = f"bound {bound:.0%}  {'ok' if ok else 'WIDE'}"
            rows[name] = {"median": median, "spread": spread, "values": series}
            print(f"{workload:14s} {name:36s} median {median:12.6g}  spread {spread:7.2%}  "
                  f"{verdict}")
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
        steady = steady and failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
