"""cusplink benchmark: one workload, checked answers, end-to-end metrics
(--trace 0) or per-layer metrics from spans (--trace 1).

Usage, from the repository root:

    python3 benchmarks/run.py --workload census-sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client.  A pass sends every
request of the workload once, in an order shuffled by the seed; passes
repeat until --seconds have gone by.  Every pass runs in fresh
interpreters, because FieldSpec.primitive is an lru_cache whose state a
CLI user never carries from one command to the next.  Every answer is
checked by oracle.py.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
print each metric with its unit and sample count, the failure ratio,
and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import spans
from workloads import IN_PROCESS, WORKLOADS, Request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

HARD_LIMIT_S = 165.0      # stop starting work here; the run must end within 180 s
ENTRY_POINT = "import sys; from cusplink.cli import entry_point; sys.exit(entry_point())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "orders_per_s": "1/s",
    "darts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{metric: "ms" for metric in spans.SPAN_METRICS.values()},
    **{counter: "count" for counter in spans.COUNTERS},
    "cli.output_bytes": "bytes",
    "cli.numpy_import_ms": "ms",
    "cli.import_ms": "ms",
    "cli.startup_ms": "ms",
    "train_track.max_residual": "ratio",
    "trace.wall_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run: no sources, or a worker crashed."""


@dataclass
class Outcome:
    request: Request
    code: int
    stdout: bytes
    stderr: str
    seconds: float
    problem: str | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    wall_s: float                      # excludes start-up for in-process workloads
    layers: Counter = field(default_factory=Counter)

    def accepted(self):
        return [o for o in self.outcomes if o.problem is None]


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.requests = WORKLOADS[workload]
        self.in_process = workload in IN_PROCESS
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.env = dict(os.environ)
        # Users run with cached bytecode, so children may write and reuse
        # it whatever the calling environment says; set-up warms it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def _child(self, argv, stdin: str | None = None) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        start = perf_counter()
        proc = subprocess.run(argv, input=stdin, capture_output=True, env=self.env,
                              cwd=ROOT, timeout=remaining,
                              text=stdin is not None)
        return proc, perf_counter() - start

    def worker(self, requests, trace: bool) -> tuple[dict, float]:
        job = json.dumps({"requests": [list(r.argv) for r in requests], "trace": trace})
        proc, seconds = self._child([sys.executable, str(BENCH / "worker.py")], job)
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout)
        if Path(report["source"]).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"imported {report['source']}, not the sources under {SRC}")
        return report, seconds

    def setup_seconds(self) -> float:
        """A fresh interpreter importing cusplink.cli, spawn to exit."""
        proc, seconds = self._child([sys.executable, "-c", "import cusplink.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import cusplink.cli failed: {proc.stderr.decode()[-500:]}")
        return seconds

    def run_pass(self, traced: bool, via_worker: bool = False) -> Pass:
        """One pass over the requests.  Out-of-process requests run as
        `python -c entry_point`, as a shell user runs them, unless traced
        or via_worker: then through worker.py, so that traced and untraced
        passes of a traced run take the same process path."""
        order = list(self.requests)
        self.rng.shuffle(order)
        layers: Counter = Counter()
        reports = []
        outcomes = []
        if self.in_process:
            report, process_s = self.worker(order, traced)
            reports.append(report)
            for request, result in zip(order, report["results"]):
                outcomes.append(Outcome(request, result["code"], result["stdout"].encode(),
                                        result["stderr"], result["seconds"]))
            wall = sum(o.seconds for o in outcomes)
            layers["cli.startup_ms"] = (process_s - wall) * 1000.0
        else:
            for request in order:
                if traced or via_worker:
                    report, seconds = self.worker([request], traced)
                    reports.append(report)
                    result = report["results"][0]
                    outcome = Outcome(request, result["code"], result["stdout"].encode(),
                                      result["stderr"], seconds)
                    layers["cli.startup_ms"] += (seconds - result["seconds"]) * 1000.0
                else:
                    proc, seconds = self._child(
                        [sys.executable, "-c", ENTRY_POINT, *request.argv])
                    outcome = Outcome(request, proc.returncode, proc.stdout,
                                      proc.stderr.decode(), seconds)
                outcomes.append(outcome)
            wall = sum(o.seconds for o in outcomes)
        if traced:
            for report in reports:
                layers.update(spans.self_times_ms(report["spans"]))
                layers.update(report["counts"])
                layers["cli.numpy_import_ms"] += report["numpy_import_s"] * 1000.0
                layers["cli.import_ms"] += report["cli_import_s"] * 1000.0
                layers["train_track.max_residual"] = max(
                    layers["train_track.max_residual"], report["max_residual"])
            layers["trace.wall_ms"] = wall * 1000.0
        return Pass(traced, outcomes, wall, layers)


def _latency_ms(passes: list[Pass], q: int) -> float:
    """The q-th percentile of each pass's request latencies (interpolated),
    median over passes.  Pooling all passes first would put map-genus's
    median on the gap between its 6th and 7th slowest of 12 requests,
    where it swings by a fifth from run to run."""
    per_pass = []
    for p in passes:
        latencies = [o.seconds * 1000.0 for o in p.outcomes]
        per_pass.append(latencies[0] if len(latencies) == 1 else
                        statistics.quantiles(latencies, n=100, method="inclusive")[q - 1])
    return statistics.median(per_pass)


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)"""
    requests = sum(len(p.outcomes) for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p.wall_s for p in passes), len(passes)),
        "req_p50_ms": (_latency_ms(passes, 50), requests),
        "req_p90_ms": (_latency_ms(passes, 90), requests),
        "orders_per_s": (statistics.median(
            sum(len(o.request.verified) for o in p.accepted()) / p.wall_s for p in passes),
            len(passes)),
        "darts_per_s": (statistics.median(
            sum(o.request.darts for o in p.accepted()) / p.wall_s for p in passes), len(passes)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
    }


def per_layer(passes: list[Pass]) -> dict[str, tuple[float, int]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {name: (statistics.median(p.layers[name] for p in traced), len(traced))
           for name in PER_LAYER_UNITS if name != "trace.overhead_ms"}
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain)) * 1000.0
    out["trace.overhead_ms"] = (overhead, len(passes))
    return out


def layer_totals(metrics: dict[str, tuple[float, int]]) -> dict[str, float]:
    """Self time per module, in ms per pass."""
    totals: Counter = Counter()
    for name in spans.SPAN_METRICS.values():
        totals[name.split(".")[0]] += metrics[name][0]
    return dict(totals.most_common())


def machine_record() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "cusplink").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check; returns the result object and prints the
    human-readable lines."""
    started = perf_counter()
    record = machine_record()
    record["load_start"] = os.getloadavg()
    digests = json.loads(DIGESTS.read_text())
    runner = Runner(workload, seed, started + HARD_LIMIT_S)

    # Untraced, each pass is preceded by one set-up sample, so that the
    # set-up median covers the whole run rather than its first seconds;
    # the first import, which writes the bytecode cache, is not counted.
    # Passes that would end after --seconds are not started, so a run
    # measures for about --seconds whatever the pass length.
    runner.setup_seconds()
    setup: list[float] = []
    passes: list[Pass] = []
    min_passes = 2 if trace else 1
    last_pass_s = 0.0
    measure_start = perf_counter()
    while len(passes) < min_passes or perf_counter() + last_pass_s < measure_start + seconds:
        pass_start = perf_counter()
        if not trace:
            setup.append(runner.setup_seconds())
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1, via_worker=trace))
        last_pass_s = perf_counter() - pass_start

    for p in passes:
        for o in p.outcomes:
            o.problem = oracle.judge(o.request, o.code, o.stdout, o.stderr, digests)
    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.problem is not None]
    for o in failures:
        print(f"FAILED {o.request.key!r}: {o.problem}", file=sys.stderr)

    if trace:
        metrics, units = per_layer(passes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(passes, setup), END_TO_END_UNITS
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"trace {int(trace)}  requests per pass {len(runner.requests)}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={samples}")
    print(f"  {'fail_ratio':40s} {len(failures) / len(outcomes):14.6g} "
          f"{'failed/attempted':6s} n={len(outcomes)}")
    if trace:
        print(f"  self time by module, ms per pass: {json.dumps(layer_totals(metrics))}")
    record["load_end"] = os.getloadavg()
    print("machine " + json.dumps(record))
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cusplink" / "cli.py").is_file():
        print(f"error: no cusplink sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
