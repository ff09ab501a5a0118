"""Write digests.json: the sha256 of every benchmark request's stdout.

Each request runs once in a fresh interpreter; a digest is recorded only
for an answer the oracle accepts.  Run it only when an output change is
intended, and say so in CHANGES.md, since the benchmark counts every
byte change in an output as a failed request.

Usage, from the repository root: python3 benchmarks/record_digests.py
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import oracle
import run
from workloads import WORKLOADS


def main() -> int:
    runner = run.Runner("census-sweep", 0, perf_counter() + run.HARD_LIMIT_S)
    digests = {}
    for requests in WORKLOADS.values():
        report, _seconds = runner.worker(requests, trace=False)
        for request, result in zip(requests, report["results"]):
            stdout = result["stdout"].encode()
            accepted = {request.key: oracle.digest(stdout)}
            problem = oracle.judge(request, result["code"], stdout, result["stderr"], accepted)
            if problem is not None:
                print(f"error: {request.key!r}: {problem}", file=sys.stderr)
                return 1
            digests.update(accepted)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
