"""One pass of requests inside a fresh interpreter.

Reads {"requests": [argv, ...], "trace": bool} as JSON on stdin, runs
each argv through cusplink.cli.main in this process with stdout and
stderr captured, and writes one JSON object to stdout: per-request exit
code, seconds, stdout and stderr; the import times; and, when tracing,
the spans, counters and eigen residual.

Usage: PYTHONPATH=src python3 benchmarks/worker.py < request.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def _run(main, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:      # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:              # what an uncaught exception does to the CLI
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def main() -> None:
    job = json.load(sys.stdin)
    start = perf_counter()
    import numpy  # noqa: F401  (timed apart from cusplink's own import)
    numpy_done = perf_counter()
    import cusplink.cli
    imported = perf_counter()

    tracer = None
    run_main = cusplink.cli.main
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run_main = tracer.span("cli.main", cusplink.cli.main)

    results = []
    for index, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = index
        code, stdout, stderr, seconds = _run(run_main, argv)
        if tracer is not None:
            tracer.finish_request(stdout)
        results.append({"code": code, "stdout": stdout, "stderr": stderr, "seconds": seconds})

    report = {
        "source": cusplink.__file__,
        "numpy_import_s": numpy_done - start,
        "cli_import_s": imported - numpy_done,
        "results": results,
    }
    if tracer is not None:
        report.update(spans=tracer.spans, counts=tracer.counts,
                      max_residual=tracer.max_residual())
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
