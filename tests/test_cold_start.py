"""No command imports numpy, the eigen solver included: each is checked
in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cusplink

SRC = Path(cusplink.__file__).resolve().parents[1]

# Runs the CLI with the given argv (none: import only) and reports on
# stderr whether numpy was loaded by the time the command finished.
PROBE = """
import sys
import cusplink.cli
code = cusplink.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("numpy" in sys.modules, file=sys.stderr)
raise SystemExit(code)
"""


def numpy_loaded(*argv) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv", [(), ("map", "--n", "9"), ("census",),
                                  ("links", "--format", "table"),
                                  ("transitivity", "helical", "--n", "7"),
                                  ("dilatation", "--format", "dot")])
def test_command_starts_without_numpy(argv):
    assert not numpy_loaded(*argv)


def test_eigen_solver_starts_without_numpy():
    assert not numpy_loaded("dilatation")
    assert not numpy_loaded("dilatation", "--format", "table")
