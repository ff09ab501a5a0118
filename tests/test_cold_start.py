"""No command imports numpy, the eigen solver included, and none
imports dataclasses or inspect (about 11 ms of start-up between them)
or cmath (the eigen solver reads only nonnegative matrices, whose 2x2
eigenvalues are real): each is checked in a fresh interpreter.  typing
is not checked, since site may load it before cusplink is imported."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cusplink

SRC = Path(cusplink.__file__).resolve().parents[1]

WATCHED = ("numpy", "dataclasses", "inspect", "cmath")

# Runs the CLI with the given argv (none: import only) and reports on
# stderr which watched modules were loaded by the time the command
# finished, one line after `import cusplink.cli` and one at the end.
PROBE = f"""
import sys
def report():
    print(" ".join(name for name in {WATCHED!r} if name in sys.modules), file=sys.stderr)
import cusplink.cli
report()
code = cusplink.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
report()
raise SystemExit(code)
"""

COMMANDS = [(), ("map", "--n", "9"), ("census",), ("links", "--format", "table"),
            ("transitivity", "helical", "--n", "7"), ("dilatation", "--format", "dot")]


@functools.lru_cache(maxsize=None)
def loaded(*argv) -> tuple[set, set]:
    """The watched modules loaded after the import and after the command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_import, after_command = proc.stderr.splitlines()[-2:]
    return set(after_import.split()), set(after_command.split())


def numpy_loaded(*argv) -> bool:
    return "numpy" in loaded(*argv)[1]


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_starts_without_numpy(argv):
    assert not numpy_loaded(*argv)


def test_eigen_solver_starts_without_numpy():
    assert not numpy_loaded("dilatation")
    assert not numpy_loaded("dilatation", "--format", "table")


@pytest.mark.parametrize("argv", COMMANDS + [("dilatation",)])
def test_command_loads_neither_dataclasses_nor_inspect(argv):
    after_import, after_command = loaded(*argv)
    assert not after_import & {"dataclasses", "inspect"}
    assert not after_command & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", COMMANDS + [("dilatation",)])
def test_command_loads_no_cmath(argv):
    after_import, after_command = loaded(*argv)
    assert "cmath" not in after_import | after_command
