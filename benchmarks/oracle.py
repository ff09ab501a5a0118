"""Answer checks for every benchmark request, independent of the cusplink
sources: each closed form and expected value is recomputed here from the
paper's statements, never imported from the program under test.

judge() returns None for an accepted answer, else a one-line reason.  A
request is accepted when its exit code is the expected one, its stdout
passes the command's check (for exit 0), and the sha256 of its stdout
equals the digest recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

SQRT2 = math.sqrt(2.0)
DILATATION = 3.0 + 2.0 * SQRT2
TOLERANCE = 1e-12


class Rejected(Exception):
    """An answer that contradicts the paper's facts."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def prime_powers(lo: int, hi: int) -> list[int]:
    """Prime powers n with 3 < n and lo <= n <= hi, by factoring."""
    out = []
    for n in range(max(lo, 4), hi + 1):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(n)
    return out


def genus(n: int) -> int:
    """Genus of the regular map over GF(n): 1 + n(n-7)/4 when n = 3 mod 4,
    else 1 + n(n-5)/4."""
    return 1 + (n * (n - 7) if n % 4 == 3 else n * (n - 5)) // 4


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


# ---------------------------------------------------------------------------
# output parsers


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Rejected(f"stdout is not JSON: {exc}") from None


def _table(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    _require(len(lines) >= 2, "table has no data row")
    header = lines[0].split()
    rows = []
    for line in lines[1:]:
        cells = line.split()
        _require(len(cells) == len(header), f"table row {line!r} does not match its header")
        rows.append(dict(zip(header, cells)))
    return rows


# ---------------------------------------------------------------------------
# per-command checks; each takes the decoded stdout


def check_map_summary(n: int, row: dict) -> None:
    edges = n * (n - 1) // 2
    g = genus(n)
    vertices = edges - n + 2 - 2 * g
    expected = {"n": n, "F": n, "E": edges, "genus": g, "formula_genus": g,
                "V": vertices, "vertex_degree": 2 * edges // vertices}
    for key, value in expected.items():
        _require(row.get(key) == value, f"map n={n}: {key}={row.get(key)!r}, expected {value}")
    _require(row.get("match") is True, f"map n={n}: match={row.get('match')!r}")


def check_map_json(n: int, text: str) -> None:
    check_map_summary(n, _json(text))


def check_map_dot(n: int, text: str) -> None:
    """The face-adjacency graph is K_n: every pair of faces shares exactly
    one edge, and there are no loops."""
    pairs = re.findall(r"^\s*f(\d+) -- f(\d+);$", text, flags=re.MULTILINE)
    found = sorted(tuple(sorted((int(a), int(b)))) for a, b in pairs)
    expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _require(found == expected, f"map n={n}: face adjacency is not K_{n} "
                                f"({len(found)} edges, expected {len(expected)})")


def check_census(lo: int, hi: int, text: str) -> None:
    rows = _json(text).get("rows")
    _require(isinstance(rows, list), "census: no rows")
    orders = prime_powers(lo, hi)
    _require([row.get("n") for row in rows] == orders,
             f"census: orders {[row.get('n') for row in rows]}, expected {orders}")
    for row in rows:
        n = row["n"]
        expected = {"cusps": n, "symmetry_order": n * (n - 1),
                    "transitivity_degree": 2, "linking": "complete"}
        for key, value in expected.items():
            _require(row.get(key) == value,
                     f"census n={n}: {key}={row.get(key)!r}, expected {value}")


# Transitivity degrees of the example links (paper: 4, 2, 1) and their
# component counts.
FAMILY_FACTS = {
    "cube": ("cube_diagonal", 4, 4),
    "icosahedral": ("icosahedral", 6, 2),
    "cube_edge": ("cube_edge", 12, 1),
    "braid": ("braid_closure", 5, 1),
}


def _family_facts(family: str, n: int | None) -> tuple[str, int, int]:
    if family == "chain":
        return "chain", n, 1
    if family == "helical":
        return "helical", n, 2
    return FAMILY_FACTS[family]


def check_family_row(family: str, n: int | None, row: dict) -> None:
    name, components, degree = _family_facts(family, n)
    _require(row.get("family") == name, f"{family}: family={row.get('family')!r}")
    _require(int(row.get("n_components", -1)) == components,
             f"{family}: n_components={row.get('n_components')!r}, expected {components}")
    _require(int(row.get("transitivity_degree", -1)) == degree,
             f"{family}: transitivity_degree={row.get('transitivity_degree')!r}, "
             f"expected {degree}")
    if family == "helical":
        _require(int(row.get("symmetry_order", -1)) == n * (n - 1),
                 f"helical n={n}: symmetry_order={row.get('symmetry_order')!r}, "
                 f"expected {n * (n - 1)} (sharply 2-transitive)")


def check_transitivity(family: str, n: int | None, text: str) -> None:
    check_family_row(family, n, _json(text))


def check_links_table(text: str) -> None:
    """Default `links`: chain n=6, braid, cube, cube_edge, icosahedral and
    helical n=5, in that order."""
    rows = _table(text)
    families = [("chain", 6), ("braid", None), ("cube", None), ("cube_edge", None),
                ("icosahedral", None), ("helical", 5)]
    _require(len(rows) == len(families), f"links: {len(rows)} rows, expected {len(families)}")
    for (family, n), row in zip(families, rows):
        check_family_row(family, n, row)


def check_links_chain(n: int, text: str) -> None:
    """A closed chain links each loop with its two neighbours only."""
    payload = _json(text)
    check_family_row("chain", n, payload)
    linking = [[abs(x) for x in row] for row in payload.get("linking", [])]
    expected = [[1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)] for i in range(n)]
    _require(linking == expected, f"chain n={n}: linking is not the {n}-cycle")


def _check_dilatation(lam: float, lam_inverse: float, w: float, z: float) -> None:
    _require(abs(lam - DILATATION) <= TOLERANCE,
             f"dilatation: lambda={lam!r}, expected 3+2*sqrt(2)")
    _require(abs(lam_inverse - 1.0 / DILATATION) <= TOLERANCE,
             f"dilatation: lambda_inverse={lam_inverse!r}, expected 3-2*sqrt(2)")
    _require(abs(w / z - SQRT2) <= TOLERANCE, f"dilatation: w/z={w / z!r}, expected sqrt(2)")


def check_dilatation_json(text: str) -> None:
    payload = _json(text)
    _check_dilatation(payload["lambda"], payload["lambda_inverse"], payload["w"], payload["z"])
    worst = max(payload["residuals"].values())
    _require(worst <= TOLERANCE, f"dilatation: residual {worst!r} above {TOLERANCE}")


def check_dilatation_table(text: str) -> None:
    rows = _table(text)
    _require(len(rows) == 1, "dilatation table must have one row")
    row = {key: float(value) for key, value in rows[0].items()}
    _check_dilatation(row["lambda"], row["lambda_inverse"], row["w"], row["z"])


def check_dilatation_dot(text: str) -> None:
    """The substitution graph's multiplicities form a matrix whose Perron
    root, from its trace and determinant, is 3 + 2*sqrt(2)."""
    arrows = re.findall(r'^\s*([wz]) -> ([wz]) \[label="(\d+)"\];$', text, flags=re.MULTILINE)
    counts = {(source, target): int(label) for source, target, label in arrows}
    _require(len(counts) == 4, f"dilatation dot: {len(counts)} arrows, expected 4")
    trace = counts["w", "w"] + counts["z", "z"]
    det = counts["w", "w"] * counts["z", "z"] - counts["w", "z"] * counts["z", "w"]
    root = (trace + math.sqrt(trace * trace - 4 * det)) / 2.0
    _require(abs(root - DILATATION) <= TOLERANCE,
             f"dilatation dot: Perron root {root!r}, expected 3+2*sqrt(2)")


# ---------------------------------------------------------------------------


def judge(request, exit_code: int, stdout: bytes, stderr: str,
          digests: dict[str, str]) -> str | None:
    """None when the answer is accepted, else why it is not."""
    if exit_code != request.exit_code:
        return f"exit code {exit_code}, expected {request.exit_code}: {stderr.strip()[-200:]}"
    if request.exit_code == 0:
        try:
            request.check(stdout.decode())
        except (Rejected, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            return f"answer rejected: {exc}"
    elif stdout or not stderr.startswith("error: "):
        return f"refusal must print only an 'error: ' line on stderr, got {stderr[:200]!r}"
    expected = digests.get(request.key)
    if expected is None:
        return "no recorded stdout digest"
    actual = digest(stdout)
    if actual != expected:
        return f"stdout digest {actual[:12]} differs from the recorded {expected[:12]}"
    return None
