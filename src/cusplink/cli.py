"""Command-line front end: every construction and check as a batch
subcommand with JSON, DOT, or table output.

Exit codes: 0 when all requested checks pass, 1 on a check failure,
2 on a usage error, with nothing on stdout and stderr opening with
"error: ".  The usage errors are: a bad or removed flag (such as
--tol) or family, with the usage line after the error; a family flag
not read where it is given, as "error: <reader> does not read --<flag>"
(a family flag --n, --t or --m that the chosen family does not read,
or any of them for `links` without --family, which builds every
family at its defaults); an invalid n; a census --n-max above the
field-order cap; a census range that holds no prime power above 3
(--n-min 10 --n-max 5, or --n-max 3); and an --out path that cannot be
written, reported as "error: cannot write --out PATH: <reason>".  A
failed check names itself on stderr: the first census row that fails
as "error: census n=<n>: <invariant> (<values>)", and a dilatation
residual over train_track.RESIDUAL_BOUND by name and value.  A violated
internal invariant is a check failure too: it exits 1 with "error:
invariant violated: ..." instead of a traceback.
JSON output is deterministic for fixed inputs: keys are sorted and
floats carry 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import link_families
from .finite_field import DEFAULT_MAX_ORDER, field_of_order, prime_power
from .link_families import (
    EXAMPLE_BRAID,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    helical_link,
    icosahedral_link,
)
from .regular_map import biggs_map, face_adjacency_dot, map_summary
from .train_track import RESIDUAL_BOUND, eigen_report, substitution_dot


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _json_dumps(payload) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def _render_table(rows: list[dict], columns: list[str]) -> str:
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.15g}"
        return str(value)

    table = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in table)) if table else len(column)
              for i, column in enumerate(columns)]
    out = ["  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))]
    for line in table:
        out.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(out) + "\n"


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_report(args, payload, rows: list[dict], columns: list[str]) -> None:
    """The rows as a table under --format table, else the payload as JSON."""
    if args.format == "table":
        _emit(_render_table(rows, columns), args)
    else:
        _emit(_json_dumps(payload), args)


def _field(n: int | None):
    """The field of order n, a prime power above 3.  An order over the
    cap is refused before it is factored."""
    if n is None:
        raise ValueError("--n is required for this command")
    if n <= 3 or (n <= DEFAULT_MAX_ORDER and prime_power(n) is None):
        raise ValueError(f"n must be a prime power greater than 3, got {n}")
    return field_of_order(n)


def _refuse_unread(args, reader: str, flags, reads=()) -> None:
    """Refuse the first of `flags` given on the command line that is not
    in `reads`, before anything is built or printed."""
    for flag in flags:
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"{reader} does not read --{flag}")


_FAMILY_FLAGS = ("n", "t", "m")

# Each family: the flags it reads, with their defaults, and its builder.
# The builders are looked up in this module when called, so a replaced
# module attribute is used.
_FAMILIES = {
    "chain": ({"n": 6, "t": 0}, lambda n, t: chain_link(n, t)),
    "braid": ({"m": 1}, lambda m: cyclic_braid_closure(EXAMPLE_BRAID, m=m)),
    "cube": ({}, lambda: cube_link()),
    "cube_edge": ({}, lambda: cube_edge_link()),
    "icosahedral": ({}, lambda: icosahedral_link()),
    "helical": ({"n": 5}, lambda n: helical_link(_field(n))),
}


def _build_family(name: str, args) -> link_families.LinkBlueprint:
    reads, build = _FAMILIES[name]
    _refuse_unread(args, f"family {name}", _FAMILY_FLAGS, reads)
    return build(**{flag: default if getattr(args, flag) is None else getattr(args, flag)
                    for flag, default in reads.items()})


# ---------------------------------------------------------------------------
# subcommands


def cmd_map(args) -> int:
    spec = _field(args.n)
    surface = biggs_map(spec)
    payload = map_summary(surface)
    payload["match"] = payload["genus"] == payload["formula_genus"]
    if args.format == "dot":
        _emit(face_adjacency_dot(surface), args)
    else:
        _emit_report(args, payload, [payload], ["n", "V", "E", "F", "genus", "formula_genus",
                                                "vertex_degree", "match"])
    return 0 if payload["match"] else 1


def cmd_transitivity(args) -> int:
    row = _links_row(_build_family(args.family, args))
    payload = {column: row[column] for column in _TRANSITIVITY_COLUMNS}
    _emit_report(args, payload, [payload], _TRANSITIVITY_COLUMNS)
    return 0


def cmd_links(args) -> int:
    if args.family:
        blueprint = _build_family(args.family, args)
        _emit_report(args, blueprint.to_json_dict(), [_links_row(blueprint)], _LINKS_COLUMNS)
        return 0
    _refuse_unread(args, "links without --family", _FAMILY_FLAGS)
    rows = [_links_row(build(**defaults)) for defaults, build in _FAMILIES.values()]
    _emit_report(args, {"families": rows}, rows, _LINKS_COLUMNS)
    return 0


_LINKS_COLUMNS = ["family", "ambient", "n_components", "symmetry_order",
                  "transitivity_degree", "hyperbolicity"]
_TRANSITIVITY_COLUMNS = ["family", "n_components", "symmetry_order", "transitivity_degree"]


def _links_row(blueprint: link_families.LinkBlueprint) -> dict:
    return {
        "family": blueprint.family,
        "ambient": blueprint.ambient,
        "n_components": blueprint.n_components,
        "symmetry_order": blueprint.symmetry_order,
        "transitivity_degree": blueprint.transitivity_degree,
        "hyperbolicity": blueprint.hyperbolicity["status"],
    }


def cmd_dilatation(args) -> int:
    if args.format == "dot":
        _emit(substitution_dot(), args)
        return 0
    report = eigen_report()
    _emit_report(args, report, [report], ["lambda", "lambda_inverse", "w", "z"])
    for name, value in report["residuals"].items():
        if not value <= RESIDUAL_BOUND:
            print(f"error: dilatation residual {name} = {value!r} exceeds "
                  f"RESIDUAL_BOUND = {RESIDUAL_BOUND!r}", file=sys.stderr)
            return 1
    return 0


def _census_failure(row: dict) -> str | None:
    """The first invariant the census row violates, with its values."""
    n = row["n"]
    if row["cusps"] != n:
        return f"census n={n}: cusps != n (cusps={row['cusps']}, n={n})"
    if row["transitivity_degree"] != 2:
        return (f"census n={n}: transitivity degree != 2 "
                f"(transitivity_degree={row['transitivity_degree']})")
    if row["linking"] != "complete":
        return f"census n={n}: linking not complete (linking={row['linking']})"
    return None


def cmd_census(args) -> int:
    # Refused before anything is factored, so every order in range builds.
    if args.n_max > DEFAULT_MAX_ORDER:
        raise ValueError(f"order {args.n_max} exceeds the cap {DEFAULT_MAX_ORDER}")
    rows = []
    failure = None
    for n in range(max(args.n_min, 4), args.n_max + 1):
        if prime_power(n) is None:
            continue
        spec = field_of_order(n)
        blueprint = helical_link(spec)
        row = {
            "n": spec.n,
            "cusps": blueprint.n_components,
            "symmetry_order": blueprint.symmetry_order,
            "transitivity_degree": blueprint.transitivity_degree,
            "linking": "complete" if blueprint.linking_complete else "partial",
        }
        rows.append(row)
        failure = failure or _census_failure(row)
    if not rows:  # nothing to check is not a pass
        raise ValueError(f"census range --n-min {args.n_min} --n-max {args.n_max} "
                         "holds no prime power above 3")
    _emit_report(args, {"rows": rows}, rows,
                 ["n", "cusps", "symmetry_order", "transitivity_degree", "linking"])
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses a bad flag with "error: <message>", then the usage line; exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cusplink",
        description="Regular maps over finite fields, link-family symmetries, "
                    "and the monodromy dilatation.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, formats=("json", "table")):
        sub.add_argument("--format", choices=formats, default="json")
        sub.add_argument("--out", default=None, help="write output to this path")

    def add_family_args(sub):
        sub.add_argument("--n", type=int, default=None,
                         help=f"chain: the loop count, at most {link_families.MAX_CHAIN_LOOPS}; "
                              f"helical: the field order, a prime power > 3 and at most "
                              f"{DEFAULT_MAX_ORDER}")
        sub.add_argument("--t", type=int, default=None, help="half-twists (chain)")
        sub.add_argument("--m", type=int, default=None, help="extra power (braid)")

    family_help = "; ".join(
        f"{name}: " + (", ".join(f"--{flag} (default {default})" for flag, default in reads.items())
                       or "no flags")
        for name, (reads, _build) in _FAMILIES.items())

    sub = subparsers.add_parser("map", help="build the order-n map and report its genus")
    sub.add_argument("--n", type=int, default=None,
                     help=f"field order, a prime power > 3 and at most {DEFAULT_MAX_ORDER}")
    add_common(sub, formats=("json", "table", "dot"))
    sub.set_defaults(func=cmd_map)

    sub = subparsers.add_parser("transitivity",
                                help="transitivity degree of a family's symmetry action")
    sub.add_argument("family", choices=_FAMILIES, help=family_help)
    add_family_args(sub)
    add_common(sub)
    sub.set_defaults(func=cmd_transitivity)

    sub = subparsers.add_parser("links", help="blueprint data for one family or all")
    sub.add_argument("--family", choices=_FAMILIES, default=None,
                     help=f"one family, else every family at its defaults; {family_help}")
    add_family_args(sub)
    add_common(sub)
    sub.set_defaults(func=cmd_links)

    sub = subparsers.add_parser("dilatation",
                                help="stretch factor and weights of the monodromy")
    add_common(sub, formats=("json", "table", "dot"))
    sub.set_defaults(func=cmd_dilatation)

    sub = subparsers.add_parser("census",
                                help="cusp counts and transitivity over a prime-power range")
    sub.add_argument("--n-min", type=int, default=4)
    sub.add_argument("--n-max", type=int, default=13)
    add_common(sub)
    sub.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
