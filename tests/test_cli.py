import argparse
import json
import math
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cusplink import cli, link_families, perm_action, regular_map, train_track
from cusplink.cli import main
from cusplink.finite_field import (
    DEFAULT_MAX_ORDER,
    _tables,
    field_of_order,
    make_field,
    prime_power,
)
from reference_checks import square_torus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_json(capsys):
    code, out, _ = run(capsys, "map", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["formula_genus"] == 1
    assert payload["match"] is True
    assert payload["V"] == 5 and payload["E"] == 10 and payload["F"] == 5


def test_map_n9(capsys):
    code, out, _ = run(capsys, "map", "--n", "9")
    assert code == 0
    assert json.loads(out)["genus"] == 10


def test_map_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "map", "--n", "6")
    assert code == 2
    assert "prime power" in err


@pytest.mark.parametrize("fmt", ["json", "table", "dot"])
def test_map_genus_mismatch_names_itself(monkeypatch, capsys, fmt):
    # the report is printed, then the failed check on stderr, and exit 1
    monkeypatch.setattr(regular_map, "genus_formula", lambda n: 999)
    code, out, err = run(capsys, "map", "--n", "9", "--format", fmt)
    assert code == 1 and out
    assert err == "error: map n=9: genus != formula_genus (genus=10, formula_genus=999)\n"


def test_map_without_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, "map")
    assert (code, out) == (2, "")
    assert err == "error: --n is required for this command\n"


def test_field_by_characteristic_and_exponent(capsys):
    # --n p^k names the field make_field(p, k) builds, modulus and all
    for n in range(4, DEFAULT_MAX_ORDER + 1):
        if prime_power(n) is not None:
            assert field_of_order(n) == make_field(*prime_power(n))
    code, out, _ = run(capsys, "map", "--n", "9")
    assert code == 0
    assert json.loads(out)["genus"] == 10
    code, out, _ = run(capsys, "transitivity", "helical", "--n", "8")
    assert code == 0
    assert json.loads(out)["n_components"] == 8
    code, _, _ = run(capsys, "map", "--n", "2")  # order 2 is too small
    assert code == 2


def test_map_table_and_dot(capsys):
    code, out, _ = run(capsys, "map", "--n", "5", "--format", "table")
    assert code == 0
    assert "genus" in out and "true" in out.lower()
    code, out, _ = run(capsys, "map", "--n", "5", "--format", "dot")
    assert code == 0
    assert out.startswith("graph faces {")


def test_transitivity_cube(capsys):
    code, out, _ = run(capsys, "transitivity", "cube")
    assert code == 0
    assert json.loads(out)["transitivity_degree"] == 4


def test_transitivity_helical(capsys):
    code, out, _ = run(capsys, "transitivity", "helical", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["transitivity_degree"] == 2
    assert payload["n_components"] == 7


def test_transitivity_chain(capsys):
    code, out, _ = run(capsys, "transitivity", "chain", "--n", "6", "--t", "0")
    assert code == 0
    assert json.loads(out)["transitivity_degree"] == 1


def test_transitivity_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transitivity", "moebius"])
    assert excinfo.value.code == 2


def test_dilatation_json(capsys):
    code, out, _ = run(capsys, "dilatation")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda"] - (3 + 2 * math.sqrt(2))) < 1e-12
    assert abs(payload["lambda_inverse"] - (3 - 2 * math.sqrt(2))) < 1e-12
    assert abs(payload["w"] - math.sqrt(2)) < 1e-12
    assert payload["z"] == 1.0
    assert all(value < 1e-12 for value in payload["residuals"].values())


# The exact stdout at the default tolerance, as printed when the eigen
# solver still ran on numpy: the plain-float iteration gives the same bits.
DILATATION_STDOUT = {
    "json": """{
  "lambda": 5.8284271247462,
  "lambda_inverse": 0.17157287525381,
  "residuals": {
    "char_poly": 3.5527136788005e-14,
    "combined_row": 7.105427357601e-15,
    "inverse_product": 0.0,
    "long_arc_pair": 3.19744231092045e-14,
    "short_arc_pair": 6.21724893790088e-15,
    "transpose_gap": 8.88178419700125e-16
  },
  "w": 1.41421356237309,
  "z": 1.0
}
""",
    "table": "lambda           lambda_inverse    w                 z\n"
             "5.8284271247462  0.17157287525381  1.41421356237309  1\n",
}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_dilatation_stdout_is_pinned(capsys, fmt):
    code, out, err = run(capsys, "dilatation", "--format", fmt)
    assert (code, out, err) == (0, DILATATION_STDOUT[fmt], "")


@pytest.mark.parametrize("argv", [("--tol", "1e-6"), ("--tol", "1e-300"),
                                  ("--format", "dot", "--tol", "1")],
                         ids=["coarse", "floor", "dot"])
def test_dilatation_tol_is_a_removed_flag(capsys, argv):
    # the dilatation has one input and no tolerance to set
    with pytest.raises(SystemExit) as excinfo:
        main(["dilatation", *argv])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_dilatation_dot(capsys):
    code, out, _ = run(capsys, "dilatation", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph substitution {")


def test_census_default_range(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [4, 5, 7, 8, 9, 11, 13]
    assert all(row["transitivity_degree"] == 2 for row in rows)
    assert all(row["cusps"] == row["n"] for row in rows)
    assert all(row["linking"] == "complete" for row in rows)


def test_census_empty_range(capsys):
    # empty ranges, and a range whose only order is not a prime power
    for n_min, n_max in [("4", "3"), ("10", "5"), ("-5", "3"), ("6", "6")]:
        code, out, err = run(capsys, "census", "--n-min", n_min, "--n-max", n_max)
        assert code == 2 and out == ""
        assert err == f"error: census range --n-min {n_min} --n-max {n_max} " \
                      "holds no prime power above 3\n"


def test_census_table(capsys):
    code, out, _ = run(capsys, "census", "--format", "table", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["n", "cusps"]
    assert len(lines) == 3  # header + n=4 + n=5


def test_links_table_lists_all_families(capsys):
    code, out, _ = run(capsys, "links", "--format", "table")
    assert code == 0
    for family in ("chain", "braid_closure", "cube_diagonal", "cube_edge",
                   "icosahedral", "helical"):
        assert family in out


def test_links_single_family_json(capsys):
    code, out, _ = run(capsys, "links", "--family", "chain", "--n", "5", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "chain"
    assert payload["n_components"] == 5
    assert payload["params"]["half_twists"] == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "dilatation")
    _, second, _ = run(capsys, "dilatation")
    assert first == second
    _, first, _ = run(capsys, "census")
    _, second, _ = run(capsys, "census")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "map.json"
    code, out, _ = run(capsys, "map", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["genus"] == 1


@pytest.mark.parametrize("where, reason", [("missing/x.json", "No such file or directory"),
                                           (".", "Is a directory")])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where, reason):
    target = tmp_path / where
    code, out, err = run(capsys, "map", "--n", "9", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {target}: {reason}\n"


def test_census_reports_check_failures(monkeypatch, capsys):
    import cusplink.cli as cli
    from cusplink.link_families import chain_link, helical_link

    real = helical_link

    def broken(spec):
        real(spec)
        # a chain blueprint in place of the helical one: degree 1, partial linking
        return chain_link(spec.n, 0)

    monkeypatch.setattr(cli, "helical_link", broken)
    code, _, _ = run(capsys, "census", "--n-max", "5")
    assert code == 1
    monkeypatch.setattr(cli, "helical_link", lambda spec: (_ for _ in ()).throw(
        RuntimeError("boom")))
    code, _, err = run(capsys, "census", "--n-max", "5")
    assert code == 1 and "boom" in err


@pytest.mark.parametrize("width, height, invariant", [
    # regular, but each square meets two others along two edges each
    (2, 2, "face adjacency of the order-4 map is not complete: face 0 of 4 has 4 darts, "
           "crossing to 2 others"),
    # no quarter turn of the 2 x 3 grid: phi(0) = 1 is not the image of dart 0
    (2, 3, "no automorphism of the order-4 map sends dart 0 to dart 1: f(alpha("),
], ids=["incomplete", "not-regular"])
def test_helical_on_a_torus_map_is_an_invariant_violation(monkeypatch, capsys, width, height,
                                                          invariant):
    monkeypatch.setattr(link_families, "biggs_map", lambda spec: square_torus(width, height))
    code, out, err = run(capsys, "transitivity", "helical", "--n", "4")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invariant violated: {invariant}") and err.count("\n") == 1


def _both_walks_to_alpha_0(rotation_map):
    facts = regular_map.map_facts(rotation_map)
    return {**facts, "walks": [facts["walks"][0]] * 2}


def _zech_0_read_as_0(spec):
    exp, log, zech = _tables(spec)
    return exp, log, (0,) + zech[1:]


# The fault-injection table: one row per check the program runs on its own
# results, giving the attribute a fault replaces, the request, and the
# stdout and stderr of its exit 1, the check named with its values.  Each
# row fails once its check is removed (mutation testing of the program's
# own checks; DeMillo, Lipton and Sayward, Computer 1978).  The group-order
# cap's exit 1 has its own two tests below.
@pytest.mark.parametrize("module, name, fault, argv, out, err", [
    # a quadratic formula that disagrees with power iteration
    pytest.param(train_track, "eigenvalues_2x2", lambda matrix: (1.0, 0.0), ("dilatation",), "",
                 "error: invariant violated: power iteration disagrees with the quadratic "
                 "formula: 5.828427124746196 vs 1.0, allowance 1e-09\n", id="quadratic"),
    pytest.param(train_track, "perron_eigen", lambda matrix: (1.0, (-1.0, 1.0)), ("dilatation",),
                 "", "error: invariant violated: weights must be strictly positive, got "
                     "(-1.0, 1.0) and lengths (-1.0, 1.0)\n", id="nonpositive-weight"),
    pytest.param(train_track, "MAX_ITERATIONS", 1, ("dilatation",), "",
                 "error: power iteration did not converge within 1 steps\n", id="power-iteration"),
    # the walk to alpha(0) in place of the walk to phi(0): the order-7
    # map's stabilizer generator is then no 6-cycle
    pytest.param(link_families, "map_facts", _both_walks_to_alpha_0,
                 ("transitivity", "helical", "--n", "7"), "",
                 "error: invariant violated: the stabilizer of face 0 is not shown cyclic: its "
                 "generator has cycle lengths [2, 2, 2, 1], not [1, 6]\n", id="stabilizer"),
    # Z(0) = log(1 + 1) read as 0 sends dart 8 = (1, 2) to (1, 0), not (2, 1);
    # the program built that alpha, so RotationMap's alpha check is a
    # violated invariant, not a usage error
    pytest.param(regular_map, "_tables", _zech_0_read_as_0, ("map", "--n", "9"), "",
                 "error: invariant violated: the order-9 map fails the alpha check: "
                 "alpha(alpha(8)) = 0, not 8\n", id="zech"),
    # the 2 x 3 torus has no quarter turn, so no automorphism sends dart 0
    # to phi(0) = 1; map_summary's NoAutomorphism is a violated invariant
    pytest.param(cli, "biggs_map", lambda spec: square_torus(2, 3), ("map", "--n", "9"), "",
                 "error: invariant violated: no automorphism of the order-9 map sends dart 0 "
                 "to dart 1: f(alpha(0)) = 11 but alpha(f(0)) = 7\n", id="not-regular"),
])
def test_a_failed_check_exits_1_and_names_itself(monkeypatch, capsys, module, name, fault, argv,
                                                out, err):
    monkeypatch.setattr(module, name, fault)
    assert run(capsys, *argv) == (1, out, err)


def test_group_cap_failure_maps_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 2)
    code, out, err = run(capsys, "transitivity", "cube")
    assert code == 1 and out == ""
    assert "cap" in err


def test_group_cap_message_names_cap_source_and_bound(monkeypatch, capsys):
    # the cap has one source, perm_action.MAX_GROUP_ORDER, so the message
    # names the cap and the bound it was exceeded by
    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 2)
    code, _, err = run(capsys, "transitivity", "cube")
    assert code == 1
    # the cube group's first basic orbit already has 4 points
    assert err == "error: group order cap 2 exceeded: the order is at least 4\n"


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_cap_env_variable_is_not_read(monkeypatch, capsys, value):
    # the group-order cap is a constant; no environment variable sets it
    commands = [("transitivity", "cube"), ("census",)]
    unset = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in unset] == [0, 0]
    monkeypatch.setenv("CSL_MAX_GROUP", value)
    assert [run(capsys, *argv) for argv in commands] == unset


def test_census_refuses_over_cap_before_building_links(monkeypatch, capsys):
    import cusplink.cli as cli

    built = []
    monkeypatch.setattr(cli, "helical_link", lambda spec: built.append(spec.n))
    code, out, err = run(capsys, "census", "--n-min", "61", "--n-max", "67")
    assert code == 2 and out == ""
    assert err == "error: order 67 exceeds the cap 64\n"
    assert built == []


def test_dilatation_failure_names_the_residual(monkeypatch, capsys):
    from cusplink import train_track

    report = train_track.eigen_report()
    report["residuals"]["char_poly"] = 2e-10
    monkeypatch.setattr(cli, "eigen_report", lambda: report)
    code, out, err = run(capsys, "dilatation")
    assert code == 1 and json.loads(out)["residuals"]["char_poly"] == 2e-10
    assert err == f"error: dilatation residual char_poly = 2e-10 exceeds RESIDUAL_BOUND = " \
                  f"{train_track.RESIDUAL_BOUND!r}\n"
    assert train_track.RESIDUAL_BOUND == 1000 * train_track.DEFAULT_TOL


@pytest.mark.parametrize("fault, shown", [
    ({"n_components": 6}, "error: census n=7: cusps != n (cusps=6, n=7)\n"),
    ({"transitivity_degree": 3},
     "error: census n=7: transitivity degree != 2 (transitivity_degree=3)\n"),
    ({"linking_complete": False}, "error: census n=7: linking not complete (linking=partial)\n"),
    # the map's genus and the group order, each against its closed form
    ({"params": {"genus": 2}},
     "error: census n=7: genus != genus_formula (genus=2, genus_formula=1)\n"),
    ({"symmetry_order": 84},
     "error: census n=7: symmetry order != n(n-1) (symmetry_order=84, n(n-1)=42)\n"),
], ids=["cusps", "transitivity", "linking", "genus", "order"])
def test_census_failure_names_the_first_failing_row(monkeypatch, capsys, fault, shown):
    helical_link = cli.helical_link

    def faulty(spec):
        blueprint = helical_link(spec)
        if spec.n not in (7, 8):  # 8 fails too, but only the first row is named
            return blueprint
        return SimpleNamespace(**{"n_components": blueprint.n_components,
                                  "symmetry_order": blueprint.symmetry_order,
                                  "transitivity_degree": blueprint.transitivity_degree,
                                  "linking_complete": blueprint.linking_complete,
                                  "params": blueprint.params, **fault})

    monkeypatch.setattr(cli, "helical_link", faulty)
    code, out, err = run(capsys, "census")
    assert (code, err) == (1, shown)
    # stdout still lists every row, the failing ones included
    assert [row["n"] for row in json.loads(out)["rows"]] == [4, 5, 7, 8, 9, 11, 13]


@pytest.mark.parametrize("argv, shown", [
    (("map", "--n", "100000000000031"), "order 100000000000031"),
    (("map", "--n", "1000000000000000003"), "order 1000000000000000003"),
    (("map", "--n", "1000000000000000000"), "order 1000000000000000000"),
    (("transitivity", "helical", "--n", "81"), "order 81"),
    (("links", "--family", "helical", "--n", "100000000000031"), "order 100000000000031"),
    (("transitivity", "helical", "--n", "1000000000000000003"), "order 1000000000000000003"),
    (("links", "--family", "helical", "--n", "128"), "order 128"),
])
def test_field_order_over_the_cap_is_refused_before_factoring(monkeypatch, capsys, argv, shown):
    _forbid_factoring_above_the_cap(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {shown} exceeds the cap 64\n"


def _forbid_factoring_above_the_cap(monkeypatch):
    """Make prime_power and is_prime fail if called on an order above the cap."""
    import cusplink.cli as cli
    from cusplink import finite_field

    def guarded(real):
        def check(n):
            assert n <= finite_field.DEFAULT_MAX_ORDER, f"{real.__name__}({n}) ran above the cap"
            return real(n)
        return check

    monkeypatch.setattr(cli, "prime_power", guarded(finite_field.prime_power))
    monkeypatch.setattr(finite_field, "prime_power", guarded(finite_field.prime_power))
    monkeypatch.setattr(finite_field, "is_prime", guarded(finite_field.is_prime))


@pytest.mark.parametrize("n_min, n_max", [("1000000000000000003", "1000000000000000003"),
                                          ("61", "66"), ("65", "66"), ("61", "67")])
def test_census_n_max_over_the_cap_is_refused_before_factoring(monkeypatch, capsys,
                                                               n_min, n_max):
    _forbid_factoring_above_the_cap(monkeypatch)
    code, out, err = run(capsys, "census", "--n-min", n_min, "--n-max", n_max)
    assert code == 2 and out == ""
    assert err == f"error: order {n_max} exceeds the cap 64\n"


def test_census_up_to_the_cap_still_answers(monkeypatch, capsys):
    _forbid_factoring_above_the_cap(monkeypatch)
    code, out, _ = run(capsys, "census", "--n-min", "4", "--n-max", "64")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]][-2:] == [61, 64]


def test_transitivity_braid_is_constant_time_in_m(capsys):
    code, out, _ = run(capsys, "transitivity", "braid", "--m", "1000000000")
    assert code == 0
    assert json.loads(out) == {"family": "braid_closure", "n_components": 5,
                               "symmetry_order": 5, "transitivity_degree": 1}


@pytest.mark.parametrize("argv", [("transitivity", "chain", "--n", "257"),
                                  ("transitivity", "chain", "--n", "100000"),
                                  ("links", "--family", "chain", "--n", "257"),
                                  ("links", "--family", "chain", "--n", "100000")])
def test_chain_past_the_loop_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: a chain has at most MAX_CHAIN_LOOPS = 256 loops, got {argv[-1]}\n"


_DIGITS_4300 = "9" * 4300  # the most digits that int() reads by default: a 14285-bit integer


@pytest.mark.parametrize("argv, shown", [
    (("links", "--family", "braid", "--m", _DIGITS_4300),
     "error: the power m is at most MAX_BRAID_POWER = 1000000000, got a 14285-bit integer\n"),
    (("transitivity", "braid", "--m", "1000000001"),
     "error: the power m is at most MAX_BRAID_POWER = 1000000000, got 1000000001\n"),
    (("map", "--n", _DIGITS_4300), "error: order a 14285-bit integer exceeds the cap 64\n"),
    (("map", "--n", "-" + "9" * 4299),
     "error: n must be a prime power greater than 3, got a negative 14281-bit integer\n"),
    (("census", "--n-max", _DIGITS_4300), "error: order a 14285-bit integer exceeds the cap 64\n"),
    (("census", "--n-min", _DIGITS_4300),
     "error: census range --n-min a 14285-bit integer --n-max 13 holds no prime power above 3\n"),
    (("transitivity", "chain", "--n", _DIGITS_4300),
     "error: a chain has at most MAX_CHAIN_LOOPS = 256 loops, got a 14285-bit integer\n"),
    (("transitivity", "helical", "--n", _DIGITS_4300),
     "error: order a 14285-bit integer exceeds the cap 64\n"),
    (("map", "--n", "1" * 4301), "error: argument --n: invalid int value: <4301 characters>\n"),
    (("links", "--tol", "1" * 4301, "--p", _DIGITS_4300),
     "error: unrecognized arguments: --tol <4301 characters> --p <4300 characters>\n"),
], ids=["braid-m", "braid-m-bound+1", "map-n", "map-negative-n", "census-n-max",
        "census-n-min", "chain-n", "helical-n", "unreadable-int", "unrecognized"])
def test_huge_numbers_are_refused_in_a_short_line(capsys, argv, shown):
    # a refusal names cusplink's own bound, and echoes a number of
    # thousands of digits by its size, not digit by digit
    try:
        code = main(list(argv))
    except SystemExit as exit_:  # argparse's refusals, followed by the usage line
        code = exit_.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines(keepends=True)[0] == shown
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("t, shown", [
    (_DIGITS_4300, "a 14285-bit integer"), ("-" + _DIGITS_4300, "a negative 14285-bit integer"),
    (str(2 ** 53 + 1), str(2 ** 53 + 1))], ids=["4300-digits", "negative", "bound+1"])
def test_chain_twist_count_past_its_bound_is_a_usage_error(capsys, t, shown):
    code, out, err = run(capsys, "links", "--family", "chain", "--t", t)
    assert (code, out) == (2, "")
    assert err == (f"error: a chain has at most MAX_HALF_TWISTS = {2 ** 53} half-twists "
                   f"either way, got {shown}\n")
    assert len(err.encode()) < 200


def test_chain_twist_count_up_to_its_bound_answers(capsys):
    code, out, _ = run(capsys, "links", "--family", "chain", "--t", str(-2 ** 53))
    assert code == 0 and json.loads(out)["params"]["half_twists"] == -2 ** 53


def test_braid_power_up_to_its_bound_answers(capsys):
    from cusplink.link_families import MAX_BRAID_POWER

    code, out, _ = run(capsys, "links", "--family", "braid", "--m", str(MAX_BRAID_POWER))
    assert code == 0 and json.loads(out)["params"]["power"] == 5 * MAX_BRAID_POWER
    assert max(abs(x) for row in json.loads(out)["linking"] for x in row) < 2 ** 53


def test_family_help_names_each_family_argument(capsys):
    with pytest.raises(SystemExit):
        main(["transitivity", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert ("chain: --n (default 6), --t (default 0); braid: --m (default 1); "
            "cube: no flags; cube_edge: no flags; icosahedral: no flags; "
            "helical: --n (default 5)") in out
    assert "chain: the loop count, at most 256" in out


@pytest.mark.parametrize("command", [("transitivity",), ("links", "--family")],
                         ids=["transitivity", "links"])
@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_family_refuses_the_flags_it_does_not_read(capsys, command, family):
    reads, _build = cli._FAMILIES[family]
    for flag in (flag for flag in cli._FAMILY_FLAGS if flag not in reads):
        code, out, err = run(capsys, *command, family, f"--{flag}", "9")
        assert code == 2 and out == ""
        assert err == f"error: family {family} does not read --{flag}\n"


@pytest.mark.parametrize("command", [("transitivity",), ("links", "--family")],
                         ids=["transitivity", "links"])
@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_family_flag_at_its_default_changes_nothing(capsys, command, family):
    reads, _build = cli._FAMILIES[family]
    plain = run(capsys, *command, family)
    assert plain[0] == 0
    for flag, default in reads.items():
        assert run(capsys, *command, family, f"--{flag}", str(default)) == plain


@pytest.mark.parametrize("flag", ["--n", "--t", "--m"])
def test_links_without_family_reads_no_family_flag(capsys, flag):
    code, out, err = run(capsys, "links", flag, "7")
    assert code == 2 and out == ""
    assert err == f"error: links without --family does not read {flag}\n"


@pytest.mark.parametrize("argv", [("map", "--p", "3"), ("transitivity", "helical", "--k", "2"),
                                  ("links", "--family", "helical", "--p", "3", "--k", "2")])
def test_removed_field_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --" in captured.err


@pytest.mark.parametrize("argv", [("dilatation", "--tol", "1e-6"), ("map", "--p", "3"),
                                  ("transitivity", "moebius"), ("map", "--n", "x"), ()],
                         ids=["removed-tol", "removed-p", "bad-family", "bad-int", "no-command"])
def test_argparse_refusals_open_with_error(capsys, argv):
    # argparse's own refusals read like every other usage error: an
    # "error: " line first, then the usage line, and exit 2
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    error, usage = captured.err.splitlines()[:2]
    assert error.startswith("error: ") and usage.startswith("usage: cusplink")


@pytest.mark.parametrize("argv, n", [(("map", "--n", "5"), 5),
                                     (("links", "--family", "helical", "--n", "5"), 5),
                                     (("census", "--n-max", "5"), 4)],
                         ids=["map", "links-helical", "census"])
def test_a_disconnected_built_map_exits_1(capsys, monkeypatch, argv, n):
    # the program built the map, so the walk's refusal of a disconnected
    # one is a violated invariant, not a usage error; census builds through
    # helical_link, and a library caller of map_facts still gets ValueError
    from cusplink import link_families
    from reference_checks import two_copies

    def doubled(spec):
        return two_copies(regular_map.biggs_map(spec))

    monkeypatch.setattr(cli, "biggs_map", doubled)
    monkeypatch.setattr(link_families, "biggs_map", doubled)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: invariant violated: the order-{n} map fails its "
                                       f"walks: the walk from dart 0 misses {n} faces: "
                                       "a disconnected map\n")


# Each request of the CLI property test answers or is refused within this
# many seconds; the slowest, census --n-min 4 --n-max 64, takes about 30 ms.
REQUEST_BUDGET_S = 1.0
# Each line a refusal prints is shorter than this, whatever number was
# typed; argparse's usage lines follow its own error line.
ERROR_LINE_BYTES = 200

_SUBCOMMANDS = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
# integers around every bound the parser's flags meet, as text: the prime
# powers a map is built on, 0 and negatives, the field-order cap and
# MAX_CHAIN_LOOPS = 256 each side, non-prime-powers, the int-conversion
# limit of 4300 digits, and non-numbers
_NUMBERS = st.one_of(
    st.sampled_from([n for n in range(4, DEFAULT_MAX_ORDER + 1) if prime_power(n)]).map(str),
    st.integers(-300, 300).map(str),
    st.sampled_from([DEFAULT_MAX_ORDER - 1, DEFAULT_MAX_ORDER, DEFAULT_MAX_ORDER + 1, 255, 256, 257,
                     6, 12, 60, 100, 10 ** 18 + 3, -(10 ** 18)]).map(str),
    st.sampled_from(["1" * 4300, "1" * 4301, "-" + "9" * 4301, "x", "", "1e3", "5.0", "0x10"]))


@st.composite
def _argument_lists(draw, out_dir):
    """A subcommand, its positional, and up to four flags with values, drawn
    from the parser's own actions; now and then an unknown name, a flag of
    another subcommand or a removed one, or a flag with no value."""
    command = draw(st.sampled_from([*_SUBCOMMANDS, "moebius", None]))
    if command not in _SUBCOMMANDS:
        return [] if command is None else [command]
    actions = [action for action in _SUBCOMMANDS[command]._actions if action.dest != "help"]
    # every subcommand reads --out, which takes only a path under out_dir
    other_flags = sorted({flag for sub in _SUBCOMMANDS.values() for action in sub._actions
                          for flag in action.option_strings} - {"-h", "--help", "--out"}
                         | {"--p", "--k", "--tol"})
    outs = [str(out_dir / "out.txt"), str(out_dir / "missing" / "out.txt"), str(out_dir)]

    def value(action):
        if action.dest == "out":
            return st.sampled_from(outs)
        if action.choices:
            return st.sampled_from([*action.choices, "moebius"])
        return _NUMBERS

    argv = [command]
    for action in actions:
        if not action.option_strings and draw(st.integers(0, 9)):  # a positional, mostly given
            argv.append(draw(value(action)))
    flagged = [action for action in actions if action.option_strings]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)):
            action = draw(st.sampled_from(flagged))
            argv += [action.option_strings[0], draw(value(action))]
        else:
            argv += [draw(st.sampled_from(other_flags)), draw(_NUMBERS)]
    return argv[:-1] if draw(st.integers(0, 19)) == 0 else argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argument_list_answers_or_is_refused_quickly(tmp_path, capsys, data):
    # the CLI contract: exit 0, 1 or 2; on a nonzero exit nothing on stdout
    # and stderr opening with "error: ", each of its lines under
    # ERROR_LINE_BYTES; no traceback; within the budget
    argv = data.draw(_argument_lists(tmp_path), label="argv")
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse's refusals
        code = exit_.code
    elapsed = perf_counter() - start
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert max(len(line.encode()) for line in captured.err.splitlines()) < ERROR_LINE_BYTES
    assert "Traceback" not in captured.out + captured.err
    assert elapsed <= REQUEST_BUDGET_S, f"{argv[:4]} took {elapsed:.3f} s"


def _outcomes(capsys, argument_lists) -> list[tuple]:
    """Exit code, stdout and stderr of each argument list, run in turn in
    this process; argparse's refusals and --help raise SystemExit."""
    outcomes = []
    for argv in argument_lists:
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


@pytest.fixture
def fresh_parser_cache():
    cached = cli.build_parser  # a test may replace it before this is torn down
    cached.cache_clear()
    yield
    cached.cache_clear()


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch, fresh_parser_cache):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "cusplink":  # the subparsers share this class
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counted)
    codes = [code for code, *_ in _outcomes(capsys, [("map", "--n", "5"), ("map", "--p", "3"),
                                                     ("map", "--n", "6"), ("dilatation",)])]
    assert codes == [0, 2, 2, 0] and len(built) == 1
    assert cli.build_parser() is built[0]


# an argparse refusal, --help, a ValueError refusal, answers, and each again
_SEQUENCE = [("map", "--p", "3"), ("transitivity", "--help"), ("map", "--n", "6"),
             ("map", "--n", "9"), ("census",), ("map", "--p", "3"), ("map", "--n", "9"),
             ("transitivity", "helical", "--n", "3"), ("map", "--n", "9", "--format", "dot")]


def test_one_parser_answers_as_a_fresh_parser_per_request(capsys, monkeypatch,
                                                          fresh_parser_cache):
    shared = _outcomes(capsys, _SEQUENCE)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == _outcomes(capsys, _SEQUENCE)
    assert [code for code, *_ in shared] == [2, 0, 2, 0, 0, 2, 0, 2, 0]
    assert shared[3] == shared[6] and shared[1][1].startswith("usage: cusplink transitivity")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_requests_in_one_process_answer_as_fresh_parsers_do(tmp_path, capsys, monkeypatch,
                                                                  data):
    # the property test's argument lists, run in turn on the one shared
    # parser and then each on a parser of its own
    argument_lists = data.draw(st.lists(_argument_lists(tmp_path), min_size=2, max_size=5),
                               label="argument_lists")
    shared = _outcomes(capsys, argument_lists)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert _outcomes(capsys, argument_lists) == shared
