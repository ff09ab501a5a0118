import json
import math
from types import SimpleNamespace

import pytest

from cusplink import cli
from cusplink.cli import main
from cusplink.finite_field import (
    DEFAULT_MAX_ORDER,
    FieldSpec,
    field_of_order,
    make_field,
    prime_power,
)


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


def test_group_cap_failure_maps_to_exit_1(monkeypatch, capsys):
    from cusplink import perm_action

    monkeypatch.setattr(perm_action, "MAX_GROUP_ORDER", 2)
    code, out, err = run(capsys, "transitivity", "cube")
    assert code == 1 and out == ""
    assert "cap" in err


def test_group_cap_message_names_cap_source_and_bound(monkeypatch, capsys):
    # the cap has one source, perm_action.MAX_GROUP_ORDER, so the message
    # names the cap and the bound it was exceeded by
    from cusplink import perm_action

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


def test_violated_invariant_maps_to_exit_1(monkeypatch, capsys):
    from cusplink import train_track

    # a quadratic formula that disagrees with power iteration
    monkeypatch.setattr(train_track, "eigenvalues_2x2", lambda matrix: (1.0, 0.0))
    code, out, err = run(capsys, "dilatation")
    assert code == 1 and out == ""
    assert err.startswith("error: invariant violated: power iteration disagrees "
                          "with the quadratic formula")
    assert "Traceback" not in err


def test_census_refuses_over_cap_before_building_links(monkeypatch, capsys):
    import cusplink.cli as cli

    built = []
    monkeypatch.setattr(cli, "helical_link", lambda spec: built.append(spec.n))
    code, out, err = run(capsys, "census", "--n-min", "61", "--n-max", "67")
    assert code == 2 and out == ""
    assert err == "error: order 67 exceeds the cap 64\n"
    assert built == []


def test_nonpositive_weight_maps_to_exit_1(monkeypatch, capsys):
    from cusplink import train_track

    monkeypatch.setattr(train_track, "perron_eigen", lambda matrix: (1.0, (-1.0, 1.0)))
    code, out, err = run(capsys, "dilatation")
    assert code == 1 and out == ""
    assert err.startswith("error: invariant violated: weights must be strictly positive")


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
], ids=["cusps", "transitivity", "linking"])
def test_census_failure_names_the_first_failing_row(monkeypatch, capsys, fault, shown):
    helical_link = cli.helical_link

    def faulty(spec):
        blueprint = helical_link(spec)
        if spec.n not in (7, 8):  # 8 fails too, but only the first row is named
            return blueprint
        return SimpleNamespace(**{"n_components": blueprint.n_components,
                                  "symmetry_order": blueprint.symmetry_order,
                                  "transitivity_degree": blueprint.transitivity_degree,
                                  "linking_complete": blueprint.linking_complete, **fault})

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


def test_a_face_row_that_repeats_an_image_exits_2(capsys, monkeypatch):
    # the phi check in biggs_map raises ValueError, which main maps to 2
    original = FieldSpec.affine_images

    def affine_images(spec, s, t):
        row = original(spec, s, t)  # face 3's rotation is the row that fixes 3
        return (row[0], row[0], *row[2:]) if s == spec.primitive() and row[3] == 3 else row

    monkeypatch.setattr(FieldSpec, "affine_images", affine_images)
    code, out, err = run(capsys, "map", "--n", "9")
    assert code == 2 and out == ""
    assert err.startswith("error: phi on face 3 is not a bijection: dart ")
    assert err.endswith(" is the image of two darts\n")
