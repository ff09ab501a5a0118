"""The benchmark's own tests, at a tiny size.

Run from the repository root: python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import statistics
from functools import partial
from time import perf_counter

import pytest

import oracle
import run
import spans
from workloads import QUICK_QUERIES, WORKLOADS, Request

DIGESTS = json.loads(run.DIGESTS.read_text())
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())

REQUESTS = {r.key: r for requests in WORKLOADS.values() for r in requests}
TINY_IN_PROCESS = tuple(REQUESTS[key] for key in (
    "map --n 9", "map --n 5 --format dot", "transitivity cube", "dilatation", "map --n 6"))

END_TO_END_METRICS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
                    "orders_per_s": "1/s", "darts_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_METRICS = [
    "perm_action.group_closure_ms", "perm_action.transitivity_degree_ms",
    "perm_action.elements", "perm_action.groups_closed",
    "finite_field.field_of_order_ms", "finite_field.primitive_ms", "finite_field.fields_built",
    "regular_map.biggs_map_ms", "regular_map.darts", "regular_map.map_summary_ms",
    "regular_map.face_adjacency_dot_ms", "regular_map.orbits", "cli.output_bytes",
    "cli.main_self_ms", "link_families.helical_link_self_ms",
    "link_families.small_families_ms", "link_families.blueprints", "cli.numpy_import_ms",
    "cli.import_ms", "cli.startup_ms", "train_track.perron_eigen_ms",
    "train_track.perron_calls", "train_track.eigen_report_self_ms",
    "train_track.max_residual", "trace.overhead_ms",
]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY_IN_PROCESS)
    monkeypatch.setattr(run, "IN_PROCESS", run.IN_PROCESS | {"tiny"})
    return "tiny"


def outputs(request: Request) -> tuple[int, bytes, str]:
    runner = run.Runner("census-sweep", 0, perf_counter() + 60)
    report, _seconds = runner.worker([request], trace=False)
    result = report["results"][0]
    return result["code"], result["stdout"].encode(), result["stderr"]


# ---------------------------------------------------------------------------
# metric names and units


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_end_to_end_run_emits_every_metric_with_unit(tiny, capsys):
    result = run.run(tiny, seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY_IN_PROCESS)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END_METRICS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = capsys.readouterr().out
    for name, unit in [*END_TO_END_METRICS.items(), ("fail_ratio", "failed/attempted")]:
        assert any(line.split()[:1] == [name] and unit in line and "n=" in line
                   for line in printed.splitlines()), name


def test_traced_run_emits_every_per_layer_metric(tiny, capsys):
    result = run.run(tiny, seed=3, seconds=0, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(PER_LAYER_METRICS) <= set(metrics)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["perm_action.groups_closed"]["value"] == 1    # the cube's group
    assert metrics["regular_map.darts"]["value"] == 5 * 4 + 9 * 8
    assert metrics["train_track.perron_calls"]["value"] == 2
    assert 0 < metrics["train_track.max_residual"]["value"] < 1e-12
    assert "self time by module" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# self times


def test_self_times_subtract_direct_children_only():
    spans_ = [
        ("cli.main", 0.0, 1.0, None, 0),
        ("link_families.helical_link", 0.1, 0.9, 0, 0),
        ("regular_map.biggs_map", 0.2, 0.5, 1, 0),
        ("finite_field.primitive", 0.3, 0.4, 2, 0),
    ]
    totals = spans.self_times_ms(spans_)
    assert totals["cli.main_self_ms"] == pytest.approx(200.0)
    assert totals["link_families.helical_link_self_ms"] == pytest.approx(500.0)
    assert totals["regular_map.biggs_map_ms"] == pytest.approx(200.0)
    assert totals["finite_field.primitive_ms"] == pytest.approx(100.0)


def test_traced_self_times_add_up_to_wall_less_overhead(tiny):
    runner = run.Runner(tiny, 5, perf_counter() + 60)
    plain = [runner.run_pass(traced=False) for _ in range(2)]
    traced = [runner.run_pass(traced=True) for _ in range(2)]
    for p in traced:
        self_sum = sum(p.layers[name] for name in spans.SPAN_METRICS.values())
        wall_ms = p.layers["trace.wall_ms"]
        assert wall_ms == pytest.approx(p.wall_s * 1000.0)
        # the only time outside spans is the capture of each request's output
        assert wall_ms - 5.0 <= self_sum <= wall_ms
    # with two passes each median is a mean, so the medians add up
    layers = run.per_layer(plain + traced)
    self_sum = sum(layers[name][0] for name in spans.SPAN_METRICS.values())
    overhead = layers["trace.overhead_ms"][0]
    untraced_ms = statistics.median(p.wall_s for p in plain) * 1000.0
    assert untraced_ms - 5.0 <= self_sum - overhead <= untraced_ms


def test_quick_queries_traced_and_plain_requests_agree():
    runner = run.Runner("quick-queries", 0, perf_counter() + 60)
    runner.requests = QUICK_QUERIES[:2]
    for traced, via_worker in ((False, False), (False, True), (True, True)):
        p = runner.run_pass(traced=traced, via_worker=via_worker)
        for o in p.outcomes:
            assert oracle.judge(o.request, o.code, o.stdout, o.stderr, DIGESTS) is None
        if traced:
            assert p.layers["cli.startup_ms"] > 0
            assert p.layers["train_track.perron_calls"] == 4


# ---------------------------------------------------------------------------
# the oracle


def test_oracle_accepts_the_recorded_answer():
    request = REQUESTS["map --n 9"]
    assert oracle.judge(request, *outputs(request), DIGESTS) is None


def test_oracle_rejects_wrong_genus():
    request = REQUESTS["map --n 9"]
    code, stdout, stderr = outputs(request)
    payload = json.loads(stdout)
    payload["genus"] = payload["formula_genus"] = payload["genus"] + 1
    corrupt = json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n"
    assert "genus" in oracle.judge(request, code, corrupt, stderr, DIGESTS)


def test_oracle_rejects_wrong_exit_code():
    request = REQUESTS["map --n 81"]
    code, stdout, stderr = outputs(request)
    assert code == 2 and oracle.judge(request, code, stdout, stderr, DIGESTS) is None
    assert "exit code 1" in oracle.judge(request, 1, stdout, stderr, DIGESTS)
    answer = REQUESTS["map --n 9"]
    good = outputs(answer)
    assert "exit code 2" in oracle.judge(answer, 2, good[1], good[2], DIGESTS)


def test_oracle_rejects_a_byte_change():
    request = REQUESTS["map --n 9"]
    code, stdout, stderr = outputs(request)
    changed = stdout.replace(b"  ", b"   ")       # same JSON, different bytes
    assert json.loads(changed) == json.loads(stdout)
    assert "digest" in oracle.judge(request, code, changed, stderr, DIGESTS)


@pytest.mark.parametrize("check, text", [
    (partial(oracle.check_map_dot, 5), "graph faces {\n  f0 -- f1;\n}\n"),
    (partial(oracle.check_census, 4, 5),
     '{"rows": [{"n": 4, "cusps": 4, "symmetry_order": 12, "transitivity_degree": 2, '
     '"linking": "complete"}, {"n": 5, "cusps": 5, "symmetry_order": 24, '
     '"transitivity_degree": 2, "linking": "complete"}]}'),
    (partial(oracle.check_transitivity, "cube", None),
     '{"family": "cube_diagonal", "n_components": 4, "transitivity_degree": 3}'),
    (oracle.check_dilatation_json,
     '{"lambda": 5.83, "lambda_inverse": 0.17157287525381, "w": 1.41421356237309, "z": 1.0, '
     '"residuals": {"char_poly": 0.0}}'),
    (oracle.check_dilatation_dot,
     'digraph s {\n  w -> w [label="3"];\n  w -> z [label="2"];\n'
     '  z -> w [label="4"];\n  z -> z [label="2"];\n}\n'),
])
def test_oracle_rejects_corrupted_answers(check, text):
    with pytest.raises(oracle.Rejected):
        check(text)


def test_oracle_closed_forms():
    assert oracle.prime_powers(4, 64) == [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                                          31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
    assert [oracle.genus(n) for n in (5, 7, 8, 9, 11)] == [1, 1, 7, 10, 12]
