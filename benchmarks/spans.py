"""Spans recorded from the benchmark's own files around the public
functions of each cusplink module, and their reduction to per-layer
metrics.

install() replaces each function under the name its caller looks it up
by (cli and link_families import by name), so the program's sources stay
untouched.  A span is (name, start, end, parent, request): start and end
in perf_counter seconds, parent the index of the enclosing span or None.
Spans are kept in memory and handed back when the worker ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

# span name -> per-layer metric that receives its self time
SPAN_METRICS = {
    "cli.main": "cli.main_self_ms",
    "finite_field.field_of_order": "finite_field.field_of_order_ms",
    "finite_field.primitive": "finite_field.primitive_ms",
    "regular_map.biggs_map": "regular_map.biggs_map_ms",
    "regular_map.map_summary": "regular_map.map_summary_ms",
    "regular_map.face_adjacency_dot": "regular_map.face_adjacency_dot_ms",
    "perm_action.affine_group": "perm_action.affine_group_self_ms",
    "perm_action.group_closure": "perm_action.group_closure_ms",
    "perm_action.transitivity_degree": "perm_action.transitivity_degree_ms",
    "link_families.helical_link": "link_families.helical_link_self_ms",
    "link_families.small_families": "link_families.small_families_ms",
    "train_track.perron_eigen": "train_track.perron_eigen_ms",
    "train_track.eigen_report": "train_track.eigen_report_self_ms",
}

COUNTERS = (
    "perm_action.elements",
    "perm_action.groups_closed",
    "finite_field.fields_built",
    "regular_map.darts",
    "regular_map.orbits",
    "link_families.blueprints",
    "train_track.perron_calls",
    "cli.output_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._maps: list = []          # maps built in the current request
        self._eigen: list = []         # (matrix, lam, vec) per perron_eigen call

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) runs once the span
        has closed, so its cost falls on the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if after is not None:
                after(return_value, args)
            return return_value

        return traced

    def count(self, counter: str):
        def after(_result, _args):
            self.counts[counter] += 1
        return after

    def _closed(self, group, _args):
        self.counts["perm_action.groups_closed"] += 1
        self.counts["perm_action.elements"] += len(group.elements)

    def _perron(self, result, args):
        self.counts["train_track.perron_calls"] += 1
        self._eigen.append((args[0], result))

    def finish_request(self, output: str) -> None:
        """Counts read off the request's results once it has returned, so
        outside every timed span."""
        self.counts["cli.output_bytes"] += len(output.encode())
        for surface in self._maps:
            self.counts["regular_map.darts"] += len(surface.darts)
            self.counts["regular_map.orbits"] += sum(
                len(surface.__dict__.get(orbits, ()))
                for orbits in ("faces", "vertices", "edges"))
        self._maps.clear()

    def max_residual(self) -> float:
        """Largest relative residual max|Mv - lam v| / max|v| of the
        eigenpairs perron_eigen returned (0 when it was never called)."""
        worst = 0.0
        for matrix, (lam, vec) in self._eigen:
            arr = np.asarray(getattr(matrix, "matrix", matrix), dtype=float)
            worst = max(worst, float(np.max(np.abs(arr @ vec - lam * vec)) / np.max(np.abs(vec))))
        return worst

    def install(self) -> None:
        from cusplink import cli, finite_field, link_families, perm_action, train_track

        def built_map(surface, _args):
            self._maps.append(surface)

        self.counts.update(dict.fromkeys(COUNTERS, 0))
        finite_field.FieldSpec.primitive = self.span(
            "finite_field.primitive", finite_field.FieldSpec.primitive)
        cli.field_of_order = self.span("finite_field.field_of_order", cli.field_of_order,
                                       self.count("finite_field.fields_built"))
        for module in (cli, link_families):
            module.biggs_map = self.span("regular_map.biggs_map", module.biggs_map, built_map)
        cli.map_summary = self.span("regular_map.map_summary", cli.map_summary)
        cli.face_adjacency_dot = self.span("regular_map.face_adjacency_dot",
                                           cli.face_adjacency_dot)
        link_families.affine_group = self.span("perm_action.affine_group",
                                               link_families.affine_group)
        for module in (link_families, perm_action):
            module.group_closure = self.span("perm_action.group_closure",
                                             module.group_closure, self._closed)
        link_families.transitivity_degree = self.span("perm_action.transitivity_degree",
                                                      link_families.transitivity_degree)
        blueprint = self.count("link_families.blueprints")
        cli.helical_link = self.span("link_families.helical_link", cli.helical_link, blueprint)
        for name in ("chain_link", "cyclic_braid_closure", "cube_link", "cube_edge_link",
                     "icosahedral_link"):
            setattr(cli, name, self.span("link_families.small_families",
                                         getattr(cli, name), blueprint))
        train_track.perron_eigen = self.span("train_track.perron_eigen",
                                             train_track.perron_eigen, self._perron)
        cli.eigen_report = self.span("train_track.eigen_report", cli.eigen_report)


def self_times_ms(spans) -> Counter:
    """Per-layer self time in ms: each span's duration minus the
    durations of its direct children, summed by metric name."""
    totals: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _request in spans:
        if parent is not None:
            child_time[parent] += end - start
    for (name, start, end, _parent, _request), children in zip(spans, child_time):
        totals[SPAN_METRICS[name]] += (end - start - children) * 1000.0
    return totals
