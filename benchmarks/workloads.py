"""The fixed request sets of the three workloads.

Every request carries its expected exit code and answer check (see
oracle.py) and the work it stands for: the field orders whose facts its
answer verifies, and the orders whose regular maps it builds.  A seed
only shuffles the order in which a pass sends the requests; the set of
requests never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[str], None] | None
    exit_code: int = 0
    verified: tuple[int, ...] = ()   # orders whose facts the answer verifies
    built: tuple[int, ...] = ()      # orders whose maps the request builds

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def darts(self) -> int:
        return sum(n * (n - 1) for n in self.built)


def _answer(argv: str, check, orders: tuple[int, ...] = ()) -> Request:
    return Request(tuple(argv.split()), check, verified=orders, built=orders)


def _refusal(argv: str, built: tuple[int, ...] = ()) -> Request:
    return Request(tuple(argv.split()), None, exit_code=2, built=built)


CENSUS_ORDERS = tuple(oracle.prime_powers(4, 64))

# The north-star census: 25 prime powers, one in-process call per pass.
CENSUS_SWEEP = (
    _answer("census --n-min 4 --n-max 64", partial(oracle.check_census, 4, 64), CENSUS_ORDERS),
)

# Extension fields 9, 16, 32, 49, 64 and the prime field 61: field
# arithmetic and map construction only, no permutation-group work.
MAP_ORDERS = (9, 16, 32, 49, 61, 64)
MAP_GENUS = tuple(
    request
    for n in MAP_ORDERS
    for request in (
        _answer(f"map --n {n}", partial(oracle.check_map_json, n), (n,)),
        _answer(f"map --n {n} --format dot", partial(oracle.check_map_dot, n), (n,)),
    )
)

# One shell-style process per request.  `dilatation --tol 1e-300` is
# left out on purpose: it is a known 17 s spin (10^6 power iterations
# before exit 1, ROADMAP item 4), and a 17 s pass repeated by every run
# of the benchmark does not fit its time budget.  The defect is named
# here so that it is not hidden; add the request once it refuses fast.
QUICK_QUERIES = (
    _answer("dilatation", oracle.check_dilatation_json),
    _answer("dilatation --format table", oracle.check_dilatation_table),
    _answer("dilatation --format dot", oracle.check_dilatation_dot),
    _answer("transitivity cube", partial(oracle.check_transitivity, "cube", None)),
    _answer("transitivity cube_edge", partial(oracle.check_transitivity, "cube_edge", None)),
    _answer("transitivity icosahedral", partial(oracle.check_transitivity, "icosahedral", None)),
    _answer("transitivity chain --n 6", partial(oracle.check_transitivity, "chain", 6)),
    _answer("transitivity braid", partial(oracle.check_transitivity, "braid", None)),
    _answer("transitivity helical --n 7", partial(oracle.check_transitivity, "helical", 7), (7,)),
    _answer("links --format table", oracle.check_links_table, (5,)),
    _answer("links --family chain --n 5 --t 2", partial(oracle.check_links_chain, 5)),
    _answer("map --n 5 --format dot", partial(oracle.check_map_dot, 5), (5,)),
    _answer("map --n 9", partial(oracle.check_map_json, 9), (9,)),
    _answer("census", partial(oracle.check_census, 4, 13), tuple(oracle.prime_powers(4, 13))),
    _refusal("map --n 6"),
    _refusal("map --n 81"),
    _refusal("transitivity helical --n 3"),
    # Slow refusal: builds the links for 61 and 64, then refuses at 67.
    _refusal("census --n-min 61 --n-max 67", built=(61, 64)),
)

WORKLOADS = {
    "census-sweep": CENSUS_SWEEP,
    "map-genus": MAP_GENUS,
    "quick-queries": QUICK_QUERIES,
}

# Workloads whose requests all run in one fresh interpreter per pass;
# the others start one process per request, as a shell user does.
IN_PROCESS = {"census-sweep", "map-genus"}
