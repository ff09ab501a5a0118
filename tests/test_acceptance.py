"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line (run pytest with -s to see them) and enforcing the
stated tolerances and runtime budgets."""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from cusplink.cli import main as cli_main
from cusplink.finite_field import field_of_order, prime_power
from cusplink.link_families import (
    EXAMPLE_BRAID,
    braid_permutation,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    helical_link,
    icosahedral_link,
)
from cusplink.perm_action import (
    Permutation,
    affine_group,
    group_closure,
    transitivity_degree,
)
from cusplink.regular_map import biggs_map, genus_formula
from cusplink.train_track import DEFAULT_TOL, SUBSTITUTION, perron_eigen
from reference_checks import (
    affine_map_automorphism,
    affine_permutation,
    compose,
    dart_automorphism_is_valid,
    elements as reference_elements,
    face_pair_edge_counts,
    genus,
    growth_ratios,
    identity,
    induced_face_permutation,
    inverse,
    orbits,
)

LAMBDA = 3.0 + 2.0 * math.sqrt(2.0)
GENUS_RANGE = (5, 7, 8, 9, 11, 13)


class Record:
    def __init__(self):
        self.failures = []

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)


@contextmanager
def criterion(number, name):
    record = Record()
    try:
        yield record
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    verdict = "PASS" if not record.failures else "FAIL"
    print(f"criterion {number} ({name}): {verdict}")
    assert not record.failures, record.failures


def test_criterion_1_genus_formula():
    expected = {5: 1, 7: 1, 8: 7, 9: 10, 11: 12, 13: 27}
    with criterion(1, "genus formula") as record:
        start = time.perf_counter()
        for n in GENUS_RANGE:
            computed = genus(biggs_map(field_of_order(n)))
            formula = genus_formula(n)
            record.check(computed == formula, f"n={n}: genus {computed} != formula {formula}")
            record.check(computed == expected[n], f"n={n}: genus {computed} != {expected[n]}")
        elapsed = time.perf_counter() - start
        record.check(elapsed < 1.0, f"genus loop took {elapsed:.3f}s (budget 1s)")


def test_criterion_2_sharp_two_transitivity():
    with criterion(2, "sharp 2-transitivity of the affine action") as record:
        start = time.perf_counter()
        for n in GENUS_RANGE:
            group = affine_group(field_of_order(n))
            record.check(group.order == n * (n - 1),
                         f"n={n}: order {group.order} != {n * (n - 1)}")
            record.check(transitivity_degree(group) == 2, f"n={n}: degree != 2")
        elapsed = time.perf_counter() - start
        record.check(elapsed < 1.0, f"affine loop took {elapsed:.3f}s (budget 1s)")


def test_criterion_3_dilatation():
    weights = [[3, 4], [2, 3]]
    perron_eigen(weights)  # warm up before timing
    with criterion(3, "dilatation and weights") as record:
        start = time.perf_counter()
        lam, vec = perron_eigen(weights)
        lam_t, _ = perron_eigen(np.array(weights).T)
        elapsed = time.perf_counter() - start
        record.check(abs(lam - LAMBDA) < 1e-12, f"lambda off by {abs(lam - LAMBDA):.3e}")
        ratio = vec[0] / vec[1]
        record.check(abs(ratio - math.sqrt(2)) < 1e-12,
                     f"w/z off by {abs(ratio - math.sqrt(2)):.3e}")
        w, z = vec[0], vec[1]
        eq1 = abs(10 * w + 14 * z - lam * (2 * w + 2 * z))
        eq2 = abs(2 * w + 3 * z - lam * z)
        record.check(eq1 < 1e-12, f"long-arc residual {eq1:.3e}")
        record.check(eq2 < 1e-12, f"short-arc residual {eq2:.3e}")
        record.check(abs(lam - lam_t) <= 2e-13, f"transpose gap {abs(lam - lam_t):.3e}")
        record.check(elapsed < 0.010, f"solves took {elapsed * 1000:.2f}ms (budget 10ms)")


def test_criterion_4_substitution_growth():
    with criterion(4, "substitution growth rate") as record:
        ratios = growth_ratios(SUBSTITUTION, "w", 12)
        record.check(len(ratios) == 12, "expected 12 ratios")
        record.check(abs(ratios[-1] - LAMBDA) < 1e-6,
                     f"ratio after 12 iterations off by {abs(ratios[-1] - LAMBDA):.3e}")


def test_criterion_5_example_menagerie():
    with criterion(5, "example menagerie") as record:
        cube = cube_link()
        record.check(cube.transitivity_degree == 4, "cube action is not 4-transitive")
        record.check(cube.symmetry_order == 24, "cube symmetry order != 24")

        ico = icosahedral_link()
        record.check(ico.n_components == 6, "icosahedral link != 6 components")
        record.check(ico.transitivity_degree == 2, "icosahedral degree != 2")
        record.check(transitivity_degree(group_closure(ico.generators)) < 3,
                     "icosahedral action unexpectedly 3-transitive")

        edges = cube_edge_link()
        record.check(edges.n_components == 12, "edge link != 12 components")
        record.check(edges.transitivity_degree == 1, "edge link degree != 1")

        for n in (5, 6, 7):
            record.check(chain_link(n, 0).transitivity_degree == 1,
                         f"chain n={n} degree != 1")

        perm = braid_permutation(EXAMPLE_BRAID)
        record.check(perm.images == (2, 0, 4, 1, 3),
                     f"braid permutation {perm.images} is not the 5-cycle (0 2 4 3 1)")
        closure = cyclic_braid_closure(EXAMPLE_BRAID, 1)
        record.check(closure.n_components == 5, "5th power closure != 5 components")
        record.check(closure.params["power"] == 5, "closure power != 5")


def test_criterion_6_census(capsys):
    with criterion(6, "census of helical families") as record:
        start = time.perf_counter()
        expected = [n for n in range(4, 14) if prime_power(n) is not None]
        record.check(expected == [4, 5, 7, 8, 9, 11, 13], "prime-power range wrong")
        for n in expected:
            blueprint = helical_link(field_of_order(n))
            record.check(blueprint.n_components == n, f"n={n}: component count off")
            record.check(blueprint.linking_complete, f"n={n}: linking not complete")
            record.check(blueprint.transitivity_degree == 2, f"n={n}: degree != 2")
        code = cli_main(["census", "--n-min", "4", "--n-max", "13"])
        capsys.readouterr()
        record.check(code == 0, f"census exit code {code}")
        elapsed = time.perf_counter() - start
        record.check(elapsed < 5.0, f"census took {elapsed:.3f}s (budget 5s)")


def _random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_criterion_7_property_suites():
    rng = random.Random(20260810)
    nprng = np.random.default_rng(20260810)
    cases = 0
    with criterion(7, "randomized property suites") as record:
        # permutation-group axioms, orbit divisibility, transitivity degree
        for _ in range(420):
            degree = rng.randint(3, 6)
            generators = [_random_permutation(rng, degree)
                          for _ in range(rng.randint(1, 2))]
            group = group_closure(generators)
            elements = reference_elements(group)
            record.check(identity(degree) in elements, "identity missing")
            record.check(all(inverse(g) in elements for g in elements),
                         "inverse escaped the closure")
            pool = sorted(elements, key=lambda p: p.images)
            for _ in range(10):
                record.check(compose(rng.choice(pool), rng.choice(pool)) in elements,
                             "product escaped the closure")
            record.check(math.factorial(degree) % group.order == 0,
                         "order does not divide degree!")
            record.check(all(group.order % len(orbit) == 0 for orbit in orbits(group)),
                         "orbit size does not divide order")
            degree_k = transitivity_degree(group)
            record.check((degree_k >= 1) == (len(orbits(group)) == 1),
                         "transitivity degree disagrees with the orbit count")
            record.check(group.order % math.perm(degree, degree_k) == 0,
                         "the order is not a multiple of the k-tuple count")
            cases += 1

        # Perron positivity and transpose duality on random primitive 2x2
        # matrices, what a two-letter substitution gives
        produced = 0
        while produced < 300:
            matrix = nprng.integers(0, 4, size=(2, 2))
            if not np.all(matrix @ matrix > 0):  # Wielandt: primitive iff M^2 > 0
                continue
            lam, vec = perron_eigen(matrix)
            lam_t, vec_t = perron_eigen(matrix.T)
            record.check(lam > 0, "nonpositive dominant eigenvalue")
            record.check(all(x > 0 for x in vec) and all(x > 0 for x in vec_t),
                         "eigenvector not strictly positive")
            record.check(abs(lam - lam_t) <= 2 * DEFAULT_TOL * max(1.0, lam),
                         "transpose eigenvalue mismatch")
            produced += 1
            cases += 1

        # rotation-map invariants and random affine automorphisms
        for n in (4, 5, 7, 8, 9, 11, 13):
            spec = field_of_order(n)
            surface = biggs_map(spec)
            record.check(all(surface.alpha(d) != d for d in surface.darts),
                         f"n={n}: alpha has a fixed point")
            record.check(all(surface.alpha(surface.alpha(d)) == d for d in surface.darts),
                         f"n={n}: alpha is not an involution")
            record.check(all(len(face) == n - 1 for face in surface.faces),
                         f"n={n}: face is not an (n-1)-gon")
            record.check(len(surface.faces) == n, f"n={n}: face count off")
            counts = face_pair_edge_counts(surface)
            record.check(all(counts[(i, j)] == 1
                             for i in range(n) for j in range(i + 1, n)),
                         f"n={n}: shared-edge count off")
            cases += 1
            for _ in range(42):
                s = rng.randint(1, n - 1)
                t = rng.randint(0, n - 1)
                auto = affine_map_automorphism(spec, s, t)
                record.check(dart_automorphism_is_valid(surface, auto),
                             f"n={n}: affine pair is not an automorphism")
                record.check(induced_face_permutation(surface, auto)
                             == affine_permutation(spec, s, t),
                             f"n={n}: face action disagrees with the label action")
                cases += 1

        record.check(cases >= 1000, f"only {cases} cases generated")
    print(f"criterion 7 generated {cases} randomized cases")
