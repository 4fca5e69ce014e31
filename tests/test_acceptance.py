"""Acceptance suite: one test per criterion, exact values and time budgets."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations, permutations

from arrgen import random_cases
from hilbert import presentation_hilbert_function
from smith import mat_mul
from test_fans import dot
from wondertoric.errors import ValidationError
from wondertoric.fans import (
    EqualSignBases,
    betti_numbers,
    f_vector,
    orthant_fan,
    validate,
    weyl_fan_A,
)
from wondertoric.files import fixture_path, load_arrangement, load_fan
from wondertoric.lattice import Sublattice, smith_normal_form
from wondertoric.layers import Layer, intersect, poset_of_layers
from wondertoric.models import (
    build_building_set,
    enumerate_admissible,
    enumerate_nested_sets,
    is_well_connected,
    poincare,
    rank_via_blowup_recursion,
)
from wondertoric.presentation import emit_presentation, monomial_basis
from wondertoric.series import (
    qpoly,
    toric_poincare_series,
    verify_lambda_recurrence,
    verify_main_identity,
)
from wondertoric.typea import (
    chain_monomial_to_permutation,
    des,
    enumerate_forests,
    eulerian,
    lec,
    minimal_equal_coordinate_building,
    psi,
    psi_inverse,
)

BIG_FAN = fixture_path("good_fan_3d.json")
MAIN_ARR = fixture_path("example_main.arrangement.json")
LINES_ARR = fixture_path("example_lines.arrangement.json")
LINES_FAN = fixture_path("p1x4_fan.json")
A2_ARR = fixture_path("example_a2.arrangement.json")
A2_FAN = fixture_path("weyl_a3_fan.json")

BUNDLED = (
    (MAIN_ARR, BIG_FAN),
    (LINES_ARR, LINES_FAN),
    (A2_ARR, A2_FAN),
)


def load_model(arr_path, fan_path):
    arr = load_arrangement(arr_path)
    fan = load_fan(fan_path)
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    building = build_building_set(poset, arr.building)
    return arr, fan, poset, building


def test_criterion_01_bundled_big_fan():
    start = time.perf_counter()
    fan = load_fan(BIG_FAN)
    report = validate(fan)
    assert report.simplicial and report.smooth and report.complete
    assert report.f_vector == (1, 72, 210, 140)
    assert betti_numbers(fan) == (1, 69, 69, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


# member indices in the canonical (rank, lattice, translation) order of the
# curves-and-points building set: 0..2 the three hypersurfaces, 3..4 the two
# parallel curves, 5..8 the four points sorted by translation
K1, K2, K3, L2, L3, P1, P3, P2, P4 = range(9)

MAIN_NESTED = sorted(
    [
        (),
        (K1,), (K2,), (K3,), (L2,), (L3,), (P1,), (P2,), (P3,), (P4,),
        (K1, K2), (K1, L2), (K1, L3),
        (K1, P1), (K1, P2), (K1, P3), (K1, P4),
        (K2, K3), (K2, P1), (K2, P2), (K2, P3), (K2, P4),
        (K3, L2), (K3, L3),
        (K3, P1), (K3, P2), (K3, P3), (K3, P4),
        (L2, P1), (L2, P3), (L3, P2), (L3, P4),
        (K1, K2, P1), (K1, K2, P2), (K1, K2, P3), (K1, K2, P4),
        (K1, L2, P1), (K1, L2, P3), (K1, L3, P2), (K1, L3, P4),
        (K2, K3, P1), (K2, K3, P2), (K2, K3, P3), (K2, K3, P4),
        (K3, L2, P1), (K3, L2, P3), (K3, L3, P2), (K3, L3, P4),
    ],
    key=lambda t: (len(t), t),
)

MAIN_ADMISSIBLE = sorted(
    [
        ((), ()),
        ((L2,), (1,)),
        ((L3,), (1,)),
        ((P1,), (1,)), ((P1,), (2,)),
        ((P2,), (1,)), ((P2,), (2,)),
        ((P3,), (1,)), ((P3,), (2,)),
        ((P4,), (1,)), ((P4,), (2,)),
    ],
    key=lambda sv: (len(sv[0]), sv[0], sv[1]),
)

MAIN_ROWS = {
    (): ((1, 69, 69, 1), [()], (1, 69, 69, 1)),
    (L2,): ((1, 1), [(1,)], (0, 1, 1, 0)),
    (L3,): ((1, 1), [(1,)], (0, 1, 1, 0)),
    (P1,): ((1,), [(1,), (2,)], (0, 1, 1, 0)),
    (P2,): ((1,), [(1,), (2,)], (0, 1, 1, 0)),
    (P3,): ((1,), [(1,), (2,)], (0, 1, 1, 0)),
    (P4,): ((1,), [(1,), (2,)], (0, 1, 1, 0)),
}


def test_criterion_02_curves_and_points_example():
    start = time.perf_counter()
    arr, fan, poset, building = load_model(MAIN_ARR, BIG_FAN)

    # poset shape: torus, three hypersurfaces, four curves, four points
    assert Counter(el.rank for el in poset.elements) == {0: 1, 1: 3, 2: 4, 3: 4}
    covers = poset.covers()
    assert len(covers) == 23
    assert sorted(Counter(i for i, _ in covers).values()) == [2, 2, 2, 3, 3, 3, 4, 4]

    assert len(building.members) == 9
    assert is_well_connected(building).ok

    nested = list(enumerate_nested_sets(building))
    assert len(nested) == 48
    assert nested == MAIN_NESTED

    funcs = enumerate_admissible(building)
    assert len(funcs) == 11
    assert [(f.support, f.values) for f in funcs] == MAIN_ADMISSIBLE

    res = poincare(building, fan, EqualSignBases(fan, arr.equal_sign_bases))
    assert res.total == (1, 75, 75, 1)
    assert len(res.rows) == len(MAIN_ROWS)
    for row in res.rows:
        betti, values, contribution = MAIN_ROWS[row.support]
        assert row.subfan_betti == betti, row.support
        assert [f.values for f in row.functions] == values, row.support
        assert row.contribution == contribution, row.support

    # each curve support lifts through cohomology degrees (0, 1), the
    # degree-1 representative being the class of ray 7 (0-based index 6)
    basis = monomial_basis(
        building, fan, EqualSignBases(fan, arr.equal_sign_bases)
    )
    curve_lifts: dict = {}
    for el in basis.elements:
        if el.function.support in ((L2,), (L3,)):
            curve_lifts.setdefault(el.function.support, {})[
                el.cohomology_degree
            ] = el.monomial
    assert curve_lifts[(L2,)] == {0: (), 1: (6,)}
    assert curve_lifts[(L3,)] == {0: (), 1: (6,)}
    assert basis.graded_counts(4) == (1, 75, 75, 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


# expected tables for the divisor example in the 4-torus: members 0..1 are the
# divisors {x2=1} and {x1=1}, member 2 is the input surface {x3=x4=1}, member
# 3 is the surface {x1=x2=1} cut out by the two divisors, members 4..5 the
# curves, member 6 the point
LINES_EXPECTED_FUNCTIONS = {
    (): [()],
    (2,): [(1,)],
    (3,): [(1,)],
    (4,): [(1,), (2,)],
    (5,): [(1,), (2,)],
    (6,): [(1,), (2,), (3,)],
    (2, 6): [(1, 1)],
    (3, 6): [(1, 1)],
}

LINES_EXPECTED_ROWS = {
    (): ((1, 4, 6, 4, 1), [()], (1, 4, 6, 4, 1)),
    (2,): ((1, 2, 1), [(1,)], (0, 1, 2, 1, 0)),
    (3,): ((1, 2, 1), [(1,)], (0, 1, 2, 1, 0)),
    (4,): ((1, 1), [(1,), (2,)], (0, 1, 2, 1, 0)),
    (5,): ((1, 1), [(1,), (2,)], (0, 1, 2, 1, 0)),
    (6,): ((1,), [(1,), (2,), (3,)], (0, 1, 1, 1, 0)),
    (2, 6): ((1,), [(1, 1)], (0, 0, 1, 0, 0)),
    (3, 6): ((1,), [(1, 1)], (0, 0, 1, 0, 0)),
}

LINES_EXPECTED_TOTAL = (1, 9, 17, 9, 1)


def test_criterion_03_divisor_example_end_to_end():
    # Member 2 lies in no divisor, so no building set can leave it out, and
    # like member 3 it is one blowup: (P^1)^4 has (1, 4, 6, 4, 1); the point
    # adds (0, 1, 1, 1, 0), each curve (0, 1, 2, 1, 0), and each surface,
    # P^1 x P^1 blown up at the point with (1, 3, 1), adds (0, 1, 3, 1, 0).
    # Hence the rows for (2,) and (2, 6) and the total (1, 9, 17, 9, 1),
    # which the Hilbert function of the presentation confirms below.
    start = time.perf_counter()
    arr, fan, poset, building = load_model(LINES_ARR, LINES_FAN)
    members = building.members
    assert [m.rank for m in members] == [1, 1, 2, 2, 3, 3, 4]
    assert not any(
        members[h].contains(members[2]) for h in range(7) if h != 2
    )
    assert members[0].contains(members[3]) and members[1].contains(members[3])

    computed: dict = {}
    for f in enumerate_admissible(building):
        computed.setdefault(f.support, []).append(f.values)
    res = poincare(building, fan, EqualSignBases(fan, arr.equal_sign_bases))
    oracle = rank_via_blowup_recursion(
        building, fan, EqualSignBases(fan, arr.equal_sign_bases)
    )
    rows_by_support = {row.support: row for row in res.rows}
    elapsed = time.perf_counter() - start

    problems = []
    if computed != LINES_EXPECTED_FUNCTIONS:
        extra = sorted(set(computed) - set(LINES_EXPECTED_FUNCTIONS))
        missing = sorted(set(LINES_EXPECTED_FUNCTIONS) - set(computed))
        changed = sorted(
            s
            for s in set(computed) & set(LINES_EXPECTED_FUNCTIONS)
            if computed[s] != LINES_EXPECTED_FUNCTIONS[s]
        )
        problems.append(
            "admissible functions differ from the expected table: "
            f"extra supports {extra}, missing {missing}, changed {changed}"
        )
    for support, (betti, values, contribution) in LINES_EXPECTED_ROWS.items():
        row = rows_by_support.get(support)
        if row is None:
            problems.append(f"no contribution row for support {support}")
        elif (
            row.subfan_betti,
            [f.values for f in row.functions],
            row.contribution,
        ) != (betti, values, contribution):
            problems.append(f"contribution row for support {support} differs")
    if res.total != LINES_EXPECTED_TOTAL:
        problems.append(
            f"total Poincare {res.total} != expected {LINES_EXPECTED_TOTAL}"
        )
    if res.total != oracle:
        problems.append(f"blowup recursion {oracle} disagrees with {res.total}")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")

    # independent of nested sets: the graded ranks of the emitted presentation
    for variant in ("product", "power"):
        ideal = emit_presentation(
            building, fan, EqualSignBases(fan, arr.equal_sign_bases), variant=variant
        )
        hilbert = presentation_hilbert_function(ideal, 5)
        if hilbert != LINES_EXPECTED_TOTAL + (0,):
            problems.append(
                f"Hilbert function of the {variant} presentation {hilbert} "
                f"!= expected {LINES_EXPECTED_TOTAL + (0,)}"
            )
    # without member 2 the members are not building; without member 3 they
    # are, and that model is the one of total (1, 8, 14, 8, 1)
    try:
        build_building_set(poset, members[:2] + members[3:])
    except ValidationError as exc:
        if "not a building set" not in str(exc):
            problems.append(f"members without member 2 rejected for: {exc}")
    else:
        problems.append("members without member 2 accepted as building")
    other = build_building_set(poset, members[:3] + members[4:])
    other_total = poincare(
        other, fan, EqualSignBases(fan, arr.equal_sign_bases)
    ).total
    if other_total != (1, 8, 14, 8, 1):
        problems.append(f"members without member 3 give {other_total}")
    assert not problems, "; ".join(problems)


def test_criterion_04_dual_oracle_identity():
    for arr_path, fan_path in BUNDLED:
        arr, fan, poset, building = load_model(arr_path, fan_path)
        res = poincare(building, fan, EqualSignBases(fan, arr.equal_sign_bases))
        oracle = rank_via_blowup_recursion(
        building, fan, EqualSignBases(fan, arr.equal_sign_bases)
    )
        assert res.total == oracle, arr_path.name
    for label, fan, n, layers in random_cases(20):
        poset = poset_of_layers(n, layers)
        building = build_building_set(poset)
        res = poincare(building, fan)
        assert res.total == rank_via_blowup_recursion(building, fan), label


def test_criterion_05_hook_statistic_equidistribution():
    for n in range(1, 9):
        lec_counts = Counter()
        des_counts = Counter()
        for perm in permutations(range(1, n + 1)):
            lec_counts[lec(perm)] += 1
            des_counts[des(perm)] += 1
        expected = eulerian(n)[1:]
        assert tuple(lec_counts[k] for k in range(n)) == expected
        assert tuple(des_counts[k] for k in range(n)) == expected
    assert lec((10, 13, 14, 8, 3, 6, 5, 4, 7, 11, 12, 9, 1, 2)) == 5
    steps = (((1, 2), 1), ((1, 2, 4, 5, 6), 2), ((1, 2, 4, 5, 6, 7, 8), 1))
    assert chain_monomial_to_permutation(steps, 10) == (3, 9, 10, 2, 1, 6, 4, 5, 8, 7)


def test_criterion_06_leaf_insertion_bijection():
    for n in range(1, 7):
        grown_degrees = Counter()
        for forest in enumerate_forests(n):
            for sigma in permutations(range(1, forest.component_count + 1)):
                grown = psi(forest, sigma)
                assert grown.leaf_count == n + 1
                assert grown.degree == forest.degree + lec(sigma)
                assert psi_inverse(grown) == (forest, sigma)
                grown_degrees[grown.degree] += 1
        assert grown_degrees == Counter(f.degree for f in enumerate_forests(n + 1))


def test_criterion_07_series_identities():
    start = time.perf_counter()
    assert verify_lambda_recurrence(8)
    assert verify_main_identity(8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_08_weyl_fan_integration():
    series = toric_poincare_series(6)
    for n in (2, 3, 4, 5, 6):
        poset, building = minimal_equal_coordinate_building(n)
        res = poincare(building, weyl_fan_A(n))
        assert qpoly(res.total) == series.coefficient(n), n
    for n in range(1, 8):
        assert betti_numbers(weyl_fan_A(n)) == eulerian(n)[1:], n


def _poincare_totals_corpus():
    for arr_path, fan_path in BUNDLED:
        arr, fan, poset, building = load_model(arr_path, fan_path)
        yield poincare(building, fan, EqualSignBases(fan, arr.equal_sign_bases)).total
    for label, fan, n, layers in random_cases(10, seed=51):
        poset = poset_of_layers(n, layers)
        building = build_building_set(poset)
        yield poincare(building, fan).total
    for n in (2, 3, 4):
        poset, building = minimal_equal_coordinate_building(n)
        yield poincare(building, weyl_fan_A(n)).total


def _check_presentation_counts(arr_path, fan_path):
    arr, fan, poset, building = load_model(arr_path, fan_path)
    ideal = emit_presentation(building, fan, EqualSignBases(fan, arr.equal_sign_bases))
    members = building.members
    a, b, c, d, e = ideal.class_sizes()

    # (a) one squarefree monomial per minimal non-face; these fans are
    # simplicial with all minimal non-faces of size two, so the count is
    # (pairs of rays) - (two-dimensional cones)
    two_cones = {
        frozenset(pair)
        for cone in fan.maximal_cones
        for pair in combinations(cone, 2)
    }
    assert all(len(set(mono)) == len(mono) == 2 for mono in ideal.nonface_monomials)
    assert all(
        frozenset(mono) not in two_cones for mono in ideal.nonface_monomials
    )
    rays = len(fan.rays)
    assert a == rays * (rays - 1) // 2 - len(two_cones)

    # (b) one linear form per ambient character coordinate
    assert b == fan.ambient_dim

    # (c) one product per (ray, member) pair with a nonzero pairing
    expected_c = sum(
        1
        for g in range(len(members))
        for ray in fan.rays
        if any(dot(chi, ray) for chi in members[g].gamma.basis)
    )
    assert c == expected_c

    # (d) one relation per (member, subset of strictly larger members)
    expected_d = sum(
        2
        ** sum(
            1
            for h in range(len(members))
            if h != g and members[h].contains(members[g])
        )
        for g in range(len(members))
    )
    assert d == expected_d

    # (e) one product per member subset with empty intersection
    expected_e = 0
    for size in range(2, len(members) + 1):
        for subset in combinations(range(len(members)), size):
            comps = [Layer.torus(building.torus_dim)]
            for g in subset:
                comps = [out for comp in comps for out in intersect(comp, members[g])]
            if not comps:
                expected_e += 1
    assert e == expected_e


def test_criterion_09_property_suites():
    for total in _poincare_totals_corpus():
        assert total == tuple(reversed(total)), total

    fans = [load_fan(BIG_FAN), load_fan(LINES_FAN), load_fan(A2_FAN)]
    fans.extend(weyl_fan_A(n) for n in range(1, 6))
    fans.extend(orthant_fan(n) for n in range(1, 5))
    for fan in fans:
        report = validate(fan)
        assert report.smooth and report.complete
        assert sum(betti_numbers(fan)) == len(fan.maximal_cones)
        assert f_vector(fan) == report.f_vector

    rng = random.Random(20260814)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(a)
        prod = mat_mul(mat_mul(snf.left, a), snf.right)
        for i, row in enumerate(prod):
            for j, x in enumerate(row):
                expect = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert x == expect
        for first, second in zip(snf.diagonal, snf.diagonal[1:]):
            if second:
                assert first and second % first == 0
            assert first >= 0
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(rng.randint(0, 3))]
        lat = Sublattice.from_rows(3, rows)
        sat = lat.saturation()
        assert sat.contains(lat)
        assert sat.rank == lat.rank
        assert sat.is_split_summand()
        assert sat.saturation() == sat
        assert lat.rank + lat.kernel_lattice().rank == 3

    for arr_path, fan_path in BUNDLED:
        _check_presentation_counts(arr_path, fan_path)
