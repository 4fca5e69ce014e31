"""Building sets, nested sets, admissible functions, graded ranks."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import wondertoric.layers
import wondertoric.models
from arrgen import random_cases
from wondertoric import fans
from wondertoric.errors import ValidationError
from wondertoric.fans import EqualSignBases, Fan, orthant_fan, weyl_fan_A
from wondertoric.files import fixture_path, load_arrangement, load_fan
from wondertoric.lattice import Sublattice
from wondertoric.layers import Layer, goodness_check, intersect, poset_of_layers
from wondertoric.models import (
    AdmissibleFunction,
    WellConnectedness,
    build_building_set,
    building_set_from_arrangement,
    enumerate_admissible,
    enumerate_nested_sets,
    is_well_connected,
    poincare,
    rank_via_blowup_recursion,
    support_lattice,
)
from wondertoric.presentation import emit_presentation, monomial_basis
from wondertoric.typea import minimal_equal_coordinate_building

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def big_fan():
    return load_fan(fixture_path("good_fan_3d.json"))


@pytest.fixture(scope="module")
def main_arr():
    return load_arrangement(fixture_path("example_main.arrangement.json"))


@pytest.fixture(scope="module")
def main_building(main_arr):
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    return build_building_set(poset, main_arr.building)


@pytest.fixture(scope="module")
def lines_fan():
    return load_fan(fixture_path("p1x4_fan.json"))


@pytest.fixture(scope="module")
def lines_building():
    arr = load_arrangement(fixture_path("example_lines.arrangement.json"))
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    return build_building_set(poset, arr.building)


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

MAIN_ADMISSIBLE = [
    ((), ()),
    ((L2,), (1,)),
    ((L3,), (1,)),
    ((P1,), (1,)), ((P1,), (2,)),
    ((P3,), (1,)), ((P3,), (2,)),
    ((P2,), (1,)), ((P2,), (2,)),
    ((P4,), (1,)), ((P4,), (2,)),
]


def test_main_building_set_members(main_building):
    assert len(main_building.members) == 9
    assert [m.rank for m in main_building.members] == [1, 1, 1, 2, 2, 3, 3, 3, 3]
    # the two connected pairwise intersections of the hypersurfaces stay
    # outside the building set but inside the poset
    assert len(main_building.poset.elements) == 12


def test_default_building_set_is_whole_poset(main_arr):
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    building = build_building_set(poset)
    assert len(building.members) == 11


def test_building_set_rejects_uncovered_layer(main_arr):
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    k2 = Layer.from_generators(3, [[1, 1, -1]], [0])
    with pytest.raises(ValidationError, match="not a building set"):
        build_building_set(poset, [k1, k2])


def test_well_connected(main_building, main_arr):
    assert is_well_connected(main_building).ok
    # the three hypersurfaces alone form a building set, but two of them
    # intersect in a pair of curves that the set does not contain
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    small = build_building_set(poset, main_arr.layers)
    report = is_well_connected(small)
    assert not report.ok
    assert report.witness_members == (0, 2)
    # K1 and K3 meet in two parallel curves; the witness is the first of
    # them in canonical poset order
    assert report.missing_component == Layer.from_generators(
        3, [[1, 0, 2], [0, 1, -1]], [0, 0]
    )
    comps = small.components(report.witness_members)
    assert [poset.elements[c] for c in comps] == [
        report.missing_component,
        Layer.from_generators(3, [[1, 0, 2], [0, 1, -1]], [0, HALF]),
    ]


def _well_connected_by_subsets(building, key=lambda s: s[::-1]):
    """Reference route: every member subset of size >= 2, in colex order
    unless `key` orders them otherwise, each intersection rebuilt from its
    members."""
    member_at = set(building.positions)
    m = len(building.members)
    subsets = sorted(
        (s for size in range(2, m + 1) for s in combinations(range(m), size)), key=key
    )
    for subset in subsets:
        comps = building.components(subset)
        missing = [c for c in comps if c not in member_at]
        if len(comps) >= 2 and missing:
            return WellConnectedness(False, subset, building.poset.elements[missing[0]])
    return WellConnectedness(True, (), None)


def _four_curves():
    """Four curves of T^2, no three through a point, and their poset.  In
    canonical order the characters are (0, 1), (1, 0), (1, 2) and (2, 1):
    the pairs of determinant 2 meet in two points, the last pair in three."""
    curves = [
        Layer.from_generators(2, [character], [value])
        for character, value in (
            ((0, 1), 0),
            ((1, 0), 0),
            ((1, 2), Fraction(1, 3)),
            ((2, 1), HALF),
        )
    ]
    return curves, poset_of_layers(2, curves)


def _well_connectedness_cases(main_arr):
    """(label, building): the component cases, example-main's atoms alone,
    a building set whose failing intersection is reached again by a larger
    member subset, 60 arrgen posets with their default building set and
    every explicit member set that `build_building_set` accepts, and the
    four curves with each set of points where two of them meet more than
    once."""
    yield from _component_cases()
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    yield "example_main atoms", build_building_set(poset, main_arr.layers)
    # a surface, a curve in it, and a surface meeting it in one curve and
    # the curve in two points: both pairs with the curve, and all three
    # members, give those two points
    members = [
        Layer.from_generators(3, [[1, 0, 0]], [0]),
        Layer.from_generators(3, [[1, 0, 0], [0, 1, 0]], [0, 0]),
        Layer.from_generators(3, [[0, 1, 2]], [0]),
    ]
    poset = poset_of_layers(3, members)
    yield "curve in a surface", build_building_set(poset, members)
    for label, _, n, layers in random_cases(60):
        poset = poset_of_layers(n, layers)
        yield f"arrgen {label} poset", build_building_set(poset)
        others = poset.elements[1:]
        for size in range(1, len(others) + 1):
            for members in combinations(others, size):
                try:
                    building = build_building_set(poset, members)
                except ValidationError:
                    continue
                yield f"arrgen {label} {members}", building
    curves, poset = _four_curves()
    curves_alone = build_building_set(poset, curves)
    points = sorted(
        {c for s in ((0, 3), (1, 2), (2, 3)) for c in curves_alone.components(s)}
    )
    for size in range(len(points) + 1):
        for chosen in combinations(points, size):
            members = curves + [poset.elements[c] for c in chosen]
            yield f"four curves {chosen}", build_building_set(poset, members)


def test_well_connectedness_matches_the_colex_subset_walk(main_arr):
    verdicts = Counter()
    empty = set()
    for label, building in _well_connectedness_cases(main_arr):
        report = is_well_connected(building)
        assert report == _well_connected_by_subsets(building), label
        verdicts[report.ok] += 1
        m = len(building.members)
        if any(not building.components(s) for s in combinations(range(m), 2)):
            empty.add(" ".join(label.split()[:2]))
    # the arrgen cases with empty member intersections include these four
    assert {
        f"arrgen case{k}" for k in ("0-weyl", "8-orthant3", "11-orthant3", "19-weyl")
    } <= empty
    assert verdicts == {True: 190, False: 129}


def test_well_connectedness_witness_is_colex_first():
    curves, poset = _four_curves()
    building = build_building_set(poset, curves)
    assert list(building.members) == curves
    assert [len(building.components(s)) for s in combinations(range(4), 2)] == [
        1, 1, 2, 2, 1, 3
    ]
    assert all(not building.components(s) for s in combinations(range(4), 3))
    report = is_well_connected(building)
    assert report == _well_connected_by_subsets(building)
    assert report.witness_members == (1, 2)
    by_size = _well_connected_by_subsets(building, key=lambda s: (len(s), s))
    assert not by_size.ok and by_size.witness_members == (0, 3)
    assert by_size.missing_component != report.missing_component


def test_main_nested_sets(main_building):
    assert list(enumerate_nested_sets(main_building)) == MAIN_NESTED


def test_main_admissible(main_building):
    funcs = enumerate_admissible(main_building)
    assert [(f.support, f.values) for f in funcs] == sorted(
        MAIN_ADMISSIBLE, key=lambda sv: (len(sv[0]), sv[0], sv[1])
    )


def test_main_poincare_rows(main_building, big_fan, main_arr):
    res = poincare(
        main_building, big_fan, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )
    assert res.total == (1, 75, 75, 1)
    by_support = {row.support: row for row in res.rows}
    assert by_support[()].subfan_betti == (1, 69, 69, 1)
    assert by_support[()].contribution == (1, 69, 69, 1)
    for curve in (L2, L3):
        row = by_support[(curve,)]
        assert row.subfan_betti == (1, 1)
        assert [f.values for f in row.functions] == [(1,)]
        assert row.contribution == (0, 1, 1, 0)
    for point in (P1, P2, P3, P4):
        row = by_support[(point,)]
        assert row.subfan_betti == (1,)
        assert [f.values for f in row.functions] == [(1,), (2,)]
        assert row.contribution == (0, 1, 1, 0)
    assert len(res.rows) == 7


def test_main_blowup_oracle(main_building, big_fan, main_arr):
    oracle = rank_via_blowup_recursion(
        main_building, big_fan, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )
    assert oracle == (1, 75, 75, 1)


def test_lines_nested_sets_are_chains(lines_building):
    nested = enumerate_nested_sets(lines_building)
    assert len(nested) == 26
    # every member contains or is contained in every other member of a
    # nested set, because the building set is the whole poset here
    members = lines_building.members
    for t in nested:
        for i in t:
            for j in t:
                assert members[i].contains(members[j]) or members[j].contains(
                    members[i]
                )


def test_lines_admissible_and_poincare(lines_building, lines_fan):
    funcs = enumerate_admissible(lines_building)
    assert len(funcs) == 12
    supports = sorted({f.support for f in funcs}, key=lambda s: (len(s), s))
    ranks = [[lines_building.members[i].rank for i in s] for s in supports]
    assert ranks == [[], [2], [2], [3], [3], [4], [2, 4], [2, 4]]
    res = poincare(lines_building, lines_fan)
    assert res.total == (1, 9, 17, 9, 1)
    by_support = {row.support: row for row in res.rows}
    assert by_support[()].contribution == (1, 4, 6, 4, 1)
    rank2 = [s for s in supports if len(s) == 1 and ranks[supports.index(s)] == [2]]
    for s in rank2:
        assert by_support[s].subfan_betti == (1, 2, 1)
        assert by_support[s].contribution == (0, 1, 2, 1, 0)
    rank3 = [s for s in supports if len(s) == 1 and ranks[supports.index(s)] == [3]]
    for s in rank3:
        assert by_support[s].subfan_betti == (1, 1)
        assert [f.values for f in by_support[s].functions] == [(1,), (2,)]
        assert by_support[s].contribution == (0, 1, 2, 1, 0)
    point = next(s for s in supports if len(s) == 1 and ranks[supports.index(s)] == [4])
    assert [f.values for f in by_support[point].functions] == [(1,), (2,), (3,)]
    assert by_support[point].contribution == (0, 1, 1, 1, 0)
    for s in supports:
        if len(s) == 2:
            assert [f.values for f in by_support[s].functions] == [(1, 1)]
            assert by_support[s].contribution == (0, 0, 1, 0, 0)


def test_lines_blowup_oracle(lines_building, lines_fan):
    assert rank_via_blowup_recursion(lines_building, lines_fan) == (1, 9, 17, 9, 1)


def test_resolver_must_fit_fan_and_arrangement(lines_building, lines_fan):
    other = weyl_fan_A(5)
    assert other.ambient_dim == lines_fan.ambient_dim and other != lines_fan
    for compute in (poincare, rank_via_blowup_recursion):
        with pytest.raises(ValidationError, match="resolved for another fan"):
            compute(lines_building, lines_fan, EqualSignBases(other))
        with pytest.raises(ValidationError, match="dimensions differ"):
            compute(lines_building, weyl_fan_A(3))


def _shared_resolver_cases(arrgen_count, eqc_orders):
    """(label, fan, building) for arrgen cases and equal-coordinate models."""
    for label, fan, n, layers in random_cases(arrgen_count, seed=23):
        yield label, fan, build_building_set(poset_of_layers(n, layers))
    for n in eqc_orders:
        yield f"eqc{n}", weyl_fan_A(n), minimal_equal_coordinate_building(n)[1]


def _relation_factors(ideal):
    return [(r.member, r.above, r.z, r.directions) for r in ideal.member_relations]


def test_default_resolver_is_shared_by_the_model_computations(monkeypatch):
    # each search, subfan Betti resolution and extension by its arguments;
    # an extension made inside a search is part of that search
    searched, resolved, extended = Counter(), Counter(), Counter()
    in_search = []
    search, betti = fans.equal_sign_basis, EqualSignBases.subfan_betti
    extend = fans.extend_equal_sign_basis

    def counted_search(fan, lat, bound):
        searched[fan, lat] += 1
        in_search.append(lat)
        try:
            return search(fan, lat, bound)
        finally:
            in_search.pop()

    def counted_betti(bases, gamma):
        # a lattice missing from the resolver's memo is resolved by this call
        if gamma not in bases._betti:
            resolved[bases.fan, gamma] += 1
        return betti(bases, gamma)

    def counted_extend(fan, outer, inner_rows, bound):
        if not in_search:
            extended[fan, outer, inner_rows] += 1
        return extend(fan, outer, inner_rows, bound)

    monkeypatch.setattr(fans, "equal_sign_basis", counted_search)
    monkeypatch.setattr(EqualSignBases, "subfan_betti", counted_betti)
    monkeypatch.setattr(fans, "extend_equal_sign_basis", counted_extend)
    # earlier tests may have left lattices resolved in the shared resolvers
    fans._shared_bases.cache_clear()
    cases = list(_shared_resolver_cases(4, (4,)))[3:]
    assert [label for label, _, _ in cases] == ["case3-weyl", "eqc4"]
    for label, fan, building in cases:
        poset = building.poset
        assert goodness_check(fan, poset).ok, label
        total = poincare(building, fan).total
        assert rank_via_blowup_recursion(building, fan) == total, label
        emit_presentation(building, fan)
        assert fans.resolve_bases(fan, poset.torus_dim) is fans.complete_bases(
            fan, poset.torus_dim
        ), label
    # every lattice of both posets is searched, the goodness check asks for
    # them all; each one once, and each subfan Betti resolution and
    # extension once
    assert set(searched) == {
        (fan, el.gamma) for _, fan, building in cases for el in building.poset.elements
    }
    for seen in (searched, resolved, extended):
        assert seen and set(seen.values()) == {1}, seen


def test_shared_resolver_answers_as_a_fresh_one():
    fans._shared_bases.cache_clear()
    # the presentation of eqc5 would list all 2^26 member subsets
    for label, fan, building in _shared_resolver_cases(60, (3, 4, 5)):
        fresh = EqualSignBases(fan)
        poset = building.poset
        assert goodness_check(fan, poset) == goodness_check(fan, poset, fresh), label
        assert poincare(building, fan) == poincare(building, fan, fresh), label
        assert rank_via_blowup_recursion(building, fan) == rank_via_blowup_recursion(
            building, fan, fresh
        ), label
        if label == "eqc5":
            continue
        shared, own = (emit_presentation(building, fan, b) for b in (None, fresh))
        assert shared.class_sizes() == own.class_sizes(), label
        assert _relation_factors(shared) == _relation_factors(own), label


def test_a2_example():
    fan = load_fan(fixture_path("weyl_a3_fan.json"))
    arr = load_arrangement(fixture_path("example_a2.arrangement.json"))
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    building = build_building_set(poset)
    assert len(poset.elements) == 5
    assert is_well_connected(building).ok
    assert len(enumerate_nested_sets(building)) == 8
    res = poincare(building, fan)
    assert res.total == (1, 5, 1)
    assert rank_via_blowup_recursion(building, fan) == (1, 5, 1)


def test_randomized_dual_oracle_quick():
    for label, fan, n, layers in random_cases(6, seed=97):
        poset = poset_of_layers(n, layers)
        building = build_building_set(poset)
        res = poincare(building, fan)
        oracle = rank_via_blowup_recursion(building, fan)
        assert res.total == oracle, label


def _blowup_by_intersect(building, fan):
    """Reference route: the blowup oracle on `Layer` objects, each center's
    intersections solved again by `intersect`."""
    bases = fans.complete_bases(fan, building.torus_dim)

    def deepest_first(x):
        return (-x.rank,) + x.sort_key()[1:]

    def ranks_of(ambient, centers):
        if not centers:
            return fans.betti_numbers(bases.subfan(ambient.gamma).fan)
        z, rest = centers[-1], centers[:-1]
        total = ranks_of(ambient, rest)
        codim = z.rank - ambient.rank
        if codim >= 2:
            induced = []
            for g in rest:
                for comp in intersect(g, z):
                    if comp != z and comp not in induced:
                        induced.append(comp)
            inner = ranks_of(z, tuple(sorted(induced, key=deepest_first)))
            for j in range(1, codim):
                total = wondertoric.models._padded_add(total, inner, shift=j)
        return total

    ordered = sorted(building.members, key=deepest_first)
    return ranks_of(Layer.torus(building.torus_dim), tuple(ordered))


def _example_models():
    """(label, fan, building) of the three bundled examples, each with the
    building set its file gives."""
    for name, fan_name in (
        ("example_main", "good_fan_3d.json"),
        ("example_lines", "p1x4_fan.json"),
        ("example_a2", "weyl_a3_fan.json"),
    ):
        arr = load_arrangement(fixture_path(f"{name}.arrangement.json"))
        poset = poset_of_layers(arr.torus_dim, arr.layers)
        yield name, load_fan(fixture_path(fan_name)), build_building_set(
            poset, arr.building
        )


def test_blowup_oracle_matches_the_intersect_route():
    cases = [*_example_models(), *_shared_resolver_cases(60, (3, 4, 5, 6))]
    assert len(cases) == 3 + 60 + 4
    for label, fan, building in cases:
        assert rank_via_blowup_recursion(building, fan) == _blowup_by_intersect(
            building, fan
        ), label


def test_blowup_oracle_solves_no_character_equations(monkeypatch):
    calls = []
    solve = wondertoric.layers._solve

    def counted_solve(n, rows, values):
        calls.append(rows)
        return solve(n, rows, values)

    models = [*_example_models(), *_shared_resolver_cases(0, (4,))]
    # the poset closure is built before the solver is counted
    monkeypatch.setattr(wondertoric.layers, "_solve", counted_solve)
    for label, fan, building in models:
        rank_via_blowup_recursion(building, fan)
        assert not calls, label


def _chained_components(building, subset, memo):
    """Reference route: intersect the members one at a time."""
    if subset not in memo:
        if not subset:
            memo[subset] = (Layer.torus(building.torus_dim),)
        else:
            last = building.members[subset[-1]]
            memo[subset] = tuple(
                out
                for c in _chained_components(building, subset[:-1], memo)
                for out in intersect(c, last)
            )
    return memo[subset]


def _component_cases():
    for name, _, building in _example_models():
        yield f"{name} file", building
        yield f"{name} poset", build_building_set(building.poset)
    for n in (3, 4):
        poset, building = minimal_equal_coordinate_building(n)
        yield f"eqc{n} minimal", building
        yield f"eqc{n} poset", build_building_set(poset)
    for label, _, n, layers in random_cases(20, seed=11):
        yield label, build_building_set(poset_of_layers(n, layers))


def test_components_match_chained_intersections():
    for label, building in _component_cases():
        elements = building.poset.elements
        m = len(building.members)
        memo: dict = {}
        for size in range(m + 1 if m <= 12 else 4):
            for subset in combinations(range(m), size):
                comps = building.components(subset)
                assert list(comps) == sorted(set(comps)), (label, subset)
                assert {elements[c] for c in comps} == set(
                    _chained_components(building, subset, memo)
                ), (label, subset)
        for support in enumerate_nested_sets(building):
            total = Sublattice.zero(building.torus_dim)
            for i in support:
                total = total.sum(building.members[i].gamma)
            assert support_lattice(building, support) == total.saturation(), (
                label,
                support,
            )


def _incomplete_models():
    a2 = load_arrangement(fixture_path("example_a2.arrangement.json"))
    weyl = load_fan(fixture_path("weyl_a3_fan.json"))
    yield Fan.make(2, weyl.rays, weyl.maximal_cones[:-1]), a2.layers
    # a stray 1-dimensional maximal cone: restricted to its full-dimensional
    # cones this is the orthant fan, whose blowup at the point has (1, 3, 1)
    orthant = orthant_fan(2)
    stray = Fan.make(2, orthant.rays + ((1, 1),), orthant.maximal_cones + ((4,),))
    yield stray, (Layer.from_generators(2, [[1, 0], [0, 1]], [0, 0]),)


def test_model_computations_reject_incomplete_fans():
    for fan, layers in _incomplete_models():
        building = building_set_from_arrangement(2, layers)
        for compute in (
            poincare,
            rank_via_blowup_recursion,
            monomial_basis,
            emit_presentation,
        ):
            with pytest.raises(ValidationError, match="require a complete fan"):
                compute(building, fan)
        assert goodness_check(fan, building.poset).ok


def test_model_computations_reject_non_smooth_fans():
    # complete, but the cone on (1, 0), (1, 2) has index 2
    fan = Fan.make(
        2, ((1, 0), (1, 2), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    building = building_set_from_arrangement(
        2, (Layer.from_generators(2, [[0, 1]], [0]),)
    )
    for compute in (
        poincare,
        rank_via_blowup_recursion,
        monomial_basis,
        emit_presentation,
    ):
        with pytest.raises(ValidationError, match="require a smooth fan"):
            compute(building, fan)
    assert goodness_check(fan, building.poset).ok


def _admissible_by_filter(building):
    """Admissible functions as a filter over every nested set: each support
    member a takes values in [1, rank(a) - rank(E)), E the component of the
    intersection of a's supers in the support that contains a."""
    elements = building.poset.elements
    out = []
    for support in enumerate_nested_sets(building):
        bounds = []
        for a in support:
            supers = [b for b in support if b != a and building.contains(b, a)]
            enclosing = elements[building.enclosing(a, supers)]
            bounds.append(building.members[a].rank - enclosing.rank)
        if min(bounds, default=2) >= 2:
            out.extend(
                AdmissibleFunction(support, values)
                for values in product(*(range(1, b) for b in bounds))
            )
    return tuple(sorted(out, key=lambda f: (len(f.support), f.support, f.values)))


def _admissible_cases():
    for n in (3, 4, 5, 6):
        yield f"eqc{n}", minimal_equal_coordinate_building(n)[1]
    for label, _, n, layers in random_cases(480, seed=3):
        yield label, build_building_set(poset_of_layers(n, layers))


def test_admissible_supports_grow_without_the_nested_set_list(monkeypatch):
    cases = list(_admissible_cases())
    expected = {label: _admissible_by_filter(building) for label, building in cases}

    def refuse(building):
        raise AssertionError("enumerate_admissible listed the nested sets")

    monkeypatch.setattr(wondertoric.models, "enumerate_nested_sets", refuse)
    for label, building in cases:
        assert enumerate_admissible(building) == expected[label], label


def test_admissible_enumeration_intersects_each_member_set_once(monkeypatch):
    """`_grow_nested` keeps each member set's components, and its verdict
    as an antichain, for the call: at n = 7 `BuildingSet.components` runs
    once on each of 4,565 member sets, where it ran 16,771 times without
    the memo."""
    building = minimal_equal_coordinate_building(7)[1]
    expected = enumerate_admissible(building)
    seen = Counter()
    components = wondertoric.models.BuildingSet.components

    def counted(self, subset):
        subset = tuple(subset)
        seen[subset] += 1
        return components(self, subset)

    monkeypatch.setattr(wondertoric.models.BuildingSet, "components", counted)
    assert enumerate_admissible(building) == expected
    assert max(seen.values()) == 1
    assert len(seen) == 4565


def _nested_by_definition(building):
    """Every member subset whose antichains of size >= 2 all meet in one
    component that is not a member and meets transversally, read off
    `components` and `transversal` and Layer containment directly, sorted
    as `enumerate_nested_sets` sorts."""
    members = building.members
    m = len(members)
    comparable = [
        [
            members[i].contains(members[j]) or members[j].contains(members[i])
            for j in range(m)
        ]
        for i in range(m)
    ]
    failing = []
    for size in range(2, m + 1):
        for chain in combinations(range(m), size):
            if any(comparable[a][b] for a, b in combinations(chain, 2)):
                continue
            comps = building.components(chain)
            if not (
                len(comps) == 1
                and comps[0] not in building.member_positions
                and building.transversal(chain, comps[0])
            ):
                failing.append(set(chain))
    return tuple(
        subset
        for size in range(m + 1)
        for subset in combinations(range(m), size)
        if not any(chain <= set(subset) for chain in failing)
    )


def _definition_cases():
    for name, _, building in _example_models():
        yield name, building
    for n in (3, 4):
        yield f"eqc{n}", minimal_equal_coordinate_building(n)[1]
    for label, _, n, layers in random_cases(240, seed=3):
        building = build_building_set(poset_of_layers(n, layers))
        if len(building.members) <= 12:
            yield label, building


def test_nested_sets_and_member_masks_match_the_definition():
    """The walk that carries each nested set's antichains lists the nested
    sets of the definition, and `below` and `above` are the members'
    pairwise containment."""
    for label, building in _definition_cases():
        members = building.members
        m = len(members)
        for i in range(m):
            for j in range(m):
                inside = members[i].contains(members[j])
                assert bool(building.below[i] >> j & 1) == inside, (label, i, j)
                assert bool(building.above[j] >> i & 1) == inside, (label, i, j)
        assert enumerate_nested_sets(building) == _nested_by_definition(building), label


def test_model_walks_ask_no_pairwise_containment(monkeypatch):
    """Nested sets, admissible functions, the building-set check and the
    presentation read member containment from `BuildingSet.below` and
    `above` alone.  emit_presentation runs on eqc4, not eqc5: the member
    of eqc5 with 25 members above has 2^25 class (d) relations."""
    a2 = load_arrangement(fixture_path("example_a2.arrangement.json"))
    a2_fan = load_fan(fixture_path("weyl_a3_fan.json"))

    def models():
        """Fresh building sets, so that no table was cached before a patch;
        each built from explicit members, so the building check runs."""
        poset = poset_of_layers(a2.torus_dim, a2.layers)
        yield "example_a2", build_building_set(poset, poset.elements[1:]), a2_fan
        for n in (4, 5):
            poset, building = minimal_equal_coordinate_building(n)
            fan = weyl_fan_A(n) if n == 4 else None
            yield f"eqc{n}", build_building_set(poset, building.members), fan

    def computed():
        out = {}
        for label, building, fan in models():
            out[label] = (
                building.members,
                enumerate_nested_sets(building),
                enumerate_admissible(building),
            )
            if fan is not None:
                ideal = emit_presentation(building, fan)
                out[label] += (
                    ideal.class_sizes(),
                    [
                        (r.member, r.above, r.z, r.directions)
                        for r in ideal.member_relations
                    ],
                    ideal.empty_intersection_products,
                )
        return out

    expected = computed()

    def refuse(self, i, j):
        raise AssertionError("asked BuildingSet.contains")

    monkeypatch.setattr(wondertoric.models.BuildingSet, "contains", refuse)
    assert computed() == expected
    sizes = {
        label: (len(got[1]), len(got[2])) + tuple(got[3:4])
        for label, got in expected.items()
    }
    assert sizes == {
        "example_a2": (8, 2, (9, 2, 18, 11, 0)),
        "eqc4": (52, 7, (55, 3, 110, 1062, 0)),
        "eqc5": (472, 34),
    }
