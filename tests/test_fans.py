"""Fan validation, Betti numbers, equal-sign search, subfans."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrgen import random_cases
from test_layers import _solver_cases
from wondertoric import fans, lattice
from wondertoric.cli import EXAMPLES, _model_inputs
from wondertoric.errors import ValidationError
from wondertoric.fans import (
    EqualSignBases,
    Fan,
    FanReport,
    Subfan,
    betti_numbers,
    equal_sign_basis,
    equal_sign_holds,
    extend_equal_sign_basis,
    f_vector,
    moved_rays,
    orthant_fan,
    pairings,
    subfan,
    validate,
    weyl_fan_A,
)
from wondertoric.files import fixture_path, load_arrangement, load_fan
from wondertoric.layers import _plan, _solve, poset_of_layers
from wondertoric.lattice import Sublattice, determinant, hermite_form, smith_normal_form
from wondertoric.models import (
    enumerate_admissible,
    poincare,
    rank_via_blowup_recursion,
)
from wondertoric.typea import minimal_equal_coordinate_building

P2 = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="module")
def big_fan():
    return load_fan(fixture_path("good_fan_3d.json"))


def test_p2_report():
    report = validate(P2)
    assert report.simplicial and report.smooth and report.complete
    assert report.f_vector == (1, 3, 3)
    assert betti_numbers(P2) == (1, 1, 1)


def test_product_of_lines():
    fan = orthant_fan(4)
    report = validate(fan)
    assert report.smooth and report.complete
    assert report.f_vector == (1, 8, 24, 32, 16)
    assert betti_numbers(fan) == (1, 4, 6, 4, 1)


def test_single_cone_not_smooth():
    fan = Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])
    report = validate(fan)
    assert report.simplicial
    assert not report.smooth
    assert not report.complete
    with pytest.raises(ValidationError):
        betti_numbers(fan)


def _count_calls(monkeypatch, name, original):
    """Calls of `name`, rebound in every library module that holds it, each
    recorded by the name of the calling function."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("wondertoric") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_simplicial_and_smooth_from_one_hermite_form_per_cone(monkeypatch):
    calls = _count_calls(monkeypatch, "hermite_form", hermite_form)
    det_calls = _count_calls(monkeypatch, "determinant", determinant)
    smith_calls = _count_calls(monkeypatch, "smith_normal_form", smith_normal_form)
    # complete and simplicial, but the cone on (1, 0), (1, 3) has index 3:
    # the ridge walk stops at the determinant of cone 0, that cone, and the
    # per-cone route takes a determinant of each full-dimensional cone
    fan = Fan.make(
        2, ((1, 0), (1, 3), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    report = validate(fan)
    assert report.simplicial and report.complete and not report.smooth
    with pytest.raises(ValidationError, match="require a smooth fan"):
        betti_numbers(fan)
    assert det_calls == ["ridge_walk"] + ["kinds"] * len(fan.maximal_cones)
    assert calls == []
    # the same cones with cone 0 smooth: the walk meets the index-3 cones as
    # a pivot of 3, after the one determinant and Hermite form of its start
    det_calls.clear()
    later = Fan.make(
        2, ((1, 0), (0, -1), (-1, 0), (1, 3)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    assert validate(later) == FanReport(True, False, True, (1, 4, 4))
    assert det_calls == ["ridge_walk"] + ["kinds"] * len(later.maximal_cones)
    assert calls == ["ridge_walk"]
    calls.clear()
    # three rays in one plane cone: neither simplicial nor smooth, which the
    # first cone, read off its one Hermite form, already shows
    det_calls.clear()
    flat = Fan.make(
        2, ((1, 0), (1, 1), (0, 1), (-1, -1)), ((0, 1, 2), (0, 3), (2, 3))
    )
    assert validate(flat) == FanReport(False, False, False, None)
    with pytest.raises(ValidationError, match="not simplicial"):
        f_vector(flat)
    with pytest.raises(ValidationError, match="require a smooth fan"):
        betti_numbers(flat)
    assert len(calls) == 1
    assert det_calls == []
    assert smith_calls == []


def test_kinds_of_a_smooth_complete_fan_make_one_determinant_and_one_hermite_form(
    monkeypatch,
):
    # the ridge walk's start, cone 0: its determinant and the Hermite form
    # of [R | I] that holds its inverse; every other cone is one pivot
    calls = _count_calls(monkeypatch, "hermite_form", hermite_form)
    det_calls = _count_calls(monkeypatch, "determinant", determinant)
    fan = weyl_fan_A(5)
    assert fan.kinds == (True, True, True)
    assert len(fan.maximal_cones) == 120
    assert det_calls == calls == ["ridge_walk"]
    assert f_vector(fan) == (1, 30, 150, 240, 120)
    assert fan.is_flag and betti_numbers(fan) == (1, 26, 66, 26, 1)
    assert det_calls == calls == ["ridge_walk"]
    assert "faces" not in fan.__dict__


def test_validation_split_search_and_subfan_make_no_smith_form(monkeypatch):
    smith_calls = _count_calls(monkeypatch, "smith_normal_form", smith_normal_form)
    lattice._smith_of.cache_clear()
    fan = weyl_fan_A(4)
    assert validate(fan).smooth
    outer = Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])
    rows = extend_equal_sign_basis(fan, outer, ((0, 1, 0),))
    assert rows == ((0, 1, 0), (1, -1, 0))
    sub = subfan(fan, Sublattice.from_rows(3, [(1, -1, 0)]))
    assert betti_numbers(sub.fan) == (1, 4, 1)
    assert smith_calls == []


def test_poset_closure_makes_smith_forms_only_on_split_verdict_misses(monkeypatch):
    # the solver reads torsion off Hermite forms: a Smith form is built only
    # when `is_split_summand` meets a lattice its cache has not seen
    main = load_arrangement(fixture_path("example_main.arrangement.json"))
    # the first two-row seeded solver case with four or more components,
    # its rows' layers taken one row at a time
    n, rows, values = next(
        case for case in _solver_cases() if len(case[1]) == 2 and len(_solve(*case)) >= 4
    )
    torsion = [c for row, v in zip(rows, values) for c in _solve(n, (row,), (v,))]
    smith_calls = _count_calls(monkeypatch, "smith_normal_form", smith_normal_form)
    for torus_dim, layers in ((main.torus_dim, main.layers), (n, torsion)):
        _plan.cache_clear()
        lattice._smith_of.cache_clear()
        smith_calls.clear()
        poset = poset_of_layers(torus_dim, layers)
        assert len(poset.elements) > len(layers) + 1
        assert set(smith_calls) <= {"_smith_of"}, smith_calls
        assert len(smith_calls) <= lattice._smith_of.cache_info().misses


def _reference_kinds(fan):
    """(simplicial, smooth, complete) as computed before one cone walk
    answered all three: a Smith-form pass, then a ridge count, a neighbour
    map and a depth-first walk of the dual graph from cone 0."""
    smooth = True
    for cone in fan.maximal_cones:
        snf = smith_normal_form([fan.rays[i] for i in cone])
        if snf.rank != len(cone):
            return False, False, False
        smooth = smooth and all(d == 1 for d in snf.diagonal)
    n = fan.ambient_dim
    if n == 0:
        return True, smooth, fan.maximal_cones == ((),)
    if any(len(c) != n for c in fan.maximal_cones):
        return True, smooth, False
    ridges = Counter()
    for cone in fan.maximal_cones:
        for ridge in combinations(cone, n - 1):
            ridges[ridge] += 1
    if any(count != 2 for count in ridges.values()):
        return True, smooth, False
    neighbors = {}
    for idx, cone in enumerate(fan.maximal_cones):
        for ridge in combinations(cone, n - 1):
            neighbors.setdefault(ridge, []).append(idx)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for ridge in combinations(fan.maximal_cones[cur], n - 1):
            for other in neighbors[ridge]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return True, smooth, len(seen) == len(fan.maximal_cones)


def _minimal_nonfaces_by_definition(fan):
    """Ray sets of size 2 to n + 1 spanning no cone while each one-smaller
    subset spans one, with the faces read off the maximal cones.  Beyond
    pairs only sets whose pairs all span cones are tried, as those subsets
    force."""
    faces = {
        face
        for cone in fan.maximal_cones
        for k in range(len(cone) + 1)
        for face in combinations(cone, k)
    }

    def minimal(rays):
        return rays not in faces and all(
            rays[:k] + rays[k + 1 :] in faces for k in range(len(rays))
        )

    pairs = list(combinations(range(len(fan.rays)), 2))
    out = [p for p in pairs if minimal(p)]
    cliques = [p for p in pairs if p in faces]
    for _ in range(3, fan.ambient_dim + 2):
        cliques = [
            c + (r,)
            for c in cliques
            for r in range(c[-1] + 1, len(fan.rays))
            if all((x, r) in faces for x in c)
        ]
        out.extend(c for c in cliques if minimal(c))
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def _structure_cases():
    """(label, fan) pairs: complete and incomplete, pure and not, simplicial
    and not."""
    for name in ("good_fan_3d.json", "p1x4_fan.json", "weyl_a3_fan.json"):
        yield name, load_fan(fixture_path(name))
    for n in range(1, 7):
        yield f"weyl A{n}", weyl_fan_A(n)
    for n in range(1, 5):
        yield f"orthant {n}", orthant_fan(n)
    for label, fan, _, _ in random_cases(60):
        yield label, fan
    orthant_rays = ((1, 0), (-1, 0), (0, 1), (0, -1))
    yield "stray 1-cone", Fan.make(
        2, orthant_rays + ((1, 1),), ((0, 2), (0, 3), (1, 2), (1, 3), (4,))
    )
    # the ridge through (1, 0) lies on three cones
    yield "ridge on three cones", Fan.make(
        2, ((1, 0), (0, 1), (0, -1), (1, 1)), ((0, 1), (0, 2), (0, 3))
    )
    # every ridge on two cones, but the two copies of P^2 share no ridge
    yield "two P^2", Fan.make(
        2,
        ((1, 0), (0, 1), (-1, -1), (2, 1), (1, 2), (-3, -1)),
        ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
    )
    yield "flat", Fan.make(
        2, ((1, 0), (1, 1), (0, 1), (-1, -1)), ((0, 1, 2), (0, 3), (2, 3))
    )
    yield "index 3", Fan.make(
        2, ((1, 0), (1, 3), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    # the minimal non-face (0, 1, 3) is grown past ray 2, which is not a
    # neighbour of rays 0 and 1
    yield "hollow triangle and a ray", Fan.make(
        3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), ((0, 1), (0, 3), (1, 3), (2,))
    )
    # the ray (1, 0) lies on four cones, of two fans of P^2 and P^1 x P^1
    # glued along it
    yield "ridge on four cones", Fan.make(
        2,
        ((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)),
        ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (0, 5)),
    )
    yield "point", Fan.make(0, (), ((),))
    yield "point without its cone", Fan.make(0, (), ())


def test_kinds_and_minimal_nonfaces_match_references():
    for label, fan in _structure_cases():
        kinds = fan.kinds
        assert kinds == _reference_kinds(fan), label
        if kinds[0]:
            assert fan.minimal_nonfaces == _minimal_nonfaces_by_definition(
                fan
            ), label
        else:
            with pytest.raises(ValidationError, match="not simplicial"):
                fan.minimal_nonfaces


def _negatives_per_cone(fan):
    """The Betti numbers by a second route (Fulton, Introduction to Toric
    Varieties, 5.2): the generic vector v = (1, 37, 37^2, ...) written in
    each maximal cone's ray basis over Q, the cones counted by the number
    of negative coordinates.  v lies on no cone's wall."""
    n = fan.ambient_dim
    counts = Counter()
    for cone in fan.maximal_cones:
        # rows [r_1 ... r_n | v] of the system sum_i c_i r_i = v, reduced
        rows = [
            [Fraction(fan.rays[i][j]) for i in cone] + [Fraction(37**j)]
            for j in range(n)
        ]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(n):
                if r != col and rows[r][col]:
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        coords = [rows[i][n] / rows[i][i] for i in range(n)]
        assert all(coords), (cone, coords)
        counts[sum(c < 0 for c in coords)] += 1
    return tuple(counts[k] for k in range(n + 1))


def test_betti_numbers_match_the_generic_vector_count():
    checked = 0
    for label, fan in _structure_cases():
        if not fan.ambient_dim or not all(fan.kinds):
            continue
        counts = _negatives_per_cone(fan)
        # v lies in exactly one maximal cone
        assert counts[0] == 1, (label, counts)
        assert counts == betti_numbers(fan), label
        checked += 1
    # the fixture fans, Weyl A2..A6, the orthant fans and the smooth
    # complete arrgen fans
    assert checked >= 70, checked


# twelve rays round the origin twice, each cone {i, i + 1 mod 12} smooth
# and every ridge on two cones on opposite sides
WINDING_RAYS = (
    (1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2),
    (-1, -1), (-2, -3), (1, 1), (0, 1), (-1, -3), (0, -1),
)
WINDING_CONES = tuple((i, (i + 1) % 12) for i in range(12))


def test_fans_that_wind_twice_or_fold_back_are_not_complete():
    fan = Fan.make(2, WINDING_RAYS, WINDING_CONES)
    # the generic vector lies in two cones: the fan covers the plane twice
    assert _negatives_per_cone(fan) == (2, 8, 2)
    assert fan.ridge_walk == (False, (2, 8, 2))
    assert validate(fan) == FanReport(True, True, False, (1, 12, 12))
    with pytest.raises(ValidationError, match="require a complete fan"):
        betti_numbers(fan)
    # smooth cones at 0, 90, 180, back to 135, then on to 270 degrees: the
    # cones on the ridges (-1, 0) and (-1, 1) lie on one side of them, so
    # the angles from 135 to 180 are covered three times, although the
    # generic vector lies in one cone
    folded = Fan.make(
        2, ((1, 0), (0, 1), (-1, 0), (-1, 1), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    )
    assert _negatives_per_cone(folded) == (1, 3, 1)
    assert folded.ridge_walk == (False, (1, 3, 1))
    assert validate(folded) == FanReport(True, True, False, (1, 5, 5))
    with pytest.raises(ValidationError, match="require a complete fan"):
        betti_numbers(folded)


def test_betti_numbers_with_the_leading_direction_of_v_on_a_wall():
    # the walk's v = t e_1 + t^2 e_2 + ... leads with e_1, which here is a
    # ray and so lies on a wall; in orthant_fan(3) e_1 and e_2 span the
    # ridge z = 0, and only t^3 e_3 takes v off it
    hirzebruch = Fan.make(
        2, ((1, 0), (0, 1), (-1, 3), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    for fan in (hirzebruch, orthant_fan(2), orthant_fan(3), weyl_fan_A(4), P2):
        assert (1,) + (0,) * (fan.ambient_dim - 1) in fan.rays
        assert fan.ridge_walk.complete
        assert betti_numbers(fan) == _negatives_per_cone(fan), fan


def _face_route(fan):
    """The f-vector counted over every face of the maximal cones, and the
    Betti numbers from it, b_2k = sum over i >= k of (-1)^(i-k) C(i, k)
    f_(n-i) (Fulton, Introduction to Toric Varieties, 5.2), as the library
    computed both before its ridge walk."""
    n = fan.ambient_dim
    counts = Counter(
        map(
            len,
            {
                face
                for cone in fan.maximal_cones
                for k in range(len(cone) + 1)
                for face in combinations(cone, k)
            },
        )
    )
    f = tuple(counts[k] for k in range(n + 1))
    betti = tuple(
        sum((-1) ** (i - k) * comb(i, k) * f[n - i] for i in range(k, n + 1))
        for k in range(n + 1)
    )
    return f, betti


def test_f_vector_and_betti_numbers_match_the_face_route():
    checked = 0
    cases = [*_structure_cases(), ("weyl A7", weyl_fan_A(7))]
    for label, fan in cases:
        if not all(fan.kinds):
            continue
        f, betti = _face_route(fan)
        assert f_vector(fan) == f, label
        assert betti_numbers(fan) == betti, label
        if fan.ambient_dim:
            assert "faces" not in fan.__dict__, label
        checked += 1
    assert checked >= 75, checked


def test_model_ranks_build_no_face_set():
    _, building = minimal_equal_coordinate_building(5)
    fan = weyl_fan_A(5)
    bases = EqualSignBases(fan)
    total = poincare(building, fan, bases).total
    assert rank_via_blowup_recursion(building, fan, bases) == total == (1, 42, 127, 42, 1)
    assert "is_flag" in fan.__dict__ and "faces" not in fan.__dict__


def dot(u, v):
    """The pairing of two integer vectors, one ray at a time, as the library
    wrote it before `pairings`; the length check is zip's."""
    return sum(x * y for x, y in zip(u, v, strict=True))


def test_pairings_and_moved_rays_match_a_per_ray_dot():
    rng = random.Random(20261020)
    masks = Counter()
    for label, fan in _structure_cases():
        n, rays = fan.ambient_dim, fan.rays
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        chars = [(0,) * n, *units]
        chars += [tuple(sign * x for x in ray) for ray in rays for sign in (1, -1)]
        chars += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(10)]
        for chi in chars:
            assert pairings(fan, chi) == tuple(dot(chi, r) for r in rays), (label, chi)
        row_sets = [()] + [
            tuple(rng.choice(chars) for _ in range(size))
            for size in (1, 2, 3)
            for _ in range(8)
        ]
        for rows in row_sets:
            expected = sum(
                1 << i for i, r in enumerate(rays) if any(dot(row, r) for row in rows)
            )
            assert moved_rays(fan, rows) == expected, (label, rows)
            full = (1 << len(rays)) - 1
            masks["none" if not expected else "all" if expected == full else "some"] += 1
        too_short = [(1,) * (n - 1)] if n else []
        for wrong in [(0,) * (n + 1), (1,) * (n + 2), *too_short]:
            with pytest.raises(ValueError):
                pairings(fan, wrong)
            with pytest.raises(ValueError):
                moved_rays(fan, [(0,) * n, wrong])
    assert masks["none"] and masks["all"] and masks["some"], masks


def _one_sign_per_cone_by_cones(fan, values):
    """The equal-sign test as made before the ray masks: a pass over every
    maximal cone for rays with values of both signs."""
    for cone in fan.maximal_cones:
        pos = neg = False
        for i in cone:
            if values[i] > 0:
                pos = True
            elif values[i] < 0:
                neg = True
        if pos and neg:
            return False
    return True


def test_equal_sign_test_matches_the_cone_walk():
    rng = random.Random(20261019)
    outcomes = Counter()
    for label, fan in _structure_cases():
        n = fan.ambient_dim
        chars = [(0,) * n]
        chars += [tuple(sign * x for x in ray) for ray in fan.rays for sign in (1, -1)]
        chars += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
        for chi in chars:
            expected = _one_sign_per_cone_by_cones(fan, [dot(chi, r) for r in fan.rays])
            assert equal_sign_holds(fan, chi) == expected, (label, chi)
            outcomes[expected] += 1
        if not n:
            continue
        # the search level reads the same test: compare it on a random basis
        basis = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        ray_values = [[dot(row, r) for r in fan.rays] for row in basis]
        expected = tuple(
            (c, tuple(sum(x * row[j] for x, row in zip(c, basis)) for j in range(n)))
            for c in fans._coeff_vectors(n, 1)
            if lattice.vector_gcd(c) == 1
            and _one_sign_per_cone_by_cones(
                fan,
                [sum(x * v[j] for x, v in zip(c, ray_values)) for j in range(len(fan.rays))],
            )
        )
        assert fans._equal_sign_level(fan, basis, 1) == expected, label
    assert outcomes[True] and outcomes[False], outcomes


def test_equal_sign_levels_match_a_per_ray_reference():
    """Each level's values are one combination of the rows' pairings, and
    its characters one of the rows: compare both with the character formed
    entry by entry and paired with each ray by `dot`, on bases of every
    size up to the dimension, at heights 1 and 2."""
    rng = random.Random(20261021)
    kept = Counter()
    for label, fan in _structure_cases():
        n = fan.ambient_dim
        for s in range(1, n + 1):
            basis = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(s))
            for height in (1, 2) if s <= 3 else (1,):
                expected = []
                for c in fans._coeff_vectors(s, height):
                    if lattice.vector_gcd(c) != 1:
                        continue
                    chi = tuple(sum(x * row[j] for x, row in zip(c, basis)) for j in range(n))
                    values = [dot(chi, r) for r in fan.rays]
                    if _one_sign_per_cone_by_cones(fan, values):
                        expected.append((c, chi))
                got = fans._equal_sign_level(fan, basis, height)
                assert got == tuple(expected), (label, basis, height)
                kept[bool(got)] += 1
    assert kept[True] and kept[False], kept


def _subfan_by_cones(fan, gamma):
    """`subfan` as computed before the ray masks: each maximal cone's rays
    in the annihilator of `gamma`, relabelled, kept when they span its
    full dimension."""
    kernel = gamma.kernel_lattice()
    m = kernel.rank
    flagged = [
        i
        for i, ray in enumerate(fan.rays)
        if all(dot(g, ray) == 0 for g in gamma.basis)
    ]
    reindex = {old: new for new, old in enumerate(flagged)}
    restricted = (
        tuple(reindex[i] for i in cone if i in reindex) for cone in fan.maximal_cones
    )
    rays = [kernel.solve(fan.rays[i]) for i in flagged]
    sub = Fan.make(m, rays, [c for c in restricted if len(c) == m])
    return Subfan(fan=sub, parent_rays=tuple(flagged))


def _resolved_lattices():
    """(fan, resolver, lattices): every element of the arrgen posets and of
    the bundled examples' posets, and the lattice of every admissible
    support of the equal-coordinate models for n <= 6."""
    for _, fan, n, layers in random_cases(60):
        yield fan, EqualSignBases(fan), poset_of_layers(n, layers).elements
    for arr_name, fan_name in EXAMPLES.values():
        building, bases = _model_inputs(fixture_path(arr_name), fixture_path(fan_name))
        yield bases.fan, bases, building.poset.elements
    for n in range(3, 7):
        _, building = minimal_equal_coordinate_building(n)
        supports = {f.support for f in enumerate_admissible(building)}
        fan = weyl_fan_A(n)
        yield fan, EqualSignBases(fan), [
            building.poset.elements[building.components(s)[0]] for s in supports
        ]


def test_subfan_matches_the_cone_walk():
    smooth_complete = {fan for _, fan in _structure_cases() if all(fan.kinds)}
    compared = Counter()
    for fan, bases, elements in _resolved_lattices():
        assert fan in smooth_complete
        for gamma in {element.gamma for element in elements}:
            if gamma.is_split_summand() and bases.find(gamma) is not None:
                assert subfan(fan, gamma) == _subfan_by_cones(fan, gamma), gamma
                compared[fan.ambient_dim, len(fan.rays)] += 1
    # every Weyl fan A3..A6, the orthant fans 2 and 3 and the fixture fans
    assert len(compared) >= 7 and sum(compared.values()) > 200, compared


def test_subfan_betti_matches_the_restricted_fan():
    compared = 0
    for fan, bases, elements in _resolved_lattices():
        # so the memo takes the clique route; the other has its own test
        assert fan.is_flag
        for gamma in {element.gamma for element in elements}:
            betti = betti_numbers(subfan(fan, gamma).fan)
            assert bases.subfan_betti(gamma) == betti, gamma
            compared += 1
    assert compared > 200, compared


def test_flag_verdict_matches_the_minimal_nonfaces():
    verdicts = Counter()
    for label, fan in _structure_cases():
        if not fan.kinds[0]:
            continue
        if not fan.maximal_cones:
            # without the zero cone the one minimal nonface is the empty
            # set, which `minimal_nonfaces` does not list
            assert not fan.is_flag, label
            continue
        # the test-side nonfaces: on a flag fan `minimal_nonfaces` reads
        # the neighbour masks that `is_flag` reads too
        pairs = all(len(nonface) == 2 for nonface in _minimal_nonfaces_by_definition(fan))
        assert fan.is_flag == pairs, label
        verdicts[pairs] += 1
    assert verdicts[True] > 70 and verdicts[False] >= 2, verdicts


def _counting_restrictions(monkeypatch) -> list:
    """The lattices `fans.subfan` is called with from now on."""
    restricted = []
    restrict = fans.subfan

    def counted(fan, gamma, *moved):
        restricted.append(gamma)
        return restrict(fan, gamma, *moved)

    monkeypatch.setattr(fans, "subfan", counted)
    return restricted


def test_subfan_betti_of_fans_that_are_not_flag_restrict_them(monkeypatch):
    restricted = _counting_restrictions(monkeypatch)
    # P^2 x P^1: its subfan along the P^1 characters is P^2
    p2_line = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
        [cone + (line,) for cone in P2.maximal_cones for line in (3, 4)],
    )
    assert not P2.is_flag and not p2_line.is_flag
    assert P2.minimal_nonfaces == ((0, 1, 2),)
    # no character of P^2 is equal-sign
    for fan, rows, betti in (
        (P2, [], (1, 1, 1)),
        (p2_line, [], (1, 2, 2, 1)),
        (p2_line, [(0, 0, 1)], (1, 1, 1)),
    ):
        gamma = Sublattice.from_rows(fan.ambient_dim, rows)
        assert EqualSignBases(fan).subfan_betti(gamma) == betti, (fan, rows)
        assert restricted == [gamma]
        assert betti_numbers(subfan(fan, gamma).fan) == betti, (fan, rows)
        restricted.clear()


def test_model_ranks_on_a_flag_fan_restrict_no_fan(monkeypatch):
    restricted = _counting_restrictions(monkeypatch)
    _, building = minimal_equal_coordinate_building(4)
    fan = weyl_fan_A(4)
    assert fan.is_flag
    bases = EqualSignBases(fan)
    total = poincare(building, fan, bases).total
    assert total == rank_via_blowup_recursion(building, fan, bases) == (1, 16, 16, 1)
    assert bases._betti and restricted == []


def test_constructor_rejects_bad_rays():
    # `validate` raises nothing of its own: these fans cannot be built
    bad = (
        ("ray 0 = (2, 0) is not primitive (gcd 2)", [(2, 0), (0, 1)], [(0, 1)]),
        ("ray 1 = (0, 0) is not primitive (gcd 0)", [(1, 0), (0, 0)], [(0, 1)]),
        ("duplicate rays", [(1, 0), (1, 0)], [(0, 1)]),
        ("rays [2] are not used by any maximal cone", [(1, 0), (0, 1), (-1, 0)], [(0, 1)]),
        # P^2 plus a ray in no cone
        ("rays [3] are not used by any maximal cone", P2.rays + ((1, 1),), P2.maximal_cones),
    )
    for message, rays, cones in bad:
        with pytest.raises(ValidationError, match=re.escape(message)):
            Fan.make(2, rays, cones)
        with pytest.raises(ValidationError, match=re.escape(message)):
            Fan(2, tuple(rays), tuple(cones))


def test_validate_rejects_bad_rays():
    with pytest.raises(ValidationError, match="not primitive"):
        validate(Fan.make(2, [(2, 0), (0, 1)], [(0, 1)]))
    with pytest.raises(ValidationError, match="duplicate"):
        validate(Fan.make(2, [(1, 0), (1, 0)], [(0, 1)]))
    with pytest.raises(ValidationError, match="not used"):
        validate(Fan.make(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1)]))
    with pytest.raises(ValidationError, match="out of range"):
        Fan.make(2, [(1, 0)], [(0, 3)])


def test_all_cones_counts():
    cones = P2.faces
    assert () in cones
    assert len(cones) == 1 + 3 + 3
    assert f_vector(P2) == (1, 3, 3)


def test_big_fan_report(big_fan):
    report = validate(big_fan)
    assert report.smooth and report.complete
    assert report.f_vector == (1, 72, 210, 140)
    assert betti_numbers(big_fan) == (1, 69, 69, 1)


def test_pairing_example(big_fan):
    # ray indices are 1-based in human output, 0-based here
    cone = (5, 52, 68)
    assert cone in big_fan.maximal_cones
    assert big_fan.rays[5] == (0, 1, 0)
    assert big_fan.rays[52] == (1, 0, 0)
    assert big_fan.rays[68] == (2, 3, 1)
    assert tuple(dot((1, 0, 2), big_fan.rays[i]) for i in cone) == (0, 1, 4)


def test_equal_sign_examples(big_fan):
    for chi in [(1, 0, 2), (1, 1, -1), (1, 2, 0), (0, 1, -1)]:
        assert equal_sign_holds(big_fan, chi)
    # (1,0) separates two maximal cones of P^2
    assert not equal_sign_holds(P2, (1, 0))
    assert equal_sign_holds(P2, (0, 0))


def test_equal_sign_basis_search(big_fan):
    lat = Sublattice.from_rows(3, [(1, 0, 2), (0, 1, -1)])
    assert equal_sign_basis(big_fan, lat) == ((1, 0, 2), (0, 1, -1))
    rows = equal_sign_basis(big_fan, Sublattice.full(3))
    assert rows is not None
    assert Sublattice.from_rows(3, rows) == Sublattice.full(3)
    assert all(equal_sign_holds(big_fan, chi) for chi in rows)
    # no equal-sign basis exists for <(1,0)> on P^2
    assert equal_sign_basis(P2, Sublattice.from_rows(2, [(1, 0)])) is None


def test_extend_equal_sign_basis(big_fan):
    lat = Sublattice.from_rows(3, [(1, 1, -1)])
    assert extend_equal_sign_basis(big_fan, lat) == ((1, 1, -1),)
    outer = Sublattice.from_rows(3, [(1, 0, 2), (0, 1, -1)])
    rows = extend_equal_sign_basis(big_fan, outer, ((1, 0, 2),))
    assert rows is not None and rows[0] == (1, 0, 2)
    assert Sublattice.from_rows(3, rows) == outer
    assert all(equal_sign_holds(big_fan, chi) for chi in rows)


def test_equal_sign_bases_resolve_once_through_module_globals(big_fan, monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(fans, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fans, name, wrapper)

    for name in ("equal_sign_basis", "extend_equal_sign_basis", "subfan"):
        counting(name)
    bases = EqualSignBases(big_fan, [[(1, 0, 2)]])
    surface = Sublattice.from_rows(3, [(1, 0, 2)])
    curve = Sublattice.from_rows(3, [(1, 0, 2), (0, 1, -1)])
    for _ in range(2):
        assert bases.rows(surface) == ((1, 0, 2),)
        assert Sublattice.from_rows(3, bases.rows(curve)) == curve
        assert bases.subfan(curve).parent_rays == (6, 14)
        chars = bases.extension(curve, surface)
        assert Sublattice.from_rows(3, ((1, 0, 2),) + chars) == curve
    # the supplied basis is never searched for; everything else once
    assert calls == {"equal_sign_basis": 1, "extend_equal_sign_basis": 1, "subfan": 1}


def test_equal_sign_bases_verify_supplied_rows_and_bound(big_fan):
    with pytest.raises(ValidationError, match=r"\(1, -1, 3\) violates the equal-sign"):
        EqualSignBases(big_fan, [[(1, 0, 2), (1, -1, 3)]])
    with pytest.raises(ValidationError, match="not a basis"):
        EqualSignBases(big_fan, [[(1, 0, 2), (2, 0, 4)]])
    with pytest.raises(ValidationError, match="bound 0 is below 1"):
        EqualSignBases(big_fan, bound=0)
    assert EqualSignBases(P2, bound=1).find(Sublattice.from_rows(2, [(1, 0)])) is None


def test_subfan_line_in_big_fan(big_fan):
    sub = EqualSignBases(big_fan).subfan(
        Sublattice.from_rows(3, [(1, 0, 2), (0, 1, -1)])
    )
    assert sub.parent_rays == (6, 14)
    assert sub.fan.ambient_dim == 1
    assert betti_numbers(sub.fan) == (1, 1)


def test_subfan_degenerate_cases(big_fan):
    full = EqualSignBases(big_fan).subfan(Sublattice.full(3))
    assert full.fan.ambient_dim == 0
    assert full.fan.maximal_cones == ((),)
    assert betti_numbers(full.fan) == (1,)
    zero = EqualSignBases(big_fan).subfan(Sublattice.zero(3))
    assert zero.fan.rays == big_fan.rays
    assert set(zero.fan.maximal_cones) == set(big_fan.maximal_cones)
    assert zero.parent_rays == tuple(range(72))


def test_subfan_requires_equal_sign():
    # P^2 takes the restriction route and the orthant fan the clique route
    for fan, rows in ((P2, [(1, 0)]), (orthant_fan(2), [(1, 1)])):
        gamma = Sublattice.from_rows(2, rows)
        with pytest.raises(ValidationError, match="equal-sign"):
            EqualSignBases(fan).subfan(gamma)
        with pytest.raises(ValidationError, match="equal-sign"):
            EqualSignBases(fan).subfan_betti(gamma)


def test_subfan_rejects_nonsplit(big_fan):
    gamma = Sublattice.from_rows(3, [(2, 0, 0)])
    with pytest.raises(ValidationError, match="split"):
        EqualSignBases(big_fan).subfan(gamma)
    with pytest.raises(ValidationError, match="split"):
        EqualSignBases(big_fan).subfan_betti(gamma)


def test_subfan_rejects_a_lattice_of_another_rank(big_fan):
    gamma = Sublattice.from_rows(2, [(1, 0)])
    with pytest.raises(ValidationError, match="wrong ambient rank"):
        EqualSignBases(big_fan).subfan(gamma)
    with pytest.raises(ValidationError, match="wrong ambient rank"):
        EqualSignBases(big_fan).subfan_betti(gamma)


def test_subfan_of_orthant_fan():
    fan = orthant_fan(3)
    sub = EqualSignBases(fan).subfan(
        Sublattice.from_rows(3, [(0, 1, 0), (0, 0, 1)])
    )
    assert sub.fan.ambient_dim == 1
    assert betti_numbers(sub.fan) == (1, 1)
    assert sub.parent_rays == (0, 1)


def test_weyl_fans():
    assert betti_numbers(weyl_fan_A(1)) == (1,)
    assert betti_numbers(weyl_fan_A(2)) == (1, 1)
    assert betti_numbers(weyl_fan_A(3)) == (1, 4, 1)
    fan4 = weyl_fan_A(4)
    assert len(fan4.rays) == 14
    assert len(fan4.maximal_cones) == 24
    report = validate(fan4)
    assert report.smooth and report.complete
    assert betti_numbers(fan4) == (1, 11, 11, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5))
def test_weyl_fan_betti_properties(n):
    betti = betti_numbers(weyl_fan_A(n))
    assert betti == betti[::-1]
    assert sum(betti) == len(weyl_fan_A(n).maximal_cones) if n > 1 else True
