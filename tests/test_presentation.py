"""Presentation generators, monomial bases, lifted subfan bases."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from arrgen import random_cases
from hilbert import presentation_hilbert_function
from smith import smith_basis_in_degree, split_rank
from wondertoric import fans, presentation
from wondertoric.cli import EXAMPLES, _model_inputs, reproduction_text
from wondertoric.errors import MathAssertionError, ValidationError
from wondertoric.fans import (
    EqualSignBases,
    Fan,
    betti_numbers,
    f_vector,
    orthant_fan,
    weyl_fan_A,
)
from wondertoric.files import fixture_path, load_arrangement, load_fan
from wondertoric.layers import poset_of_layers
from wondertoric.lattice import hermite_form, identity_matrix, smith_normal_form
from wondertoric.models import (
    build_building_set,
    enumerate_admissible,
    poincare,
    support_lattice,
)
from wondertoric.presentation import (
    cohomology_basis_monomials,
    character_linear_forms,
    emit_presentation,
    _face_monomials,
    _relation_rows,
    mono_mul,
    mono_powers,
    monomial_basis,
    poly_add,
    poly_freeze,
    poly_mul,
    render_monomial,
    render_terms,
    subfan_basis_in_parent_labels,
)
from wondertoric.series import qpoly, toric_poincare_series
from wondertoric.typea import minimal_equal_coordinate_building

P2 = Fan.make(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))


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
def main_presentation(main_building, big_fan, main_arr):
    return emit_presentation(
        main_building, big_fan, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )


def poly_var(v, coeff=1):
    return {(v,): coeff} if coeff else {}


def test_poly_arithmetic_and_render():
    c1 = poly_var(("C", 0))
    t1 = poly_var(("T", 0), -1)
    prod = poly_mul(poly_add(c1, t1), poly_add(c1, t1))
    # (C1 - T1)^2 = C1^2 - 2 C1 T1 + T1^2
    assert render_terms(poly_freeze(prod)) == "C1^2 - 2*C1*T1 + T1^2"
    assert mono_mul((("C", 0),), (("C", 0), ("C", 0))) == (("C", 0),) * 3
    assert render_terms(()) == "0"


def test_monomials_are_sorted_variable_tuples():
    t4, t5 = ("T", 3), ("T", 4)
    assert mono_mul((t5,), (("C", 2), t4)) == (("C", 2), t4, t5)
    assert mono_powers((("C", 2), t4, t4, t5)) == ((("C", 2), 1), (t4, 2), (t5, 1))
    assert render_monomial((("C", 2), t4, t4, t5)) == "C3*T4^2*T5"
    # squares sort before mixed products here, but after them as
    # (variable, exponent) lists, the order of the JSON output
    assert (t4, t4) < (t4, t5)
    assert mono_powers((t4, t4)) > mono_powers((t4, t5))


@pytest.mark.parametrize(
    "fan",
    [
        load_fan(fixture_path(name))
        for name in ("good_fan_3d.json", "p1x4_fan.json", "weyl_a3_fan.json")
    ]
    + [weyl_fan_A(n) for n in (2, 3, 4)]
    + [orthant_fan(n) for n in (1, 2, 3)],
)
def test_face_monomial_counts_match_f_vector(fan):
    # a degree-d monomial on a k-dimensional face puts d - k further factors
    # on its k rays
    f = f_vector(fan)
    for d in range(1, fan.ambient_dim + 2):
        expected = sum(f[k] * comb(d - 1, k - 1) for k in range(1, len(f)))
        assert len(_face_monomials(fan, d)) == expected


def test_minimal_nonfaces_projective_plane():
    assert P2.minimal_nonfaces == ((0, 1, 2),)


def test_minimal_nonfaces_product_of_lines():
    fan = orthant_fan(2)
    # rays ordered (1,0),(-1,0),(0,1),(0,-1): opposite pairs never span a cone
    assert fan.minimal_nonfaces == ((0, 1), (2, 3))


def test_linear_forms_projective_plane():
    forms = character_linear_forms(P2)
    assert render_terms(forms[0]) == "C1 - C3"
    assert render_terms(forms[1]) == "C2 - C3"


def test_cohomology_basis_projective_plane():
    basis = cohomology_basis_monomials(P2)
    assert basis == (((),), ((0,),), ((0, 0),))


def test_cohomology_basis_product_of_lines():
    basis = cohomology_basis_monomials(orthant_fan(2))
    assert [len(level) for level in basis] == [1, 2, 1]
    assert basis[1] == ((0,), (2,))


def _greedy_basis_monomials(fan):
    """The earlier greedy choice, kept as a reference: in each degree, take
    every monomial in sorted order whose indicator keeps the relation rows
    and the chosen indicators split, and never go back."""
    out = []
    for degree, rank_needed in enumerate(betti_numbers(fan)):
        if degree == 0:
            out.append(((),))
            continue
        monomials = _face_monomials(fan, degree)
        cols = {m: i for i, m in enumerate(monomials)}
        relations = _relation_rows(fan, degree, cols)
        base_rank = smith_normal_form(tuple(relations)).rank if relations else 0
        assert len(cols) - base_rank == rank_needed
        chosen, chosen_rows = [], []
        for mono in monomials:
            if len(chosen) == rank_needed:
                break
            indicator = tuple(1 if i == cols[mono] else 0 for i in range(len(cols)))
            stack = relations + chosen_rows + [indicator]
            if split_rank(stack) == base_rank + len(chosen) + 1:
                chosen.append(mono)
                chosen_rows.append(indicator)
        if len(chosen) != rank_needed:
            raise MathAssertionError(f"no split monomial basis found in degree {degree}")
        out.append(tuple(chosen))
    return tuple(out)


def _assert_split_level(fan, degree, level):
    # by Hermite forms, not the Smith forms of the library: the relation rows
    # leave a quotient of rank len(level), and with the level's indicators
    # they span all of Z^monomials, so the level's classes are a Z-basis
    monomials = _face_monomials(fan, degree)
    cols = {m: i for i, m in enumerate(monomials)}
    relations = _relation_rows(fan, degree, cols)
    assert len(level) == betti_numbers(fan)[degree]
    assert len(hermite_form(relations, len(cols))) == len(cols) - len(level)
    indicators = [tuple(int(i == cols[m]) for i in range(len(cols))) for m in level]
    assert hermite_form(relations + indicators) == identity_matrix(len(cols))


def _ray_permuted(fan, rng):
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    cones = [[new_index[i] for i in cone] for cone in fan.maximal_cones]
    return Fan.make(fan.ambient_dim, [fan.rays[i] for i in order], cones)


def _model_subfans(building, bases):
    supports = {f.support for f in enumerate_admissible(building)} - {()}
    return [bases.subfan(support_lattice(building, s)).fan for s in sorted(supports)]


def test_cohomology_basis_matches_the_greedy_reference():
    rng = random.Random(20261018)
    fans = [P2, load_fan(fixture_path("weyl_a3_fan.json"))]
    fans += [weyl_fan_A(n) for n in (1, 2, 3, 4)]
    fans += [orthant_fan(n) for n in (1, 2, 3)]
    fans += [_ray_permuted(orthant_fan(3), rng) for _ in range(20)]
    for example in sorted(EXAMPLES):
        fans += _model_subfans(*_example_inputs(example))
    for _, fan, n, layers in random_cases(20):
        fans += _model_subfans(
            build_building_set(poset_of_layers(n, layers)), EqualSignBases(fan)
        )
    for fan in dict.fromkeys(fans):
        assert cohomology_basis_monomials(fan) == _greedy_basis_monomials(fan), fan


@pytest.mark.parametrize(
    "fan", [load_fan(fixture_path("p1x4_fan.json")), orthant_fan(4)]
)
def test_cohomology_basis_is_split_where_the_greedy_reference_is_slow(fan):
    basis = cohomology_basis_monomials(fan)
    assert basis[0] == ((),)
    for degree in range(1, len(basis)):
        _assert_split_level(fan, degree, basis[degree])


@pytest.mark.parametrize(
    "fan, degrees",
    [
        (load_fan(fixture_path("p1x4_fan.json")), None),
        (orthant_fan(3), None),
        (weyl_fan_A(4), None),
        (load_fan(fixture_path("good_fan_3d.json")), (1, 2)),
    ],
    ids=["p1x4", "orthant3", "weyl_A4", "good_fan_3d"],
)
def test_cohomology_basis_matches_the_smith_route(fan, degrees):
    # the Hermite kernel and the Smith transform map onto the same quotient
    # up to an automorphism, so the split search picks the same monomials
    betti = betti_numbers(fan)
    for d in degrees or range(len(betti)):
        level = presentation._basis_in_degree(fan, d, betti[d])
        assert level == smith_basis_in_degree(fan, d, betti[d]), d


def test_relations_with_torsion_leave_no_basis(monkeypatch):
    # 2*C1 - 2*C2 on the two rays of P^1 has the rank the Betti number asks
    # for, but Z^2 / (2, -2) has torsion, so no monomial classes are a basis
    monkeypatch.setattr(presentation, "_relation_rows", lambda *args: [(2, -2)])
    with pytest.raises(MathAssertionError, match="no split monomial basis"):
        presentation._basis_in_degree(orthant_fan(1), 1, 1)


def test_relations_that_split_only_together_leave_a_basis(monkeypatch):
    # 2*C1 - 2*C2 and 3*C1 - 3*C2 each leave torsion, but together they span
    # C1 - C2, a split summand, so C1 alone is a basis; with 4*C1 - 4*C2 in
    # place of the second row, 2*(C1 - C2) is all they span
    monkeypatch.setattr(presentation, "_relation_rows", lambda *args: [(2, -2), (3, -3)])
    assert presentation._basis_in_degree(orthant_fan(1), 1, 1) == ((0,),)
    monkeypatch.setattr(presentation, "_relation_rows", lambda *args: [(2, -2), (4, -4)])
    with pytest.raises(MathAssertionError, match="no split monomial basis"):
        presentation._basis_in_degree(orthant_fan(1), 1, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_monomial_basis_of_the_equal_coordinate_model_counts_the_series(n):
    # the paper's basis on the type-A models, counted by degree, against
    # `poincare` and against coefficient n of the series
    _, building = minimal_equal_coordinate_building(n)
    fan = weyl_fan_A(n)
    counts = monomial_basis(building, fan).graded_counts(n)
    assert counts == poincare(building, fan).total
    assert qpoly(counts) == toric_poincare_series(n).coefficient(n)


def test_degree_one_basis_past_the_greedy_dead_end(big_fan):
    # taking every ray that keeps the classes split reaches rays 0..67 and
    # then no further ray fits; backing up leaves out rays 67, 70 and 71
    level = presentation._basis_in_degree(big_fan, 1, betti_numbers(big_fan)[1])
    assert level == tuple((r,) for r in range(72) if r not in (67, 70, 71))
    _assert_split_level(big_fan, 1, level)


def test_curve_subfan_lift_prefers_low_parent_label(main_building, big_fan, main_arr):
    bases = EqualSignBases(big_fan, main_arr.equal_sign_bases)
    sub = bases.subfan(support_lattice(main_building, (3,)))
    assert sub.parent_rays == (6, 14)
    assert subfan_basis_in_parent_labels(sub) == (((),), ((6,),))


def test_monomial_basis_main(main_building, big_fan, main_arr):
    mb = monomial_basis(
        main_building, big_fan, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )
    assert mb.graded_counts(4) == (1, 75, 75, 1)
    curve_elements = [
        el for el in mb.elements if el.function.support == (3,)
    ]
    assert [(el.monomial, el.cohomology_degree) for el in curve_elements] == [
        ((), 0),
        ((6,), 1),
    ]
    ambient = [el for el in mb.elements if el.function.support == ()]
    assert all(el.monomial is None for el in ambient)
    assert len(ambient) == 1 + 69 + 69 + 1


def test_presentation_shape(main_presentation):
    pres = main_presentation
    assert pres.variable_count == 81
    assert pres.ray_count == 72 and pres.member_count == 9
    a, b, c, d, e = pres.class_sizes()
    assert b == 3
    assert d == 75
    # pair non-faces are exactly the ray pairs that span no cone
    assert a == 72 * 71 // 2 - 210
    # every member appears with the empty superset choice
    assert {(r.member, r.above) for r in pres.member_relations} >= {
        (g, ()) for g in range(9)
    }


def test_presentation_frozen_class_sizes(main_presentation):
    assert main_presentation.class_sizes() == (2346, 3, 606, 75, 424)


def test_direction_forms_built_once_per_character(
    monkeypatch, main_building, big_fan, main_arr, main_presentation
):
    # 75 class (d) relations of example-main share 6 characters
    calls = []
    direction_form = presentation._direction_form
    monkeypatch.setattr(
        presentation,
        "_direction_form",
        lambda fan, chi: calls.append(chi) or direction_form(fan, chi),
    )
    pres = emit_presentation(
        main_building, big_fan, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )
    assert len(calls) == len(set(calls)) == 6
    assert pres == main_presentation


def test_relation_with_full_chain_has_trivial_cofactor(main_presentation):
    # a point below four members: when all four are selected the enclosing
    # component is the point itself, so the relation is the plain product
    rel = next(
        r
        for r in main_presentation.member_relations
        if r.member == 5 and r.above == (0, 1, 2, 3)
    )
    assert rel.terms == (((("T", 0), ("T", 1), ("T", 2), ("T", 3)), 1),)


def test_relation_t_and_c_content(main_presentation):
    rel = next(
        r for r in main_presentation.member_relations if (r.member, r.above) == (0, ())
    )
    terms = dict(rel.terms)
    # ray 0 pairs to -2 against the member character, so C1 gets +2
    assert terms[(("C", 0),)] == 2
    # the member variable itself enters through the summed class
    assert terms[(("T", 0),)] == -1


def test_power_variant_same_shape(main_building, big_fan, main_arr):
    pres = emit_presentation(
        main_building,
        big_fan,
        EqualSignBases(big_fan, main_arr.equal_sign_bases),
        variant="power",
    )
    assert pres.class_sizes() == (2346, 3, 606, 75, 424)
    assert pres.variant == "power"


def test_presentation_a2_has_no_empty_intersections():
    fan = load_fan(fixture_path("weyl_a3_fan.json"))
    arr = load_arrangement(fixture_path("example_a2.arrangement.json"))
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    building = build_building_set(poset)
    pres = emit_presentation(building, fan)
    assert pres.variable_count == 6 + 4
    assert len(pres.member_relations) == 3 + 8
    assert pres.empty_intersection_products == ()


def test_hilbert_function_of_presentation_matches_poincare():
    fan = load_fan(fixture_path("weyl_a3_fan.json"))
    arr = load_arrangement(fixture_path("example_a2.arrangement.json"))
    cases = [("a2", fan, arr.torus_dim, arr.layers), *random_cases(20)]
    for label, fan, n, layers in cases:
        building = build_building_set(poset_of_layers(n, layers))
        total = poincare(building, fan).total
        for variant in ("product", "power"):
            pres = emit_presentation(building, fan, variant=variant)
            assert presentation_hilbert_function(pres, n + 1) == total + (0,), (
                label,
                variant,
            )


def _example_inputs(example):
    arr_name, fan_name = EXAMPLES[example]
    return _model_inputs(fixture_path(arr_name), fixture_path(fan_name))


def test_expanded_relations_have_the_checked_t_degree():
    # emit_presentation checks the degree on the factors only; expanding every
    # relation checks the largest T-count over all of its terms
    cases = [(ex, *_example_inputs(ex)) for ex in sorted(EXAMPLES)]
    cases += [
        (label, build_building_set(poset_of_layers(n, layers)), EqualSignBases(fan))
        for label, fan, n, layers in random_cases(20)
    ]
    for label, building, bases in cases:
        for variant in ("product", "power"):
            pres = emit_presentation(building, bases.fan, bases, variant)
            for rel in pres.member_relations:
                g, above = rel.member, rel.above
                enclosing = building.poset.elements[building.enclosing(g, above)]
                expected = building.members[g].rank - enclosing.rank + len(above)
                t_count = max(sum(v[0] == "T" for v in mono) for mono, _ in rel.terms)
                assert t_count == expected, (label, variant, g, above)


def test_ray_member_products_are_the_rays_off_each_subfan():
    # class (c) pairs member g with the rays off the annihilator of its
    # lattice, which are exactly the rays its subfan leaves out; the
    # resolver restricts every member of these 23 models, 71 in all
    cases = [(ex, *_example_inputs(ex)) for ex in sorted(EXAMPLES)]
    cases += [
        (label, build_building_set(poset_of_layers(n, layers)), EqualSignBases(fan))
        for label, fan, n, layers in random_cases(20)
    ]
    for label, building, bases in cases:
        fan = bases.fan
        products = emit_presentation(building, fan, bases).ray_member_products
        for g, member in enumerate(building.members):
            off = set(range(len(fan.rays))) - set(bases.subfan(member.gamma).parent_rays)
            assert {i for i, h in products if h == g} == off, (label, g)
            # and they are the rays some basis row pairs to nonzero, by a dot
            # per ray and row
            moved = {
                i
                for i, ray in enumerate(fan.rays)
                if any(sum(a * b for a, b in zip(row, ray)) for row in member.gamma.basis)
            }
            assert off == moved, (label, g)


def test_resolver_pairs_each_lattice_with_the_rays_once(monkeypatch):
    """`poincare`, class (c) and the member subfans read one moved-ray mask
    per lattice from the shared resolver: `moved_rays` runs once for each
    lattice any of them reads."""
    lattices = []
    original = fans.moved_rays

    def counted(fan, rows):
        lattices.append(rows)
        return original(fan, rows)

    monkeypatch.setattr(fans, "moved_rays", counted)
    for example in sorted(EXAMPLES):
        building, bases = _example_inputs(example)
        lattices.clear()
        poincare(building, bases.fan, bases)
        emit_presentation(building, bases.fan, bases)
        for member in building.members:
            bases.subfan(member.gamma)
        assert lattices, example
        assert len(lattices) == len(set(lattices)), example


def _empty_intersections_by_components(building):
    """Class (e) as listed before the member masks: every member subset of
    two or more, in order, kept when `components` finds no component."""
    m = len(building.members)
    return tuple(
        subset
        for size in range(2, m + 1)
        for subset in combinations(range(m), size)
        if not building.components(subset)
    )


def test_empty_intersections_match_the_components_walk():
    cases = [(ex, *_example_inputs(ex)) for ex in sorted(EXAMPLES)]
    cases += [
        (label, build_building_set(poset_of_layers(n, layers)), EqualSignBases(fan))
        for label, fan, n, layers in random_cases(40)
    ]
    with_empties = set()
    for label, building, bases in cases:
        empties = emit_presentation(building, bases.fan, bases).empty_intersection_products
        assert empties == _empty_intersections_by_components(building), label
        if empties:
            with_empties.add(label.split("-")[0])
    # example-main and these arrgen cases list empty intersections
    assert {"example", "case0", "case8", "case11", "case19"} <= with_empties


def _refuse_poly_mul(a, b):
    raise AssertionError("a class (d) relation was multiplied out")


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_reproduction_multiplies_out_no_relation(monkeypatch, example):
    # reproduce prints only the class sizes of the presentation
    monkeypatch.setattr(presentation, "poly_mul", _refuse_poly_mul)
    assert "class (d) member relations:" in reproduction_text(example)


def test_unknown_variant_is_refused_before_any_terms_are_read(monkeypatch):
    building, bases = _example_inputs("example-a2")
    monkeypatch.setattr(presentation, "poly_mul", _refuse_poly_mul)
    with pytest.raises(ValidationError, match="unknown restriction variant 'cube'"):
        emit_presentation(building, bases.fan, bases, variant="cube")
