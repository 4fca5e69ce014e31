"""Layers, intersections with torsion components, the layer poset, goodness."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest

from arrgen import random_cases
from equal_coordinate import characteristic_polynomial
from wondertoric import lattice
from wondertoric.errors import MathAssertionError, ValidationError
from wondertoric.fans import (
    EqualSignBases,
    equal_sign_basis,
    extend_equal_sign_basis,
    orthant_fan,
)
from wondertoric.files import fixture_path, load_arrangement, load_fan
from wondertoric.lattice import Sublattice, smith_normal_form
from wondertoric.layers import (
    Layer,
    _plan,
    _key,
    _layer,
    _RankOneMeets,
    _solve,
    _solve_keys,
    goodness_check,
    intersect,
    mod1,
    poset_of_layers,
)
from wondertoric.typea import (
    equal_coordinate_arrangement,
    minimal_equal_coordinate_building,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def big_fan():
    return load_fan(fixture_path("good_fan_3d.json"))


@pytest.fixture(scope="module")
def main_arr():
    return load_arrangement(fixture_path("example_main.arrangement.json"))


def test_mod1():
    assert mod1(Fraction(7, 2)) == HALF
    assert mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert mod1(3) == 0


def test_from_generators_reexpresses_phi():
    # redundant generators with compatible values; the relation
    # (2,0) - 2*(1,1) + 2*(0,1) = 0 maps to 1/2 - 1/2 + 0 = 0 mod 1
    layer = Layer.from_generators(
        2, [[2, 0], [1, 1], [0, 1]], [HALF, Fraction(1, 4), 0]
    )
    assert layer.gamma.basis == ((1, 0), (0, 1))
    assert layer.phi == (Fraction(1, 4), Fraction(0))
    assert layer.value_on((2, 0)) == HALF
    assert layer.value_on((1, 1)) == Fraction(1, 4)


def test_inconsistent_values_rejected():
    # the second input also spans a non-split lattice: inconsistency wins
    for n, rows, values in (
        (2, [[1, 0], [2, 0]], [0, Fraction(1, 3)]),
        (1, [[2], [4]], [HALF, HALF]),
    ):
        with pytest.raises(ValidationError, match="inconsistent"):
            Layer.from_generators(n, rows, values)


def test_layer_values_must_be_fractions_in_the_unit_interval():
    class Tagged(Fraction):
        pass

    gamma = Sublattice.from_rows(2, [[1, 0]])
    for value in (Fraction(0), HALF, Fraction(99, 100), Tagged(1, 3)):
        assert Layer(gamma, (value,)).phi == (value,)
    refused = (0, 1, True, 0.5, 0.0, "1/2", None, Fraction(1), Fraction(-1, 2))
    for value in refused + (Fraction(3, 2), Tagged(1), Tagged(-1, 3)):
        with pytest.raises(ValidationError, match=r"Fractions in \[0,1\)"):
            Layer(gamma, (value,))


def test_nonsplit_gamma_rejected():
    with pytest.raises(ValidationError, match="split"):
        Layer.from_generators(2, [[2, 0]], [HALF])


def test_nonsplit_generators_refused_before_components(monkeypatch):
    # 10**9 torsion components: refused from the plan's Hermite diagonal alone
    built = []
    post_init = Layer.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Layer, "__post_init__", counting)
    with pytest.raises(ValidationError, match="split"):
        Layer.from_generators(2, [[10**9, 0]], [0])
    assert built == []


def _reference_solve(n, rows, values):
    """The solver before its lattice half was cached: a Hermite form,
    saturation, coordinate solve and Smith form on every call, and every
    value in Fractions."""
    if not rows:
        return (Layer.torus(n),)
    sat = Sublattice.from_rows(n, rows).saturation()
    snf = smith_normal_form(tuple(sat.coordinates_of(r) for r in rows))
    lv = [
        mod1(sum(Fraction(c) * v for c, v in zip(snf.left[i], values)))
        for i in range(len(rows))
    ]
    r = sat.rank
    for i in range(len(rows)):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d == 0 and lv[i] != 0:
            return ()
    if snf.rank != r:
        raise MathAssertionError("saturation changed the rank")
    components = []
    torsion = [[(v + t) / d for t in range(d)] for d, v in zip(snf.diagonal, lv)]
    for choice in product(*torsion):
        y = [
            mod1(sum(Fraction(snf.right[j][i]) * choice[i] for i in range(r)))
            for j in range(r)
        ]
        components.append(Layer(sat, tuple(y)))
    components.sort(key=Layer.sort_key)
    return tuple(components)


def _triangular_rows(rng):
    """Rows of an upper triangular lattice in the first r coordinates of
    Z^n, such as (2, 1, 0), (0, 3, 0): pivots 1-4, the first two 2-4, and an
    entry in [1, second pivot) right of the first, so the coordinates'
    Hermite form keeps a pivot above 1 left of a nonzero entry; then mixed
    by row operations, which keep that form."""
    n = rng.randint(2, 3)
    r = rng.randint(2, n)
    rows = [[0] * n for _ in range(r)]
    for i in range(r):
        rows[i][i] = rng.randint(2 if i < 2 else 1, 4)
        rows[i][i + 1 : r] = [rng.randint(-3, 3) for _ in range(i + 1, r)]
    rows[0][1] = rng.randint(1, rows[1][1] - 1)
    for _ in range(2):
        i, j = rng.sample(range(r), 2)
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return n, rows


def _solver_cases():
    """Seeded rows: 400 with entries -3..3 in ambient rank 1-3, some with one
    row scaled by 2-4 (torsion), then 60 from `_triangular_rows` (torsion
    under off-diagonal entries); some with a dependent row appended; values
    with denominators 1-6 consistent up to integer shifts (so negative and
    >= 1), some of them then moved off consistency."""
    rng = random.Random(2610)
    for case in range(460):
        if case >= 400:
            n, rows = _triangular_rows(rng)
        else:
            n = rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
            if rng.random() < 0.5:
                i = rng.randrange(len(rows))
                rows[i] = [rng.randint(2, 4) * x for x in rows[i]]
        if rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        den = rng.randint(1, 6)
        theta = [Fraction(rng.randint(-6, 6), den) for _ in range(n)]
        values = [
            sum(x * t for x, t in zip(row, theta)) + rng.randint(-2, 2) for row in rows
        ]
        if rng.random() < 0.3:
            values[rng.randrange(len(values))] += Fraction(1, rng.randint(2, 6))
        yield n, tuple(map(tuple, rows)), tuple(values)


def _count_saturations(monkeypatch) -> list:
    """The lattices `Sublattice.saturation` is called on from now on."""
    saturated, saturation = [], Sublattice.saturation

    def counted(lattice):
        saturated.append(lattice)
        return saturation(lattice)

    monkeypatch.setattr(Sublattice, "saturation", counted)
    return saturated


def test_solver_matches_fraction_reference(monkeypatch):
    saturated = _count_saturations(monkeypatch)
    sizes, off_diagonal_torsion, routes, branches = set(), False, set(), set()
    for n, rows, values in _solver_cases():
        # on a cleared cache, `_plan` saturates the rows exactly when their
        # Hermite basis does not span a split summand
        _plan.cache_clear()
        saturated.clear()
        got = _solve(n, rows, values)
        routes.add(len(saturated))
        assert len(saturated) == (not Sublattice.from_rows(n, rows).is_split_summand())
        assert got == _reference_solve(n, rows, values), (n, rows, values)
        sizes.add(len(got))
        sat, form = _plan(n, rows)
        off_diagonal_torsion |= any(
            form[i][i] > 1 and any(form[i][i + 1 : sat.rank]) for i in range(sat.rank)
        )
        if got:
            # `_components` answers index 1 at once and walks T otherwise
            branches.add(prod(form[i][i] for i in range(sat.rank)) == 1)
    # empty, connected, and up to 16 torsion components all occur, and a
    # pivot above 1 meets a nonzero entry right of it in the triangle
    assert {0, 1, 2, 3, 4, 16} <= sizes, sizes
    assert off_diagonal_torsion
    assert routes == {0, 1}
    assert branches == {False, True}


THIRD = Fraction(1, 3)
DEPENDENT = ((0, 1, -1), (-1, -2, 0), (1, 3, -1))
CLEARED = ((1, 1), (0, 1), (2, 3))
TORSION = ((1, 1), (1, -1), (2, 0))


@pytest.mark.parametrize(
    "split, n, rows, values",
    [
        # a row leading with -1 and pivoting left of the first one, then a
        # dependent row; values consistent, then off consistency
        pytest.param(True, 3, DEPENDENT, (HALF, THIRD, Fraction(1, 6)), id="dependent"),
        pytest.param(True, 3, DEPENDENT, (HALF, THIRD, THIRD), id="dependent-off"),
        # the second pivot's column cleared from the first row
        pytest.param(True, 2, CLEARED, (THIRD, HALF, Fraction(7, 6)), id="cleared"),
        pytest.param(True, 2, CLEARED, (THIRD, HALF, 0), id="cleared-off"),
        # split, but its Hermite pivot is 2
        pytest.param(True, 2, ((2, 1),), (THIRD,), id="split-pivot-2"),
        # the second row leads with -2 after the first: two components
        pytest.param(False, 2, TORSION[:2], (HALF, 0), id="torsion"),
        pytest.param(False, 2, TORSION, (HALF, 0, HALF), id="torsion-dependent"),
        pytest.param(False, 2, TORSION, (HALF, 0, 0), id="torsion-dependent-off"),
    ],
)
def test_plan_routes_match_the_reference(split, n, rows, values, monkeypatch):
    """Each route of `_plan` gives the components of the Fraction reference,
    consistent values or not.  Rows whose Hermite basis spans a split
    summand take it as their saturation, with T = I and no saturation
    computed; other rows are saturated once.  Either way the plan's lattice
    is the rows' saturation, and it has one row per generator."""
    values = tuple(map(Fraction, values))
    saturated = _count_saturations(monkeypatch)
    _plan.cache_clear()
    sat, form = _plan(n, rows)
    assert len(saturated) == (not split)
    assert sat == Sublattice.from_rows(n, rows).saturation()
    assert len(form) == len(rows)
    if split:
        triangle = tuple(row[: sat.rank] for row in form[: sat.rank])
        assert triangle == lattice.identity_matrix(sat.rank)
    assert _solve(n, rows, values) == _reference_solve(n, rows, values)


def test_saturation_keeps_the_hermite_kernels(monkeypatch):
    """A plan whose rows do not split saturates them through two kernels;
    each kernel's Hermite basis comes off `image_and_kernel` and is kept as
    it is, not reduced again (which took a Hermite form of () and of the
    identity)."""
    calls, hermite_form = [], lattice.hermite_form

    def counted(rows, width=None):
        calls.append(tuple(map(tuple, rows)))
        return hermite_form(rows, width)

    monkeypatch.setattr(lattice, "hermite_form", counted)
    monkeypatch.setattr("wondertoric.layers.hermite_form", counted)
    _plan.cache_clear()
    sat, _ = _plan(2, ((1, 1), (1, -1)))
    assert sat.basis == ((1, 0), (0, 1))
    assert calls == [
        ((1, 1, 1, 0), (1, -1, 0, 1)),  # [rows | I]: basis (1, 1), (0, 2)
        ((1, 0, 1, 0), (1, 2, 0, 1)),  # its kernel: ()
        ((1, 0), (0, 1)),  # the kernel of (): Z^2
        ((1, 1, 1, 0), (1, -1, 0, 1)),  # [coords | I] in Z^2
    ]


def test_equal_coordinate_closure_never_saturates(monkeypatch):
    """Every equal-coordinate lattice has a unit-pivot Hermite basis, and
    every atom has rank 1, so the n = 5 closure meets each atom by one
    reduction modulo Gamma_x: it calls the solver for no intersection and
    saturates no lattice."""
    solved, saturated, saturation = [], [], Sublattice.saturation

    def counted_intersect(a, b):
        solved.append((a, b))
        return intersect(a, b)

    def counted_solve(*args):
        solved.append(args)
        return _solve_keys(*args)

    def counted(lattice):
        saturated.append(lattice)
        return saturation(lattice)

    monkeypatch.setattr("wondertoric.layers.intersect", counted_intersect)
    monkeypatch.setattr("wondertoric.layers._solve_keys", counted_solve)
    monkeypatch.setattr(Sublattice, "saturation", counted)
    _plan.cache_clear()
    poset = poset_of_layers(4, equal_coordinate_arrangement(5))
    assert len(poset.elements) == 52
    assert solved == []
    assert saturated == []


def _unit_pivot_layer(rng, values):
    """A random layer of Z^n, n <= 5, whose Hermite basis has unit pivots:
    1 at each pivot, 0 left of it and in the other pivot columns, entries
    -2..2 elsewhere, and values drawn from `values`."""
    n = rng.randint(1, 5)
    pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = rng.randint(-2, 2)
        rows.append(tuple(row))
    gamma = Sublattice.from_rows(n, rows)
    assert gamma.basis == tuple(rows)
    return Layer(gamma, tuple(rng.choice(values) for _ in rows))


def _rank_one_draws():
    """Seeded (x, chi, value): x a unit-pivot layer and {chi = value} a
    rank-1 atom.  Characters are primitive: drawn at random, or
    combinations of x's rows (in Gamma_x), or such a combination plus a
    random vector; values in {0, 1/2, 1/3, 2/5}, or phi_x on the
    combination."""
    values = (Fraction(0), HALF, THIRD, Fraction(2, 5))
    rng = random.Random(30)
    for _ in range(600):
        x = _unit_pivot_layer(rng, values)
        n, rows = x.ambient_rank, x.gamma.basis
        coeffs = [rng.randint(-2, 2) for _ in rows]
        chi = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
        if not rows or rng.random() < 0.6:
            chi = [e + rng.randint(-3, 3) for e in chi]
        if not lattice.is_primitive(chi):
            continue
        value = rng.choice(values)
        if rng.random() < 0.3:
            value = mod1(sum(c * v for c, v in zip(coeffs, x.phi)))
        atom = Layer.from_generators(n, [chi], [value])
        yield x, atom.gamma.basis[0], atom.phi[0]


def test_rank_one_meet_matches_the_solver():
    """The closure's meet of a unit-pivot layer x with a rank-1 atom gives
    the keys of the components of `_solve` and of the Fraction reference,
    or leaves the atom to the solver: the layers `_layer` builds from its
    keys equal the solver's exactly.  All four outcomes occur: x inside the
    atom, an empty meet, one component inserted, and the solver's turn."""
    outcomes = set()
    for x, chi, value in _rank_one_draws():
        n, rows = x.ambient_rank, x.gamma.basis
        meets = _RankOneMeets.of(x)
        got = meets.meet(chi, value, *meets.reduce(chi))
        want = _solve(n, rows + (chi,), x.phi + (value,))
        assert want == _reference_solve(n, rows + (chi,), x.phi + (value,))
        if got is None:
            outcomes.add("solver")
            continue
        built = tuple(_layer(n, *key) for key in got)
        assert built == want, (x, chi, value)
        outcomes.add(
            "empty" if not built else "inside" if built == (x,) else "inserted"
        )
    assert outcomes == {"inside", "empty", "inserted", "solver"}


def test_rank_one_meet_keys_are_the_solver_layers_keys():
    """Each key the rank-1 meet returns is the integer key of the solver's
    layer, denominator and numerators reduced alike; and two layers of one
    ambient rank have equal keys exactly when they are equal, also when
    their values were written over different denominators."""
    seen = []
    for x, chi, value in _rank_one_draws():
        n, rows = x.ambient_rank, x.gamma.basis
        meets = _RankOneMeets.of(x)
        got = meets.meet(chi, value, *meets.reduce(chi))
        want = _solve(n, rows + (chi,), x.phi + (value,))
        if got is not None:
            assert got == tuple(map(_key, want)), (x, chi, value)
        seen += [x, *want]
    gamma = Sublattice.from_rows(2, [(1, 0), (0, 1)])
    seen += [
        Layer(gamma, (Fraction(0, 2), Fraction(3, 6))),
        Layer(gamma, (Fraction(0, 1), HALF)),
        Layer(gamma, (HALF, Fraction(0, 1))),
        Layer(gamma, (Fraction(2, 4), THIRD)),
    ]
    assert _key(seen[-4]) == _key(seen[-3]) == (gamma.basis, 2, (0, 1))
    assert _key(seen[-1]) == (gamma.basis, 6, (3, 2))
    keyed = [(a, _key(a)) for a in seen[-300:]]
    for a, ka in keyed:
        for b, kb in keyed:
            if a.ambient_rank == b.ambient_rank:
                assert (ka == kb) == (a == b), (a, b)


@pytest.mark.parametrize("n", [5, 7])
def test_closure_builds_one_layer_per_new_element(n, monkeypatch):
    """The closure keys its elements by integers and builds a `Layer` only
    for a key it has not seen: one per element that is neither an atom nor
    the torus, 41 at n = 5 and 855 at n = 7, against 177 and 5,298 meets."""
    Layer.torus(n - 1)
    atoms = equal_coordinate_arrangement(n)
    built, post_init = [], Layer.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Layer, "__post_init__", counting)
    poset = poset_of_layers(n - 1, atoms)
    assert len(built) == len(poset.elements) - 1 - len(atoms)
    assert len(built) == {5: 41, 7: 855}[n]


def test_arrgen_closure_builds_one_layer_per_new_element(monkeypatch):
    """On the solver route too the closure builds a `Layer` only for a new
    key: the solver hands it keys (`_solve_keys`), and it calls no
    `intersect`, which would build each component's layer first."""
    built, post_init = [], Layer.__post_init__
    solved, solve = [], _solve_keys

    def counting(self):
        built.append(self)
        post_init(self)

    def counted_solve(*args):
        solved.append(args)
        return solve(*args)

    def refuse(a, b):
        raise AssertionError("the closure called intersect")

    monkeypatch.setattr(Layer, "__post_init__", counting)
    monkeypatch.setattr("wondertoric.layers._solve_keys", counted_solve)
    monkeypatch.setattr("wondertoric.layers.intersect", refuse)
    new = 0
    for label, _, n, atoms in random_cases(40, seed=5):
        Layer.torus(n)
        built.clear()
        poset = poset_of_layers(n, atoms)
        assert len(built) == len(poset.elements) - 1 - len(atoms), label
        new += len(built)
    assert solved and new >= 10, (len(solved), new)


def test_equal_coordinate_closure_makes_no_smith_form(monkeypatch):
    """Every equal-coordinate lattice has a unit-pivot Hermite basis, so no
    split verdict on the n = 5 atoms or their closure needs a Smith form."""
    calls = []

    def counted(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    lattice._smith_of.cache_clear()
    _plan.cache_clear()
    poset = poset_of_layers(4, equal_coordinate_arrangement(5))
    assert len(poset.elements) == 52
    assert calls == []


def test_translates_share_one_plan():
    _plan.cache_clear()
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    k3 = Layer.from_generators(3, [[1, 2, 0]], [0])
    zero = intersect(k1, k3)
    before = _plan.cache_info()
    k1_half = Layer.from_generators(3, [[1, 0, 2]], [HALF])
    half = intersect(k1_half, k3)
    after = _plan.cache_info()
    # the translate and its intersection reuse the plans built for values 0
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    assert k1_half.gamma == k1.gamma and k1_half.phi == (HALF,)
    assert [c.phi for c in zero] == [(0, 0), (0, HALF)]
    assert [c.phi for c in half] == [(HALF, Fraction(1, 4)), (HALF, Fraction(3, 4))]
    assert half == _reference_solve(3, k1.gamma.basis + k3.gamma.basis, (HALF, 0))


def test_contains():
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    point = Layer.from_generators(
        3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, HALF, HALF]
    )
    assert k1.contains(point)  # phi(1,0,2) = 0 + 2*(1/2) = 1 = 0 mod 1
    assert not point.contains(k1)
    assert Layer.torus(3).contains(k1)
    assert k1.contains(k1)


def test_intersect_two_components():
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    k3 = Layer.from_generators(3, [[1, 2, 0]], [0])
    comps = intersect(k1, k3)
    assert len(comps) == 2
    for comp in comps:
        assert comp.gamma == Sublattice.from_rows(3, [[1, 0, 2], [0, 1, -1]])
    assert comps[0].phi == (Fraction(0), Fraction(0))
    assert comps[1].phi == (Fraction(0), HALF)


def test_intersect_empty():
    a = Layer.from_generators(1, [[1]], [0])
    b = Layer.from_generators(1, [[1]], [HALF])
    assert intersect(a, b) == ()


def test_intersect_with_torus():
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    assert intersect(Layer.torus(3), k1) == (k1,)


def test_poset_a2():
    layers = [
        Layer.from_generators(2, [[1, 0]], [0]),
        Layer.from_generators(2, [[0, 1]], [0]),
        Layer.from_generators(2, [[1, 1]], [0]),
    ]
    poset = poset_of_layers(2, layers)
    assert len(poset.elements) == 5
    ranks = sorted(el.rank for el in poset.elements)
    assert ranks == [0, 1, 1, 1, 2]
    # three atoms under the torus, all containing the single point
    point = poset.elements[-1]
    assert point.rank == 2
    for el in poset.elements:
        if el.rank == 1:
            assert el.contains(point)


def _brute_force_covers(poset):
    m = len(poset.elements)
    c = poset.contains
    return tuple(
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j
        and c(i, j)
        and not any(k not in (i, j) and c(i, k) and c(k, j) for k in range(m))
    )


def _cover_cases():
    for name in ("main", "lines", "a2"):
        arr = load_arrangement(fixture_path(f"example_{name}.arrangement.json"))
        yield name, poset_of_layers(arr.torus_dim, arr.layers)
    for n in (3, 4):
        yield f"eqc{n}", minimal_equal_coordinate_building(n)[0]
    for label, _, n, layers in random_cases(20, seed=11):
        yield label, poset_of_layers(n, layers)


def test_covers_match_brute_force():
    for label, poset in _cover_cases():
        elements = poset.elements
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert poset.contains(i, j) == a.contains(b), (label, i, j)
        assert poset.covers() == _brute_force_covers(poset), label


def _all_pairs_closure(torus_dim, layers):
    """Reference closure: intersect every new element with every element
    found so far, then test containment on every pair of elements."""
    elements = {Layer.torus(torus_dim), *layers}
    frontier = list(elements)
    while frontier:
        cur = frontier.pop()
        for other in list(elements):
            for comp in intersect(cur, other):
                if comp not in elements:
                    elements.add(comp)
                    frontier.append(comp)
    ordered = tuple(sorted(elements, key=Layer.sort_key))
    below = tuple(
        sum(1 << j for j, y in enumerate(ordered) if x.contains(y)) for x in ordered
    )
    return ordered, below


def _closure_cases():
    for name in ("main", "lines", "a2"):
        arr = load_arrangement(fixture_path(f"example_{name}.arrangement.json"))
        yield name, arr.torus_dim, arr.layers
    for n in (3, 4, 5):
        yield f"eqc{n}", n - 1, equal_coordinate_arrangement(n)
    for label, _, n, layers in random_cases(40, seed=7):
        yield label, n, layers
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    k3 = Layer.from_generators(3, [[1, 2, 0]], [0])
    k2 = Layer.from_generators(3, [[1, 1, -1]], [0])
    yield "duplicates", 3, (k1, k3, k1, k2, k3)
    # one component of k1 & k3 and the point k1 & k2 & k3, given as inputs,
    # and the torus itself
    point = Layer.from_generators(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    yield "intersections", 3, (intersect(k1, k3)[1], k1, point, Layer.torus(3), k3, k2)


def test_closure_matches_all_pairs_reference():
    for label, torus_dim, layers in _closure_cases():
        poset = poset_of_layers(torus_dim, layers)
        elements, below = _all_pairs_closure(torus_dim, layers)
        assert poset.elements == elements, label
        assert poset.below == below, label


def _atom_loop_closure(torus_dim, layers):
    """Reference closure: `poset_of_layers` before it reused solved
    intersections, one `intersect` per element and atom not known to
    contain it."""
    torus = Layer.torus(torus_dim)
    atoms = [a for a in dict.fromkeys(layers) if a != torus]
    found = [torus, *atoms]
    index = {el: k for k, el in enumerate(found)}
    over = [0] + [1 << bit for bit in range(len(atoms))]
    inside = [set(range(1, len(found)))] + [set() for _ in atoms]
    k = 1
    while k < len(found):
        for bit, a in enumerate(atoms):
            if over[k] >> bit & 1:
                continue
            for comp in intersect(found[k], a):
                if comp not in index:
                    index[comp] = len(found)
                    found.append(comp)
                    over.append(0)
                    inside.append(set())
                c = index[comp]
                over[c] |= over[k] | 1 << bit
                inside[k].add(c)
        k += 1
    order = sorted(range(len(found)), key=lambda f: found[f].sort_key())
    position = {f: i for i, f in enumerate(order)}
    below = [0] * len(order)
    for i in reversed(range(len(order))):
        below[i] = 1 << i
        for c in inside[order[i]]:
            below[i] |= below[position[c]]
    return tuple(found[f] for f in order), tuple(below)


def _atom_loop_cases():
    yield from _closure_cases()
    yield "eqc6", 5, equal_coordinate_arrangement(6)
    rng = random.Random(23)
    for n in (4, 5):
        for k in range(5):
            atoms = list(equal_coordinate_arrangement(n))
            rng.shuffle(atoms)
            yield f"eqc{n}-shuffle{k}", n - 1, atoms
    for label, _, n, layers in random_cases(120, seed=23):
        yield label, n, layers


def test_closure_matches_atom_loop_reference():
    for label, torus_dim, layers in _atom_loop_cases():
        poset = poset_of_layers(torus_dim, layers)
        elements, below = _atom_loop_closure(torus_dim, layers)
        assert poset.elements == elements, label
        assert poset.below == below, label


def test_closure_keeps_a_torsion_point_of_a_reused_meet():
    # t1^2 t2 = 1 meets t1 = 1 in the point (1, 1) alone, and t2 = 1 contains
    # that point, but t2 is not t1 or 1/t1 modulo t1^2 t2: t1^2 t2 = 1 and
    # t2 = 1 meet in two points, (1, 1) and (-1, 1)
    layers = [
        Layer.from_generators(2, [[1, 0]], [0]),
        Layer.from_generators(2, [[2, 1]], [0]),
        Layer.from_generators(2, [[0, 1]], [0]),
    ]
    poset = poset_of_layers(2, layers)
    assert len(poset.elements) == 6
    points = {el.phi for el in poset.elements if el.rank == 2}
    assert points == {(0, 0), (HALF, 0)}
    assert (poset.elements, poset.below) == _atom_loop_closure(2, layers)


def _above_masks(poset):
    """Per element, the bitmask of the elements containing it."""
    m = len(poset.elements)
    return [
        sum(1 << i for i in range(m) if poset.below[i] >> j & 1) for j in range(m)
    ]


def _components_visit_every_bit(poset, above, indices):
    """Reference: every element all of `indices` contain, kept when no other
    such element contains it; `above` from `_above_masks`."""
    common = (1 << len(poset.elements)) - 1
    for i in indices:
        common &= poset.below[i]
    return tuple(
        j
        for j in range(len(poset.elements))
        if common >> j & 1 and above[j] & common == 1 << j
    )


def test_components_walk_matches_every_bit_reference():
    poset, building = minimal_equal_coordinate_building(6)
    rng = random.Random(6)
    positions = building.positions
    above = _above_masks(poset)
    for _ in range(1000):
        subset = rng.sample(positions, rng.randint(0, 6))
        assert poset.components(subset) == _components_visit_every_bit(
            poset, above, subset
        ), subset


def _points_off_atoms(torus_dim, atoms, q):
    """Points of (F_q^*)^r on no atom, by brute force.  With t = g^e for a
    generator g of F_q^*, and e^(2 pi i a/b) mapped to g^(a (q - 1)/b), an
    equation chi(t) = e^(2 pi i v) reads <chi, e> = v (q - 1) mod q - 1."""
    m = q - 1
    equations = [
        [(row, int(v * m)) for row, v in zip(a.gamma.basis, a.phi)] for a in atoms
    ]
    return sum(
        1
        for e in product(range(m), repeat=torus_dim)
        if not any(
            all(sum(c * y for c, y in zip(row, e)) % m == target for row, target in eq)
            for eq in equations
        )
    )


def test_characteristic_polynomial_of_the_equal_coordinate_closure():
    """A point off the equal-coordinate arrangement of order n is n distinct
    nonzero coordinates modulo the diagonal: chi(q) = (q - 2) ... (q - n)."""
    for n in range(3, 7):
        want = [1]
        for a in range(2, n + 1):
            # multiply by (q - a)
            want = [(want[k - 1] if k else 0) - a * (want[k] if k < len(want) else 0)
                    for k in range(len(want) + 1)]
        poset = poset_of_layers(n - 1, equal_coordinate_arrangement(n))
        assert characteristic_polynomial(poset) == want, n


def _point_count_cases():
    for name in ("main", "lines", "a2"):
        arr = load_arrangement(fixture_path(f"example_{name}.arrangement.json"))
        yield name, arr.torus_dim, arr.layers
    for label, _, n, layers in random_cases(20, seed=11):
        yield label, n, layers


def test_characteristic_polynomial_counts_points_over_finite_fields():
    """The poset's chi(q) is the number of points of (F_q^*)^r on no atom
    for each prime q = 1 modulo every denominator of the elements' phi
    (Ehrenborg-Readdy-Slone; Moci), a count that uses no Hermite form and
    no solver.  Checked at the first two such primes from 5."""
    for label, torus_dim, layers in _point_count_cases():
        poset = poset_of_layers(torus_dim, layers)
        coeffs = characteristic_polynomial(poset)
        period = lcm(*(v.denominator for el in poset.elements for v in el.phi))
        primes = [
            q
            for q in range(5, 200)
            if (q - 1) % period == 0 and all(q % d for d in range(2, q))
        ][:2]
        assert len(primes) == 2, label
        for q in primes:
            count = _points_off_atoms(torus_dim, layers, q)
            assert count == sum(c * q**k for k, c in enumerate(coeffs)), (label, q)


def test_poset_main_example(main_arr, big_fan):
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    assert len(poset.elements) == 12
    ranks = sorted(el.rank for el in poset.elements)
    assert ranks == [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    points = [el for el in poset.elements if el.rank == 3]
    assert [el.phi for el in points] == [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), HALF, HALF),
        (HALF, Fraction(1, 4), Fraction(3, 4)),
        (HALF, Fraction(3, 4), Fraction(1, 4)),
    ]
    # two of the four rank-2 layers share a lattice and differ by a half
    # twist; the other two are the connected pairwise intersections
    curve_lattice = Sublattice.from_rows(3, [[1, 0, 2], [0, 1, -1]])
    l2, l3 = [el for el in poset.elements if el.gamma == curve_lattice]
    assert l2.phi == (Fraction(0), Fraction(0))
    assert l3.phi == (Fraction(0), HALF)
    others = [
        el for el in poset.elements if el.rank == 2 and el.gamma != curve_lattice
    ]
    assert {el.gamma for el in others} == {
        Sublattice.from_rows(3, [[1, 0, -2], [0, 1, 1]]),
        Sublattice.from_rows(3, [[1, 0, 2], [0, 1, -3]]),
    }
    # first two points lie on l2, last two on l3, and all four on the
    # middle rank-1 layer
    assert l2.contains(points[0]) and l2.contains(points[1])
    assert l3.contains(points[2]) and l3.contains(points[3])
    k2 = Layer.from_generators(3, [[1, 1, -1]], [0])
    assert all(k2.contains(p) for p in points)


def test_goodness_main_example(main_arr, big_fan):
    poset = poset_of_layers(main_arr.torus_dim, main_arr.layers)
    report = goodness_check(
        big_fan, poset, EqualSignBases(big_fan, main_arr.equal_sign_bases)
    )
    assert report.ok
    assert not report.failures
    # and without any supplied bases the bounded search still succeeds
    report2 = goodness_check(big_fan, poset)
    assert report2.ok
    assert {lat for lat, _ in report2.bases} == {lat for lat, _ in report.bases}


def test_goodness_failure():
    # P^2 is not good for the arrangement {x = 1} in its own torus
    from wondertoric.fans import Fan

    p2 = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    poset = poset_of_layers(2, [Layer.from_generators(2, [[1, 0]], [0])])
    report = goodness_check(p2, poset)
    assert not report.ok
    assert report.failures == (Sublattice.from_rows(2, [[1, 0]]),)


def test_extend_equal_sign_basis_layers(big_fan):
    # the equal-sign basis of the curve l2 extends the one of the surface k1
    # that contains it, never the other way round
    k1 = Layer.from_generators(3, [[1, 0, 2]], [0])
    l2 = Layer.from_generators(3, [[1, 0, 2], [0, 1, -1]], [0, 0])
    assert k1.contains(l2) and not l2.contains(k1)
    k1_rows = equal_sign_basis(big_fan, k1.gamma)
    rows = extend_equal_sign_basis(big_fan, l2.gamma, k1_rows)
    assert rows[0] == (1, 0, 2)
    assert Sublattice.from_rows(3, rows) == l2.gamma
    l2_rows = equal_sign_basis(big_fan, l2.gamma)
    with pytest.raises(ValidationError, match="not in the sublattice"):
        extend_equal_sign_basis(big_fan, k1.gamma, l2_rows)


def test_goodness_orthant_fan():
    arr = load_arrangement(fixture_path("example_lines.arrangement.json"))
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    report = goodness_check(orthant_fan(4), poset)
    assert report.ok
