"""Smith/Hermite forms and sublattice arithmetic, cross-checked against sympy."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wondertoric.lattice
from smith import mat_mul, smith_kernel, split_rank
from wondertoric.errors import ValidationError
from wondertoric.lattice import (
    Sublattice,
    determinant,
    first_split_basis,
    hermite_form,
    identity_matrix,
    image_and_kernel,
    smith_normal_form,
    splits,
)


def det(m):
    if not m:
        return 1
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def check_decomposition(a):
    snf = smith_normal_form(a)
    assert abs(det([list(r) for r in snf.left])) == 1
    assert abs(det([list(r) for r in snf.right])) == 1
    prod = mat_mul(mat_mul(snf.left, a), snf.right)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            expect = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert x == expect
    for d, e in zip(snf.diagonal, snf.diagonal[1:]):
        if e:
            assert d and e % d == 0
        assert d >= 0
    return snf


def sympy_diagonal(a, m, n):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    if m == 0 or n == 0:
        return ()
    d = sympy_snf(Matrix(a), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(m, n))]
    # sympy may order units/zeros differently; compare multisets of nonzeros
    return tuple(sorted(x for x in diag if x))


def test_smith_frozen_example():
    snf = check_decomposition([[1, 0, 2], [1, 2, 0]])
    assert snf.diagonal == (1, 2)


def test_smith_identity_and_zero():
    assert smith_normal_form(identity_matrix(3)).diagonal == (1, 1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)


def test_smith_against_sympy_random():
    rng = random.Random(20260814)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = check_decomposition(a)
        ours = tuple(sorted(d for d in snf.diagonal if d))
        assert ours == sympy_diagonal(a, m, n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_smith_properties(a):
    check_decomposition(a)


def test_hermite_canonical():
    # same lattice, different generators
    h1 = hermite_form([[2, 1], [0, 3]])
    h2 = hermite_form([[2, 4], [2, 1], [4, 5]])
    assert h1 == h2
    # pivots positive, above-pivot entries reduced
    assert h1 == ((2, 1), (0, 3))


def _min_pivot_hermite(rows, width, ops):
    """`hermite_form` as it was before its pivot scan: the pivot is the
    `min` over the list of nonzero rows, by (|entry|, index).  Each row
    operation is appended to `ops` as (row, pivot row) before it is made."""
    mat = [list(map(int, r)) for r in rows]
    row = 0
    for col in range(width):
        while True:
            nonzero = [i for i in range(row, len(mat)) if mat[i][col]]
            if not nonzero:
                break
            p = min(nonzero, key=lambda i: (abs(mat[i][col]), i))
            mat[row], mat[p] = mat[p], mat[row]
            done = True
            for i in range(row + 1, len(mat)):
                if mat[i][col]:
                    q = mat[i][col] // mat[row][col]
                    ops.append((tuple(mat[i]), tuple(mat[row])))
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[row])]
                    done = done and not mat[i][col]
            if done:
                break
        if row < len(mat) and mat[row][col]:
            if mat[row][col] < 0:
                mat[row] = [-x for x in mat[row]]
            for i in range(row):
                q = mat[i][col] // mat[row][col]
                if q:
                    ops.append((tuple(mat[i]), tuple(mat[row])))
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[row])]
            row += 1
    return tuple(tuple(r) for r in mat[:row])


def _pivot_scan_cases():
    """Seeded matrices of three kinds: [rows | I_k] with entries -3..3; a
    first column of entries 2..5 in size with +-1 below them, -1 and 1 in
    either order; and entries mostly 0 and +-1, with a row or a column
    zeroed at times, and no rows at all."""
    rng = random.Random(32)
    for case in range(600):
        kind = case % 3
        if kind == 0:
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            yield [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)], n + k
            continue
        width, m = rng.randint(1, 5), rng.randint(0 if kind == 2 else 2, 6)
        entries = (0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -5)
        rows = [[rng.choice(entries) for _ in range(width)] for _ in range(m)]
        if kind == 1:
            lead = [rng.choice((2, -2, 3, -3, 4, 5)) for _ in range(m)]
            for i in rng.sample(range(1, m), rng.randint(1, min(2, m - 1))):
                lead[i] = rng.choice((1, -1))
            for row, a in zip(rows, lead):
                row[0] = a
        elif m and rng.random() < 0.4:
            rows[rng.randrange(m)] = [0] * width
        if kind == 2 and rng.random() < 0.4:
            j = rng.randrange(width)
            for row in rows:
                row[j] = 0
        yield rows, width


def test_hermite_pivot_scan_keeps_every_step(monkeypatch):
    """The pivot scan that stops at the first +-1 picks the row the old
    `min` picked, the first of least |entry|: the form and every row
    operation on the way to it are the old ones.  The library's operations
    are recorded through the `zip` that each of them calls."""
    got_ops = []

    def recording_zip(a, b):
        got_ops.append((tuple(a), tuple(b)))
        return zip(a, b)

    monkeypatch.setattr(wondertoric.lattice, "zip", recording_zip, raising=False)
    for rows, width in _pivot_scan_cases():
        want_ops, got_ops[:] = [], []
        want = _min_pivot_hermite(rows, width, want_ops)
        assert hermite_form(rows, width) == want, rows
        assert got_ops == want_ops, rows


def test_hermite_zero_rows_dropped():
    assert hermite_form([[0, 0, 0]], 3) == ()
    assert hermite_form([], 2) == ()


def test_constructor_canonicalizes_generators():
    rows = [[2, 4], [2, 1], [4, 5]]
    lat = Sublattice(2, rows)
    assert lat == Sublattice.from_rows(2, rows)
    assert lat.basis == ((2, 1), (0, 3))


def test_from_rows_computes_one_hermite_form(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hermite_form(*args, **kwargs)

    monkeypatch.setattr(wondertoric.lattice, "hermite_form", counted)
    Sublattice.from_rows(3, [[1, 0, 2], [2, 2, 2], [0, 2, -2]])
    assert len(calls) == 1


def test_splits():
    assert splits([[1, 0, 2], [0, 1, -1]])
    assert not splits([[2, 0]])
    # dependent rows never split, though the lattice they span may
    assert not splits([[1, 1], [2, 2], [0, 0]])
    assert not splits([[1, 1], [3, 3]])
    assert not splits([[1, 0], [1, 2]])
    assert splits([])


@st.composite
def _small_matrices(draw, entries=st.integers(-3, 3)):
    # k x n with k, n <= 5: zero rows, k > n and k = 0 all come up
    k, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(row, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
@example((3, [(1, 0, 0), (0, 0, 0)]))
@example((1, [(1,), (1,)]))
@example((0, [(), ()]))
@example((4, []))
def test_splits_is_full_smith_rank_with_unit_invariants(case):
    _, rows = case
    snf = smith_normal_form(rows)
    assert splits(rows) == (snf.rank == len(rows) and snf.unit_invariants)


def _split_of_full_rank(rows):
    # every Smith invariant 1, checked by sympy
    return sympy_diagonal(rows, len(rows), len(rows[0])) == (1,) * len(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=0, max_size=6
    ),
    st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=0, max_size=1
    ),
    st.integers(0, 3),
)
@example([[1, 0, 0], [1, 2, 0], [1, 3, 0], [0, 0, 1]], [], 0)
def test_first_split_basis_is_the_first_choice_with_split_prefixes(pool, prefix, drop):
    # full rank, the size where dead ends happen, unless some rank is dropped
    size = 3 - drop
    prefix = prefix[:size]
    extra = size - len(prefix)
    # combinations come in lexicographic order, depth-first order over the pool
    expected = next(
        (
            choice
            for choice in combinations(range(len(pool)), extra)
            if all(
                _split_of_full_rank(prefix + [pool[i] for i in choice[:k]])
                for k in range(1, extra + 1)
            )
        ),
        None,
    )
    assert first_split_basis(pool, size, prefix) == expected


def test_first_split_basis_backtracks_past_a_dead_end():
    # (1, 0) is split, but neither later row completes it: (1, 2) and (1, 3)
    # do, with determinant 1
    pool = [(1, 0), (1, 2), (1, 3)]
    assert first_split_basis(pool, 2) == (1, 2)
    assert first_split_basis(pool[:2], 2) is None
    assert first_split_basis([(2, 0), (0, 1)], 1) == (1,)
    assert first_split_basis(pool, 2, [(1, 2)]) == (2,)
    assert first_split_basis(pool, 1, [(1, 0)]) == ()


def test_saturation_frozen_example():
    lat = Sublattice.from_rows(2, [[2, 0]])
    assert lat.saturation() == Sublattice.from_rows(2, [[1, 0]])


def test_torsion_frozen_example():
    assert Sublattice.from_rows(2, [[3, 0]]).is_split_summand() is False
    assert Sublattice.full(2).is_split_summand() is True
    assert Sublattice.zero(2).is_split_summand() is True


def test_sublattice_equality_is_structural():
    a = Sublattice.from_rows(3, [[1, 0, 2], [1, 2, 0]])
    b = Sublattice.from_rows(3, [[2, 2, 2], [1, 2, 0], [0, 2, -2]])
    assert a == b
    assert hash(a) == hash(b)


def test_membership_and_coordinates():
    lat = Sublattice.from_rows(3, [[1, 0, 2], [0, 2, 0]])
    assert lat.contains_vector([1, 4, 2])
    x = lat.coordinates_of([1, 4, 2])
    assert [
        sum(x[i] * lat.basis[i][j] for i in range(len(x))) for j in range(3)
    ] == [1, 4, 2]
    assert not lat.contains_vector([0, 1, 0])
    with pytest.raises(ValidationError):
        lat.coordinates_of([0, 1, 0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    ),
    st.lists(st.integers(-12, 12), min_size=3, max_size=3),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_solve_is_membership_with_coordinates(rows, v, dependent, k, l):
    # a dependent last row: a multiple of the first, or a combination of two
    if dependent and len(rows) >= 2:
        first, second = rows[0], rows[1] if len(rows) == 3 else [0, 0, 0]
        rows[-1] = [k * a + l * b for a, b in zip(first, second)]
    lat = Sublattice.from_rows(3, rows)
    for target in (v, [k * a for a in rows[0]] if rows else [0, 0, 0]):
        x = lat.solve(target)
        assert (x is not None) == (Sublattice.from_rows(3, rows + [target]) == lat)
        if x is not None:
            assert [
                sum(x[i] * lat.basis[i][j] for i in range(lat.rank)) for j in range(3)
            ] == list(target)


def test_solve_refuses_a_vector_of_the_wrong_length():
    lat = Sublattice.from_rows(2, [[1, 1], [2, 2], [0, 3]])
    assert lat.solve((3, 6)) == (3, 1)
    assert lat.solve((1, 0)) is None
    with pytest.raises(ValueError, match="wrong length"):
        lat.solve((1, 0, 0))
    with pytest.raises(ValueError, match="wrong length"):
        Sublattice.zero(2).solve(())


def test_sum_and_kernel():
    a = Sublattice.from_rows(3, [[1, 0, 2]])
    b = Sublattice.from_rows(3, [[0, 1, -1]])
    s = a.sum(b)
    assert s.rank == 2
    ker = s.kernel_lattice()
    assert ker.rank == 1
    (v,) = ker.basis
    assert sum(x * y for x, y in zip(v, (1, 0, 2))) == 0
    assert sum(x * y for x, y in zip(v, (0, 1, -1))) == 0
    assert ker.is_split_summand()


@settings(max_examples=300, deadline=None)
@given(_small_matrices(st.integers(-6, 6)))
@example((0, []))
@example((3, []))
@example((2, [(2, 4), (1, 2)]))
def test_kernel_lattice_matches_the_smith_route(case):
    n, rows = case
    lat = Sublattice.from_rows(n, rows)
    assert lat.kernel_lattice() == smith_kernel(lat)


@settings(max_examples=300, deadline=None)
@given(_small_matrices(st.integers(-6, 6)))
@example((0, []))
@example((3, []))
@example((2, [(0, 0), (0, 0)]))
@example((2, [(2, -2), (3, -3)]))
@example((2, [(2, -2), (4, -4)]))
@example((3, [(2, 0, 0), (0, 3, 0), (2, 3, 0)]))
def test_image_and_kernel_match_the_row_lattice(case):
    # no rows, zero rows, dependent rows and torsion come up: the image has
    # the row lattice's rank and splits exactly when it does, and the kernel
    # is the row lattice's, by the Hermite and the Smith route
    n, rows = case
    lat = Sublattice(n, rows)
    image, kernel = image_and_kernel(rows, n)
    assert len(image) == lat.rank
    columns = [tuple(g[i] for g in rows) for i in range(n)]
    assert image == Sublattice(len(rows), columns).basis
    assert kernel == lat.kernel_lattice().basis == smith_kernel(lat).basis
    assert splits(image) == splits(lat.basis)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    )
)
def test_saturation_properties(rows):
    lat = Sublattice.from_rows(3, rows)
    sat = lat.saturation()
    assert sat.contains(lat)
    assert sat.rank == lat.rank
    assert sat.is_split_summand()
    assert sat.saturation() == sat
    # rank + kernel rank = ambient rank
    assert lat.rank + lat.kernel_lattice().rank == 3


def _fraction_determinant(m):
    """Gaussian elimination over the rationals, one Fraction per entry."""
    m = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], out = m[pivot], m[k], -out
        out *= m[k][k]
        for row in m[k + 1 :]:
            q = row[k] / m[k][k]
            row[k:] = [x - q * y for x, y in zip(row[k:], m[k][k:])]
    return out


def test_determinant_matches_fraction_elimination():
    # seeded square matrices of size 0-5, entries -3..3; some get a zero
    # leading entry, some a row that is a multiple of another.  The cofactor
    # expansion `det` is a second reference
    rng = random.Random(2901)
    sizes, zero_lead, singular = set(), 0, 0
    for _ in range(600):
        n = rng.randint(0, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.3:
            m[0][0] = 0
        if n > 1 and rng.random() < 0.2:
            a, b = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            m[a] = [c * x for x in m[b]]
        got = determinant(m)
        assert got == _fraction_determinant(m) == det(m), m
        sizes.add(n)
        zero_lead += bool(n and not m[0][0] and got)
        singular += bool(n and not got)
    assert sizes == set(range(6))
    assert zero_lead > 20 and singular > 20
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError, match="not square"):
        determinant([[1, 2]])


def test_is_split_summand_matches_the_smith_verdict():
    # seeded lattices of rank up to 4; (2, 1) splits though its pivot is 2,
    # (2, 0) does not.  Unit-pivot bases never reach the Smith cache
    rng = random.Random(2902)
    lattices = [Sublattice.from_rows(2, [(2, 1)]), Sublattice.from_rows(2, [(2, 0)])]
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        lattices.append(Sublattice.from_rows(n, rows))
    unit = [all(next(a for a in row if a) == 1 for row in lat.basis) for lat in lattices]
    lookups, verdicts = wondertoric.lattice._smith_of.cache_info, []
    for lat, u in zip(lattices, unit):
        before = lookups()
        verdicts.append(lat.is_split_summand())
        assert verdicts[-1] == (split_rank(lat.basis) is not None), lat.basis
        if u:
            assert verdicts[-1] and lookups() == before, lat.basis
    assert verdicts[:2] == [True, False]
    kinds = {(u, v) for u, v in zip(unit, verdicts)}
    assert kinds == {(True, True), (False, True), (False, False)}
