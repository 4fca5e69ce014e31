"""Tests for exact truncated series arithmetic and the grading identities."""

from __future__ import annotations

from fractions import Fraction

import pytest

from equal_coordinate import degree_counts
from wondertoric.errors import ValidationError
from wondertoric.series import (
    _binomial_term,
    _qp_add,
    _qp_mul,
    eulerian_series,
    forest_series,
    hook_series,
    lec_series,
    make_series,
    qpoly,
    series_one,
    toric_poincare_series,
    tree_series,
    verify_lambda_recurrence,
    verify_main_identity,
)
from wondertoric.typea import admissible_trees, enumerate_forests, eulerian


def test_qpoly_normalizes():
    assert qpoly((1, 0, 0)) == (1,)
    assert qpoly(3) == (3,)
    assert qpoly(()) == ()
    with pytest.raises(ValidationError, match="ints"):
        qpoly((Fraction(1, 2),))


def test_series_product_uses_binomial_weights():
    one_plus_t = make_series(3, [(1,), (1,)])
    square = one_plus_t.mul(one_plus_t)
    assert square.coefficient(0) == (1,)
    assert square.coefficient(1) == (2,)
    assert square.coefficient(2) == (2,)
    assert square.coefficient(3) == ()


def test_exponential_of_t():
    t = make_series(5, [(), (1,)])
    e = t.exp()
    assert all(e.coefficient(n) == (1,) for n in range(6))
    assert e.derivative_t() == e.truncate(4)
    with pytest.raises(ValidationError, match="zero constant"):
        series_one(3).exp()


def test_truncate_and_coefficient_bounds():
    t = make_series(2, [(), (1,)])
    with pytest.raises(ValidationError, match="extend"):
        t.truncate(3)
    with pytest.raises(ValidationError, match="beyond"):
        t.coefficient(3)
    with pytest.raises(ValidationError, match="ints"):
        make_series(0, [(Fraction(1, 2),)])


def test_composition_substitutes_scaled_variable():
    t_squared = make_series(4, [(), (), (2,)])
    q_t = make_series(4, [(), (0, 1)])
    composed = t_squared.compose_in_t(q_t)
    assert composed.coefficient(2) == (0, 0, 2)
    assert composed.coefficient(1) == ()
    with pytest.raises(ValidationError, match="inner constant"):
        t_squared.compose_in_t(series_one(4))


def test_tree_series_prefix():
    lam = tree_series(4)
    assert lam.coefficients == ((), (1,), (), (0, 1), (0, 1, 1))


def test_tree_series_matches_enumerated_trees():
    lam = tree_series(8)
    for n in range(1, 9):
        trees = admissible_trees(tuple(range(1, n + 1)))
        assert lam.coefficient(n) == degree_counts(t.degree for t in trees)


def test_tree_series_enumerates_no_trees():
    before = admissible_trees.cache_info()
    tree_series(10)
    after = admissible_trees.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_forest_series_matches_enumeration():
    phi = forest_series(6)
    for n in range(1, 7):
        degrees = (f.degree for f in enumerate_forests(n))
        assert phi.coefficient(n) == degree_counts(degrees)


def test_eulerian_series_matches_descent_triangle():
    e = eulerian_series(6)
    assert e.coefficient(2) == (1, 1)
    for n in range(1, 7):
        assert e.coefficient(n) == tuple(eulerian(n)[1:])


def _qp_divexact(num, den):
    """Polynomial quotient over the integers, failing loudly on a nonzero
    remainder, in the polynomials or in a leading-coefficient division."""
    rem = list(num)
    out = [0] * max(len(num) - len(den) + 1, 0)
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c, r = divmod(rem[top], den[-1])
        assert r == 0, "coefficient division left a remainder"
        out[top - len(den) + 1] = c
        for k, d in enumerate(den):
            rem[top - len(den) + 1 + k] -= c * d
    assert not any(rem), "polynomial division left a remainder"
    return qpoly(out)


def _closed_form_eulerian_series(order):
    """The descent series from its closed form (1 - q)/(1 - q e^{t(1-q)}):
    solve S * (1 - q e^{t(1-q)}) = 1 - q, then strip the leading 1 and a q."""
    one_minus_q = qpoly((1, -1))
    d = [one_minus_q]
    power = qpoly(1)
    for _ in range(order):
        power = _qp_mul(power, one_minus_q)
        d.append(qpoly(-c for c in _qp_mul((0, 1), power)))
    s = [qpoly(1)]
    for n in range(1, order + 1):
        acc = ()
        for k in range(n):
            acc = _qp_add(acc, _binomial_term(n, k, s[k], d[n - k]))
        s.append(_qp_divexact(qpoly(-c for c in acc), one_minus_q))
    assert all(p and p[0] == 0 for p in s[1:]), "coefficient has no factor q"
    return make_series(order, [()] + [p[1:] for p in s[1:]])


def test_eulerian_series_matches_its_closed_form():
    for order in (0, 12):
        assert eulerian_series(order) == _closed_form_eulerian_series(order)


def test_lec_series_small():
    ell = lec_series(5)
    for n in range(1, 6):
        assert ell.coefficient(n) == tuple(eulerian(n)[1:])


def test_hook_series_matches_permutation_sum():
    assert hook_series(8) == lec_series(8)
    assert hook_series(9) == lec_series(9)
    assert hook_series(0) == lec_series(0)


def test_hook_series_matches_the_counted_statistic_at_order_12():
    assert hook_series(12) == lec_series(12)


def test_series_coefficients_are_ints():
    for series in (tree_series, hook_series, eulerian_series, toric_poincare_series):
        s = series(10)
        assert all(type(c) is int for poly in s.coefficients for c in poly), series


def test_toric_poincare_series_small_ranks():
    phi = toric_poincare_series(4)
    assert phi.coefficient(2) == (1, 1)
    assert phi.coefficient(3) == (1, 5, 1)
    assert phi.coefficient(4) == (1, 16, 16, 1)


def test_identities_hold_at_moderate_order():
    assert verify_lambda_recurrence(6)
    assert verify_main_identity(6)


def test_identity_checks_share_one_tree_series():
    tree_series.cache_clear()
    assert verify_lambda_recurrence(5) and verify_main_identity(5)
    info = tree_series.cache_info()
    assert (info.hits, info.misses) == (1, 1)
