"""Exact truncated exponential generating series over Z[q], q the grading
variable, plus the tree/permutation series they connect.  No operation
divides, so each coefficient is a tuple of ints, in ascending powers of q.

The tree series and the hook-statistic series are solved from their
functional equations, coefficient by coefficient; nothing is enumerated to
build them.  Two independent routes stay as oracles: the enumeration
`typea.admissible_trees`, and `lec_series`, which counts the hook statistic
by its definition through `typea.lec_counts`, over the 2^n relabelled scan
states of `typea.hook_factorize` rather than the n! permutations.  The
tests compare both routes, and `typea verify` keeps the counted
equidistribution check through t^12.

The descent series reads the Eulerian polynomials of `typea.eulerian`, so
the descent recurrence has one home.  Its checks stay independent of it:
`typea verify` compares it with `lec_series` and, composed with the tree
series, with `hook_series`; the tests compare it with its closed form
(1 - q)/(1 - q e^{t(1-q)}).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ValidationError
from .typea import eulerian, lec_count_table

QPoly = tuple[int, ...]


def qpoly(values: Iterable[int] | int) -> QPoly:
    """Dense q-polynomial over Z, ascending powers, trailing zeros trimmed."""
    if not isinstance(values, Iterable):
        values = (values,)
    out = list(values)
    if not all(isinstance(v, int) for v in out):
        raise ValidationError("q-polynomial coefficients must be ints")
    return _trim(out)


def _trim(out: list[int]) -> QPoly:
    """`out`, known to hold ints, as a q-polynomial: trailing zeros dropped.
    The arithmetic below trims its results with it, and `qpoly` checks only
    what comes from outside."""
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _qp_add(a: QPoly, b: QPoly) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _qp_mul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


@dataclass(frozen=True)
class TruncatedSeries:
    """Sum of a_n t^n/n! kept through a fixed order, a_n polynomials in q."""

    order: int
    coefficients: tuple[QPoly, ...]

    def __post_init__(self):
        if self.order < 0 or len(self.coefficients) != self.order + 1:
            raise ValidationError("one coefficient per power through the order")
        object.__setattr__(
            self, "coefficients", tuple(qpoly(c) for c in self.coefficients)
        )

    def coefficient(self, n: int) -> QPoly:
        if not 0 <= n <= self.order:
            raise ValidationError("coefficient index beyond the truncation order")
        return self.coefficients[n]

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValidationError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coefficients[: order + 1])

    def add(self, other: TruncatedSeries) -> TruncatedSeries:
        a, b = _common(self, other)
        return TruncatedSeries(
            a.order,
            tuple(_qp_add(x, y) for x, y in zip(a.coefficients, b.coefficients)),
        )

    def sub(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.add(other.scale(-1))

    def scale(self, poly: Iterable[int] | int) -> TruncatedSeries:
        p = qpoly(poly)
        return TruncatedSeries(
            self.order, tuple(_qp_mul(c, p) for c in self.coefficients)
        )

    def mul(self, other: TruncatedSeries) -> TruncatedSeries:
        a, b = _common(self, other)
        out = []
        for n in range(a.order + 1):
            acc: QPoly = ()
            for k in range(n + 1):
                x, y = a.coefficients[k], b.coefficients[n - k]
                acc = _qp_add(acc, _binomial_term(n, k, x, y))
            out.append(acc)
        return TruncatedSeries(a.order, tuple(out))

    def derivative_t(self) -> TruncatedSeries:
        if self.order < 1:
            raise ValidationError("derivative needs a positive truncation order")
        return TruncatedSeries(self.order - 1, self.coefficients[1:])

    def exp(self) -> TruncatedSeries:
        if self.coefficients[0]:
            raise ValidationError("exp needs a zero constant term")
        coeffs = [qpoly(1)]
        for n in range(1, self.order + 1):
            acc: QPoly = ()
            for k in range(n):
                a, b = self.coefficients[k + 1], coeffs[n - 1 - k]
                acc = _qp_add(acc, _binomial_term(n - 1, k, a, b))
            coeffs.append(acc)
        return TruncatedSeries(self.order, tuple(coeffs))

    def compose_in_t(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(t)): coefficient n is the sum over k of coefficient k
        of self times coefficient n of inner^k/k!."""
        if inner.coefficients[0]:
            raise ValidationError("composition needs a zero inner constant term")
        order = min(self.order, inner.order)
        powers = _power_table(list(inner.coefficients[: order + 1]))
        out: list[QPoly] = []
        for n in range(order + 1):
            _power_column(powers, n)
            acc: QPoly = ()
            for k in range(n + 1):
                acc = _qp_add(acc, _qp_mul(self.coefficients[k], powers[k][n]))
            out.append(acc)
        return TruncatedSeries(order, tuple(out))


def _binomial_term(n: int, k: int, a: QPoly, b: QPoly) -> QPoly:
    """comb(n, k) * a * b."""
    c = comb(n, k)
    return _trim([c * x for x in _qp_mul(a, b)])


def _power_table(g: list[QPoly]) -> list[list[QPoly]]:
    """Rows k = 0..order of coefficients 0..order of g^k/k!, filled for
    k <= 1 only; row 1 is the list `g` itself, not a copy."""
    order = len(g) - 1
    rest = [[()] * (order + 1) for _ in range(order - 1)]
    return [[qpoly(1)] + [()] * order, g] + rest


def _power_column(powers: list[list[QPoly]], n: int) -> None:
    """Fill coefficient n of g^k/k! for k = 2..n, g = powers[1].

    The sum runs over the part of g holding the least of the n labels, so it
    reads only coefficients below n of every row: columns can be filled in
    increasing n while g itself is still being solved for.
    """
    g = powers[1]
    for k in range(2, n + 1):
        acc: QPoly = ()
        for j in range(1, n - k + 2):
            term = _binomial_term(n - 1, j - 1, g[j], powers[k - 1][n - j])
            acc = _qp_add(acc, term)
        powers[k][n] = acc


def _common(a: TruncatedSeries, b: TruncatedSeries):
    order = min(a.order, b.order)
    return a.truncate(order), b.truncate(order)


def make_series(order: int, polys: Sequence[Iterable[int]]) -> TruncatedSeries:
    """Series from explicit coefficient polynomials, padded with zeros."""
    if len(polys) > order + 1:
        raise ValidationError("more coefficients than the truncation order allows")
    rows = [qpoly(p) for p in polys] + [()] * (order + 1 - len(polys))
    return TruncatedSeries(order, tuple(rows))


def series_one(order: int) -> TruncatedSeries:
    return make_series(order, [(1,)])


def _q_sum(m: int) -> QPoly:
    """q + q^2 + ... + q^m."""
    return qpoly((0,) + (1,) * m)


@lru_cache(maxsize=None)
def tree_series(order: int) -> TruncatedSeries:
    """Leaf-count series of admissible trees graded by total exponent.

    It solves lambda = t + sum_{k>=3} (q + ... + q^(k-2)) lambda^k/k!: the
    root of a tree on three or more leaves has k >= 3 subtrees, on a set
    partition of the leaves, and an exponent in 1..k-2.  Coefficient n of
    lambda^k/k! reads only coefficients below n of lambda, so one pass over
    n solves the equation.
    """
    lam: list[QPoly] = [()] * (order + 1)
    powers = _power_table(lam)  # lam is solved in place, as row 1
    for n in range(1, order + 1):
        _power_column(powers, n)
        lam[n] = qpoly(1) if n == 1 else ()
        for k in range(3, n + 1):
            lam[n] = _qp_add(lam[n], _qp_mul(_q_sum(k - 2), powers[k][n]))
    return TruncatedSeries(order, tuple(lam))


def forest_series(order: int) -> TruncatedSeries:
    """Leaf-count series of admissible forests graded by total exponent."""
    return tree_series(order).exp().sub(series_one(order))


def hook_series(order: int) -> TruncatedSeries:
    """Hook-inversion statistic by permutation size, as e^t / (1 - H) with
    H = sum_{k>=2} (q + ... + q^(k-1)) t^k/k!.

    A permutation factors uniquely as an increasing word followed by hooks
    (`typea.hook_factorize`), and the hooks on a k-letter set have one each
    of the inversion counts 1..k-1.  Coefficient 0 is left empty, as in
    `lec_series`, which counts the statistic over the permutations instead.
    """
    # f = e^t + H f, and every coefficient of e^t is 1
    f: list[QPoly] = [qpoly(1)]
    for n in range(1, order + 1):
        acc = qpoly(1)
        for k in range(2, n + 1):
            acc = _qp_add(acc, _binomial_term(n, k, _q_sum(k - 1), f[n - k]))
        f.append(acc)
    return TruncatedSeries(order, ((),) + tuple(f[1:]))


def lec_series(order: int) -> TruncatedSeries:
    """Hook-inversion statistic counted over the permutations, by size: the
    route to `hook_series` by the definition of `lec`.  Coefficient n reads
    `typea.lec_counts(n)`, which counts the permutations of 1..n over the
    relabelled scan states of `typea.hook_factorize`, at most 2^n of
    them; one table (`typea.lec_count_table`) counts every n <= order
    from one memo of those states."""
    return make_series(order, [()] + list(lec_count_table(order)[1:]))


def eulerian_series(order: int) -> TruncatedSeries:
    """Descent-statistic series: coefficient n is `typea.eulerian(n)` with its
    constant 0 dropped, and coefficient 0 is empty."""
    return make_series(order, [()] + [eulerian(n)[1:] for n in range(1, order + 1)])


def toric_poincare_series(order: int) -> TruncatedSeries:
    """Composite series whose n-th coefficient grades the rank n-1 model of
    the equal-coordinate arrangement on the permutation-chamber fan."""
    return eulerian_series(order).compose_in_t(tree_series(order))


def verify_lambda_recurrence(order: int) -> bool:
    """Check the tree series against its defining differential recurrence."""
    lam = tree_series(order + 1)
    lhs = lam.derivative_t()
    lam_n = lam.truncate(order)
    den = lam_n.scale((0, 1)).exp().sub(lam_n.exp().scale((0, 1)))
    return lhs.mul(den) == series_one(order).scale((1, -1))


def verify_main_identity(order: int) -> bool:
    """Check that hook-statistic, descent, and forest-derivative series all
    agree after substituting the tree series.

    Since λ = t + O(t^3) is invertible under composition, this also shows
    hook = descent through t^order: the hook-statistic and descent series
    are equidistributed at the full order.  Only their link to `lec`
    counted by its definition (`lec_series`) stops at t^12 in
    `typea verify`."""
    lam = tree_series(order + 1)
    # the forest series is e^lambda - 1, whose constant vanishes under d/dt
    direct = lam.exp().derivative_t().sub(series_one(order))
    lam = lam.truncate(order)
    left = hook_series(order).compose_in_t(lam)
    right = eulerian_series(order).compose_in_t(lam)
    return left == direct == right
