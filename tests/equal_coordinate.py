"""Per-support check of the equal-coordinate model against admissible forests.

Shared by `test_equal_coordinate_supports_are_forests_with_eulerian_subfans`
(n = 3..6) and `scripts/check_eqc7.py` (n = 7), which passes the `poincare`
result it has already computed.  `degree_counts`, which turns degrees into a
q-polynomial of counts, is also read by `tests/test_series.py`, and
`characteristic_polynomial`, the poset's chi(q) by its Moebius function, by
`tests/test_layers.py` and both check scripts, which compare it with the
closed form (q - 2)(q - 3)...(q - n) at n = 7 and 8.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

from wondertoric.series import _qp_mul, lec_series, qpoly
from wondertoric.typea import enumerate_forests, equal_coordinate_layer, eulerian


def degree_counts(degrees) -> tuple[int, ...]:
    """The q-polynomial whose coefficient of q^d counts the d in `degrees`."""
    counts = Counter(degrees)
    return tuple(counts[d] for d in range(max(counts, default=-1) + 1))


def characteristic_polynomial(poset) -> list[int]:
    """Coefficients, of q^0 up, of chi(q) = sum over the elements x of
    mu(T, x) (q - 1)^dim x.  The Moebius function is read off `below`:
    mu(T, T) = 1, and mu(T, x) is minus the sum of mu(T, y) over the y
    properly containing x, which come before x.  Each element adds its mu
    into that sum for every element it properly contains, once it is known,
    so the work is one step per comparable pair (167894 at n = 8), not one
    per pair of elements."""
    r = poset.torus_dim
    above = [0] * len(poset.elements)  # sum of mu(T, y) over the y seen so far
    coeffs = [0] * (r + 1)
    for j, (x, mask) in enumerate(zip(poset.elements, poset.below)):
        mu = -above[j] if j else 1
        bits = bin(mask)[:1:-1]  # bits[i] is bit i of the mask
        i = bits.find("1", j + 1)
        while i >= 0:
            above[i] += mu
            i = bits.find("1", i + 1)
        d = r - x.rank
        for k in range(d + 1):
            coeffs[k] += mu * comb(d, k) * (-1) ** (d - k)
    return coeffs


def check_supports(n, building, result) -> tuple[int, int]:
    """Assert that each support of `result`, the `poincare` result of the
    equal-coordinate building set `building` of order `n` on the Weyl fan of
    type A, is a laminar family of blocks of 1..n, with subfan Betti numbers
    the Eulerian numbers of its component count c, and that the multiset of
    (degree, c) over the admissible functions is that of the admissible
    forests on n leaves.  Read through `psi`, each row's contribution is the
    sum over its functions f of q^deg(f) times the hook-statistic polynomial
    of c letters, `lec_series(n).coefficient(c)`.  Returns the numbers of
    support rows and forests."""
    hooks = lec_series(n)
    # a support's members are single blocks of 1..n; member indices follow
    # Layer.sort_key, so each member is matched to its block by its layer
    block_of = {
        equal_coordinate_layer(n, group): frozenset(group)
        for size in range(2, n + 1)
        for group in combinations(range(1, n + 1), size)
    }
    pairs = Counter()
    for row in result.rows:
        blocks = [block_of[building.members[i]] for i in row.support]
        # laminar: two blocks are nested or disjoint, so they form a forest
        for a, b in combinations(blocks, 2):
            assert a <= b or b <= a or not a & b, (row.support, a, b)
        maximal = [a for a in blocks if not any(a < b for b in blocks)]
        components = len(maximal) + n - len(frozenset().union(*blocks))
        assert row.subfan_betti == eulerian(components)[1:], (row.support, components)
        degrees = degree_counts(f.degree for f in row.functions)
        hook = hooks.coefficient(components)
        assert qpoly(row.contribution) == _qp_mul(degrees, hook), row.support
        pairs.update((f.degree, components) for f in row.functions)
    forests = enumerate_forests(n)
    assert pairs == Counter((f.degree, f.component_count) for f in forests), n
    return len(result.rows), len(forests)
