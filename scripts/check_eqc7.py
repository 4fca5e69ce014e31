"""Equal-coordinate model at n = 7, end to end, checked against the series.

    PYTHONPATH=src python3 scripts/check_eqc7.py

Builds the poset of the equal-coordinate arrangement of order 7 and its
building set of single-block layers, checks that the building set is well
connected, then validates the Weyl fan of A6 as its own stage: simplicial,
smooth and complete, with Betti numbers the Eulerian numbers of order 7.
It then checks that the poset has 877 elements, that its characteristic
polynomial sum_x mu(T, x) (q - 1)^dim x, read off the poset by
`characteristic_polynomial` of `tests/equal_coordinate.py` with no solver,
is (q - 2)(q - 3)...(q - 7) (a point off the arrangement is 7 distinct
nonzero coordinates modulo the diagonal), and that `poincare`, the
blowup-recursion oracle and coefficient 7 of `toric_poincare_series(7)` all
equal (1, 219, 3292, 7723, 3292, 219, 1), on that fan.  On the `poincare`
result it already has, it runs the
per-support checks of `tests/equal_coordinate.py`, which the tier-1 tests run
for n = 3..6: each of the 1031 supports is a laminar family of blocks, its
subfan's Betti numbers are the Eulerian numbers of its component count c, and
the (degree, c) pairs over its admissible functions are those of the 1630
admissible forests on 7 leaves, and its contribution is, summed over its
functions f, q^deg(f) times the hook-statistic polynomial of c letters.
Prints each stage's wall time, the poset closure, the building set and the
characteristic polynomial apart, then the peak RSS of the process, the
closure's solver calls (counted by wrapping `wondertoric.layers._solve_keys`,
which the closure calls for the keys of a meet's components; 0, since every equal-coordinate lattice has a Hermite basis with unit
pivots and every atom has rank 1, so each meet is one reduction modulo
Gamma_x), the meets
that reduction answered (5298 at n = 7) and the shortcut hits, whose meet
was already known (8835; both counted by wrapping the methods of
`layers._RankOneMeets`), the layers the closure built (856, counted by
wrapping `Layer.__post_init__`: the torus and one per element that is
neither it nor an atom, since the closure keys its elements by integers
and builds a layer only for a new key), the hits of the solver's bounded
plan cache, how many plans took the saturation route (counted by wrapping
`Sublattice.saturation`; 0), what the fan's shared equal-sign resolver
holds: lattices found, subfan Betti numbers, subfans and extensions
(`poincare` and the oracle share it and read only its Betti memo, so on
a flag fan no lattice is restricted: 205 Betti numbers and 0 subfans),
the fan's flag verdict (`Fan.is_flag`, an attribute the fan computes once;
True), and last the total wall time, counted from before `wondertoric` is
imported; exits 1 on any mismatch.  Three runs took 0.6 to 0.8 s: the
poset closure 0.1 s, the building set under 0.05 s, the characteristic
polynomial 0.01 s, the well-connectedness check 0.03 s, `validate` 0.2 s,
`poincare` 0.1 s and the per-support checks 0.1 s (Python 3.11, a
shared 2-core host), too long for the tier-1 tests, which stop at n = 6.  The
stages are one function, `check`, which `check_eqc8.py` runs at n = 8.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()  # the total covers importing the library

from wondertoric import (  # noqa: E402
    betti_numbers,
    eulerian,
    is_well_connected,
    layers,
    poincare,
    rank_via_blowup_recursion,
    toric_poincare_series,
    validate,
    weyl_fan_A,
)
from wondertoric import typea  # noqa: E402
from wondertoric.fans import resolve_bases  # noqa: E402
from wondertoric.lattice import Sublattice  # noqa: E402
from wondertoric.typea import minimal_equal_coordinate_building  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from equal_coordinate import characteristic_polynomial, check_supports  # noqa: E402
from wondertoric.series import _qp_mul  # noqa: E402

def check(n, elements, total, support_rows, forests) -> int:
    """Run every stage of the order-`n` check against the expected poset
    size `elements`, graded total `total`, number of support rows
    `support_rows` and number of admissible forests `forests`; print each
    stage's time and each compared value, and return 1 on any mismatch."""
    failures = []

    def expect(what, got, want):
        print(f"{what}: {got}")
        if got != want:
            failures.append(f"{what}: got {got!r}, expected {want!r}")

    # time the closure, and count the solver calls, the rank-1 reductions,
    # the meets they answer without the solver, the layers the closure
    # builds and the plans that take the saturation route, by wrapping the
    # names they are looked up under
    solved, reduced, meets, direct, built, saturated = [0], [0], [0], [0], [0], [0]
    closure_s = [0.0]
    solve, saturation, closure = layers._solve_keys, Sublattice.saturation, typea.poset_of_layers
    post_init = layers.Layer.__post_init__
    reduce, meet = layers._RankOneMeets.reduce, layers._RankOneMeets.meet

    def counted(*args):
        solved[0] += 1
        return solve(*args)

    def counted_reduce(self, chi):
        reduced[0] += 1
        return reduce(self, chi)

    def counted_meet(self, *args):
        meets[0] += 1
        comps = meet(self, *args)
        direct[0] += comps is not None
        return comps

    def counted_saturation(lattice):
        saturated[0] += 1
        return saturation(lattice)

    def counted_post_init(layer):
        built[0] += 1
        post_init(layer)

    def timed_closure(*args):
        layers.Layer.__post_init__ = counted_post_init
        begin = perf_counter()
        try:
            return closure(*args)
        finally:
            closure_s[0] = perf_counter() - begin
            layers.Layer.__post_init__ = post_init

    start = perf_counter()
    layers._solve_keys, Sublattice.saturation = counted, counted_saturation
    layers._RankOneMeets.reduce, layers._RankOneMeets.meet = counted_reduce, counted_meet
    typea.poset_of_layers = timed_closure
    try:
        poset, building = minimal_equal_coordinate_building(n)
    finally:
        layers._solve_keys, Sublattice.saturation = solve, saturation
        layers._RankOneMeets.reduce, layers._RankOneMeets.meet = reduce, meet
        typea.poset_of_layers = closure
    building_s = perf_counter() - start - closure_s[0]
    fan = weyl_fan_A(n)
    print(f"poset closure: {closure_s[0]:.1f} s")
    print(f"building set: {building_s:.1f} s")
    start = perf_counter()
    chi = tuple(characteristic_polynomial(poset))
    print(f"characteristic polynomial: {perf_counter() - start:.2f} s")
    start = perf_counter()
    connect = is_well_connected(building)
    print(f"well-connectedness: {perf_counter() - start:.2f} s")
    start = perf_counter()
    report = validate(fan)
    print(f"fan validation: {perf_counter() - start:.1f} s")
    start = perf_counter()
    result = poincare(building, fan)
    print(f"poincare: {perf_counter() - start:.1f} s")
    start = perf_counter()
    oracle = rank_via_blowup_recursion(building, fan)
    print(f"blowup oracle: {perf_counter() - start:.1f} s")
    start = perf_counter()
    try:
        counts = check_supports(n, building, result)
    except AssertionError as exc:
        counts = f"failed: {exc}"
    print(f"per-support checks: {perf_counter() - start:.1f} s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MiB")
    print(f"closure solver calls: {solved[0]}")
    print(f"closure direct meets: {direct[0]}")
    # a reduction that reaches no `meet` is a shortcut hit
    print(f"closure shortcut hits: {reduced[0] - meets[0]}")
    print(f"closure layers built: {built[0]}")
    print(f"layers._plan: {layers._plan.cache_info()}")
    print(f"plans by the saturation route: {saturated[0]}")
    shared = resolve_bases(fan, fan.ambient_dim)
    print(
        f"shared equal-sign resolver: {len(shared._found)} lattices, "
        f"{len(shared._betti)} subfan Betti numbers, {len(shared._subfans)} "
        f"subfans, {len(shared._extensions)} extensions"
    )
    print(f"fan is flag: {fan.is_flag}")
    expect(
        "simplicial, smooth, complete",
        (report.simplicial, report.smooth, report.complete),
        (True, True, True),
    )
    expect("fan Betti numbers", betti_numbers(fan), eulerian(n)[1:])
    expect("poset elements", len(poset.elements), elements)
    # a point off the arrangement is n distinct nonzero coordinates modulo
    # the diagonal: chi(q) = (q - 2)(q - 3)...(q - n), ascending in q
    closed = (1,)
    for a in range(2, n + 1):
        closed = _qp_mul(closed, (-a, 1))
    expect("chi(q) = (q - 2)...(q - n)", chi, closed)
    expect("well connected", connect.ok, True)
    expect("poincare", result.total, total)
    expect("support rows and admissible forests", counts, (support_rows, forests))
    expect("blowup oracle", oracle, total)
    expect(f"series coefficient {n}", toric_poincare_series(n).coefficient(n), total)
    for failure in failures:
        print(f"MISMATCH {failure}", file=sys.stderr)
    print(f"total: {perf_counter() - STARTED:.1f} s")
    return 1 if failures else 0


def main() -> int:
    return check(7, 877, (1, 219, 3292, 7723, 3292, 219, 1), 1031, 1630)


if __name__ == "__main__":
    sys.exit(main())
