"""A fixed reference kernel that measures how fast the machine runs Python now.

The host is shared, and its speed for the same Python code drifts by up to
1.6x over tens of seconds, in wall time and CPU time alike.  Timing the
reference kernel next to each case and dividing by it removes that drift:
a case time ``t`` measured while the kernel took ``k`` seconds is reported as
``t * REF_KERNEL_S / k``, the time the case would take at the speed where the
kernel takes ``REF_KERNEL_S``.  The kernel uses no code of the library, so a
change to the library leaves it alone, and it runs the same kinds of
operations as the library: small integer row reductions, ``Fraction``
arithmetic, tuple keys in dicts and sets, sorting and string joins.

    python3 perfbench/calibrate.py      # prints kernel times, for tuning

Changing the kernel or ``REF_KERNEL_S`` rescales every reported time, so
compare figures only across runs of the same benchmark code.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# the kernel's time at the reference speed: a round figure near its fastest
# time on a 2-core shared x86-64 host under Python 3.11
REF_KERNEL_S = 0.015
ROUNDS = 40


def _row_reduce(mat: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    width = len(mat[0])
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
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[row])]
                    done = done and not mat[i][col]
            if done:
                break
        if row < len(mat) and mat[row][col]:
            row += 1
    return tuple(tuple(r) for r in mat[:row])


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    seen: dict[tuple, int] = {}
    total = Fraction(0)
    words = []
    for r in range(ROUNDS):
        for k in range(12):
            mat = [[(i * 7 + j * (k + 3) + r) % 11 - 5 for j in range(5)] for i in range(4)]
            form = _row_reduce(mat)
            seen[form] = seen.get(form, 0) + 1
            total += Fraction(len(form) + k, k + 2)
        members = {tuple(sorted((i * (r + 1)) % 9 for i in range(k, k + 4))) for k in range(60)}
        words.append(",".join(map(str, sorted(members))))
    return len(seen) + total.numerator % 97 + sum(map(len, words))


def sample() -> float:
    """Seconds one run of the kernel takes now.

    The cyclic garbage collector is off meanwhile: its cost grows with the
    objects the calling process holds, which is not the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    times = [sample() for _ in range(60)]
    q = statistics.quantiles(times, n=4)
    print(f"first {times[0] * 1000:.2f} ms, then median {statistics.median(times[1:]) * 1000:.2f} ms, "
          f"quartiles {q[0] * 1000:.2f}-{q[2] * 1000:.2f} ms")
