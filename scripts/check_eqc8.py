"""Equal-coordinate model at n = 8, end to end, checked against the series.

    PYTHONPATH=src python3 scripts/check_eqc8.py

Runs the check of `check_eqc7.py` at order 8: the poset of the
equal-coordinate arrangement of order 8 has 4140 elements and the
characteristic polynomial (q - 2)(q - 3)...(q - 8), its building set
of single-block layers is well connected, the Weyl fan of A7 is simplicial,
smooth and complete with the Eulerian numbers of order 8 as Betti numbers,
and `poincare`, the blowup-recursion oracle and coefficient 8 of
`toric_poincare_series(8)` all equal
(1, 466, 13333, 63173, 63173, 13333, 466, 1).  The per-support checks cover
its 8249 supports and the 14747 admissible forests on 8 leaves.  Prints each
stage's wall time, the closure's solver calls (0), its meets by reduction
modulo Gamma_x (30771) and shortcut hits (60565), the layers it built
(4112: the torus and its 4111 new elements), the plans that took the
saturation route (0), the shared resolver's 871 subfan Betti numbers and
0 subfans, the fan's flag verdict (True) and the total wall time, and
exits 1 on any mismatch.  Three runs took 4.6 to 5.3 s, median 5.2 s:
the poset closure 0.6 s, the building set 0.1 s (the members above each
element read off one transpose of the members' masks), the
characteristic polynomial 0.06 to 0.11 s, the well-connectedness check
0.81 to 0.87 s, `validate` 0.7 to 1.0 s (one walk across the fan's
ridges), `poincare` 0.9 to 1.1 s, the oracle 0.2 s, the per-support
checks 0.9 to 1.2 s; peak RSS 62 MiB (Python 3.11, a shared 2-core host,
where three runs that asked member containment pair by pair took 5.3 to
5.7 s, the building set 0.4 to 0.6 s and `poincare` 1.1 to 1.5 s).
"""

from __future__ import annotations

import sys

from check_eqc7 import check


def main() -> int:
    return check(
        8, 4140, (1, 466, 13333, 63173, 63173, 13333, 466, 1), 8249, 14747
    )


if __name__ == "__main__":
    sys.exit(main())
