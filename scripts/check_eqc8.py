"""Equal-coordinate model at n = 8, end to end, checked against the series.

    PYTHONPATH=src python3 scripts/check_eqc8.py

Runs the check of `check_eqc7.py` at order 8: the poset of the
equal-coordinate arrangement of order 8 has 4140 elements, its building set
of single-block layers is well connected, the Weyl fan of A7 is simplicial,
smooth and complete with the Eulerian numbers of order 8 as Betti numbers,
and `poincare`, the blowup-recursion oracle and coefficient 8 of
`toric_poincare_series(8)` all equal
(1, 466, 13333, 63173, 63173, 13333, 466, 1).  The per-support checks cover
its 8249 supports and the 14747 admissible forests on 8 leaves.  Prints each
stage's wall time, the closure's solver calls (0), its meets by reduction
modulo Gamma_x (30771) and shortcut hits (60565), the plans that took the
saturation route (0), the shared resolver's 871 subfan Betti numbers and
0 subfans, the fan's flag verdict (True) and the total wall time, and
exits 1 on any mismatch.  Three runs took 8.4 to 8.7 s, median 8.6 s:
the poset closure 0.9 to 1.1 s, the building set 0.4 s, the
well-connectedness check 0.66 to 0.69 s, `validate` 2.4 to 2.7 s,
`poincare` 2.4 to 2.5 s, the oracle 0.2 s, the per-support checks 0.9 s
(Python 3.11, a shared 2-core host); peak RSS 142 MiB.
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
