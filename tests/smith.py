"""Test-side references built on Smith forms.

The library answers split tests and kernels from Hermite forms, and reads
cohomology classes off a Hermite kernel; these are the Smith-form routes it
used before, kept as references to compare against, with the matrix product
that checks a Smith decomposition.
"""

from __future__ import annotations

from typing import Sequence

from wondertoric.errors import MathAssertionError
from wondertoric.lattice import IntMatrix, Sublattice, first_split_basis, smith_normal_form
from wondertoric.presentation import _face_monomials, _relation_rows


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """Matrix product a @ b over Z."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    cols = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def split_rank(rows: Sequence[Sequence[int]]) -> int | None:
    """Rank of the row lattice when it is a split summand of Z^n (every
    nonzero Smith invariant is 1), else None; 0 for no rows.  Unlike
    `lattice.splits`, dependent rows may split."""
    if not rows:
        return 0
    snf = smith_normal_form(rows)
    return snf.rank if snf.unit_invariants else None


def smith_kernel(lat: Sublattice) -> Sublattice:
    """{v in Z^n : <g, v> = 0 for every g in `lat`}: the columns of the Smith
    form's right transform past the nonzero invariants."""
    n = lat.ambient_rank
    if not lat.basis:
        return Sublattice.full(n)
    snf = smith_normal_form(lat.basis)
    cols = [i for i in range(n) if i >= len(snf.diagonal) or snf.diagonal[i] == 0]
    return Sublattice.from_rows(n, [tuple(snf.right[r][c] for r in range(n)) for c in cols])


def smith_basis_in_degree(fan, degree: int, rank: int) -> tuple[tuple[int, ...], ...]:
    """`presentation._basis_in_degree` by one Smith form of the relation rows:
    when every invariant is 1, of rank k, v -> (v @ right)[k:] maps
    Z^monomials onto Z^rank with the relations as kernel, so a monomial's
    class is its row of `right` past k."""
    if degree == 0:
        return ((),)
    monomials = _face_monomials(fan, degree)
    cols = {m: i for i, m in enumerate(monomials)}
    snf = smith_normal_form(_relation_rows(fan, degree, cols))
    if len(monomials) - snf.rank != rank:
        raise MathAssertionError("relation rank disagrees with the Betti number")
    classes = [r[snf.rank :] for r in snf.right] if snf.unit_invariants else []
    found = first_split_basis(classes, rank)
    if found is None:
        raise MathAssertionError(f"no split monomial basis found in degree {degree}")
    return tuple(monomials[i] for i in found)
