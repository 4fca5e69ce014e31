"""Exact integer linear algebra: Smith and Hermite normal forms,
determinants, sublattices of Z^n.

Everything here is plain Python ints, no floats.  Matrices are sequences of
rows.  Sublattices are stored via their row Hermite normal form, which makes
equality of lattices structural equality of the dataclass; membership and
coordinates are back-substitution on that basis.  Hermite forms answer the
split test (`splits`); one Hermite form beside an identity block gives both
the image and the kernel of a map (`image_and_kernel`, which `kernel_lattice`
reads).  `determinant` is Bareiss's fraction-free elimination.  A Smith form
serves only the cached verdict `is_split_summand`, and only for a Hermite
basis with a pivot above 1: unit pivots (`unit_pivots`) decide it without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import ValidationError

IntMatrix = tuple[tuple[int, ...], ...]


def _freeze(rows: Iterable[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v: Sequence[int]) -> bool:
    return vector_gcd(v) == 1


@dataclass(frozen=True)
class SmithForm:
    """Decomposition left @ a @ right = diag(diagonal), transforms unimodular.

    diagonal has length min(m, n), entries nonnegative, each dividing the next.
    """

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    @property
    def unit_invariants(self) -> bool:
        """Every nonzero invariant is 1: the rows span a split summand."""
        return all(d <= 1 for d in self.diagonal)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form with deterministic pivoting.

    The pivot at each stage is the smallest nonzero |entry| of the working
    submatrix, ties broken row-major, so the transforms (not just the
    diagonal) are reproducible across runs.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    mat = [list(map(int, row)) for row in a]
    left = [list(row) for row in identity_matrix(m)]
    right = [list(row) for row in identity_matrix(n)]

    def swap_rows(i, j):
        if i != j:
            mat[i], mat[j] = mat[j], mat[i]
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        if i != j:
            for row in mat:
                row[i], row[j] = row[j], row[i]
            for row in right:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]
        left[dst] = [x + q * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, q):
        for row in mat:
            row[dst] += q * row[src]
        for row in right:
            row[dst] += q * row[src]

    def negate_row(i):
        mat[i] = [-x for x in mat[i]]
        left[i] = [-x for x in left[i]]

    steps = min(m, n)
    for s in range(steps):
        while True:
            pivot = None
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    v = abs(mat[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(pivot[0], s)
            swap_cols(pivot[1], s)
            dirty = False
            for i in range(s + 1, m):
                if mat[i][s]:
                    add_row(s, i, -(mat[i][s] // mat[s][s]))
                    dirty = dirty or bool(mat[i][s])
            for j in range(s + 1, n):
                if mat[s][j]:
                    add_col(s, j, -(mat[s][j] // mat[s][s]))
                    dirty = dirty or bool(mat[s][j])
            if dirty:
                continue
            d = mat[s][s]
            culprit = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if mat[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, s, 1)
        if mat[s][s] < 0:
            negate_row(s)

    diag = tuple(mat[i][i] for i in range(steps))
    return SmithForm(diagonal=diag, left=_freeze(left), right=_freeze(right))


def hermite_form(rows: Sequence[Sequence[int]], width: int | None = None) -> IntMatrix:
    """Canonical row Hermite normal form, zero rows dropped.

    Pivots are positive and strictly to the right as rows descend; entries
    above a pivot are reduced into [0, pivot).  Two row sets generate the same
    sublattice of Z^n iff their Hermite forms are equal.  Each step's pivot
    is the first row of least |entry| in its column; the scan for it stops
    at the first +-1, which nothing beats.
    """
    if width is None:
        if not rows:
            raise ValueError("width required for an empty generating set")
        width = len(rows[0])
    mat = [list(map(int, r)) for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError("ragged matrix")
    row = 0
    for col in range(width):
        while True:
            p = best = 0
            for i in range(row, len(mat)):
                a = abs(mat[i][col])
                if a and (a < best or not best):
                    p, best = i, a
                    if a == 1:
                        break
            if not best:
                break
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
            if mat[row][col] < 0:
                mat[row] = [-x for x in mat[row]]
            for i in range(row):
                q = mat[i][col] // mat[row][col]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[row])]
            row += 1
    return _freeze(mat[:row])


@lru_cache(maxsize=None)
def _smith_of(frozen: IntMatrix, width: int) -> SmithForm:
    if not frozen:
        return SmithForm(diagonal=(), left=(), right=identity_matrix(width))
    return smith_normal_form(frozen)


def splits(rows: Sequence[Sequence[int]]) -> bool:
    """True when `rows` are independent and span a split summand of Z^n;
    True for no rows.

    That holds exactly when the k rows have a right inverse over Z, that is
    when their columns span Z^k: when the columns' Hermite form is the
    identity."""
    k = len(rows)
    return hermite_form(list(zip(*rows, strict=True)), k) == identity_matrix(k)


def unit_pivots(basis: IntMatrix) -> list[int] | None:
    """The pivot columns of a Hermite basis whose rows all lead with 1, in
    row order; None when some row leads with more."""
    pivots = []
    for row in basis:
        p = next(j for j, a in enumerate(row) if a)
        if row[p] != 1:
            return None
        pivots.append(p)
    return pivots


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix; 1 for the 0 x 0 matrix.

    Bareiss's fraction-free elimination (Cohen, GTM 138, section 2.2):
    after step k every entry right of and below the pivot is a
    (k + 1) x (k + 1) minor, so dividing by the previous pivot is exact.  A
    zero pivot is swapped with a later row that is nonzero in its column, or
    else the matrix is singular."""
    mat = [list(map(int, row)) for row in rows]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap], sign = mat[swap], mat[k], -sign
        p, top = mat[k][k], mat[k][k + 1 :]
        for row in mat[k + 1 :]:
            c = row[k]
            row[k + 1 :] = [(x * p - c * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = p
    return sign * mat[-1][-1] if n else 1


def image_and_kernel(rows: Sequence[Sequence[int]], n: int) -> tuple[IntMatrix, IntMatrix]:
    """Hermite bases of the image in Z^m, m = len(rows), and of the kernel in
    Z^n of v -> (<g, v> for g in rows).

    Row-reducing [rows^T | I_n] to Hermite form applies a unimodular
    transform, recorded in the last n columns.  The rows with a pivot in the
    first m columns come first, and their first m entries are the Hermite
    form of the columns of `rows`; the last n entries of the other rows are a
    Hermite basis of the kernel.  The rows span a split summand of Z^n
    exactly when the image is one of Z^m: both have the same nonzero Smith
    invariants."""
    m, eye = len(rows), identity_matrix(n)
    reduced = hermite_form([tuple(g[i] for g in rows) + eye[i] for i in range(n)], m + n)
    r = sum(1 for row in reduced if any(row[:m]))
    return tuple(row[:m] for row in reduced[:r]), tuple(row[m:] for row in reduced[r:])


def first_split_basis(
    pool: Sequence[Sequence[int]], size: int, prefix: Sequence[Sequence[int]] = ()
) -> tuple[int, ...] | None:
    """Pool indices of the first rows, in depth-first pool order, that with
    `prefix` span a split summand of rank `size`; None if no rows do.

    Every partial choice must span a split summand of full rank too, and a
    branch stops once too few rows remain.  Where taking the first fitting
    row at each step succeeds, that greedy choice is the one returned."""
    need, chosen, idx = size - len(prefix), [], 0
    while len(chosen) < need:
        if len(pool) - idx < need - len(chosen):
            if not chosen:
                return None
            idx = chosen.pop() + 1
            continue
        rows = [*prefix, *(pool[i] for i in chosen), pool[idx]]
        if splits(rows):
            chosen.append(idx)
        idx += 1
    return tuple(chosen)


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of Z^n in canonical form: the constructor replaces the
    given generators by their Hermite form, so equal lattices compare equal."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        if self.ambient_rank < 0:
            raise ValidationError("ambient rank must be nonnegative")
        for row in self.basis:
            if len(row) != self.ambient_rank:
                raise ValidationError("generator length differs from ambient rank")
        object.__setattr__(self, "basis", hermite_form(self.basis, self.ambient_rank))

    @classmethod
    def from_rows(cls, ambient_rank: int, rows: Sequence[Sequence[int]]) -> Sublattice:
        return cls(ambient_rank, rows)

    @classmethod
    def from_hermite_basis(cls, ambient_rank: int, basis: IntMatrix) -> Sublattice:
        """The sublattice of `basis`, which the caller has already put in
        canonical Hermite form; it is kept as given, not reduced again."""
        lattice = object.__new__(cls)
        object.__setattr__(lattice, "ambient_rank", ambient_rank)
        object.__setattr__(lattice, "basis", basis)
        return lattice

    @classmethod
    def zero(cls, ambient_rank: int) -> Sublattice:
        return cls(ambient_rank, ())

    @classmethod
    def full(cls, ambient_rank: int) -> Sublattice:
        return cls(ambient_rank, identity_matrix(ambient_rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer x with x @ basis == v, or None if v is not in the lattice.

        Back-substitution down the Hermite rows: each row's pivot divides
        what is left of v in its column exactly, or v is outside, and
        nothing may be left at the end."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector has wrong length")
        rest = list(v)
        x = []
        for row in self.basis:
            pivot = next(j for j, a in enumerate(row) if a)
            q, r = divmod(rest[pivot], row[pivot])
            if r:
                return None
            x.append(q)
            if q:
                rest = [a - q * b for a, b in zip(rest, row)]
        return None if any(rest) else tuple(x)

    def contains_vector(self, v: Sequence[int]) -> bool:
        return self.solve(v) is not None

    def coordinates_of(self, v: Sequence[int]) -> tuple[int, ...]:
        x = self.solve(v)
        if x is None:
            raise ValidationError(f"{tuple(v)} is not in the sublattice")
        return x

    def contains(self, other: Sublattice) -> bool:
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other: Sublattice) -> Sublattice:
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient ranks differ")
        return Sublattice.from_rows(self.ambient_rank, self.basis + other.basis)

    def is_split_summand(self) -> bool:
        """True when the lattice is a split summand of Z^n.

        A Hermite basis whose rows all lead with 1 is one: with the unit
        vectors of its non-pivot columns it forms a unitriangular matrix.
        Any other basis is read off its cached Smith form."""
        if unit_pivots(self.basis) is not None:
            return True
        return _smith_of(self.basis, self.ambient_rank).unit_invariants

    def kernel_lattice(self) -> Sublattice:
        """{v in Z^n : <g, v> = 0 for every generator g}; always saturated.
        `image_and_kernel` gives its Hermite basis, kept as it is."""
        n = self.ambient_rank
        return Sublattice.from_hermite_basis(n, image_and_kernel(self.basis, n)[1])

    def saturation(self) -> Sublattice:
        """Smallest split summand of Z^n containing this lattice."""
        if self.is_split_summand():
            return self
        return self.kernel_lattice().kernel_lattice()
