"""Rational fans: validation, face counts, Betti numbers, subfans.

A fan is stored as primitive integer rays plus maximal cones given by 0-based
ray index tuples; the constructor refuses any other rays.  Simpliciality,
smoothness and completeness are checked, not assumed.  The tables read off
one fan (its kinds, faces, ray bitmasks, coordinate columns, flag verdict
and minimal nonfaces) are cached attributes of the `Fan` itself, computed on
first use; reading one hashes nothing, and an equal fan built separately
computes its own.  A character's pairings with the rays are a sum of the
columns its nonzero coordinates pick, and a flag fan's minimal nonfaces are
the pairs of rays its neighbour masks leave apart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, permutations, product
from math import comb
from operator import add, and_, sub
from typing import Iterable

from .errors import MathAssertionError, ValidationError
from .lattice import (
    IntMatrix,
    Sublattice,
    determinant,
    first_split_basis,
    hermite_form,
    identity_matrix,
    is_primitive,
    splits,
    vector_gcd,
)

EQUAL_SIGN_BOUND = 8  # default coefficient height of the equal-sign basis search


@dataclass(frozen=True)
class Fan:
    """Rays and maximal cones, checked when the fan is built: the rays are
    primitive, distinct and each in a maximal cone, and each cone is a
    strictly increasing tuple of ray indices."""

    ambient_dim: int
    rays: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ValidationError("ambient dimension must be nonnegative")
        for ray in self.rays:
            if len(ray) != self.ambient_dim:
                raise ValidationError("ray length differs from ambient dimension")
        for cone in self.maximal_cones:
            if list(cone) != sorted(set(cone)):
                raise ValidationError("cone indices must be strictly increasing")
            for i in cone:
                if not 0 <= i < len(self.rays):
                    raise ValidationError(f"ray index {i} out of range")
        for i, ray in enumerate(self.rays):
            if not is_primitive(ray):
                raise ValidationError(
                    f"ray {i} = {ray} is not primitive (gcd {vector_gcd(ray)})"
                )
        if len(set(self.rays)) != len(self.rays):
            raise ValidationError("duplicate rays")
        missing = sorted(set(range(len(self.rays))).difference(*self.maximal_cones))
        if missing:
            raise ValidationError(f"rays {missing} are not used by any maximal cone")

    @classmethod
    def make(cls, ambient_dim, rays, maximal_cones) -> Fan:
        """Build a fan, canonicalizing cone order (ray order is preserved:
        ray indices are meaningful labels)."""
        cones = sorted(set(tuple(sorted(set(c))) for c in maximal_cones))
        return cls(
            ambient_dim,
            tuple(tuple(int(x) for x in r) for r in rays),
            tuple(cones),
        )

    @cached_property
    def kinds(self) -> tuple[bool, bool, bool]:
        """(simplicial, smooth, complete) from one walk over the maximal cones.

        A cone of n rays in dimension n is simplicial when the rays'
        determinant is nonzero, and smooth when it is +-1 (Fulton,
        Introduction to Toric Varieties, 2.1).  Any other cone takes one
        Hermite form of its ray columns: it is simplicial when the form has a
        row per ray, and smooth when the form is the identity, that is when
        the rays also span a split summand.  A simplicial fan is complete when
        it has a cone, its cones are all full-dimensional, each ridge lies on
        exactly two of them, and the cones are connected through shared
        ridges.  Each cone is filed under its ridges once; those pairs serve
        both tests."""
        cones, n = self.maximal_cones, self.ambient_dim
        smooth = pure = True
        on_ridge: dict[tuple[int, ...], list[int]] = {}
        for idx, cone in enumerate(cones):
            rays = [self.rays[i] for i in cone]
            if len(cone) == n:
                det = determinant(rays)
                simplicial, unimodular = det != 0, abs(det) == 1
            else:
                columns = hermite_form(list(zip(*rays)), len(cone))
                simplicial = len(columns) == len(cone)
                unimodular = columns == identity_matrix(len(cone))
            if not simplicial:
                return False, False, False
            smooth = smooth and unimodular
            pure = pure and len(cone) == n
            # in dimension 0 the one cone () has no ridges
            for ridge in combinations(cone, n - 1) if n else ():
                on_ridge.setdefault(ridge, []).append(idx)
        if not (cones and pure):
            return True, smooth, False
        neighbors: list[list[int]] = [[] for _ in cones]
        for pair in on_ridge.values():
            if len(pair) != 2:
                return True, smooth, False
            a, b = pair
            neighbors[a].append(b)
            neighbors[b].append(a)
        seen, stack = {0}, [0]
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return True, smooth, len(seen) == len(cones)

    @cached_property
    def faces(self) -> frozenset[tuple[int, ...]]:
        """Every face of every maximal cone, as sorted ray index tuples.

        Includes the zero cone ().  Requires the fan to be simplicial so that
        faces are exactly the subsets of each maximal cone's ray set.
        """
        if not self.kinds[0]:
            raise ValidationError("fan is not simplicial; face lattice unsupported")
        faces: set[tuple[int, ...]] = set()
        for cone in self.maximal_cones:
            for k in range(len(cone) + 1):
                faces.update(combinations(cone, k))
        return frozenset(faces)

    @cached_property
    def cone_masks(self) -> tuple[int, ...]:
        """The maximal cones as bitmasks of their rays (bit i for ray i)."""
        return tuple(sum(1 << i for i in cone) for cone in self.maximal_cones)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The rays' coordinate columns: entry i of column j is ray i's
        coordinate j."""
        return tuple(tuple(ray[j] for ray in self.rays) for j in range(self.ambient_dim))

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """For each ray the mask of the rays that share a maximal cone with
        it, itself included."""
        neighbours = [0] * len(self.rays)
        for cone, mask in zip(self.maximal_cones, self.cone_masks):
            for i in cone:
                neighbours[i] |= mask
        return tuple(neighbours)

    @cached_property
    def is_flag(self) -> bool:
        """True if the faces of the simplicial fan are exactly the cliques
        of its rays' neighbour graph, that is if its minimal nonfaces are all
        pairs (Stanley, Combinatorics and Commutative Algebra).  Every face
        is a clique, so this holds when both have the same count in each
        size.  Then every subfan on a set of rays is flag too, and its faces
        are the cliques among those rays."""
        everything = (1 << len(self.rays)) - 1
        return clique_counts(self.neighbours, everything) == f_vector(self)

    @cached_property
    def minimal_nonfaces(self) -> tuple[tuple[int, ...], ...]:
        """Smallest ray sets spanning no cone; all proper subsets span one.

        Each is a nonempty face plus one ray above the face's largest index,
        sorted by size, then as tuples.  A pair is two rays in no common cone
        (`Fan` puts every ray in a cone), and on a flag fan those pairs are
        all of them.  On any other fan a larger set has all its pairs in
        cones, so a face F is grown only by the rays above F's largest index
        that share a cone with every ray of F."""
        neighbours = self.neighbours
        found = [
            (a, b)
            for a, b in combinations(range(len(self.rays)), 2)
            if not neighbours[a] >> b & 1
        ]
        if self.is_flag:
            return tuple(found)
        faces = self.faces
        for face in faces:
            if len(face) < 2:
                continue
            # -(2 << k) clears bits 0..k: the common neighbours above face[-1]
            above = reduce(and_, (neighbours[i] for i in face)) & -(2 << face[-1])
            for r in ray_indices(above):
                grown = face + (r,)
                if grown not in faces and all(
                    grown[:k] + grown[k + 1 :] in faces for k in range(len(face))
                ):
                    found.append(grown)
        return tuple(sorted(found, key=lambda t: (len(t), t)))


@dataclass(frozen=True)
class FanReport:
    simplicial: bool
    smooth: bool
    complete: bool
    f_vector: tuple[int, ...] | None  # None unless simplicial


def validate(fan: Fan) -> FanReport:
    """The simplicial/smooth/complete/f-vector report of a fan, whose rays
    `Fan` checked when it was built.  Simpliciality, smoothness and
    completeness are reported, not required; the f-vector is None on a fan
    that is not simplicial."""
    simplicial, smooth, complete = fan.kinds
    return FanReport(
        simplicial, smooth, complete, f_vector(fan) if simplicial else None
    )


def f_vector(fan: Fan) -> tuple[int, ...]:
    """(f_0, f_1, ..., f_d): number of cones of each dimension.

    f_0 = 1 counts the zero cone, a face of every maximal cone; a fan with
    no maximal cones has no zero cone either, and its f-vector is (0,)."""
    counts = Counter(len(c) for c in fan.faces)
    top = max(counts) if counts else 0
    return tuple(counts.get(k, 0) for k in range(top + 1))


def _require_smooth_complete(fan: Fan, what: str) -> None:
    """The one test that `fan` is smooth and complete, as `what` require."""
    _, smooth, complete = fan.kinds
    if not smooth:
        raise ValidationError(f"{what} require a smooth fan")
    if not complete:
        raise ValidationError(f"{what} require a complete fan")


@lru_cache(maxsize=None)
def betti_numbers(fan: Fan) -> tuple[int, ...]:
    """Even Betti numbers (b_0, b_2, ..., b_2n) of the smooth complete toric
    variety of the fan; odd ones vanish."""
    _require_smooth_complete(fan, "Betti numbers")
    return _betti_of_f_vector(f_vector(fan), fan.ambient_dim)


def _betti_of_f_vector(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Even Betti numbers of a smooth complete toric variety of dimension n
    from its fan's f-vector (Fulton, Introduction to Toric Varieties, 5.2):
    b_2k = sum over i >= k of (-1)^(i-k) C(i, k) f_(n-i).  Checked to sum
    to the top face count and to be palindromic."""
    f = f + (0,) * (n + 1 - len(f))
    betti = tuple(
        sum((-1) ** (i - k) * comb(i, k) * f[n - i] for i in range(k, n + 1))
        for k in range(n + 1)
    )
    if sum(betti) != f[n]:
        raise MathAssertionError("Betti numbers do not sum to the top face count")
    if betti != betti[::-1]:
        raise MathAssertionError(f"Betti numbers {betti} are not palindromic")
    return betti


def ray_indices(mask: int):
    """The rays of a ray bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def clique_counts(neighbours: tuple[int, ...], within: int) -> tuple[int, ...]:
    """(c_0, c_1, ...): the number of cliques of each size among the rays of
    the bitmask `within`, in the graph joining ray i to the rays of
    `neighbours[i]`, as `Fan.neighbours` gives them.  A depth-first walk grows
    each clique only by common neighbours above its largest ray, so it meets
    each clique once; the empty clique is counted."""
    counts = [1]

    def grow(size: int, candidates: int) -> None:
        if len(counts) == size:
            counts.append(0)
        counts[size] += candidates.bit_count()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            common = candidates & neighbours[low.bit_length() - 1]
            if common:
                grow(size + 1, common)

    if within:
        grow(1, within)
    return tuple(counts)


def pairings(fan: Fan, chi) -> tuple[int, ...]:
    """The pairings <chi, r> of the character `chi` with the rays r of `fan`,
    in ray order: the one place a character meets the rays.  They are the
    sum of chi_j times the column j of the rays' coordinates (`Fan.columns`)
    over the nonzero chi_j, one or two columns for an equal-coordinate
    character."""
    if len(chi) != fan.ambient_dim:
        raise ValueError(f"character of length {len(chi)} in dimension {fan.ambient_dim}")
    return _combination(chi, fan.columns, len(fan.rays))


def _combination(coeffs, rows, length: int) -> tuple[int, ...]:
    """The integer combination sum of c * row over the pairs (c, row) of
    `coeffs` and `rows` whose c is nonzero; rows have `length` entries.  A
    coefficient +-1, the common one, adds or subtracts the row with no
    multiplication."""
    out = None
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        if out is None:
            out = row if c == 1 else [c * x for x in row]
        elif c == 1:
            out = list(map(add, out, row))
        elif c == -1:
            out = list(map(sub, out, row))
        else:
            out = [y + c * x for y, x in zip(out, row)]
    return (0,) * length if out is None else tuple(out)


def moved_rays(fan: Fan, rows) -> int:
    """Bitmask of the rays that some character of `rows` pairs to nonzero,
    that is the rays off the annihilator of the rows."""
    columns = zip(*(pairings(fan, row) for row in rows))
    return sum(1 << i for i, column in enumerate(columns) if any(column))


def equal_sign_holds(fan: Fan, chi) -> bool:
    """True if on every maximal cone the values <chi, r> on the cone's rays r
    are all >= 0 or all <= 0."""
    return _one_sign_per_cone(fan.neighbours, pairings(fan, chi))


def _one_sign_per_cone(neighbours: tuple[int, ...], values) -> bool:
    """True if no maximal cone has rays with values of both signs, that is
    if no ray with a positive value shares a cone with one with a negative."""
    near_positive = negative = 0
    for i, v in enumerate(values):
        if v > 0:
            near_positive |= neighbours[i]
        elif v < 0:
            negative |= 1 << i
    return not near_positive & negative


@lru_cache(maxsize=None)
def _equal_sign_level(fan: Fan, basis: IntMatrix, height: int):
    """Equal-sign integer combinations of the basis rows whose primitive
    coefficient vectors have max |entry| exactly `height` (one sign
    representative each).  A combination's values on the rays are the same
    combination of the rows' pairings, and its character the same
    combination of the rows (`_combination`)."""
    ray_values = [pairings(fan, row) for row in basis]
    out = []
    for coeffs in _coeff_vectors(len(basis), height):
        if vector_gcd(coeffs) != 1:
            continue
        values = _combination(coeffs, ray_values, len(fan.rays))
        if _one_sign_per_cone(fan.neighbours, values):
            out.append((coeffs, _combination(coeffs, basis, fan.ambient_dim)))
    return tuple(out)


def _coeff_vectors(s: int, height: int):
    """Coefficient vectors with max |entry| exactly `height`, first nonzero
    entry positive, in lexicographic order."""

    def rec(prefix, seen_height, seen_nonzero):
        if len(prefix) == s:
            if seen_height:
                yield tuple(prefix)
            return
        for v in range(-height, height + 1):
            if not seen_nonzero and v < 0:
                continue
            yield from rec(
                prefix + [v],
                seen_height or abs(v) == height,
                seen_nonzero or v != 0,
            )

    yield from rec([], False, False)


def extend_equal_sign_basis(
    fan: Fan,
    outer: Sublattice,
    inner_rows: IntMatrix = (),
    bound: int = EQUAL_SIGN_BOUND,
) -> IntMatrix | None:
    """Ordered basis of `outer` whose first vectors are `inner_rows` and whose
    members all satisfy the equal-sign condition on `fan`.

    Searches integer combinations of the canonical basis of `outer` with
    coefficient height up to `bound`, in order of height, for the first that
    extend `inner_rows` to a basis (`first_split_basis`).  Returns None when
    the search space is exhausted.  `inner_rows` are trusted to be equal-sign
    and part of a basis of `outer`; pass () to search from scratch.
    """
    coeff_rows = [outer.coordinates_of(v) for v in inner_rows]
    if not splits(coeff_rows):
        raise ValidationError("inner vectors do not split off in the outer lattice")
    pool: list = []
    # grow the candidate pool one coefficient height at a time so easy
    # lattices never pay for the full bound
    for height in range(1, bound + 1):
        level = _equal_sign_level(fan, outer.basis, height)
        pool.extend(level)
        if height > 1 and not level:
            continue
        found = first_split_basis([c for c, _ in pool], outer.rank, coeff_rows)
        if found is not None:
            return tuple(inner_rows) + tuple(pool[i][1] for i in found)
    return None


def equal_sign_basis(
    fan: Fan, lat: Sublattice, bound: int = EQUAL_SIGN_BOUND
) -> IntMatrix | None:
    """Basis of `lat` all of whose members are equal-sign on `fan`, found by
    bounded search; None if none exists within the bound."""
    if lat.rank == 0:
        return ()
    # cheap path: the canonical basis often works as-is
    if lat.is_split_summand() and all(equal_sign_holds(fan, row) for row in lat.basis):
        return lat.basis
    return extend_equal_sign_basis(fan, lat, (), bound)


@dataclass(frozen=True)
class Subfan:
    """Fan induced on the subspace orthogonal to a character sublattice.

    `fan` lives in the coordinates of the canonical basis of the kernel
    lattice; `parent_rays[i]` is the parent index of ray i, increasing in i.
    """

    fan: Fan
    parent_rays: tuple[int, ...]


def subfan(fan: Fan, gamma: Sublattice, moved: int | None = None) -> Subfan:
    """Restrict `fan` to the faces lying in the annihilator of `gamma`.

    `fan` is trusted to be complete, and `gamma` to be a split summand of
    Z^n, n the fan's dimension, with an equal-sign basis (faces then meet
    the annihilator in faces).  The restriction is then a complete
    simplicial fan, so it is pure: its maximal cones are the restricted
    cones of full dimension.  `complete_bases` checks the first, and
    `EqualSignBases.subfan` the other two.  The annihilator's rays,
    `on_flagged`, are the complement of `moved`, the `moved_rays` of
    `gamma`'s basis, computed here when not passed."""
    kernel = gamma.kernel_lattice()
    m = kernel.rank
    if moved is None:
        moved = moved_rays(fan, gamma.basis)
    on_flagged = ~moved & ((1 << len(fan.rays)) - 1)
    flagged = list(ray_indices(on_flagged))
    new_rays = []
    for i in flagged:
        coords = kernel.solve(fan.rays[i])
        if coords is None:
            raise MathAssertionError("ray in annihilator missed the kernel lattice")
        if not is_primitive(coords):
            raise MathAssertionError("restricted ray lost primitivity")
        new_rays.append(coords)
    reindex = {old: new for new, old in enumerate(flagged)}
    restricted = {cone & on_flagged for cone in fan.cone_masks}
    cones = [
        tuple(reindex[i] for i in ray_indices(cone))
        for cone in restricted
        if cone.bit_count() == m
    ]
    sub = Fan.make(m, new_rays, cones)
    return Subfan(fan=sub, parent_rays=tuple(flagged))


class EqualSignBases:
    """Equal-sign bases of character lattices for one fan, each resolved once.

    Supplied bases are verified here and nowhere else: as many rows as the
    rank of the lattice they span, every row equal-sign on `fan`.  Other
    lattices are searched with coefficient height up to `bound`.  Searches,
    moved-ray masks, subfans, subfan Betti numbers and extensions are
    memoized per lattice and
    call this module's functions through its globals, so rebinding those is
    seen.  The fan's own tables (`Fan.kinds`, `Fan.is_flag`,
    `Fan.neighbours`) are its cached attributes, so no lookup hashes it.

    A resolver built here, with or without supplied bases, is private to
    its caller.  The default one, which `resolve_bases` hands out when none
    is passed, is shared by every caller in the process for the same fan
    and kept for the 16 most recently used fans.
    """

    def __init__(
        self, fan: Fan, supplied: Iterable[IntMatrix] = (), bound: int = EQUAL_SIGN_BOUND
    ):
        if bound < 1:
            raise ValidationError(f"equal-sign search bound {bound} is below 1")
        self.fan, self.bound = fan, bound
        self._found: dict[Sublattice, IntMatrix | None] = {}
        self._moved: dict[Sublattice, int] = {}
        self._subfans: dict[Sublattice, Subfan] = {}
        self._betti: dict[Sublattice, tuple[int, ...]] = {}
        self._extensions: dict[tuple[Sublattice, Sublattice], IntMatrix] = {}
        for rows in supplied:
            frozen = tuple(tuple(int(x) for x in r) for r in rows)
            lat = Sublattice.from_rows(fan.ambient_dim, frozen)
            if len(frozen) != lat.rank:
                raise ValidationError("supplied equal-sign rows are not a basis")
            for chi in frozen:
                if not equal_sign_holds(fan, chi):
                    raise ValidationError(
                        f"supplied basis row {chi} violates the equal-sign condition"
                    )
            self._found[lat] = frozen

    def find(self, lat: Sublattice) -> IntMatrix | None:
        """Equal-sign basis of `lat`; None if the search finds none."""
        if lat not in self._found:
            self._found[lat] = equal_sign_basis(self.fan, lat, self.bound)
        return self._found[lat]

    def rows(self, lat: Sublattice) -> IntMatrix:
        """`find`, with a missing basis raised as a ValidationError."""
        rows = self.find(lat)
        if rows is None:
            raise ValidationError(
                f"no equal-sign basis found within coefficient height {self.bound}"
            )
        return rows

    def _check_restrictable(self, gamma: Sublattice) -> None:
        """The checks under which the restriction along `gamma` is a fan:
        the ambient rank, a split summand, an equal-sign basis."""
        if gamma.ambient_rank != self.fan.ambient_dim:
            raise ValidationError("character lattice has wrong ambient rank")
        if not gamma.is_split_summand():
            raise ValidationError("character lattice is not a split summand")
        self.rows(gamma)

    def moved(self, gamma: Sublattice) -> int:
        """`moved_rays` of `gamma`'s basis: the rays off its annihilator,
        which its subfan leaves out."""
        if gamma not in self._moved:
            self._moved[gamma] = moved_rays(self.fan, gamma.basis)
        return self._moved[gamma]

    def subfan(self, gamma: Sublattice) -> Subfan:
        """`subfan` along `gamma`, once `gamma` is checked to be split and
        to have an equal-sign basis."""
        if gamma not in self._subfans:
            self._check_restrictable(gamma)
            self._subfans[gamma] = subfan(self.fan, gamma, self.moved(gamma))
        return self._subfans[gamma]

    def subfan_betti(self, gamma: Sublattice) -> tuple[int, ...]:
        """`betti_numbers` of the subfan along `gamma`, under the checks of
        `subfan`.  On a smooth complete flag fan the subfan's faces are the
        cliques among the rays that `gamma` moves not (`moved`), so the
        f-vector is their `clique_counts` and no fan is restricted; on any
        other fan the Betti numbers are read off `subfan`."""
        if gamma not in self._betti:
            fan = self.fan
            if all(fan.kinds) and fan.is_flag:
                self._check_restrictable(gamma)
                flagged = ~self.moved(gamma) & ((1 << len(fan.rays)) - 1)
                self._betti[gamma] = _betti_of_f_vector(
                    clique_counts(fan.neighbours, flagged), fan.ambient_dim - gamma.rank
                )
            else:
                self._betti[gamma] = betti_numbers(self.subfan(gamma).fan)
        return self._betti[gamma]

    def extension(self, outer: Sublattice, inner: Sublattice) -> IntMatrix:
        """Equal-sign characters completing the basis of `inner`, a split
        sublattice of `outer`, to an equal-sign basis of `outer`."""
        key = (outer, inner)
        if key not in self._extensions:
            inner_rows = self.rows(inner)
            full = extend_equal_sign_basis(self.fan, outer, inner_rows, self.bound)
            if full is None:
                raise ValidationError("missing equal-sign extension for a lattice pair")
            self._extensions[key] = full[len(inner_rows):]
        return self._extensions[key]


@lru_cache(maxsize=16)
def _shared_bases(fan: Fan) -> EqualSignBases:
    """The default resolver of `fan`, one per fan across all callers."""
    return EqualSignBases(fan)


def resolve_bases(
    fan: Fan, torus_dim: int, bases: EqualSignBases | None = None
) -> EqualSignBases:
    """`bases`, or the shared default resolver of `fan`, for an arrangement
    in a torus of dimension `torus_dim`: the one check that the dimensions
    agree.  The default resolver is kept for the 16 most recently used
    fans, so the goodness check and the model computations on one fan
    search, restrict and extend each lattice once between them; a resolver
    passed in, such as one built from supplied bases, stays the caller's."""
    if fan.ambient_dim != torus_dim:
        raise ValidationError("fan and arrangement dimensions differ")
    if bases is None:
        return _shared_bases(fan)
    if bases.fan != fan:
        raise ValidationError("equal-sign bases were resolved for another fan")
    return bases


def complete_bases(
    fan: Fan, torus_dim: int, bases: EqualSignBases | None = None
) -> EqualSignBases:
    """`resolve_bases` for a wonderful model, which also needs `fan` to be
    smooth and complete: the model computations' one such check."""
    bases = resolve_bases(fan, torus_dim, bases)
    _require_smooth_complete(fan, "wonderful models")
    return bases


def weyl_fan_A(n: int) -> Fan:
    """Complete smooth fan in Z^(n-1) whose maximal cones are indexed by
    permutations of {1,...,n} and whose rays are indexed by proper nonempty
    subsets S, with ray coordinates (chi_S(i) - chi_S(n))_{i<n}."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if n == 1:
        return Fan.make(0, (), ((),))
    subsets = []
    for size in range(1, n):
        subsets.extend(
            frozenset(c) for c in combinations(range(1, n + 1), size)
        )
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}

    def ray_of(s: frozenset) -> tuple[int, ...]:
        shift = 1 if n in s else 0
        return tuple((1 if i in s else 0) - shift for i in range(1, n))

    cones = []
    for perm in permutations(range(1, n + 1)):
        chain = [frozenset(perm[:k]) for k in range(1, n)]
        cones.append(tuple(index[s] for s in chain))
    return Fan.make(n - 1, [ray_of(s) for s in subsets], cones)


def orthant_fan(n: int) -> Fan:
    """Fan of a product of n projective lines: rays ±e_i, cones the orthants."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    rays = []
    for i in range(n):
        for sign in (1, -1):
            rays.append(tuple(sign * int(j == i) for j in range(n)))
    cones = [
        tuple(sorted(2 * i + s for i, s in enumerate(signs)))
        for signs in product((0, 1), repeat=n)
    ]
    return Fan.make(n, rays, cones)
