"""Layers of a toric arrangement and their intersection poset.

A layer is the solution set of chi(t) = e^(2 pi i phi(chi)) for chi in a split
character sublattice Gamma and phi: Gamma -> Q/Z.  Split Gamma makes the layer
a nonempty connected translate of a subtorus.  The solution set of any
finite family of character equations splits into finitely many such
components; one solver enumerates them by exact Hermite-form arithmetic,
for a layer given by arbitrary generators and for an intersection of layers
alike.  Its lattice half, the plan, depends on the generator rows alone:
the saturation of the rows, and a triangular system with its row transform
that relates them to its basis.  One Hermite form of the rows beside an
identity block gives the rows' Hermite basis with the transform and the
relations among the rows; when that basis spans a split summand it is the
saturation and the system is the identity, and otherwise the system is read
off the Hermite form of the rows' coordinates in the saturation beside an
identity block.  Plans are kept for the 1024 most recent rows and shared
by the poset closure and `Layer.from_generators`; the value half works in
integer numerators over the values' common denominator.  The poset of layers is
closed by intersecting each new element with the input layers only, and
its containment is read off the edges of that closure: each component of
cur & a lies in cur.  The poset stores the containment once, as
bitmasks, so it answers intersections of its elements from those bits
alone.  When x's Hermite basis has unit pivots, the closure meets a rank-1
atom {chi = v} without the solver: one reduction of chi modulo Gamma_x
gives the canonical representative chi' of its coset, and chi' = 0 means
x lies in the atom or misses it, while a chi' leading with +-1 joins x's
basis as the single component.  A later rank-1 atom a' whose chi' equals
an earlier one up to sign, where that one met x in a single component c
that a' is known to contain, meets x in c itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import MathAssertionError, ValidationError
from .fans import EqualSignBases, Fan, resolve_bases
from .lattice import IntMatrix, Sublattice, hermite_form, identity_matrix, unit_pivots


def mod1(x: Fraction | int) -> Fraction:
    """Representative of x in [0, 1)."""
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class Layer:
    """Connected layer: canonical (Hermite) basis of Gamma plus the character
    value at each basis row.  Equal layers compare equal structurally."""

    gamma: Sublattice
    phi: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.gamma.is_split_summand():
            raise ValidationError(
                "layer character lattice must be a split summand"
            )
        if len(self.phi) != self.gamma.rank:
            raise ValidationError("one character value per basis row required")
        # the type test skips the ABC check on exact Fractions; a Fraction's
        # denominator is positive, so the integer test is 0 <= v < 1
        for v in self.phi:
            if (
                type(v) is not Fraction and not isinstance(v, Fraction)
            ) or not 0 <= v.numerator < v.denominator:
                raise ValidationError("character values must be Fractions in [0,1)")

    @classmethod
    def from_generators(
        cls,
        ambient_rank: int,
        rows: Sequence[Sequence[int]],
        values: Sequence[Fraction | int | str],
    ) -> Layer:
        """Layer from arbitrary generators with their character values.

        The values must be consistent on every integer relation among the
        generators, and the generators must span a split summand; phi is
        stored on the canonical basis.
        """
        if len(rows) != len(values):
            raise ValidationError("one character value per generator required")
        if any(len(row) != ambient_rank for row in rows):
            raise ValidationError("generator length differs from ambient rank")
        sat, form = _plan(ambient_rank, tuple(map(tuple, rows)))
        residues = _residues(sat, form, [Fraction(v) for v in values])
        if residues is None:
            raise ValidationError(
                "character values are inconsistent on a relation among generators"
            )
        # one component per torsion choice: refuse before building them
        if any(form[i][i] > 1 for i in range(sat.rank)):
            raise ValidationError("layer character lattice must be a split summand")
        return _components(sat, form, *residues)[0]

    @classmethod
    @lru_cache(maxsize=None)
    def torus(cls, ambient_rank: int) -> Layer:
        """The whole torus of a rank, one shared layer per rank."""
        return cls(Sublattice.zero(ambient_rank), ())

    @property
    def ambient_rank(self) -> int:
        return self.gamma.ambient_rank

    @property
    def rank(self) -> int:
        return self.gamma.rank

    def value_on(self, v: Sequence[int]) -> Fraction:
        """phi at a vector of Gamma."""
        coeffs = self.gamma.coordinates_of(v)
        return mod1(sum(Fraction(c) * p for c, p in zip(coeffs, self.phi)))

    def contains(self, other: Layer) -> bool:
        """True if this layer contains `other` as a subvariety (so this
        layer's equations are among the other's)."""
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient ranks differ")
        for g, val in zip(self.gamma.basis, self.phi):
            if not other.gamma.contains_vector(g) or other.value_on(g) != val:
                return False
        return True

    def sort_key(self):
        return (self.rank, self.gamma.basis, self.phi)


def intersect(a: Layer, b: Layer) -> tuple[Layer, ...]:
    """Connected components of the intersection of two layers, canonically
    ordered; () when the intersection is empty."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    return _solve(a.ambient_rank, a.gamma.basis + b.gamma.basis, a.phi + b.phi)


def _solve(
    n: int, rows: IntMatrix, values: Sequence[Fraction]
) -> tuple[Layer, ...]:
    """Connected components of {t : chi(t) = e^(2 pi i v)} over the pairs
    (chi, v) of `rows` and `values`, canonically ordered; () when empty."""
    sat, form = _plan(n, rows)
    residues = _residues(sat, form, values)
    return () if residues is None else _components(sat, form, *residues)


@lru_cache(maxsize=1024)
def _plan(n: int, rows: IntMatrix) -> tuple[Sublattice, IntMatrix]:
    """The half of `_solve` that depends on the k rows alone: their
    saturation sat, and rank rows [T | u], then rows [0 | u].  With coords
    the rows' coordinates in sat's basis, u @ coords = T in every row: T is
    upper triangular with a positive diagonal, and the last rows' u span
    the integer relations among the rows.

    Row-reducing [rows | I_k] to Hermite form applies a unimodular transform,
    recorded in the last k columns (Cohen, GTM 138, section 2.4): the rows
    with a pivot among the first n columns are the rows' Hermite basis, each
    beside its combination u of the rows, and the rest are the relations
    [0 | u].  When that basis spans a split summand it is sat, and its rows'
    coordinates in it are the unit vectors, so T = I.  Otherwise T is read
    off the Hermite form of [coords | I_k] in the saturation of that lattice.

    The cache is bounded: the rows that repeat are those of a batch of small
    arrangements, or of one arrangement solved again, whose atoms and meets
    recur; the equal-coordinate closures call no solver at all."""
    k, eye = len(rows), identity_matrix(len(rows))
    reduced = hermite_form([g + e for g, e in zip(rows, eye)], n + k)
    r = sum(1 for row in reduced if any(row[:n]))
    lat = Sublattice.from_hermite_basis(n, tuple(row[:n] for row in reduced[:r]))
    if lat.is_split_summand():
        form = tuple(e + row[n:] for e, row in zip(identity_matrix(r), reduced))
        return lat, form + tuple((0,) * r + row[n:] for row in reduced[r:])
    sat = lat.saturation()
    form = hermite_form([sat.coordinates_of(g) + e for g, e in zip(rows, eye)], sat.rank + k)
    if not all(form[i][i] for i in range(sat.rank)):
        raise MathAssertionError("saturation changed the rank")
    return sat, form


def _residues(
    sat: Sublattice, form: IntMatrix, values: Sequence[Fraction]
) -> tuple[int, list[int]] | None:
    """The common denominator den of `values` and the numerators over den of
    u @ values mod 1 on the first rank rows of `form`; None when a later
    row, a relation among the generators, gets a nonzero value."""
    r = sat.rank
    den, nums = _over_common_denominator(values)
    lv = [sum(c * x for c, x in zip(row[r:], nums)) % den for row in form]
    if any(lv[r:]):
        return None
    return den, lv[:r]


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator den of `values`, and their numerators over den."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _components(
    sat: Sublattice, form: IntMatrix, den: int, lv: Sequence[int]
) -> tuple[Layer, ...]:
    """One layer per phi = z with T z = lv / den mod 1, solved from the last row
    up, a row with pivot p leaving p values of its z.  z is kept as numerators
    over den * index, index the product of T's diagonal; p divides index and
    the later numerators, so dividing by p is exact.  Sorting them sorts layers.

    When index is 1, T = I: Hermite reduction clears the entries above unit
    pivots, and a plan whose rows split builds I.  Then the one layer is
    z = lv / den."""
    r = sat.rank
    index = prod(form[i][i] for i in range(r))
    if index == 1:
        return (Layer(sat, tuple(Fraction(y, den) for y in lv)),)
    big, phis = den * index, [()]
    for i in reversed(range(r)):
        p, grown = form[i][i], []
        for zs in phis:
            rest = lv[i] * index - sum(a * z for a, z in zip(form[i][i + 1 : r], zs))
            grown += [((rest % big + t * big) // p, *zs) for t in range(p)]
        phis = grown
    return tuple(Layer(sat, tuple(Fraction(y, big) for y in z)) for z in sorted(phis))


@dataclass(frozen=True)
class LayerPoset:
    """All connected components of intersections of an arrangement's layers,
    with containment precomputed.

    Elements are in canonical (rank, lattice, translation) order, so the
    torus comes first and an element comes after every element containing
    it.  Bit j of `below[i]` is set when elements[i] contains elements[j];
    `poset_of_layers` builds these masks from its closure's edges, without
    a containment test.  `components` relies on the closure: every connected
    component of an intersection of elements is itself an element."""

    torus_dim: int
    elements: tuple[Layer, ...]
    below: tuple[int, ...]

    def contains(self, i: int, j: int) -> bool:
        """elements[i] contains elements[j] as a subvariety."""
        return bool(self.below[i] >> j & 1)

    def components(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Connected components of the intersection of the elements at
        `indices`, as element indices in canonical order: the maximal
        elements among those that all of them contain.  () when the
        intersection is empty; the torus alone for no indices."""
        common = (1 << len(self.elements)) - 1
        for i in indices:
            common &= self.below[i]
        return self.maximal(common)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j): elements[i] covers elements[j] under containment,
        i.e. i properly contains j with nothing strictly between."""
        return tuple(
            (i, j)
            for i, mask in enumerate(self.below)
            for j in self.maximal(mask & ~(1 << i))
        )

    def maximal(self, mask: int) -> tuple[int, ...]:
        """The maximal elements among those in the bitmask, in canonical
        order.  The lowest remaining index is maximal, since elements are in
        rank order; it is recorded and everything it contains is dropped."""
        out = []
        while mask:
            j = (mask & -mask).bit_length() - 1
            out.append(j)
            mask &= ~self.below[j]
        return tuple(out)


class _RankOneMeets:
    """The meets of a layer x with rank-1 atoms {chi = v}, when x's Hermite
    basis b_1..b_r has pivots p_1..p_r all 1 (Cohen, GTM 138, section 2.4).

    Then b_j[p_i] = 0 for j != i, so one reduction
    chi' = chi - sum chi[p_i] b_i leaves chi' zero in every pivot column: it
    is the canonical representative of chi + Gamma_x, and on x the atom's
    equation reads chi'(t) = e^(2 pi i v') with v' = v - sum chi[p_i] phi_i.
    phi_x is kept as integer numerators over its common denominator."""

    def __init__(self, x: Layer, pivots: list[int]):
        self.x, self.pivots = x, pivots
        self.den, self.nums = _over_common_denominator(x.phi)

    @classmethod
    def of(cls, x: Layer) -> _RankOneMeets | None:
        """x's meets, or None when a pivot of x's Hermite basis is above 1."""
        pivots = unit_pivots(x.gamma.basis)
        return None if pivots is None else cls(x, pivots)

    def reduce(self, chi: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(key, lead): lead is the leading entry of chi', 0 when chi' = 0,
        and key is chi' times its sign.  chi = +-psi modulo Gamma_x exactly
        when the keys of chi and psi are equal."""
        rest = chi
        for p, b in zip(self.pivots, self.x.gamma.basis):
            c = chi[p]
            if c:
                rest = [e - c * f for e, f in zip(rest, b)]
        lead = next((e for e in rest if e), 0)
        return tuple(rest) if lead >= 0 else tuple(-e for e in rest), lead

    def meet(
        self, chi: Sequence[int], value: Fraction, key: tuple[int, ...], lead: int
    ) -> tuple[Layer, ...] | None:
        """Components of x & {chi = value}, chi reduced to (key, lead) by
        `reduce`; None, for the solver, when lead is not 0 or +-1.

        - lead 0: chi is in Gamma_x, so x lies in the atom when v' = 0 mod 1
          and misses it otherwise.
        - lead +-1: inserting key, of value lead * v', into x's basis and
          clearing its lead column from the b_i, phi_i -= b_i[col] * that
          value, gives a Hermite basis with unit pivots: it spans a split
          summand, so the meet is that one layer."""
        if lead not in (0, 1, -1):
            return None
        x, den = self.x, lcm(self.den, value.denominator)
        scale = den // self.den
        num = value.numerator * (den // value.denominator) - scale * sum(
            chi[p] * y for p, y in zip(self.pivots, self.nums)
        )
        if not lead:
            return (x,) if num % den == 0 else ()
        num = lead * num % den
        col = next(j for j, e in enumerate(key) if e)
        basis, phi, at = [], [], 0
        for p, b, y in zip(self.pivots, x.gamma.basis, self.nums):
            c = b[col]
            if c:
                b = tuple(e - c * f for e, f in zip(b, key))
            basis.append(b)
            phi.append((y * scale - c * num) % den)
            at += p < col
        basis.insert(at, key)
        phi.insert(at, num)
        return (
            Layer(
                Sublattice.from_hermite_basis(x.ambient_rank, tuple(basis)),
                tuple(Fraction(y, den) for y in phi),
            ),
        )


def poset_of_layers(torus_dim: int, layers: Sequence[Layer]) -> LayerPoset:
    """Close the arrangement under component-wise intersection.

    Each element is intersected with the input layers (the atoms) only, and
    not with an atom already known to contain it: every component of
    L1 & ... & Lk is a component of C & Lk for a component C of
    L1 & ... & L(k-1).  Each component of cur & a is recorded as lying in
    cur, and containment is the transitive closure of those edges.  That is
    complete: if y lies strictly inside x, some atom a contains y but not x,
    so x & a was computed (or known, below) and its component containing y
    lies strictly between them; induction on the rank finishes.

    When x's Hermite basis has unit pivots, a rank-1 atom {chi = v} is met
    by one reduction of chi modulo Gamma_x (`_RankOneMeets`): it answers
    containment, emptiness and, for a reduced chi' leading with +-1, the
    single component; only another lead goes to the solver, as do rank-2
    and higher atoms and an x with a pivot above 1.  And some meets are
    known without either.  When a rank-1 atom met x in a single component c
    of rank rank(x) + 1, Gamma_x + Z chi is saturated, so it is Gamma_c.  A
    later rank-1 atom a' whose chi' equals that one up to sign then has the
    same lattice, so x & a' is at most one translate of c's subtorus; when
    a' is known to contain c, that translate is c, and the edge is recorded
    at once."""
    for layer in layers:
        if layer.ambient_rank != torus_dim:
            raise ValidationError("layer ambient rank differs from torus dimension")
    torus = Layer.torus(torus_dim)
    atoms = [a for a in dict.fromkeys(layers) if a != torus]
    # elements in discovery order, the torus first; per element, the bitmask
    # of the atoms known to contain it and the elements found inside it
    found = [torus, *atoms]
    index = {el: k for k, el in enumerate(found)}
    over = [0] + [1 << bit for bit in range(len(atoms))]
    inside = [set(range(1, len(found)))] + [set() for _ in atoms]
    chars = [a.gamma.basis[0] if a.rank == 1 else None for a in atoms]
    k = 1
    while k < len(found):
        x = found[k]
        # x's rank-1 meets, built at its first rank-1 atom (False: a pivot
        # above 1), and the key of a rank-1 atom that met x in a single
        # component of rank one more than x -> that component
        meets, met = None, {}
        for bit, a in enumerate(atoms):
            if over[k] >> bit & 1:
                continue
            chi, comps, key = chars[bit], None, None
            if chi is not None:
                if meets is None:
                    meets = _RankOneMeets.of(x) or False
                if meets:
                    key, lead = meets.reduce(chi)
                    c = met.get(key)
                    if c is not None and over[c] >> bit & 1:
                        over[c] |= over[k] | 1 << bit
                        continue
                    comps = meets.meet(chi, a.phi[0], key, lead)
            if comps is None:
                comps = intersect(x, a)
            for comp in comps:
                c = index.setdefault(comp, len(found))
                if c == len(found):
                    found.append(comp)
                    over.append(0)
                    inside.append(set())
                over[c] |= over[k] | 1 << bit
                inside[k].add(c)
            if key is not None and len(comps) == 1 and comps[0].rank == x.rank + 1:
                met.setdefault(key, c)
        k += 1
    order = sorted(range(len(found)), key=lambda f: found[f].sort_key())
    position = {f: i for i, f in enumerate(order)}
    below = [0] * len(order)
    # an element comes after everything containing it, so fill from the end
    for i in reversed(range(len(order))):
        below[i] = 1 << i
        for c in inside[order[i]]:
            below[i] |= below[position[c]]
    return LayerPoset(torus_dim, tuple(found[f] for f in order), tuple(below))


@dataclass(frozen=True)
class GoodnessReport:
    ok: bool
    bases: tuple[tuple[Sublattice, IntMatrix], ...]
    failures: tuple[Sublattice, ...]


def goodness_check(
    fan: Fan, poset: LayerPoset, bases: EqualSignBases | None = None
) -> GoodnessReport:
    """Check the fan is good for the arrangement: every layer's character
    lattice has an equal-sign basis, supplied to `bases` or found by it."""
    bases = resolve_bases(fan, poset.torus_dim, bases)
    found = []
    failures = []
    for lat in sorted(
        {el.gamma for el in poset.elements}, key=lambda g: (g.rank, g.basis)
    ):
        if lat.rank == 0:
            continue
        rows = bases.find(lat)
        if rows is None:
            failures.append(lat)
        else:
            found.append((lat, rows))
    return GoodnessReport(
        ok=not failures, bases=tuple(found), failures=tuple(failures)
    )
