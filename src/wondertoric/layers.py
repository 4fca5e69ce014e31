"""Layers of a toric arrangement and their intersection poset.

A layer is the solution set of chi(t) = e^(2 pi i phi(chi)) for chi in a split
character sublattice Gamma and phi: Gamma -> Q/Z.  Split Gamma makes the layer
a nonempty connected translate of a subtorus.  The solution set of any
finite family of character equations splits into finitely many such
components; one solver enumerates them by exact Smith-form arithmetic, for
a layer given by arbitrary generators and for an intersection of layers
alike.  The poset of layers is closed by intersecting each new element with
the input layers only, and its containment is read off the edges of that
closure: each component of cur & a lies in cur.  It stores the containment
once, as bitmasks, so it answers intersections of its elements from those
bits alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import MathAssertionError, ValidationError
from .fans import EqualSignBases, Fan, resolve_bases
from .lattice import IntMatrix, Sublattice, smith_normal_form


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
        for v in self.phi:
            if not isinstance(v, Fraction) or not 0 <= v < 1:
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
        components = _solve(ambient_rank, rows, [Fraction(v) for v in values])
        if not components:
            raise ValidationError(
                "character values are inconsistent on a relation among generators"
            )
        if len(components) > 1:
            raise ValidationError("layer character lattice must be a split summand")
        return components[0]

    @classmethod
    def torus(cls, ambient_rank: int) -> Layer:
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
    n: int, rows: Sequence[Sequence[int]], values: Sequence[Fraction]
) -> tuple[Layer, ...]:
    """Connected components of {t : chi(t) = e^(2 pi i v)} over the pairs
    (chi, v) of `rows` and `values`, canonically ordered; () when empty."""
    if not rows:
        return (Layer.torus(n),)
    sat = Sublattice.from_rows(n, rows).saturation()
    # express each generator in the saturation's basis
    snf = smith_normal_form(tuple(sat.coordinates_of(r) for r in rows))
    lv = [
        mod1(sum(Fraction(c) * v for c, v in zip(snf.left[i], values)))
        for i in range(len(rows))
    ]
    r = sat.rank
    # rows of the diagonal beyond its rank are relations: values must vanish
    for i in range(len(rows)):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d == 0 and lv[i] != 0:
            return ()
    if snf.rank != r:
        raise MathAssertionError("saturation changed the rank")
    components = []
    for choice in _torsion_choices(snf.diagonal[:r], lv[:r]):
        y = [
            mod1(sum(Fraction(snf.right[j][i]) * choice[i] for i in range(r)))
            for j in range(r)
        ]
        components.append(Layer(sat, tuple(y)))
    components.sort(key=Layer.sort_key)
    return tuple(components)


def _torsion_choices(diag, values):
    """All z with diag[i] * z[i] = values[i] mod 1, one layer per solution."""
    if not diag:
        yield ()
        return
    d = diag[0]
    head = values[0]
    for t in range(d):
        z0 = Fraction(head + t, d)
        for rest in _torsion_choices(diag[1:], values[1:]):
            yield (z0,) + rest


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

    @cached_property
    def above(self) -> tuple[int, ...]:
        """Per element, the bitmask of the elements containing it."""
        return tuple(
            sum(1 << i for i, mask in enumerate(self.below) if mask >> j & 1)
            for j in range(len(self.below))
        )

    def contains(self, i: int, j: int) -> bool:
        """elements[i] contains elements[j] as a subvariety."""
        return bool(self.below[i] >> j & 1)

    def components(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Connected components of the intersection of the elements at
        `indices`, as element indices in canonical order: the maximal
        elements among those that all of them contain.  () when the
        intersection is empty; the torus alone for no indices.

        The lowest remaining index is maximal, since elements are in rank
        order; it is recorded and everything it contains is dropped."""
        common = (1 << len(self.elements)) - 1
        for i in indices:
            common &= self.below[i]
        out = []
        while common:
            j = (common & -common).bit_length() - 1
            out.append(j)
            common &= ~self.below[j]
        return tuple(out)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j): elements[i] covers elements[j] under containment,
        i.e. i properly contains j with nothing strictly between."""
        m = len(self.elements)
        return tuple(
            (i, j)
            for i in range(m)
            for j in range(m)
            if i != j and self.below[i] & self.above[j] == (1 << i) | (1 << j)
        )


def poset_of_layers(torus_dim: int, layers: Sequence[Layer]) -> LayerPoset:
    """Close the arrangement under component-wise intersection.

    Each element is intersected with the input layers (the atoms) only, and
    not with an atom already known to contain it: every component of
    L1 & ... & Lk is a component of C & Lk for a component C of
    L1 & ... & L(k-1).  Each component of cur & a is recorded as lying in
    cur, and containment is the transitive closure of those edges.  That is
    complete: if y lies strictly inside x, some atom a contains y but not x,
    so x & a was computed and its component containing y lies strictly
    between them; induction on the rank finishes."""
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
    k = 1
    while k < len(found):
        for bit, a in enumerate(atoms):
            if over[k] >> bit & 1:
                continue
            for comp in intersect(found[k], a):
                if comp not in index:
                    index[comp] = len(found)
                    found.append(comp)
                    over.append(0)
                    inside.append(set())
                c = index[comp]
                over[c] |= over[k] | 1 << bit
                inside[k].add(c)
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
