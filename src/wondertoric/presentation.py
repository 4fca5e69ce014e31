"""Cohomology presentation of a model: ray and member variables, generator
classes, and explicit monomial bases lifted from subfans.

A variable is ("C", i) for the divisor class of ray i or ("T", j) for the class
of building-set member j, both 0-based; rendering is 1-based.  A monomial is
the sorted tuple of its variables with repetition, so C1^2*T4 is
(("C", 0), ("C", 0), ("T", 3)); monomials in the ray variables alone are
sorted tuples of ray indices, such as (0, 0, 3).  Polynomials are sparse
integer maps from monomials to coefficients.  `mono_powers` is the one place
that groups a monomial into (variable, exponent) pairs.  Class (d) relations
are stored by their factors and multiplied out when their terms are first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, combinations_with_replacement, groupby
from operator import and_

from .errors import MathAssertionError, ValidationError
from .fans import (
    EqualSignBases,
    Fan,
    Subfan,
    betti_numbers,
    bit_indices,
    complete_bases,
    pairings,
)
from .lattice import first_split_basis, image_and_kernel, splits
from .models import AdmissibleFunction, BuildingSet, enumerate_admissible, support_lattice

Var = tuple[str, int]
Monomial = tuple[Var, ...]
PolyTerms = tuple[tuple[Monomial, int], ...]
Poly = dict[Monomial, int]


def poly_freeze(p: Poly) -> PolyTerms:
    return tuple(sorted(((m, c) for m, c in p.items() if c)))


def poly_const(c: int) -> Poly:
    return {(): c} if c else {}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2))


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def mono_powers(m: Monomial) -> tuple[tuple[Var, int], ...]:
    """The (variable, exponent) pairs of a monomial, in variable order."""
    return tuple((v, len(list(run))) for v, run in groupby(m))


def render_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(
        f"{v[0]}{v[1] + 1}" + (f"^{e}" if e > 1 else "")
        for v, e in mono_powers(m)
    )


def render_terms(terms: PolyTerms) -> str:
    """Deterministic human form, highest total degree first."""
    if not terms:
        return "0"
    ordered = sorted(terms, key=lambda mc: (-len(mc[0]), mc[0]))
    pieces = []
    for m, c in ordered:
        mag = abs(c)
        if not m:
            body = str(mag)
        elif mag == 1:
            body = render_monomial(m)
        else:
            body = f"{mag}*{render_monomial(m)}"
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


@lru_cache(maxsize=None)
def character_linear_forms(fan: Fan) -> tuple[PolyTerms, ...]:
    """One linear relation per ambient coordinate: its pairing against every
    ray, as a form in the C variables."""
    return tuple(
        tuple(((("C", i),), ray[j]) for i, ray in enumerate(fan.rays) if ray[j])
        for j in range(fan.ambient_dim)
    )


def _face_monomials(fan: Fan, degree: int) -> tuple[tuple[int, ...], ...]:
    """Degree-k monomials in ray variables whose support spans a cone, as
    sorted ray-index tuples with repetition."""
    monos = {
        mono
        for cone in fan.maximal_cones
        for mono in combinations_with_replacement(cone, degree)
    }
    return tuple(sorted(monos))


def _relation_rows(
    fan: Fan, degree: int, cols: dict[tuple[int, ...], int]
) -> list[tuple[int, ...]]:
    """Each face monomial of degree `degree` - 1 times each linear form, as a
    row over the face monomials `cols` of degree `degree`; products whose
    support spans no cone vanish."""
    rows, forms = [], character_linear_forms(fan)
    for mono in _face_monomials(fan, degree - 1):
        for form in forms:
            row = [0] * len(cols)
            for ((_, i),), coeff in form:
                col = cols.get(tuple(sorted(mono + (i,))))
                if col is not None:
                    row[col] = coeff
            if any(row):
                rows.append(tuple(row))
    return rows


def cohomology_basis_monomials(
    fan: Fan,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per degree, monomials in ray indices whose classes form a Z-basis of
    the fan's even cohomology: the first split choice in sorted monomial
    order, depth first, so output is deterministic."""
    return tuple(_basis_in_degree(fan, d, b) for d, b in enumerate(betti_numbers(fan)))


def _basis_in_degree(fan: Fan, degree: int, rank: int) -> tuple[tuple[int, ...], ...]:
    """Level `degree` of `cohomology_basis_monomials`, of `rank` monomials.

    One Hermite form gives the relations' rank, split verdict and kernel.
    When they span a split summand, pairing with the kernel's basis maps
    Z^monomials onto Z^rank with the relations as kernel, so a monomial's
    class is its column of that basis; any two such maps differ by an
    automorphism of Z^rank, so the monomials found do not depend on the map."""
    if degree == 0:
        return ((),)
    monomials = _face_monomials(fan, degree)
    cols = {m: i for i, m in enumerate(monomials)}
    image, kernel = image_and_kernel(_relation_rows(fan, degree, cols), len(cols))
    if len(kernel) != rank:
        raise MathAssertionError("relation rank disagrees with the Betti number")
    # relations that span no split summand leave torsion: no monomials are a basis
    found = first_split_basis(list(zip(*kernel)) if splits(image) else [], rank)
    if found is None:
        raise MathAssertionError(f"no split monomial basis found in degree {degree}")
    return tuple(monomials[i] for i in found)


def subfan_basis_in_parent_labels(
    sub: Subfan,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Monomial basis of the subfan cohomology, each monomial a sorted tuple
    of parent ray indices with repetition (`parent_rays` is increasing, so
    relabelling keeps the monomials sorted)."""
    return tuple(
        tuple(tuple(sub.parent_rays[i] for i in mono) for mono in level)
        for level in cohomology_basis_monomials(sub.fan)
    )


@dataclass(frozen=True)
class BasisElement:
    """One graded basis element: an admissible function together with a
    lifted subfan monomial.

    `monomial` is None for the classes of the ambient fan, which the empty
    support contributes symbolically; `cohomology_degree` always records the
    lift degree."""

    function: AdmissibleFunction
    monomial: tuple[int, ...] | None
    cohomology_degree: int

    @property
    def degree(self) -> int:
        return self.function.degree + self.cohomology_degree


@dataclass(frozen=True)
class ModelBasis:
    elements: tuple[BasisElement, ...]

    def graded_counts(self, length: int) -> tuple[int, ...]:
        out = [0] * length
        for el in self.elements:
            out[el.degree] += 1
        return tuple(out)


def monomial_basis(
    building: BuildingSet,
    fan: Fan,
    bases: EqualSignBases | None = None,
) -> ModelBasis:
    """Explicit graded basis: every admissible function paired with every
    lifted basis monomial of its support's subfan.

    The empty support contributes one symbolic element per ambient
    cohomology class."""
    bases = complete_bases(fan, building.torus_dim, bases)
    elements = []
    for support, funcs in groupby(enumerate_admissible(building), lambda f: f.support):
        if support == ():
            lifts = tuple((None,) * count for count in betti_numbers(fan))
        else:
            sub = bases.subfan(support_lattice(building, support))
            lifts = subfan_basis_in_parent_labels(sub)
        for f in funcs:
            for deg, level in enumerate(lifts):
                for mono in level:
                    elements.append(BasisElement(f, mono, deg))
    elements.sort(
        key=lambda el: (
            el.degree,
            el.function.support,
            el.function.values,
            el.cohomology_degree,
            el.monomial if el.monomial is not None else (),
        )
    )
    return ModelBasis(tuple(elements))


@dataclass(frozen=True)
class MemberRelation:
    """Class (d) generator tied to member g and a set `above` of strictly
    larger members, stored by its factors: `z` = -sum T_h over the members h at
    or below g, and one direction form d per character extending an equal-sign
    basis of the enclosing layer to one of g.  It is prod (z + d) ("product")
    or z^k + prod d ("power"; 1 for k = 0) over the k forms d, times T_h for h
    in `above`; `terms` multiplies it out on first read."""

    member: int
    above: tuple[int, ...]
    z: PolyTerms
    directions: tuple[PolyTerms, ...]
    variant: str

    @cached_property
    def terms(self) -> PolyTerms:
        z, poly = dict(self.z), poly_const(1)
        if self.variant == "product":
            for d in self.directions:
                poly = poly_mul(poly, poly_add(z, dict(d)))
        elif self.directions:
            prod = poly_const(1)
            for d in self.directions:
                poly, prod = poly_mul(poly, z), poly_mul(prod, dict(d))
            poly = poly_add(poly, prod)
        return poly_freeze(poly_mul(poly, {tuple(("T", h) for h in self.above): 1}))


@dataclass(frozen=True)
class PresentationIdeal:
    """Generators of the model's cohomology presentation, by class."""

    ray_count: int
    member_count: int
    nonface_monomials: tuple[tuple[int, ...], ...]
    linear_forms: tuple[PolyTerms, ...]
    ray_member_products: tuple[tuple[int, int], ...]
    member_relations: tuple[MemberRelation, ...]
    empty_intersection_products: tuple[tuple[int, ...], ...]
    variant: str

    @property
    def variable_count(self) -> int:
        return self.ray_count + self.member_count

    def class_sizes(self) -> tuple[int, int, int, int, int]:
        return (
            len(self.nonface_monomials),
            len(self.linear_forms),
            len(self.ray_member_products),
            len(self.member_relations),
            len(self.empty_intersection_products),
        )


def _direction_form(fan: Fan, chi) -> PolyTerms:
    """Sum of max(0, -pairing) C_r over all rays, for one character."""
    return tuple(((("C", i),), -v) for i, v in enumerate(pairings(fan, chi)) if v < 0)


def emit_presentation(
    building: BuildingSet,
    fan: Fan,
    bases: EqualSignBases | None = None,
    variant: str = "product",
) -> PresentationIdeal:
    """All generator classes of the cohomology presentation.

    Class list: (a) square-free non-face monomials, (b) one linear form per
    ambient coordinate, (c) C_r T_G for the rays r that some character of
    G's lattice pairs to nonzero, the rays not in G's subfan (the mask
    `bases.moved`, shared with the subfans and their Betti numbers),
    (d) one relation per (member, set of strictly larger members), stored by
    its restriction factors over an equal-sign basis extension and expanded
    only when its `terms` are read, (e) products over member sets with empty
    total intersection.
    """
    if variant not in ("product", "power"):
        raise ValidationError(f"unknown restriction variant {variant!r}")
    bases = complete_bases(fan, building.torus_dim, bases)
    members = building.members
    m = len(members)

    linear = character_linear_forms(fan)

    ray_products = [
        (i, g)
        for g, layer in enumerate(members)
        for i in bit_indices(bases.moved(layer.gamma))
    ]

    strictly_above = [
        tuple(bit_indices(building.above[g] ^ 1 << g)) for g in range(m)
    ]

    poset = building.poset
    relations = []
    directions_of: dict[tuple[int, ...], PolyTerms] = {}
    for g in range(m):
        z = tuple(((("T", h),), -1) for h in bit_indices(building.below[g]))
        for size in range(len(strictly_above[g]) + 1):
            for above in combinations(strictly_above[g], size):
                enclosing = poset.elements[building.enclosing(g, above)]
                chars = bases.extension(members[g].gamma, enclosing.gamma)
                # the expanded relation has T-degree len(chars) + len(above):
                # z != 0 has T-degree 1 and the direction forms T-degree 0, so
                # its top T-degree part is z^len(chars) times the T_h, nonzero
                # as Z[C, T] is a domain; checking len(chars) checks it
                if len(chars) != members[g].rank - enclosing.rank:
                    raise MathAssertionError("member relation has unexpected degree")
                for chi in chars:
                    if chi not in directions_of:
                        directions_of[chi] = _direction_form(fan, chi)
                directions = tuple(directions_of[chi] for chi in chars)
                relations.append(MemberRelation(g, above, z, directions, variant))

    # a member set meets exactly when the AND of its members' masks of the
    # elements they contain is nonzero; when all members meet, every set does
    below = [poset.below[p] for p in building.positions]
    empties = []
    if m and not reduce(and_, below):
        for size in range(2, m + 1):
            for subset in combinations(range(m), size):
                if not reduce(and_, (below[i] for i in subset)):
                    empties.append(subset)

    return PresentationIdeal(
        ray_count=len(fan.rays),
        member_count=m,
        nonface_monomials=fan.minimal_nonfaces,
        linear_forms=linear,
        ray_member_products=tuple(ray_products),
        member_relations=tuple(relations),
        empty_intersection_products=tuple(empties),
        variant=variant,
    )
