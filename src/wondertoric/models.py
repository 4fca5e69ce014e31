"""Wonderful-model combinatorics: building sets, nested sets, admissible
functions, graded cohomology ranks.

Two independent routes compute the graded ranks of a model: `poincare` sums
shifted Betti vectors of subfans over admissible functions, while
`rank_via_blowup_recursion` walks the iterated-blowup tower and only uses the
codimension bookkeeping of each center.  They must agree coefficient-wise.
Both read a subfan's Betti numbers, and nothing else of it, from one memo per
lattice, `EqualSignBases.subfan_betti`: on a flag fan it counts the faces as
cliques of the rays' neighbour graph and restricts no fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby, product
from typing import Iterable, Sequence

from .errors import MathAssertionError, ValidationError
from .fans import EqualSignBases, Fan, complete_bases
from .lattice import Sublattice
from .layers import Layer, LayerPoset, poset_of_layers

GradedCount = tuple[int, ...]


def _padded_add(a: GradedCount, b: GradedCount, shift: int = 0) -> GradedCount:
    """a + q^shift * b on coefficient tuples."""
    length = max(len(a), shift + len(b))
    out = [0] * length
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[shift + i] += x
    return tuple(out)


@dataclass(frozen=True)
class BuildingSet:
    """Building set inside a layer poset; members canonically ordered, so the
    1-based member index is the stable human label.  `positions[i]` is the
    poset index of member i, and `member_positions` their set."""

    poset: LayerPoset
    members: tuple[Layer, ...]
    positions: tuple[int, ...]

    @cached_property
    def member_positions(self) -> frozenset[int]:
        return frozenset(self.positions)

    @property
    def torus_dim(self) -> int:
        return self.poset.torus_dim

    def contains(self, i: int, j: int) -> bool:
        """Member i contains member j as a subvariety."""
        return self.poset.contains(self.positions[i], self.positions[j])

    def components(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Poset indices of the connected components of the intersection of
        the members in `subset`, in canonical order."""
        return self.poset.components(self.positions[i] for i in subset)

    def enclosing(self, member: int, above: Iterable[int], components=None) -> int:
        """Poset index of the single component of the intersection of the
        members `above` that contains member `member`; the torus for no
        members above.  `components` stands in for `self.components`, for a
        caller that keeps them memoized."""
        position = self.positions[member]
        around = [
            c
            for c in (components or self.components)(above)
            if self.poset.contains(c, position)
        ]
        if len(around) != 1:
            raise MathAssertionError("enclosing intersection component is not unique")
        return around[0]

    def transversal(self, subset: Sequence[int], component: int) -> bool:
        """The members in `subset` meet transversally at `component`, one of
        the components of their intersection: codimension adds up."""
        return self.poset.elements[component].rank == sum(
            self.members[i].rank for i in subset
        )


def build_building_set(
    poset: LayerPoset, members: Sequence[Layer] | None = None
) -> BuildingSet:
    """Assemble a building set from poset elements.

    With members None the whole poset minus the torus is used, which is always
    building.  Explicit members are verified against the defining property:
    for every layer outside the set, the minimal members above it are
    transversal and cut it out as a connected component of their
    intersection.
    """
    torus = Layer.torus(poset.torus_dim)
    position = {el: k for k, el in enumerate(poset.elements)}
    if members is None:
        chosen = tuple(el for el in poset.elements if el != torus)
    else:
        chosen = tuple(sorted(set(members), key=Layer.sort_key))
        for m in chosen:
            if m == torus:
                raise ValidationError("the ambient torus cannot be a member")
            if m not in position:
                raise ValidationError("building set member is not a poset element")
    if not chosen:
        raise ValidationError("building set must be nonempty")
    building = BuildingSet(poset, chosen, tuple(position[m] for m in chosen))
    if members is not None:
        ok, witness = _building_defect(building)
        if not ok:
            raise ValidationError(f"not a building set: fails at layer {witness}")
    return building


def _building_defect(building: BuildingSet):
    poset = building.poset
    # element 0 is the torus
    for e in range(1, len(poset.elements)):
        if e in building.member_positions:
            continue
        above = [i for i, p in enumerate(building.positions) if poset.contains(p, e)]
        minimal = [
            i
            for i in above
            if not any(o != i and building.contains(i, o) for o in above)
        ]
        # no members above leave the torus, which e is not
        if e not in building.components(minimal) or not building.transversal(minimal, e):
            return False, poset.elements[e]
    return True, None


@dataclass(frozen=True)
class WellConnectedness:
    """On failure, the first failing member subset in colex order and its
    first component outside the building set, in canonical poset order."""

    ok: bool
    witness_members: tuple[int, ...]
    missing_component: Layer | None


def is_well_connected(building: BuildingSet) -> WellConnectedness:
    """Every disconnected intersection of members must contribute all of its
    components back to the building set.  The members' `below` masks, closed
    under AND in member order, give each distinct intersection once, at its
    colex-first subset: the cost follows the intersections, not 2^m subsets."""
    poset, member_at = building.poset, building.member_positions
    reached = {(1 << len(poset.elements)) - 1: ()}
    for i, p in enumerate(building.positions):
        for common, subset in list(reached.items()):
            reached.setdefault(common & poset.below[p], subset + (i,))
    for common, subset in reached.items():
        comps = poset.maximal(common)
        missing = [c for c in comps if c not in member_at]
        if len(comps) >= 2 and missing:
            return WellConnectedness(False, subset, poset.elements[missing[0]])
    return WellConnectedness(True, (), None)


def _grow_nested(building: BuildingSet, root, step) -> list:
    """(nested set, state) pairs, the sets grown depth first from () one
    member at a time in increasing index order; the state is `root` for ()
    and step(current, nxt, state, components) for a nested current + (nxt,),
    and a None state drops that set and all grown from it.  `components` is
    `building.components` on sorted member tuples, each computed once for
    this call and shared with the antichain verdicts.

    A set is nested iff every antichain in it of size >= 2 has nonempty,
    connected, transversal intersection not belonging to the building set.
    """
    m = len(building.members)
    member_at = building.member_positions
    comparable = [
        [building.contains(i, j) or building.contains(j, i) for j in range(m)]
        for i in range(m)
    ]
    comps_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    verdicts: dict[tuple[int, ...], bool] = {}

    def components(indices: tuple[int, ...]) -> tuple[int, ...]:
        if indices not in comps_of:
            comps_of[indices] = building.components(indices)
        return comps_of[indices]

    def antichain_ok(indices: tuple[int, ...]) -> bool:
        if indices not in verdicts:
            comps = components(indices)
            verdicts[indices] = (
                len(comps) == 1
                and comps[0] not in member_at
                and building.transversal(indices, comps[0])
            )
        return verdicts[indices]

    def nests(current: tuple[int, ...], nxt: int) -> bool:
        incomparables = [i for i in current if not comparable[i][nxt]]
        for size in range(1, len(incomparables) + 1):
            for sub in combinations(incomparables, size):
                if any(comparable[a][b] for a, b in combinations(sub, 2)):
                    continue
                if not antichain_ok(sub + (nxt,)):
                    return False
        return True

    out = []

    def grow(current: tuple[int, ...], state, start: int) -> None:
        out.append((current, state))
        for nxt in range(start, m):
            if nests(current, nxt):
                grown = step(current, nxt, state, components)
                if grown is not None:
                    grow(current + (nxt,), grown, nxt + 1)

    grow((), root, 0)
    return out


def enumerate_nested_sets(building: BuildingSet) -> tuple[tuple[int, ...], ...]:
    """All nested sets as sorted member-index tuples, smallest first."""
    grown = _grow_nested(building, (), lambda current, nxt, state, components: state)
    return tuple(sorted((nested for nested, _ in grown), key=lambda t: (len(t), t)))


@dataclass(frozen=True)
class AdmissibleFunction:
    """Function on the building set recorded by its support (member indices)
    and the value at each support element."""

    support: tuple[int, ...]
    values: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.values)


def enumerate_admissible(building: BuildingSet) -> tuple[AdmissibleFunction, ...]:
    """All admissible functions, grouped by support in canonical order.

    A support member a takes values in [1, rank(a) - rank(E)), E the
    component containing a of the intersection of its supers in the
    support.  Supers have lower rank, so they join first and the bound is
    final when a joins: a support grows only by members with bound >= 2.
    """
    elements = building.poset.elements

    def step(current, nxt, bounds, components):
        supers = tuple(b for b in current if building.contains(b, nxt))
        enclosing = elements[building.enclosing(nxt, supers, components)]
        bound = building.members[nxt].rank - enclosing.rank
        return bounds + (bound,) if bound >= 2 else None

    out = [
        AdmissibleFunction(support, values)
        for support, bounds in _grow_nested(building, (), step)
        for values in product(*(range(1, b) for b in bounds))
    ]
    return tuple(sorted(out, key=lambda f: (len(f.support), f.support, f.values)))


@dataclass(frozen=True)
class SupportRow:
    """Per-support contribution to the graded ranks."""

    support: tuple[int, ...]
    subfan_betti: GradedCount
    functions: tuple[AdmissibleFunction, ...]
    contribution: GradedCount


@dataclass(frozen=True)
class PoincareResult:
    rows: tuple[SupportRow, ...]
    total: GradedCount


def support_lattice(building: BuildingSet, support: tuple[int, ...]) -> Sublattice:
    """Character sublattice of the intersection of a nested set's members,
    which is a single poset element."""
    comps = building.components(support)
    if len(comps) != 1:
        raise MathAssertionError(
            f"support {support} does not meet in exactly one component"
        )
    return building.poset.elements[comps[0]].gamma


def poincare(
    building: BuildingSet, fan: Fan, bases: EqualSignBases | None = None
) -> PoincareResult:
    """Graded ranks of the model: over each admissible function, the Betti
    vector of the support's subfan shifted by the function's degree.  The
    Betti vectors come from `bases.subfan_betti`."""
    bases = complete_bases(fan, building.torus_dim, bases)
    n = fan.ambient_dim
    rows = []
    total: GradedCount = (0,) * (n + 1)
    for support, group in groupby(enumerate_admissible(building), lambda f: f.support):
        funcs = tuple(group)
        betti = bases.subfan_betti(support_lattice(building, support))
        contribution: GradedCount = (0,) * (n + 1)
        for f in funcs:
            contribution = _padded_add(contribution, betti, shift=f.degree)
        if len(contribution) > n + 1:
            raise MathAssertionError("contribution exceeds the ambient dimension")
        rows.append(SupportRow(support, betti, funcs, contribution))
        total = _padded_add(total, contribution)
    if total != total[::-1]:
        raise MathAssertionError(f"graded ranks {total} are not palindromic")
    return PoincareResult(tuple(rows), total)


def rank_via_blowup_recursion(
    building: BuildingSet, fan: Fan, bases: EqualSignBases | None = None
) -> GradedCount:
    """Independent oracle: peel blowup centers off in an order refining
    inclusion (deepest first) and apply the graded rank bookkeeping of a
    single smooth blowup at each step.  Centers and their intersections are
    poset indices; poset order breaks ties between equal ranks.  The Betti
    numbers of each ambient come from `bases.subfan_betti`, the memo
    `poincare` reads, so with one resolver no lattice is resolved twice."""
    bases = complete_bases(fan, building.torus_dim, bases)
    poset = building.poset
    elements = poset.elements

    def deepest_first(i: int) -> tuple[int, int]:
        return (-elements[i].rank, i)

    def ranks_of(ambient: int, centers: tuple[int, ...]) -> GradedCount:
        if not centers:
            return bases.subfan_betti(elements[ambient].gamma)
        z, rest = centers[-1], centers[:-1]
        total = ranks_of(ambient, rest)
        codim = elements[z].rank - elements[ambient].rank
        if codim >= 2:
            induced = {c for g in rest for c in poset.components((g, z)) if c != z}
            inner = ranks_of(z, tuple(sorted(induced, key=deepest_first)))
            for j in range(1, codim):
                total = _padded_add(total, inner, shift=j)
        return total

    # element 0 is the torus
    return ranks_of(0, tuple(sorted(building.positions, key=deepest_first)))


def building_set_from_arrangement(
    torus_dim: int,
    layers: Sequence[Layer],
    members: Sequence[Layer] | None = None,
) -> BuildingSet:
    """Poset closure plus building set in one step."""
    poset = poset_of_layers(torus_dim, layers)
    return build_building_set(poset, members)
