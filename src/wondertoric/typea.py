"""Combinatorics of the equal-coordinate arrangement: admissible labeled
forests, hook statistics on permutations, and the leaf-insertion bijection."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import ValidationError
from .layers import Layer, LayerPoset, poset_of_layers
from .models import BuildingSet, build_building_set

Word = tuple[int, ...]


@dataclass(frozen=True)
class TreeNode:
    """Vertex of an admissible tree: a labeled leaf, or a branch vertex with
    at least three children and an exponent in 1..children-2.  Its leaf
    labels and degree are read off the children once, when it is made."""

    leaf_label: int | None
    exponent: int
    children: tuple[TreeNode, ...]
    leaves: frozenset[int] = field(init=False, compare=False, repr=False)
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kids, own = self.children, () if self.leaf_label is None else (self.leaf_label,)
        object.__setattr__(self, "leaves", frozenset(own).union(*(k.leaves for k in kids)))
        object.__setattr__(self, "degree", self.exponent + sum(k.degree for k in kids))

    @classmethod
    def leaf(cls, label: int) -> TreeNode:
        if label < 1:
            raise ValidationError("leaf labels must be positive")
        return cls(label, 0, ())

    @classmethod
    def branch(cls, exponent: int, children: Sequence[TreeNode]) -> TreeNode:
        kids = tuple(sorted(children, key=lambda c: c.min_leaf))
        if len(kids) < 3:
            raise ValidationError("branch vertices need at least three children")
        if not 1 <= exponent <= len(kids) - 2:
            raise ValidationError("branch exponent must lie in 1..children-2")
        if len(frozenset().union(*(k.leaves for k in kids))) != sum(
            len(k.leaves) for k in kids
        ):
            raise ValidationError("children must carry disjoint leaf labels")
        return cls(None, exponent, kids)

    @property
    def is_leaf(self) -> bool:
        return self.leaf_label is not None

    @property
    def min_leaf(self) -> int:
        return min(self.leaves)


def _tree_key(node: TreeNode):
    if node.is_leaf:
        return (0, node.leaf_label, ())
    return (1, node.exponent, tuple(_tree_key(c) for c in node.children))


@dataclass(frozen=True)
class AdmissibleForest:
    """Admissible trees whose leaf labels partition 1..n, sorted by least leaf."""

    trees: tuple[TreeNode, ...]

    @property
    def leaf_count(self) -> int:
        return sum(len(t.leaves) for t in self.trees)

    @property
    def degree(self) -> int:
        return sum(t.degree for t in self.trees)

    @property
    def component_count(self) -> int:
        return len(self.trees)

    def sort_key(self):
        return (self.degree, len(self.trees), tuple(_tree_key(t) for t in self.trees))


def make_forest(trees: Sequence[TreeNode]) -> AdmissibleForest:
    """Canonical forest from components in any order."""
    ordered = tuple(sorted(trees, key=lambda t: t.min_leaf))
    labels = sorted(l for t in ordered for l in t.leaves)
    if labels != list(range(1, len(labels) + 1)):
        raise ValidationError("leaf labels must partition 1..n")
    return AdmissibleForest(ordered)


def _set_partitions(items: Word):
    """All partitions of an ascending tuple into nonempty blocks."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((head,) + part[i],) + part[i + 1 :]
        yield ((head,),) + part


def _tree_choices(labels: Word, min_blocks: int):
    """Every choice of one admissible tree per block, over the partitions of
    the ascending labels into at least `min_blocks` blocks."""
    for part in _set_partitions(labels):
        if len(part) < min_blocks:
            continue
        pools = [admissible_trees(block) for block in part]
        if all(pools):
            yield from product(*pools)


@lru_cache(maxsize=None)
def admissible_trees(labels: Word) -> tuple[TreeNode, ...]:
    """All admissible trees carrying exactly the given ascending leaf labels."""
    if len(labels) == 1:
        return (TreeNode.leaf(labels[0]),)
    out = [
        TreeNode.branch(e, combo)
        for combo in _tree_choices(labels, 3)
        for e in range(1, len(combo) - 1)
    ]
    return tuple(sorted(out, key=_tree_key))


def enumerate_forests(n: int) -> tuple[AdmissibleForest, ...]:
    """All admissible forests on leaves 1..n, grouped by (degree, components)."""
    if n < 1:
        raise ValidationError("need at least one leaf")
    out = [make_forest(combo) for combo in _tree_choices(tuple(range(1, n + 1)), 1)]
    return tuple(sorted(out, key=lambda f: f.sort_key()))


def inversions(word: Sequence[int]) -> int:
    """Number of out-of-order pairs."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


@dataclass(frozen=True)
class HookFactorization:
    """Unique split of a word into an increasing prefix and hooks, where a
    hook descends once at the front and then increases."""

    prefix: Word
    hooks: tuple[Word, ...]

    @classmethod
    def of_hooks(cls, n: int, hooks: Sequence[Word]) -> HookFactorization:
        """These hooks after the letters of 1..n in no hook, in ascending order."""
        used = {x for hook in hooks for x in hook}
        return cls(tuple(x for x in range(1, n + 1) if x not in used), tuple(hooks))

    def word(self) -> Word:
        return sum(self.hooks, self.prefix)


def hook_factorize(word: Sequence[int]) -> HookFactorization:
    """Factor a word of distinct entries, peeling hooks off the right end."""
    w = tuple(int(x) for x in word)
    if len(set(w)) != len(w):
        raise ValidationError("entries must be distinct")
    hooks: list[Word] = []
    j = len(w)
    i = j - 1
    while i > 0:
        if w[i - 1] < w[i]:
            i -= 1
        else:
            hooks.append(w[i - 1 : j])
            j = i - 1
            i = j - 1
    return HookFactorization(w[:j], tuple(reversed(hooks)))


def lec(word: Sequence[int]) -> int:
    """Total inversions over the hooks of the factorization."""
    return sum(inversions(h) for h in hook_factorize(word).hooks)


def lec_counts(n: int) -> tuple[int, ...]:
    """Number of permutations of 1..n with each value 0, 1, ... of `lec`.

    `hook_factorize` scans a word from the right.  Prepending a letter b to
    the scanned suffix either extends the open increasing run, when b is
    below the run's head, or closes a hook, adding the run letters below b
    to `lec` and leaving the run empty.  So the `lec` still to come depends
    only on the relative order of the free letters and the run letters, and
    the k free letters can be relabelled 0..k-1.  The state is then
    (h, tail): h free letters lie below the head, and tail[j] run letters
    lie below free letter h + j.  Picking i < h extends the run, to
    (i, (1,) * (h - i - 1) + (p + 1 for p in tail)); picking h + j closes a
    hook, adding tail[j], to (k - 1, ()).

    A state is a word in free and run letters, read upwards to the top free
    letter: k free letters, at most n - k run letters, ending in a free one.
    Padded with run letters to length n these words stay distinct, so there
    are at most 2^n states (exactly 2^n for n <= 10), against n! leaves for
    a walk over the permutations.  Each state's counts are computed once,
    in a memo that lives for this call only (`lec_count_table`).
    """
    return lec_count_table(n)[n]


def lec_count_table(order: int) -> tuple[tuple[int, ...], ...]:
    """`lec_counts(n)` for n = 0, 1, ..., order, from one memo of scan
    states that lives for this call only.  A state does not depend on the
    word's length, and the start (n, ()) leads to (n - 1, ()) when its top
    free letter opens the run, so the states of order letters include
    those of every shorter word."""
    if order < 0:
        raise ValidationError("need a nonnegative size")
    memo: dict[tuple[int, Word], Word] = {}

    def add(out: list[int], counts: Word, shift: int) -> None:
        out.extend([0] * (shift + len(counts) - len(out)))
        for d, c in enumerate(counts, start=shift):
            out[d] += c

    def count(h: int, tail: Word) -> Word:
        if not h and not tail:
            return (1,)  # every letter is placed
        key = (h, tail)
        if key not in memo:
            out = [0]
            for i in range(h):
                add(out, count(i, (1,) * (h - i - 1) + tuple(p + 1 for p in tail)), 0)
            if tail:
                fresh = count(h + len(tail) - 1, ())
                for p in tail:
                    add(out, fresh, p)
            memo[key] = tuple(out)
        return memo[key]

    return tuple(count(n, ()) for n in range(order + 1))


def hook_from_set(labels: Sequence[int], inversion_count: int) -> Word:
    """The unique hook on a label set with the requested inversion count."""
    s = tuple(sorted(labels))
    if len(set(s)) != len(s):
        raise ValidationError("entries must be distinct")
    i = inversion_count
    if not 1 <= i <= len(s) - 1:
        raise ValidationError("inversion count must lie in 1..size-1")
    return (s[i],) + s[:i] + s[i + 1 :]


def des(perm: Sequence[int]) -> int:
    """Number of descents."""
    _check_permutation(perm, len(perm))
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


def eulerian(n: int) -> tuple[int, ...]:
    """Coefficients of the descent-count polynomial A_n(q), ascending in q."""
    if n < 0:
        raise ValidationError("need a nonnegative size")
    if n == 0:
        return (1,)
    # row[k] = permutations of m with k descents
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * row[k] + (m - k) * (row[k - 1] if k else 0)
            for k in range(len(row))
        ] + [1]
    return (0,) + tuple(row)


def _check_permutation(perm: Sequence[int], m: int) -> Word:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(1, m + 1)):
        raise ValidationError("expected a permutation of 1..%d" % m)
    return p


def psi(forest: AdmissibleForest, sigma: Sequence[int]) -> AdmissibleForest:
    """Insert a new greatest leaf into a forest as directed by a permutation
    of its components."""
    trees = forest.trees
    perm = _check_permutation(sigma, len(trees))
    new_leaf = TreeNode.leaf(forest.leaf_count + 1)
    grown = new_leaf
    used: set[int] = set()
    for hook in reversed(hook_factorize(perm).hooks):
        members = [trees[index - 1] for index in hook]
        grown = TreeNode.branch(inversions(hook), (*members, grown))
        used.update(hook)
    kept = [t for index, t in enumerate(trees, start=1) if index not in used]
    return make_forest((*kept, grown))


def psi_inverse(forest: AdmissibleForest) -> tuple[AdmissibleForest, Word]:
    """Split off the greatest leaf, recovering the smaller forest and the
    permutation of its components that rebuilds the input."""
    n = forest.leaf_count
    if n < 1:
        raise ValidationError("need at least one leaf")
    chain: list[TreeNode] = []
    freed: list[TreeNode] = []
    for tree in forest.trees:
        if n not in tree.leaves:
            freed.append(tree)
            continue
        node = tree
        while not node.is_leaf:
            chain.append(node)
            rest = [c for c in node.children if n not in c.leaves]
            freed.extend(rest)
            (node,) = [c for c in node.children if n in c.leaves]
        if node.leaf_label != n:
            raise ValidationError("greatest leaf must end the branch chain")
    small = make_forest(freed)
    index_of = {t: i for i, t in enumerate(small.trees, start=1)}
    hooks: list[Word] = []
    for node in chain:
        batch = sorted(index_of[c] for c in node.children if n not in c.leaves)
        hooks.append(hook_from_set(batch, node.exponent))
    return small, HookFactorization.of_hooks(len(small.trees), hooks).word()


def chain_monomial_to_permutation(
    steps: Sequence[tuple[Sequence[int], int]], n: int
) -> Word:
    """Permutation encoding a monomial supported on a strictly nested chain
    of subsets of 1..n, one hook per step."""
    hooks: list[Word] = []
    previous: frozenset[int] = frozenset()
    for labels, exponent in steps:
        current = frozenset(int(x) for x in labels)
        if not current <= set(range(1, n + 1)):
            raise ValidationError("subsets must lie inside 1..n")
        if not previous < current:
            raise ValidationError("subsets must strictly increase along the chain")
        fresh = sorted(current - previous)
        if not 1 <= exponent <= len(fresh) - 1:
            raise ValidationError(
                "exponent must be strictly below the relative codimension"
            )
        hooks.append(hook_from_set(fresh, exponent))
        previous = current
    return HookFactorization.of_hooks(n, hooks).word()


def permutation_to_chain_monomial(perm: Sequence[int]) -> tuple[tuple[Word, int], ...]:
    """Inverse encoding: the nested subset chain with exponents for a permutation."""
    p = _check_permutation(perm, len(perm))
    steps: list[tuple[Word, int]] = []
    running: set[int] = set()
    for hook in hook_factorize(p).hooks:
        running |= set(hook)
        steps.append((tuple(sorted(running)), inversions(hook)))
    return tuple(steps)


def equal_coordinate_layer(n: int, labels: Iterable[int]) -> Layer:
    """Subtorus of the rank n-1 quotient torus where the chosen coordinates
    of the covering rank n torus agree."""
    group = sorted(set(int(x) for x in labels))
    if not group or group[0] < 1 or group[-1] > n:
        raise ValidationError("labels must be a nonempty subset of 1..n")
    base = group[0]
    rows = []
    for other in group[1:]:
        row = [0] * (n - 1)
        row[base - 1] = 1
        if other < n:
            row[other - 1] = -1
        rows.append(row)
    return Layer.from_generators(n - 1, rows, [0] * len(rows))


def equal_coordinate_arrangement(n: int) -> tuple[Layer, ...]:
    """The pairwise equal-coordinate layers in the rank n-1 quotient torus."""
    if n < 2:
        raise ValidationError("need at least two coordinates")
    return tuple(
        equal_coordinate_layer(n, (i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )


def minimal_equal_coordinate_building(n: int) -> tuple[LayerPoset, BuildingSet]:
    """Poset of the equal-coordinate arrangement with the building set of the
    single-block layers."""
    poset = poset_of_layers(n - 1, equal_coordinate_arrangement(n))
    members = tuple(
        equal_coordinate_layer(n, group)
        for size in range(2, n + 1)
        for group in _ascending_subsets(n, size)
    )
    return poset, build_building_set(poset, members)


def _ascending_subsets(n: int, size: int) -> Iterable[Word]:
    return combinations(range(1, n + 1), size)
