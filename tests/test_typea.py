"""Tests for admissible forests, hook statistics, and the leaf bijection."""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equal_coordinate import check_supports, degree_counts
from wondertoric.errors import ValidationError
from wondertoric.fans import betti_numbers, weyl_fan_A
from wondertoric.models import is_well_connected, poincare
from wondertoric.typea import (
    TreeNode,
    admissible_trees,
    chain_monomial_to_permutation,
    des,
    enumerate_forests,
    eulerian,
    hook_factorize,
    hook_from_set,
    inversions,
    lec,
    lec_count_table,
    lec_counts,
    make_forest,
    minimal_equal_coordinate_building,
    permutation_to_chain_monomial,
    psi,
    psi_inverse,
)

WORKED_WORD = (10, 13, 14, 8, 3, 6, 5, 4, 7, 11, 12, 9, 1, 2)


def leaves(*labels):
    return [TreeNode.leaf(l) for l in labels]


def test_tree_constructors_validate():
    with pytest.raises(ValidationError, match="three children"):
        TreeNode.branch(1, leaves(1, 2))
    with pytest.raises(ValidationError, match="exponent"):
        TreeNode.branch(0, leaves(1, 2, 3))
    with pytest.raises(ValidationError, match="exponent"):
        TreeNode.branch(2, leaves(1, 2, 3))
    with pytest.raises(ValidationError, match="disjoint"):
        TreeNode.branch(1, leaves(1, 2, 2))
    star = TreeNode.branch(1, leaves(2, 3, 1))
    assert [c.leaf_label for c in star.children] == [1, 2, 3]
    assert star.degree == 1 and star.leaves == {1, 2, 3}


def test_make_forest_canonical_order():
    f = make_forest([TreeNode.leaf(2), TreeNode.leaf(1), TreeNode.leaf(3)])
    assert [t.min_leaf for t in f.trees] == [1, 2, 3]
    assert f.degree == 0 and f.leaf_count == 3
    with pytest.raises(ValidationError, match="partition"):
        make_forest(leaves(1, 3))


def test_tree_counts_small():
    assert len(admissible_trees((1,))) == 1
    assert admissible_trees((1, 2)) == ()
    assert len(admissible_trees((1, 2, 3))) == 1
    four = admissible_trees((1, 2, 3, 4))
    assert sorted(t.degree for t in four) == [1, 2]
    assert all(len(t.children) == 4 for t in four)


def test_enumerate_forests_counts():
    assert len(enumerate_forests(1)) == 1
    assert len(enumerate_forests(2)) == 1
    by_degree = Counter(f.degree for f in enumerate_forests(4))
    assert by_degree == {0: 1, 1: 5, 2: 1}
    keys = [(f.degree, f.component_count) for f in enumerate_forests(5)]
    assert keys == sorted(keys)


def test_hook_factorization_worked_example():
    fact = hook_factorize(WORKED_WORD)
    assert fact.prefix == (10, 13, 14)
    assert fact.hooks == ((8, 3, 6), (5, 4, 7, 11, 12), (9, 1, 2))
    assert fact.word() == WORKED_WORD
    assert lec(WORKED_WORD) == 5


def test_hook_factorization_edges():
    assert hook_factorize((1, 2, 3)).hooks == ()
    assert lec((1, 2, 3)) == 0
    fact = hook_factorize((3, 1, 2))
    assert fact.prefix == () and fact.hooks == ((3, 1, 2),)
    assert lec((3, 1, 2)) == 2
    with pytest.raises(ValidationError, match="distinct"):
        hook_factorize((1, 2, 2))


def _all_splits(word):
    """Every way to cut the word into an increasing prefix plus hooks."""
    def is_increasing(seg):
        return all(a < b for a, b in zip(seg, seg[1:]))

    def is_hook(seg):
        return len(seg) >= 2 and seg[0] > seg[1] and is_increasing(seg[1:])

    n = len(word)
    out = []
    for mask in range(1 << max(n - 1, 0)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        segments = [word[a:b] for a, b in zip(cuts, cuts[1:])]
        candidates = ([segments[0], segments[1:]], [(), segments])
        for prefix, hooks in candidates:
            if is_increasing(prefix) and all(is_hook(h) for h in hooks):
                if (tuple(prefix), tuple(map(tuple, hooks))) not in out:
                    out.append((tuple(prefix), tuple(map(tuple, hooks))))
    return out


def test_hook_factorization_unique_for_short_words():
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            splits = _all_splits(perm)
            assert len(splits) == 1
            fact = hook_factorize(perm)
            assert splits[0] == (fact.prefix, fact.hooks)


def test_hook_from_set_goldens():
    assert hook_from_set({1, 2}, 1) == (2, 1)
    assert hook_from_set({4, 5, 6}, 2) == (6, 4, 5)
    assert hook_from_set({7, 8}, 1) == (8, 7)
    assert inversions(hook_from_set(range(1, 8), 4)) == 4
    with pytest.raises(ValidationError, match="inversion count"):
        hook_from_set({1, 2, 3}, 3)


def test_des_and_eulerian():
    assert des((1, 2, 3, 4)) == 0
    assert des((2, 1)) == 1
    assert eulerian(0) == (1,)
    assert eulerian(1) == (0, 1)
    assert eulerian(2) == (0, 1, 1)
    assert eulerian(3) == (0, 1, 4, 1)


def test_lec_and_des_equidistributed():
    for n in range(1, 7):
        lec_dist = Counter(lec(p) for p in permutations(range(1, n + 1)))
        des_dist = Counter(des(p) for p in permutations(range(1, n + 1)))
        expected = eulerian(n)[1:]
        assert tuple(lec_dist[k] for k in range(n)) == expected
        assert tuple(des_dist[k] for k in range(n)) == expected


def test_lec_counts_walk_matches_word_by_word():
    for n in range(8):
        word_by_word = Counter(lec(p) for p in permutations(range(1, n + 1)))
        expected = tuple(word_by_word[d] for d in range(max(word_by_word) + 1))
        assert lec_counts(n) == expected


def test_lec_counts_rejects_negative_size():
    with pytest.raises(ValidationError):
        lec_counts(-1)


def _lec_counts_by_walk(n):
    """Reference: a depth-first walk with one leaf per permutation of 1..n,
    prepending one unused letter at a time with the state of
    `hook_factorize`'s scan from the right: the open increasing run, its
    head and the `lec` of the hooks already closed.  A letter below the head
    extends the run; one above it closes a hook, whose inversions are the
    run letters below it.  Letters and the run are bitmasks."""
    counts = [0] * max(n, 1)
    top = 1 << n  # the head after a hook closes: every letter extends the run

    def walk(free, run, head, total):
        if not free:
            counts[total] += 1
            return
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            if bit < head:
                walk(free ^ bit, run | bit, bit, total)
            else:
                walk(free ^ bit, 0, top, total + (run & (bit - 1)).bit_count())

    walk(top - 1, 0, top, 0)
    return tuple(counts)


def test_lec_counts_matches_the_walk_over_permutations():
    for n in range(10):
        assert lec_counts(n) == _lec_counts_by_walk(n), n


def test_lec_counts_of_the_empty_and_one_letter_words():
    assert lec_counts(0) == lec_counts(1) == (1,)


def test_lec_counts_are_the_eulerian_numbers_through_12_letters():
    """Kim-Zeng: `lec` is equidistributed with `des`.  At n = 12 a walk over
    the permutations would have 12! = 479001600 leaves."""
    for n in range(1, 13):
        assert lec_counts(n) == eulerian(n)[1:], n


def test_lec_count_table_reads_one_memo_for_every_size():
    """The table's row n is `lec_counts(n)`, counted over a memo of its
    own, the walk over the permutations through n = 7 and the Eulerian
    numbers through n = 12."""
    table = lec_count_table(12)
    assert table == tuple(lec_counts(n) for n in range(13))
    assert table[:8] == tuple(_lec_counts_by_walk(n) for n in range(8))
    assert table[1:] == tuple(eulerian(n)[1:] for n in range(1, 13))
    assert lec_count_table(0) == ((1,),)
    with pytest.raises(ValidationError):
        lec_count_table(-1)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_hook_factorization_reassembles(perm):
    fact = hook_factorize(perm)
    assert fact.word() == tuple(perm)
    assert all(a < b for a, b in zip(fact.prefix, fact.prefix[1:]))
    for hook in fact.hooks:
        assert hook[0] > hook[1]
        assert all(a < b for a, b in zip(hook[1:], hook[2:]))
    assert 0 <= lec(perm) <= inversions(perm)


def test_psi_identity_appends_isolated_leaf():
    forest = make_forest(leaves(1, 2, 3))
    grown = psi(forest, (1, 2, 3))
    assert [t.leaf_label for t in grown.trees] == [1, 2, 3, 4]
    with pytest.raises(ValidationError, match="permutation"):
        psi(forest, (1, 2))


def test_psi_single_hook_builds_star():
    forest = make_forest(leaves(1, 2))
    grown = psi(forest, (2, 1))
    (tree,) = grown.trees
    assert tree.exponent == 1 and tree.leaves == {1, 2, 3}
    assert psi_inverse(grown) == (forest, (2, 1))


def test_psi_inverse_isolated_leaf():
    forest = make_forest(leaves(1, 2, 3))
    small, word = psi_inverse(forest)
    assert small == make_forest(leaves(1, 2)) and word == (1, 2)


def test_psi_round_trip_exhaustive():
    for n in range(1, 6):
        seen = Counter()
        for forest in enumerate_forests(n):
            for sigma in permutations(range(1, forest.component_count + 1)):
                grown = psi(forest, sigma)
                assert grown.leaf_count == n + 1
                assert grown.degree == forest.degree + lec(sigma)
                assert psi_inverse(grown) == (forest, sigma)
                seen[grown.degree] += 1
        assert seen == Counter(f.degree for f in enumerate_forests(n + 1))


def test_chain_monomial_worked_example():
    steps = (((1, 2), 1), ((1, 2, 4, 5, 6), 2), ((1, 2, 4, 5, 6, 7, 8), 1))
    sigma = chain_monomial_to_permutation(steps, 10)
    assert sigma == (3, 9, 10, 2, 1, 6, 4, 5, 8, 7)
    assert lec(sigma) == 4
    assert permutation_to_chain_monomial(sigma) == tuple(
        (tuple(s), e) for s, e in steps
    )


def test_chain_monomial_validates():
    assert chain_monomial_to_permutation((), 4) == (1, 2, 3, 4)
    with pytest.raises(ValidationError, match="codimension"):
        chain_monomial_to_permutation((((1, 2), 2),), 4)
    with pytest.raises(ValidationError, match="strictly increase"):
        chain_monomial_to_permutation((((1, 2), 1), ((1, 2), 1)), 4)
    with pytest.raises(ValidationError, match="inside"):
        chain_monomial_to_permutation((((4, 5), 1),), 4)


def test_chain_monomial_round_trip_exhaustive():
    for n in range(1, 6):
        for perm in permutations(range(1, n + 1)):
            steps = permutation_to_chain_monomial(perm)
            assert chain_monomial_to_permutation(steps, n) == perm
            assert sum(e for _, e in steps) == lec(perm)


def test_equal_coordinate_building_small():
    poset, building = minimal_equal_coordinate_building(2)
    assert len(poset.elements) == 2 and len(building.members) == 1
    assert poincare(building, weyl_fan_A(2)).total == (1, 1)
    poset3, building3 = minimal_equal_coordinate_building(3)
    assert len(poset3.elements) == 5 and len(building3.members) == 4
    assert betti_numbers(weyl_fan_A(3)) == tuple(eulerian(3)[1:])


@pytest.mark.parametrize("n", range(3, 7))
def test_equal_coordinate_supports_are_forests_with_eulerian_subfans(n):
    _, building = minimal_equal_coordinate_building(n)
    assert is_well_connected(building).ok
    result = poincare(building, weyl_fan_A(n))
    check_supports(n, building, result)
    # read through psi, the total counts the forests on n + 1 leaves by degree
    assert result.total == degree_counts(f.degree for f in enumerate_forests(n + 1))
