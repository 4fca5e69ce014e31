"""Seeded generator of small toric arrangements for the model-arrgen workload.

Every case lives on a fan that is good for its arrangement: coordinate
subtori with values 0 or 1/2 on the 2- and 3-dimensional orthant fans, and
subtori cut out by A2 roots on the Weyl fan of A3.  All of them therefore
pass the goodness check, and the whole poset is a building set for them.

The cases are drawn once from a fixed corpus seed.  The run's seed then maps
each case to an isomorphic one: it permutes the coordinates (orthant fans)
and translates by a 2-torsion point, which shifts each layer's value by its
character's value there.  Both maps preserve the fan, so every seed gives
different inputs with the same combinatorics and about the same work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import wondertoric as wt

CORPUS_SEED = 1
_VALUES = (Fraction(0), Fraction(1, 2))
_A2_ROOTS = ((1, -1), (1, 0), (0, 1))
_DIMS = {"orthant2": 2, "orthant3": 3, "weyl": 2}


def _corpus(count: int):
    """(kind, [(characters, values), ...]) per case; shapes cycle with the index."""
    rng = random.Random(CORPUS_SEED)
    kinds = tuple(_DIMS)
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n = _DIMS[kind]
        specs = []
        for j in range(1 + (k // len(kinds)) % 4):
            if kind == "weyl":
                specs.append(([rng.choice(_A2_ROOTS)], [rng.choice(_VALUES)]))
            else:
                coords = sorted(rng.sample(range(n), 1 + (k + j) % n))
                rows = [[int(i == c) for i in range(n)] for c in coords]
                specs.append((rows, [rng.choice(_VALUES) for _ in coords]))
        yield kind, specs


def random_cases(count: int, seed: int):
    """List of (label, fan, torus_dim, layers), the same for the same seed."""
    rng = random.Random(seed)
    fans = {"orthant2": wt.orthant_fan(2), "orthant3": wt.orthant_fan(3), "weyl": wt.weyl_fan_A(3)}
    cases = []
    for k, (kind, specs) in enumerate(_corpus(count)):
        n, fan = _DIMS[kind], fans[kind]
        perm = list(range(n)) if kind == "weyl" else rng.sample(range(n), n)
        shift = [rng.choice(_VALUES) for _ in range(n)]
        layers = set()
        for rows, values in specs:
            moved = [[row[perm.index(i)] for i in range(n)] for row in rows]
            shifted = [v + sum(x * t for x, t in zip(row, shift)) for row, v in zip(moved, values)]
            layers.add(wt.Layer.from_generators(n, moved, shifted))
        cases.append((f"case{k}-{kind}", fan, n, tuple(sorted(layers, key=wt.Layer.sort_key))))
    return cases
