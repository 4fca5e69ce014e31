"""Graded ranks of an emitted cohomology presentation, by exact elimination
modulo a prime.

This is a test-side oracle for the graded ranks of a model: it reads only the
generators returned by `emit_presentation`, never nested sets or admissible
functions, and computes the dimension of each graded piece of
F_p[C, T] / I with every variable in degree one.

The linear forms are solved for pivot variables and substituted away first.
Generators that are single monomials after the substitution span a monomial
ideal J, handled by keeping only the standard monomials (those outside J) as
columns; the rank of the remaining generators' multiples modulo J is taken
degree by degree.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

PRIME = 2**31 - 1

Exps = tuple[int, ...]
ModPoly = dict[Exps, int]


def _mul(a: ModPoly, b: ModPoly, p: int) -> ModPoly:
    out: ModPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _generators(ideal) -> list[list[tuple[int, dict[int, int]]]]:
    """Every nonlinear generator as a list of (coefficient, {variable index:
    exponent}) terms; C_i is variable i and T_j is variable ray_count + j.
    A monomial of the presentation is the sorted tuple of its variables."""
    rays = ideal.ray_count

    def index(var) -> int:
        kind, i = var
        return i if kind == "C" else rays + i

    def term(coeff, indices):
        exps: dict[int, int] = {}
        for i in indices:
            exps[i] = exps.get(i, 0) + 1
        return (coeff, exps)

    gens = [[term(1, mono)] for mono in ideal.nonface_monomials]
    gens += [[term(1, (r, rays + g))] for r, g in ideal.ray_member_products]
    gens += [
        [term(c, map(index, mono)) for mono, c in rel.terms]
        for rel in ideal.member_relations
    ]
    gens += [
        [term(1, (rays + g for g in subset))]
        for subset in ideal.empty_intersection_products
    ]
    return gens


def _solve_linear_forms(ideal, p: int):
    """Reduced row echelon form of the linear forms: a map from each pivot
    variable to its value as {free variable: coefficient}, and the list of
    free variables."""
    nvars = ideal.variable_count
    rays = ideal.ray_count
    rows = []
    for terms in ideal.linear_forms:
        row = [0] * nvars
        for mono, c in terms:
            assert len(mono) == 1, "linear form with a nonlinear term"
            (kind, i), = mono
            row[i if kind == "C" else rays + i] = c % p
        rows.append(row)
    pivots: list[int] = []
    rank = 0
    for col in range(nvars):
        hit = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [v for v in range(nvars) if v not in pivots]
    solved = {
        col: {v: -rows[r][v] % p for v in free if rows[r][v]}
        for r, col in enumerate(pivots)
    }
    return solved, free


def _substitute(gen, solved, free, p: int) -> ModPoly:
    position = {v: k for k, v in enumerate(free)}
    width = len(free)

    def linear(var) -> ModPoly:
        if var in solved:
            out: ModPoly = {}
            for v, c in solved[var].items():
                exps = [0] * width
                exps[position[v]] = 1
                out[tuple(exps)] = c
            return out
        exps = [0] * width
        exps[position[var]] = 1
        return {tuple(exps): 1}

    total: ModPoly = {}
    for coeff, exps in gen:
        term: ModPoly = {(0,) * width: coeff % p}
        for var, e in exps.items():
            for _ in range(e):
                term = _mul(term, linear(var), p)
        for m, c in term.items():
            total[m] = (total.get(m, 0) + c) % p
    return {m: c for m, c in total.items() if c}


def _monomials(width: int, degree: int) -> list[Exps]:
    out = []
    for combo in combinations_with_replacement(range(width), degree):
        exps = [0] * width
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def presentation_hilbert_function(
    ideal, top_degree: int, p: int = PRIME
) -> tuple[int, ...]:
    """Dimensions over F_p of the graded pieces of degree 0..top_degree of the
    quotient of the polynomial ring in the C and T variables by the ideal."""
    solved, free = _solve_linear_forms(ideal, p)
    width = len(free)
    monomial_ideal: list[Exps] = []
    others: list[tuple[int, ModPoly]] = []
    for gen in _generators(ideal):
        poly = _substitute(gen, solved, free, p)
        if not poly:
            continue
        degrees = {sum(m) for m in poly}
        assert len(degrees) == 1, "presentation generator is not homogeneous"
        if len(poly) == 1:
            monomial_ideal.append(next(iter(poly)))
        else:
            others.append((degrees.pop(), poly))

    def outside_j(m: Exps) -> bool:
        return not any(_divides(j, m) for j in monomial_ideal)

    ranks = []
    for degree in range(top_degree + 1):
        standard = [m for m in _monomials(width, degree) if outside_j(m)]
        column = {m: k for k, m in enumerate(standard)}
        pivots: dict[int, dict[int, int]] = {}
        for gdeg, poly in others:
            if gdeg > degree:
                continue
            for mult in _monomials(width, degree - gdeg):
                if not outside_j(mult):
                    continue
                row: dict[int, int] = {}
                for m, c in poly.items():
                    k = column.get(tuple(x + y for x, y in zip(m, mult)))
                    if k is not None:
                        row[k] = c
                while row:
                    lead = min(row)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        inv = pow(row[lead], p - 2, p)
                        pivots[lead] = {k: c * inv % p for k, c in row.items()}
                        break
                    f = row[lead]
                    for k, c in pivot.items():
                        v = (row.get(k, 0) - f * c) % p
                        if v:
                            row[k] = v
                        else:
                            row.pop(k, None)
        ranks.append(len(standard) - len(pivots))
    return tuple(ranks)
