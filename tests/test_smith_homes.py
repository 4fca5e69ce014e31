"""Smith forms are built only for the cached split verdict.

Split tests and kernels come from Hermite forms (`lattice.splits`,
`Sublattice.kernel_lattice`), and so do transforms: the solver's plan
reads its generators' Hermite basis and relations off one Hermite form of
[rows | I], and its torsion components, when that basis does not split, off
the Hermite form of [coords | I]; the cohomology monomial basis reads its
quotient map off a Hermite kernel.  The
one Smith form left is the cached verdict behind
`Sublattice.is_split_summand`, and only for a Hermite basis with a pivot
above 1: a basis whose rows all lead with 1 splits without one.  A fan's
full-dimensional cones are read off determinants.  This walks the library's
syntax trees, so a new caller fails here before it costs time anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wondertoric

SRC = Path(wondertoric.__file__).resolve().parent


def _callers(name: str) -> set[str]:
    """`module.function` for each function whose own body calls `name`;
    `module.<module>` for a call outside every function."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.add(owner)
            walk(child, owner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), f"{path.stem}.<module>")
    return found


def test_smith_normal_form_has_one_caller():
    assert _callers("smith_normal_form") == {"lattice._smith_of"}
