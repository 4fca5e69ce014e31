"""A fan's own tables live on the fan, as cached attributes.

The kinds, faces, ray bitmasks, flag verdict and minimal nonfaces of a
`Fan` are `functools.cached_property` attributes, so reading one hashes
nothing.  A module-level `lru_cache` keyed by a fan would rehash every ray
and cone on each lookup, once per searched lattice.  Four such caches are
kept on purpose:

- `fans.betti_numbers`: its `cache_info()` is a benchmark counter;
- `fans._equal_sign_level`: keyed by a lattice basis and a coefficient
  height as well as the fan;
- `fans._shared_bases`: shares one bounded default resolver among equal
  fans, by design;
- `presentation.character_linear_forms`: a table in the presentation's
  polynomial format, which the fan does not know.

This walks the library's syntax trees, so a new such cache fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wondertoric
from wondertoric.fans import EqualSignBases, Fan, weyl_fan_A
from wondertoric.models import poincare, rank_via_blowup_recursion
from wondertoric.typea import minimal_equal_coordinate_building

SRC = Path(wondertoric.__file__).resolve().parent

KEPT = {
    "fans.betti_numbers",
    "fans._equal_sign_level",
    "fans._shared_bases",
    "presentation.character_linear_forms",
}


def _is_lru_cache(decorator) -> bool:
    """`@lru_cache`, `@lru_cache(...)` and `@functools.lru_cache(...)`."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return "lru_cache" in (getattr(target, "id", None), getattr(target, "attr", None))


def _fan_keyed_caches() -> set[str]:
    """`module.function` for each module-level function cached by
    `lru_cache` whose first argument is annotated `Fan` or named `fan`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.FunctionDef) or not node.args.args:
                continue
            first = node.args.args[0]
            keyed = first.arg == "fan" or getattr(first.annotation, "id", None) == "Fan"
            if keyed and any(_is_lru_cache(d) for d in node.decorator_list):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_only_the_named_caches_are_keyed_by_a_fan():
    assert _fan_keyed_caches() == KEPT


def test_model_ranks_with_a_resolver_passed_in_hash_no_fan(monkeypatch):
    _, building = minimal_equal_coordinate_building(5)
    fan = weyl_fan_A(5)
    bases = EqualSignBases(fan)
    hashed, fan_hash = [], Fan.__hash__

    def counted(self):
        hashed.append(self)
        return fan_hash(self)

    monkeypatch.setattr(Fan, "__hash__", counted)
    total = poincare(building, fan, bases).total
    assert rank_via_blowup_recursion(building, fan, bases) == total == (1, 42, 127, 42, 1)
    assert hashed == []
