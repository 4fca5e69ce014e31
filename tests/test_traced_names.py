"""The benchmark tracer's boundary names still exist in the library.

`perfbench/tracer.py` wraps each `(module, function)` of its `BOUNDARY` and
reads three caches through `cache_info()`; a name lost in a refactor would
otherwise fail only the traced benchmark run.  The solver's plan cache
(`layers._plan`) is checked with them, so that the benchmark can report its
hits.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_boundary_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.BOUNDARY
    for module, function in tracer.BOUNDARY:
        home = importlib.import_module(f"wondertoric.{module}")
        assert callable(getattr(home, function, None)), (module, function)
    for module, function in (
        ("lattice", "_smith_of"),
        ("layers", "_plan"),
        ("fans", "betti_numbers"),
        ("typea", "admissible_trees"),
    ):
        cached = getattr(importlib.import_module(f"wondertoric.{module}"), function)
        assert callable(cached.cache_info), (module, function)
