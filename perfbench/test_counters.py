"""Pinned traced counters for ``reproduce example-a2``.

Counters count work, not time, so they must repeat exactly in every fresh
interpreter.  A changed value means the library does more or less work (or
the tracer lost a boundary), and the pin must be updated on purpose.

    python3 -m pytest perfbench/test_counters.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TRACE_A2 = """
import json
from tracer import Tracer
import wondertoric as wt
tracer = Tracer()
tracer.install()
text = wt.cli.reproduction_text("example-a2")
metrics = tracer.metrics()
golden = (wt.fixture_path("golden") / "example-a2.txt").read_text()
print(json.dumps({"matches_golden": text == golden, "metrics": metrics}))
"""

PINNED_A2 = {
    "layers.intersect.calls": 70,
    "layers.poset_of_layers.intersect_calls": 24,
    "layers.poset.elements": 5,
    "layers.poset.new": 1,
    "lattice.hermite_form.calls": 466,
    "lattice.smith_normal_form.calls": 108,
    "lattice.smith_cache.hits": 623,
    "lattice.smith_cache.misses": 6,
    "fans.equal_sign_basis.calls": 9,
    "fans.extend_equal_sign_basis.calls": 8,
    "fans.subfan.calls": 4,
    "fans.betti_numbers.misses": 2,
    "models.enumerate_nested_sets.calls": 3,
    "models.nested_sets.count": 24,
    "models.admissible.count": 4,
    "presentation.generators.count": 40,
    "cli.calls": 1,
    "files.calls": 4,
    "series.calls": 0,
    "typea.calls": 0,
}


def _traced_a2() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_A2], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_example_a2_counters_repeat_exactly():
    first, second = _traced_a2(), _traced_a2()
    assert first["matches_golden"] and second["matches_golden"]
    for run in (first, second):
        got = {name: run["metrics"][name] for name in PINNED_A2}
        assert got == PINNED_A2


if __name__ == "__main__":
    test_example_a2_counters_repeat_exactly()
    print("ok")
