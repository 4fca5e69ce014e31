"""The benchmark's workloads.

A workload builds its inputs from the seed in ``setup`` (counted in
``setup_s``) and then yields cases.  A case is one checked operation: a
label, a per-operation time limit in seconds, and a callable that runs the
library and returns a list of problems with its output (empty when correct).
Library functions are looked up on the ``wondertoric`` modules at call time,
so that a traced pass sees the wrappers the tracer installed.
"""

from __future__ import annotations

import random
from itertools import combinations

import wondertoric as wt
from arrgen import random_cases
from wondertoric import cli, series, typea

EQC_N = 5
EQC_TOTAL = (1, 42, 127, 42, 1)
EQC_POSET_ELEMENTS = 52
EQC_MEMBERS = 26
SERIES_ORDER = 7
ARRGEN_CASES = 240


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class ModelEqc5:
    """``model poincare`` on the equal-coordinate arrangement at n = 5 with
    the single-block building set, on the Weyl fan of A4.

    ``is_well_connected`` is left out: it enumerates all 2^26 member subsets.
    """

    name = "model-eqc5"

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.fan = wt.weyl_fan_A(EQC_N)
        self.layers = list(typea.equal_coordinate_arrangement(EQC_N))
        self.members = [
            typea.equal_coordinate_layer(EQC_N, group)
            for size in range(2, EQC_N + 1)
            for group in combinations(range(1, EQC_N + 1), size)
        ]
        rng.shuffle(self.layers)
        rng.shuffle(self.members)

    def cases(self):
        yield "eqc5-poincare", 60.0, self._model

    def _model(self) -> list:
        problems: list = []
        poset = wt.poset_of_layers(EQC_N - 1, self.layers)
        _expect(problems, "poset elements", len(poset.elements), EQC_POSET_ELEMENTS)
        building = wt.build_building_set(poset, self.members)
        _expect(problems, "building set members", len(building.members), EQC_MEMBERS)
        total = wt.poincare(building, self.fan).total
        _expect(problems, "poincare total", total, EQC_TOTAL)
        oracle = wt.rank_via_blowup_recursion(building, self.fan)
        _expect(problems, "blowup oracle", oracle, total)
        return problems


class ExamplesReproduce:
    """``reproduce`` on the three bundled examples, byte-compared with the
    goldens, which are only read.  The examples run in a fixed order, since
    each warms caches the next one uses, so the seed changes nothing."""

    name = "examples-reproduce"

    def setup(self, seed: int) -> None:
        self.order = sorted(cli.EXAMPLES)
        self.golden = {
            example: (wt.fixture_path("golden") / f"{example}.txt").read_text()
            for example in self.order
        }

    def cases(self):
        for example in self.order:
            yield example, 60.0, lambda example=example: self._reproduce(example)

    def _reproduce(self, example: str) -> list:
        text = cli.reproduction_text(example)
        return [] if text == self.golden[example] else ["output differs from the golden"]


class TypeaSeries7:
    """The library calls behind ``typea verify --order 7``.  The inputs are
    fixed, so the seed changes nothing the library sees."""

    name = "typea-series7"

    def setup(self, seed: int) -> None:
        pass

    def cases(self):
        yield "lambda-recurrence", 90.0, lambda: self._holds(series.verify_lambda_recurrence(SERIES_ORDER))
        yield "main-identity", 90.0, lambda: self._holds(series.verify_main_identity(SERIES_ORDER))
        yield "equidistribution", 90.0, lambda: self._holds(
            series.lec_series(SERIES_ORDER) == series.eulerian_series(SERIES_ORDER)
        )

    @staticmethod
    def _holds(ok: bool) -> list:
        return [] if ok is True else [f"check returned {ok!r}"]


class ModelArrgen:
    """Many small seeded arrangements, each through the whole model pipeline.

    Module caches are kept across cases on purpose: that is what batch use of
    the library in one process does.
    """

    name = "model-arrgen"

    def setup(self, seed: int) -> None:
        self.cases_in = random_cases(ARRGEN_CASES, seed)

    def cases(self):
        for label, fan, n, layers in self.cases_in:
            yield label, 20.0, lambda fan=fan, n=n, layers=layers: self._model(fan, n, layers)

    @staticmethod
    def _model(fan, n, layers) -> list:
        problems: list = []
        poset = wt.poset_of_layers(n, layers)
        _expect(problems, "goodness", wt.goodness_check(fan, poset).ok, True)
        building = wt.build_building_set(poset)
        _expect(problems, "well connected", wt.is_well_connected(building).ok, True)
        nested = wt.enumerate_nested_sets(building)
        _expect(problems, "empty nested set first", nested[:1], ((),))
        total = wt.poincare(building, fan).total
        _expect(problems, "blowup oracle", wt.rank_via_blowup_recursion(building, fan), total)
        ideal = wt.emit_presentation(building, fan)
        _expect(
            problems,
            "presentation variables",
            ideal.variable_count,
            len(fan.rays) + len(building.members),
        )
        return problems


WORKLOADS = {w.name: w for w in (ModelEqc5, ExamplesReproduce, TypeaSeries7, ModelArrgen)}
