"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (set up and stop), ``pass`` (set up, then run every case)
or ``traced`` (the same with the tracer installed, writing SPANS_FILE).
``src`` must be on PYTHONPATH.  Times are ``time.perf_counter`` readings,
which share one clock across processes on Linux, so the caller can subtract
its own spawn time from ``setup_end``.

Before the timed section the worker runs the reference kernel of
``calibrate.py`` a few times; between cases it runs it again whenever
``CAL_EVERY_S`` have gone since the last run, and once after the last case.
Each case's time is also given scaled to the reference speed, by the mean of
the kernel times just before and just after it (see ``calibrate.py``).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import traceback
from time import perf_counter

import wondertoric as wt
from calibrate import REF_KERNEL_S, sample
from workloads import WORKLOADS

CAL_BEFORE = 3  # kernel runs before the timed section; the first warms it up
CAL_EVERY_S = 0.1

# module caches a fresh interpreter must start with empty
COLD_CACHES = {
    "fans.betti_numbers": wt.fans.betti_numbers,
    "typea.admissible_trees": wt.typea.admissible_trees,
}


class OperationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OperationTimeout


def _run_case(limit: float, run) -> list:
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return run()
    except OperationTimeout:
        return [f"no result within the {limit:g} s limit"]
    except Exception:
        return [traceback.format_exc(limit=-4)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _scale(cases: list, kernel_before: float, kernel_after: float) -> None:
    factor = REF_KERNEL_S / ((kernel_before + kernel_after) / 2)
    for case in cases:
        case.append(case[2] * factor)


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name]()
    workload.setup(seed)
    out = {"setup_end": perf_counter()}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    kernel_s = [sample() for _ in range(CAL_BEFORE)]

    warm = {k: f.cache_info().currsize for k, f in COLD_CACHES.items() if f.cache_info().currsize}
    if warm:
        print(f"module caches are not empty at the start of the timed section: {warm}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGALRM, _on_alarm)
    cases = []
    kernel_before = kernel_s[-1]
    last_kernel = perf_counter()
    pending = []  # cases since the last kernel run
    for label, limit, run in workload.cases():
        start = perf_counter()
        problems = _run_case(limit, run)
        end = perf_counter()
        pending.append([label, not problems, end - start, problems[:3]])
        if end - last_kernel >= CAL_EVERY_S:
            kernel_after = sample()
            last_kernel = perf_counter()
            _scale(pending, kernel_before, kernel_after)
            cases += pending
            pending, kernel_before = [], kernel_after
    if pending:
        _scale(pending, kernel_before, sample())
        cases += pending
    # [label, ok, seconds, problems, seconds at the reference speed]
    out["cases"] = cases
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.write_spans(argv[3], {"workload": name, "seed": seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
