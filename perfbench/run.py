"""Benchmark runner: runs one workload, checks its outputs, prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass runs in a fresh interpreter
(``perfbench/worker.py``) as a closed loop with one caller, so each pass
starts with the library's module caches empty.  The run

* sets up the workload several times on its own and reports the median as
  ``setup_s`` (interpreter start, ``import wondertoric``, input generation);
* runs passes of the same inputs until about ``--seconds`` have gone, at
  least one, and reports the median pass's ``wall_ref_s`` and
  ``peak_rss_mib``, and ``case_p50_ref_ms`` and ``case_p90_ref_ms`` over the
  cases, each case taken at its median over the passes;
* with ``--trace 1`` adds one traced pass and reports the per-layer metrics
  instead, with ``trace.overhead_s`` as traced minus median untraced pass time.

Every time is scaled to the reference speed of ``calibrate.py``: the shared
host's speed for Python code drifts by up to 1.6x over tens of seconds,
which a fixed kernel timed next to each case cancels.  The worker times the
kernel around its cases; this runner times it around each set-up.  The
unscaled times are printed and kept in the result file beside the scaled
ones.

It prints each metric by name with its unit, writes the environment, the
per-pass figures and the metrics to ``.perfbench/results/``, and ends with
one JSON line.  A wrong output, an exception or a case past its time limit
is a failed operation; the exit code is 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

from calibrate import REF_KERNEL_S, sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 9
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"timed_out": True, "elapsed": perf_counter() - start}
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["setup_end"] - start
    data["elapsed"] = perf_counter() - start
    return data


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, defined for any nonempty sample."""
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wondertoric").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _measure(args) -> tuple[list[dict], list[dict], dict | None]:
    deadline = perf_counter() + RUN_BUDGET_S
    _spawn(args.workload, args.seed, "setup", deadline)  # writes the bytecode caches
    sample()  # warms up the kernel in this process
    setups = []
    for _ in range(SETUP_REPS):
        before = sample()
        setup = _spawn(args.workload, args.seed, "setup", deadline)
        after = sample()
        if not setup.get("timed_out"):
            setup["setup_ref_s"] = setup["setup_s"] * REF_KERNEL_S / ((before + after) / 2)
            setups.append(setup)
    passes: list[dict] = []
    measure_start = perf_counter()
    while True:
        passes.append(_spawn(args.workload, args.seed, "pass", deadline))
        if passes[-1].get("timed_out"):
            break
        typical = statistics.median(p["elapsed"] for p in passes)
        if perf_counter() - measure_start + typical > args.seconds:
            break
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.jsonl"
        traced = _spawn(args.workload, args.seed, "traced", deadline, spans)
    return setups, passes, traced


def _metrics(setups: list[dict], passes: list[dict], traced: dict | None) -> dict[str, float]:
    done = [p for p in passes if not p.get("timed_out")]
    if not done or not setups:
        raise BenchError("no pass or no set-up ended within the run's time budget")
    wall_s = statistics.median(_pass_time(p, 4) for p in done)
    if traced is not None:
        if traced.get("timed_out"):
            raise BenchError("the traced pass ran out of time")
        out = dict(traced["trace"])
        out["trace.overhead_s"] = _pass_time(traced, 4) - wall_s
        return out
    latencies = [statistics.median(times) * 1000.0 for times in zip(*([c[4] for c in p["cases"]] for p in done))]
    return {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "wall_ref_s": wall_s,
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] / 1024.0 for p in done),
        "case_p50_ref_ms": _percentile(latencies, 0.50),
        "case_p90_ref_ms": _percentile(latencies, 0.90),
    }


def _pass_time(p: dict, column: int) -> float:
    """Sum of the case times of a pass: raw (column 2) or scaled (column 4)."""
    return sum(c[column] for c in p["cases"])


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wondertoric" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a checkout of the repository: src/wondertoric or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = _environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))

    try:
        setups, passes, traced = _measure(args)
        values = _metrics(setups, passes, traced)
    except BenchError as err:
        print(str(err), file=sys.stderr)
        return 2

    all_passes = passes + ([traced] if traced is not None else [])
    attempted = failed = 0
    for p in all_passes:
        if p.get("timed_out"):
            attempted += 1
            failed += 1
            print("FAILED: a pass ran past the run's time budget")
            continue
        for label, ok, _, problems, _ in p["cases"]:
            attempted += 1
            if not ok:
                failed += 1
                print(f"FAILED {label}: {' | '.join(problems)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    cases_per_pass = len(passes[0].get("cases", ()))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {cases_per_pass} cases, "
          f"{attempted} operations attempted, {failed} failed, error_rate {failed / attempted:.4g}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    done = [p for p in passes if not p.get("timed_out")]
    print(f"  unscaled: median pass {statistics.median(_pass_time(p, 2) for p in done):.6g} s, "
          f"median set-up {statistics.median(s['setup_s'] for s in setups):.6g} s")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setups_s": [s["setup_s"] for s in setups],
        "setups_ref_s": [s["setup_ref_s"] for s in setups],
        "passes": all_passes,
    }
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
