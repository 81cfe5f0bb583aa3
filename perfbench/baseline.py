"""Measure the baseline recorded in `perfbench/baseline.json`.

    python3 perfbench/baseline.py

Run from the root of a source checkout, on an otherwise idle host; it takes
about ten minutes on 2 cores. At seed 0 and for each workload it records:

- the timed corpus: TIMED_PASSES passes that run every case untraced and
  traced back to back (run.traced_pair); the tracing overhead per pass (the
  median and quartiles of traced minus untraced, and the estimate wrapped
  calls times the measured cost of one wrapper), every per-layer metric,
  the same breakdown as for the full corpus, and the reference task's time
  (exact.reference_seconds), which says how fast the host ran;
- the full corpus the workload was cut from (`cases.FULL`): the seconds of
  each case untraced, and from one traced pass the self time per layer, the
  function with the largest self time and the inclusive time of the main
  entry points;
- the cases left out even of the full corpus (`cases.TOO_SLOW`): their
  untraced seconds.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import cases
import run
from exact import reference_seconds
from spans import CASE_KEY, LAYERS, Tracer

# Passes of paired untraced and traced runs measured on each timed corpus.
TIMED_PASSES = 20

# Entry points whose inclusive time (children included) says which stage a
# workload spends its time in.
INCLUSIVE = (
    "cli.main",
    "fingrp.group_rep_from_json_obj",
    "fingrp.generate_group",
    "fingrp.RationalRep.check_homomorphism",
    "repdec.decompose",
    "repdec.intertwiner_space",
    "witness.tensor_shortcut",
    "witness.field_through_commutant",
    "witness.lattice_search",
    "witness.verify_witness",
    "intpoly.eig_product_poly",
    "hyper.unit_circle_root_test",
)


def paired_pass(harness, passes: int) -> dict:
    """`passes` passes with every case run untraced and traced back to back
    (run.traced_pair). Pass and case times and the tracing overhead are
    medians over the passes; the breakdown is that of the last pass."""
    tracer = Tracer()
    untraced, traced, overheads, failures = [], [], [], []
    for i in range(passes):
        without, with_trace, problems = run.traced_pair(harness, tracer, i)
        untraced.append(without)
        traced.append(sum(with_trace))
        overheads.append(sum(with_trace) - sum(without))
        failures.extend(problems)
    overhead = statistics.median(overheads)
    values = run.layer_values(tracer, overhead, traced[-1])
    times = tracer.self_times()
    functions = {k: v for k, v in times.items() if k != CASE_KEY}
    largest = max(functions, key=lambda k: functions[k][1])
    totals = tracer.total_times()
    wrapped_calls = sum(calls for calls, _ in functions.values())
    return {
        "passes": passes,
        "untraced_pass_s": statistics.median(map(sum, untraced)),
        "traced_pass_s": statistics.median(traced),
        "tracing_overhead_s": overhead,
        "tracing_overhead_quartiles_s": statistics.quantiles(overheads, n=4) if passes > 1 else None,
        "wrapped_calls": wrapped_calls,
        "tracing_overhead_estimate_s": wrapped_calls * wrapper_cost(),
        "case_s": {c.case_id: statistics.median(u[i] for u in untraced) for i, c in enumerate(harness.cases)},
        "layer_self_s": {layer: values[f"{layer}.self_s"] for layer in LAYERS + ("bench",)},
        "largest_layer": max(LAYERS, key=lambda layer: values[f"{layer}.self_s"]),
        "largest_function": {"name": largest, "self_s": functions[largest][1]},
        "inclusive_s": {key: totals.get(key, 0.0) for key in INCLUSIVE},
        "failures": failures,
        "values": values,
    }


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one traced call costs more than an untraced one, from a no-op
    function wrapped the way the tracer wraps the program's functions (best
    of five timings of `calls` calls each)."""
    def noop():
        return None

    wrapped = Tracer()._wrap("bench.noop", noop)

    def best(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return (best(wrapped) - best(noop)) / calls


def main() -> int:
    if not (run.SRC / "anosov" / "__init__.py").is_file():
        print(f"no program to measure: {run.SRC / 'anosov'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import mpmath
    import sympy

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {
        "host": f"{platform.machine()} Linux, {len(os.sched_getaffinity(0))} cores, "
        f"Python {platform.python_version()}, sympy {sympy.__version__}, mpmath {mpmath.__version__}",
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
        "seed": 0,
        "workloads": {},
        "too_slow": {},
    }
    for workload in cases.WORKLOADS:
        print(f"{workload}: timed corpus", file=sys.stderr, flush=True)
        harness = run.Harness(cases.WORKLOADS[workload](), 0)
        harness.run_pass(0)  # warm-up
        reference_ms = 1000 * statistics.median(reference_seconds() for _ in range(9))
        timed = paired_pass(harness, TIMED_PASSES)
        timed["reference_ms"] = reference_ms
        values = timed.pop("values")
        timed["per_layer"] = {name: values.get(name, 0) for name in per_layer}
        print(f"{workload}: full corpus", file=sys.stderr, flush=True)
        full = paired_pass(run.Harness(cases.FULL[workload](), 0), 1)
        values = full.pop("values")
        for key in ("tracing_overhead_s", "tracing_overhead_quartiles_s"):
            del full[key]  # one pass is too few to measure it
        full["counts"] = {
            name: values.get(name, 0) for name in per_layer if not name.endswith("_s")
        }
        out["workloads"][workload] = {"why": why[workload], "timed": timed, "full": full}
        if workload in cases.TOO_SLOW:
            print(f"{workload}: too-slow cases", file=sys.stderr, flush=True)
            slow = run.Harness(cases.TOO_SLOW[workload](), 0)
            seconds, failures = slow.run_pass(0)
            for case, t in zip(slow.cases, seconds):
                out["too_slow"][case.case_id] = {"workload": workload, "seconds": t}
            if failures:
                out["too_slow"]["failures"] = failures
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
