"""Benchmark of the `anosov` decision pipeline on a fixed corpus.

    python3 perfbench/run.py --workload isotypic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each case goes through the CLI path in-process: JSON text on stdin,
`anosov.cli.main`, JSON text on stdout. Load is a closed loop with one
client, one process and one thread; cases run in a fixed order and the
program keeps its default `--seed`.

With `--trace 0` the run times whole passes over the workload's cases until
`--seconds` have passed (and at least MIN_PASSES passes) and prints the
end-to-end metrics of BENCHMARK.json. Their times are scaled to the
reference host speed: each pass also times a fixed reference task between
its cases (exact.reference_seconds), and its seconds are multiplied by
exact.REFERENCE_S over the median reference time of the pass. The shared
host's CPU speed drifts by tens of percent within minutes; the scaling
cancels most of that drift. The seconds as measured are printed above the
result.

With `--trace 1` it wraps the program's functions from outside (see
spans.py), runs each case of a pass untraced and traced back to back on the
same input, alternating which goes first, prints the per-layer metrics
(medians over the traced passes, in seconds as measured) and writes the
spans of the last traced pass to `.bench_out/`.

Every output is checked against the case's expected fingerprint, and every
emitted witness is re-checked exactly outside the timed region. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each case's
median seconds as measured, the percentile and sample count behind
`case_tail_s`, fail_frac (failed / attempted), the median reference time
and the wall and set-up seconds as measured.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
from exact import REFERENCE_S, recheck_witness, reference_seconds
from spans import CASE_KEY, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# At least this many passes, so that the tail percentile (at least 10 samples
# beyond it) always falls inside the slowest case's samples.
MIN_PASSES = 11
# Set-up is measured this many times, before every other pass, so that its
# median sees the same spread of host speed as the passes do.
SETUP_SAMPLES = 5

# Times the reference task in the fresh interpreter before and after the
# set-up, so that set-up is scaled by the host speed of its own moment.
SETUP_PROBE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
from exact import reference_seconds
reference_seconds()
refs = [reference_seconds() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import anosov.cli, cases
cases.make_inputs(cases.WORKLOADS[sys.argv[3]](), int(sys.argv[4]))
seconds = time.perf_counter() - t0
refs += [reference_seconds() for _ in range(3)]
print(seconds, statistics.median(refs))
"""


# -- one case ----------------------------------------------------------------------


class Harness:
    """Runs cases through `anosov.cli.main` and checks their outputs."""

    def __init__(self, case_list: list, seed: int):
        import anosov.cli
        import sympy.core.cache

        self.cli = anosov.cli  # main is looked up per call, so tracing can wrap it
        self.clear_sympy = sympy.core.cache.clear_cache
        self.cases = case_list
        self.seed = seed
        self._inputs = {0: cases.make_inputs(self.cases, seed)}
        self._witness_checked: dict = {}
        # taken before any tracing wraps the cached functions
        self._cache_clears = [
            obj.cache_clear
            for name, module in list(sys.modules.items()) if name.startswith("anosov")
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == name
        ]

    def clear_caches(self) -> None:
        """Empty the caches a fresh `anosov` process starts without."""
        self.clear_sympy()
        for cache_clear in self._cache_clears:
            cache_clear()

    def inputs(self, pass_index: int) -> list[str]:
        if pass_index not in self._inputs:
            self._inputs[pass_index] = cases.make_inputs(self.cases, self.seed, pass_index)
        return self._inputs[pass_index]

    def invoke(self, index: int, pass_index: int = 0, span=None):
        """One CLI invocation: (seconds, exit code or None, stdout, stderr)."""
        case, text = self.cases[index], self.inputs(pass_index)[index]
        self.clear_caches()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
        out = err = ""
        rc = None
        t0 = time.perf_counter()
        try:
            if span is None:
                rc = self.cli.main(case.argv())
            else:
                with span:
                    rc = self.cli.main(case.argv())
            out = sys.stdout.getvalue()
        except Exception as exc:  # a raised exception is a failed case, not a crash
            err = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - t0
            err = sys.stderr.getvalue() + err
            sys.stdin, sys.stdout, sys.stderr = saved
        return seconds, rc, out, err

    def check(self, index: int, pass_index: int, rc, out: str, err: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        case = self.cases[index]
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        try:
            result = json.loads(out)
            got = cases.fingerprint(case, result)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"
        want = case.expected()
        if got != want:
            return f"fingerprint {got} != expected {want}"
        if case.command == "witness" and want["verdict"]:
            text = self.inputs(pass_index)[index]
            matrix = result["witness"]["matrix"]
            key = (text, json.dumps(matrix))
            if key not in self._witness_checked:
                self._witness_checked[key] = recheck_witness(json.loads(text), matrix)
            return self._witness_checked[key]
        return None

    def run_case(self, index: int, pass_index: int, tracer=None):
        """One checked case: (seconds, failure message or None)."""
        span = None if tracer is None else tracer.case_span(index)
        dt, rc, out, err = self.invoke(index, pass_index, span)
        problem = self.check(index, pass_index, rc, out, err)
        message = None if problem is None else f"{self.cases[index].case_id}: {problem}"
        return (dt if span is None else span.seconds), message

    def run_pass(self, pass_index: int, references: list | None = None):
        """One pass over the cases: (per-case seconds, failure messages).
        With a `references` list, the reference task is timed before each
        case and after the last, and its seconds are appended there."""
        seconds, failures = [], []
        for i in range(len(self.cases)):
            if references is not None:
                references.append(reference_seconds())
            dt, problem = self.run_case(i, pass_index)
            seconds.append(dt)
            if problem:
                failures.append(problem)
        if references is not None:
            references.append(reference_seconds())
        return seconds, failures


# -- metrics -----------------------------------------------------------------------


def tail(samples: list) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the highest whole percentile
    that has at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    raise ValueError("need at least 11 samples for a tail percentile")


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds to import anosov (with sympy and mpmath) and generate the
    inputs, in a fresh interpreter, and the reference time around them."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, reference = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(reference)


def end_to_end(harness: Harness, workload: str, seed: int, seconds: float, spec: dict) -> dict:
    harness.run_pass(0)  # warm-up: lazy imports inside sympy and mpmath
    raw, passes, samples, failures, setups, refs = [], [], [], [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if len(passes) % 2 == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(measure_setup(workload, seed))
        references = []
        case_seconds, problems = harness.run_pass(len(passes), references=references)
        refs.append(statistics.median(references))
        scaled = [t * REFERENCE_S / refs[-1] for t in case_seconds]
        raw.extend(case_seconds)
        passes.append(sum(scaled))
        samples.extend(scaled)
        failures.extend(problems)
    tail_s, pct, n = tail(samples)
    k = len(harness.cases)
    medians = (f"{c.case_id} {statistics.median(raw[i::k]):.3f}" for i, c in enumerate(harness.cases))
    print("case medians as measured (s): " + ", ".join(medians))
    values = {
        "wall_s": statistics.median(passes),
        "case_p50_s": statistics.median(samples),
        "case_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setups),
    }
    raw_wall = statistics.median(sum(raw[i:i + k]) for i in range(0, len(raw), k))
    print(
        f"{workload} seed {seed}: {len(passes)} passes of {k} cases; "
        f"case_tail_s is p{pct} of {n} samples; fail_frac {len(failures)}/{n}; "
        f"reference task {1000 * statistics.median(refs):.2f} ms (scaled to {1000 * REFERENCE_S:.2f} ms); "
        f"as measured: wall {raw_wall:.3f} s, setup {statistics.median(t for t, _ in setups):.3f} s"
    )
    return _report(values, spec["end_to_end"], len(samples), failures)


def traced_pair(harness: Harness, tracer: Tracer, pass_index: int):
    """Every case of one pass run untraced and traced, back to back on the
    same input, in an order that alternates from case to case and pass to
    pass: (untraced seconds, traced seconds, failure messages). The tracer
    then holds the spans of the pass's traced runs. Running the two sides of
    a pair milliseconds apart keeps the host's drift out of their
    difference."""
    tracer.reset()
    untraced, traced, failures = [], [], []
    for i in range(len(harness.cases)):
        first = (i + pass_index) % 2
        for with_trace in (first, 1 - first):
            if with_trace:
                with tracer:
                    dt, problem = harness.run_case(i, pass_index, tracer)
                traced.append(dt)
            else:
                dt, problem = harness.run_case(i, pass_index)
                untraced.append(dt)
            if problem:
                failures.append(problem)
    return untraced, traced, failures


def per_layer(harness: Harness, workload: str, seed: int, seconds: float, spec: dict) -> dict:
    harness.run_pass(0)  # warm-up
    tracer = Tracer()
    known = set(tracer.targets())
    rows, failures, attempted = [], [], 0
    start = time.perf_counter()
    while len(rows) < 2 or time.perf_counter() - start < seconds:
        untraced, traced, problems = traced_pair(harness, tracer, len(rows))
        failures.extend(problems)
        attempted += len(untraced) + len(traced)
        rows.append(layer_values(tracer, sum(traced) - sum(untraced), sum(traced)))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
    values, absent = {}, set(tracer.absent)
    for metric in spec["per_layer"]:
        name = metric["name"]
        values[name] = statistics.median(row.get(name, 0.0) for row in rows)
        function = _function_of(name)
        if function is not None and function not in known:
            absent.add(function)
    print(f"{workload} seed {seed}: {len(rows)} traced passes; absent: {sorted(absent) or 'none'}")
    return _report(values, spec["per_layer"], attempted, failures)


_SUFFIXES = (
    ".calls", ".self_s", ".hit_frac", ".valid_frac", ".found_frac", ".certified_frac", ".screened",
    ".unknowns.sum", ".out_degree.max",
)


def _function_of(name: str) -> str | None:
    """The traced function a per-layer metric reads, if it reads one."""
    if name == "fingrp.group_order.max":
        return "fingrp.generate_group"
    for suffix in _SUFFIXES:
        if name.endswith(suffix):
            function = name[: -len(suffix)]
            return function if "." in function else None
    return None


def layer_values(tracer: Tracer, overhead_s: float, pass_s: float) -> dict:
    """Every per-layer metric of one traced pass."""
    times = tracer.self_times()
    counters = tracer.counters
    values = {"trace.pass_s": pass_s, "trace.overhead_s": overhead_s, "bench.self_s": times[CASE_KEY][1]}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for key, (_, t) in times.items() if key.startswith(layer + "."))
    for key, (calls, self_s) in times.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = self_s
    values.update(counters)

    def frac(hits: str, function: str) -> float:
        calls = times[function][0] if function in times else 0
        return counters.get(hits, 0) / calls if calls else 0.0

    values["hyper.unit_circle_root_test.certified_frac"] = frac(
        "hyper.unit_circle_root_test.certified", "hyper.unit_circle_root_test")
    values["numfield.search_c_hyperbolic_unit.found_frac"] = frac(
        "numfield.search_c_hyperbolic_unit.found", "numfield.search_c_hyperbolic_unit")
    for name in ("witness.tensor_shortcut", "witness.field_through_commutant"):
        values[f"{name}.hit_frac"] = frac(f"{name}.hits", name)
    values["witness.verify_witness.valid_frac"] = frac("witness.verify_witness.valid", "witness.verify_witness")
    return values


def _report(values: dict, metrics: list, attempted: int, failures: list) -> dict:
    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anosov" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'anosov'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in cases.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    harness = Harness(cases.WORKLOADS[args.workload](), args.seed)
    run = per_layer if args.trace else end_to_end
    result = run(harness, args.workload, args.seed, args.seconds, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
