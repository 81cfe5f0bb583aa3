"""Per-layer tracing taken from outside the program.

`Tracer.install()` wraps the public functions of every measured `anosov`
module, plus the methods named in METHODS, and rebinds every module and
class attribute that refers to the same function object: `decider`, `cli`
and `witness` import names directly (`from .repdec import decompose`), so
patching only the defining module would miss their calls. `uninstall()`
restores the originals.

Each wrapped call records a span (key, start, end, parent span, case index)
in memory. A span's self time is its duration minus the durations of its
child spans; calls are strictly nested in one thread, so the children never
overlap. Counters that the program does not expose are read from arguments,
results and exceptions at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("ratmat", "intpoly", "fingrp", "repdec", "hyper", "numfield", "witness", "decider", "cli")

# Methods wrapped besides the module-level public functions: the ones the
# per-layer metrics name. Other methods run inside their caller's self time.
METHODS = {
    "ratmat": {"RatMatrix": ("__matmul__", "kernel_basis", "char_poly", "det", "inverse", "solve")},
    "fingrp": {"RationalRep": ("check_homomorphism",)},
}

CASE_KEY = "bench.case"


def _key(layer: str, qualname: str) -> str:
    # RatMatrix.__matmul__ is reported as RatMatrix.matmul
    parts = [p.strip("_") if p.startswith("__") else p for p in qualname.split(".")]
    return ".".join([layer, *parts])


def _anosov_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "anosov" or name.startswith("anosov."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [key, start, end, parent index, case index]
        self.counters: dict = defaultdict(float)
        self.absent: set[str] = set()
        self.case = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self._precision_errors: list = []

    # -- discovery and patching ------------------------------------------------

    def targets(self) -> dict:
        """key -> original function object, for every function to wrap."""
        found = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"anosov.{layer}")
            except ImportError:
                self.absent.add(f"anosov.{layer}")
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    found[_key(layer, name)] = obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    obj = None if cls is None else cls.__dict__.get(meth)
                    if inspect.isfunction(obj):
                        found[_key(layer, f"{cls_name}.{meth}")] = obj
                    else:
                        self.absent.add(_key(layer, f"{cls_name}.{meth}"))
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.targets().items()}
        owners = list(_anosov_modules())
        for module in list(owners):
            owners.extend(
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and obj.__module__.startswith("anosov")
            )
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for name, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, name, value))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -----------------------------------------------------------------

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(key)
        hyper = key.startswith("hyper.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.case]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hyper and type(exc).__name__ == "PrecisionError":
                    tracer._count_precision_error(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _count_precision_error(self, exc) -> None:
        # one error crosses several hyper spans on its way out; count it once
        if not any(e is exc for e in self._precision_errors):
            self._precision_errors.append(exc)
            self.counters["hyper.precision_errors"] += 1

    def case_span(self, case_index: int):
        """Context manager: the benchmark's own root span around one case."""
        return _CaseSpan(self, case_index)

    # -- aggregation ---------------------------------------------------------------

    def self_times(self) -> dict:
        """key -> (calls, self seconds), over all recorded spans."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for (key, start, end, _, _), inner in zip(self.spans, child):
            agg = out[key]
            agg[0] += 1
            agg[1] += end - start - inner
        return out

    def total_times(self) -> dict:
        """key -> inclusive seconds: the time during which a call of it is
        on the stack (a recursive call is not counted twice)."""
        out: dict = defaultdict(float)
        spans = self.spans
        for key, start, end, parent, _ in spans:
            while parent >= 0 and spans[parent][0] != key:
                parent = spans[parent][3]
            if parent < 0:
                out[key] += end - start
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._precision_errors.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tcase\tkey\tstart\tend\n")
            for i, (key, start, end, parent, case) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{case}\t{key}\t{start:.9f}\t{end:.9f}\n")


class _CaseSpan:
    def __init__(self, tracer: Tracer, case_index: int):
        self.tracer = tracer
        self.case_index = case_index

    def __enter__(self):
        t = self.tracer
        t.case = self.case_index
        self.index = len(t.spans)
        self.span = [CASE_KEY, 0.0, 0.0, -1, self.case_index]
        t.spans.append(self.span)
        t._stack.append(self.index)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.case = -1

    @property
    def seconds(self) -> float:
        return self.span[2] - self.span[1]


# -- counters read at the boundaries -------------------------------------------------


def _group_order(counters, args, kwargs, group):
    key = "fingrp.group_order.max"
    counters[key] = max(counters[key], len(group.elements))


def _unknowns(counters, args, kwargs, result):
    left, right = args[0], args[1]
    counters["repdec.intertwiner_space.unknowns.sum"] += right[0].rows * left[0].cols


def _out_degree(counters, args, kwargs, poly):
    key = "intpoly.eig_product_poly.out_degree.max"
    counters[key] = max(counters[key], poly.degree)


def _certified(counters, args, kwargs, result):
    if result.status == "none-certified":
        counters["hyper.unit_circle_root_test.certified"] += 1


def _unit_search(counters, args, kwargs, outcome):
    counters["numfield.search_c_hyperbolic_unit.screened"] += outcome.candidates_screened
    if outcome.found:
        counters["numfield.search_c_hyperbolic_unit.found"] += 1


def _hit(name):
    def observe(counters, args, kwargs, result):
        if result is not None:
            counters[f"{name}.hits"] += 1
    return observe


def _lattice_screened(counters, args, kwargs, result):
    # with count_only the search returns (hit, candidates screened)
    if isinstance(result, tuple):
        counters["witness.lattice_search.screened"] += result[1]


def _valid(counters, args, kwargs, cert):
    if cert.is_valid:
        counters["witness.verify_witness.valid"] += 1


_OBSERVERS = {
    "fingrp.generate_group": _group_order,
    "repdec.intertwiner_space": _unknowns,
    "intpoly.eig_product_poly": _out_degree,
    "hyper.unit_circle_root_test": _certified,
    "numfield.search_c_hyperbolic_unit": _unit_search,
    "witness.tensor_shortcut": _hit("witness.tensor_shortcut"),
    "witness.field_through_commutant": _hit("witness.field_through_commutant"),
    "witness.lattice_search": _lattice_screened,
    "witness.verify_witness": _valid,
}
