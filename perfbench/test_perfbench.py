"""Tests of the benchmark itself: the tracer, the correctness gate and the
seeded inputs.

    python -m pytest -q perfbench
"""

import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cases  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
from spans import CASE_KEY, Tracer, _anosov_modules  # noqa: E402


def _bindings():
    """(owner, attribute, value) for every module and class attribute in anosov."""
    out = []
    for module in _anosov_modules():
        for name, value in vars(module).items():
            out.append((module, name, value))
            if inspect.isclass(value) and value.__module__.startswith("anosov"):
                out.extend((value, n, v) for n, v in vars(value).items())
    return out


def test_install_rebinds_every_reference_and_uninstall_restores():
    run.Harness(cases.WORKLOADS["isotypic"](), 0)  # imports the whole CLI path
    tracer = Tracer()
    originals = {id(fn): key for key, fn in tracer.targets().items()}
    assert "repdec.decompose" in originals.values()
    assert "ratmat.RatMatrix.matmul" in originals.values()
    before = _bindings()
    with tracer:
        unwrapped = [(getattr(o, "__name__", o), n) for o, n, v in _bindings() if id(v) in originals]
        assert unwrapped == []
    assert [(o, n, id(v)) for o, n, v in _bindings()] == [(o, n, id(v)) for o, n, v in before]


def test_traced_and_untraced_fingerprints_agree():
    harness = run.Harness(cases.WORKLOADS["witness"](), 0)
    tracer = Tracer()
    for index in (1, 4):  # tensor shortcut (3 rho3) and field path (C5)
        case = harness.cases[index]
        _, rc, out, _ = harness.invoke(index)
        with tracer:
            _, rc_traced, out_traced, _ = harness.invoke(index, 0, tracer.case_span(index))
        assert rc == rc_traced == 0
        plain = cases.fingerprint(case, json.loads(out))
        assert plain == cases.fingerprint(case, json.loads(out_traced)) == case.expected()
        assert harness.check(index, 0, rc_traced, out_traced, "") is None


def test_self_times_sum_to_traced_case_wall_time():
    harness = run.Harness(cases.WORKLOADS["isotypic"](), 0)
    tracer = Tracer()
    with tracer:
        span = tracer.case_span(0)
        harness.invoke(0, 0, span)
    times = tracer.self_times()
    assert times["repdec.decompose"][0] == 1 and times["cli.main"][0] == 1
    total = sum(self_s for _, self_s in times.values())
    assert abs(total - span.seconds) < 1e-9 * max(1.0, span.seconds) + 1e-12
    assert times[CASE_KEY][1] >= 0.0
    totals = tracer.total_times()
    assert totals[CASE_KEY] == span.seconds
    assert totals["repdec.decompose"] <= totals["cli.main"] <= span.seconds


def test_absent_function_is_reported_not_raised(monkeypatch):
    import anosov.witness

    monkeypatch.delattr(anosov.witness, "lattice_search")
    tracer = Tracer()
    with tracer:
        known = set(tracer.targets())
    assert "witness.lattice_search" not in known
    assert run._function_of("witness.lattice_search.calls") == "witness.lattice_search"


def test_witness_recheck_rejects_invalid_matrices():
    obj = cases.k_rho3(2, 1, "witness").input_obj(0)
    good = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "1", "0"], ["0", "1", "0", "1"]]
    assert exact.recheck_witness(obj, good) is None  # companion(X^2 - X - 1) ⊗ I_2
    doubled = [[str(2 * int(x)) for x in row] for row in good]
    assert "determinant" in exact.recheck_witness(obj, doubled)
    halves = [[x if x == "0" else "1/2" for x in row] for row in good]
    assert "Z[X]" in exact.recheck_witness(obj, halves)
    lower = [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    assert "commute" in exact.recheck_witness(obj, lower)


def test_char_poly_interpolation():
    w = exact._matrix([[2, 1], [1, 1]])
    assert exact._char_poly(w) == [1, -3, 1]


def test_seeded_inputs_are_unimodular_conjugates():
    case = next(c for c in cases.WORKLOADS["closure"]() if c.rep_images is not None)
    assert case.input_obj(0, 3)["generators"] == [cases._json_matrix(g) for g in case.generators]
    a, b = case.input_obj(7, 1), case.input_obj(7, 1)
    assert a == b
    assert a != case.input_obj(8, 1) and a != case.input_obj(7, 2)
    for key, refs in (("generators", case.generators), ("rep_images", case.rep_images)):
        assert len(a[key]) == len(refs)
        for m, ref in zip(a[key], refs):
            m = [[int(x) for x in row] for row in m]
            assert abs(exact._det(exact._matrix(m))) == 1
            assert exact._char_poly(exact._matrix(m)) == exact._char_poly(exact._matrix(ref))


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail(list(range(1, 56)))
    assert (pct, n) == (81, 55) and sum(1 for x in range(1, 56) if x > value) == 10


def test_lattice_screened_matches_closed_form():
    assert sum(c.expected()["candidates_screened"] for c in cases.FULL["lattice"]()) == 7330
    harness = run.Harness(cases.WORKLOADS["lattice"](), 0)
    index = next(i for i, c in enumerate(harness.cases) if c.case_id == "circle_c1_h5")
    tracer = Tracer()
    with tracer:
        _, rc, out, err = harness.invoke(index, 0, tracer.case_span(index))
    assert harness.check(index, 0, rc, out, err) is None
    assert tracer.counters["witness.lattice_search.screened"] == 10
