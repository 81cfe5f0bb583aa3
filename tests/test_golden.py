"""CLI output against a recorded fixture.

`golden_cli.json` holds the JSON printed by each invocation in INVOCATIONS,
with every `timings` field removed: the six demos, and `decide`,
`decide --witness`, `no-cert`, `decompose` and `porteous` on small corpus
inputs (multiples of ρ3, Q8, the C5 rotation), `units`, `graded-action`
and `hall-basis` on the README's examples, two cyclotomic `units`
searches whose found unit prints its log vector, and `units` on a linear
polynomial, an imaginary quadratic and a radicand that is not squarefree. A change that is meant to
leave every result alone, such as a speed-up or a refactor, must keep each
output byte-identical. After a change that is meant to alter output, record
the fixture again with `PYTHONPATH=src python tests/test_golden.py` and
review the diff.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from anosov.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

D3 = [[[0, -1], [1, -1]], [[0, -1], [-1, 0]]]
Q8 = [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
]
C5 = [[[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]]


def _copies(m, k):
    """The block-diagonal matrix with k copies of m."""
    n = len(m)
    return [[m[i % n][j % n] if i // n == j // n else 0 for j in range(k * n)] for i in range(k * n)]


def _input(gens, k, c):
    """The CLI input for k copies of the natural representation at class c."""
    literal = lambda m: [[str(x) for x in row] for row in m]  # noqa: E731
    return {
        "generators": [literal(g) for g in gens],
        "rep_images": None if k == 1 else [literal(_copies(g, k)) for g in gens],
        "class": c,
    }


INPUTS = {
    "rho3_c1": _input(D3, 1, 1),
    "2rho3_c1": _input(D3, 2, 1),
    "2rho3_c2": _input(D3, 2, 2),
    "3rho3_c2": _input(D3, 3, 2),
    "q8_c1": _input(Q8, 1, 1),
    "2q8_c2": _input(Q8, 2, 2),
    "c5_c1": _input(C5, 1, 1),
}

GRADED_INPUT = {"r": 2, "class": 2, "matrix": [["2", "1"], ["1", "1"]]}

# name: (argv, the object fed on stdin or None)
INVOCATIONS = {
    **{f"demo {name}": (["demo", name], None) for name in ("d3", "q8", "klein", "torus", "c5", "c4")},
    **{f"decide {key}": (["decide", "-"], INPUTS[key]) for key in INPUTS},
    **{
        f"witness {key}": (["decide", "-", "--witness"], INPUTS[key])
        for key in ("2rho3_c1", "3rho3_c2", "q8_c1", "c5_c1")
    },
    # a multiplicity-2 block whose unit comes from the field of Q(ζ5)
    "witness 2c5_c2": (["decide", "-", "--witness"], _input(C5, 2, 2)),
    **{
        f"no-cert {key} h{h}": (["no-cert", "-", "--height-bound", str(h)], INPUTS[key])
        for key, h in (("rho3_c1", 2), ("2rho3_c2", 1), ("2rho3_c2", 3), ("q8_c1", 1))
    },
    **{
        f"{cmd} {key}": ([cmd, "-"], INPUTS[key])
        for cmd in ("decompose", "porteous")
        for key in ("3rho3_c2", "2q8_c2")
    },
    "units sqrt 2": (["units", "--sqrt", "2", "--class", "1", "--bound", "12"], None),
    "units zeta 5": (["units", "--zeta", "5", "--class", "2", "--bound", "12"], None),
    "units zeta 7": (["units", "--zeta", "7", "--class", "2", "--bound", "6"], None),
    "units zeta 16": (["units", "--zeta", "16", "--class", "3", "--bound", "6"], None),
    "units min-poly": (["units", "--min-poly", "[-1,-1,1]", "--class", "1", "--bound", "6"], None),
    "units min-poly X^2+2": (["units", "--min-poly", "[2,0,1]"], None),
    "units min-poly degree 1": (["units", "--min-poly", "[-3,1]"], None),
    # radicand 12 = 2^2 * 3: the unit comes from Q(sqrt 3)
    "units sqrt 12": (["units", "--sqrt", "12", "--class", "1", "--bound", "6"], None),
    "graded-action readme": (["graded-action", "-"], GRADED_INPUT),
    "hall-basis r3 c3": (["hall-basis", "--r", "3", "--class", "3"], None),
}


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def run_invocation(name: str):
    """The invocation's JSON output without its timings."""
    argv, stdin = INVOCATIONS[name]
    saved = sys.stdin, sys.stdout
    sys.stdin = io.StringIO("" if stdin is None else json.dumps(stdin))
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    assert code == 0, f"{name} exited with {code}"
    return _strip_timings(json.loads(out))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_invocation(golden):
    assert sorted(golden) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_output_matches_fixture(name, golden):
    # compared as text, so that key order and number formatting count too
    assert json.dumps(run_invocation(name)) == json.dumps(golden[name])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: run_invocation(name) for name in INVOCATIONS}, indent=1) + "\n")
    print(f"wrote {len(INVOCATIONS)} outputs to {FIXTURE}")
