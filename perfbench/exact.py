"""Exact rational arithmetic that does not call the program: the re-check of
an emitted witness, and the host-speed reference the timings are scaled by.

The host is shared, and its CPU speed drifts by tens of percent within
minutes (CPU time tracks wall time, so the drift is in speed, not in
scheduling). The reference task is a fixed piece of the same kind of work
the program does, pure-Python Fraction arithmetic, timed between the cases
of every pass; dividing a measured time by the reference time of the same
moment cancels most of that drift, while a change to the program leaves the
reference untouched.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The reference task: four exact determinants of a fixed 8x8 integer matrix.
REFERENCE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5 + 13 * (i == j)) for j in range(8)] for i in range(8)]
# Its seconds at the reference speed, the speed all scaled timings are given
# at: its time on a 2-core x86_64 Xeon host under CPython 3.11 when the host
# is quiet (the task read 2.5 to 5.1 ms there as the host's load changed), so
# scaled seconds are about what a quiet host takes.
REFERENCE_S = 0.0025


def reference_seconds() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    for _ in range(4):
        _det(REFERENCE_MATRIX)
    return time.perf_counter() - t0


def _matrix(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m) -> Fraction:
    m = [row[:] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _char_poly(w) -> list:
    """Coefficients of det(tI - W), by exact interpolation at t = 0..n."""
    n = len(w)
    points = list(range(n + 1))
    values = [_det([[(t if i == j else 0) - w[i][j] for j in range(n)] for i in range(n)]) for t in points]
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]  # prod_{j != i} (t - xj) / (xi - xj), ascending
        for j, xj in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                basis = [b / (xi - xj) for b in basis]
        coeffs = [c + yi * b for c, b in zip(coeffs, basis)]
    return coeffs


def recheck_witness(input_obj: dict, matrix) -> str | None:
    """The witness commutes with every image of the representation (its
    generators' images suffice), has its characteristic polynomial in Z[X]
    and determinant ±1."""
    w = _matrix(matrix)
    images = input_obj["rep_images"] or input_obj["generators"]
    for img in map(_matrix, images):
        if _mul(w, img) != _mul(img, w):
            return "witness does not commute with the representation"
    if any(c.denominator != 1 for c in _char_poly(w)):
        return "witness characteristic polynomial is not in Z[X]"
    if abs(_det(w)) != 1:
        return "witness determinant is not ±1"
    return None
