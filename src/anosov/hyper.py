"""Matrix predicates: integer-like and c-hyperbolic.

A matrix is integer-like when its characteristic polynomial has integer
coefficients and its determinant is ±1. It is c-hyperbolic when no product of
k ≤ c eigenvalues (repetitions allowed) has absolute value 1.

The unit-circle decision is two-tier: an exact gcd-with-reversal filter first
(any unit-circle root of a real polynomial is shared with its reversal), then
high-precision root isolation for whatever survives. Verdicts are banded: a
computed distance from the circle below the numeric error bound counts as "on
the circle", a distance above the configured tolerance counts as "off", and
anything in between raises PrecisionError instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import mpmath

from .intpoly import (
    IntPoly,
    eig_product_poly,
    poly_gcd,
    reversal,
    squarefree_part,
)
from .ratmat import RatMatrix, SingularMatrixError

DEFAULT_PRECISION_BITS = 128
UNIT_CIRCLE_TOL_BITS = 40


class PrecisionError(ArithmeticError):
    """Numeric verdict is undecided at the working precision."""


# unit_circle_root_test outcomes
NONE_CERTIFIED = "none-certified"
NONE_NUMERIC = "none-numeric"
FOUND = "found"


@dataclass(frozen=True)
class UnitCircleResult:
    status: str
    root: Optional[complex] = None
    modulus_error: Optional[float] = None


@dataclass(frozen=True)
class HyperbolicityReport:
    c_tested: int
    verdict: bool
    certified_exact: bool
    precision_bits: int
    offending_product: Optional[dict] = field(default=None)

    def to_json_obj(self) -> dict:
        obj = {
            "c_tested": self.c_tested,
            "verdict": self.verdict,
            "certified_exact": self.certified_exact,
            "precision_bits": self.precision_bits,
        }
        if self.offending_product is not None:
            obj["offending_product"] = self.offending_product
        return obj


def is_integer_like(m: RatMatrix) -> bool:
    """Characteristic polynomial in Z[X] and determinant ±1."""
    if not m.is_square:
        raise ValueError("integer-like test requires a square matrix")
    coeffs = m.char_poly()
    if any(c.denominator != 1 for c in coeffs):
        return False
    return abs(m.det()) == 1


def _isolate_roots(f: IntPoly, precision_bits: int) -> list:
    coeffs_desc = [mpmath.mpf(c) for c in reversed(f.coeffs)]
    with mpmath.workprec(precision_bits + 32):
        try:
            roots = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=precision_bits)
        except mpmath.libmp.NoConvergence as exc:
            raise PrecisionError(f"root isolation failed at {precision_bits} bits") from exc
        return [mpmath.mpc(r) for r in roots]


def unit_circle_root_test(
    f: IntPoly,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol_bits: int = UNIT_CIRCLE_TOL_BITS,
) -> UnitCircleResult:
    """Decide whether f has a root on the unit circle.

    none-certified: the exact filter alone rules it out (gcd of the squarefree
    part with its reversal is constant). none-numeric: surviving candidate
    roots are all farther than 2^-tol_bits from |z| = 1. found: a root sits
    on the circle within the numeric error bound 2^-(precision_bits/2). A
    distance between the two thresholds raises PrecisionError instead of
    guessing either way.
    """
    if f.is_zero or f.coeffs[0] == 0:
        raise ValueError("unit-circle test requires f != 0 with f(0) != 0")
    fs = squarefree_part(f)
    g = poly_gcd(fs, reversal(fs))
    if g.degree < 1:
        return UnitCircleResult(NONE_CERTIFIED)
    tol = mpmath.mpf(2) ** (-tol_bits)
    err_bound = mpmath.mpf(2) ** (-(precision_bits // 2))
    with mpmath.workprec(precision_bits + 32):
        best_root, best_err = None, None
        for z in _isolate_roots(g, precision_bits):
            err = abs(abs(z) - 1)
            if best_err is None or err < best_err:
                best_root, best_err = z, err
        if best_err <= err_bound:
            return UnitCircleResult(FOUND, root=complex(best_root), modulus_error=float(best_err))
        if best_err <= tol:
            raise PrecisionError(
                f"root at distance {mpmath.nstr(best_err, 8)} from the unit circle is "
                f"inside the tolerance band; increase precision"
            )
        return UnitCircleResult(NONE_NUMERIC)


def _offending_indices(roots: list, k: int, precision_bits: int) -> Optional[dict]:
    """Brute-force a k-multiset of root indices whose product has modulus ~1."""
    best = None
    with mpmath.workprec(precision_bits + 32):
        for combo in itertools.combinations_with_replacement(range(len(roots)), k):
            prod = mpmath.mpf(1)
            for i in combo:
                prod *= abs(roots[i])
            err = abs(prod - 1)
            if best is None or err < best[1]:
                best = (combo, err, prod)
        if best is None:
            return None
        combo, _, prod = best
        return {"k": k, "indices": list(combo), "abs_product": float(prod)}


def _hyperbolicity_from_poly(
    f: IntPoly, c: int, precision_bits: int, tol_bits: int
) -> HyperbolicityReport:
    if c < 1:
        raise ValueError("c must be >= 1")
    certified = True
    for k in range(1, c + 1):
        h = eig_product_poly(f, k, squarefree_steps=True)
        result = unit_circle_root_test(h, precision_bits, tol_bits)
        if result.status == NONE_NUMERIC:
            certified = False
        elif result.status == FOUND:
            roots = _isolate_roots(squarefree_part(f), precision_bits)
            return HyperbolicityReport(
                c_tested=c,
                verdict=False,
                certified_exact=False,
                precision_bits=precision_bits,
                offending_product=_offending_indices(roots, k, precision_bits),
            )
    return HyperbolicityReport(
        c_tested=c, verdict=True, certified_exact=certified, precision_bits=precision_bits
    )


def is_c_hyperbolic_poly(
    f: IntPoly,
    c: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol_bits: int = UNIT_CIRCLE_TOL_BITS,
) -> HyperbolicityReport:
    """c-hyperbolicity of the root set of f (typically a minimal polynomial)."""
    if f.is_zero or f.coeffs[0] == 0:
        raise ValueError("c-hyperbolicity requires f != 0 with f(0) != 0")
    return _hyperbolicity_from_poly(f, c, precision_bits, tol_bits)


def is_c_hyperbolic_matrix(
    m: RatMatrix,
    c: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tol_bits: int = UNIT_CIRCLE_TOL_BITS,
) -> HyperbolicityReport:
    """c-hyperbolicity of a square invertible rational matrix."""
    if not m.is_square:
        raise ValueError("c-hyperbolicity requires a square matrix")
    if m.det() == 0:
        raise SingularMatrixError("c-hyperbolicity requires an invertible matrix")
    f = IntPoly.clear_denominators(m.char_poly())
    return _hyperbolicity_from_poly(f, c, precision_bits, tol_bits)
