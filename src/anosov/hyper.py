"""Matrix predicates: integer-like and c-hyperbolic.

A matrix is integer-like when its characteristic polynomial has integer
coefficients and its determinant is ±1. It is c-hyperbolic when no product of
k ≤ c eigenvalues (repetitions allowed) has absolute value 1.

Every verdict is exact, on the squarefree part of the input, computed once.
Its n distinct roots multiply to ±a_0/a_n (Vieta), so when |a_0| = |a_n|
and n ≤ c their n-fold product is on the circle. Otherwise, for each k ≤ c
the k-fold eigenvalue products are the roots of an integer polynomial built
from the squarefree part. The unit-circle test on it is a gcd with the
reversal followed by a real root count: a root on the circle is shared
with the reversal, and the palindromic part of the gcd is X^d·T(X + 1/X)
with a real root of T in (−2, 2) for each conjugate pair on the circle.
Neither step needs a squarefree input: a root z occurs in the gcd as often
as 1/z does, and the Sturm count counts distinct roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .intpoly import (
    IntPoly,
    _eig_products,
    poly_gcd,
    real_root_count,
    reversal,
    squarefree_part,
)
from .ratmat import RatMatrix, SingularMatrixError, int_char_poly, int_det

# unit_circle_root_test outcomes
NONE_CERTIFIED = "none-certified"
FOUND = "found"


@dataclass(frozen=True)
class UnitCircleResult:
    status: str


@dataclass(frozen=True)
class HyperbolicityReport:
    """offending_product, on a False verdict: {"k": k} for a k ≤ c with a
    k-fold product on the circle, the degree of f's squarefree part when the
    closed form fires, else the smallest such k."""

    c_tested: int
    verdict: bool
    offending_product: Optional[dict] = field(default=None)

    @property
    def certified_exact(self) -> bool:
        """Always true: no step of the test is numeric."""
        return True

    def to_json_obj(self) -> dict:
        obj = {
            "c_tested": self.c_tested,
            "verdict": self.verdict,
            "certified_exact": self.certified_exact,
        }
        if self.offending_product is not None:
            obj["offending_product"] = self.offending_product
        return obj


def integer_char_poly(a: Sequence[int], n: int, d: int) -> Optional[IntPoly]:
    """The characteristic polynomial of M = a/d (row-major n×n numerators a)
    when M is integer-like, else None: |int_det(a)| = d^n, then d^(n−i)
    divides the coefficient of X^i. The cheaper, more often failing
    determinant test comes first."""
    if abs(int_det(a, n)) != d**n:
        return None
    coeffs = int_char_poly(a, n)
    if d > 1:
        if any(x % d ** (n - i) for i, x in enumerate(coeffs)):
            return None
        coeffs = [x // d ** (n - i) for i, x in enumerate(coeffs)]
    return IntPoly(tuple(coeffs))


def is_integer_like(m: RatMatrix) -> bool:
    """Characteristic polynomial in Z[X] and determinant ±1."""
    if not m.is_square:
        raise ValueError("integer-like test requires a square matrix")
    a, d = m.integer_form()
    return integer_char_poly(a, m.rows, d) is not None


def _trace_form(g: IntPoly) -> IntPoly:
    """T with g(X) = X^e·T(X + 1/X), for a palindromic g of degree 2e.

    X^j + X^−j = D_j(X + 1/X) with D_0 = 2, D_1 = t, D_{j+1} = t·D_j − D_{j−1}.
    """
    e = g.degree // 2
    t = IntPoly((0, 1))
    prev, cur = IntPoly((2,)), t
    out = IntPoly((g.coeffs[e],))
    for j in range(1, e + 1):
        out = out + cur.scale(g.coeffs[e + j])
        prev, cur = cur, t * cur - prev
    return out


def unit_circle_root_test(f: IntPoly) -> UnitCircleResult:
    """Decide exactly whether f has a root on the unit circle.

    found: a root has absolute value 1. none-certified: no root does. f need
    not be squarefree.
    """
    if f.is_zero or f.coeffs[0] == 0:
        raise ValueError("unit-circle test requires f != 0 with f(0) != 0")
    g = poly_gcd(f, reversal(f))
    if g.degree < 1:
        return UnitCircleResult(NONE_CERTIFIED)
    if g(1) == 0 or g(-1) == 0:
        return UnitCircleResult(FOUND)
    # z and 1/z have the same multiplicity in g, and ±1 is not a root, so g
    # is palindromic of even degree
    if real_root_count(_trace_form(g), -2, 2) > 0:
        return UnitCircleResult(FOUND)
    return UnitCircleResult(NONE_CERTIFIED)


def is_c_hyperbolic_poly(f: IntPoly, c: int) -> HyperbolicityReport:
    """c-hyperbolicity of the root set of f (typically a minimal polynomial).
    The closed form (module docstring) reports k = deg base, and never fires
    for a c-hyperbolic f; otherwise the smallest k found is reported."""
    if f.is_zero or f.coeffs[0] == 0:
        raise ValueError("c-hyperbolicity requires f != 0 with f(0) != 0")
    if c < 1:
        raise ValueError("c must be >= 1")
    base = squarefree_part(f)
    if 1 <= base.degree <= c and abs(base.coeffs[0]) == abs(base.leading):
        return HyperbolicityReport(c_tested=c, verdict=False, offending_product={"k": base.degree})
    for k in range(1, c + 1):
        if unit_circle_root_test(_eig_products(base, k)).status == FOUND:
            return HyperbolicityReport(c_tested=c, verdict=False, offending_product={"k": k})
    return HyperbolicityReport(c_tested=c, verdict=True)


def is_c_hyperbolic_matrix(m: RatMatrix, c: int) -> HyperbolicityReport:
    """c-hyperbolicity of a square invertible rational matrix."""
    if not m.is_square:
        raise ValueError("c-hyperbolicity requires a square matrix")
    if m.det() == 0:
        raise SingularMatrixError("c-hyperbolicity requires an invertible matrix")
    return is_c_hyperbolic_poly(IntPoly.clear_denominators(m.char_poly()), c)
