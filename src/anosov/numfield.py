"""Number fields of the two shapes whose units are searched, quadratic and
cyclotomic: signature, numeric embeddings, logarithmic embedding of units,
explicit unit generators, and bounded search for c-hyperbolic units.

A field element is its multiplication matrix in the power basis 1, θ, …,
θ^{n−1}: the element p(θ) is p evaluated at the companion matrix of the
minimal polynomial, and its coordinates are that matrix's column 0. Products,
powers and inverses are RatMatrix products and inverses, so all algebra is
exact. A unit is read through one characteristic polynomial of its matrix:
integrality, norm ±1, its minimal polynomial (the squarefree part) and its
hyperbolicity. make_field is the one gate for the field's shape: it accepts
a linear polynomial, a monic quadratic or Φ_d, reads irreducibility and the
signature of each in closed form, and refuses any other polynomial with
UnsupportedFieldError before any factoring. Floating point appears only in
the log screen, which reads the embeddings at a fixed 128-bit working
precision, as pairs of ints over 2^160. They are computed in closed form the
first time a log vector is read: (−b ± √disc)/2 for a quadratic, by an
integer square root, and ζ_d^k for k prime to d in Q[X]/(Φ_d) (Washington,
Introduction to Cyclotomic Fields, §2), by mpmath. A log vector evaluates
the unit at each embedding in the same fixed point, and mpmath takes only
the final logarithm. Every candidate that passes the screen is certified
exactly. mpmath is imported by the functions that use it, so importing
this module does not load it, and the module never loads sympy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

from .hyper import HyperbolicityReport, integer_char_poly, is_c_hyperbolic_poly
from .intpoly import IntPoly, cyclotomic_index_of, squarefree_part
from .ratmat import RatMatrix
from .repdec import poly_at_matrix

# embeddings and log vectors are integers over 2^FIXED_BITS: a 128-bit
# working precision with 32 guard bits
FIXED_BITS = 160
LOG_SCREEN_EPS = 1e-9
MAX_LATTICE_CANDIDATES = 500_000


class FieldError(ValueError):
    pass


class UnsupportedFieldError(FieldError):
    """No unit-generator source, or no closed-form embeddings, is implemented
    for this field."""


# -- embeddings --------------------------------------------------------------------


def closed_form_embeddings(f: IntPoly, d: Optional[int]) -> tuple:
    """The roots of f as (re, im) integer pairs scaled by 2^FIXED_BITS, in
    embedding order, for the two field shapes whose units are searched; d is
    the index with f = Φ_d that make_field recorded, or None:

    - X² + bX + c: (−b ± √disc)/2 with √|disc| from isqrt, an exact floor;
      two reals ascending when disc > 0, else the upper root then its
      conjugate;
    - Φ_d of degree ≥ 3: ζ_d^k then ζ_d^−k for k prime to d, k running down
      from below d/2 to 1, so real parts ascend; each computed by mpmath
      at FIXED_BITS + 16 bits and rounded to the nearest unit of 2^-FIXED_BITS.

    Raises UnsupportedFieldError for any other f."""
    if f.degree == 2:
        c, b, _ = f.coeffs
        disc = b * b - 4 * c
        root = isqrt(abs(disc) << 2 * FIXED_BITS)
        centre = -b << FIXED_BITS
        if disc > 0:
            return ((centre - root) >> 1, 0), ((centre + root) >> 1, 0)
        return (centre >> 1, root >> 1), (centre >> 1, -(root >> 1))
    if d is None:
        raise UnsupportedFieldError(f"no closed-form embeddings for degree-{f.degree} field {f}")
    import mpmath

    embeddings = []
    with mpmath.workprec(FIXED_BITS + 16):
        for k in range((d - 1) // 2, 0, -1):
            if gcd(k, d) == 1:
                z = mpmath.expjpi(mpmath.mpf(2 * k) / d)
                x, y = (int(mpmath.nint(mpmath.ldexp(part, FIXED_BITS))) for part in (z.real, z.imag))
                embeddings.extend([(x, y), (x, -y)])
    return tuple(embeddings)


def _fixed_horner(coeffs: Sequence[int], x: int, y: int) -> tuple:
    """Σ c_i·z^i for z = (x + iy)/2^FIXED_BITS and real c_i, all scaled by
    2^FIXED_BITS, each product rounded down to that scale."""
    re = im = 0
    for c in reversed(coeffs):
        re, im = ((re * x - im * y) >> FIXED_BITS) + c, (re * y + im * x) >> FIXED_BITS
    return re, im


def _to_fixed(c: Fraction) -> int:
    """c·2^FIXED_BITS rounded to the nearest integer."""
    return ((c.numerator << (FIXED_BITS + 1)) + c.denominator) // (2 * c.denominator)


# -- field context ----------------------------------------------------------------


def companion_matrix(f: IntPoly) -> RatMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, last column
    −coefficients. It is multiplication by θ in the power basis of Q[X]/(f)."""
    if not f.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    n = f.degree
    entries = [int(i == j + 1) - (f.coeffs[i] if j == n - 1 else 0) for i in range(n) for j in range(n)]
    return RatMatrix.from_integers(n, n, entries)


@dataclass(frozen=True)
class NumberFieldCtx:
    """A number field Q[X]/(min_poly) with its signature and θ, the companion
    matrix of min_poly.

    fixed_embeddings, computed on first read by closed_form_embeddings, holds
    the n roots as (re, im) integer pairs scaled by 2^FIXED_BITS: the s real
    ones first (ascending), then the complex ones as adjacent conjugate pairs
    (positive-imaginary member first); reading it raises
    UnsupportedFieldError outside the quadratic and cyclotomic shapes. Log
    vectors have s + t entries, one per real embedding and one per conjugate
    pair.

    cyclotomic_index, found once by make_field, is the d with min_poly = Φ_d
    of degree ≥ 3, else None; the embeddings and unit generators read it.
    """

    min_poly: IntPoly
    signature: tuple
    theta: RatMatrix
    cyclotomic_index: Optional[int]

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    @property
    def s_real(self) -> int:
        return self.signature[0]

    @property
    def t_pairs(self) -> int:
        return self.signature[1]

    @cached_property
    def fixed_embeddings(self) -> tuple:
        return closed_form_embeddings(self.min_poly, self.cyclotomic_index)

    def mult_matrix(self, coords: Sequence[Fraction]) -> RatMatrix:
        """Matrix of multiplication by the element in the power basis;
        column j is the image of θ^j, and column 0 gives back coords."""
        return poly_at_matrix(coords, self.theta)


def make_field(min_poly: IntPoly) -> NumberFieldCtx:
    """Build a field context for the field shapes whose units are searched,
    with irreducibility and the signature in closed form: a linear
    polynomial has signature (1, 0); X² + bX + c is irreducible exactly when
    its discriminant is not a square, with signature (2, 0) when it is
    positive and (0, 1) when negative; Φ_d of degree ≥ 3 is irreducible with
    signature (0, φ(d)/2), as its roots are the non-real primitive d-th roots
    of unity. Raises FieldError for non-monic or reducible input and
    UnsupportedFieldError for any other polynomial."""
    if not min_poly.is_monic:
        raise FieldError("minimal polynomial must be monic")
    n = min_poly.degree
    if n < 1:
        raise FieldError("minimal polynomial must have degree >= 1")
    s, d = int(n == 1), None
    if n == 2:
        c, b, _ = min_poly.coeffs
        disc = b * b - 4 * c
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            raise FieldError(f"{min_poly} is reducible over Q")
        s = 2 if disc > 0 else 0
    elif n > 2:
        d = cyclotomic_index_of(min_poly)
        if d is None:
            raise UnsupportedFieldError(f"no unit-generator source for degree-{n} field {min_poly}")
    return NumberFieldCtx(min_poly, (s, (n - s) // 2), companion_matrix(min_poly), d)


@dataclass(frozen=True)
class UnitElem:
    """A unit in the ring of integers, as its multiplication matrix and that
    matrix's characteristic polynomial, which is the unit's minimal
    polynomial to the power n/deg."""

    field: NumberFieldCtx
    matrix: RatMatrix
    char_poly: IntPoly

    @property
    def coords(self) -> tuple:
        return self.matrix.column(0)

    @cached_property
    def log_vector(self) -> tuple:
        """log |σ(u)| for each real embedding σ and one of each conjugate
        pair: u's coordinates evaluated at σ in fixed point, then one
        mpmath.log of |σ(u)|²."""
        import mpmath

        field = self.field
        slots = list(range(field.s_real)) + [field.s_real + 2 * j for j in range(field.t_pairs)]
        coeffs = [_to_fixed(c) for c in self.coords]
        logs = []
        with mpmath.workprec(FIXED_BITS):
            for i in slots:
                re, im = _fixed_horner(coeffs, *field.fixed_embeddings[i])
                logs.append(mpmath.log(mpmath.mpf((re * re + im * im, -2 * FIXED_BITS))) / 2)
        return tuple(logs)

    def min_poly(self) -> IntPoly:
        return squarefree_part(self.char_poly)

    def to_json_obj(self) -> dict:
        return {
            "coords": [str(c) for c in self.coords],
            "log_vector": [float(v) for v in self.log_vector],
            "min_poly": [str(c) for c in self.min_poly().coeffs],
        }


def make_unit(field: NumberFieldCtx, matrix: RatMatrix) -> UnitElem:
    """The element with multiplication matrix `matrix`, which must be an
    algebraic integer of unit norm: integer-like, as its characteristic
    polynomial is a power of its minimal polynomial."""
    a, d = matrix.integer_form()
    char_poly = integer_char_poly(a, matrix.rows, d)
    if char_poly is None:
        raise FieldError(f"element {matrix.column(0)} is not an algebraic unit")
    return UnitElem(field=field, matrix=matrix, char_poly=char_poly)


def max_hyperbolicity_bound(field: NumberFieldCtx) -> int:
    """Largest c for which a c-hyperbolic unit can exist: n−1 when the field
    has a real embedding, n/2 − 1 when totally imaginary."""
    n = field.degree
    return n - 1 if field.s_real > 0 else n // 2 - 1


# -- unit generators ---------------------------------------------------------------


def _fundamental_unit_coords(d: int) -> tuple:
    """(x, y) with x + y·√d the fundamental unit of Q(√d) (smallest unit > 1),
    for squarefree d > 1, by the continued-fraction expansion of the reduced
    generator of the maximal order."""
    a0 = isqrt(d)
    if d % 4 == 1:
        # maximal order Z[(1+√d)/2]; reduced surd (b+√d)/2 with b odd
        b = a0 if a0 % 2 == 1 else a0 - 1
        p_init, q_init = b, 2
    else:
        p_init, q_init = a0, 1
    # continued fraction of ω = (P+√d)/Q, purely periodic by reducedness;
    # convergent denominators start from q_{-2} = 1, q_{-1} = 0
    p_cur, q_cur = p_init, q_init
    k_prev, k_cur = 1, 0
    while True:
        a = (p_cur + a0) // q_cur
        k_prev, k_cur = k_cur, a * k_cur + k_prev
        p_cur = a * q_cur - p_cur
        q_cur = (d - p_cur * p_cur) // q_cur
        if (p_cur, q_cur) == (p_init, q_init):
            break
    # ε = q_{ℓ−1}·ω + q_{ℓ−2} with ω = (p_init + √d)/q_init
    return Fraction(k_cur * p_init, q_init) + k_prev, Fraction(k_cur, q_init)


def _cyclotomic_units(field: NumberFieldCtx, d: int) -> list[UnitElem]:
    """Units (1−ζ^a)/(1−ζ) = 1 + ζ + … + ζ^{a−1} for 1 < a < d0/2 with
    gcd(a, d0) = 1, in the field Q[X]/(Φ_d). θ is a primitive d-th root; for
    d ≡ 2 mod 4 the units live at the odd level d0 = d/2 with ζ = θ², otherwise
    d0 = d and ζ = θ."""
    d0, step = (d // 2, 2) if d % 4 == 2 else (d, 1)
    zeta = _power(field.theta, step)
    power = total = RatMatrix.identity(field.degree)
    units = []
    for a in range(2, (d0 + 1) // 2):
        power = power @ zeta
        total = total + power
        if gcd(a, d0) == 1:
            units.append(make_unit(field, total))
    return units


def unit_generators_for_field(field: NumberFieldCtx) -> list[UnitElem]:
    """Generators of a finite-index subgroup of the units of a field from
    make_field: none for rank zero, else the fundamental unit of a real
    quadratic field or the cyclotomic units of Q[X]/(Φ_d), any d including
    d ≡ 2 mod 4."""
    rank = field.s_real + field.t_pairs - 1
    if rank == 0:
        return []
    if field.degree == 2 and field.s_real == 2:
        # X² + bX + c with positive discriminant; express the fundamental
        # unit of Q(√d0) in this power basis via √d0 = (2θ + b)/t
        b, c = field.min_poly.coeffs[1], field.min_poly.coeffs[0]
        disc = b * b - 4 * c
        d0 = squarefree_kernel(disc)
        t = isqrt(disc // d0)
        x, y = _fundamental_unit_coords(d0)
        coords = (x + Fraction(y * b, t), Fraction(2 * y, t))
        return [make_unit(field, field.mult_matrix(coords))]
    return _cyclotomic_units(field, field.cyclotomic_index)


def squarefree_kernel(n: int) -> int:
    """The squarefree d with n = d·t², for n ≥ 1, by trial division by the p
    with p³ at most what is left: the rest then has at most two prime
    factors, so it is a square or squarefree."""
    d, rest, p = 1, n, 2
    while p * p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return d if isqrt(rest) ** 2 == rest else d * rest


# -- c-hyperbolic unit search -------------------------------------------------------


@dataclass(frozen=True)
class UnitSearchOutcome:
    unit: Optional[UnitElem]
    report: Optional[HyperbolicityReport]
    exponents: Optional[tuple]
    candidates_screened: int
    reason: str  # "found" | "theoretical-bound" | "exhausted-bound"

    @property
    def found(self) -> bool:
        return self.unit is not None


def _multiset_sums_clear_zero(values: Sequence, c: int, eps: float) -> bool:
    for k in range(1, c + 1):
        for combo in itertools.combinations_with_replacement(values, k):
            if abs(sum(combo)) <= eps:
                return False
    return True


def lattice_height(dim: int, height_bound: int) -> int:
    """The largest height up to height_bound whose cube [−h, h]^dim holds at
    most MAX_LATTICE_CANDIDATES vectors: the height to which an integer
    search over dim coordinates screens every shell in full. It is 0 when
    height 1 alone is over the limit."""
    return min(height_bound, (_integer_root(MAX_LATTICE_CANDIDATES, dim) - 1) // 2)


def _integer_root(n: int, k: int) -> int:
    """The largest s ≥ 0 with s^k ≤ n, by bisection on [0, n + 1)."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


def max_norm_shell(dim: int, h: int):
    """The integer vectors of length dim and max-norm h, in the order of
    itertools.product over h, h−1, …, −h. A first coordinate ±h is followed
    by the whole cube one dimension down, any other by the shell one
    dimension down, so the inner cube is never walked."""
    if dim == 1:
        yield (h,)
        if h:
            yield (-h,)
        return
    values = range(h, -h - 1, -1)
    for v in values:
        tails = itertools.product(values, repeat=dim - 1) if abs(v) == h else max_norm_shell(dim - 1, h)
        for tail in tails:
            yield (v, *tail)


def search_c_hyperbolic_unit(
    field: NumberFieldCtx,
    generators: Sequence[UnitElem],
    c: int,
    exponent_bound: int = 10,
) -> UnitSearchOutcome:
    """First certified c-hyperbolic unit among products of generator powers
    with exponents of max-norm up to lattice_height(#generators, bound);
    raises ValueError when height 1 alone is over MAX_LATTICE_CANDIDATES.

    Candidates are enumerated shell by shell in increasing max-norm; inside a
    shell, candidates whose log vector has exactly one positive coordinate
    come first (these are the Pisot-shaped ones), ties broken by the
    descending-coordinate lexicographic order. Each surviving candidate is
    screened on its log vector and then certified exactly on its
    characteristic polynomial, whose roots are its conjugates.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if exponent_bound < 0:
        raise ValueError(f"exponent_bound must be >= 0, got {exponent_bound}")
    if c > max_hyperbolicity_bound(field):
        return UnitSearchOutcome(None, None, None, 0, "theoretical-bound")
    if not generators:
        return UnitSearchOutcome(None, None, None, 0, "exhausted-bound")
    if lattice_height(len(generators), 1) == 0:
        raise ValueError(
            f"a unit search over {len(generators)} generators has 3^{len(generators)} candidates "
            f"at height 1, over the limit of {MAX_LATTICE_CANDIDATES}"
        )
    logs = [gen.log_vector for gen in generators]

    def log_of(vec):
        return [sum(e * lv[i] for e, lv in zip(vec, logs)) for i in range(len(logs[0]))]

    screened = 0
    for h in range(lattice_height(len(generators), exponent_bound) + 1):
        ordered = sorted(
            max_norm_shell(len(generators), h),
            key=lambda vec: 0 if sum(1 for v in log_of(vec) if v > 0) == 1 else 1,
        )
        for vec in ordered:
            screened += 1
            if not _multiset_sums_clear_zero(log_of(vec), c, LOG_SCREEN_EPS):
                continue
            element = RatMatrix.identity(field.degree)
            for e, gen in zip(vec, generators):
                if e:
                    element = element @ _power(gen.matrix, e)
            unit = make_unit(field, element)
            report = is_c_hyperbolic_poly(unit.char_poly, c)
            if report.verdict:
                return UnitSearchOutcome(
                    unit=unit,
                    report=report,
                    exponents=vec,
                    candidates_screened=screened,
                    reason="found",
                )
    return UnitSearchOutcome(None, None, None, screened, "exhausted-bound")


def _power(m: RatMatrix, k: int) -> RatMatrix:
    """m^k by repeated squaring; a negative k inverts m first."""
    if k < 0:
        m, k = m.inverse(), -k
    result = RatMatrix.identity(m.rows)
    while k:
        if k & 1:
            result = result @ m
        m = m @ m
        k >>= 1
    return result


# -- ready-made hyperbolic companion polynomials -------------------------------------

_PISOT_FAMILY = {
    2: [IntPoly((1, -3, 1)), IntPoly((-1, -1, 1)), IntPoly((-1, -2, 1))],
    3: [IntPoly((-1, -1, 0, 1)), IntPoly((-1, 0, -1, 1))],
}


def _curated_degree_polys(m: int) -> list[IntPoly]:
    """The Pisot family for m, or X^m − X^{m−1} − 1 and X^m − X − 1; then
    X^m − aX^{m−1} − 1 for a = 2, 3, which by Rouché on |X| = 1 has m − 1
    roots inside the unit circle and one outside, so it is irreducible."""
    out = list(_PISOT_FAMILY.get(m, ())) or [
        IntPoly.monomials((m, 1), (m - 1, -1), (0, -1)),
        IntPoly.monomials((m, 1), (1, -1), (0, -1)),
    ]
    for a in (2, 3):
        f = IntPoly.monomials((m, 1), (m - 1, -a), (0, -1))
        if f not in out:
            out.append(f)
    return out


def hyperbolic_companion_poly(m: int, c: int) -> Optional[IntPoly]:
    """A monic integer polynomial of degree m with constant term ±1 whose
    companion matrix is c-hyperbolic, or None: the first certified one of a
    curated list of Pisot-type polynomials. Requires c ≤ m − 1. The result
    need not be irreducible: verify_witness proves what a witness needs of
    it.
    """
    if m < 2 or c >= m:
        return None
    return next((f for f in _curated_degree_polys(m) if is_c_hyperbolic_poly(f, c).verdict), None)
