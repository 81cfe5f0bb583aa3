"""Number fields presented by a monic irreducible integer polynomial: numeric
embeddings and signature, logarithmic embedding of units, explicit unit
generators for real quadratic and cyclotomic fields, and bounded search for
c-hyperbolic units.

Field elements are coordinate tuples in the power basis 1, θ, …, θ^{n−1} with
exact rational entries; all algebra is exact. Floating point enters only
through the embeddings (mpmath at a fixed 128-bit working precision), which
give the log vectors that screen unit candidates; every candidate that
passes the screen is certified exactly on its minimal polynomial. make_field
raises PrecisionError when the complex embeddings cannot be paired.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

import mpmath
import sympy
from sympy.abc import x as _X

from .hyper import HyperbolicityReport, is_c_hyperbolic_poly
from .intpoly import IntPoly, cyclotomic, is_irreducible, real_root_count
from .ratmat import RatMatrix, matrix_min_poly

PRECISION_BITS = 128
LOG_SCREEN_EPS = 1e-9


class PrecisionError(ArithmeticError):
    """The numeric embeddings could not be computed at the working precision."""


class FieldError(ValueError):
    pass


class UnsupportedFieldError(FieldError):
    """No unit-generator source is implemented for this field."""


# -- power-basis arithmetic ------------------------------------------------------


def _reduce(coeffs: list, f: IntPoly) -> list:
    """Reduce a coefficient list modulo the monic polynomial f, in place."""
    n = f.degree
    for d in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[d]
        if c:
            coeffs[d] = Fraction(0)
            for j, fc in enumerate(f.coeffs[:-1]):
                coeffs[d - n + j] -= c * fc
    del coeffs[n:]
    while len(coeffs) < n:
        coeffs.append(Fraction(0))
    return coeffs


def el_mul(f: IntPoly, a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    out = [Fraction(0)] * (2 * f.degree)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(_reduce(out, f))


def el_pow(f: IntPoly, a: Sequence[Fraction], k: int) -> tuple:
    if k < 0:
        return el_pow(f, el_inv(f, a), -k)
    result = _one(f.degree)
    base = tuple(a)
    while k:
        if k & 1:
            result = el_mul(f, result, base)
        base = el_mul(f, base, base)
        k >>= 1
    return result


def el_inv(f: IntPoly, a: Sequence[Fraction]) -> tuple:
    if not any(a):
        raise ZeroDivisionError("inverse of zero field element")
    pa = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, a)])), _X, domain=sympy.QQ)
    pf = sympy.Poly([sympy.Integer(c) for c in reversed(f.coeffs)], _X, domain=sympy.QQ)
    inv = sympy.invert(pa, pf)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(inv, _X, domain=sympy.QQ).all_coeffs())]
    coeffs += [Fraction(0)] * (f.degree - len(coeffs))
    return tuple(coeffs)


def _one(n: int) -> tuple:
    return tuple([Fraction(1)] + [Fraction(0)] * (n - 1))


# -- field context ----------------------------------------------------------------


@dataclass(frozen=True)
class NumberFieldCtx:
    """A number field Q[X]/(min_poly) with cached numeric embeddings.

    embeddings holds the n roots: the s real ones first (ascending), then the
    complex ones as adjacent conjugate pairs (positive-imaginary member
    first). Log vectors have s + t entries, one per real embedding and one
    per conjugate pair.
    """

    min_poly: IntPoly
    embeddings: tuple
    signature: tuple

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    @property
    def s_real(self) -> int:
        return self.signature[0]

    @property
    def t_pairs(self) -> int:
        return self.signature[1]

    def log_slots(self) -> list:
        """Embedding indices contributing one log coordinate each."""
        return list(range(self.s_real)) + [self.s_real + 2 * j for j in range(self.t_pairs)]

    def evaluate(self, coords: Sequence[Fraction], root) -> "mpmath.mpc":
        acc = mpmath.mpc(0)
        for c in reversed(list(coords)):
            acc = acc * root + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return acc

    def log_moduli(self, coords: Sequence[Fraction]) -> tuple:
        if not any(coords):
            raise ZeroDivisionError("log embedding of zero")
        with mpmath.workprec(PRECISION_BITS + 32):
            return tuple(mpmath.log(abs(self.evaluate(coords, self.embeddings[i]))) for i in self.log_slots())

    def mult_matrix(self, coords: Sequence[Fraction]) -> RatMatrix:
        """Matrix of multiplication by the element in the power basis;
        column j is the image of θ^j."""
        n = self.degree
        cols = [tuple(Fraction(c) for c in coords)]
        for _ in range(n - 1):
            shifted = [Fraction(0)] + list(cols[-1])
            cols.append(tuple(_reduce(shifted, self.min_poly)))
        return RatMatrix.from_columns([list(c) for c in cols])

    def element_min_poly(self, coords: Sequence[Fraction]) -> tuple:
        return matrix_min_poly(self.mult_matrix(coords))

    def element_min_poly_int(self, coords: Sequence[Fraction]) -> IntPoly:
        return IntPoly.from_rationals(self.element_min_poly(coords))

    def is_unit(self, coords: Sequence[Fraction]) -> bool:
        """Algebraic integer with unit norm: integer minimal polynomial with
        constant term ±1."""
        try:
            mp = self.element_min_poly_int(coords)
        except ValueError:
            return False
        return abs(mp.coeffs[0]) == 1


def make_field(min_poly: IntPoly) -> NumberFieldCtx:
    """Build a field context; raises FieldError for non-monic or reducible input."""
    if not min_poly.is_monic:
        raise FieldError("minimal polynomial must be monic")
    if min_poly.degree < 1:
        raise FieldError("minimal polynomial must have degree >= 1")
    if not is_irreducible(min_poly):
        raise FieldError(f"{min_poly} is reducible over Q")
    n = min_poly.degree
    s = real_root_count(min_poly)
    t, rem = divmod(n - s, 2)
    assert rem == 0
    with mpmath.workprec(PRECISION_BITS + 32):
        if n == 1:
            roots = [mpmath.mpc(-min_poly.coeffs[0])]
        else:
            roots = [
                mpmath.mpc(r)
                for r in mpmath.polyroots(
                    [mpmath.mpf(c) for c in reversed(min_poly.coeffs)],
                    maxsteps=200,
                    extraprec=PRECISION_BITS,
                )
            ]
        roots.sort(key=lambda z: abs(z.imag))
        reals = sorted((z.real for z in roots[:s]))
        uppers = sorted((z for z in roots[s:] if z.imag > 0), key=lambda z: (z.real, z.imag))
        if len(uppers) != t:
            raise PrecisionError("could not pair complex embeddings at the working precision")
        embeddings = [mpmath.mpc(r) for r in reals]
        for z in uppers:
            embeddings.extend([z, mpmath.conj(z)])
    return NumberFieldCtx(min_poly=min_poly, embeddings=tuple(embeddings), signature=(s, t))


@dataclass(frozen=True)
class UnitElem:
    """A unit in the ring of integers, as power-basis coordinates."""

    field: NumberFieldCtx
    coords: tuple
    log_vector: tuple

    def min_poly(self) -> IntPoly:
        return self.field.element_min_poly_int(self.coords)

    def to_json_obj(self) -> dict:
        return {
            "coords": [str(c) for c in self.coords],
            "log_vector": [float(v) for v in self.log_vector],
            "min_poly": [str(c) for c in self.min_poly().coeffs],
        }


def make_unit(field: NumberFieldCtx, coords: Sequence[Fraction]) -> UnitElem:
    coords = tuple(Fraction(c) for c in coords)
    if not field.is_unit(coords):
        raise FieldError(f"element {coords} is not an algebraic unit")
    return UnitElem(field=field, coords=coords, log_vector=field.log_moduli(coords))


def max_hyperbolicity_bound(field: NumberFieldCtx) -> int:
    """Largest c for which a c-hyperbolic unit can exist: n−1 when the field
    has a real embedding, n/2 − 1 when totally imaginary."""
    n = field.degree
    return n - 1 if field.s_real > 0 else n // 2 - 1


# -- unit generators ---------------------------------------------------------------


def _is_squarefree(d: int) -> bool:
    return d > 1 and all(e == 1 for e in sympy.factorint(d).values())


def fundamental_unit_real_quadratic(d: int) -> UnitElem:
    """Fundamental unit of Q(√d) (smallest unit > 1) by the continued-fraction
    expansion of the reduced generator of the maximal order."""
    if not _is_squarefree(d):
        raise FieldError(f"{d} is not squarefree > 1")
    field = make_field(IntPoly((-d, 0, 1)))
    a0 = isqrt(d)
    if d % 4 == 1:
        # maximal order Z[(1+√d)/2]; reduced surd (b+√d)/2 with b odd
        b = a0 if a0 % 2 == 1 else a0 - 1
        p_init, q_init = b, 2
    else:
        p_init, q_init = a0, 1
    # continued fraction of ω = (P+√d)/Q, purely periodic by reducedness;
    # convergent denominators seeded q_{-2} = 1, q_{-1} = 0
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
    x = Fraction(k_cur * p_init, q_init) + k_prev
    y = Fraction(k_cur, q_init)
    return make_unit(field, (x, y))


def cyclotomic_field(d: int) -> NumberFieldCtx:
    return make_field(cyclotomic(d))


def _cyclotomic_units(field: NumberFieldCtx, d: int) -> list[UnitElem]:
    """Units (1−ζ^a)/(1−ζ) = 1 + ζ + … + ζ^{a−1} for 1 < a < d0/2 with
    gcd(a, d0) = 1, in the field Q[X]/(Φ_d). θ is a primitive d-th root; for
    d ≡ 2 mod 4 the units live at the odd level d0 = d/2 with ζ = θ², otherwise
    d0 = d and ζ = θ."""
    d0, step = (d // 2, 2) if d % 4 == 2 else (d, 1)
    units = []
    for a in range(2, (d0 + 1) // 2):
        if gcd(a, d0) != 1:
            continue
        coeffs = [Fraction(0)] * max(field.degree, (a - 1) * step + 1)
        for i in range(a):
            coeffs[i * step] = Fraction(1)
        units.append(make_unit(field, tuple(_reduce(coeffs, field.min_poly))))
    return units


def unit_generators_for_field(field: NumberFieldCtx) -> list[UnitElem]:
    """Generators of a finite-index subgroup of the units, for the supported
    field shapes: rank-zero fields (none needed), real quadratic fields, and
    cyclotomic fields (any presentation Φ_d, including d ≡ 2 mod 4)."""
    rank = field.s_real + field.t_pairs - 1
    if rank == 0:
        return []
    if field.degree == 2 and field.s_real == 2:
        # X² + bX + c with positive discriminant; express the fundamental
        # unit of Q(√d0) in this power basis via √d0 = (2θ + b)/t
        b, c = field.min_poly.coeffs[1], field.min_poly.coeffs[0]
        disc = b * b - 4 * c
        d0 = 1
        for p, e in sympy.factorint(disc).items():
            if e % 2:
                d0 *= int(p)
        t = isqrt(disc // d0)
        eps = fundamental_unit_real_quadratic(d0)
        x, y = eps.coords
        coords = (x + Fraction(y * b, t), Fraction(2 * y, t))
        return [make_unit(field, coords)]
    d = cyclotomic_index_of(field.min_poly)
    units = _cyclotomic_units(field, d) if d is not None else []
    if units:
        return units
    raise UnsupportedFieldError(
        f"no unit-generator source for degree-{field.degree} field {field.min_poly}"
    )


def cyclotomic_index_of(f: IntPoly) -> Optional[int]:
    """d with f = Φ_d, or None. Uses φ(d) ≥ √(d/2) to bound the search."""
    if not f.is_monic or f.degree < 1:
        return None
    k = f.degree
    for d in range(1, 2 * k * k + 2):
        if sympy.totient(d) == k and cyclotomic(d) == f:
            return d
    return None


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


def _exponent_shells(g: int, bound: int):
    for h in range(bound + 1):
        coords = list(range(h, -h - 1, -1))
        yield [v for v in itertools.product(coords, repeat=g) if max(abs(e) for e in v) == h]


def search_c_hyperbolic_unit(
    field: NumberFieldCtx,
    generators: Sequence[UnitElem],
    c: int,
    exponent_bound: int = 10,
) -> UnitSearchOutcome:
    """First certified c-hyperbolic unit among products of generator powers
    with exponents of max-norm up to the bound.

    Candidates are enumerated shell by shell in increasing max-norm; inside a
    shell, candidates whose log vector has exactly one positive coordinate
    come first (these are the Pisot-shaped ones), ties broken by the
    descending-coordinate lexicographic order. Each surviving candidate is
    screened on its log vector and then certified exactly on its minimal
    polynomial.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if c > max_hyperbolicity_bound(field):
        return UnitSearchOutcome(None, None, None, 0, "theoretical-bound")
    if not generators:
        return UnitSearchOutcome(None, None, None, 0, "exhausted-bound")
    g = len(generators)
    logs = [gen.log_vector for gen in generators]
    screened = 0
    for shell in _exponent_shells(g, exponent_bound):
        def log_of(vec):
            return [sum(e * lv[i] for e, lv in zip(vec, logs)) for i in range(len(logs[0]))]

        ordered = sorted(
            shell,
            key=lambda vec: 0 if sum(1 for v in log_of(vec) if v > 0) == 1 else 1,
        )
        for vec in ordered:
            screened += 1
            if not _multiset_sums_clear_zero(log_of(vec), c, LOG_SCREEN_EPS):
                continue
            coords = _one(field.degree)
            for e, gen in zip(vec, generators):
                if e:
                    coords = el_mul(field.min_poly, coords, el_pow(field.min_poly, gen.coords, e))
            mp = field.element_min_poly_int(coords)
            if abs(mp.coeffs[0]) != 1:
                raise FieldError("generator product is not a unit")
            report = is_c_hyperbolic_poly(mp, c)
            if report.verdict:
                return UnitSearchOutcome(
                    unit=make_unit(field, coords),
                    report=report,
                    exponents=vec,
                    candidates_screened=screened,
                    reason="found",
                )
    return UnitSearchOutcome(None, None, None, screened, "exhausted-bound")


# -- ready-made hyperbolic companion polynomials -------------------------------------

_PISOT_FAMILY = {
    2: [IntPoly((1, -3, 1)), IntPoly((-1, -1, 1)), IntPoly((-1, -2, 1))],
    3: [IntPoly((-1, -1, 0, 1)), IntPoly((-1, 0, -1, 1))],
}


def _curated_degree_polys(m: int) -> list[IntPoly]:
    if m in _PISOT_FAMILY:
        return list(_PISOT_FAMILY[m])
    out = []
    # X^m − X^{m−1} − 1 and X^m − X − 1
    out.append(IntPoly.monomials((m, 1), (m - 1, -1), (0, -1)))
    out.append(IntPoly.monomials((m, 1), (1, -1), (0, -1)))
    return out


def totally_real_cyclotomic_subfield_poly(n_index: int) -> IntPoly:
    """Minimal polynomial of ζ + ζ⁻¹ in the n_index-th cyclotomic field,
    monic of degree φ(n_index)/2."""
    f = cyclotomic(n_index)
    field_deg = f.degree
    coords = _beta_coords(n_index, f)
    # min poly of β from the first dependence among its powers
    pw = _one(field_deg)
    rows = [pw]
    for _ in range(field_deg // 2):
        pw = el_mul(f, pw, coords)
        rows.append(pw)
    system = RatMatrix.from_columns([list(r) for r in rows])
    kernel = system.kernel_basis()
    if not kernel:
        raise FieldError("no dependence found for real subfield generator")
    vec = kernel[0]
    lead = next(i for i in range(len(vec) - 1, -1, -1) if vec[i])
    return IntPoly.from_rationals([vec[i] / vec[lead] for i in range(lead + 1)])


def _beta_coords(n_index: int, f: IntPoly) -> tuple:
    """ζ + ζ⁻¹ in the power basis of Q(ζ_{n_index})."""
    size = max(2 * f.degree, n_index + 1)
    beta = [Fraction(0)] * size
    beta[1] += Fraction(1)
    beta[n_index - 1] += Fraction(1)
    return tuple(_reduce(beta, f))


def _real_subfield_units(n_index: int):
    """Relative norms u·ū of the cyclotomic units, expressed in the power
    basis of the real subfield Q(ζ + ζ⁻¹)."""
    f = cyclotomic(n_index)
    field_deg = f.degree
    subpoly = totally_real_cyclotomic_subfield_poly(n_index)
    subfield = make_field(subpoly)
    m = subpoly.degree
    beta = _beta_coords(n_index, f)
    beta_powers = [_one(field_deg)]
    for _ in range(m - 1):
        beta_powers.append(el_mul(f, beta_powers[-1], beta))
    basis_matrix = RatMatrix.from_columns([list(b) for b in beta_powers])
    units = []
    for u in _cyclotomic_units(cyclotomic_field(n_index), n_index):
        # complex conjugation ζ ↦ ζ^{n−1}
        conj = [Fraction(0)] * max(2 * field_deg, n_index + 1)
        for i, ci in enumerate(u.coords):
            if ci:
                conj[(i * (n_index - 1)) % n_index] += ci
        conj = tuple(_reduce(conj, f))
        norm = el_mul(f, u.coords, conj)
        rhs = RatMatrix.from_columns([list(norm)])
        sub_coords = tuple(basis_matrix.solve(rhs).column(0))
        units.append(make_unit(subfield, sub_coords))
    return subfield, units


def hyperbolic_companion_poly(m: int, c: int, poly_skip: int = 0) -> Optional[IntPoly]:
    """A monic integer polynomial of degree m with constant term ±1 whose
    companion matrix is c-hyperbolic, or None.

    Tries a curated Pisot family first, then searches for units in totally
    real cyclotomic subfields of degree m. Requires c ≤ m − 1. poly_skip
    skips that many certified hits, for callers that need an alternative.
    """
    if m < 2 or c >= m:
        return None
    hits = 0
    for f in _curated_degree_polys(m):
        if abs(f.coeffs[0]) != 1 or not is_irreducible(f):
            continue
        if is_c_hyperbolic_poly(f, c).verdict:
            if hits >= poly_skip:
                return f
            hits += 1
    for n_index in range(3, 8 * m * m + 2):
        if n_index % 4 == 2 or sympy.totient(n_index) != 2 * m:
            continue
        try:
            subfield, units = _real_subfield_units(n_index)
        except FieldError:
            continue
        outcome = search_c_hyperbolic_unit(subfield, units, c)
        if outcome.found:
            mp = outcome.unit.min_poly()
            if mp.degree == m:
                if hits >= poly_skip:
                    return mp
                hits += 1
    return None
