"""Integer polynomial arithmetic: factorization over Q, gcds, cyclotomic
polynomials, coefficient reversal, and eigenvalue-product polynomials.

Everything but Zassenhaus factorization is integer arithmetic here. gcds
take the heuristic gcd (Char, Geddes and Gonnet, 1989), accepted only when
exact division shows that it divides both inputs, with the primitive
remainder sequence when it fails; the squarefree part is f / gcd(f, f′) by
exact division; real roots are counted by a Sturm sequence of sign-keeping
pseudo-remainders. Factorization takes a closed form where the answer has
one: the power of X, small integer roots and every quadratic are split off
here, and a residual is returned whole when it is cyclotomic or the degree
sieve proves it irreducible (Musser, J. ACM 25, 1978): modulo a prime p
dividing neither its leading coefficient nor its discriminant, a factor over
Q has a degree that is a sum of the degrees of its factors mod p, read by
distinct-degree factorization (von zur Gathen and Gerhard, Modern Computer
Algebra, §14.2), and none is left when no proper degree is such a sum at
every prime of SIEVE_PRIMES. Only any other residual of degree three or
more goes to sympy's dense Zassenhaus kernel, imported inside the function
that calls it, so a run whose polynomials all factor in closed form never
loads sympy.
Cyclotomic polynomials come from their Möbius product. The
eigenvalue-product polynomials have one builder, eig_product_poly, which
works from power sums of the roots of a squarefree base and takes no
squarefree part itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd as _int_gcd, isqrt, lcm as _int_lcm, prod
from typing import Optional

from .ratmat import json_int

# The integer-root step of factor_over_Q runs when the constant term is below
# this bound: its divisors are then found by at most isqrt(2**20) = 1024
# trial divisions. A larger constant term goes to Zassenhaus whole.
INTEGER_ROOT_BOUND = 2**20

SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class ZeroPolynomialError(ValueError):
    pass


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients, ascending order."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rationals(cls, coeffs) -> "IntPoly":
        """Exact conversion; raises ValueError if any coefficient is non-integral."""
        out = []
        for c in coeffs:
            c = Fraction(c)
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return cls(tuple(out))

    @classmethod
    def clear_denominators(cls, coeffs) -> "IntPoly":
        """Primitive integer polynomial with positive leading coefficient and
        the same roots as the rational input."""
        fracs = [Fraction(c) for c in coeffs]
        denom = _int_lcm(*(c.denominator for c in fracs))
        return cls(tuple(int(c * denom) for c in fracs)).primitive_part()

    @classmethod
    def monomials(cls, *terms) -> "IntPoly":
        """Build from (degree, coefficient) pairs."""
        deg = max(d for d, _ in terms)
        coeffs = [0] * (deg + 1)
        for d, c in terms:
            coeffs[d] += c
        return cls(tuple(coeffs))

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def __call__(self, value):
        return _eval(self.coeffs, value)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly(tuple(p + q for p, q in zip(a, b)))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def __pow__(self, n: int) -> "IntPoly":
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(tuple(k * c for c in self.coeffs))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def primitive_part(self) -> "IntPoly":
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial")
        return _normal(_primitive(list(self.coeffs)))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}X" + (f"^{i}" if i > 1 else "")
            parts.append(("-" if c < 0 else "+", term))
        sign0, term0 = parts[0]
        text = ("-" if sign0 == "-" else "") + term0
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


# -- operations -----------------------------------------------------------------


def factor_over_Q(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Irreducible factorization over Q.

    Factors are primitive with positive leading coefficient; the product of
    factors^multiplicities equals the input up to a rational unit. They come
    in sympy's order (degree, multiplicity, coefficients leading-first), and
    every factorization equals `dup_factor_list`'s. The power of X, the
    integer roots of a monic polynomial with a small constant term, and a
    residual of degree at most two are split off in closed form; a residual
    that is cyclotomic or passes the degree sieve is irreducible (module
    docstring), and only any other goes to Zassenhaus.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    k = next(i for i, c in enumerate(f.coeffs) if c)
    g = IntPoly(f.coeffs[k:]).primitive_part()
    factors = [(IntPoly((0, 1)), k)] if k else []
    if g.degree > 2 and g.leading == 1 and abs(g.coeffs[0]) < INTEGER_ROOT_BOUND:
        g = _split_integer_roots(g, factors)
    if g.degree <= 2:
        factors += _factor_quadratic(g)
    elif g.leading == 1 and abs(g.coeffs[0]) == 1 and cyclotomic_index_of(g) or _irreducible_by_degrees(g):
        factors.append((g, 1))
    else:
        from sympy.polys.domains import ZZ
        from sympy.polys.factortools import dup_factor_list

        # sympy's dense lists run leading coefficient first
        dense = dup_factor_list([ZZ(c) for c in reversed(g.coeffs)], ZZ)[1]
        factors += [(IntPoly(tuple(reversed(p))), m) for p, m in dense]
    return sorted(factors, key=lambda fm: (fm[0].degree, fm[1], fm[0].coeffs[::-1]))


def _irreducible_by_degrees(g: IntPoly) -> bool:
    """Whether the degree sieve (module docstring) leaves g no proper factor degree."""
    possible = (1 << g.degree) - 2  # bit d: a factor of degree d is not ruled out
    for p in SIEVE_PRIMES:
        possible &= _factor_degree_sums(list(g.coeffs), p)
        if not possible:
            return True
    return False


def _factor_degree_sums(a: list, p: int) -> int:
    """The bit set of the subset sums of the degrees of a's factors mod p (of
    every sum if p divides a's leading coefficient or discriminant): the
    factors of degree dividing d make gcd(a, X^(p^d) − X), and one over n/2."""
    f, n = _mod_monic(a, p), len(a) - 1
    if len(f) <= n or len(_mod_gcd(f, [i * c for i, c in enumerate(f) if i], p)) > 1:
        return (2 << n) - 1
    h, degrees = [0, 1], []
    for d in range(1, n // 2 + 1):
        x = [1]
        for bit in bin(p)[2:]:  # h^p by repeated squaring
            x = _mod_mul(x, x, f, p)
            x = _mod_mul(x, h, f, p) if bit == "1" else x
        h = x
        below = sum(e for e in degrees if d % e == 0)
        degrees += [d] * ((len(_mod_gcd(f, h[:1] + [h[1] - 1] + h[2:], p)) - 1 - below) // d)
    # the last degree is that of the factor of degree over n/2, or 0
    return reduce(lambda sums, d: sums | sums << d, degrees + [n - sum(degrees)], 1)


def _mod_monic(a: list, p: int) -> list:
    """a mod p, trimmed and made monic; [] for a zero residue."""
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return [x * pow(a[-1], -1, p) % p for x in a]


def _mod_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p of the monic a and of b."""
    while b := _mod_monic(b, p):
        a, b = b, _mod_mul(a, [1], b, p)
    return a


def _mod_mul(a: list, b: list, f: list, p: int) -> list:
    """a·b modulo the monic f of degree n over F_p, as n coefficients."""
    n = len(f) - 1
    out = [0] * max(len(a) + len(b), n)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for top in range(len(out) - 1, n - 1, -1):
        for j in range(n):
            out[top - n + j] -= out[top] * f[j]
    return [x % p for x in out[:n]]


def _divisors(n: int) -> list[int]:
    """The positive divisors of n ≥ 1, by trial division up to √n."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _split_integer_roots(g: IntPoly, factors: list) -> IntPoly:
    """Append (X − r, multiplicity) to factors for every integer root r of the
    monic g, and return g with them divided out. An integer root of a monic
    integer polynomial divides its constant term."""
    a = list(g.coeffs)
    for d in _divisors(abs(a[0])):
        for r in (d, -d):
            m = 0
            while a[0] % r == 0:
                quotient = _quotient(a, [-r, 1])
                if quotient is None:
                    break
                a, m = quotient, m + 1
            if m:
                factors.append((IntPoly((-r, 1)), m))
    return IntPoly(tuple(a))


def _factor_quadratic(g: IntPoly) -> list[tuple[IntPoly, int]]:
    """Factors of a primitive g of degree at most two with positive leading
    coefficient. A quadratic with a square discriminant has the rational roots
    (−b ± √disc)/(2a), and its factors are their linear factors, made
    primitive (Gauss: their product is primitive, so it is g)."""
    if g.degree < 1:
        return []
    if g.degree == 1:
        return [(g, 1)]
    c, b, a = g.coeffs
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [(g, 1)]
    roots = [Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)]
    linear = [IntPoly((-r.numerator, r.denominator)) for r in roots]
    return [(linear[0], 2)] if s == 0 else [(p, 1) for p in linear]


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """d-th cyclotomic polynomial, monic of degree φ(d) ≤ d. For d > 1 it is
    the product of (1 − X^{d/e})^{μ(e)} over the squarefree divisors e of d,
    taken here as power series modulo X^{d+1}, where 1 − X^k is a unit."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if d == 1:
        return IntPoly((-1, 1))
    primes = [p for p in _divisors(d)[1:] if all(p % q for q in range(2, isqrt(p) + 1))]
    series = [1] + [0] * d
    for subset in itertools.product((False, True), repeat=len(primes)):
        k = d // prod(p for p, taken in zip(primes, subset) if taken)
        if sum(subset) % 2:  # μ(e) = −1: divide by 1 − X^k
            for i in range(k, d + 1):
                series[i] += series[i - k]
        else:  # μ(e) = 1: multiply by 1 − X^k
            for i in range(d, k - 1, -1):
                series[i] -= series[i - k]
    return IntPoly(tuple(series))


def totient(d: int) -> int:
    """Euler's φ(d) by trial division."""
    result, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def cyclotomic_index_of(f: IntPoly) -> Optional[int]:
    """d with f = Φ_d, or None. Uses φ(d) ≥ √(d/2) to bound the search."""
    if not f.is_monic or f.degree < 1:
        return None
    k = f.degree
    for d in range(1, 2 * k * k + 2):
        if totient(d) == k and cyclotomic(d) == f:
            return d
    return None


# -- integer kernels ------------------------------------------------------------
#
# The helpers below work on coefficient lists, ascending and without trailing
# zeros.

# Evaluation points the heuristic gcd tries before the primitive remainder
# sequence takes over.
HEU_GCD_ATTEMPTS = 6


def _quotient(f: list, g: list):
    """f / g when the nonzero g divides f in Z[X], else None. For a
    primitive g that is exactly when g divides f over Q (Gauss)."""
    m = len(g)
    if len(f) < m:
        return None if f else []
    r, lc = list(f), g[-1]
    q = [0] * (len(f) - m + 1)
    for i in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[i + m - 1], lc)
        if rest:
            return None
        q[i] = c
        if c:
            for j in range(m - 1):
                r[i + j] -= c * g[j]
    return None if any(r[: m - 1]) else q


def _remainder(f: list, g: list) -> list:
    """A positive multiple of the remainder of f by the nonzero g over Q,
    with its content divided out: each step scales by |lc g|, so signs are
    kept."""
    r, m, lc = list(f), len(g), g[-1]
    a, sign = abs(lc), 1 if lc > 0 else -1
    while len(r) >= m:
        c = sign * r.pop()  # a·r − c·X^shift·g cancels the leading term
        shift = len(r) - m + 1
        if a != 1:
            r = [a * x for x in r]
        for j in range(m - 1):
            r[shift + j] -= c * g[j]
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def _primitive(f: list) -> list:
    """f over its content, which is positive: signs are kept."""
    content = _int_gcd(*f)
    return [x // content for x in f] if content > 1 else f


def _eval(f, x):
    """f(x) by Horner's scheme."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _heuristic_gcd(f: list, g: list):
    """The primitive gcd of nonzero primitive f and g, up to sign, or None:
    the heuristic gcd (Char, Geddes and Gonnet, J. Symb. Comp. 7,
    1989). gcd(f(ξ), g(ξ)) is read back as a polynomial with coefficients
    in (−ξ/2, ξ/2]; if its primitive part h divides f and g, and ξ ≥
    2·min(‖f‖∞, ‖g‖∞) + 2, then h is the gcd (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, Thm 7.7)."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(HEU_GCD_ATTEMPTS):
        gamma, h = _int_gcd(_eval(f, xi), _eval(g, xi)), []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            h.append(d)
            gamma = (gamma - d) // xi
        h = _primitive(h)
        if len(h) == 1 or _quotient(f, h) is not None and _quotient(g, h) is not None:
            return h
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _prs_gcd(f: list, g: list) -> list:
    """The gcd of nonzero f and g, up to sign: the primitive remainder
    sequence."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _remainder(f, g)
    return _primitive(f)


def _gcd(f: list, g: list) -> list:
    """The primitive gcd of nonzero f and g, up to sign."""
    f, g = _primitive(f), _primitive(g)
    return _heuristic_gcd(f, g) or _prs_gcd(f, g)


def _normal(f: list) -> IntPoly:
    """The primitive f with its leading coefficient made positive."""
    return IntPoly(tuple(f if f[-1] > 0 else [-x for x in f]))


def _signs_at(chain: list, point) -> list:
    """The signs of the polynomials of chain at a rational point or at ±∞,
    given as a float."""
    if isinstance(point, float):
        return [(1 if p[-1] > 0 else -1) * (1 if point > 0 or len(p) % 2 else -1) for p in chain]
    num, den = point.numerator, point.denominator
    signs = []
    for p in chain:
        acc, scale = 0, 1
        for c in reversed(p):  # den^deg·p(num/den) by Horner's scheme
            acc = acc * num + c * scale
            scale *= den
        signs.append((acc > 0) - (acc < 0))
    return signs


def _variations(signs: list) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def _sturm_chain(f: list) -> list:
    """f, f′ and the negated remainders: a Sturm sequence of f when f is
    squarefree, its last entry being a constant; else that entry has the
    degree of gcd(f, f′)."""
    chain = [f, [i * c for i, c in enumerate(f) if i]]
    while True:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-x for x in r])


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd over Q, returned primitive with positive leading coefficient: the
    heuristic gcd, with the primitive remainder sequence when it fails."""
    if f.is_zero or g.is_zero:
        return (g if f.is_zero else f).primitive_part()
    return _normal(_gcd(list(f.coeffs), list(g.coeffs)))


def squarefree_part(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), primitive with positive leading coefficient."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return IntPoly((1,))
    a = _primitive(list(f.coeffs))
    # a quotient of primitive polynomials is primitive (Gauss)
    return _normal(_quotient(a, _gcd(a, [i * c for i, c in enumerate(a) if i])))


def real_root_count(f: IntPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots of f in [lo, hi], an omitted bound
    being infinite, by Sturm's theorem on the squarefree part s of f: the
    sign variations of its Sturm sequence drop by one at each root of s, so
    V(lo) − V(hi) counts the roots in (lo, hi]."""
    if f.degree < 1:
        return 0
    lo, hi = (Fraction(b) if b is not None else float(side) for b, side in ((lo, "-inf"), (hi, "inf")))
    if lo > hi:
        return 0
    chain = _sturm_chain(list(f.coeffs))
    if len(chain[-1]) > 1:  # the chain of f / gcd(f, f′)
        chain = _sturm_chain(_quotient(list(f.coeffs), _primitive(chain[-1])))
    low = _signs_at(chain, lo)
    return _variations(low) - _variations(_signs_at(chain, hi)) + (low[0] == 0)


def reversal(f: IntPoly) -> IntPoly:
    """X^{deg f}·f(1/X), i.e. coefficient reversal; requires f(0) != 0."""
    if f.is_zero or f.coeffs[0] == 0:
        raise ValueError("reversal requires a nonzero constant term")
    return IntPoly(tuple(reversed(f.coeffs)))


def _newton_sums(f: IntPoly, count: int) -> list:
    """Power sums s_0 … s_count of the roots of the monic polynomial f."""
    n = f.degree
    a = f.coeffs
    s = [n] + [0] * count
    for m in range(1, count + 1):
        acc = m * a[n - m] if m <= n else 0
        for i in range(1, min(m - 1, n) + 1):
            acc += a[n - i] * s[m - i]
        s[m] = -acc
    return s


def eig_product_poly(base: IntPoly, k: int) -> IntPoly:
    """The polynomial ∏_α (X − λ^α), up to a constant, over the k-multisets α
    of the roots λ_1 … λ_n of base, counted with multiplicity, with
    base(0) ≠ 0. Its roots are the products of exactly k roots of base,
    repetitions allowed, with multiplicity when products coincide. Its
    degree is C(n+k−1, k); callers pass a squarefree base, so that a
    repeated root adds no degree. This is the only builder of the
    eigenvalue-product polynomials.

    Power-sum method (Bostan–Flajolet–Salvy–Schost, Fast computation of
    special resultants, JSC 2006). Scaled by the leading coefficient a, the
    μ_i = a·λ_i are the roots of a monic integer polynomial. The
    D = C(n+k−1, k) products μ^α have power sums P_j = h_k(μ_1^j, …, μ_n^j),
    and i·h_i = Σ_{t ≤ i} s_{tj}·h_{i−t} gives them from the Newton sums s of
    the μ. Newton's identities turn P_1 … P_D back into the monic polynomial
    with roots a^k·λ^α, and substituting X ↦ a^k·X gives the result.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if base.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    if base.coeffs[0] == 0:
        raise ValueError("eigenvalue products need f(0) != 0")
    if k == 1 or base.degree == 0:
        return base
    n, a = base.degree, base.leading
    monic = IntPoly(tuple(c * a ** (n - 1 - i) for i, c in enumerate(base.coeffs[:-1])) + (1,))
    big_d = comb(n + k - 1, k)
    s = _newton_sums(monic, k * big_d)
    p = [0] * (big_d + 1)
    for j in range(1, big_d + 1):
        h = [1] + [0] * k
        for i in range(1, k + 1):
            h[i] = sum(s[t * j] * h[i - t] for t in range(1, i + 1)) // i
        p[j] = h[k]
    # e_m = elementary symmetric functions of the roots, m·e_m = Σ ±e_{m−t}·P_t
    e = [1] + [0] * big_d
    for m in range(1, big_d + 1):
        e[m] = sum((e[m - t] if t % 2 else -e[m - t]) * p[t] for t in range(1, m + 1)) // m
    scale = a**k
    # ∏ (X − a^k·λ^α) = Σ (−1)^m e_m X^{D−m}; X ↦ a^k X multiplies X^{D−m} by a^{k(D−m)}
    coeffs = [(-e[m] if m % 2 else e[m]) * scale ** (big_d - m) for m in range(big_d, -1, -1)]
    return IntPoly(tuple(coeffs))


def divides(f: IntPoly, g: IntPoly) -> bool:
    """True iff f divides g over Q."""
    if f.is_zero:
        return g.is_zero
    return _quotient(list(g.coeffs), list(f.primitive_part().coeffs)) is not None


def poly_from_json_obj(obj) -> IntPoly:
    if not isinstance(obj, list):
        raise ValueError("polynomial literal must be an array of integer strings")
    return IntPoly(tuple(json_int(c, "min_poly entry") for c in obj))
