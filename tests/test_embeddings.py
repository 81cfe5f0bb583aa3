"""The number-field embeddings, in closed form for the two field shapes whose
units are searched (monic quadratics, and Φ_d for d ≥ 3), against
mpmath.polyroots; every other field is refused with UnsupportedFieldError."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov.intpoly import IntPoly, cyclotomic, cyclotomic_index_of, factor_over_Q, real_root_count, totient
from anosov.numfield import (
    FIXED_BITS,
    UnsupportedFieldError,
    _PISOT_FAMILY,
    _curated_degree_polys,
    make_field,
    make_unit,
)

from conftest import hand_built_field, roots_of

AGREEMENT = mpmath.mpf(2) ** -120


def _oracle_embeddings(f: IntPoly, s: int) -> list:
    """polyroots' roots in embedding order: s reals ascending, then each
    upper-half-plane root (by real part at 2^-100, then imaginary part)
    followed by its conjugate."""
    with mpmath.workprec(FIXED_BITS):
        roots = sorted(roots_of(f, FIXED_BITS), key=lambda z: abs(z.imag))
        reals = sorted((mpmath.mpc(z.real) for z in roots[:s]), key=lambda z: z.real)
        uppers = sorted(
            (z for z in roots[s:] if z.imag > 0), key=lambda z: (mpmath.nint(z.real * 2**100), z.imag)
        )
        out = list(reals)
        for z in uppers:
            out.extend([z, mpmath.conj(z)])
        return out


def _has_closed_form(f: IntPoly) -> bool:
    return f.degree == 2 or (cyclotomic_index_of(f) or 0) >= 3


def _check_against_oracle(f: IntPoly):
    """The closed-form embeddings agree with the oracle, in order, when f is
    a quadratic or Φ_d with d ≥ 3; any other f is refused."""
    # hand-built, so that reducible curated polynomials are checked too
    field = hand_built_field(f)
    if not _has_closed_form(f):
        with pytest.raises(UnsupportedFieldError):
            field.fixed_embeddings
        return
    oracle = _oracle_embeddings(f, field.s_real)
    assert len(field.fixed_embeddings) == len(oracle) == f.degree
    with mpmath.workprec(FIXED_BITS):
        for (x, y), w in zip(field.fixed_embeddings, oracle):
            z = mpmath.mpc(mpmath.mpf((x, -FIXED_BITS)), mpmath.mpf((y, -FIXED_BITS)))
            assert abs(z - w) < AGREEMENT, (f, z, w)


def _squarefree(d: int) -> bool:
    return all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


CURATED = sorted(
    {f for family in _PISOT_FAMILY.values() for f in family}
    | {f for m in range(2, 11) for f in _curated_degree_polys(m)},
    key=lambda f: (f.degree, f.coeffs),
)


class TestAgainstPolyroots:
    # φ(d) ≥ √(d/2), so every d with φ(d) ≤ 16 is below 2·16² + 2; Φ_1 and
    # Φ_2 are linear, and refused
    @pytest.mark.parametrize("d", [d for d in range(1, 2 * 16 * 16 + 2) if totient(d) <= 16])
    def test_cyclotomic(self, d):
        _check_against_oracle(cyclotomic(d))

    # the tensor shortcut's companion fields: the quadratic ones agree, the
    # others are refused
    @pytest.mark.parametrize("f", CURATED, ids=str)
    def test_curated_companion_polys(self, f):
        _check_against_oracle(f)

    @pytest.mark.parametrize("d", [d for d in range(2, 51) if _squarefree(d)])
    def test_real_quadratic(self, d):
        _check_against_oracle(IntPoly((-d, 0, 1)))

    def test_monic_quadratics(self):
        # X² + bX + c of either signature, irreducible: a non-square discriminant
        quadratics = [
            IntPoly((c, b, 1)) for b in range(-20, 21) for c in range(-20, 21) if not _is_square(b * b - 4 * c)
        ]
        assert {real_root_count(f) for f in quadratics} == {0, 2}
        for f in quadratics:
            _check_against_oracle(f)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_irreducible(self, low):
        f = IntPoly((*low, 1))
        assume(factor_over_Q(f) == [(f, 1)])
        _check_against_oracle(f)


def test_plastic_log_vector_is_refused():
    # make_field refuses X³ − X − 1 itself; a context built by hand is
    # refused when its embeddings are read
    plastic = IntPoly((-1, -1, 0, 1))
    with pytest.raises(UnsupportedFieldError):
        make_field(plastic)
    field = hand_built_field(plastic)
    with pytest.raises(UnsupportedFieldError):
        make_unit(field, field.theta).log_vector
