"""The number-field embeddings (a double-precision start polished by Newton's
method in integer fixed point) against mpmath.polyroots, and the root
routine's failures, which must surface as PrecisionError and exit code 3."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov import numfield
from anosov.cli import main
from anosov.intpoly import IntPoly, cyclotomic, is_irreducible, real_root_count
from anosov.numfield import (
    FIXED_BITS,
    GUARD_BITS,
    NumberFieldCtx,
    PrecisionError,
    _PISOT_FAMILY,
    _curated_degree_polys,
    _totient,
    companion_matrix,
    cyclotomic_field,
    fixed_point_roots,
)

from conftest import roots_of

AGREEMENT = mpmath.mpf(2) ** -120


def _field(f: IntPoly) -> NumberFieldCtx:
    """The context of Q[X]/(f) with its signature from the Sturm count; f
    need only be monic and squarefree, so reducible curated polynomials are
    checked too."""
    s = real_root_count(f)
    return NumberFieldCtx(min_poly=f, signature=(s, (f.degree - s) // 2), theta=companion_matrix(f))


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


def _check_against_oracle(f: IntPoly):
    real_roots = sum(1 for _, y in fixed_point_roots(f) if abs(y) < 1 << GUARD_BITS)
    assert real_roots == real_root_count(f)
    field = _field(f)
    oracle = _oracle_embeddings(f, field.s_real)
    assert len(field.embeddings) == len(oracle) == f.degree
    with mpmath.workprec(FIXED_BITS):
        for z, w in zip(field.embeddings, oracle):
            assert abs(z - w) < AGREEMENT, (f, z, w)


def _squarefree(d: int) -> bool:
    return all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


CURATED = sorted(
    {f for family in _PISOT_FAMILY.values() for f in family}
    | {f for m in range(2, 11) for f in _curated_degree_polys(m)},
    key=lambda f: (f.degree, f.coeffs),
)


class TestAgainstPolyroots:
    # φ(d) ≥ √(d/2), so every d with φ(d) ≤ 16 is below 2·16² + 2
    @pytest.mark.parametrize("d", [d for d in range(1, 2 * 16 * 16 + 2) if _totient(d) <= 16])
    def test_cyclotomic(self, d):
        _check_against_oracle(cyclotomic(d))

    @pytest.mark.parametrize("f", CURATED, ids=str)
    def test_curated_companion_polys(self, f):
        _check_against_oracle(f)

    @pytest.mark.parametrize("d", [d for d in range(2, 51) if _squarefree(d)])
    def test_real_quadratic(self, d):
        _check_against_oracle(IntPoly((-d, 0, 1)))

    @pytest.mark.parametrize(
        "coeffs",
        [(5, -10, 9, -4, 1), (109, -126, 57, -12, 1), (8, -14, 11, -4, 1), (128, -138, 59, -12, 1)],
    )
    def test_pairs_with_equal_real_parts(self, coeffs):
        # g(X − a) for g = X⁴ + 3X² + 1 or X⁴ + 5X² + 2 and a = 1, 3: two
        # conjugate pairs share the real part a, so imaginary parts order them
        _check_against_oracle(IntPoly(coeffs))

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_irreducible(self, low):
        f = IntPoly((*low, 1))
        assume(is_irreducible(f))
        _check_against_oracle(f)


class TestPolishFailures:
    def test_coincident_starts_raise(self, monkeypatch):
        monkeypatch.setattr(numfield, "_start_roots", lambda f: [complex(0.5, 0.5)] * f.degree)
        with pytest.raises(PrecisionError, match="coincide"):
            cyclotomic_field(5).embeddings

    def test_non_finite_start_raises(self, monkeypatch):
        monkeypatch.setattr(numfield, "_start_roots", lambda f: [complex("nan")] * f.degree)
        with pytest.raises(PrecisionError, match="not finite"):
            cyclotomic_field(5).embeddings

    def test_polish_without_convergence_raises(self, monkeypatch):
        # one Newton step from a double-precision start leaves a correction
        # near 2^-50, far above the stopping threshold
        monkeypatch.setattr(numfield, "MAX_POLISH_STEPS", 1)
        with pytest.raises(PrecisionError, match="did not converge"):
            fixed_point_roots(cyclotomic(5))

    def test_units_exits_3_without_a_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(numfield, "_start_roots", lambda f: [complex(0.5, 0.5)] * f.degree)
        assert main(["units", "--zeta", "5"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("undecided at working precision:")
        assert "Traceback" not in out.err
