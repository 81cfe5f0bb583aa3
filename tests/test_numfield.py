import itertools
from math import gcd

import mpmath
import pytest
import sympy.polys.factortools
from sympy.polys.domains import ZZ
from fractions import Fraction

from anosov import intpoly, numfield
from anosov.intpoly import IntPoly, cyclotomic, factor_over_Q, real_root_count, totient
from anosov.numfield import (
    FieldError,
    UnsupportedFieldError,
    _cyclotomic_units,
    companion_matrix,
    cyclotomic_field,
    hyperbolic_companion_poly,
    make_field,
    make_unit,
    max_hyperbolicity_bound,
    max_norm_shell,
    search_c_hyperbolic_unit,
    squarefree_kernel,
    unit_generators_for_field,
)
from anosov.hyper import FOUND, is_c_hyperbolic_poly, unit_circle_root_test
from anosov.ratmat import matrix_min_poly

from conftest import hand_built_field

SQRT2 = IntPoly((-2, 0, 1))
GOLDEN = IntPoly((-1, -1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))


def _oracle_signature(f: IntPoly):
    """(s, t) by Zassenhaus factoring and counting real roots, or None when f
    is reducible."""
    _, factors = sympy.polys.factortools.dup_factor_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    if len(factors) != 1 or factors[0][1] != 1:
        return None
    s = real_root_count(f)
    return s, (f.degree - s) // 2


def _refuse_factoring(monkeypatch):
    """Makes sympy's Zassenhaus factorization and the Sturm sequence, which
    real_root_count builds, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("factored or root-counted")

    monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", refuse)
    monkeypatch.setattr(intpoly, "_sturm_chain", refuse)


def _signature_or_none(f: IntPoly):
    try:
        return make_field(f).signature
    except FieldError:
        return None


class TestMakeField:
    def test_signatures(self):
        assert make_field(SQRT2).signature == (2, 0)
        assert make_field(IntPoly((2, 0, 1))).signature == (0, 1)
        assert make_field(IntPoly((-3, 1))).signature == (1, 0)
        assert make_field(cyclotomic(5)).signature == (0, 2)
        with pytest.raises(UnsupportedFieldError, match="degree-3 field"):
            make_field(PLASTIC)

    def test_reducible_rejected(self):
        with pytest.raises(FieldError):
            make_field(IntPoly((-1, 0, 1)))  # X^2 - 1

    def test_quadratics_in_closed_form(self, monkeypatch):
        """Every monic X + c and X² + bX + c with |b|, |c| ≤ 20: make_field's
        discriminant test and signature agree with factoring and
        counting real roots, and make_field runs with both made to raise."""
        polys = [IntPoly((c, 1)) for c in range(-20, 21)]
        polys += [IntPoly((c, b, 1)) for b in range(-20, 21) for c in range(-20, 21)]
        expected = {f: _oracle_signature(f) for f in polys}
        assert set(expected.values()) == {None, (1, 0), (2, 0), (0, 1)}
        _refuse_factoring(monkeypatch)
        assert {f: _signature_or_none(f) for f in polys} == expected

    def test_cyclotomic_signature_in_closed_form(self, monkeypatch):
        """For every Φ_d of degree φ(d) ≤ 16, the closed form (irreducible,
        signature (1, 0) for d ≤ 2 and (0, φ(d)/2) otherwise) agrees with
        factoring and counting real roots, which make_field does not call."""
        # φ(d) ≥ √(d/2) bounds d by 2·16²
        indices = [d for d in range(1, 2 * 16 * 16 + 2) if totient(d) <= 16]
        expected = {d: _oracle_signature(cyclotomic(d)) for d in indices}
        _refuse_factoring(monkeypatch)
        assert {d: make_field(cyclotomic(d)).signature for d in indices} == expected

    @pytest.mark.parametrize("f", [PLASTIC, IntPoly((-1, 0, 0, 1)), IntPoly((4, 0, 0, 0, 1))], ids=str)
    def test_other_shapes_refused_before_factoring(self, f, monkeypatch):
        # irreducible X³ − X − 1, and X³ − 1 and X⁴ + 4, which are reducible
        _refuse_factoring(monkeypatch)
        with pytest.raises(UnsupportedFieldError, match=f"no unit-generator source for degree-{f.degree}"):
            make_field(f)

    def test_embeddings_come_in_conjugate_pairs(self):
        field = make_field(cyclotomic(5))
        for j in range(field.t_pairs):
            x, y = field.fixed_embeddings[field.s_real + 2 * j]
            assert y > 0 and field.fixed_embeddings[field.s_real + 2 * j + 1] == (x, -y)

    def test_hyperbolicity_ceilings(self):
        assert max_hyperbolicity_bound(make_field(SQRT2)) == 1
        assert max_hyperbolicity_bound(make_field(cyclotomic(5))) == 1
        assert max_hyperbolicity_bound(hand_built_field(PLASTIC)) == 2


class TestLazyEmbeddings:
    def test_exact_steps_find_no_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("roots found before a log vector is read")

        roots = numfield.closed_form_embeddings
        monkeypatch.setattr(numfield, "closed_form_embeddings", refuse)
        imaginary = make_field(IntPoly((2, 0, 1)))
        assert imaginary.signature == (0, 1)
        assert max_hyperbolicity_bound(imaginary) == 0
        golden = make_field(GOLDEN)
        (phi,) = unit_generators_for_field(golden)
        zeta8 = cyclotomic_field(8)
        (unit,) = unit_generators_for_field(zeta8)
        assert unit.coords == (1, 1, 1, 0)

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return roots(*args, **kwargs)

        monkeypatch.setattr(numfield, "closed_form_embeddings", counting)
        for u in (phi, make_unit(golden, phi.matrix @ phi.matrix), phi):
            assert len(u.log_vector) == 2
        assert len(calls) == 1
        for u in (unit, make_unit(zeta8, unit.matrix.inverse()), unit):
            assert len(u.log_vector) == 2
        assert len(calls) == 2


def _units(name):
    if name == "plastic":
        field = hand_built_field(PLASTIC)
        return [make_unit(field, field.theta)]
    if name == "silver_in_zeta8":
        # 1 + ζ − ζ³ = 1 + √2: degree 2 in a degree-4 field, so its
        # characteristic polynomial is the square of its minimal polynomial
        field = cyclotomic_field(8)
        return [make_unit(field, field.mult_matrix((1, 1, 0, -1)))]
    if name.startswith("zeta"):
        return unit_generators_for_field(cyclotomic_field(int(name[4:])))
    return unit_generators_for_field(make_field(IntPoly((-int(name[4:]), 0, 1))))


def test_squarefree_kernel_matches_factorint():
    # the d with n = d·t², d squarefree, from sympy's factorization
    for n in range(1, 10**4 + 1):
        d = 1
        for p, e in sympy.factorint(n).items():
            if e % 2:
                d *= int(p)
        assert squarefree_kernel(n) == d, n


class TestMinimalPolynomials:
    @pytest.mark.parametrize(
        "name",
        [f"zeta{d}" for d in (5, 7, 8, 10, 12, 15)] + [f"sqrt{d}" for d in (2, 3, 5, 7, 13)]
        + ["plastic", "silver_in_zeta8"],
    )
    def test_squarefree_char_poly_is_the_krylov_min_poly(self, name):
        units = _units(name)
        assert units
        for unit in units:
            assert unit.min_poly() == IntPoly.from_rationals(matrix_min_poly(unit.matrix))

    @pytest.mark.parametrize("d", (5, 7, 8, 9, 10, 12, 15, 18))
    def test_cyclotomic_units_are_geometric_sums(self, d):
        # 1 + ζ + … + ζ^(a−1): mult_matrix((1,) * a), or at ζ = θ² for d ≡ 2 mod 4
        field = cyclotomic_field(d)
        d0, step = (d // 2, 2) if d % 4 == 2 else (d, 1)
        expected = [
            field.mult_matrix(tuple(int(i % step == 0) for i in range(step * (a - 1) + 1)))
            for a in range(2, (d0 + 1) // 2)
            if gcd(a, d0) == 1
        ]
        assert expected and [u.matrix for u in _cyclotomic_units(field, d)] == expected


class TestElementsAsMatrices:
    def test_theta_is_the_companion_matrix(self):
        field = hand_built_field(PLASTIC)
        assert field.theta == companion_matrix(PLASTIC)
        assert field.mult_matrix((0, 1, 0)) == field.theta

    def test_coordinates_are_column_zero(self):
        field = hand_built_field(PLASTIC)
        coords = (Fraction(1, 2), Fraction(-3), Fraction(2, 7))
        m = field.mult_matrix(coords)
        assert m.column(0) == coords
        # column j is the image of theta^j
        assert m.column(1) == (m @ field.theta).column(0)

    def test_products_commute_and_multiply_coordinates(self):
        field = make_field(cyclotomic(8))
        a, b = field.mult_matrix((1, 2, 0, -1)), field.mult_matrix((0, 1, 1, 3))
        assert a @ b == b @ a
        assert field.mult_matrix((a @ b).column(0)) == a @ b


class TestMaxNormShell:
    @pytest.mark.parametrize("dim", range(1, 6))
    @pytest.mark.parametrize("h", range(5))
    def test_equals_the_filtered_cube(self, dim, h):
        cube = itertools.product(range(h, -h - 1, -1), repeat=dim)
        assert list(max_norm_shell(dim, h)) == [v for v in cube if max(map(abs, v)) == h]


class TestLogEmbedding:
    def test_one_maps_to_zero(self):
        field = make_field(SQRT2)
        unit = make_unit(field, field.mult_matrix((Fraction(1), Fraction(0))))
        assert all(abs(v) < 1e-30 for v in unit.log_vector)

    def test_silver_unit_logs(self):
        field = make_field(SQRT2)
        unit = make_unit(field, field.mult_matrix((Fraction(1), Fraction(1))))  # 1 + sqrt(2)
        logs = sorted(float(v) for v in unit.log_vector)
        assert logs[1] == pytest.approx(float(mpmath.log(1 + mpmath.sqrt(2))), abs=1e-12)
        assert abs(sum(logs)) < 1e-25  # norm is -1

    def test_weighted_sum_vanishes_mixed_signature(self):
        # a unit has |norm| 1, so its log vector sums to 0 with weight 1 per
        # real slot and 2 per conjugate pair; no supported field mixes the
        # two, so each weight is checked on a field of its own
        (eps,) = unit_generators_for_field(make_field(IntPoly((-13, 0, 1))))
        x = [float(v) for v in eps.log_vector]
        assert x[1] == pytest.approx(float(mpmath.log((3 + mpmath.sqrt(13)) / 2)), abs=1e-12)
        assert x[0] + x[1] == pytest.approx(0.0, abs=1e-25)
        # 1 + ζ at ζ7^k, k = 3, 2, 1, has modulus 2·cos(πk/7)
        one_plus_zeta = unit_generators_for_field(cyclotomic_field(7))[0]
        x = [float(v) for v in one_plus_zeta.log_vector]
        assert x[2] == pytest.approx(float(mpmath.log(2 * mpmath.cospi(mpmath.mpf(1) / 7))), abs=1e-12)
        assert 2 * (x[0] + x[1] + x[2]) == pytest.approx(0.0, abs=1e-25)


def _fundamental_unit(d: int):
    (unit,) = unit_generators_for_field(make_field(IntPoly((-d, 0, 1))))
    return unit


class TestFundamentalUnits:
    def test_sqrt2(self):
        assert _fundamental_unit(2).coords == (1, 1)

    def test_sqrt3(self):
        assert _fundamental_unit(3).coords == (2, 1)

    def test_sqrt5_half_integer(self):
        assert _fundamental_unit(5).coords == (Fraction(1, 2), Fraction(1, 2))

    def test_norms_are_units(self):
        for d in (2, 3, 5, 7, 13):
            unit = _fundamental_unit(d)
            mp = unit.min_poly()
            assert mp.is_monic and abs(mp.coeffs[0]) == 1

    def test_radicand_reaches_its_squarefree_kernel(self):
        # 1 + √2 = 1 + θ/2 in Q[X]/(X² − 8), and 2 + √3 = 2 + θ/2 in
        # Q[X]/(X² − 12)
        assert _fundamental_unit(8).coords == (1, Fraction(1, 2))
        assert _fundamental_unit(12).coords == (2, Fraction(1, 2))


class TestCyclotomicUnits:
    def test_zeta5_unit_is_golden_shaped(self):
        (unit,) = unit_generators_for_field(cyclotomic_field(5))
        assert unit.coords == (1, 1, 0, 0)  # 1 + zeta
        moduli = sorted(abs(float(v)) for v in unit.log_vector)
        golden = float(mpmath.log((1 + mpmath.sqrt(5)) / 2))
        assert moduli[0] == pytest.approx(golden, abs=1e-12)

    def test_zeta8_unit(self):
        units = unit_generators_for_field(cyclotomic_field(8))
        first = units[0]
        assert first.coords == (1, 1, 1, 0)
        assert abs(first.min_poly().coeffs[0]) == 1

    def test_geometric_ratio_identity(self):
        # (1 - zeta^2) / (1 - zeta) = 1 + zeta, exactly
        field = cyclotomic_field(5)
        one_minus_z2 = field.mult_matrix((1, 0, -1, 0))
        one_minus_z = field.mult_matrix((1, -1, 0, 0))
        ratio = one_minus_z2 @ one_minus_z.inverse()
        assert ratio == field.mult_matrix((1, 1, 0, 0))
        assert ratio.column(0) == (1, 1, 0, 0)


class TestHyperbolicUnitSearch:
    def test_sqrt2_at_max(self):
        field = make_field(SQRT2)
        outcome = search_c_hyperbolic_unit(field, unit_generators_for_field(field), 1, 12)
        assert outcome.found and outcome.unit.coords == (1, 1)
        assert outcome.report.verdict

    def test_sqrt2_beyond_max(self):
        field = make_field(SQRT2)
        outcome = search_c_hyperbolic_unit(field, unit_generators_for_field(field), 2, 12)
        assert not outcome.found and outcome.reason == "theoretical-bound"

    def test_zeta5_at_max(self):
        field = cyclotomic_field(5)
        outcome = search_c_hyperbolic_unit(field, unit_generators_for_field(field), 1, 12)
        assert outcome.found and outcome.unit.coords == (1, 1, 0, 0)

    def test_zeta5_beyond_max(self):
        field = cyclotomic_field(5)
        outcome = search_c_hyperbolic_unit(field, unit_generators_for_field(field), 2, 12)
        assert not outcome.found

    def test_rank_zero_field(self):
        field = cyclotomic_field(4)
        assert unit_generators_for_field(field) == []
        assert not search_c_hyperbolic_unit(field, [], 1, 12).found

    def test_found_units_certify(self):
        field = cyclotomic_field(7)
        outcome = search_c_hyperbolic_unit(field, unit_generators_for_field(field), 2, 8)
        assert outcome.found
        assert is_c_hyperbolic_poly(outcome.unit.min_poly(), 2).verdict


class TestSupportedFieldShapes:
    def test_shifted_quadratic_presentation(self):
        field = make_field(IntPoly((1, -3, 1)))  # disc 5, theta = golden^2-ish
        (gen,) = unit_generators_for_field(field)
        mp = gen.min_poly()
        assert abs(mp.coeffs[0]) == 1

    def test_phi10_presentation_reaches_level_5_units(self):
        field = make_field(cyclotomic(10))
        gens = unit_generators_for_field(field)
        assert gens and all(abs(g.min_poly().coeffs[0]) == 1 for g in gens)


class TestCompanionPolys:
    def test_curated_family(self):
        assert hyperbolic_companion_poly(2, 1) == IntPoly((1, -3, 1))
        assert hyperbolic_companion_poly(3, 2) == PLASTIC
        assert hyperbolic_companion_poly(4, 3) == IntPoly((-1, 0, 0, -1, 1))

    def test_impossible_degrees_refused(self):
        assert hyperbolic_companion_poly(2, 2) is None
        assert hyperbolic_companion_poly(1, 1) is None

    def test_certified_at_requested_level(self):
        for m, c in ((2, 1), (3, 2), (4, 3)):
            f = hyperbolic_companion_poly(m, c)
            assert is_c_hyperbolic_poly(f, c).verdict and abs(f.coeffs[0]) == 1

    @pytest.mark.parametrize("m", range(2, 7))
    def test_three_distinct_alternatives(self, m):
        """Every c < m is reached: the curated list holds three certified
        polynomials, and the first is the one returned."""
        for c in range(1, m):
            polys = [f for f in numfield._curated_degree_polys(m) if is_c_hyperbolic_poly(f, c).verdict]
            assert len(set(polys)) >= 3
            assert hyperbolic_companion_poly(m, c) == polys[0]
            f = polys[0]
            assert f.degree == m and f.is_monic and abs(f.coeffs[0]) == 1

    def test_reducible_curated_polys_touch_the_unit_circle(self):
        """hyperbolic_companion_poly proves no irreducibility: each reducible
        curated candidate with constant ±1 has a root on the unit circle, so
        no c-hyperbolicity test passes it and the selection is unchanged."""
        reducible = [
            f for m in range(2, 13) for f in numfield._curated_degree_polys(m) if factor_over_Q(f) != [(f, 1)]
        ]
        assert {f.degree for f in reducible} == {5, 11}  # X^m − X^{m−1} − 1 for m ≡ 5 mod 6
        for f in reducible:
            assert unit_circle_root_test(f).status == FOUND, f

    @pytest.mark.parametrize("m", range(2, 13))
    def test_curated_polys_are_monic_units(self, m):
        # so that every companion matrix has determinant ±1
        for f in numfield._curated_degree_polys(m):
            assert f.degree == m and f.is_monic and abs(f.coeffs[0]) == 1, f

    def test_rouche_family_follows_the_first_hits(self):
        assert hyperbolic_companion_poly(5, 1) == IntPoly((-1, -1, 0, 0, 0, 1))  # X^5 - X - 1
