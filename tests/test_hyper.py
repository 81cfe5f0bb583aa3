import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from anosov import hyper
from anosov.corpus import m_rho3
from anosov.fingrp import multiple
from anosov.freenilp import full_action_hyperbolic
from anosov.hyper import (
    FOUND,
    NONE_CERTIFIED,
    integer_char_poly,
    is_c_hyperbolic_matrix,
    is_c_hyperbolic_poly,
    is_integer_like,
    unit_circle_root_test,
)
from anosov.intpoly import IntPoly, _eig_products, cyclotomic, factor_over_Q, squarefree_part
from anosov.ratmat import RatMatrix
from anosov.repdec import commutant
from anosov.witness import companion_matrix, lattice_search

from conftest import (
    element_matrices,
    k_fold_products,
    loop_only_verdict,
    random_unimodular,
    roots_of,
    sympy_route_report,
)

FIB = RatMatrix.from_rows([[2, 1], [1, 1]])
PLASTIC = IntPoly((-1, -1, 0, 1))  # X^3 - X - 1
SILVER = IntPoly((-1, -2, 1))  # minimal polynomial of 1 + sqrt(2)

# factors for products: palindromic of degree 2 to 6, with roots on and off
# the circle, cyclotomic, and the minimal polynomials of Pisot numbers
PALINDROMIC = st.builds(
    lambda half: IntPoly((*half, *reversed(half[:-1]))),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda h: h[0] != 0),
)
CYCLOTOMIC = st.integers(1, 30).map(cyclotomic)
PISOT = st.sampled_from(
    [
        IntPoly((-1, -1, 1)),  # golden ratio
        SILVER,
        IntPoly((-1, -1, 0, 1)),  # plastic number
        IntPoly((-1, 0, -1, 1)),  # X^3 - X^2 - 1
        IntPoly((-1, -1, -1, 1)),  # tribonacci
        IntPoly((-1, 0, 0, -1, 1)),  # X^4 - X^3 - 1
        IntPoly((1, -3, 1)),  # (3 + sqrt 5)/2, a unit with norm 1
        IntPoly((-1, -3, 1)),  # (3 + sqrt 13)/2
    ]
)


class TestIntegerLike:
    def test_fibonacci_like(self):
        assert is_integer_like(FIB)

    def test_rational_diagonal_rejected(self):
        assert not is_integer_like(RatMatrix.from_rows([["1/2", 0], [0, 2]]))

    def test_plastic_companion(self):
        assert is_integer_like(companion_matrix(PLASTIC))

    def test_det_two_rejected(self):
        assert not is_integer_like(RatMatrix.from_rows([[2, 0], [0, 1]]))


class TestUnitCircleRootTest:
    def test_golden_certified(self):
        assert unit_circle_root_test(IntPoly((-1, -1, 1))).status == NONE_CERTIFIED

    def test_salem_like_certified(self):
        # X^2 - 3X + 1 is palindromic, so it survives the gcd filter; its
        # trace form X - 3 has no root in (-2, 2)
        assert unit_circle_root_test(IntPoly((1, -3, 1))).status == NONE_CERTIFIED

    def test_gaussian_found(self):
        assert unit_circle_root_test(IntPoly((1, 0, 1))).status == FOUND

    def test_rejects_zero_root(self):
        with pytest.raises(ValueError):
            unit_circle_root_test(IntPoly((0, 1)))

    def test_near_circle_real_roots_certified(self):
        # reciprocal quadratic with real roots 1 ± ~2^-50: off the circle by
        # less than any fixed numeric tolerance, decided exactly
        f = IntPoly((2**100, -(2**101 + 1), 2**100))
        assert unit_circle_root_test(f).status == NONE_CERTIFIED

    def test_closer_roots_certified_without_tolerance(self):
        # roots 1 ± ~2^-200 need no tighter tolerance to be separated from
        # the circle; the double root at 1 they approach is found
        f = IntPoly((2**400, -(2**401 + 1), 2**400))
        assert unit_circle_root_test(f).status == NONE_CERTIFIED
        assert unit_circle_root_test(IntPoly((1, -2, 1))).status == FOUND

    def test_lehmer_polynomial_found(self):
        # Lehmer's degree-10 polynomial: one real root ~1.17628 outside, its
        # inverse inside and eight roots on the circle
        lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        assert unit_circle_root_test(lehmer).status == FOUND
        assert not is_c_hyperbolic_poly(lehmer, 1).verdict

    @pytest.mark.parametrize(
        "f",
        [
            IntPoly((-1, 1)) * IntPoly((1, -3, 1)),
            IntPoly((1, 1)) * IntPoly((1, -3, 1)),
            cyclotomic(12),
        ],
        ids=["x-1", "x+1", "phi12"],
    )
    def test_roots_on_circle_found(self, f):
        assert unit_circle_root_test(f).status == FOUND


# irreducible factors, cyclotomic ones among them, for products with multiplicity
SMALL_FACTORS = [
    IntPoly((-1, 1)),  # X − 1
    IntPoly((1, 1)),  # X + 1
    IntPoly((1, 0, 1)),  # X² + 1
    IntPoly((1, -1, 1)),  # X² − X + 1
    IntPoly((1, 1, 1)),  # X² + X + 1
    IntPoly((-2, 1)),  # X − 2
    IntPoly((-1, 2)),  # 2X − 1
    IntPoly((-1, -1, 1)),  # X² − X − 1
    IntPoly((1, -3, 1)),  # X² − 3X + 1
    IntPoly((-2, 0, 1)),  # X² − 2
    PLASTIC,
]

factored_polys = st.lists(
    st.tuples(st.sampled_from(SMALL_FACTORS), st.integers(1, 3)), min_size=1, max_size=3, unique_by=lambda t: t[0]
)


def _product(factors) -> IntPoly:
    f = IntPoly((1,))
    for g, m in factors:
        f = f * g**m
    return f


def brute_force_c_hyperbolic(factors, c) -> bool:
    """No k-fold product of numeric roots, k ≤ c, within 1e-9 of the circle."""
    roots = [z for g, _ in factors for z in roots_of(g)]
    return all(abs(abs(p) - 1) > 1e-9 for k in range(1, c + 1) for p in k_fold_products(roots, k))


class TestNonSquarefreeInput:
    @pytest.mark.parametrize(
        "f",
        [
            IntPoly((1, 0, 1)) ** 2 * IntPoly((-2, 1)),
            IntPoly((1, -1, 1)) ** 3 * IntPoly((1, -3, 1)),
            IntPoly((1, -3, 1)) ** 2 * IntPoly((-1, -1, 1)) ** 3,
        ],
        ids=["gauss2-x-2", "phi6_3-salem", "salem2-golden3"],
    )
    def test_unit_circle_matches_squarefree_part(self, f):
        assert unit_circle_root_test(f) == unit_circle_root_test(squarefree_part(f))

    @given(factored_polys)
    @settings(max_examples=60, deadline=None)
    def test_unit_circle_matches_squarefree_part_random(self, factors):
        f = _product(factors)
        assert unit_circle_root_test(f) == unit_circle_root_test(squarefree_part(f))

    @given(factored_polys, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_poly_verdict_matches_brute_force(self, factors, c):
        f = _product(factors)
        assert is_c_hyperbolic_poly(f, c).verdict == brute_force_c_hyperbolic(factors, c)


class TestVietaClosedForm:
    """The squarefree part's distinct roots multiply to ±a_0/a_n: with
    |a_0| = |a_n| and degree n ≤ c, an n-fold product is on the circle."""

    @given(factored_polys, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_fires_only_on_a_product_on_the_circle(self, factors, c):
        f = _product(factors)
        base = squarefree_part(f)
        report = is_c_hyperbolic_poly(f, c)
        if 1 <= base.degree <= c and abs(base.coeffs[0]) == abs(base.leading):
            assert report.offending_product == {"k": base.degree}
            assert unit_circle_root_test(_eig_products(base, base.degree)).status == FOUND
        assert report.verdict == loop_only_verdict(f, c)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_constant_stays_hyperbolic(self, c):
        assert is_c_hyperbolic_poly(IntPoly((1,)), c).verdict

    def test_unequal_end_coefficients_run_the_loop(self, monkeypatch):
        calls = []
        original = hyper.unit_circle_root_test

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(hyper, "unit_circle_root_test", counting)
        assert is_c_hyperbolic_poly(IntPoly((-2, 1)), 1).verdict
        assert len(calls) == 1

    def test_reports_the_degree_not_the_smallest_k(self):
        # ±i are on the circle already at k = 1; the closed form names their
        # 2-fold product
        f = IntPoly((1, 0, 1))
        assert not loop_only_verdict(f, 1)
        assert is_c_hyperbolic_poly(f, 2).offending_product == {"k": 2}
        assert is_c_hyperbolic_poly(f, 1).offending_product == {"k": 1}


class TestIntegerCharPolyOverDenominator:
    """integer_char_poly on numerators a over d > 1 against the Fraction
    route: RatMatrix.det and char_poly and their denominators."""

    @staticmethod
    def fraction_route(m: RatMatrix):
        coeffs = m.char_poly()
        if abs(m.det()) != 1 or any(x.denominator != 1 for x in coeffs):
            return None
        return IntPoly.from_rationals(coeffs)

    @given(st.integers(2, 4), st.integers(0, 10**6), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_conjugated_unimodular_matches_fraction_route(self, n, seed, q, t):
        # P·U·D·P⁻¹ with U unimodular, D = diag(q, 1/q, 1, …) and P a small
        # integer matrix: det ±1, and a characteristic polynomial that is
        # integral for q = 1 and may not be otherwise; t scales the
        # numerators and the denominator alike, away from lowest terms
        rng = random.Random(seed)
        diag = [Fraction(q), Fraction(1, q)] + [Fraction(1)] * (n - 2)
        d_mat = RatMatrix(n, n, [diag[i] if i == j else Fraction(0) for i in range(n) for j in range(n)])
        p = RatMatrix.zeros(n, n)
        while not p.det():
            p = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        m = p @ random_unimodular(rng, n) @ d_mat @ p.inverse()
        a, d = m.integer_form()
        got = integer_char_poly([x * t for x in a], n, d * t)
        assert got == self.fraction_route(m)
        if q == 1:
            assert got is not None

    @given(st.integers(1, 3), st.sampled_from([2, 3, 4, 6]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_numerators_match_fraction_route(self, n, d, data):
        a = data.draw(st.lists(st.integers(-2 * d, 2 * d), min_size=n * n, max_size=n * n))
        m = RatMatrix.from_integers(n, n, a, d)
        assert integer_char_poly(a, n, d) == self.fraction_route(m)

    def test_unit_determinant_with_a_fractional_coefficient(self):
        # diag(1/2, 2): |det N| = 4 = d², but the trace 5/2 is not integral
        assert integer_char_poly([1, 0, 0, 4], 2, 2) is None
        assert integer_char_poly([2, 0, 0, 2], 2, 2) == IntPoly((1, -2, 1))


def test_exact_path_builds_no_poly_objects(rho3, monkeypatch):
    # the exact layer runs on dense coefficient lists, never on sympy.Poly
    com = commutant(multiple(rho3, 2))

    def refuse(cls, *args, **kwargs):
        raise AssertionError("sympy.Poly built on the exact path")

    monkeypatch.setattr(sympy.Poly, "__new__", refuse)
    with pytest.raises(AssertionError):
        sympy.Poly([1, 0, 1], sympy.Symbol("x"))
    assert is_c_hyperbolic_poly(PLASTIC, 2).verdict
    assert not is_c_hyperbolic_poly(PLASTIC, 3).verdict
    f = IntPoly((1, 0, 1)) ** 2 * IntPoly((1, -3, 1))
    assert factor_over_Q(f) == [(IntPoly((1, -3, 1)), 1), (IntPoly((1, 0, 1)), 2)]
    assert squarefree_part(f) == IntPoly((1, 0, 1)) * IntPoly((1, -3, 1))
    assert lattice_search(com, 2, 1) == (None, 80)


class TestMatrixHyperbolicity:
    def test_fibonacci_boundary(self):
        assert is_c_hyperbolic_matrix(FIB, 1).verdict
        report = is_c_hyperbolic_matrix(FIB, 2)
        assert not report.verdict
        assert report.offending_product == {"k": 2}

    def test_plastic_boundary(self):
        comp = companion_matrix(PLASTIC)
        assert is_c_hyperbolic_matrix(comp, 2).verdict
        report = is_c_hyperbolic_matrix(comp, 3)
        assert not report.verdict and report.offending_product == {"k": 3}

    def test_identity_fails_immediately(self):
        assert not is_c_hyperbolic_matrix(RatMatrix.identity(3), 1).verdict

    def test_monotone_in_c(self):
        comp = companion_matrix(PLASTIC)
        assert is_c_hyperbolic_matrix(comp, 2).verdict
        assert is_c_hyperbolic_matrix(comp, 1).verdict


class TestPolyHyperbolicity:
    def test_silver_unit(self):
        assert is_c_hyperbolic_poly(SILVER, 1).verdict
        assert not is_c_hyperbolic_poly(SILVER, 2).verdict  # norm is -1

    def test_roots_of_unity(self):
        assert not is_c_hyperbolic_poly(cyclotomic(5), 1).verdict

    def test_closed_form_agreement_quadratics(self):
        # X^2 - 3X + 1: roots (3 ± sqrt 5)/2 are off the circle, product is 1
        f = IntPoly((1, -3, 1))
        assert is_c_hyperbolic_poly(f, 1).verdict
        assert not is_c_hyperbolic_poly(f, 2).verdict

    def test_closed_form_agreement_biquadratic(self):
        # X^4 - 3X^2 + 1: roots ±phi, ±1/phi; all off the circle but paired
        # products hit 1 exactly
        f = IntPoly((1, 0, -3, 0, 1))
        assert is_c_hyperbolic_poly(f, 1).verdict
        assert not is_c_hyperbolic_poly(f, 2).verdict

    @given(st.lists(PISOT, min_size=1, max_size=2), st.one_of(st.none(), PALINDROMIC, CYCLOTOMIC), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_sympy_route(self, pisot, other, c):
        # products with repeated factors, coinciding k-fold products and
        # roots on the circle, checked against sympy's kernels
        f = other or IntPoly((1,))
        for g in pisot:
            f = f * g
        assert is_c_hyperbolic_poly(f, c).to_json_obj() == sympy_route_report(f, c)


def test_full_product_blocks_n_hyperbolicity():
    # |det| = 1 forces the n-fold eigenvalue product onto the unit circle
    for mat, n in [
        (FIB, 2),
        (companion_matrix(PLASTIC), 3),
        (companion_matrix(IntPoly((-1, 0, 0, -1, 1))), 4),
    ]:
        assert abs(mat.det()) == 1
        assert not is_c_hyperbolic_matrix(mat, n).verdict


def test_commutant_elements_never_km_hyperbolic():
    # any |det| = 1 matrix commuting with 2·rho3 fails 2-hyperbolicity
    # (the real-component dimension forces the determinant relation)
    rng = random.Random(9)
    rep = m_rho3(2)
    for _ in range(5):
        u = random_unimodular(rng, 2)
        cand = u.kron_identity(2)
        assert all(cand @ img == img @ cand for img in element_matrices(rep))
        assert abs(cand.det()) == 1
        assert not is_c_hyperbolic_matrix(cand, 2).verdict


@pytest.mark.parametrize("seed", range(6))
def test_matrix_route_agrees_with_graded_action_route(seed):
    # for r >= 2 every multidegree of total degree d <= c is carried by a
    # Lyndon word, so the degree-d graded action has every d-fold product of
    # eigenvalues among its eigenvalues: the two routes must agree
    rng = random.Random(seed)
    for r, classes in ((2, (1, 2, 3, 4, 5, 6)), (3, (1, 2, 3, 4))):
        checked = 0
        while checked < 3:
            if checked == 0:
                m = random_unimodular(rng, r)
            else:
                m = RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
                if m.det() == 0:
                    continue
            checked += 1
            for c in classes:
                ok, reports = full_action_hyperbolic(m, c)
                assert is_c_hyperbolic_matrix(m, c).verdict == ok, (m, c)
                assert all(rep["certified_exact"] for rep in reports)
