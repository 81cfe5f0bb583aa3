import functools
from collections import Counter
from math import comb, gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.abc import x as _X, y as _Y
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

import anosov.intpoly
import anosov.repdec
from anosov.decider import decide, decide_with_witness, no_certificate_search
from anosov.fingrp import group_rep_from_json_obj
from anosov.intpoly import (
    IntPoly,
    ZeroPolynomialError,
    cyclotomic,
    divides,
    eig_product_poly,
    factor_over_Q,
    poly_gcd,
    real_root_count,
    reversal,
    squarefree_part,
)
from conftest import benchmark_cases, k_fold_products, roots_of

X_MINUS_1 = IntPoly((-1, 1))
GOLDEN = IntPoly((-1, -1, 1))  # X^2 - X - 1


# -- oracles: the same operations through sympy's Poly wrapper layer ----------


def _to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), _X, domain=sympy.ZZ)


def _from_sympy(p):
    return IntPoly(tuple(int(c) for c in reversed(p.all_coeffs())))


def factor_oracle(f):
    _, factors = _to_sympy(f).factor_list()
    return [(_from_sympy(p), int(m)) for p, m in factors]


def gcd_oracle(f, g):
    h = sympy.gcd(_to_sympy(f), _to_sympy(g))
    return _from_sympy(sympy.Poly(h, _X)).primitive_part()


def squarefree_oracle(f):
    if f.degree == 0:
        return IntPoly((1,))
    g = gcd_oracle(f, f.derivative())
    q, r = sympy.div(_to_sympy(f), _to_sympy(g), _X)
    assert r.is_zero
    return _from_sympy(sympy.Poly(q, _X)).primitive_part()


def divides_oracle(f, g):
    if f.is_zero:
        return g.is_zero
    _, r = sympy.div(_to_sympy(g), _to_sympy(f), _X)
    return r.is_zero


def sturm_count_oracle(f, lo=None, hi=None):
    return int(_to_sympy(f).count_roots(lo, hi))


def composed_product_oracle(p, q):
    """Res_y(p(y), y^{deg q}·q(X/y)): the polynomial whose roots are the
    products α·β of a root of p and a root of q (q(0) != 0), primitive with
    positive leading coefficient."""
    py = sympy.Poly(list(reversed(p.coeffs)), _Y, domain=sympy.ZZ)
    qxy = sum(int(c) * _X**j * _Y ** (q.degree - j) for j, c in enumerate(q.coeffs))
    return _from_sympy(sympy.Poly(sympy.resultant(py.as_expr(), qxy, _Y), _X)).primitive_part()


def eig_product_oracle(f, k):
    """k-fold products by iterated resultants, with full multiplicities."""
    h = f
    for _ in range(k - 1):
        h = composed_product_oracle(h, f)
    return h


def dense_factor_oracle(f):
    """dup_factor_list on every input, the route before the closed forms."""
    _, factors = dup_factor_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    return [(IntPoly(tuple(int(c) for c in reversed(p))), m) for p, m in factors]


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(lambda c: IntPoly(tuple(c)))
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)
low_coeffs = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))
linears = st.builds(lambda q, p: IntPoly((q, p)), low_coeffs, low_coeffs.filter(bool))
quadratics = st.one_of(
    # a random discriminant is almost never a square
    st.builds(lambda c, b, a: IntPoly((c, b, a)), low_coeffs, low_coeffs, low_coeffs.filter(bool)),
    st.builds(lambda u, v: u * v, linears, linears),  # a square discriminant
    linears.map(lambda u: u * u),  # a zero discriminant
)


def _from_roots(roots) -> IntPoly:
    f = IntPoly((1,))
    for r in roots:
        f = f * IntPoly((-r, 1))
    return f


irreducible_tails = st.one_of(
    st.just(IntPoly((1,))),
    st.lists(st.integers(-9, 9), min_size=2, max_size=3)
    .map(lambda c: IntPoly((*c, 1)))
    .filter(lambda q: _to_sympy(q).is_irreducible),
)


@st.composite
def split_products(draw):
    """Monic linear factors with random and repeated integer roots, times
    X^k, times an irreducible quadratic or cubic or nothing."""
    roots = draw(st.lists(st.integers(-40, 40), max_size=5))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=3))
    power_of_x = IntPoly((0,) * draw(st.integers(0, 3)) + (1,))
    return _from_roots(roots) * power_of_x * draw(irreducible_tails)


# a sign, a content, and a non-monic factor of degree one or two
non_monic = st.builds(
    lambda f, g, k: (f * g).scale(k),
    split_products(),
    st.sampled_from([IntPoly((1,)), IntPoly((1, 2)), IntPoly((-3, 5)), IntPoly((1, 0, 3))]),
    st.sampled_from([1, -1, 2, -6]),
)
# constant terms up to 10^40 at degree three or more: a random one, and one
# that is a product of large integer roots
large_constants = st.one_of(
    st.builds(
        lambda c, middle: IntPoly((c, *middle, 1)),
        st.integers(-(10**40), 10**40).filter(bool),
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    ),
    st.builds(
        lambda roots, f: _from_roots(roots) * f,
        st.lists(st.integers(-(10**13), 10**13), min_size=1, max_size=3),
        split_products(),
    ).filter(lambda f: f.degree >= 3),
)


class TestDenseKernelsMatchPolyOracle:
    """The dense ZZ routes against the same questions asked through Poly."""

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=80, deadline=None)
    def test_gcd(self, a, b, common):
        # a shared factor makes most gcds nontrivial
        assert poly_gcd(a * common, b * common) == gcd_oracle(a * common, b * common)
        assert poly_gcd(a, b) == gcd_oracle(a, b)

    @given(nonzero_polys, nonzero_polys, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_part(self, a, b, power):
        f = a**power * b
        assert squarefree_part(f) == squarefree_oracle(f)

    @given(nonzero_polys, small_polys, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_divides(self, f, g, multiple):
        if multiple:
            g = g * f.scale(3)  # a non-primitive multiple
        assert divides(f, g) == divides_oracle(f, g)
        assert divides(f.scale(-2), g) == divides_oracle(f.scale(-2), g)

    @given(nonzero_polys, nonzero_polys, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_factor_over_Q(self, a, b, power):
        # factors and multiplicities, in order
        f = a**power * b
        assert factor_over_Q(f) == factor_oracle(f)

    @given(st.one_of(linears, quadratics), st.integers(-12, 12).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_factor_over_Q_degree_at_most_two(self, f, content):
        # factors, multiplicities and normal form, with content > 1 and
        # negative leading coefficients
        for g in (f, f.scale(content)):
            assert factor_over_Q(g) == dense_factor_oracle(g)

    @given(st.one_of(split_products(), non_monic, large_constants))
    @settings(max_examples=200, deadline=None)
    def test_factor_over_Q_closed_forms(self, f):
        # factors, multiplicities and order on the inputs the closed forms
        # take, and on those they hand to Zassenhaus
        assert factor_over_Q(f) == factor_oracle(f)

    @given(nonzero_polys, nonzero_polys, st.integers(1, 3), st.integers(-3, 3), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_sturm_count(self, a, b, power, lo, width):
        f = a**power * b
        assert real_root_count(f, -2, 2) == sturm_count_oracle(f, -2, 2)
        assert real_root_count(f) == sturm_count_oracle(f)
        # bounds on integer roots of g: the interval is closed at both ends
        hi = lo + width
        g = f * IntPoly((-lo, 1)) * IntPoly((-hi, 1))
        assert real_root_count(g, lo, hi) == sturm_count_oracle(g, lo, hi)
        assert real_root_count(g, lo, lo) == sturm_count_oracle(g, lo, lo) == 1

    def test_cyclotomic_to_60(self):
        for d in range(1, 61):
            assert cyclotomic(d) == _from_sympy(sympy.Poly(sympy.cyclotomic_poly(d, _X), _X))

    def test_factor_over_Q_of_cyclotomics_to_60(self, monkeypatch):
        # each Φ_d as Zassenhaus factors it, with Zassenhaus never called;
        # a product of two is not cyclotomic and still goes to Zassenhaus
        expected = {d: dense_factor_oracle(cyclotomic(d)) for d in range(1, 61)}
        products = [cyclotomic(d) * cyclotomic(e) for d in (5, 8, 12) for e in (7, 9, 10)]
        product_factors = [dense_factor_oracle(f) for f in products]
        zassenhaus = []
        monkeypatch.setattr(
            "sympy.polys.factortools.dup_factor_list", lambda *args: zassenhaus.append(args) or dup_factor_list(*args)
        )
        assert {d: factor_over_Q(cyclotomic(d)) for d in range(1, 61)} == expected
        assert zassenhaus == []
        assert [factor_over_Q(f) for f in products] == product_factors
        assert len(zassenhaus) == len(products)


# products of two random irreducibles of degree 3–8, some not monic, or
# cyclotomic polynomials
random_irreducibles = (
    st.lists(st.integers(-9, 9), min_size=3, max_size=8)
    .flatmap(lambda c: st.sampled_from([1, 2, -3]).map(lambda lead: IntPoly((*c, lead))))
    .filter(lambda q: q.coeffs[0] != 0 and _to_sympy(q).is_irreducible)
)
sieve_inputs = st.lists(
    st.one_of(random_irreducibles, st.integers(3, 20).map(cyclotomic)), min_size=1, max_size=2
).map(lambda fs: functools.reduce(IntPoly.__mul__, fs))


class TestDegreeSieve:
    """The degree sieve of factor_over_Q against Zassenhaus and against
    sympy's factorization modulo p."""

    @given(sieve_inputs)
    @settings(max_examples=80, deadline=None)
    def test_factorizations_agree_with_zassenhaus(self, f):
        expected = dense_factor_oracle(f)
        assert factor_over_Q(f) == expected
        if anosov.intpoly._irreducible_by_degrees(f.primitive_part()):
            assert expected == [(f.primitive_part(), 1)]

    @given(random_irreducibles, st.sampled_from(anosov.intpoly.SIEVE_PRIMES))
    @settings(max_examples=150, deadline=None)
    def test_degrees_mod_p_agree_with_sympy(self, f, p):
        n = f.degree
        factors = sympy.Poly(list(reversed(f.coeffs)), _X, modulus=p).factor_list()[1]
        if f.leading % p == 0 or any(m > 1 for _, m in factors):
            expected = (2 << n) - 1  # no information
        else:
            expected = functools.reduce(lambda sums, q: sums | sums << q[0].degree(), factors, 1)
        assert anosov.intpoly._factor_degree_sums(list(f.coeffs), p) == expected

    @pytest.mark.parametrize(
        "f",
        [
            IntPoly((1, 0, -10, 0, 1)),  # √2 + √3, Galois group V4: no 4-cycle
            IntPoly((576, 0, -960, 0, 352, 0, -40, 0, 1)),  # √2 + √3 + √5, Swinnerton-Dyer
        ],
        ids=["x4-10x2+1", "swinnerton-dyer-3"],
    )
    def test_irreducibles_that_split_modulo_every_prime_fall_back(self, f, monkeypatch):
        zassenhaus = []
        monkeypatch.setattr(
            "sympy.polys.factortools.dup_factor_list", lambda *args: zassenhaus.append(args) or dup_factor_list(*args)
        )
        assert not anosov.intpoly._irreducible_by_degrees(f)
        assert factor_over_Q(f) == [(f, 1)]
        assert len(zassenhaus) == 1

    def test_dense_c5_quartic_proved_at_the_first_prime(self, monkeypatch):
        calls = []
        sums = anosov.intpoly._factor_degree_sums
        monkeypatch.setattr(anosov.intpoly, "_factor_degree_sums", lambda a, p: calls.append(p) or sums(a, p))
        assert anosov.intpoly._irreducible_by_degrees(IntPoly((1, -2, 4, -3, 1)))
        assert calls == [2]


class TestPrimitiveRemainderFallback:
    """The heuristic gcd given no evaluation point: every gcd then comes from
    the primitive remainder sequence, and the results stay the oracles'."""

    @given(nonzero_polys, nonzero_polys, nonzero_polys, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracles(self, a, b, common, power):
        f = a**power * b
        fallbacks = []
        prs_gcd = anosov.intpoly._prs_gcd
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anosov.intpoly, "HEU_GCD_ATTEMPTS", 0)
            mp.setattr(anosov.intpoly, "_prs_gcd", lambda *args: fallbacks.append(args) or prs_gcd(*args))
            assert poly_gcd(a * common, b * common) == gcd_oracle(a * common, b * common)
            assert squarefree_part(f) == squarefree_oracle(f)
            assert divides(a, f) == divides_oracle(a, f)
            assert divides(common, f) == divides_oracle(common, f)
        # a gcd of two polynomials of degree one or more took the fallback
        assert fallbacks or min((a * common).degree, (b * common).degree) < 1 and f.degree < 2


class TestFactor:
    def test_x4_minus_1(self):
        factors = {f: m for f, m in factor_over_Q(IntPoly((-1, 0, 0, 0, 1)))}
        assert factors == {
            IntPoly((-1, 1)): 1,
            IntPoly((1, 1)): 1,
            IntPoly((1, 0, 1)): 1,
        }

    def test_golden_irreducible(self):
        assert factor_over_Q(GOLDEN) == [(GOLDEN, 1)]

    def test_perfect_square(self):
        sq = IntPoly((1, 0, 1)) * IntPoly((1, 0, 1))
        assert factor_over_Q(sq) == [(IntPoly((1, 0, 1)), 2)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            factor_over_Q(IntPoly(()))

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, coeffs):
        f = IntPoly(tuple(coeffs))
        if f.is_zero:
            return
        product = IntPoly((1,))
        for factor, mult in factor_over_Q(f):
            assert factor.leading > 0
            assert gcd(*factor.coeffs) == 1 or factor.degree == 0
            product = product * factor**mult
        if f.degree >= 1:
            assert product.primitive_part() == f.primitive_part()


def test_corpus_decides_factor_in_closed_form(monkeypatch):
    """Every case of the benchmark's full corpus, at seeds 0, 1, 2 and 17,
    never calls Zassenhaus, and takes every closed form: the power of X,
    integer roots, quadratics with and without a square discriminant, and
    residuals that the degree sieve proves irreducible."""
    zassenhaus, branches = [], Counter()
    monkeypatch.setattr(
        "sympy.polys.factortools.dup_factor_list", lambda *args: zassenhaus.append(args) or dup_factor_list(*args)
    )
    factor, split, quadratic = factor_over_Q, anosov.intpoly._split_integer_roots, anosov.intpoly._factor_quadratic
    sieve = anosov.intpoly._irreducible_by_degrees

    def counted_factor(f):
        branches["power of X"] += f.coeffs[0] == 0
        return factor(f)

    def counted_split(g, factors):
        before = len(factors)
        residual = split(g, factors)
        branches["integer roots"] += len(factors) > before
        return residual

    def counted_quadratic(g):
        out = quadratic(g)
        if g.degree == 2:
            branches["square" if all(p.degree == 1 for p, _ in out) else "irreducible quadratic"] += 1
        return out

    def counted_sieve(g):
        proved = sieve(g)
        branches["degree sieve"] += proved
        return proved

    monkeypatch.setattr(anosov.repdec, "factor_over_Q", counted_factor)
    monkeypatch.setattr(anosov.intpoly, "_split_integer_roots", counted_split)
    monkeypatch.setattr(anosov.intpoly, "_factor_quadratic", counted_quadratic)
    monkeypatch.setattr(anosov.intpoly, "_irreducible_by_degrees", counted_sieve)
    cases = benchmark_cases()
    for case in [case for make_cases in cases.FULL.values() for case in make_cases()]:
        for seed in (0, 1, 2, 17):
            _, rep, c = group_rep_from_json_obj(case.input_obj(seed))
            if case.command == "witness":
                verdict = decide_with_witness(rep, c)
                assert verdict.witness_status == "attached", (case.case_id, seed)
            elif case.command == "no-cert":
                assert no_certificate_search(rep, c, case.height_bound)["hits"] == 0
                continue
            else:
                verdict = decide(rep, c)
            assert verdict.admits_anosov == case.expected()["verdict"], (case.case_id, seed)
    assert zassenhaus == []
    assert set(+branches) == {
        "power of X", "integer roots", "square", "irreducible quadratic", "degree sieve"
    }, branches


class TestCyclotomic:
    def test_small_indices(self):
        assert cyclotomic(1) == IntPoly((-1, 1))
        assert cyclotomic(4) == IntPoly((1, 0, 1))
        assert cyclotomic(5) == IntPoly((1, 1, 1, 1, 1))

    def test_phi5_quotient_oracle(self):
        x5_minus_1 = IntPoly((-1, 0, 0, 0, 0, 1))
        assert cyclotomic(5) * X_MINUS_1 == x5_minus_1

    @pytest.mark.parametrize("d", range(1, 31))
    def test_divides_xd_minus_1(self, d):
        xd = IntPoly(tuple([-1] + [0] * (d - 1) + [1]))
        assert divides(cyclotomic(d), xd)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestEigProductPoly:
    def test_golden_pairs(self):
        h2 = eig_product_poly(GOLDEN, 2)
        assert divides(IntPoly((1, 1)), h2)  # phi*psi = -1
        assert divides(IntPoly((1, -3, 1)), h2)  # phi^2, psi^2

    def test_single_root_one(self):
        h = eig_product_poly(X_MINUS_1, 3)
        assert squarefree_part(h) == IntPoly((-1, 1))

    def test_gaussian_pairs(self):
        h2 = squarefree_part(eig_product_poly(IntPoly((1, 0, 1)), 2))
        assert divides(IntPoly((1, 1)), h2) and divides(IntPoly((-1, 1)), h2)
        assert h2.degree == 2

    def test_monic_products_stay_monic_up_to_sign(self):
        h = eig_product_poly(GOLDEN, 2)
        assert abs(h.leading) == 1

    def test_high_degree_product(self):
        # X^6 - X^5 - 1 has six distinct roots and no multiplicative
        # relation among them in degree 5: all C(10, 5) products are distinct
        h = eig_product_poly(IntPoly((-1, 0, 0, 0, 0, -1, 1)), 5)
        assert h.degree == 252 and abs(h.leading) == 1 and abs(h.coeffs[0]) == 1
        assert squarefree_part(h).degree == 252

    def test_takes_no_squarefree_part(self):
        # k = 1 returns the input; X^2 + 1 has the 2-fold products -1, 1, -1
        f = IntPoly((1, 0, 1)) ** 2
        assert eig_product_poly(f, 1) is f
        assert eig_product_poly(IntPoly((1, 0, 1)), 2) == IntPoly((1, 1)) ** 2 * IntPoly((-1, 1))

    @given(
        st.lists(st.integers(-5, 5), min_size=2, max_size=5),
        st.integers(1, 3),
        st.integers(1, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_resultant_oracle(self, coeffs, k, power):
        # non-monic inputs and, through the power, repeated roots
        base = IntPoly(tuple(coeffs))
        assume(base.degree >= 1 and base.coeffs[0] != 0)
        f = base**power
        assume(f.degree <= 4)
        h = eig_product_poly(f, k)
        assert h.degree == comb(f.degree + k - 1, k)
        assert squarefree_part(h) == squarefree_part(eig_product_oracle(f, k))

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            eig_product_poly(IntPoly((0, 1)), 2)

    def test_rejects_zero_polynomial_and_k_below_one(self):
        with pytest.raises(ZeroPolynomialError):
            eig_product_poly(IntPoly(()), 2)
        with pytest.raises(ValueError):
            eig_product_poly(GOLDEN, 0)

    def test_brute_force_root_products(self):
        # root multiset of h_k matches all k-fold products of numeric roots
        import random

        rng = random.Random(2024)
        checked = 0
        while checked < 12:
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
            if coeffs[0] == 0:
                continue
            f = IntPoly(tuple(coeffs))
            checked += 1
            base = roots_of(f)
            for k in (1, 2, 3):
                got = roots_of(squarefree_part(eig_product_poly(f, k)))
                expected = set(k_fold_products(base, k))
                for z in got:
                    assert min(abs(complex(z) - w) for w in expected) < 1e-8
                for w in expected:
                    assert min(abs(complex(z) - w) for z in got) < 1e-8


class TestReversal:
    def test_self_reciprocal(self):
        assert reversal(IntPoly((1, -3, 1))) == IntPoly((1, -3, 1))

    def test_golden(self):
        assert reversal(GOLDEN) == IntPoly((1, -1, -1))

    def test_plastic(self):
        assert reversal(IntPoly((-1, -1, 0, 1))) == IntPoly((1, 0, -1, -1))

    def test_rejects_root_at_zero(self):
        with pytest.raises(ValueError):
            reversal(IntPoly((0, 1)))

    def test_unit_circle_prefilter(self):
        # a real polynomial with a unit-circle root shares it with its reversal
        f = cyclotomic(5) * IntPoly((-2, 1))
        fs = squarefree_part(f)
        assert poly_gcd(fs, reversal(fs)).degree >= 1
        # the converse fails: reciprocal Salem-type polynomials survive the
        # filter with no unit-circle roots at all
        g = IntPoly((1, -3, 1))
        assert poly_gcd(g, reversal(g)).degree >= 1
