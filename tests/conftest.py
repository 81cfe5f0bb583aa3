import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.rootisolation import dup_isolate_real_roots
from sympy.polys.sqfreetools import dup_sqf_part

from anosov import corpus
from anosov.fingrp import conjugate_rep, direct_sum, generate_group, natural_rep, rep_from_generator_images
from anosov.hyper import FOUND, _trace_form, unit_circle_root_test
from anosov.intpoly import IntPoly, cyclotomic, cyclotomic_index_of, eig_product_poly, real_root_count, squarefree_part
from anosov.ratmat import Permutation, RatMatrix, perm_matrix
from anosov.repdec import intertwiner_space
from anosov.numfield import MAX_LATTICE_CANDIDATES, NumberFieldCtx, companion_matrix


@pytest.fixture(scope="session")
def d3():
    return corpus.d3_group()


@pytest.fixture(scope="session")
def rho3(d3):
    return corpus.rho3(d3)


@pytest.fixture(scope="session")
def rho1(d3):
    return corpus.rho1(d3)


@pytest.fixture(scope="session")
def rho2(d3):
    return corpus.rho2(d3)


@pytest.fixture(scope="session")
def q8_rep():
    return corpus.q8_rep()


@pytest.fixture(scope="session")
def klein():
    return corpus.klein_rep()


@pytest.fixture(scope="session")
def torus():
    return corpus.torus_rep()


@pytest.fixture(scope="session")
def c4_rep():
    return corpus.c4_rep()


@pytest.fixture(scope="session")
def c5_rep():
    return corpus.c5_rep()


def rotation_rep(d: int):
    """C_d acting on Z[ζ_d] by multiplication by ζ_d: the companion matrix of Φ_d."""
    return natural_rep(generate_group([companion_matrix(cyclotomic(d))]))


def d7_rep():
    """D7 acting on Z[ζ7] with basis 1, ζ, …, ζ^5, generated by
    multiplication by ζ and by the matrix of ζ ↦ ζ^-1. The representation
    is Q-irreducible; its commutant is the cubic field Q(ζ7 + ζ7^-1), which
    is neither quadratic nor cyclotomic, and r = 3."""
    inversion = RatMatrix.from_rows(
        [[int(i == 0 == j) - int(j == 1) + int(j >= 2 and i == 7 - j) for j in range(6)] for i in range(6)]
    )
    return natural_rep(generate_group([companion_matrix(cyclotomic(7)), inversion]))


def random_unimodular(rng: random.Random, n: int, shears: int = 6) -> RatMatrix:
    """Product of elementary shears and swaps: integer matrix with det ±1."""
    m = RatMatrix.identity(n)
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        rows = [list(m.row(r)) for r in range(n)]
        coeff = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + coeff * b for a, b in zip(rows[i], rows[j])]
        m = RatMatrix.from_rows(rows)
        if rng.random() < 0.3:
            rows = [list(m.row(r)) for r in range(n)]
            rows[i], rows[j] = rows[j], rows[i]
            m = RatMatrix.from_rows(rows)
    return m


def dense_basis(rep, k: int):
    """rep after the k-th dense integer change of basis: 3n shears of
    random_unimodular, seeded by k."""
    n = rep.dimension
    return conjugate_rep(rep, random_unimodular(random.Random(k), n, 3 * n))


# Three copies of D3's 2-dim irreducible ρ3 in a dense integer basis, at class
# 2: YES, with the one class (dimension, multiplicity, r) = (2, 3, 1). Its
# splitting meets the 4-dim leaf ρ3 ⊕ ρ3, whose commutant M_2(Q) has no basis
# element, pair sum or random trial with a reducible minimal polynomial.
DENSE_3RHO3 = {
    "generators": [[[0, -1], [1, -1]], [[0, -1], [-1, 0]]],
    "rep_images": [
        [
            [8, 3, -16, -6, -6, -4],
            [111, 115, 282, -72, 32, -62],
            [-45, -47, -118, 29, -14, 25],
            [149, 137, 285, -97, 25, -80],
            [106, 113, 292, -68, 36, -59],
            [-101, -94, -218, 64, -25, 53],
        ],
        [
            [-40, -57, -100, 36, 6, 38],
            [119, 76, 184, -72, 30, -62],
            [-53, -36, -84, 33, -12, 29],
            [40, -43, -23, 2, 45, 18],
            [146, 114, 250, -96, 26, -87],
            [-64, -18, -68, 30, -27, 20],
        ],
    ],
    "class": 2,
}


def q32_rep():
    """The generalized quaternion group of order 32 on Q(ζ16)² ≅ Q^16:
    a ↦ (ζ16, ζ16⁻¹) and b ↦ ((0, −1), (1, 0)). It is Q-irreducible, and its
    commutant, a quaternion algebra over Q(ζ16 + ζ16⁻¹) of dimension 16,
    passes none of the exact irreducibility proofs."""
    zeta = companion_matrix(cyclotomic(16))
    a = RatMatrix.block_diag([zeta, zeta.inverse()])
    b = RatMatrix.from_rows([[0, -1], [1, 0]]).kron(RatMatrix.identity(8))
    return natural_rep(generate_group([a, b]))


def roots_of(f, prec=80) -> list:
    """Numeric roots of the IntPoly f, for tests that check exact results."""
    with mpmath.workprec(prec):
        return mpmath.polyroots([mpmath.mpf(c) for c in reversed(f.coeffs)], maxsteps=200, extraprec=prec)


def hand_built_field(f) -> NumberFieldCtx:
    """The context of Q[X]/(f) with its signature from the real root count,
    for a monic squarefree f that make_field refuses, such as X³ − X − 1, or
    any other; a cyclotomic f of degree ≥ 3 records its index, as make_field
    would."""
    s = real_root_count(f)
    d = cyclotomic_index_of(f) if f.degree > 2 else None
    return NumberFieldCtx(
        min_poly=f, signature=(s, (f.degree - s) // 2), theta=companion_matrix(f), cyclotomic_index=d
    )


def k_fold_products(roots, k: int) -> list:
    """The products of the k-multisets of the given numeric roots, as complex."""
    return [complex(mpmath.fprod(combo)) for combo in itertools.combinations_with_replacement(roots, k)]


def benchmark_cases():
    """perfbench/cases.py, the benchmark's fixed corpus, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def with_trivial_summand(rep):
    """1 ⊕ rep: the trivial representation of rep's group, then rep."""
    trivial = rep_from_generator_images(rep.group, [RatMatrix.identity(1)] * len(rep.gen_images))
    return direct_sum([trivial, rep])


def assert_isotypic_shortcut_calls(rep, profiles, calls) -> None:
    """The intertwiner_space calls (left images, right images) that decide
    made on rep, one isotypic block whose class Q[G]·e_0 seeds in decompose:
    one class, no solve on rep's own images, one Hom_G solve from the
    class's representation U into rep, and at most one commutant solve, on U."""
    (profile,) = profiles
    u = profile.sub_rep.gen_images
    homs = [(left, right) for left, right in calls if left is not right]
    solved = [left for left, right in calls if left is right]
    assert len(homs) == 1 and homs[0][0] is u and homs[0][1] is rep.gen_images
    assert len(solved) <= 1 and all(left is u for left in solved)


def regular_rep(group):
    """The right regular representation: generator s permutes the basis
    e_g ↦ e_{g·s}."""
    images = [
        perm_matrix(Permutation(group.right[g][s] for g in range(group.order)))
        for s in range(len(group.gen_indices))
    ]
    return rep_from_generator_images(group, images)


# -- product oracle for anosov.fingrp.RationalRep.check_homomorphism ---------


def homomorphism_by_products(rep) -> bool:
    """Whether ρ(g·s) = ρ(g)·ρ(s) for every element g and generator s, with ρ
    built along the breadth-first tree from ρ(e) = I: the tree edges hold by
    construction, and every other edge is multiplied out, |G|·#gens matrix
    products in all."""
    group = rep.group
    images = [RatMatrix.identity(rep.dimension)] + [None] * (group.order - 1)
    for g, row in enumerate(group.right):
        for s, j in enumerate(row):
            product = images[g] @ rep.gen_images[s]
            if group.parent[j] == (g, s):
                images[j] = product
            elif product != images[j]:
                return False
    return True


def element_matrices(rep) -> list:
    """ρ(g) for every element g, in element order: one product per element,
    from its breadth-first parent's image."""
    group = rep.group
    images = [RatMatrix.identity(rep.dimension)]
    for g in range(1, group.order):
        i, s = group.parent[g]
        images.append(images[i] @ rep.gen_images[s])
    return images


# -- per-element oracles for the class sums of anosov.fingrp ------------------


def character(rep) -> list:
    """χ(g) = tr ρ(g), indexed by element."""
    return [img.trace() for img in element_matrices(rep)]


def fs_indicator_by_element(rep) -> Fraction:
    """(1/|G|)·Σ_g tr ρ(g²), summed over every element."""
    group, images = rep.group, element_matrices(rep)
    total = sum((images[group.sq_map[g]].trace() for g in range(group.order)), Fraction(0))
    return total / group.order


def inner_product_by_element(rep_a, rep_b) -> Fraction:
    """⟨χ_a, χ_b⟩ = (1/|G|)·Σ_g χ_a(g)·χ_b(g⁻¹), summed over every element."""
    group, images_a, images_b = rep_a.group, element_matrices(rep_a), element_matrices(rep_b)
    total = Fraction(0)
    for g in range(group.order):
        total += images_a[g].trace() * images_b[group.inv_map[g]].trace()
    return total / group.order


# -- Hom-space oracle for the leaf grouping of anosov.repdec.decompose --------


def classes_by_hom(leaves) -> list:
    """Group the leaves (ComponentMembers, in split order) into classes by
    Hom spaces: a leaf joins the first class whose representative ρ0 has a
    nonzero intertwiner to it, which must be invertible, or starts a class."""
    classes = []
    for leaf in leaves:
        sub = leaf.rep
        for cls in classes:
            rep0 = cls[0].rep
            if sub.dimension != rep0.dimension:
                continue
            hom = intertwiner_space(rep0.gen_images, sub.gen_images)
            if hom:
                assert hom[0].det() != 0, "nonzero intertwiner between irreducibles is singular"
                cls.append(leaf)
                break
        else:
            classes.append([leaf])
    return classes


# -- every-candidate oracle for anosov.witness.lattice_search -----------------

SYMPY_X = sympy.Symbol("x")


def loop_only_verdict(f, c: int) -> bool:
    """c-hyperbolicity of f from the unit-circle test at every k = 1, …, c,
    with no closed form."""
    base = squarefree_part(f)
    return all(unit_circle_root_test(eig_product_poly(base, k)).status != FOUND for k in range(1, c + 1))


def sympy_route_report(f, c: int) -> dict:
    """is_c_hyperbolic_poly's JSON report with its three kernels run by
    sympy's dense ZZ routines: dup_sqf_part for the squarefree part, dup_gcd
    for the gcd with the reversal, and the number of isolating intervals in
    [−2, 2] of dup_isolate_real_roots for the real roots of the trace form."""

    def dense(g):
        return [ZZ(x) for x in reversed(g.coeffs)]

    def on_circle(g):
        common = IntPoly(tuple(int(x) for x in reversed(dup_gcd(dense(g), dense(g)[::-1], ZZ)))).primitive_part()
        if common.degree < 1:
            return False
        if common(1) == 0 or common(-1) == 0:
            return True
        return bool(dup_isolate_real_roots(dense(_trace_form(common)), ZZ, inf=QQ(-2), sup=QQ(2)))

    base = IntPoly(tuple(int(x) for x in reversed(dup_sqf_part(dense(f), ZZ))))
    report = {"c_tested": c, "verdict": True, "certified_exact": True}
    if 1 <= base.degree <= c and abs(base.coeffs[0]) == abs(base.leading):
        return {**report, "verdict": False, "offending_product": {"k": base.degree}}
    for k in range(1, c + 1):
        if on_circle(eig_product_poly(base, k)):
            return {**report, "verdict": False, "offending_product": {"k": k}}
    return report


def lattice_search_every_candidate(com, c: int, height_bound: int):
    """(hit, candidates_screened) of the lattice search that builds every
    candidate as Σ c_i·b_i and tests each one, ±X alike, in the same order,
    through sympy's Matrix.det and charpoly, which share no kernel with
    RatMatrix, and loop_only_verdict."""
    dim = com.rep.dimension
    screened = 0
    verdicts = {}
    basis = com.basis
    if not basis:
        return None, 0
    for h in range(1, height_bound + 1):
        coords = list(range(h, -h - 1, -1))
        if (2 * h + 1) ** len(basis) > MAX_LATTICE_CANDIDATES:
            break
        for vec in itertools.product(coords, repeat=len(basis)):
            if max(abs(e) for e in vec) != h:
                continue
            screened += 1
            acc = RatMatrix.zeros(dim, dim)
            for cf, b in zip(vec, basis):
                if cf:
                    acc = acc + b.scale(cf)
            m = sympy.Matrix(dim, dim, [sympy.Rational(x.numerator, x.denominator) for x in acc.entries()])
            if abs(m.det()) != 1:
                continue
            coeffs = m.charpoly(SYMPY_X).all_coeffs()
            if not all(x.is_integer for x in coeffs):
                continue
            f = IntPoly(tuple(int(x) for x in reversed(coeffs)))
            if f not in verdicts:
                verdicts[f] = loop_only_verdict(f, c)
            if verdicts[f]:
                return acc, screened
    return None, screened
