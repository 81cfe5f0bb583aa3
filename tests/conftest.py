import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from anosov import corpus
from anosov.fingrp import rep_from_generator_images
from anosov.hyper import integer_char_poly, is_c_hyperbolic_poly
from anosov.intpoly import real_root_count
from anosov.ratmat import Permutation, RatMatrix, perm_matrix
from anosov.repdec import intertwiner_space
from anosov.numfield import MAX_LATTICE_CANDIDATES, NumberFieldCtx, companion_matrix, cyclotomic_index_of


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


def roots_of(f, prec=80) -> list:
    """Numeric roots of the IntPoly f, for tests that check exact results."""
    with mpmath.workprec(prec):
        return mpmath.polyroots([mpmath.mpf(c) for c in reversed(f.coeffs)], maxsteps=200, extraprec=prec)


def hand_built_field(f) -> NumberFieldCtx:
    """The context of Q[X]/(f) with its signature from the Sturm count, for a
    monic squarefree f that make_field refuses, such as X³ − X − 1, or any
    other; a cyclotomic f of degree ≥ 3 records its index, as make_field
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


def regular_rep(group):
    """The right regular representation: generator s permutes the basis
    e_g ↦ e_{g·s}."""
    images = [
        perm_matrix(Permutation(group.right[g][s] for g in range(group.order)))
        for s in range(len(group.gen_indices))
    ]
    return rep_from_generator_images(group, images)


# -- per-element oracles for the class sums of anosov.fingrp ------------------


def character(rep) -> list:
    """χ(g) = tr ρ(g), indexed by element."""
    return [img.trace() for img in rep.images]


def fs_indicator_by_element(rep) -> Fraction:
    """(1/|G|)·Σ_g tr ρ(g²), summed over every element."""
    group = rep.group
    total = sum((rep.images[group.sq_map[g]].trace() for g in range(group.order)), Fraction(0))
    return total / group.order


def inner_product_by_element(rep_a, rep_b) -> Fraction:
    """⟨χ_a, χ_b⟩ = (1/|G|)·Σ_g χ_a(g)·χ_b(g⁻¹), summed over every element."""
    group = rep_a.group
    total = Fraction(0)
    for g in range(group.order):
        total += rep_a.images[g].trace() * rep_b.images[group.inv_map[g]].trace()
    return total / group.order


# -- Hom-space oracle for the leaf grouping of anosov.repdec.decompose --------


def classes_by_hom(leaves) -> list:
    """Group the leaves (ComponentMembers, in split order) into classes by
    Hom spaces: a leaf joins the first class whose representative ρ0 has a
    nonzero intertwiner to it, which must be invertible, or starts a class."""
    classes = []
    for leaf in leaves:
        sub = leaf.commutant.rep
        for cls in classes:
            rep0 = cls[0].commutant.rep
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


def lattice_search_every_candidate(com, c: int, height_bound: int):
    """(hit, candidates_screened) of the lattice search that builds every
    candidate as Σ c_i·b_i and tests each one, ±X alike, in the same order."""
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
            f = integer_char_poly(acc)
            if f is None:
                continue
            if f not in verdicts:
                verdicts[f] = is_c_hyperbolic_poly(f, c).verdict
            if verdicts[f]:
                return acc, screened
    return None, screened
