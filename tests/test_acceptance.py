"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and enforcing the stated budget."""

import itertools
import random
import time

import mpmath
import numpy as np

from anosov.corpus import (
    c4_rep,
    c5_rep,
    circle_rep,
    d3_group,
    klein_rep,
    m_rho3,
    q8_rep,
    rho1,
    rho2,
    rho3,
    torus_rep,
)
from anosov.decider import decide, decide_with_witness, no_certificate_search, porteous_flat
from anosov.fingrp import (
    character_inner_product,
    conjugacy_classes,
    generate_group,
    multiple,
)
from anosov.freenilp import graded_action, hall_basis, restricted_degree2_action
from anosov.hyper import is_c_hyperbolic_matrix, is_integer_like
from anosov.intpoly import IntPoly, cyclotomic, eig_product_poly
from anosov.numfield import (
    cyclotomic_field,
    make_field,
    search_c_hyperbolic_unit,
    unit_generators_for_field,
)
from anosov.ratmat import Permutation, RatMatrix, perm_matrix
from anosov.repdec import commutant, component_profile, decompose
from anosov.witness import verify_witness

from conftest import character, element_matrices

A_EXPECTED = RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, 1], [1, -1, -1, 1]])
B_EXPECTED = RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


class budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over {self.seconds}s budget"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_d3_reproduction():
    with budget("1 (D3 reproduction)", 1.0):
        group = d3_group()
        assert group.order == 6
        assert sorted(len(c) for c in conjugacy_classes(group)) == [1, 2, 3]
        class_reps = [0, group.gen_indices[0], group.gen_indices[1]]
        rows = []
        for rep in (rho1(group), rho2(group), rho3(group)):
            chi = character(rep)
            rows.append(tuple(chi[g] for g in class_reps))
        assert rows == [(1, 1, 1), (1, 1, -1), (2, -1, 0)]
        a_img, b_img = group.generators()
        pairs = [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert restricted_degree2_action(RatMatrix.block_diag([a_img, a_img]), pairs) == A_EXPECTED
        assert restricted_degree2_action(RatMatrix.block_diag([b_img, b_img]), pairs) == B_EXPECTED


def test_criterion_2_boundary():
    with budget("2 (criterion boundary m >= c+1)", 10.0):
        for m in range(1, 5):
            rep = m_rho3(m)
            for c in range(1, 5):
                assert decide(rep, c).admits_anosov == (m >= c + 1), (m, c)


def test_criterion_3_witness_production():
    with budget("3 (witness production)", 60.0):
        for m, c in ((2, 1), (3, 2), (4, 3)):
            rep = m_rho3(m)
            verdict = decide_with_witness(rep, c)
            assert verdict.witness_status == "attached", (m, c)
            w = verdict.witness.witness
            # independent re-verification, all six element images
            assert all(w @ img == img @ w for img in element_matrices(rep))
            coeffs = w.char_poly()
            IntPoly.from_rationals(coeffs)  # raises unless in Z[X]
            assert abs(w.det()) == 1
            assert is_c_hyperbolic_matrix(w, c).verdict


def test_criterion_4_flat_classics():
    with budget("4 (flat classics via the c=1 criterion)", 10.0):
        assert porteous_flat(torus_rep()).admits_anosov
        assert not porteous_flat(circle_rep()).admits_anosov
        assert not porteous_flat(klein_rep()).admits_anosov
        assert no_certificate_search(circle_rep(), 1, 5)["hits"] == 0
        assert no_certificate_search(klein_rep(), 1, 5)["hits"] == 0


def test_criterion_5_cyclic_field_path():
    with budget("5 (cyclic field path)", 30.0):
        verdict = decide_with_witness(c5_rep(), 1)
        assert verdict.witness_status == "attached"
        w = verdict.witness.witness
        assert w.det() == 1
        assert is_c_hyperbolic_matrix(w, 1).verdict
        rotation = c5_rep().gen_images[0]
        assert w == RatMatrix.identity(4) + rotation
        assert not decide(c4_rep(), 1).admits_anosov
        gaussian = cyclotomic_field(4)
        outcome = search_c_hyperbolic_unit(gaussian, unit_generators_for_field(gaussian), 1, 12)
        assert not outcome.found


def test_criterion_6_indicator_trichotomy():
    with budget("6 (indicator trichotomy profiles)", 10.0):
        expectations = {
            "rho3": (rho3(d3_group()), ("+", 1, 1)),
            "c4": (c4_rep(), ("0", 2, 1)),
            "q8": (q8_rep(), ("-", 2, 1)),
        }
        for name, (rep, expected) in expectations.items():
            profile = component_profile(commutant(rep))
            assert (profile.fs_sign, profile.e_complex, profile.r_components) == expected, name
            assert profile.dim_E == profile.m_schur**2 * profile.n_field


def test_criterion_7_unit_bounds():
    with budget("7 (unit existence bounds)", 30.0):
        sqrt2 = make_field(IntPoly((-2, 0, 1)))
        zeta5 = cyclotomic_field(5)
        gens2 = unit_generators_for_field(sqrt2)
        gens5 = unit_generators_for_field(zeta5)
        assert not search_c_hyperbolic_unit(sqrt2, gens2, 2, 12).found
        assert not search_c_hyperbolic_unit(zeta5, gens5, 2, 12).found
        hit2 = search_c_hyperbolic_unit(sqrt2, gens2, 1, 12)
        assert hit2.found and hit2.unit.coords == (1, 1)  # 1 + sqrt(2)
        assert hit2.report.verdict
        hit5 = search_c_hyperbolic_unit(zeta5, gens5, 1, 12)
        assert hit5.found and hit5.unit.coords == (1, 1, 0, 0)  # 1 + zeta5
        assert hit5.report.verdict


def _poly_roots(f):
    with mpmath.workprec(96):
        return mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(f.coeffs)], maxsteps=200, extraprec=96
        )


def test_criterion_8_oracle_equivalences():
    with budget("8 (oracle equivalences)", 120.0):
        # eigenvalue-product polynomials vs brute-force numeric products
        rng = random.Random(88)
        done = 0
        while done < 50:
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
            if coeffs[0] == 0:
                continue
            f = IntPoly(tuple(coeffs))
            done += 1
            base = _poly_roots(f)
            for k in (1, 2, 3):
                h = eig_product_poly(f, k)
                got = [complex(z) for z in _poly_roots(h)]
                expected = [
                    complex(mpmath.fprod(c))
                    for c in itertools.combinations_with_replacement(base, k)
                ]
                assert all(min(abs(z - w) for w in expected) < 1e-8 for z in got)
                assert all(min(abs(z - w) for z in got) < 1e-8 for w in expected)

        # graded-action eigenvalues are i-fold products of the base eigenvalues
        done = 0
        while done < 20:
            r = rng.randint(2, 3)
            m = RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
            if m.det() == 0:
                continue
            done += 1
            basis = hall_basis(r, 3)
            base = np.linalg.eigvals(np.array([[float(m[i, j]) for j in range(r)] for i in range(r)]))
            for i in (2, 3):
                act = graded_action(m, basis, i).matrix
                mat = np.array([[float(act[p, q]) for q in range(act.cols)] for p in range(act.rows)])
                prods = [np.prod(c) for c in itertools.combinations_with_replacement(base, i)]
                for ev in np.linalg.eigvals(mat):
                    assert min(abs(ev - p) for p in prods) < 1e-10

        # commutant dimension equals the character inner product on the corpus
        corpus_reps = [
            rho3(d3_group()), q8_rep(), klein_rep(), torus_rep(), c4_rep(), c5_rep(),
            m_rho3(2), m_rho3(3),
        ]
        for rep in corpus_reps:
            assert commutant(rep).dimension == character_inner_product(rep, rep)

        # permutation-matrix calculus, exhaustively for n <= 5
        for n in range(1, 6):
            perms = [Permutation(p) for p in itertools.permutations(range(n))]
            mats = {p: perm_matrix(p) for p in perms}
            for p in perms:
                assert mats[p].transpose() == mats[p.inverse()]
            for p1 in perms:
                for p2 in perms:
                    assert mats[p1] @ mats[p2] == mats[p2.compose(p1)]
