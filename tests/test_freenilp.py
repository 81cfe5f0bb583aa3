import itertools
import random

import numpy as np
import pytest
from sympy import divisors, mobius

from anosov.freenilp import (
    MAX_TENSOR_ENTRIES,
    full_action_hyperbolic,
    graded_action,
    hall_basis,
    restricted_degree2_action,
    tree_str,
    witt_dimension,
)
from anosov.ratmat import RatMatrix, SingularMatrixError

A_EXPECTED = RatMatrix.from_rows(
    [[0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, 1], [1, -1, -1, 1]]
)
B_EXPECTED = RatMatrix.from_rows(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
)


class TestHallBasis:
    def test_small_dimensions(self):
        assert hall_basis(2, 2).degree_dims() == [2, 1]
        assert hall_basis(4, 2).degree_dims() == [4, 6]
        assert hall_basis(3, 3).degree_dims() == [3, 3, 8]

    def test_degree2_ordering_is_lexicographic(self):
        basis = hall_basis(4, 2)
        assert [tree_str(t) for t in basis.elements(2)] == [
            "[x1,x2]", "[x1,x3]", "[x1,x4]", "[x2,x3]", "[x2,x4]", "[x3,x4]",
        ]

    @pytest.mark.parametrize("r,c", [(r, c) for r in (1, 2, 3, 4) for c in (1, 2, 3, 4)])
    def test_witt_formula_matches_enumeration(self, r, c):
        basis = hall_basis(r, c)
        for d in range(1, c + 1):
            assert len(basis.elements(d)) == witt_dimension(r, d)

    @pytest.mark.parametrize("d", range(1, 41))
    def test_witt_dimension_matches_sympy_mobius(self, d):
        # the word-count recursion against the Möbius formula with sympy's μ,
        # through squares and several primes
        for r in (1, 2, 3, 5):
            total = sum(int(mobius(e)) * r ** (d // e) for e in divisors(d))
            assert witt_dimension(r, d) == total // d

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hall_basis(50, 4)


class TestGradedAction:
    def test_identity_everywhere(self):
        basis = hall_basis(3, 3)
        for d in (1, 2, 3):
            action = graded_action(RatMatrix.identity(3), basis, d)
            assert action.matrix == RatMatrix.identity(len(basis.elements(d)))

    def test_rank2_degree2_is_determinant(self):
        m = RatMatrix.from_rows([[2, 1], [1, 1]])
        action = graded_action(m, hall_basis(2, 2), 2)
        assert action.matrix == RatMatrix.from_rows([[1]])

    def test_published_degree2_matrices(self, d3):
        a_img, b_img = d3.gen_matrices
        pairs = [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert restricted_degree2_action(RatMatrix.block_diag([a_img, a_img]), pairs) == A_EXPECTED
        assert restricted_degree2_action(RatMatrix.block_diag([b_img, b_img]), pairs) == B_EXPECTED

    def test_functoriality(self):
        rng = random.Random(21)
        basis = hall_basis(3, 3)

        def rand_invertible():
            while True:
                m = RatMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                )
                if m.det() != 0:
                    return m

        for _ in range(4):
            m1, m2 = rand_invertible(), rand_invertible()
            for d in (2, 3):
                lhs = graded_action(m1 @ m2, basis, d).matrix
                rhs = graded_action(m1, basis, d).matrix @ graded_action(m2, basis, d).matrix
                assert lhs == rhs

    def test_empty_layers_get_the_empty_action(self):
        # one generator: every bracket vanishes, so degrees 2 and 3 are zero-dimensional
        basis = hall_basis(1, 3)
        for d in (2, 3):
            action = graded_action(RatMatrix.from_rows([[2]]), basis, d)
            assert action.basis_elements == ()
            assert action.matrix == RatMatrix.zeros(0, 0)
        ok, reports = full_action_hyperbolic(RatMatrix.from_rows([[2]]), 2)
        assert ok and [r["dimension"] for r in reports] == [1, 0]

    def test_tensor_guard_sits_between_class_12_and_13(self):
        # r^c·W(c) for r = 2: 4096·335 at class 12, 8192·630 at class 13
        m = RatMatrix.from_rows([[2, 1], [1, 1]])
        assert 2**12 * witt_dimension(2, 12) <= MAX_TENSOR_ENTRIES < 2**13 * witt_dimension(2, 13)
        basis = hall_basis(2, 13)
        for d in (1, 13):
            with pytest.raises(ValueError, match="over the guard"):
                graded_action(m, basis, d)
        assert graded_action(m, hall_basis(2, 12), 1).matrix == m

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            graded_action(RatMatrix.zeros(2, 2), hall_basis(2, 2), 1)

    def test_eigenvalues_are_products(self):
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            r = rng.randint(2, 3)
            m = RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
            if m.det() == 0:
                continue
            checked += 1
            basis = hall_basis(r, 3)
            base_eigs = np.linalg.eigvals(
                np.array([[float(m[i, j]) for j in range(r)] for i in range(r)])
            )
            for d in (2, 3):
                action = graded_action(m, basis, d)
                mat = np.array(
                    [
                        [float(action.matrix[i, j]) for j in range(action.matrix.cols)]
                        for i in range(action.matrix.rows)
                    ]
                )
                products = [
                    np.prod(combo)
                    for combo in itertools.combinations_with_replacement(base_eigs, d)
                ]
                for ev in np.linalg.eigvals(mat):
                    assert min(abs(ev - p) for p in products) < 1e-10


class TestFullActionHyperbolic:
    def test_unimodular_rank2_fails_at_degree2(self):
        ok, reports = full_action_hyperbolic(RatMatrix.from_rows([[2, 1], [1, 1]]), 2)
        assert not ok
        assert reports[0]["hyperbolic"] and not reports[1]["hyperbolic"]

    def test_identity_fails_at_degree1(self):
        ok, reports = full_action_hyperbolic(RatMatrix.identity(2), 1)
        assert not ok and not reports[0]["hyperbolic"]

    def test_plastic_block_survives_degree2(self):
        from anosov.intpoly import IntPoly
        from anosov.witness import companion_matrix

        m = companion_matrix(IntPoly((-1, -1, 0, 1)))
        ok, reports = full_action_hyperbolic(m, 2)
        assert ok and all(r["hyperbolic"] for r in reports)
