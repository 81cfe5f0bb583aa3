import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from anosov.ratmat import (
    DimensionError,
    Permutation,
    RatMatrix,
    SingularMatrixError,
    _bareiss_det,
    _berkowitz_char_poly,
    _eliminate,
    int_char_poly,
    int_det,
    matrix_min_poly,
    perm_matrix,
)

from conftest import random_unimodular


def M(rows):
    return RatMatrix.from_rows(rows)


class TestCharPoly:
    def test_fibonacci_like(self):
        assert M([[2, 1], [1, 1]]).char_poly() == (1, -3, 1)

    def test_identity_cubed(self):
        assert RatMatrix.identity(3).char_poly() == (-1, 3, -3, 1)

    def test_companion_of_phi5(self):
        comp = M([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
        assert comp.char_poly() == (1, 1, 1, 1, 1)

    def test_similarity_invariance(self):
        rng = random.Random(11)
        for _ in range(5):
            b = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            a = random_unimodular(rng, 3)
            assert (a @ b @ a.inverse()).char_poly() == b.char_poly()

    def test_det_is_signed_constant_term(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            m = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            coeffs = m.char_poly()
            assert m.det() == (coeffs[0] if n % 2 == 0 else -coeffs[0])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            RatMatrix.zeros(2, 3).char_poly()


class TestBasicOps:
    def test_det_example(self):
        assert M([[0, -1], [1, -1]]).det() == 1

    def test_inverse_identity(self):
        for n in (1, 2, 5):
            assert RatMatrix.identity(n).inverse() == RatMatrix.identity(n)

    def test_inverse_roundtrip(self):
        m = M([["1/2", 1], [0, 3]])
        assert m @ m.inverse() == RatMatrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrixError):
            M([[1, 1], [1, 1]]).inverse()

    def test_kernel_rank_one(self):
        basis = M([[1, 1], [1, 1]]).kernel_basis()
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] != 0

    def test_kernel_empty_for_invertible(self):
        assert M([[2, 1], [1, 1]]).kernel_basis() == []

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            M([[1, 2]]) @ M([[1, 2]])
        with pytest.raises(DimensionError):
            M([[1, 2]]) + M([[1], [2]])

    def test_solve_exact(self):
        a = M([[2, 1], [1, 1]])
        rhs = a @ M([[1], [5]])
        assert a.solve(rhs) == M([[1], [5]])

    def test_json_roundtrip(self):
        m = M([["1/3", "-2"], ["0", "7/2"]])
        assert RatMatrix.from_json(m.to_json()) == m


class TestPermutationCalculus:
    def test_identity_permutation(self):
        assert perm_matrix(Permutation.identity(4)) == RatMatrix.identity(4)

    def test_transposition_n2(self):
        assert perm_matrix(Permutation([1, 0])) == M([[0, 1], [1, 0]])

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, im1, im2):
        p1, p2 = Permutation(im1), Permutation(im2)
        assert perm_matrix(p1) @ perm_matrix(p2) == perm_matrix(p2.compose(p1))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=40, deadline=None)
    def test_transpose_is_inverse(self, images):
        p = Permutation(images)
        assert perm_matrix(p).transpose() == perm_matrix(p.inverse())


class TestKronecker:
    def test_k_equals_one(self):
        p = perm_matrix(Permutation([2, 0, 1]))
        assert p.kron_identity(1) == p

    def test_block_swap(self):
        swap = M([[0, 1], [1, 0]]).kron_identity(2)
        assert swap == M(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_inverse_of_perm_kron(self):
        rng = random.Random(3)
        for _ in range(6):
            n, k = rng.randint(2, 4), rng.randint(1, 3)
            images = list(range(n))
            rng.shuffle(images)
            p = Permutation(images)
            lhs = perm_matrix(p).kron_identity(k).inverse()
            assert lhs == perm_matrix(p.inverse()).kron_identity(k)

    def test_zero_k_rejected(self):
        with pytest.raises(DimensionError):
            RatMatrix.identity(2).kron_identity(0)


def test_matrix_min_poly_divides_char_poly():
    m = RatMatrix.block_diag([M([[2, 1], [1, 1]]), M([[2, 1], [1, 1]])])
    # minimal polynomial stays quadratic on the doubled block
    assert matrix_min_poly(m) == (1, -3, 1)


def test_entries_normalized():
    m = M([["2/4", "3/3"]])
    assert m[0, 0] == Fraction(1, 2) and m[0, 1] == 1


# -- the integer elimination core against the Fraction Gauss–Jordan it replaced --


def reference_rref(a: RatMatrix):
    """Gauss–Jordan with Fraction row operations, the elimination RatMatrix
    used before its integer core; kept as the oracle. Returns every row
    (zero rows last) and the pivot columns."""
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = next((i for i in range(r, a.rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return m, pivots


def reference_det(a: RatMatrix) -> Fraction:
    n = a.rows
    m = [list(a.row(i)) for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def reference_kernel(a: RatMatrix) -> list:
    red, pivots = reference_rref(a)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        denom = math.lcm(*(x.denominator for x in v))
        ints = [int(x * denom) for x in v]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(Fraction(x) for x in ints))
    return basis


def reference_solve(a: RatMatrix, rhs: RatMatrix) -> RatMatrix:
    aug = RatMatrix(a.rows, a.cols + rhs.cols, [x for i in range(a.rows) for x in a.row(i) + rhs.row(i)])
    red, pivots = reference_rref(aug)
    if any(p >= a.cols for p in pivots):
        raise SingularMatrixError("inconsistent linear system")
    if len(pivots) < a.cols:
        raise SingularMatrixError("underdetermined linear system")
    return RatMatrix(a.cols, rhs.cols, [x for r in range(a.cols) for x in red[r][a.cols :]])


def reference_inverse(a: RatMatrix) -> RatMatrix:
    n = a.rows
    ident = RatMatrix.identity(n)
    red, pivots = reference_rref(RatMatrix(n, 2 * n, [x for i in range(n) for x in a.row(i) + ident.row(i)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(n, n, [x for i in range(n) for x in red[i][n:]])


def outcome(fn, *args):
    """The result, or the SingularMatrixError message."""
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return ("SingularMatrixError", str(exc))


NEAR_2_80 = st.builds(lambda s, d: s * (2**80 + d), st.sampled_from([1, -1]), st.integers(-3, 3))
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    NEAR_2_80,
    st.builds(Fraction, NEAR_2_80, st.integers(1, 5)),
    st.builds(Fraction, st.integers(-5, 5), NEAR_2_80),
)
# about half zeros: pivots are often zero, so elimination swaps rows
SPARSE_ENTRIES = st.one_of(st.just(0), ENTRIES)
SIZES = st.integers(0, 8)


@st.composite
def matrices(draw, rows=SIZES, cols=SIZES):
    """Dense or sparse matrices with some rows and columns zeroed."""
    n, m = draw(rows), draw(cols)
    kind = draw(st.sampled_from([ENTRIES, SPARSE_ENTRIES]))
    entries = draw(st.lists(kind, min_size=n * m, max_size=n * m))
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    zero_cols = draw(st.sets(st.integers(0, m - 1))) if m else set()
    return RatMatrix(n, m, [
        Fraction(0) if i in zero_rows or j in zero_cols else Fraction(entries[i * m + j])
        for i in range(n) for j in range(m)
    ])


@st.composite
def low_rank(draw, rows=st.integers(1, 8), cols=st.integers(1, 8)):
    """A·B through an inner dimension below both outer ones."""
    n, m = draw(rows), draw(cols)
    k = draw(st.integers(0, min(n, m) - 1))
    return draw(matrices(st.just(n), st.just(k))) @ draw(matrices(st.just(k), st.just(m)))


@st.composite
def permuted_triangular(draw, n):
    """Rows of an invertible upper-triangular matrix in a drawn order, so
    that elimination has to swap rows and the determinant's sign depends
    on the swaps."""
    order = draw(st.permutations(range(n)))
    diagonal = draw(st.lists(ENTRIES.filter(bool), min_size=n, max_size=n))
    upper = draw(st.lists(SPARSE_ENTRIES, min_size=n * n, max_size=n * n))
    rows = [
        [diagonal[i] if j == i else upper[i * n + j] if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return RatMatrix.from_rows([rows[i] for i in order])


@st.composite
def square(draw):
    n = draw(SIZES)
    kind = draw(st.sampled_from(["entries", "low rank", "permuted triangular"]))
    if n and kind == "low rank":
        return draw(low_rank(st.just(n), st.just(n)))
    if kind == "permuted triangular":
        return draw(permuted_triangular(n))
    return draw(matrices(st.just(n), st.just(n)))


ANY = st.one_of(matrices(), low_rank())
DIFFERENTIAL = settings(max_examples=100, deadline=None)


class TestEliminationCore:
    @given(ANY)
    @DIFFERENTIAL
    def test_rref_rank_kernel(self, a):
        # the stored rows scaled to pivot 1 are the reduced row echelon form
        stored = _eliminate(a._sparse_rows())
        pivots = sorted(stored)
        ref, ref_pivots = reference_rref(a)
        assert pivots == ref_pivots
        red = [[Fraction(stored[p].get(j, 0), stored[p][p]) for j in range(a.cols)] for p in pivots]
        assert red == ref[: len(pivots)]
        assert all(not any(row) for row in ref[len(pivots) :])
        assert a.rank() == len(ref_pivots)
        assert a.kernel_basis() == reference_kernel(a)

    @given(square())
    @DIFFERENTIAL
    def test_det_and_inverse(self, a):
        assert a.det() == reference_det(a)
        assert outcome(RatMatrix.inverse, a) == outcome(reference_inverse, a)

    @given(ANY, st.integers(0, 3), st.booleans(), st.data())
    @DIFFERENTIAL
    def test_solve(self, a, k, consistent, data):
        if consistent:
            rhs = a @ data.draw(matrices(st.just(a.cols), st.just(k)))
        else:
            rhs = data.draw(matrices(st.just(a.rows), st.just(k)))
        assert outcome(a.solve, rhs) == outcome(reference_solve, a, rhs)

    def test_non_square_rejected(self):
        for op in (RatMatrix.det, RatMatrix.inverse):
            with pytest.raises(DimensionError):
                op(RatMatrix.zeros(2, 3))


# -- the integer-backed storage against the Fraction arithmetic it replaced --


def as_rows(a: RatMatrix) -> list:
    return [list(a.row(i)) for i in range(a.rows)]


def fraction_matmul(a: list, b: list, inner: int, width: int) -> list:
    """Row-by-column products of Fraction rows; the shared dimension
    `inner` and the width of b are given, so that empty factors are well
    defined."""
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(width)] for row in a]


def fraction_kron(a: list, b: list) -> list:
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def fraction_char_poly(a: list) -> tuple:
    """Faddeev–LeVerrier over Fractions, the characteristic polynomial
    RatMatrix computed before Berkowitz's algorithm; ascending, monic."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = a
    for k in range(1, n + 1):
        c = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        if k < n:
            shifted = [[x + (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mk)]
            mk = fraction_matmul(a, shifted, n, n)
    return tuple(coeffs)


def reference_min_poly(a: RatMatrix) -> tuple:
    """The first dependence among I, A, A², …, with a fresh kernel of the
    matrix of vectorised powers for each new power."""
    powers = [RatMatrix.identity(a.rows)]
    while True:
        powers.append(powers[-1] @ a)
        kernel = RatMatrix(a.rows * a.rows, len(powers), [
            p[i, j] for i in range(a.rows) for j in range(a.rows) for p in powers
        ]).kernel_basis()
        if kernel:
            vec = kernel[0]
            lead = max(i for i, x in enumerate(vec) if x)
            return tuple(x / vec[lead] for x in vec[: lead + 1])


def assert_canonical(m: RatMatrix) -> None:
    numerators, d = m.integer_form()
    assert d > 0 and math.gcd(d, *numerators) == 1
    assert all(type(x) is int for x in numerators)
    assert len(numerators) == m.rows * m.cols


# fewer examples than DIFFERENTIAL: the Fraction oracles dominate the run time
STORAGE = settings(max_examples=60, deadline=None)
SCALARS = st.one_of(st.just(0), st.integers(-5, 5), ENTRIES, st.fractions(max_denominator=10**30))


class TestIntegerStorage:
    @given(matrices(), st.data())
    @STORAGE
    def test_matmul(self, a, data):
        b = data.draw(matrices(st.just(a.cols), SIZES))
        product = a @ b
        assert_canonical(product)
        assert as_rows(product) == fraction_matmul(as_rows(a), as_rows(b), a.cols, b.cols)
        assert (product.rows, product.cols) == (a.rows, b.cols)

    @given(matrices(), st.data())
    @STORAGE
    def test_add_and_sub(self, a, data):
        b = data.draw(matrices(st.just(a.rows), st.just(a.cols)))
        for result, op in ((a + b, Fraction.__add__), (a - b, Fraction.__sub__), (-a, None)):
            assert_canonical(result)
            expected = [
                [op(x, y) if op else -x for x, y in zip(ra, rb)] for ra, rb in zip(as_rows(a), as_rows(b))
            ]
            assert as_rows(result) == expected
        assert (a - a).is_zero() and (a - a) == RatMatrix.zeros(a.rows, a.cols)

    @given(matrices(), SCALARS)
    @STORAGE
    def test_scale(self, a, s):
        scaled = a.scale(s)
        assert_canonical(scaled)
        assert as_rows(scaled) == [[Fraction(s) * x for x in row] for row in as_rows(a)]

    @given(matrices(), st.one_of(st.integers(-5, 5), NEAR_2_80, st.booleans()))
    @STORAGE
    def test_scale_by_int(self, a, s):
        """An int scales the numerators over the same denominator, with the
        storage that scaling by the equal Fraction gives."""
        scaled = a.scale(s)
        assert_canonical(scaled)
        assert scaled.integer_form() == a.scale(Fraction(s)).integer_form()
        assert as_rows(scaled) == [[s * x for x in row] for row in as_rows(a)]

    @given(matrices())
    @STORAGE
    def test_transpose_trace_entries(self, a):
        t = a.transpose()
        assert_canonical(t)
        assert as_rows(t) == [[a[i, j] for i in range(a.rows)] for j in range(a.cols)]
        assert [a.column(j) for j in range(a.cols)] == [t.row(j) for j in range(a.cols)]
        assert all(isinstance(x, Fraction) for x in a.entries())
        assert a.entries() == tuple(x for row in as_rows(a) for x in row)
        if a.is_square:
            assert a.trace() == sum((a[i, i] for i in range(a.rows)), Fraction(0))

    @given(matrices(SIZES, st.integers(0, 3)), matrices(st.integers(0, 3), SIZES))
    @STORAGE
    def test_kron(self, a, b):
        k = a.kron(b)
        assert_canonical(k)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
        assert as_rows(k) == fraction_kron(as_rows(a), as_rows(b))

    @given(square())
    @STORAGE
    def test_char_poly_matches_faddeev_leverrier(self, a):
        coeffs = a.char_poly()
        assert coeffs == fraction_char_poly(as_rows(a))
        assert all(isinstance(x, Fraction) for x in coeffs)

    @given(square())
    @STORAGE
    def test_min_poly_is_first_dependence(self, a):
        assert matrix_min_poly(a) == reference_min_poly(a)

    @given(square(), st.data())
    @STORAGE
    def test_inverse_solve_det_canonical(self, a, data):
        assert a.det() == reference_det(a)
        if a.det():
            inv = a.inverse()
            assert_canonical(inv)
            assert inv == reference_inverse(a) and a @ inv == RatMatrix.identity(a.rows)
            rhs = data.draw(matrices(st.just(a.rows), st.integers(0, 3)))
            solved = a.solve(rhs)
            assert_canonical(solved)
            assert solved == reference_solve(a, rhs) and a @ solved == rhs

    @given(matrices(), SCALARS.filter(bool))
    @STORAGE
    def test_equal_values_have_equal_storage(self, m, s):
        s = Fraction(s)
        routes = [
            m.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
            m.scale(s).scale(1 / s),
            (m + m) - m,
            -(-m),
            m.transpose().transpose(),
            m @ RatMatrix.identity(m.cols),
            RatMatrix(m.rows, m.cols, m.entries()),
            RatMatrix.from_integers(m.rows, m.cols, [6 * x for x in m.integer_form()[0]], 6 * m.integer_form()[1]),
        ]
        for other in routes:
            assert_canonical(other)
            assert other == m and hash(other) == hash(m)
            assert other.integer_form() == m.integer_form()

    def test_zero_matrix_is_canonical(self):
        zero = RatMatrix.from_rows([["1/3", "2/3"]]).scale(0)
        assert zero.integer_form() == ((0, 0), 1)
        assert zero == RatMatrix.zeros(1, 2) and hash(zero) == hash(RatMatrix.zeros(1, 2))

    def test_from_integers_rejects_bad_input(self):
        for d in (0, -1):
            with pytest.raises(ValueError):
                RatMatrix.from_integers(1, 1, [1], d)
        with pytest.raises(DimensionError):
            RatMatrix.from_integers(2, 1, [1])


# -- the kernels' shortcuts for zero and unit entries: monomial matrices --


@st.composite
def monomial(draw, sizes=st.integers(0, 12)):
    """A signed permutation matrix, optionally times a scalar with a
    denominator, with some rows optionally zeroed. Returns the matrix and
    its permutation (row i has its entry in column images[i])."""
    n = draw(sizes)
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    s = draw(st.one_of(st.just(Fraction(1)), st.fractions(max_denominator=12).filter(bool), NEAR_2_80))
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    entries = [
        signs[i] * Fraction(s) if j == images[i] and i not in zero_rows else Fraction(0)
        for i in range(n)
        for j in range(n)
    ]
    return RatMatrix(n, n, entries), Permutation(images), zero_rows


def permutation_sign(pi: Permutation) -> int:
    n = len(pi)
    inversions = sum(pi(i) > pi(j) for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


class TestMonomialKernels:
    @given(monomial(), st.data())
    @DIFFERENTIAL
    def test_matmul_with_monomial_left_factor(self, drawn, data):
        # each row of the product is one row of b, as is or scaled, or the
        # zero row
        a, _, _ = drawn
        b = data.draw(st.one_of(matrices(st.just(a.cols), SIZES), monomial(st.just(a.cols)).map(lambda t: t[0])))
        product = a @ b
        assert_canonical(product)
        assert as_rows(product) == fraction_matmul(as_rows(a), as_rows(b), a.cols, b.cols)

    @given(matrices(), st.data())
    @DIFFERENTIAL
    def test_matmul_with_monomial_right_factor(self, a, data):
        b, _, _ = data.draw(monomial(st.just(a.cols)))
        product = a @ b
        assert_canonical(product)
        assert as_rows(product) == fraction_matmul(as_rows(a), as_rows(b), a.cols, b.cols)

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (0, 2), (3, 4)])
    def test_matmul_through_inner_dimension_zero(self, n, m):
        product = RatMatrix.zeros(n, 0) @ RatMatrix.zeros(0, m)
        assert_canonical(product)
        assert product == RatMatrix.zeros(n, m)
        assert as_rows(product) == fraction_matmul([[]] * n, [], 0, m)

    @given(monomial())
    @DIFFERENTIAL
    def test_det_of_monomial(self, drawn):
        a, pi, zero_rows = drawn
        det = a.det()
        assert det == reference_det(a)
        if zero_rows:
            assert det == 0
        else:
            # the permutation's sign times the product of the entries
            assert det == permutation_sign(pi) * math.prod(a[i, pi(i)] for i in range(a.rows))

    @given(st.permutations(list(range(9))))
    @DIFFERENTIAL
    def test_det_of_permutation_matrix_is_its_sign(self, images):
        pi = Permutation(images)
        k = perm_matrix(pi)
        assert k.det() == reference_det(k) == permutation_sign(pi)
        # 9 is odd: negating every entry negates the determinant
        assert (-k).det() == reference_det(-k) == -permutation_sign(pi)


INT_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40), NEAR_2_80)


@st.composite
def integer_square(draw, max_n: int = 7) -> tuple[int, list]:
    """(n, row-major entries) of an n×n integer matrix, n ≤ max_n."""
    n = draw(st.integers(0, max_n))
    return n, draw(st.lists(INT_ENTRIES, min_size=n * n, max_size=n * n))


class TestIntegerKernels:
    @given(integer_square())
    @DIFFERENTIAL
    def test_det_and_char_poly_match_sympy(self, drawn):
        n, a = drawn
        m = sympy.Matrix(n, n, a)
        assert int_det(a, n) == m.det()
        x = sympy.Symbol("x")
        assert int_char_poly(a, n) == [int(c) for c in reversed(m.charpoly(x).all_coeffs())]

    @given(integer_square(max_n=4))
    @DIFFERENTIAL
    def test_closed_forms_match_bareiss_and_berkowitz(self, drawn):
        # below size 5 the kernels take closed forms; the general routes
        # stay callable as the reference
        n, a = drawn
        assert int_det(a, n) == _bareiss_det(a, n)
        assert int_char_poly(a, n) == _berkowitz_char_poly(a, n)
