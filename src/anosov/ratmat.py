"""Exact dense linear algebra over the rationals, plus the permutation-matrix
and Kronecker calculus used by the rest of the package.

Matrices are immutable and value-semantic: every operation returns a fresh
matrix. A matrix is stored as its row-major integer numerators `_n` over one
positive common denominator `_d`, kept canonical with gcd(_n…, _d) = 1 (the
layout of FLINT's fmpq_mat). Equal matrices thus have equal storage, so
equality and hashing compare integer tuples. Products, sums, scalings,
transposes and traces work on the integers and normalise once at the end;
`__getitem__`, `row`, `column` and `entries` hand out `fractions.Fraction`s.
A product row is an integer row combination (`int_combination`, which the
lattice search shares): it skips zero entries, starts from the row of the
right factor that its first nonzero entry selects, as it is when that
entry is 1, and adds or subtracts later rows unscaled for entries ±1: a
permutation on the left costs one slice per row and no arithmetic.
A JSON literal is read straight into numerators over their common
denominator: integers and decimal-integer strings as ints, and only "p/q"
strings through `Fraction`.

Kernels, ranks, solves and inverses go through one elimination routine,
`_eliminate`: fraction-free Gauss–Jordan on sparse integer rows, each
reduced by integer cross-multiplication and divided by the gcd of its
entries. A matrix's rows enter it as its numerators, since scaling a row by
the denominator changes no kernel, rank or solution. `int_det` and
`int_char_poly` work on row-major integer numerators, and `det` and
`char_poly` call them and divide by a power of the denominator once. Up to
size 4 both are straight-line closed forms: the determinant by Laplace
expansion along complementary 2×2 minors, and the characteristic
polynomial as signed sums of principal minors, which reuse those 2×2
minors. At size 0 and from size 5 on, `int_det` runs Bareiss's
fraction-free elimination (Bareiss, Math. Comp. 1968) and `int_char_poly`
Berkowitz's division-free algorithm (Berkowitz, IPL 18, 1984); the methods
are those of Cohen, A Course in Computational Algebraic Number Theory, §2.2.
`sparse_kernel_basis` takes a system given as sparse integer rows, for
callers whose equations have few nonzero coefficients.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence


class DimensionError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


# "p" or "p/q" with q ≠ 0; group 1 is the "/q"
_JSON_ENTRY = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _json_entry(x) -> int | Fraction:
    """A JSON matrix entry: an int for a JSON integer or a decimal-integer
    string, a Fraction for a "p/q" string only."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    match = _JSON_ENTRY.fullmatch(x) if isinstance(x, str) else None
    if match:
        return Fraction(x) if match.group(1) else int(x)
    raise ValueError(f'matrix entry {x!r} is not an integer or a "p" or "p/q" string with q != 0')


_JSON_INT = re.compile(r"[+-]?[0-9]+")


def json_int(x, name: str) -> int:
    """A scalar JSON field read as an integer: a JSON integer (not a boolean)
    or a decimal-integer string; anything else raises ValueError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _JSON_INT.fullmatch(x):
        return int(x)
    raise ValueError(f"{name} {x!r} is not an integer or a decimal-integer string")


class RatMatrix:
    """Dense matrix of rationals: integer numerators `_n`, row-major, over
    one denominator `_d` > 0 with gcd(_n…, _d) = 1."""

    __slots__ = ("rows", "cols", "_n", "_d")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        """The matrix with the given row-major entries (Fractions or ints)."""
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError("entry count does not match shape")
        d = lcm(*(x.denominator for x in entries))
        # entries in lowest terms over the lcm of their denominators share no
        # factor with it: the form is canonical already
        _init(self, rows, cols, tuple(x.numerator * (d // x.denominator) for x in entries), d)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_integers(cls, rows: int, cols: int, numerators: Iterable[int], denominator: int = 1) -> "RatMatrix":
        """The matrix numerators/denominator, row-major, in canonical form."""
        n = tuple(numerators)
        if rows < 0 or cols < 0 or len(n) != rows * cols:
            raise DimensionError("entry count does not match shape")
        if denominator <= 0:
            raise ValueError("matrix denominator must be positive")
        return _make(rows, cols, n, denominator)

    def integer_form(self) -> tuple[tuple, int]:
        """(numerators, d): the row-major integer numerators over the common
        denominator d > 0, sharing no factor with it."""
        return self._n, self._d

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            entries.extend(_frac(x) for x in row)
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        nums = [0] * (n * n)
        nums[:: n + 1] = [1] * n
        return _make(n, n, tuple(nums), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return _make(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def block_diag(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        d = lcm(*(b._d for b in blocks))
        out = [0] * (n * m)
        r0 = c0 = 0
        for b in blocks:
            f = d // b._d
            for i in range(b.rows):
                row = b._n[i * b.cols : (i + 1) * b.cols]
                out[(r0 + i) * m + c0 : (r0 + i) * m + c0 + b.cols] = row if f == 1 else [f * x for x in row]
            r0 += b.rows
            c0 += b.cols
        return _make(n, m, tuple(out), d)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]]) -> "RatMatrix":
        if not columns:
            raise DimensionError("need at least one column")
        n = len(columns[0])
        return cls(n, len(columns), [columns[j][i] for i in range(n) for j in range(len(columns))])

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._n[i * self.cols + j], self._d)

    def row(self, i: int) -> tuple:
        d = self._d
        return tuple(Fraction(x, d) for x in self._n[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int) -> tuple:
        d = self._d
        return tuple(Fraction(x, d) for x in self._n[j :: self.cols])

    def entries(self) -> tuple:
        d = self._d
        return tuple(Fraction(x, d) for x in self._n)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
            and self._n == other._n
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._d, self._n))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"

    def _combine(self, other: "RatMatrix", op, name: str) -> "RatMatrix":
        """self op other for op = add or sub, over the lcm of the denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(f"shape mismatch in {name}")
        a, b, da, db = self._n, other._n, self._d, other._d
        if da == db:
            return _make(self.rows, self.cols, tuple(map(op, a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(self.rows, self.cols, tuple(map(op, map(mul, a, repeat(fa)), map(mul, b, repeat(fb)))), da * fa)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, add, "addition")

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, sub, "subtraction")

    def __neg__(self) -> "RatMatrix":
        return _make(self.rows, self.cols, tuple(map(neg, self._n)), self._d)

    def scale(self, s) -> "RatMatrix":
        if isinstance(s, int):
            return _make(self.rows, self.cols, tuple(map(mul, self._n, repeat(s))), self._d)
        s = _frac(s)
        return _make(self.rows, self.cols, tuple(map(mul, self._n, repeat(s.numerator))), self._d * s.denominator)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        product = _int_matmul(self._n, other._n, self.rows, self.cols, other.cols)
        return _make(self.rows, other.cols, product, self._d * other._d)

    def transpose(self) -> "RatMatrix":
        c = self.cols
        return _make(c, self.rows, tuple(x for j in range(c) for x in self._n[j::c]), self._d)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        return Fraction(sum(self._n[:: self.cols + 1]), self._d)

    def is_zero(self) -> bool:
        return not any(self._n)

    # -- Kronecker calculus --------------------------------------------------

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product self ⊗ other with the standard block layout."""
        a, b = self._n, other._n
        out = []
        for i in range(self.rows):
            arow = a[i * self.cols : (i + 1) * self.cols]
            for p in range(other.rows):
                brow = b[p * other.cols : (p + 1) * other.cols]
                for x in arow:
                    out.extend(map(mul, brow, repeat(x)))
        return _make(self.rows * other.rows, self.cols * other.cols, tuple(out), self._d * other._d)

    def kron_identity(self, k: int) -> "RatMatrix":
        """self ⊗ I_k: every entry m_ij is replaced by m_ij·I_k."""
        if k <= 0:
            raise DimensionError("Kronecker factor k must be >= 1")
        return self.kron(RatMatrix.identity(k))

    # -- elimination-based operations ---------------------------------------

    def _sparse_rows(self, scale: int = 1, offset: int = 0) -> list[dict]:
        """The numerator rows times scale as {offset + column: entry} dicts
        without their zero entries."""
        c, n = self.cols, self._n
        return [
            {offset + j: scale * x for j, x in enumerate(n[i * c : (i + 1) * c]) if x}
            for i in range(self.rows)
        ]

    def rank(self) -> int:
        return len(_eliminate(self._sparse_rows()))

    def det(self) -> Fraction:
        """int_det of the numerators, divided by d^n once."""
        if not self.is_square:
            raise DimensionError("determinant of non-square matrix")
        return Fraction(int_det(self._n, self.rows), self._d**self.rows)

    def inverse(self) -> "RatMatrix":
        """Gauss–Jordan on [N | d·I], which has the row space of [M | I]."""
        if not self.is_square:
            raise DimensionError("inverse of non-square matrix")
        n, d = self.rows, self._d
        rows = self._sparse_rows()
        for i, row in enumerate(rows):
            row[n + i] = d
        stored = _eliminate(rows)
        if any(p >= n for p in stored):
            raise SingularMatrixError("matrix is singular")
        return _right_block(stored, n, n)

    def kernel_basis(self) -> list[tuple]:
        """Rational basis of the null space {x : Mx = 0}, as coordinate tuples.

        Basis vectors are scaled to primitive integer vectors so downstream
        integer searches can reuse them directly.
        """
        return [tuple(map(Fraction, v)) for v in sparse_kernel_basis(self._sparse_rows(), self.cols)]

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """Exact solution X of self @ X = rhs; raises if inconsistent/underdetermined."""
        if rhs.rows != self.rows:
            raise DimensionError("rhs row count mismatch")
        n = self.cols
        g = gcd(self._d, rhs._d)
        # row i of [A | B] times d_A·d_B/g is integral
        rows = self._sparse_rows(rhs._d // g)
        for row, b in zip(rows, rhs._sparse_rows(self._d // g, n)):
            row.update(b)
        stored = _eliminate(rows)
        if any(p >= n for p in stored):
            raise SingularMatrixError("inconsistent linear system")
        if len(stored) < n:
            raise SingularMatrixError("underdetermined linear system")
        return _right_block(stored, n, rhs.cols)

    def char_poly(self) -> tuple:
        """Monic characteristic polynomial det(X·I − M), ascending coefficients.

        int_char_poly of the numerator matrix N: with M = N/d the coefficient
        of X^i is that of N divided by d^(n−i).
        """
        if not self.is_square:
            raise DimensionError("characteristic polynomial of non-square matrix")
        n, d = self.rows, self._d
        return tuple(Fraction(x, d ** (n - i)) for i, x in enumerate(int_char_poly(self._n, n)))

    # -- JSON literal format -------------------------------------------------

    def to_json_obj(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "RatMatrix":
        if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
            raise ValueError("matrix literal must be a non-empty array of arrays")
        # every entry is validated before the shape: a bad entry in a ragged
        # literal reports the entry
        entries = [_json_entry(x) for row in obj for x in row]
        cols = len(obj[0])
        if any(len(row) != cols for row in obj):
            raise DimensionError("ragged rows")
        return cls(len(obj), cols, entries)

    @classmethod
    def from_json(cls, text: str) -> "RatMatrix":
        return cls.from_json_obj(json.loads(text))


# the slots' member descriptors store past RatMatrix.__setattr__, which raises
_SET_ROWS, _SET_COLS, _SET_N, _SET_D = (RatMatrix.__dict__[name].__set__ for name in RatMatrix.__slots__)


def _init(m: RatMatrix, rows: int, cols: int, n: tuple, d: int) -> None:
    _SET_ROWS(m, rows)
    _SET_COLS(m, cols)
    _SET_N(m, n)
    _SET_D(m, d)


def _make(rows: int, cols: int, n: tuple, d: int) -> RatMatrix:
    """The matrix n/d, d > 0, divided through by gcd(n…, d)."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = tuple(x // g for x in n)
            d //= g
    m = object.__new__(RatMatrix)
    _init(m, rows, cols, n, d)
    return m


def int_det(a: Sequence[int], n: int) -> int:
    """The determinant of the row-major n×n integer matrix a: a closed form
    for 1 ≤ n ≤ 4, Bareiss's elimination otherwise."""
    if 0 < n < 5:
        return _SMALL_DET[n](a)
    return _bareiss_det(a, n)


def int_char_poly(a: Sequence[int], n: int) -> list[int]:
    """det(X·I − A) for the row-major n×n integer matrix a, ascending: a
    closed form for 1 ≤ n ≤ 4, Berkowitz's algorithm otherwise."""
    if 0 < n < 5:
        return _SMALL_CHAR_POLY[n](a)
    return _berkowitz_char_poly(a, n)


# The closed forms. The coefficient of X^(n−k) in det(X·I − A) is (−1)^k
# times the sum of the k×k principal minors of A (Horn and Johnson, Matrix
# Analysis, §1.2). The 4×4 determinant is the Laplace expansion along rows
# 0–1: the sum over columns i < j of the 2×2 minor of rows 0–1 on i, j times
# the complementary minor of rows 2–3, signed (−1)^(i+j+1). The 3×3
# principal minors on rows 0, 1, 2 and 0, 1, 3 expand along their last row
# into the minors of rows 0–1, and those on rows 0, 2, 3 and 1, 2, 3 along
# their first row into the minors of rows 2–3.


def _det2(a) -> int:
    a0, a1, a2, a3 = a
    return a0 * a3 - a1 * a2


def _det3(a) -> int:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    return a0 * (a4 * a8 - a5 * a7) - a1 * (a3 * a8 - a5 * a6) + a2 * (a3 * a7 - a4 * a6)


def _det4(a) -> int:
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    return (
        (a0 * a5 - a1 * a4) * (a10 * a15 - a11 * a14)
        - (a0 * a6 - a2 * a4) * (a9 * a15 - a11 * a13)
        + (a0 * a7 - a3 * a4) * (a9 * a14 - a10 * a13)
        + (a1 * a6 - a2 * a5) * (a8 * a15 - a11 * a12)
        - (a1 * a7 - a3 * a5) * (a8 * a14 - a10 * a12)
        + (a2 * a7 - a3 * a6) * (a8 * a13 - a9 * a12)
    )


def _char_poly2(a) -> list[int]:
    a0, a1, a2, a3 = a
    return [a0 * a3 - a1 * a2, -a0 - a3, 1]


def _char_poly3(a) -> list[int]:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    m01, m02, m12 = a0 * a4 - a1 * a3, a0 * a8 - a2 * a6, a4 * a8 - a5 * a7
    det = a0 * m12 - a1 * (a3 * a8 - a5 * a6) + a2 * (a3 * a7 - a4 * a6)
    return [-det, m01 + m02 + m12, -a0 - a4 - a8, 1]


def _char_poly4(a) -> list[int]:
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    # s_ij: rows 0–1, columns i, j; t_ij: rows 2–3, columns i, j
    s01, s02, s03 = a0 * a5 - a1 * a4, a0 * a6 - a2 * a4, a0 * a7 - a3 * a4
    s12, s13, s23 = a1 * a6 - a2 * a5, a1 * a7 - a3 * a5, a2 * a7 - a3 * a6
    t01, t02, t03 = a8 * a13 - a9 * a12, a8 * a14 - a10 * a12, a8 * a15 - a11 * a12
    t12, t13, t23 = a9 * a14 - a10 * a13, a9 * a15 - a11 * a13, a10 * a15 - a11 * a14
    det = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01
    minors3 = (
        a10 * s01 - a9 * s02 + a8 * s12  # rows 0, 1, 2
        + a15 * s01 - a13 * s03 + a12 * s13  # rows 0, 1, 3
        + a0 * t23 - a2 * t03 + a3 * t02  # rows 0, 2, 3
        + a5 * t23 - a6 * t13 + a7 * t12  # rows 1, 2, 3
    )
    minors2 = s01 + t23 + a0 * a10 - a2 * a8 + a0 * a15 - a3 * a12 + a5 * a10 - a6 * a9 + a5 * a15 - a7 * a13
    return [det, -minors3, minors2, -a0 - a5 - a10 - a15, 1]


_SMALL_DET = (None, lambda a: a[0], _det2, _det3, _det4)
_SMALL_CHAR_POLY = (None, lambda a: [-a[0], 1], _char_poly2, _char_poly3, _char_poly4)


def _bareiss_det(a: Sequence[int], n: int) -> int:
    """The determinant of the row-major n×n integer matrix a, by Bareiss's
    fraction-free elimination. A row that is zero in the pivot column is
    left as it is when the pivot equals the previous one."""
    rows = [list(a[i * n : (i + 1) * n]) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        p = rows[k][k]
        ptail = rows[k][k + 1 :]
        # every new entry is a minor of the integer matrix: // is exact
        for row in rows[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(x * p - f * y) // prev for x, y in zip(row[k + 1 :], ptail)]
            elif p != prev:
                row[k + 1 :] = [x * p // prev for x in row[k + 1 :]]
        prev = p
    return sign * prev


def _berkowitz_char_poly(a: Sequence[int], n: int) -> list[int]:
    """det(X·I − A) for the row-major n×n integer matrix a, ascending, by
    Berkowitz's division-free algorithm: the characteristic polynomial of
    each leading (k+1)×(k+1) block is a Toeplitz matrix times that of the
    leading k×k block."""
    rows = [a[i * n : (i + 1) * n] for i in range(n)]
    p = [1]  # descending coefficients for the leading k×k block
    for k in range(n):
        # t = (1, −a_kk, −R·S, −R·A·S, …, −R·A^(k−1)·S): R the row k and S
        # the column k inside the leading block A
        r = rows[k][:k]
        lead = [row[:k] for row in rows[:k]]
        s = [row[k] for row in rows[:k]]
        t = [1, -rows[k][k]]
        for step in range(k):
            t.append(-sum(map(mul, r, s)))
            if step < k - 1:
                s = [sum(map(mul, row, s)) for row in lead]
        p = [sum(t[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1)) for i in range(k + 2)]
    return p[::-1]


def _int_matmul(a: tuple, b: tuple, n: int, k: int, m: int) -> tuple:
    """The n×m integer product of the row-major n×k a and k×m b: row i is
    int_combination of the rows of b with the entries of row i of a. A zero
    row of a gives one shared zero row."""
    brows = [b[t * m : (t + 1) * m] for t in range(k)]
    zero = (0,) * m
    out = []
    for i in range(n):
        out.extend(int_combination(a[i * k : (i + 1) * k], brows, zero))
    return tuple(out)


def int_combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], zero: Sequence[int]) -> Sequence[int]:
    """Σ coeffs[t]·rows[t] for integer rows of one length, and zero when
    every coefficient is 0. The first row with a nonzero coefficient starts
    the sum, as it is when the coefficient is 1 and scaled once otherwise; a
    later one is added or subtracted unscaled when its coefficient is ±1."""
    acc = zero
    terms = zip(coeffs, rows)
    for x, row in terms:
        if x:
            acc = row if x == 1 else list(map(mul, row, repeat(x)))
            break
    # the terms after the first nonzero one
    for x, row in terms:
        if x == 1:
            acc = list(map(add, acc, row))
        elif x == -1:
            acc = list(map(sub, acc, row))
        elif x:
            acc = list(map(add, acc, map(mul, row, repeat(x))))
    return acc


def _right_block(stored: dict, n: int, width: int) -> RatMatrix:
    """Columns n … n+width−1 of the reduced row echelon form whose pivots
    are 0 … n−1, from the stored integer rows of `_eliminate`: row p is
    stored[p] divided by its pivot entry, all over the lcm of the pivots."""
    rows = [stored[p] for p in range(n)]
    d = lcm(*(row[p] for p, row in enumerate(rows)))
    out = []
    for p, row in enumerate(rows):
        f = d // row[p]  # exact and of the pivot's sign
        out.extend(f * row.get(n + j, 0) for j in range(width))
    return _make(n, width, tuple(out), d)


def _primitive_row(row: dict) -> dict:
    """A nonzero integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _cross(row: dict, prow: dict, p: int) -> dict:
    """a·row − b·prow with a/b = prow[p]/row[p] in lowest terms: an integer
    combination that is zero in column p."""
    a, b = prow[p], row[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in prow.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _insert(stored: dict, row: dict) -> Optional[int]:
    """One step of `_eliminate`: reduce the integer row against the stored
    rows, store what is left under its leading column and clear that column
    from the other stored rows. Returns the new pivot column, or None if the
    row reduced to zero."""
    row = {j: v for j, v in row.items() if v}
    for p in [j for j in row if j in stored]:
        row = _cross(row, stored[p], p)
    if not row:
        return None
    row = _primitive_row(row)
    c = min(row)
    for q, other in stored.items():
        if c in other:
            stored[q] = _primitive_row(_cross(other, row, c))
    stored[c] = row
    return c


def _eliminate(rows: Iterable[dict]) -> dict:
    """Fraction-free Gauss–Jordan on sparse integer rows {column: value}.

    Returns {pivot column: row}: the reduced row echelon form, each row as
    a primitive integer multiple. Each row is reduced by integer
    cross-multiplication against the stored row of each pivot column it
    meets, then divided by its content. A row that stays nonzero is stored
    with its leading column as a new pivot, and that column is cleared from
    the stored rows. Every stored row thus leads with its pivot and is zero
    at the other pivots, so the stored rows scaled to pivot 1 are the
    reduced row echelon form, which is unique.
    """
    stored: dict = {}
    for row in rows:
        _insert(stored, row)
    return stored


def sparse_kernel_basis(rows: Sequence[dict], ncols: int) -> list[tuple]:
    """Basis of the null space of the system whose rows are the sparse
    integer {column: value} dicts `rows` over `ncols` unknowns: one
    primitive integer vector per free column, its first nonzero entry
    positive, as a tuple of ints."""
    stored = _eliminate(rows)
    in_column: dict = {}  # free column -> [(pivot column, pivot entry, entry)]
    for pc, row in stored.items():
        a = row[pc]
        for j, x in row.items():
            if j != pc:
                in_column.setdefault(j, []).append((pc, a, x))
    basis = []
    for fc in range(ncols):
        if fc in stored:
            continue
        terms = in_column.get(fc, ())
        scale = lcm(*(a for _, a, _ in terms))
        v = [0] * ncols
        v[fc] = scale
        for pc, a, x in terms:
            v[pc] = -x * (scale // a)
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in v))
    return basis


def matrix_min_poly(m: RatMatrix) -> tuple:
    """Monic minimal polynomial of a square matrix, ascending rational
    coefficients, via the first linear dependence among its powers.

    The powers enter one elimination one at a time, each as the row
    (vec M^s | e_s) times its denominator; the e-columns record which
    combination of powers a stored row is. The first row that reduces to
    zero in the vec-columns is the dependence."""
    if not m.is_square:
        raise DimensionError("minimal polynomial of non-square matrix")
    n = m.rows
    size = n * n
    stored: dict = {}
    power = RatMatrix.identity(n)
    for s in range(n + 1):
        if s:
            power = power @ m
        row = dict(enumerate(power._n))
        row[size + s] = power._d
        pivot = _insert(stored, row)
        if pivot >= size:
            dependence = stored[pivot]
            return tuple(Fraction(dependence.get(size + i, 0), dependence[size + s]) for i in range(s + 1))
    raise ArithmeticError("no dependence among matrix powers")  # pragma: no cover


class Permutation:
    """Permutation of {0,…,n−1}; images[i] = π(i)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection on 0..n-1")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    def compose(self, other: "Permutation") -> "Permutation":
        """self ∘ other: apply `other` first, then `self`."""
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(self.images[other.images[i]] for i in range(len(self)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)


def perm_matrix(pi: Permutation) -> RatMatrix:
    """Matrix K with K[i,j] = 1 iff j = π(i); K_{π1}·K_{π2} = K_{π2∘π1}."""
    n = len(pi)
    return RatMatrix.from_integers(n, n, (int(pi(i) == j) for i in range(n) for j in range(n)))
