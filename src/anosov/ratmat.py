"""Exact dense linear algebra over the rationals, plus the permutation-matrix
and Kronecker calculus used by the rest of the package.

Matrices are immutable and value-semantic: every operation returns a fresh
matrix and entries are `fractions.Fraction`, which keeps everything in lowest
terms with positive denominator automatically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence


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


class RatMatrix:
    """Dense matrix of arbitrary-precision rationals, row-major storage."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- construction ------------------------------------------------------

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
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def block_diag(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b[i, j]
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(out)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]]) -> "RatMatrix":
        if not columns:
            raise DimensionError("need at least one column")
        n = len(columns[0])
        return cls(n, len(columns), [columns[j][i] for i in range(n) for j in range(len(columns))])

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def entries(self) -> tuple:
        return self._e

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch in addition")
        return RatMatrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch in subtraction")
        return RatMatrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, s) -> "RatMatrix":
        s = _frac(s)
        return RatMatrix(self.rows, self.cols, [s * a for a in self._e])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        zero = Fraction(0)
        out = [zero] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = out
            base = i * m
            for t in range(k):
                x = arow[t]
                if not x:
                    continue
                brow = b[t * m : (t + 1) * m]
                for j in range(m):
                    y = brow[j]
                    if y:
                        orow[base + j] += x * y
        return RatMatrix(n, m, out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows, [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        )

    def trace(self) -> Fraction:
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(not x for x in self._e)

    # -- Kronecker calculus --------------------------------------------------

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product self ⊗ other with the standard block layout."""
        n, m = self.rows * other.rows, self.cols * other.cols
        out = [Fraction(0)] * (n * m)
        for i in range(self.rows):
            for j in range(self.cols):
                x = self[i, j]
                if not x:
                    continue
                for p in range(other.rows):
                    for q in range(other.cols):
                        y = other[p, q]
                        if y:
                            out[(i * other.rows + p) * m + j * other.cols + q] = x * y
        return RatMatrix(n, m, out)

    def kron_identity(self, k: int) -> "RatMatrix":
        """self ⊗ I_k: every entry m_ij is replaced by m_ij·I_k."""
        if k <= 0:
            raise DimensionError("Kronecker factor k must be >= 1")
        return self.kron(RatMatrix.identity(k))

    # -- elimination-based operations ---------------------------------------

    def _rref(self):
        """Reduced row echelon form; returns (rows as lists, pivot column list)."""
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Fraction:
        if not self.is_square:
            raise DimensionError("determinant of non-square matrix")
        n = self.rows
        m = [list(self.row(i)) for i in range(n)]
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
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        aug = RatMatrix(n, 2 * n, [x for i in range(n) for x in self.row(i) + RatMatrix.identity(n).row(i)])
        red, pivots = aug._rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return RatMatrix(n, n, [x for i in range(n) for x in red[i][n:]])

    def kernel_basis(self) -> list[tuple]:
        """Rational basis of the null space {x : Mx = 0}, as coordinate tuples.

        Basis vectors are scaled to primitive integer vectors so downstream
        integer searches can reuse them directly.
        """
        red, pivots = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(_primitive(v))
        return basis

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """Exact solution X of self @ X = rhs; raises if inconsistent/underdetermined."""
        if rhs.rows != self.rows:
            raise DimensionError("rhs row count mismatch")
        aug = RatMatrix(
            self.rows, self.cols + rhs.cols, [x for i in range(self.rows) for x in self.row(i) + rhs.row(i)]
        )
        red, pivots = aug._rref()
        if any(p >= self.cols for p in pivots):
            raise SingularMatrixError("inconsistent linear system")
        if len(pivots) < self.cols:
            raise SingularMatrixError("underdetermined linear system")
        sol = [[Fraction(0)] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            sol[pc] = red[r][self.cols :]
        return RatMatrix.from_rows(sol)

    def char_poly(self) -> tuple:
        """Monic characteristic polynomial det(X·I − M), ascending coefficients.

        Faddeev–LeVerrier over exact rationals; no floating point anywhere.
        """
        if not self.is_square:
            raise DimensionError("characteristic polynomial of non-square matrix")
        n = self.rows
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        mk = self
        ident = RatMatrix.identity(n)
        for k in range(1, n + 1):
            c = -mk.trace() / k
            coeffs[n - k] = c
            if k < n:
                mk = self @ (mk + ident.scale(c))
        return tuple(coeffs)

    # -- JSON literal format -------------------------------------------------

    def to_json_obj(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "RatMatrix":
        if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
            raise ValueError("matrix literal must be a non-empty array of arrays")
        return cls.from_rows([[_frac(x) for x in row] for row in obj])

    @classmethod
    def from_json(cls, text: str) -> "RatMatrix":
        return cls.from_json_obj(json.loads(text))


def matrix_min_poly(m: RatMatrix) -> tuple:
    """Monic minimal polynomial of a square matrix, ascending rational
    coefficients, via the first linear dependence among its powers."""
    if not m.is_square:
        raise DimensionError("minimal polynomial of non-square matrix")
    n = m.rows
    powers = [RatMatrix.identity(n)]
    for _ in range(n + 1):
        powers.append(powers[-1] @ m)
        system = RatMatrix.from_columns([list(p.entries()) for p in powers])
        kernel = system.kernel_basis()
        if kernel:
            vec = kernel[0]
            lead = next(i for i in range(len(vec) - 1, -1, -1) if vec[i])
            return tuple(vec[i] / vec[lead] for i in range(lead + 1))
    raise ArithmeticError("no dependence among matrix powers")  # pragma: no cover


def _primitive(vec: list) -> tuple:
    """Scale a rational vector to a primitive integer vector with fixed sign."""
    from math import gcd, lcm

    denom = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


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
    one, zero = Fraction(1), Fraction(0)
    return RatMatrix(n, n, [one if pi(i) == j else zero for i in range(n) for j in range(n)])
