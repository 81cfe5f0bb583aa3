"""Exact dense linear algebra over the rationals, plus the permutation-matrix
and Kronecker calculus used by the rest of the package.

Matrices are immutable and value-semantic: every operation returns a fresh
matrix and entries are `fractions.Fraction`, which keeps everything in lowest
terms with positive denominator automatically.

Kernels, ranks, solves and inverses go through one elimination routine,
`_rref`: fraction-free Gauss–Jordan on sparse integer rows. Each row is
cleared of denominators, reduced by integer cross-multiplication and divided
by the gcd of its entries; only the final pivot rows become Fractions.
`det` runs Bareiss's fraction-free elimination on the same integer rows
(Bareiss, Math. Comp. 1968). `sparse_kernel_basis` takes a system given as
sparse rows, for callers whose equations have few nonzero coefficients.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
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

    def _sparse_rows(self) -> list[dict]:
        """The rows as {column: entry} dicts without their zero entries."""
        c = self.cols
        return [{j: x for j, x in enumerate(self._e[i * c : (i + 1) * c]) if x} for i in range(self.rows)]

    def _rref(self):
        """Reduced row echelon form; see the module-level `_rref`."""
        return _rref(self._sparse_rows())

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Fraction:
        """Bareiss elimination on the rows cleared to integers, then one
        division by the product of the row scalings."""
        if not self.is_square:
            raise DimensionError("determinant of non-square matrix")
        n = self.rows
        scale = 1
        rows = []
        for row in self._sparse_rows():
            d, ints = _integer_row(row)
            scale *= d
            rows.append(ints)
        sign, prev = 1, 1
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if k in rows[i]), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != k:
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                sign = -sign
            prow = rows[k]
            p = prow[k]
            # every new entry is a minor of the integer matrix: // is exact
            for i in range(k + 1, n):
                row = rows[i]
                f = row.pop(k, 0)
                if f:
                    new = {}
                    for j in row.keys() | prow.keys():
                        if j > k:
                            x = (row.get(j, 0) * p - f * prow.get(j, 0)) // prev
                            if x:
                                new[j] = x
                    rows[i] = new
                elif p != prev:
                    rows[i] = {j: v * p // prev for j, v in row.items()}
            prev = p
        return Fraction(sign * prev, scale)

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        one, zero = Fraction(1), Fraction(0)
        red, pivots = _rref({**row, n + i: one} for i, row in enumerate(self._sparse_rows()))
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return RatMatrix(n, n, [row.get(n + j, zero) for row in red for j in range(n)])

    def kernel_basis(self) -> list[tuple]:
        """Rational basis of the null space {x : Mx = 0}, as coordinate tuples.

        Basis vectors are scaled to primitive integer vectors so downstream
        integer searches can reuse them directly.
        """
        return sparse_kernel_basis(self._sparse_rows(), self.cols)

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """Exact solution X of self @ X = rhs; raises if inconsistent/underdetermined."""
        if rhs.rows != self.rows:
            raise DimensionError("rhs row count mismatch")
        n = self.cols
        red, pivots = _rref(
            {**a, **{n + j: x for j, x in b.items()}}
            for a, b in zip(self._sparse_rows(), rhs._sparse_rows())
        )
        if any(p >= n for p in pivots):
            raise SingularMatrixError("inconsistent linear system")
        if len(pivots) < n:
            raise SingularMatrixError("underdetermined linear system")
        zero = Fraction(0)
        return RatMatrix(n, rhs.cols, [row.get(n + j, zero) for row in red for j in range(rhs.cols)])

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


def _integer_row(row: dict) -> tuple[int, dict]:
    """(d, d·row) for a sparse rational row, d the lcm of its denominators;
    zero entries are dropped."""
    d = lcm(*(x.denominator for x in row.values()))
    return d, {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}


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


def _rref(rows: Iterable[dict]):
    """Reduced row echelon form of sparse rational rows {column: value}.

    Returns (the nonzero rows as {column: Fraction} with pivot entry 1,
    their pivot columns ascending). Fraction-free: each row is cleared to
    integers and reduced by integer cross-multiplication against the stored
    row of each pivot column it meets, then divided by its content. A row
    that stays nonzero is stored with its leading column as a new pivot,
    and that column is cleared from the stored rows. Every stored row thus
    leads with its pivot and is zero at the other pivots, so the stored rows
    scaled to pivot 1 are the reduced row echelon form, which is unique.
    """
    stored: dict = {}
    for row in rows:
        row = _integer_row(row)[1]
        for p in [j for j in row if j in stored]:
            row = _cross(row, stored[p], p)
        if not row:
            continue
        row = _primitive_row(row)
        c = min(row)
        for q, other in stored.items():
            if c in other:
                stored[q] = _primitive_row(_cross(other, row, c))
        stored[c] = row
    pivots = sorted(stored)
    reduced = []
    for p in pivots:
        row = stored[p]
        a = row[p]
        reduced.append({j: Fraction(v, a) for j, v in row.items()})
    return reduced, pivots


def sparse_kernel_basis(rows: Sequence[dict], ncols: int) -> list[tuple]:
    """`RatMatrix.kernel_basis` of the system whose rows are the sparse
    {column: value} dicts `rows` over `ncols` unknowns."""
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    in_column: dict = {}  # free column -> [(pivot column, entry)]
    for row, pc in zip(red, pivots):
        for j, x in row.items():
            if j != pc:
                in_column.setdefault(j, []).append((pc, x))
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for pc, x in in_column.get(fc, ()):
            v[pc] = -x
        basis.append(_primitive(v))
    return basis


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
