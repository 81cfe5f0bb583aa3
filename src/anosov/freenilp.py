"""Free nilpotent Lie algebra on r generators of class c: Hall basis, Witt
dimensions, and the graded action induced on each degree by a matrix acting
on the degree-1 part.

Hall trees are nested tuples over generator indices 0..r−1. The element
order is degree first, then creation order, which for degree 2 is the
lexicographic order on [x_i, x_j], i < j. Column convention throughout:
column j of a graded action holds the image of the j-th basis element.

The free Lie algebra embeds in the tensor algebra by [a, b] ↦ ab − ba
(Reutenauer, Free Lie Algebras, ch. 0), where m acts on degree d as m^{⊗d}.
With H the degree-d Hall elements written over the words of length d, the
degree-d action is the unique A with H·A = m^{⊗d}·H: one exact solve for
every degree, which raises if an image is not a Lie element.

full_action_hyperbolic is a second, independent route to c-hyperbolicity:
it runs the exact unit-circle test on the characteristic polynomial of each
graded action instead of on the eigenvalue-product polynomials of the
degree-1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain

from .hyper import FOUND, unit_circle_root_test
from .intpoly import IntPoly, divides, eig_product_poly, factor_over_Q
from .ratmat import RatMatrix, SingularMatrixError

MAX_TOTAL_DIMENSION = 10**5
MAX_TENSOR_ENTRIES = 2 * 10**6  # r^c·W(c), the top degree's tensor matrix


@lru_cache(maxsize=None)
def witt_dimension(r: int, d: int) -> int:
    """W(d), the rank of the degree-d component, from r^d = Σ_{e|d} e·W(e):
    a word of length d is the power of one primitive word of a length e | d,
    and those fall into W(e) rotation classes of e words, one Lyndon word
    in each."""
    return (r**d - sum(e * witt_dimension(r, e) for e in range(1, d) if d % e == 0)) // d


def tree_str(t, names: str = "x") -> str:
    if isinstance(t, int):
        return f"{names}{t + 1}"
    return f"[{tree_str(t[0], names)},{tree_str(t[1], names)}]"


@dataclass(frozen=True)
class HallBasis:
    r: int
    c: int
    by_degree: tuple  # by_degree[i] = tuple of Hall trees of degree i+1

    def degree_dims(self) -> list[int]:
        return [len(layer) for layer in self.by_degree]

    def elements(self, degree: int) -> tuple:
        return self.by_degree[degree - 1]


def hall_basis(r: int, c: int) -> HallBasis:
    if r < 1 or c < 1:
        raise ValueError("need r >= 1 generators and class c >= 1")
    total = sum(witt_dimension(r, d) for d in range(1, c + 1))
    if total > MAX_TOTAL_DIMENSION:
        raise ValueError(f"total dimension {total} exceeds guard {MAX_TOTAL_DIMENSION}")
    layers = [tuple(range(r))]
    order = {i: i for i in range(r)}
    for d in range(2, c + 1):
        layer = []
        for a in range(1, d):
            for u in layers[a - 1]:
                for v in layers[d - a - 1]:
                    # the Hall condition: u < v, and v = [v1, v2] has v1 ≤ u
                    if order[u] < order[v] and (isinstance(v, int) or order[v[0]] <= order[u]):
                        layer.append((u, v))
        for t in layer:
            order[t] = len(order)
        layers.append(tuple(layer))
        assert len(layer) == witt_dimension(r, d)
    return HallBasis(r=r, c=c, by_degree=tuple(layers))


@dataclass(frozen=True)
class GradedAction:
    degree: int
    matrix: RatMatrix
    basis_elements: tuple


def graded_action(m: RatMatrix, basis: HallBasis, degree: int) -> GradedAction:
    """Action induced on the degree-d component by x_j ↦ Σ_k m[k,j]·x_k.
    Every degree is refused when the top degree's tensor matrix would
    exceed MAX_TENSOR_ENTRIES, so a caller stops before building any."""
    if not m.is_square or m.rows != basis.r:
        raise ValueError("matrix size must equal the generator count")
    entries = basis.r**basis.c * witt_dimension(basis.r, basis.c)
    if entries > MAX_TENSOR_ENTRIES:
        raise ValueError(
            f"class {basis.c} on {basis.r} generators needs a tensor matrix of {entries} entries, "
            f"over the guard {MAX_TENSOR_ENTRIES}"
        )
    if m.det() == 0:
        raise SingularMatrixError("graded action needs an invertible matrix")
    if not 1 <= degree <= basis.c:
        raise ValueError("degree out of range")
    layer = basis.elements(degree)
    hall = _hall_tensors(layer, basis.r, degree)
    return GradedAction(degree, hall.solve(_tensor_power_times(m, hall, degree)), layer)


def _hall_tensors(layer, r: int, degree: int) -> RatMatrix:
    """H: column j is the j-th Hall element of the layer in the tensor
    algebra, under [u, v] ↦ uv − vu, with the word i_1…i_d in the row whose
    base-r digits are i_1…i_d."""
    tensors = {i: {(i,): 1} for i in range(r)}

    def tensor(t) -> dict:
        if t not in tensors:
            tu, tv = tensor(t[0]), tensor(t[1])
            out: dict = {}
            for u, cu in tu.items():
                for v, cv in tv.items():
                    out[u + v] = out.get(u + v, 0) + cu * cv
                    out[v + u] = out.get(v + u, 0) - cu * cv
            tensors[t] = out
        return tensors[t]

    n = len(layer)
    entries = [0] * (r**degree * n)
    for j, t in enumerate(layer):
        for word, coeff in tensor(t).items():
            entries[reduce(lambda row, letter: row * r + letter, word, 0) * n + j] = coeff
    return RatMatrix.from_integers(r**degree, n, entries)


def _tensor_power_times(m: RatMatrix, x: RatMatrix, degree: int) -> RatMatrix:
    """m^{⊗d}·x for x with r^d rows indexed as in _hall_tensors, one slot at
    a time: m acts on the first letter of every word, then every word
    rotates left by one letter. After d rounds each letter has been acted
    on once and every word is back in its row."""
    r, n = m.rows, x.cols
    rest = x.rows // r  # the words of one first letter
    for _ in range(degree):
        y, den = (m @ RatMatrix.from_integers(r, rest * n, *x.integer_form())).integer_form()
        # the row of i_1 i_2…i_d moves to that of i_2…i_d i_1
        rotated = (y[(i * rest + k) * n : (i * rest + k + 1) * n] for k in range(rest) for i in range(r))
        x = RatMatrix.from_integers(x.rows, n, chain.from_iterable(rotated), den)
    return x


def restricted_degree2_action(m: RatMatrix, pairs: list[tuple[int, int]]) -> RatMatrix:
    """Degree-2 action restricted to the span of the listed [x_i, x_j]
    elements (1-based index pairs, i < j); raises if that span is not
    invariant."""
    action = graded_action(m, hall_basis(m.rows, 2), 2)
    a = action.matrix
    positions = [action.basis_elements.index((i - 1, j - 1)) for i, j in pairs]
    if any(a[i, j] for j in positions for i in range(a.rows) if i not in positions):
        raise ValueError("selected degree-2 subspace is not invariant")
    return RatMatrix.from_rows([[a[i, j] for j in positions] for i in positions])


def full_action_hyperbolic(m: RatMatrix, c: int) -> tuple[bool, list[dict]]:
    """Exact unit-circle test on the characteristic polynomial of every
    graded action of degree ≤ c, with a root-set containment cross-check
    against the eigenvalue-product polynomial of the degree-1 matrix."""
    basis = hall_basis(m.rows, c)
    f1 = IntPoly.clear_denominators(m.char_poly())
    hyperbolic = True
    reports = []
    for degree in range(1, c + 1):
        action = graded_action(m, basis, degree)
        fd = IntPoly.clear_denominators(action.matrix.char_poly())
        prod_poly = eig_product_poly(f1, degree)
        for factor, _ in factor_over_Q(fd):
            if not divides(factor, prod_poly):
                raise ArithmeticError(
                    f"degree-{degree} eigenvalues escape the {degree}-fold product root set"
                )
        result = unit_circle_root_test(fd)
        on_circle = result.status == FOUND
        hyperbolic = hyperbolic and not on_circle
        reports.append(
            {
                "degree": degree,
                "dimension": action.matrix.rows,
                "status": result.status,
                "hyperbolic": not on_circle,
                "certified_exact": True,
            }
        )
    return hyperbolic, reports
