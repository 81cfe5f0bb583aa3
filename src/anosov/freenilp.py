"""Free nilpotent Lie algebra on r generators of class c: Hall basis, Witt
dimensions, and the graded action induced on each degree by a matrix acting
on the degree-1 part.

Hall trees are nested tuples over generator indices 0..r−1. The element
order is degree first, then creation order, which for degree 2 is the
lexicographic order on [x_i, x_j], i < j. Column convention throughout:
column j of a graded action holds the image of the j-th basis element.

full_action_hyperbolic is a second, independent route to c-hyperbolicity:
it runs the exact unit-circle test on the characteristic polynomial of each
graded action instead of on the eigenvalue-product polynomials of the
degree-1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyper import FOUND, unit_circle_root_test
from .intpoly import IntPoly, divides, eig_product_poly, factor_over_Q
from .ratmat import RatMatrix, SingularMatrixError

MAX_TOTAL_DIMENSION = 10**5


def witt_dimension(r: int, d: int) -> int:
    """(1/d)·Σ_{e|d} μ(e)·r^{d/e}, the rank of the degree-d component."""
    total = sum(_mobius(e) * r ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def _mobius(n: int) -> int:
    """The Möbius function μ(n) of n ≥ 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def tree_degree(t) -> int:
    return 1 if isinstance(t, int) else tree_degree(t[0]) + tree_degree(t[1])


def tree_str(t, names: str = "x") -> str:
    if isinstance(t, int):
        return f"{names}{t + 1}"
    return f"[{tree_str(t[0], names)},{tree_str(t[1], names)}]"


@dataclass(frozen=True)
class HallBasis:
    r: int
    c: int
    by_degree: tuple  # by_degree[i] = tuple of Hall trees of degree i+1
    order: dict  # tree -> global position, degree-major

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
                    if order[u] >= order[v]:
                        continue
                    if not isinstance(v, int) and order[v[0]] > order[u]:
                        continue
                    layer.append((u, v))
        for t in layer:
            order[t] = len(order)
        layers.append(tuple(layer))
        assert len(layer) == witt_dimension(r, d)
    return HallBasis(r=r, c=c, by_degree=tuple(layers), order=order)


def _combo_add(acc: dict, tree, coeff: Fraction) -> None:
    if not coeff:
        return
    acc[tree] = acc.get(tree, Fraction(0)) + coeff
    if not acc[tree]:
        del acc[tree]


def normalize_bracket(basis: HallBasis, tree) -> dict:
    """Rewrite an arbitrary bracket tree as a combination of Hall elements,
    using antisymmetry and the Jacobi identity; degree > c truncates to 0."""
    if tree_degree(tree) > basis.c:
        return {}
    if isinstance(tree, int):
        return {tree: Fraction(1)}
    left = normalize_bracket(basis, tree[0])
    right = normalize_bracket(basis, tree[1])
    acc: dict = {}
    for u, cu in left.items():
        for v, cv in right.items():
            for w, cw in _normalize_pair(basis, u, v).items():
                _combo_add(acc, w, cu * cv * cw)
    return acc


def _normalize_pair(basis: HallBasis, u, v) -> dict:
    """[u, v] for Hall elements u, v, as a Hall combination."""
    if u == v:
        return {}
    order = basis.order
    if order[u] > order[v]:
        return {w: -c for w, c in _normalize_pair(basis, v, u).items()}
    if tree_degree(u) + tree_degree(v) > basis.c:
        return {}
    if isinstance(v, int) or order[v[0]] <= order[u]:
        return {(u, v): Fraction(1)}
    # u < v = [v1, v2] with v1 > u: [u,[v1,v2]] = [[u,v1],v2] + [v1,[u,v2]]
    v1, v2 = v
    acc: dict = {}
    for w, c in _normalize_pair(basis, u, v1).items():
        for w2, c2 in _normalize_pair(basis, w, v2).items():
            _combo_add(acc, w2, c * c2)
    for w, c in _normalize_pair(basis, u, v2).items():
        for w2, c2 in _normalize_pair(basis, v1, w).items():
            _combo_add(acc, w2, c * c2)
    return acc


@dataclass(frozen=True)
class GradedAction:
    degree: int
    matrix: RatMatrix
    basis_elements: tuple


def graded_action(m: RatMatrix, basis: HallBasis, degree: int) -> GradedAction:
    """Action induced on the degree-d component by x_j ↦ Σ_k m[k,j]·x_k."""
    if not m.is_square or m.rows != basis.r:
        raise ValueError("matrix size must equal the generator count")
    if m.det() == 0:
        raise SingularMatrixError("graded action needs an invertible matrix")
    if not 1 <= degree <= basis.c:
        raise ValueError("degree out of range")
    if degree == 1:
        return GradedAction(1, m, basis.by_degree[0])
    layer = basis.by_degree[degree - 1]
    index = {t: i for i, t in enumerate(layer)}
    if degree == 2:
        return GradedAction(2, _antisymmetric_square(m, layer, index), layer)
    columns = []
    for t in layer:
        combo: dict = {}
        for leaf_tree, coeff in _expand_tree(m, t).items():
            for w, cw in normalize_bracket(basis, leaf_tree).items():
                _combo_add(combo, w, coeff * cw)
        col = [Fraction(0)] * len(layer)
        for w, cw in combo.items():
            col[index[w]] = cw
        columns.append(col)
    return GradedAction(degree, RatMatrix.from_columns(columns), layer)


def _antisymmetric_square(m: RatMatrix, layer, index) -> RatMatrix:
    # [m·x_i, m·x_j] = Σ_{k<l} (m_ki·m_lj − m_li·m_kj) [x_k, x_l]
    columns = []
    for (i, j) in layer:
        col = [Fraction(0)] * len(layer)
        for (k, l) in layer:
            col[index[(k, l)]] = m[k, i] * m[l, j] - m[l, i] * m[k, j]
        columns.append(col)
    return RatMatrix.from_columns(columns)


def _expand_tree(m: RatMatrix, tree) -> dict:
    """Substitute each leaf x_j by Σ_k m[k,j]·x_k and expand multilinearly."""
    if isinstance(tree, int):
        return {k: m[k, tree] for k in range(m.rows) if m[k, tree]}
    left = _expand_tree(m, tree[0])
    right = _expand_tree(m, tree[1])
    out: dict = {}
    for u, cu in left.items():
        for v, cv in right.items():
            _combo_add(out, (u, v), cu * cv)
    return out


def restricted_degree2_action(m: RatMatrix, pairs: list[tuple[int, int]]) -> RatMatrix:
    """Degree-2 action restricted to the span of the listed [x_i, x_j]
    elements (1-based index pairs, i < j); raises if that span is not
    invariant."""
    basis = hall_basis(m.rows, 2)
    action = graded_action(m, basis, 2)
    layer = list(action.basis_elements)
    positions = [layer.index((i - 1, j - 1)) for i, j in pairs]
    outside = [p for p in range(len(layer)) if p not in positions]
    for j in positions:
        for i in outside:
            if action.matrix[i, j]:
                raise ValueError("selected degree-2 subspace is not invariant")
    rows = [[action.matrix[i, j] for j in positions] for i in positions]
    return RatMatrix.from_rows(rows)


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
