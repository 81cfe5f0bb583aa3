"""Built-in demo inputs: the dihedral D3 family, the quaternion group Q8,
flat classics (torus, circle, Klein bottle), and the cyclic rotation
representations C4/C5."""

from __future__ import annotations

from .fingrp import (
    FiniteMatrixGroup,
    RationalRep,
    generate_group,
    multiple,
    natural_rep,
    rep_from_generator_images,
)
from .intpoly import cyclotomic
from .ratmat import RatMatrix
from .numfield import companion_matrix

DEMO_NAMES = ("d3", "q8", "klein", "torus", "c5", "c4")


def d3_group() -> FiniteMatrixGroup:
    a = RatMatrix.from_rows([[0, -1], [1, -1]])
    b = RatMatrix.from_rows([[0, -1], [-1, 0]])
    return generate_group([a, b])


def rho3(group: FiniteMatrixGroup | None = None) -> RationalRep:
    return natural_rep(group or d3_group())


def rho1(group: FiniteMatrixGroup) -> RationalRep:
    one = RatMatrix.identity(1)
    return rep_from_generator_images(group, [one, one])


def rho2(group: FiniteMatrixGroup) -> RationalRep:
    return rep_from_generator_images(
        group, [RatMatrix.identity(1), RatMatrix.from_rows([[-1]])]
    )


def rho3_prime(group: FiniteMatrixGroup) -> RationalRep:
    """Same rotation image, reflected through the swap matrix; equivalent to
    the natural 2-dimensional representation over Q but not over Z."""
    return rep_from_generator_images(
        group,
        [RatMatrix.from_rows([[0, -1], [1, -1]]), RatMatrix.from_rows([[0, 1], [1, 0]])],
    )


def m_rho3(m: int) -> RationalRep:
    return multiple(rho3(), m)


def d3_degree2_rep(group: FiniteMatrixGroup) -> RationalRep:
    """The 4-dimensional representation carried by the degree-2 sub-basis
    [x1,x3], [x1,x4], [x2,x3], [x2,x4]."""
    a_mat = RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, 1], [1, -1, -1, 1]])
    b_mat = RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return rep_from_generator_images(group, [a_mat, b_mat])


def q8_rep() -> RationalRep:
    """Left regular action of the quaternion units on the basis 1, i, j, k:
    the 4-dimensional rational irreducible of Q8."""
    li = RatMatrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    lj = RatMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    return natural_rep(generate_group([li, lj]))


def klein_rep() -> RationalRep:
    return natural_rep(generate_group([RatMatrix.from_rows([[1, 0], [0, -1]])]))


def torus_rep(dim: int = 2) -> RationalRep:
    return natural_rep(generate_group([RatMatrix.identity(dim)]))


def circle_rep() -> RationalRep:
    return torus_rep(1)


def c5_rep() -> RationalRep:
    return natural_rep(generate_group([companion_matrix(cyclotomic(5))]))


def c4_rep() -> RationalRep:
    return natural_rep(generate_group([companion_matrix(cyclotomic(4))]))
