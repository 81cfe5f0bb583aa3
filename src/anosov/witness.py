"""Construction and verification of c-hyperbolic integer-like matrices
commuting with a given representation.

Three construction paths, tried cheapest-certified first:

* tensor-shortcut — for an isotypic block with multiplicity m > c: a
  companion matrix of a degree-m hyperbolic polynomial, Kronecker-extended
  and moved through the base change aligning the copies.
* field-through-commutant — build J from the block structure I_m ⊗ ρ0:
  I_m ⊗ u for u a central generator image or a basis element of the leaf
  commutant E0, and, when u is a primitive d-th root of unity, C(Φ_e) ⊗ u
  with minimal polynomial Φ_ed for e prime to d with φ(e) = m; search a
  c-hyperbolic unit μ = p(θ) in the field Q(J), and return p(J). J depends
  on the block structure only.
* lattice-search — bounded enumeration of integer combinations of the
  commutant basis.

Every certificate is re-verified from scratch: exact commutation with the
generator images, integer characteristic polynomial with determinant ±1, and
the hyperbolicity report, the last two read off one characteristic
polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .fingrp import RationalRep
from .hyper import HyperbolicityReport, integer_char_poly, is_c_hyperbolic_poly
from .intpoly import IntPoly, cyclotomic, cyclotomic_index_of, totient
from .numfield import (
    FieldError,
    companion_matrix,
    hyperbolic_companion_poly,
    lattice_height,
    make_field,
    max_hyperbolicity_bound,
    max_norm_shell,
    search_c_hyperbolic_unit,
    unit_generators_for_field,
)
from .ratmat import RatMatrix, int_combination, matrix_min_poly
from .repdec import CommutantBasis, ComponentProfile, poly_at_matrix

TENSOR_SHORTCUT = "tensor-shortcut"
FIELD_THROUGH_COMMUTANT = "field-through-commutant"
LATTICE_SEARCH = "lattice-search"


@dataclass(frozen=True)
class WitnessCertificate:
    """char_poly is the witness's characteristic polynomial, ascending."""

    witness: RatMatrix
    char_poly: tuple
    c: int
    commutes: bool
    integer_like: bool
    hyperbolicity: HyperbolicityReport
    construction_path: str
    per_generator_commutation: tuple

    @property
    def is_valid(self) -> bool:
        return self.commutes and self.integer_like and self.hyperbolicity.verdict

    def to_json_obj(self) -> dict:
        return {
            "matrix": self.witness.to_json_obj(),
            "construction_path": self.construction_path,
            "char_poly": [str(c) for c in self.char_poly],
            "commutes": self.commutes,
            "integer_like": self.integer_like,
            "per_generator_commutation": list(self.per_generator_commutation),
            "hyperbolicity": self.hyperbolicity.to_json_obj(),
        }


def verify_witness(
    rep: RationalRep,
    candidate: RatMatrix,
    c: int,
    construction_path: str = "verified-input",
) -> WitnessCertificate:
    """Independent verification of the three defining properties; failures are
    recorded in the certificate rather than raised. Commutation is checked on
    the generators only, which is complete: a matrix commuting with ρ(s₁), …,
    ρ(s_k) commutes with their product ρ(s₁⋯s_k), by induction on k. The
    other two properties are read off the characteristic polynomial f, with
    |det| = |f(0)|."""
    if candidate.rows != rep.dimension or not candidate.is_square:
        raise ValueError("witness size does not match the representation")
    per_gen = tuple(
        candidate @ img == img @ candidate for img in rep.gen_images
    )
    commutes = all(per_gen)
    f = candidate.char_poly()
    integer_like = abs(f[0]) == 1 and all(x.denominator == 1 for x in f)
    if f[0] != 0:
        hyperbolicity = is_c_hyperbolic_poly(IntPoly.clear_denominators(f), c)
    else:
        hyperbolicity = HyperbolicityReport(c_tested=c, verdict=False, offending_product={"k": 1})
    return WitnessCertificate(
        witness=candidate,
        char_poly=f,
        c=c,
        commutes=commutes,
        integer_like=integer_like,
        hyperbolicity=hyperbolicity,
        construction_path=construction_path,
        per_generator_commutation=per_gen,
    )


# -- construction paths --------------------------------------------------------------


def tensor_shortcut(profile: ComponentProfile, c: int) -> Optional[tuple[RatMatrix, IntPoly]]:
    """Witness for an isotypic block I_m ⊗ ρ0: companion(f) ⊗ I_k in the
    aligned basis, f a degree-m hyperbolic unit polynomial. It commutes with
    I_m ⊗ ρ0 for every ρ0, and its eigenvalues are those of f, so no
    condition on ρ0 is needed. None when m ≤ c, where no such f exists."""
    f = hyperbolic_companion_poly(profile.multiplicity, c)
    if f is None:
        return None
    return companion_matrix(f).kron_identity(profile.dimension), f


def _coprime_cyclotomic_order(d: int, m: int) -> Optional[int]:
    """The smallest e ≥ 2 with gcd(e, d) = 1 and φ(e) = m, or None; as
    φ(e) ≥ √(e/2), every such e is at most 2m². None for odd m ≥ 3, since
    φ(e) is even for e ≥ 3."""
    return next((e for e in range(2, 2 * m * m + 1) if gcd(e, d) == 1 and totient(e) == m), None)


def _field_candidates(leaf: CommutantBasis, m: int):
    """(J, minpoly(J)) for each u in turn, the central generator images of
    the leaf and then the basis of its commutant E0: I_m ⊗ u, then
    C(Φ_e) ⊗ u when m > 1 and minpoly(u) = Φ_d (see field_through_commutant).
    Each pair is built only when the search reaches it."""
    gen_imgs = leaf.rep.gen_images
    central = (u for u in gen_imgs if all(u @ img == img @ u for img in gen_imgs))
    for u in itertools.chain(central, leaf.basis):
        try:
            g = IntPoly.from_rationals(matrix_min_poly(u))
        except ValueError:
            continue
        yield RatMatrix.identity(m).kron(u), g
        d = cyclotomic_index_of(g) if m > 1 else None
        e = d and _coprime_cyclotomic_order(d, m)
        if e:
            yield companion_matrix(cyclotomic(e)).kron(u), cyclotomic(e * d)


def field_through_commutant(
    leaf: CommutantBasis, m: int, c: int, exponent_bound: int = 10
) -> Optional[tuple[RatMatrix, str]]:
    """A witness for the block I_m ⊗ ρ0 with leaf commutant leaf = E0: an
    element J of M_m(E0) with irreducible integer minimal polynomial g, a
    c-hyperbolic unit μ = p(θ) in Q[X]/(g), and p(J).

    J comes from the block structure, not from a search. For u in E0,
    J = I_m ⊗ u generates Q(u). When minpoly(u) = Φ_d, take the smallest
    e ≥ 2 prime to d with φ(e) = m: J = C(Φ_e) ⊗ u commutes with I_m ⊗ ρ0
    as u commutes with ρ0, and its eigenvalues ζ_e^a·ζ_d^b are the
    primitive ed-th roots of unity (Washington, Introduction to Cyclotomic
    Fields, §2). J is diagonalizable, so g = Φ_ed, of degree m·φ(d), and
    Q(J) is a maximal subfield of M_m(Q(u)). make_field is the only shape
    filter, and each field is tried once."""
    seen = set()
    for j_mat, g in _field_candidates(leaf, m):
        if g in seen:
            continue
        seen.add(g)
        try:
            field = make_field(g)
        except FieldError:
            continue
        if c > max_hyperbolicity_bound(field):
            continue
        generators = unit_generators_for_field(field)
        if lattice_height(len(generators), 1) == 0:
            continue
        outcome = search_c_hyperbolic_unit(field, generators, c, exponent_bound)
        if not outcome.found:
            continue
        witness = poly_at_matrix(outcome.unit.coords, j_mat)
        return witness, FIELD_THROUGH_COMMUTANT
    return None


def lattice_search(
    com: CommutantBasis, c: int, height_bound: int
) -> tuple[Optional[RatMatrix], int]:
    """Enumerate integer combinations of the commutant basis com by increasing
    max-norm height; return (hit, candidates_screened), where hit is the first
    combination that is integer-like and c-hyperbolic, or None.

    Enumeration stops at lattice_height; high-dimensional commutants
    are the field and tensor paths' job, this is the small-case fallback.
    Many candidates share a characteristic polynomial, and the verdict
    depends only on that polynomial and c, so each is tested once, by
    is_c_hyperbolic_poly's closed form when its squarefree part has degree
    ≤ c. Candidates are integer numerators over one denominator d: each is
    the sum of the basis numerators over d scaled by its nonzero coordinates
    (int_combination: a coordinate ±1 adds or subtracts with no product),
    screened by its determinant before its characteristic polynomial
    (integer_char_poly; both in closed form up to size 4). Only a hit
    becomes a RatMatrix.

    Each candidate is screened once, but only one of each pair ±X is tested.
    −X has the eigenvalues of X negated: its determinant is ±det X, its
    characteristic polynomial (−1)ⁿ·f(−t) is integral exactly when f is,
    and every k-fold eigenvalue product keeps its modulus, so −X is a hit
    exactly when X is. Coordinates run h, h−1, …, −h, so of the two vectors
    ±v of height h the one whose first nonzero coordinate is positive comes
    first; the other is counted and skipped. A skipped vector could be a hit
    only if its partner, already tested, was one and returned, so the first
    hit and the count are those of testing every candidate.
    """
    dim = com.rep.dimension
    screened = 0
    verdicts: dict[IntPoly, bool] = {}
    basis = com.basis
    if not basis:
        return None, 0
    forms = [b.integer_form() for b in basis]
    d = lcm(*(den for _, den in forms))
    # the numerators of every basis element over d
    scaled = [tuple(x * (d // den) for x in n) for n, den in forms]
    zero = (0,) * (dim * dim)
    for h in range(1, lattice_height(len(basis), height_bound) + 1):
        for vec in max_norm_shell(len(basis), h):
            screened += 1
            if next(filter(None, vec)) < 0:
                continue
            acc = int_combination(vec, scaled, zero)
            f = integer_char_poly(acc, dim, d)
            if f is None:
                continue
            if f not in verdicts:
                verdicts[f] = is_c_hyperbolic_poly(f, c).verdict
            if verdicts[f]:
                return RatMatrix.from_integers(dim, dim, acc, d), screened
    return None, screened
