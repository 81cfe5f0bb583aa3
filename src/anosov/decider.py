"""Top-level decision pipeline.

A representation admits a commuting c-hyperbolic integer-like matrix exactly
when every Q-irreducible component class, occurring with multiplicity m and
splitting into r real-irreducible components, satisfies r > c/m. The verdict
compares the exact rationals and cross-checks the integer form r·m > c.
Witness construction searches each isotypic block once, reassembles through
the decomposition base change and verifies the global matrix once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .fingrp import RationalRep, multiple
from .intpoly import cyclotomic
from .numfield import (
    MAX_LATTICE_CANDIDATES,
    lattice_height,
    make_field,
    search_c_hyperbolic_unit,
    unit_generators_for_field,
)
from .ratmat import RatMatrix
from .repdec import CommutantBasis, ComponentProfile, commutant, decompose, peel
from .witness import (
    LATTICE_SEARCH,
    TENSOR_SHORTCUT,
    WitnessCertificate,
    field_through_commutant,
    lattice_search,
    tensor_shortcut,
    verify_witness,
)

EXPONENT_BOUND = 40
LATTICE_HEIGHT = 16


class CriterionError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    admits_anosov: bool
    class_c: int
    components: tuple
    timings: dict
    witness: Optional[WitnessCertificate] = None
    witness_status: str = "not-requested"
    model: dict = field(default_factory=dict)
    porteous_agrees: Optional[bool] = None
    profiles: tuple = field(default=(), repr=False, compare=False)  # not serialized

    def to_json_obj(self) -> dict:
        obj = {
            "admits_anosov": self.admits_anosov,
            "class_c": self.class_c,
            "components": list(self.components),
            "timings": self.timings,
        }
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        if self.witness_status != "not-requested":
            obj["witness_status"] = self.witness_status
        if self.model:
            obj["model"] = self.model
        if self.porteous_agrees is not None:
            obj["porteous_agrees"] = self.porteous_agrees
        return obj


def _component_rows(profiles: list[ComponentProfile], c: int) -> list[dict]:
    rows = []
    for p in profiles:
        threshold = Fraction(c, p.multiplicity)
        passes = Fraction(p.r_components) > threshold
        cross = p.r_components * p.multiplicity > c
        if passes is not cross:
            raise CriterionError(
                "exact rational comparison and integer cross-multiplication disagree"
            )
        row = {
            "dimension": p.dimension,
            "multiplicity": p.multiplicity,
            "r_components": p.r_components,
            "threshold": f"{threshold.numerator}/{threshold.denominator}",
            "passes": passes,
        }
        if p.unproven:
            row["unproven"] = True
        rows.append(row)
    return rows


def decide(rep: RationalRep, c: int, ambient: Optional[CommutantBasis] = None) -> Verdict:
    """Decision only; no witness construction. `ambient` is the commutant
    of rep when the caller has solved it already. The verdict depends on rep
    and c alone. It is exact when no row is flagged unproven; a flagged row
    rests on a leaf that no trial split and that meets no other class. The
    verdict keeps the component profiles, unserialized, for
    decide_with_witness."""
    if c < 1:
        raise ValueError("nilpotency class c must be >= 1")
    t0 = time.perf_counter()
    profiles = decompose(rep, ambient)
    t1 = time.perf_counter()
    rows = _component_rows(profiles, c)
    verdict = all(r["passes"] for r in rows)
    return Verdict(
        admits_anosov=verdict,
        class_c=c,
        components=tuple(rows),
        timings={"decompose_s": round(t1 - t0, 6), "total_s": round(time.perf_counter() - t0, 6)},
        profiles=tuple(profiles),
    )


def porteous_flat(rep: RationalRep) -> Verdict:
    """The flat (c = 1) decision, with a cross-check that the classical
    phrasing agrees: multiplicity-1 components need r ≥ 2, components of
    multiplicity ≥ 2 always pass."""
    base = decide(rep, 1)
    agrees = all(
        (row["multiplicity"] >= 2 or row["r_components"] >= 2) == row["passes"]
        for row in base.components
    )
    return replace(base, porteous_agrees=agrees)


def with_solvable_model(verdict: Verdict, d: int) -> Verdict:
    """The verdict, with or without its witness, under the solvable model of
    class d: the criterion is the same, so the model is metadata only."""
    if d < 1:
        raise ValueError("solvability class d must be >= 1")
    return replace(verdict, model={"family": "free-nilpotent-and-solvable", "c": verdict.class_c, "d": d})


def _aligned_block_basis(profile: ComponentProfile) -> RatMatrix:
    """Columns spanning the isotypic subspace, ordered copy-major so the
    restricted representation is I_m ⊗ ρ0: each member's basis, moved by the
    one map that peeling it through the representative ρ0 gives, unless the
    member carries ρ0 itself."""
    rep0 = profile.sub_rep
    blocks = [m.basis if m.rep is rep0 else m.basis @ peel(rep0, m.rep, 1)[0][0] for m in profile.members]
    return RatMatrix.from_columns([list(b.column(j)) for b in blocks for j in range(b.cols)])


def _block_commutant(profile: ComponentProfile) -> CommutantBasis:
    """The commutant of the representation on a block's aligned basis, where
    it is I_m ⊗ ρ0: M_m(Q) ⊗ E0 for the leaf commutant E0 that decompose
    solved, with basis the products E_ij ⊗ b over E0's basis.

    These are the basis commutant would solve, in the same order. A
    canonical kernel vector's last nonzero entry is its free column. A
    nonzero element of the division algebra E0 is invertible, so its last
    row is nonzero: each b's free column lies in its last row, and the free
    column of E_ij ⊗ b increases with (i, j, b) in lexicographic order."""
    m, leaf = profile.multiplicity, profile.commutant
    matrix_units = [
        RatMatrix.from_integers(m, m, [int(k == ij) for k in range(m * m)]) for ij in range(m * m)
    ]
    basis = tuple(e.kron(b) for e in matrix_units for b in leaf.basis)
    return CommutantBasis(rep=multiple(profile.sub_rep, m), basis=basis)


def _block_witness(profile: ComponentProfile, c: int) -> Optional[tuple[RatMatrix, str]]:
    """A witness for one isotypic block and its construction path: the
    tensor shortcut, which serves every block with m > c, then the field
    path, which builds its J from the leaf commutant and the multiplicity,
    then the lattice search over the block commutant, built only when the
    search is reached."""
    res = tensor_shortcut(profile, c)
    if res is not None:
        return res[0], TENSOR_SHORTCUT
    res = field_through_commutant(profile.commutant, profile.multiplicity, c, EXPONENT_BOUND)
    if res is not None:
        return res
    hit, _ = lattice_search(_block_commutant(profile), c, LATTICE_HEIGHT)
    if hit is not None:
        return hit, LATTICE_SEARCH
    return None


def decide_with_witness(rep: RationalRep, c: int) -> Verdict:
    """Decision plus, on YES, a witness: each isotypic block is searched
    once, and the block matrix, moved through the decomposition base
    change, is verified once. A YES verdict is kept when a block's bounded
    searches fail or the assembled matrix fails verification; the witness
    is then marked not-found-within-bounds."""
    t0 = time.perf_counter()
    base = decide(rep, c)
    if not base.admits_anosov:
        return replace(base, witness_status="not-applicable")
    timings = {"decompose_s": base.timings["decompose_s"]}
    t1 = time.perf_counter()
    certificate = None
    blocks = []
    for profile in base.profiles:
        res = _block_witness(profile, c)
        if res is None:
            break
        blocks.append(res)
    else:
        block_bases = [_aligned_block_basis(p) for p in base.profiles]
        s_all = RatMatrix.from_columns([list(b.column(j)) for b in block_bases for j in range(b.cols)])
        candidate = s_all @ RatMatrix.block_diag([w for w, _ in blocks]) @ s_all.inverse()
        cert = verify_witness(rep, candidate, c, construction_path="+".join(path for _, path in blocks))
        certificate = cert if cert.is_valid else None
    timings["witness_s"] = round(time.perf_counter() - t1, 6)
    timings["total_s"] = round(time.perf_counter() - t0, 6)
    return replace(
        base,
        timings=timings,
        witness=certificate,
        witness_status="attached" if certificate is not None else "not-found-within-bounds",
    )


def no_certificate_search(rep: RationalRep, c: int, height_bound: int) -> dict:
    """Empirical corroboration of a NO verdict: exhaustive lattice search up
    to the height bound and MAX_LATTICE_CANDIDATES, reporting the
    (expected-zero) hit count and, as height_bound, the largest height whose
    shell was screened in full. A commutant so large that height 1 alone is
    over the limit is refused: its search would screen nothing."""
    if height_bound < 0:
        raise ValueError(f"height_bound must be >= 0, got {height_bound}")
    com = commutant(rep)
    if lattice_height(com.dimension, 1) == 0:
        raise ValueError(
            f"no-certificate search over a commutant of dimension dim E = {com.dimension} "
            f"has 3^{com.dimension} candidates at height 1, over the limit of "
            f"{MAX_LATTICE_CANDIDATES}"
        )
    if decide(rep, c, com).admits_anosov:
        raise CriterionError("no-certificate search requires a NO verdict")
    height = lattice_height(com.dimension, height_bound)
    hit, screened = lattice_search(com, c, height)
    return {
        "class_c": c,
        "height_bound": height,
        "candidates_screened": screened,
        "hits": 0 if hit is None else 1,
        "hit": None if hit is None else hit.to_json_obj(),
    }


# -- demo corpus -------------------------------------------------------------------


def demo(name: str) -> dict:
    """Run the full pipeline on a named corpus entry and return the report
    artifacts (exact matrices as string entries)."""
    from . import corpus
    from .freenilp import restricted_degree2_action

    if name not in corpus.DEMO_NAMES:
        raise ValueError(f"unknown demo {name!r}; choose from {corpus.DEMO_NAMES}")
    if name == "d3":
        group = corpus.d3_group()
        reps = [corpus.rho1(group), corpus.rho2(group), corpus.rho3(group)]
        table = [[str(x) for x in r.character] for r in reps]
        a_img, b_img = corpus.rho3(group).gen_images
        pairs = [(1, 3), (1, 4), (2, 3), (2, 4)]
        mat_a = restricted_degree2_action(RatMatrix.block_diag([a_img, a_img]), pairs)
        mat_b = restricted_degree2_action(RatMatrix.block_diag([b_img, b_img]), pairs)
        return {
            "name": "d3",
            "group_order": group.order,
            "conjugacy_class_sizes": list(group.class_data.sizes),
            "character_table": table,
            "degree2_action_a": mat_a.to_json_obj(),
            "degree2_action_b": mat_b.to_json_obj(),
            "boundary": {
                "3*rho3 at c=2": decide(corpus.m_rho3(3), 2).admits_anosov,
                "2*rho3 at c=2": decide(corpus.m_rho3(2), 2).admits_anosov,
            },
        }
    if name == "q8":
        rep = corpus.q8_rep()
        profiles = decompose(rep)
        return {
            "name": "q8",
            "group_order": rep.group.order,
            "decomposition": [p.to_json_obj() for p in profiles],
            "verdict_c1": decide(rep, 1).to_json_obj(),
            "splitting_fields": _q8_splitting_field_family(),
        }
    if name == "klein":
        rep = corpus.klein_rep()
        return {
            "name": "klein",
            "verdict": porteous_flat(rep).to_json_obj(),
            "no_certificate": no_certificate_search(rep, 1, 5),
        }
    if name == "torus":
        rep = corpus.torus_rep()
        return {
            "name": "torus",
            "verdict": decide_with_witness(rep, 1).to_json_obj(),
            "porteous": porteous_flat(rep).to_json_obj(),
        }
    if name == "c5":
        rep = corpus.c5_rep()
        return {"name": "c5", "verdict": decide_with_witness(rep, 1).to_json_obj()}
    rep = corpus.c4_rep()
    field_ctx = make_field(cyclotomic(4))
    outcome = search_c_hyperbolic_unit(field_ctx, unit_generators_for_field(field_ctx), 1, 12)
    return {
        "name": "c4",
        "verdict": decide(rep, 1).to_json_obj(),
        "unit_search_Q(i)": {"found": outcome.found, "reason": outcome.reason},
    }


def _q8_splitting_field_family() -> list[dict]:
    """The two-dimensional model over Q(√(−1−α²)) for small rational α: the
    defining relations hold exactly, and the field is always imaginary. An
    element of Q(√d) is its multiplication matrix on the basis 1, √d, so a
    2×2 matrix over the field is a 4×4 rational one."""
    out = []
    one, minus_one = RatMatrix.identity(2), -RatMatrix.identity(4)
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    rho_i = RatMatrix.from_rows([[0, -1], [1, 0]]).kron(one)
    for alpha in (0, 1, 2):
        d = -1 - alpha * alpha
        sqrt_d = RatMatrix.from_rows([[0, d], [1, 0]])
        # [[α, √d], [√d, −α]] as the block matrix [[α·I, sqrt_d], [sqrt_d, −α·I]]
        rho_j = RatMatrix.from_rows([[alpha, 0], [0, -alpha]]).kron(one) + swap.kron(sqrt_d)
        relations = (
            rho_i @ rho_i == minus_one
            and rho_j @ rho_j == minus_one
            and (rho_i @ rho_j + rho_j @ rho_i).is_zero()
        )
        out.append({"alpha": alpha, "field": f"Q(sqrt({d}))", "relations_hold": relations, "imaginary": d < 0})
    return out
