"""Exact decision procedure for Anosov diffeomorphisms on infra-nilmanifolds
modeled on free c-step nilpotent Lie groups, working from the abelianized
rational holonomy representation."""

from .decider import (
    Verdict,
    decide,
    decide_solvable,
    decide_with_witness,
    demo,
    no_certificate_search,
    porteous_flat,
)
from .fingrp import (
    FiniteMatrixGroup,
    RationalRep,
    generate_group,
    multiple,
    natural_rep,
    rep_from_generator_images,
)
from .hyper import (
    HyperbolicityReport,
    is_c_hyperbolic_matrix,
    is_c_hyperbolic_poly,
    is_integer_like,
)
from .intpoly import IntPoly
from .numfield import (
    NumberFieldCtx,
    UnitElem,
    make_field,
    search_c_hyperbolic_unit,
)
from .ratmat import Permutation, RatMatrix, perm_matrix
from .repdec import ComponentProfile, commutant, decompose
from .witness import WitnessCertificate, verify_witness

__version__ = "0.1.0"

__all__ = [
    "ComponentProfile",
    "FiniteMatrixGroup",
    "HyperbolicityReport",
    "IntPoly",
    "NumberFieldCtx",
    "Permutation",
    "RatMatrix",
    "RationalRep",
    "UnitElem",
    "Verdict",
    "WitnessCertificate",
    "commutant",
    "decide",
    "decide_solvable",
    "decide_with_witness",
    "decompose",
    "demo",
    "generate_group",
    "is_c_hyperbolic_matrix",
    "is_c_hyperbolic_poly",
    "is_integer_like",
    "make_field",
    "multiple",
    "natural_rep",
    "no_certificate_search",
    "perm_matrix",
    "porteous_flat",
    "rep_from_generator_images",
    "search_c_hyperbolic_unit",
    "verify_witness",
]
