#!/usr/bin/env python3
"""Construct and re-verify witnesses across the YES corpus, printing the
construction path, characteristic polynomial, and verification flags."""

import argparse
import time

from anosov.corpus import c5_rep, m_rho3, q8_rep, torus_rep
from anosov.decider import decide_with_witness
from anosov.fingrp import generate_group, multiple, natural_rep
from anosov.intpoly import IntPoly, cyclotomic
from anosov.ratmat import RatMatrix
from anosov.witness import companion_matrix, verify_witness


def d7_rep():
    """D7 on Z[ζ7] with basis 1, ζ, …, ζ^5: multiplication by ζ and the
    matrix of ζ ↦ ζ^-1. Its commutant is the cubic field Q(ζ7 + ζ7^-1),
    which has no unit search, so the lattice search finds the witness."""
    inversion = RatMatrix.from_rows(
        [[int(i == 0 == j) - int(j == 1) + int(j >= 2 and i == 7 - j) for j in range(6)] for i in range(6)]
    )
    return natural_rep(generate_group([companion_matrix(cyclotomic(7)), inversion]))


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    cases = [
        ("torus (2-dim trivial), c=1", torus_rep(), 1),
        ("2 copies of the dihedral plane, c=1", m_rho3(2), 1),
        ("3 copies, c=2", m_rho3(3), 2),
        ("4 copies, c=3", m_rho3(4), 3),
        ("order-5 rotation, c=1", c5_rep(), 1),
        ("2 copies of the order-5 rotation, c=2", multiple(c5_rep(), 2), 2),
        ("2 copies of the quaternion group, c=1", multiple(q8_rep(), 2), 1),
        ("dihedral group of order 14 on Z[ζ7], c=2", d7_rep(), 2),
    ]
    for label, rep, c in cases:
        t0 = time.perf_counter()
        verdict = decide_with_witness(rep, c)
        elapsed = time.perf_counter() - t0
        if verdict.witness is None:
            print(f"{label}: {verdict.witness_status} ({elapsed:.2f}s)")
            continue
        cert = verdict.witness
        recheck = verify_witness(rep, cert.witness, c)
        char = IntPoly.from_rationals(cert.witness.char_poly())
        print(f"{label}: path={cert.construction_path} char={char} "
              f"reverified={recheck.is_valid} ({elapsed:.2f}s)")


if __name__ == "__main__":
    main()
