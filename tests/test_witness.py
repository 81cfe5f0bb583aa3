from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, integer_nthroot, totient

from anosov import corpus, decider, hyper, numfield, witness
from anosov.decider import decide_with_witness
from anosov.fingrp import group_rep_from_json_obj, multiple
from anosov.hyper import integer_char_poly, is_c_hyperbolic_poly
from anosov.intpoly import IntPoly, cyclotomic
from anosov.ratmat import RatMatrix, matrix_min_poly
from anosov.repdec import commutant, decompose
from anosov.numfield import MAX_LATTICE_CANDIDATES
from anosov.witness import (
    companion_matrix,
    field_through_commutant,
    lattice_height,
    lattice_search,
    tensor_shortcut,
    verify_witness,
)

from conftest import benchmark_cases, lattice_search_every_candidate, sympy_route_report

PLASTIC = IntPoly((-1, -1, 0, 1))

# (case name, whether the search finds a hit) for the differential test
LATTICE_DIFFERENTIAL = [
    ("2rho3_c1_h2", True),
    ("3rho3_c2_h1", True),
    ("t2_c1_h2", True),
    ("c5_c1_h1", True),
    ("klein_c1_h5", False),
    ("circle_c1_h5", False),
    ("2rho3_c2_h1", False),
    ("q8_c1_h1", False),
]


def _lattice_case(name):
    """(case, height bound) from the benchmark corpus: YES cases of its
    witness corpus at a fixed height, NO cases of its lattice workload at
    their own height bound."""
    cases = benchmark_cases()
    yes = {
        "2rho3_c1_h2": (cases.k_rho3(2, 1), 2),
        "3rho3_c2_h1": (cases.k_rho3(3, 2), 1),
        "t2_c1_h2": (cases.torus(2, 1), 2),
        "c5_c1_h1": (cases.cyclic("c5", cases.C5, 1, 1, 4), 1),
    }
    if name in yes:
        return yes[name]
    (case,) = [case for case in cases.WORKLOADS["lattice"]() if case.case_id == name]
    return case, case.height_bound


@cache
def _small_commutant(name):
    rep = {"2rho3": multiple(corpus.rho3(), 2), "q8": corpus.q8_rep(), "c5": corpus.c5_rep()}[name]
    return commutant(rep)


class TestTensorShortcut:
    def test_triple_rho3(self, rho3):
        rep = multiple(rho3, 3)
        profile = decompose(rep)[0]
        w, f = tensor_shortcut(profile, 2)
        assert f == PLASTIC and w.rows == 6
        assert IntPoly.from_rationals(w.char_poly()) == PLASTIC * PLASTIC

    def test_double_rho3_at_c1(self, rho3):
        profile = decompose(multiple(rho3, 2))[0]
        w, f = tensor_shortcut(profile, 1)
        assert f == IntPoly((1, -3, 1))

    def test_refuses_at_the_boundary(self, rho3):
        profile = decompose(multiple(rho3, 2))[0]
        assert tensor_shortcut(profile, 2) is None

    def test_serves_a_block_that_is_not_absolutely_irreducible(self, c5_rep):
        # companion(f) ⊗ I_4 commutes with I_2 ⊗ ρ0 whatever ρ0 is, here the
        # C5 rotation with commutant Q(ζ5); one copy has m = 1 ≤ c
        assert tensor_shortcut(decompose(c5_rep)[0], 1) is None
        profile = decompose(multiple(c5_rep, 2))[0]
        w, f = tensor_shortcut(profile, 1)
        assert profile.dim_E == 4 and f.degree == 2
        assert verify_witness(multiple(profile.sub_rep, 2), w, 1).is_valid


class TestFieldThroughCommutant:
    def test_c5_gives_one_plus_rotation(self, c5_rep):
        result = field_through_commutant(commutant(c5_rep), 1, 1)
        assert result is not None
        witness, path = result
        rotation = c5_rep.gen_images[0]
        assert witness == RatMatrix.identity(4) + rotation
        assert witness.det() == 1
        cert = verify_witness(c5_rep, witness, 1, construction_path=path)
        assert cert.is_valid

    def test_c4_has_no_usable_units(self, c4_rep):
        assert field_through_commutant(commutant(c4_rep), 1, 1) is None

    def test_skips_a_field_whose_unit_search_is_over_the_limit(self, c5_rep, monkeypatch):
        # Q(ζ5) has one unit generator: under a limit of 2 candidates height 1
        # (3 of them) is over it, so the field is skipped, not searched
        monkeypatch.setattr(numfield, "MAX_LATTICE_CANDIDATES", 2)
        assert field_through_commutant(commutant(c5_rep), 1, 1) is None

    def test_embeddings_only_for_a_field_that_reaches_a_unit_search(self, monkeypatch):
        # 2·C5 at c = 2: Q(ζ5), from J = I_2 ⊗ u for the rotation u on the
        # leaf, has no 2-hyperbolic unit by its bound, so only Q(ζ15), from
        # J = C(Φ3) ⊗ u, is searched, and its roots are the only ones found
        cases = benchmark_cases()
        _, rep, c = group_rep_from_json_obj(cases.cyclic("c5", cases.C5, 2, 2, 4).input_obj(0))
        roots, searched = [], []
        root_finder, search = numfield.closed_form_embeddings, witness.search_c_hyperbolic_unit

        def counting_roots(*args, **kwargs):
            roots.append(args)
            return root_finder(*args, **kwargs)

        def recording_search(field, generators, *args, **kwargs):
            searched.append(field.min_poly)
            return search(field, generators, *args, **kwargs)

        monkeypatch.setattr(numfield, "closed_form_embeddings", counting_roots)
        monkeypatch.setattr(witness, "search_c_hyperbolic_unit", recording_search)
        assert decide_with_witness(rep, c).witness_status == "attached"
        assert searched == [cyclotomic(15)]
        assert len(roots) == 1


def _witness_corpus_reps():
    """(case id, seed, representation, c) for every case of the benchmark's
    witness corpus at conjugation seeds 0-3."""
    cases = benchmark_cases()
    for case in cases.FULL["witness"]():
        for seed in range(4):
            _, rep, c = group_rep_from_json_obj(case.input_obj(seed))
            yield case.case_id, seed, rep, c


class TestWitnessFromBlockStructure:
    def test_coprime_cyclotomic_order_is_the_smallest(self):
        # against sympy's totient over a range far past the bound 2m²
        for d in range(1, 31):
            for m in range(1, 9):
                expected = next((e for e in range(2, 1000) if gcd(e, d) == 1 and totient(e) == m), None)
                assert witness._coprime_cyclotomic_order(d, m) == expected, (d, m)
                if m % 2 and m > 1:
                    assert expected is None

    def test_every_candidate_has_the_stated_minimal_polynomial(self):
        # J = C(Φ_e) ⊗ u has minimal polynomial Φ_ed in closed form; a Krylov
        # solve on J itself cross-checks it, and J = I_m ⊗ u against minpoly(u).
        # Each J commutes with the block I_m ⊗ ρ0.
        reached = set()
        reps = [(rep, c) for _, seed, rep, c in _witness_corpus_reps() if seed < 2]
        reps += [(multiple(corpus.q8_rep(), 2), 1), (multiple(corpus.c4_rep(), 4), 2)]
        reps += [(multiple(corpus.q8_rep(), 4), 3)]
        for rep, c in reps:
            for p in decompose(rep):
                block = multiple(p.sub_rep, p.multiplicity)
                for j_mat, g in witness._field_candidates(p.commutant, p.multiplicity):
                    assert IntPoly.from_rationals(matrix_min_poly(j_mat)) == g
                    assert all(j_mat @ img == img @ j_mat for img in block.gen_images)
                    reached.add(g)
        # (d, m) = (1, 2), (1, 4), (1, 6) for the multiples of ρ3 and the
        # torus, (5, 2) for 2·C5, (4, 2) for 2·Q8, (4, 4) for 4·C4 and 4·Q8
        assert {cyclotomic(n) for n in (3, 5, 7, 15, 12, 20)} <= reached

    def test_every_corpus_case_attaches_a_verified_witness(self):
        for case_id, seed, rep, c in _witness_corpus_reps():
            verdict = decide_with_witness(rep, c)
            assert verdict.witness_status == "attached", (case_id, seed)
            assert verify_witness(rep, verdict.witness.witness, c).is_valid, (case_id, seed)

    @pytest.mark.parametrize("name, m, c", [("c4", 4, 2), ("q8", 4, 3)])
    def test_blocks_through_phi20_attach(self, name, m, c):
        # Q(i) has no units of infinite order; J = C(Φ5) ⊗ i generates Q(ζ20).
        # As m > c, decide_with_witness takes the tensor shortcut before it
        rep = multiple({"c4": corpus.c4_rep, "q8": corpus.q8_rep}[name](), m)
        (profile,) = decompose(rep)
        w, path = field_through_commutant(profile.commutant, m, c, decider.EXPONENT_BOUND)
        assert path == witness.FIELD_THROUGH_COMMUTANT
        assert verify_witness(multiple(profile.sub_rep, m), w, c).is_valid
        assert decide_with_witness(rep, c).witness_status == "attached"


class TestLatticeSearch:
    def test_trivial_rep_finds_small_unit(self, torus):
        hit, _ = lattice_search(commutant(torus), 1, 3)
        assert hit is not None
        cert = verify_witness(torus, hit, 1)
        assert cert.is_valid

    def test_klein_bottle_empty(self, klein):
        hit, screened = lattice_search(commutant(klein), 1, 5)
        assert hit is None and screened == 120

    @pytest.mark.parametrize("dim", range(1, 25))
    def test_lattice_height_matches_integer_nthroot(self, dim):
        # the bisection root against sympy's, at and around exact powers
        side = integer_nthroot(MAX_LATTICE_CANDIDATES, dim)[0]
        assert lattice_height(dim, 10**6) == (side - 1) // 2
        assert lattice_height(dim, 1) == min(1, (side - 1) // 2)
        for n in (side**dim - 1, side**dim, side**dim + 1):
            assert numfield._integer_root(n, dim) == integer_nthroot(n, dim)[0]

    def test_zero_bound_empty(self, torus):
        assert lattice_search(commutant(torus), 1, 0) == (None, 0)

    def test_isotypic_no_direction(self, rho3):
        assert lattice_search(commutant(multiple(rho3, 2)), 2, 2)[0] is None
        assert lattice_search(commutant(rho3), 1, 3)[0] is None

    def test_one_verdict_per_char_poly(self, rho3, monkeypatch):
        # of the 80 candidates at height 1, 40 are negatives of the other 40
        # and are counted without a test; the 40 tested have one determinant
        # each, a characteristic polynomial only when |det| = d^n, and the
        # integer-like ones among them 7 distinct characteristic
        # polynomials, each tested once
        com = commutant(multiple(rho3, 2))
        forms = [b.integer_form() for b in com.basis]
        d = lcm(*(den for _, den in forms))
        n = com.rep.dimension
        dets, char_polys, calls = {}, [], []
        original_det, original_char_poly = hyper.int_det, hyper.int_char_poly
        original = witness.is_c_hyperbolic_poly

        def counting_det(a, size):
            dets[tuple(a)] = original_det(a, size)
            return dets[tuple(a)]

        def counting_char_poly(a, size):
            char_polys.append(tuple(a))
            return original_char_poly(a, size)

        def counting(f, c):
            calls.append(f)
            return original(f, c)

        monkeypatch.setattr(hyper, "int_det", counting_det)
        monkeypatch.setattr(hyper, "int_char_poly", counting_char_poly)
        monkeypatch.setattr(witness, "is_c_hyperbolic_poly", counting)
        assert lattice_search(com, 2, 1) == (None, 80)
        assert len(dets) == 40
        assert char_polys and all(abs(dets[a]) == d**n for a in char_polys)
        assert len(calls) == 7 and len(set(calls)) == 7

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name, finds_hit", LATTICE_DIFFERENTIAL)
    def test_matches_every_candidate_search(self, name, finds_hit, seed):
        case, height = _lattice_case(name)
        _, rep, c = group_rep_from_json_obj(case.input_obj(seed))
        com = commutant(rep)
        hit, screened = lattice_search(com, c, height)
        assert (hit, screened) == lattice_search_every_candidate(com, c, height)
        assert (hit is not None) == finds_hit

    @given(st.sampled_from(["2rho3", "q8", "c5"]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_negation_keeps_integrality_and_hyperbolicity(self, name, data):
        # the lemma the skip of -X rests on
        com = _small_commutant(name)
        # a height drawn first, so that low heights, where most integer-like
        # combinations lie, are drawn often
        h = data.draw(st.integers(1, 3))
        coords = data.draw(st.lists(st.integers(-h, h), min_size=com.dimension, max_size=com.dimension))
        x = RatMatrix.zeros(com.rep.dimension, com.rep.dimension)
        for cf, b in zip(coords, com.basis):
            x = x + b.scale(cf)
        (a, d), (b, _) = x.integer_form(), (-x).integer_form()
        f, g = integer_char_poly(a, x.rows, d), integer_char_poly(b, x.rows, d)
        assert (f is None) == (g is None)
        if f is not None:
            for c in (1, 2, 3):
                assert is_c_hyperbolic_poly(f, c).verdict == is_c_hyperbolic_poly(g, c).verdict


class TestVerifyWitness:
    def test_valid_tensor_witness(self, rho3):
        rep = multiple(rho3, 3)
        witness = companion_matrix(PLASTIC).kron_identity(2)
        cert = verify_witness(rep, witness, 2)
        assert cert.is_valid and cert.commutes and cert.integer_like

    def test_identity_fails_only_hyperbolicity(self, rho3):
        rep = multiple(rho3, 3)
        cert = verify_witness(rep, RatMatrix.identity(6), 1)
        assert cert.commutes and cert.integer_like and not cert.hyperbolicity.verdict
        assert not cert.is_valid

    def test_noncommuting_candidate(self, rho3):
        cert = verify_witness(rho3, RatMatrix.from_rows([[0, 1], [1, 0]]), 1)
        assert not cert.commutes and not cert.is_valid
        assert cert.per_generator_commutation[0] is False

    def test_emitted_certificates_reverify(self, rho3):
        rep = multiple(rho3, 3)
        profile = decompose(rep)[0]
        w, _ = tensor_shortcut(profile, 2)
        cert = verify_witness(rep, w, 2)
        again = verify_witness(rep, cert.witness, 2)
        assert again.is_valid

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 1], [1, 1]],
            [[0, 0], [0, 0]],
            [[1, 0], [0, 1]],
            [["1/2", 0], [0, 2]],
            [[1, "1/2"], [0, 1]],
            [["1/2", 0], [0, "1/2"]],
            [[0, 1], [1, 1]],
            [[1, 2], [2, 4]],
            [[2, 0], [0, 1]],
            [["1/3", 1], [0, 3]],
            [[3, "1/2"], [2, 1]],
        ],
    )
    def test_char_poly_route_matches_matrix_predicates(self, torus, rows):
        """Integrality and hyperbolicity read off the one characteristic
        polynomial agree with sympy's Matrix.det and charpoly and with
        sympy_route_report, which share no kernel with verify_witness; a
        singular candidate reports k = 1."""
        cert = verify_witness(torus, RatMatrix.from_rows(rows), 2)
        m = Matrix([[Rational(str(x)) for x in row] for row in rows])
        coeffs = m.charpoly().all_coeffs()[::-1]
        assert list(cert.char_poly) == coeffs
        assert cert.integer_like == (abs(m.det()) == 1 and all(x.is_integer for x in coeffs))
        if m.det() == 0:
            expected = {"c_tested": 2, "verdict": False, "certified_exact": True, "offending_product": {"k": 1}}
        else:
            denom = lcm(*(x.q for x in coeffs))
            expected = sympy_route_report(IntPoly(tuple(int(x * denom) for x in coeffs)), 2)
        assert cert.hyperbolicity.to_json_obj() == expected

    def test_one_char_poly_and_no_det(self, rho3, monkeypatch):
        """Verifying a candidate and emitting its JSON compute its
        characteristic polynomial once and no determinant."""
        rep = multiple(rho3, 3)
        witness = companion_matrix(PLASTIC).kron_identity(2)
        calls = []
        det, char_poly = RatMatrix.det, RatMatrix.char_poly

        def counting_det(m):
            calls.append("det")
            return det(m)

        def counting_char_poly(m):
            calls.append("char_poly")
            return char_poly(m)

        monkeypatch.setattr(RatMatrix, "det", counting_det)
        monkeypatch.setattr(RatMatrix, "char_poly", counting_char_poly)
        obj = verify_witness(rep, witness, 2).to_json_obj()
        assert calls == ["char_poly"]
        assert obj["char_poly"] == [str(c) for c in (PLASTIC * PLASTIC).coeffs]
        assert obj["integer_like"] and obj["hyperbolicity"]["verdict"]
