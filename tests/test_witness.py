import pytest

from anosov import witness
from anosov.fingrp import multiple
from anosov.intpoly import IntPoly
from anosov.ratmat import RatMatrix
from anosov.repdec import commutant, decompose
from anosov.witness import (
    WitnessConstructionError,
    companion_matrix,
    field_through_commutant,
    lattice_search,
    tensor_shortcut,
    verify_witness,
)

PLASTIC = IntPoly((-1, -1, 0, 1))


class TestTensorShortcut:
    def test_triple_rho3(self, rho3):
        rep = multiple(rho3, 3)
        profile = decompose(rep, seed=0)[0]
        w, f = tensor_shortcut(profile, 2)
        assert f == PLASTIC and w.rows == 6
        assert IntPoly.from_rationals(w.char_poly()) == PLASTIC * PLASTIC

    def test_double_rho3_at_c1(self, rho3):
        profile = decompose(multiple(rho3, 2), seed=0)[0]
        w, f = tensor_shortcut(profile, 1)
        assert f == IntPoly((1, -3, 1))

    def test_refuses_at_the_boundary(self, rho3):
        profile = decompose(multiple(rho3, 2), seed=0)[0]
        with pytest.raises(WitnessConstructionError):
            tensor_shortcut(profile, 2)

    def test_skips_non_absolutely_irreducible(self, c5_rep):
        profile = decompose(c5_rep, seed=0)[0]
        assert tensor_shortcut(profile, 1) is None


class TestFieldThroughCommutant:
    def test_c5_gives_one_plus_rotation(self, c5_rep):
        result = field_through_commutant(commutant(c5_rep), 1)
        assert result is not None
        witness, path = result
        rotation = c5_rep.gen_images[0]
        assert witness == RatMatrix.identity(4) + rotation
        assert witness.det() == 1
        cert = verify_witness(c5_rep, witness, 1, construction_path=path)
        assert cert.is_valid

    def test_c4_has_no_usable_units(self, c4_rep):
        assert field_through_commutant(commutant(c4_rep), 1) is None


class TestLatticeSearch:
    def test_trivial_rep_finds_small_unit(self, torus):
        hit, _ = lattice_search(commutant(torus), 1, 3)
        assert hit is not None
        cert = verify_witness(torus, hit, 1)
        assert cert.is_valid

    def test_klein_bottle_empty(self, klein):
        hit, screened = lattice_search(commutant(klein), 1, 5)
        assert hit is None and screened == 120

    def test_zero_bound_empty(self, torus):
        assert lattice_search(commutant(torus), 1, 0) == (None, 0)

    def test_isotypic_no_direction(self, rho3):
        assert lattice_search(commutant(multiple(rho3, 2)), 2, 2)[0] is None
        assert lattice_search(commutant(rho3), 1, 3)[0] is None

    def test_one_verdict_per_char_poly(self, rho3, monkeypatch):
        # the 40 integer-like candidates at height 1 have 8 distinct
        # characteristic polynomials; each is tested once
        calls = []
        original = witness.is_c_hyperbolic_poly

        def counting(f, c):
            calls.append(f)
            return original(f, c)

        monkeypatch.setattr(witness, "is_c_hyperbolic_poly", counting)
        assert lattice_search(commutant(multiple(rho3, 2)), 2, 1) == (None, 80)
        assert len(calls) == 8 and len(set(calls)) == 8


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
        profile = decompose(rep, seed=0)[0]
        w, _ = tensor_shortcut(profile, 2)
        cert = verify_witness(rep, w, 2)
        again = verify_witness(rep, cert.witness, 2)
        assert again.is_valid
