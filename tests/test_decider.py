import random
from functools import cached_property

import pytest

from anosov import corpus, decider, hyper, repdec, witness
from anosov.corpus import circle_rep, m_rho3
from anosov.decider import (
    CriterionError,
    decide,
    decide_with_witness,
    demo,
    no_certificate_search,
    porteous_flat,
    with_solvable_model,
)
from anosov.fingrp import (
    RationalRep,
    character_inner_product,
    conjugate_rep,
    direct_sum,
    generate_group,
    group_rep_from_json_obj,
    multiple,
    natural_rep,
)
from anosov.intpoly import IntPoly, cyclotomic
from anosov.ratmat import RatMatrix
from anosov.witness import companion_matrix, verify_witness

from conftest import benchmark_cases, d7_rep, dense_basis, random_unimodular, regular_rep, rotation_rep


class TestDecide:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_surplus_multiplicity_is_yes(self, c):
        assert decide(m_rho3(c + 1), c).admits_anosov

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_exact_multiplicity_is_no(self, c):
        assert not decide(m_rho3(c), c).admits_anosov

    def test_boundary_sweep(self):
        for m in range(1, 5):
            rep = m_rho3(m)
            for c in range(1, 5):
                assert decide(rep, c).admits_anosov == (m >= c + 1)

    def test_klein_bottle(self, klein):
        verdict = decide(klein, 1)
        assert not verdict.admits_anosov
        assert len(verdict.components) == 2

    def test_threshold_field_is_exact_rational(self, rho3):
        verdict = decide(multiple(rho3, 3), 2)
        assert verdict.components[0]["threshold"] == "2/3"

    def test_invalid_class(self, rho3):
        with pytest.raises(ValueError):
            decide(rho3, 0)

    def test_base_change_invariance(self, rho3):
        rng = random.Random(17)
        rep = multiple(rho3, 3)
        moved = conjugate_rep(rep, random_unimodular(rng, 6))
        for c in (1, 2, 3):
            a, b = decide(rep, c), decide(moved, c)
            assert a.admits_anosov == b.admits_anosov
            assert a.components == b.components


class TestPorteous:
    def test_torus(self, torus):
        verdict = porteous_flat(torus)
        assert verdict.admits_anosov and verdict.porteous_agrees

    def test_circle(self):
        verdict = porteous_flat(circle_rep())
        assert not verdict.admits_anosov and verdict.porteous_agrees

    def test_klein(self, klein):
        verdict = porteous_flat(klein)
        assert not verdict.admits_anosov and verdict.porteous_agrees


class TestSolvableVariant:
    def test_metadata_roundtrip(self, rho3):
        verdict = with_solvable_model(decide(multiple(rho3, 2), 1), 2)
        assert verdict.model == {"family": "free-nilpotent-and-solvable", "c": 1, "d": 2}
        assert verdict.admits_anosov

    def test_same_verdicts_as_decide(self, rho3, klein):
        for rep, c in ((multiple(rho3, 3), 2), (klein, 1)):
            assert with_solvable_model(decide(rep, c), 3).admits_anosov == decide(rep, c).admits_anosov


class TestWitnessPipeline:
    @pytest.mark.parametrize("m,c", [(2, 1), (3, 2), (4, 3)])
    def test_isotypic_witnesses(self, m, c):
        verdict = decide_with_witness(m_rho3(m), c)
        assert verdict.admits_anosov and verdict.witness_status == "attached"
        cert = verdict.witness
        assert cert.is_valid and cert.construction_path == "tensor-shortcut"
        rerun = verify_witness(m_rho3(m), cert.witness, c)
        assert rerun.is_valid

    def test_torus_witness(self, torus):
        verdict = decide_with_witness(torus, 1)
        assert verdict.witness is not None
        assert IntPoly.from_rationals(verdict.witness.witness.char_poly()) == IntPoly((1, -3, 1))

    @pytest.mark.parametrize("order", [5, 8], ids=["c5", "c8"])
    def test_c5_field_witness(self, order):
        rotation = companion_matrix(cyclotomic(order))
        rep = natural_rep(generate_group([rotation]))
        verdict = decide_with_witness(rep, 1)
        assert verdict.witness_status == "attached"
        cert = verdict.witness
        assert cert.construction_path == "field-through-commutant"
        assert verify_witness(rep, cert.witness, 1).is_valid
        if order == 5:
            assert cert.witness == RatMatrix.identity(4) + rotation
            assert cert.witness.det() == 1

    def test_no_verdict_skips_search(self, klein):
        verdict = decide_with_witness(klein, 1)
        assert not verdict.admits_anosov
        assert verdict.witness is None and verdict.witness_status == "not-applicable"
        assert list(verdict.timings) == ["decompose_s", "total_s"]

    def test_decomposes_once_through_decide(self, monkeypatch):
        calls = []
        original = decider.decompose

        def counting(rep, *args):
            calls.append(rep)
            return original(rep, *args)

        monkeypatch.setattr(decider, "decompose", counting)
        rep = m_rho3(3)
        verdict = decide_with_witness(rep, 2)
        assert calls == [rep] and verdict.witness_status == "attached"
        assert list(verdict.timings) == ["decompose_s", "witness_s", "total_s"]
        assert verdict.to_json_obj()["components"] == decide(rep, 2).to_json_obj()["components"]

    def test_mixed_classes_assemble(self, d3, rho3, rho1):
        from anosov.fingrp import direct_sum

        rep = direct_sum([rho1, rho1, rho3, rho3])
        verdict = decide_with_witness(rep, 1)
        assert verdict.admits_anosov and verdict.witness_status == "attached"
        assert verify_witness(rep, verdict.witness.witness, 1).is_valid

    def test_full_matrix_commutant_case(self):
        from anosov.corpus import torus_rep

        verdict = decide_with_witness(torus_rep(3), 2)
        assert verdict.witness_status == "attached"
        assert IntPoly.from_rationals(verdict.witness.witness.char_poly()) == IntPoly(
            (-1, -1, 0, 1)
        )

    @pytest.mark.parametrize("workload", ["witness", "isotypic"])
    def test_block_commutant_is_the_solved_one(self, workload):
        # M_m(Q) ⊗ E0 from the leaf commutant, against solving the commutant of
        # the representation restricted to the aligned block basis
        cases = benchmark_cases()
        for case in cases.FULL[workload]():
            for seed in range(3):
                _, rep, c = group_rep_from_json_obj(case.input_obj(seed))
                for p in decide(rep, c).profiles:
                    solved = repdec.commutant(repdec.restrict_rep(rep, decider._aligned_block_basis(p)))
                    built = decider._block_commutant(p)
                    assert built.basis == solved.basis, (case.case_id, seed)
                    assert built.rep.gen_images == solved.rep.gen_images

    @pytest.mark.parametrize(
        "make_rep, c",
        [(lambda: multiple(rotation_rep(12), 2), 2), (lambda: multiple(d7_rep(), 2), 3)],
        ids=["2c12", "2d7"],
    )
    def test_one_search_per_block(self, make_rep, c, monkeypatch):
        """YES cases whose one block has no witness within the bounds and
        m ≤ c, so no tensor shortcut: the field path and the lattice search
        run once each, and no base change is built for a block matrix that
        is never assembled."""
        calls = []

        def counting(name):
            original = getattr(decider, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        def refuse(profile):
            raise AssertionError("aligned a block basis")

        for name in ("field_through_commutant", "lattice_search"):
            monkeypatch.setattr(decider, name, counting(name))
        monkeypatch.setattr(decider, "_aligned_block_basis", refuse)
        verdict = decide_with_witness(make_rep(), c)
        assert verdict.admits_anosov and verdict.witness_status == "not-found-within-bounds"
        assert len(verdict.profiles) == 1
        assert calls == ["field_through_commutant", "lattice_search"]

    @pytest.mark.parametrize(
        "make_rep, c",
        [
            (lambda: multiple(rotation_rep(3), 3), 1),
            (lambda: multiple(rotation_rep(3), 3), 2),
            (lambda: multiple(corpus.c4_rep(), 3), 1),
            (lambda: multiple(corpus.q8_rep(), 3), 1),
            (lambda: multiple(corpus.q8_rep(), 3), 2),
            (lambda: multiple(d7_rep(), 2), 1),
            (lambda: multiple(corpus.c5_rep(), 2), 1),
        ],
        ids=["3c3-c1", "3c3-c2", "3c4-c1", "3q8-c1", "3q8-c2", "2d7-c1", "2c5-c1"],
    )
    def test_tensor_shortcut_serves_every_block_with_m_over_c(self, make_rep, c):
        # none of these leaves is absolutely irreducible; companion(f) ⊗ I
        # commutes with I_m ⊗ ρ0 all the same
        rep = make_rep()
        verdict = decide_with_witness(rep, c)
        assert verdict.profiles[0].dim_E > 1
        assert verdict.witness_status == "attached"
        assert verdict.witness.construction_path == "tensor-shortcut"
        assert verify_witness(rep, verdict.witness.witness, c).is_valid

    def test_tensor_shortcut_on_dense_bases(self):
        # 2·Q8 at c = 1 after 15 dense integer changes of basis
        rep = multiple(corpus.q8_rep(), 2)
        for k in range(15):
            verdict = decide_with_witness(dense_basis(rep, k), 1)
            assert verdict.witness_status == "attached", k
            assert verdict.witness.construction_path == "tensor-shortcut", k

    @pytest.mark.parametrize("c", [1, 2])
    def test_cubic_commutant_takes_the_lattice_path(self, c):
        # r = 3 real components and m = 1: YES for c ≤ 2; the field
        # Q(ζ7 + ζ7^-1) has no unit search, so the lattice search serves
        rep = d7_rep()
        verdict = decide_with_witness(rep, c)
        assert verdict.witness_status == "attached"
        assert verdict.witness.construction_path == "lattice-search"
        assert verify_witness(rep, verdict.witness.witness, c).is_valid

    def test_quaternionic_isotypic_pair(self, q8_rep):
        # doubled quaternionic component: YES at c = 1, witness reachable
        # through J = C(Φ3) ⊗ u for a quaternion u with u² = −1: Q(J) = Q(ζ12)
        # is a maximal subfield of the commutant M_2(H)
        rep = multiple(q8_rep, 2)
        verdict = decide_with_witness(rep, 1)
        assert verdict.admits_anosov and verdict.witness_status == "attached"
        assert verify_witness(rep, verdict.witness.witness, 1).is_valid


class TestNoCertificateSearch:
    def test_isotypic_boundary(self, rho3):
        report = no_certificate_search(multiple(rho3, 2), 2, 2)
        assert report["hits"] == 0 and report["candidates_screened"] == 624

    def test_klein_bottle(self, klein):
        report = no_certificate_search(klein, 1, 5)
        assert report["hits"] == 0 and report["candidates_screened"] == 120

    def test_scalar_commutant(self, rho3):
        report = no_certificate_search(rho3, 1, 3)
        assert report["hits"] == 0

    def test_requires_no_verdict(self, torus):
        with pytest.raises(CriterionError):
            no_certificate_search(torus, 1, 3)

    def test_ambient_commutant_solved_once(self, q8_rep, monkeypatch):
        calls = []
        original = repdec.commutant

        def counting(rep):
            calls.append(rep)
            return original(rep)

        monkeypatch.setattr(repdec, "commutant", counting)
        monkeypatch.setattr(decider, "commutant", counting)
        no_certificate_search(q8_rep, 1, 1)
        assert calls == [q8_rep]

    def test_one_char_poly_per_unimodular_candidate(self, q8_rep, monkeypatch):
        """The determinant screens the candidates on their integer
        numerators over d; the characteristic polynomial is computed once
        for each one with |det| = d^n."""
        unimodular, char_polys, denominators = set(), [], set()
        det, char_poly = hyper.int_det, hyper.int_char_poly
        integer_char_poly = witness.integer_char_poly

        def counting_integer_char_poly(a, n, d):
            denominators.add(d)
            return integer_char_poly(a, n, d)

        def counting_det(a, n):
            value = det(a, n)
            (d,) = denominators
            if abs(value) == d**n:
                unimodular.add(tuple(a))
            return value

        def counting_char_poly(a, n):
            char_polys.append(tuple(a))
            return char_poly(a, n)

        monkeypatch.setattr(witness, "integer_char_poly", counting_integer_char_poly)
        monkeypatch.setattr(hyper, "int_det", counting_det)
        monkeypatch.setattr(hyper, "int_char_poly", counting_char_poly)
        report = no_certificate_search(q8_rep, 1, 1)
        assert report["candidates_screened"] == 80
        assert unimodular and len(char_polys) <= len(unimodular)
        assert set(char_polys) <= unimodular


class TestDemos:
    def test_d3_artifacts(self):
        report = demo("d3")
        assert report["group_order"] == 6
        assert report["character_table"] == [
            ["1", "1", "1"],
            ["1", "1", "-1"],
            ["2", "-1", "0"],
        ]
        assert report["degree2_action_a"] == [
            ["0", "0", "0", "1"],
            ["0", "0", "-1", "1"],
            ["0", "-1", "0", "1"],
            ["1", "-1", "-1", "1"],
        ]
        assert report["boundary"]["3*rho3 at c=2"] is True
        assert report["boundary"]["2*rho3 at c=2"] is False

    def test_q8_profile(self):
        report = demo("q8")
        (profile,) = report["decomposition"]
        assert (profile["fs_sign"], profile["e"], profile["r_components"]) == ("-", 2, 1)
        assert report["verdict_c1"]["admits_anosov"] is False
        assert all(row["imaginary"] and row["relations_hold"] for row in report["splitting_fields"])

    def test_remaining_names(self):
        assert demo("klein")["no_certificate"]["hits"] == 0
        assert demo("torus")["verdict"]["admits_anosov"] is True
        assert demo("c5")["verdict"]["witness_status"] == "attached"
        report = demo("c4")
        assert report["verdict"]["admits_anosov"] is False
        assert report["unit_search_Q(i)"]["found"] is False

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            demo("nope")


# -- each component computed once -------------------------------------------------


def _grouping_reps():
    d3 = corpus.d3_group()
    return {
        "3rho3": conjugate_rep(m_rho3(3), random_unimodular(random.Random(5), 6)),
        "2q8": multiple(corpus.q8_rep(), 2),
        "rho1+rho1+rho3+rho3": direct_sum([corpus.rho1(d3)] * 2 + [corpus.rho3(d3)] * 2),
        "reg_d4": regular_rep(
            generate_group([RatMatrix.from_rows([[0, -1], [1, 0]]), RatMatrix.from_rows([[1, 0], [0, -1]])])
        ),
    }


def _record_intertwiner_calls(monkeypatch) -> list:
    """Record (left, right) for every intertwiner_space call."""
    calls = []
    original = repdec.intertwiner_space

    def recording(left, right):
        calls.append((left, right))
        return original(left, right)

    monkeypatch.setattr(repdec, "intertwiner_space", recording)
    return calls


def _commutant_solves(calls) -> int:
    return sum(left is right for left, right in calls)


@pytest.mark.parametrize("name", sorted(_grouping_reps()))
def test_decide_solves_no_hom_space(name, monkeypatch):
    """decide groups components by character, with no Hom-space solve per
    leaf and class. Every intertwiner_space call it makes is a commutant
    solve, or a Hom_G solve, in either direction, between a proven class
    representative L and a node W that meets it, ⟨χ_L, χ_W⟩ ≠ 0; such a
    node solves no commutant."""
    calls = _record_intertwiner_calls(monkeypatch)
    verdict = decide(_grouping_reps()[name], 1)
    proven = [p.sub_rep for p in verdict.profiles if not p.unproven]
    solved = [left for left, right in calls if left is right]
    assert solved
    for left, right in calls:
        if left is right:
            continue
        rep0 = next(r for r in proven if r.gen_images is left or r.gen_images is right)
        images = right if rep0.gen_images is left else left
        assert character_inner_product(rep0, RationalRep(group=rep0.group, gen_images=images))
        assert all(solved_images is not images for solved_images in solved)


@pytest.mark.parametrize(
    "make_rep, c",
    [(corpus.c5_rep, 1), (lambda: m_rho3(3), 2), (lambda: corpus.torus_rep(3), 2)],
    ids=["c5", "3rho3", "torus3"],
)
def test_witness_solves_no_commutant_beyond_decompose(make_rep, c, monkeypatch):
    """A multiplicity-one block reuses its leaf's commutant, and a block the
    tensor shortcut serves never solves one."""
    calls = _record_intertwiner_calls(monkeypatch)
    decide(make_rep(), c)
    decide_solves = _commutant_solves(calls)
    calls.clear()
    verdict = decide_with_witness(make_rep(), c)
    assert verdict.witness_status == "attached"
    assert _commutant_solves(calls) == decide_solves


@pytest.mark.parametrize("name", sorted(_grouping_reps()))
def test_one_character_per_representation(name, monkeypatch):
    """Each representation evaluates its class character at most once,
    however many proven classes its node is tested against."""
    evaluated = []
    original = RationalRep.__dict__["character"].func

    def counting(rep):
        evaluated.append(rep)
        return original(rep)

    prop = cached_property(counting)
    prop.__set_name__(RationalRep, "character")
    monkeypatch.setattr(RationalRep, "character", prop)
    decide_with_witness(_grouping_reps()[name], 1)
    assert evaluated and len({id(rep) for rep in evaluated}) == len(evaluated)
