import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosov import corpus, repdec
from anosov.corpus import d3_degree2_rep, m_rho3
from anosov.decider import _aligned_block_basis, decide, decide_with_witness
from anosov.fingrp import (
    RationalRep,
    character_inner_product,
    conjugate_rep,
    direct_sum,
    fs_indicator_value,
    generate_group,
    group_rep_from_json_obj,
    multiple,
    natural_rep,
)
from anosov.intpoly import IntPoly, cyclotomic, factor_over_Q
from anosov.ratmat import Permutation, RatMatrix, matrix_min_poly, perm_matrix
from anosov.witness import companion_matrix, verify_witness
from anosov.repdec import (
    ComponentMember,
    IrreducibleCertificate,
    commutant,
    component_profile,
    decompose,
    restrict_action,
    restrict_rep,
)

from conftest import (
    DENSE_3RHO3,
    benchmark_cases,
    classes_by_hom,
    dense_basis,
    element_matrices,
    q32_rep,
    random_unimodular,
    regular_rep,
)


def split_once(rep):
    """One split step, with the random trials decompose draws first."""
    return repdec._split_once(rep, random.Random(0))


class TestCommutant:
    def test_rho3_scalars_only(self, rho3):
        assert commutant(rho3).dimension == 1

    def test_triple_rho3(self, rho3):
        assert commutant(multiple(rho3, 3)).dimension == 9

    def test_c4_rotation(self, c4_rep):
        assert commutant(c4_rep).dimension == 2

    def test_dimension_equals_character_inner_product(
        self, rho3, rho1, q8_rep, klein, torus, c4_rep, c5_rep
    ):
        for rep in (rho3, rho1, q8_rep, klein, torus, c4_rep, c5_rep, m_rho3(2)):
            assert commutant(rep).dimension == character_inner_product(rep, rep)

    def test_basis_elements_commute_exactly(self, q8_rep):
        for b in commutant(q8_rep).basis:
            for img in q8_rep.gen_images:
                assert b @ img == img @ b


class TestSplitOnce:
    def test_diagonal_c2_splits(self, klein):
        result = split_once(klein)
        assert not isinstance(result, IrreducibleCertificate)
        b1, b2 = result
        assert b1.cols == b2.cols == 1

    def test_rho3_certified_irreducible(self, rho3):
        result = split_once(rho3)
        assert isinstance(result, IrreducibleCertificate)
        assert result.commutant.dimension == 1

    def test_degree2_rep_splits_into_1_1_2(self, d3):
        profiles = decompose(d3_degree2_rep(d3))
        assert sorted(p.dimension for p in profiles) == [1, 1, 2]
        assert all(p.multiplicity == 1 for p in profiles)


class TestDecompose:
    def test_isotypic_multiplicity(self, rho3):
        profiles = decompose(multiple(rho3, 3))
        assert len(profiles) == 1
        assert profiles[0].multiplicity == 3 and profiles[0].dimension == 2

    def test_klein_two_classes(self, klein):
        profiles = decompose(klein)
        assert len(profiles) == 2
        assert all(p.multiplicity == 1 and p.dimension == 1 for p in profiles)

    def test_trivial_dim2(self, torus):
        profiles = decompose(torus)
        assert len(profiles) == 1 and profiles[0].multiplicity == 2

    def test_dimension_bookkeeping(self, q8_rep, c5_rep):
        for rep in (q8_rep, c5_rep, m_rho3(4)):
            profiles = decompose(rep)
            assert sum(p.multiplicity * p.dimension for p in profiles) == rep.dimension
            for p in profiles:
                assert p.dim_E == p.m_schur**2 * p.n_field
                assert p.dimension % p.e_complex == 0
                assert fs_indicator_value(p.sub_rep) in (p.e_complex, 0, -p.e_complex)

    def test_deterministic(self, rho3):
        rep = multiple(rho3, 2)
        first = decompose(rep)
        second = decompose(rep)
        assert [p.to_json_obj() for p in first] == [p.to_json_obj() for p in second]
        assert [[m.basis for m in p.members] for p in first] == [[m.basis for m in p.members] for p in second]

    @pytest.mark.parametrize(
        "make_rep",
        [
            lambda: conjugate_rep(m_rho3(3), random_unimodular(random.Random(2), 6)),
            lambda: multiple(corpus.q8_rep(), 2),
            lambda: regular_d4(),
        ],
        ids=["3rho3", "2q8", "reg_d4"],
    )
    def test_aligned_block_basis_gives_copies_of_representative(self, make_rep):
        """In the aligned basis of an isotypic block the representation is
        m copies of the class representative ρ0, block by block."""
        rep = make_rep()
        for p in decompose(rep):
            block = restrict_rep(rep, _aligned_block_basis(p))
            assert block.gen_images == tuple(
                RatMatrix.block_diag([g] * p.multiplicity) for g in p.sub_rep.gen_images
            )

    def test_base_change_invariance(self, rho3):
        rng = random.Random(4)
        rep = multiple(rho3, 2)
        u = random_unimodular(rng, rep.dimension)
        moved = conjugate_rep(rep, u)
        a = [p.to_json_obj() for p in decompose(rep)]
        b = [p.to_json_obj() for p in decompose(moved)]
        assert a == b


class TestComponentProfile:
    def test_rho3_real_type(self, rho3):
        p = component_profile(commutant(rho3))
        assert (p.dim_E, p.n_field, p.m_schur, p.e_complex) == (1, 1, 1, 1)
        assert (p.fs_sign, p.r_components) == ("+", 1)

    def test_c4_complex_type(self, c4_rep):
        p = component_profile(commutant(c4_rep))
        assert (p.dim_E, p.n_field, p.m_schur, p.e_complex) == (2, 2, 1, 2)
        assert (p.fs_sign, p.r_components) == ("0", 1)

    def test_q8_quaternionic_type(self, q8_rep):
        p = component_profile(commutant(q8_rep))
        assert (p.dim_E, p.n_field, p.m_schur, p.e_complex) == (4, 1, 2, 2)
        assert (p.fs_sign, p.r_components) == ("-", 1)

    def test_c5_rotation(self, c5_rep):
        p = component_profile(commutant(c5_rep))
        assert (p.dim_E, p.n_field, p.m_schur, p.e_complex) == (4, 4, 1, 4)
        assert (p.fs_sign, p.r_components) == ("0", 2)


def regular_d4():
    """The right regular representation of the dihedral group of order 8."""
    return regular_rep(
        generate_group([RatMatrix.from_rows([[0, -1], [1, 0]]), RatMatrix.from_rows([[1, 0], [0, -1]])])
    )


def test_pairwise_sums_built_lazily(monkeypatch):
    """decide tries the commutant basis, then its pairwise sums, and builds a
    sum only when it tries it. On 8·ρ3 the commutant has dimension 64, and
    the first basis element already splits the module."""
    rep = m_rho3(8)
    d = commutant(rep).dimension
    calls = 0
    add = RatMatrix.__add__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return add(self, other)

    monkeypatch.setattr(RatMatrix, "__add__", counting)
    assert decide(rep, 8).admits_anosov is False
    assert calls < d * (d - 1) // 2


@pytest.mark.parametrize("make_rep", [regular_d4, lambda: multiple(corpus.q8_rep(), 2)], ids=["reg_d4", "2q8"])
def test_commutant_solved_once_per_split(make_rep, monkeypatch):
    """Each node that meets no proven class solves its commutant once,
    unless ⟨χ, χ⟩ = 1 or dim 1 makes it a "dimension-one" leaf, which solves
    none, and component_profile reuses the class representative's. A node
    that meets a proven class L solves no commutant, and at most two Hom_G
    solves, each between L's own images and the node's. decompose makes no
    other intertwiner_space call. Every node is the root, a part that a
    splitting node returned, whatever the number of parts per split, or the
    complement that a peel returned."""
    rep = make_rep()
    solves = homs = calls = splits = parts = leaves = unsolved = met = complements = 0
    certified = []
    intertwiners, split = repdec.intertwiner_space, repdec._split_once
    meeting, peel = repdec._meeting_class, repdec.peel

    def counting_intertwiners(left, right):
        nonlocal solves, homs, calls
        solves += left is right
        homs += left is not right and any(x is r.gen_images for r in certified for x in (left, right))
        calls += 1
        return intertwiners(left, right)

    def counting_split(*args, **kwargs):
        nonlocal splits, parts, leaves, unsolved
        splits += 1
        result = split(*args, **kwargs)
        if isinstance(result, IrreducibleCertificate):
            leaves += 1
            unsolved += result.proof == "dimension-one"
            certified.append(result.commutant.rep)
        else:
            parts += len(result)
        return result

    def counting_meeting(sub, classes):
        nonlocal met
        result = meeting(sub, classes)
        met += result is not None
        return result

    def counting_peel(rep0, sub, k):
        nonlocal complements
        result = peel(rep0, sub, k)
        complements += result[1] is not None
        return result

    monkeypatch.setattr(repdec, "intertwiner_space", counting_intertwiners)
    monkeypatch.setattr(repdec, "_split_once", counting_split)
    monkeypatch.setattr(repdec, "_meeting_class", counting_meeting)
    monkeypatch.setattr(repdec, "peel", counting_peel)
    profiles = decompose(rep)
    # with no "search" class, _meeting_class runs once per node
    assert not any(p.unproven for p in profiles)
    assert met and splits + met == 1 + parts + complements
    assert leaves + met <= sum(p.multiplicity for p in profiles)
    assert solves == splits - unsolved and homs <= 2 * met
    assert calls == solves + homs


def d3_sum(ones: int, threes: int):
    """ones·ρ1 ⊕ threes·ρ3 of D3, in its block basis."""
    d3 = corpus.d3_group()
    return direct_sum([corpus.rho1(d3)] * ones + [corpus.rho3(d3)] * threes)


def regular_b3():
    """The right regular representation of the hyperoctahedral group B3 of
    order 48, the signed permutations of three letters."""
    flip = RatMatrix.block_diag([RatMatrix.from_rows([[-1]]), RatMatrix.identity(2)])
    return regular_rep(
        generate_group([perm_matrix(Permutation([1, 2, 0])), perm_matrix(Permutation([1, 0, 2])), flip])
    )


@pytest.mark.parametrize(
    "make_rep, commutant_solves, rows",
    [
        (lambda: d3_sum(2, 2), 2, [(1, 2, 1), (2, 2, 1)]),
        (regular_b3, 7, [(1, 1, 1)] * 2 + [(3, 3, 1)] * 2 + [(1, 1, 1)] * 2 + [(3, 3, 1)] * 2 + [(2, 2, 1)] * 2),
    ],
    ids=["rho1+rho1+rho3+rho3", "reg_b3"],
)
def test_a_node_that_meets_a_proven_class_takes_no_commutant(make_rep, commutant_solves, rows, monkeypatch):
    """A node that holds a proven class and more besides is peeled through
    it, where splitting it would solve its commutant, and a leaf with
    ⟨χ, χ⟩ = 1 is proven from its character: only the nodes that split
    solve one, 2 on ρ1⊕ρ1⊕ρ3⊕ρ3 in place of 5 and 7 on regular B3 in place
    of 21, with the same rows in the same order."""
    solves = 0
    intertwiners = repdec.intertwiner_space

    def counting(left, right):
        nonlocal solves
        solves += left is right
        return intertwiners(left, right)

    monkeypatch.setattr(repdec, "intertwiner_space", counting)
    profiles = decompose(make_rep())
    assert solves == commutant_solves
    assert [(p.dimension, p.multiplicity, p.r_components) for p in profiles] == rows


class TestPeel:
    """peel(ρ3, ρ1⊕ρ3⊕ρ3, 2): two maps whose images carry ρ3's own images,
    and a complement that meets ρ3 nowhere."""

    @staticmethod
    def _check(sub):
        rho3 = corpus.rho3(sub.group)
        maps, rest = repdec.peel(rho3, sub, 2)
        assert len(maps) == 2
        # sub(g)·[φ1 φ2] = [φ1 φ2]·(ρ3(g) ⊕ ρ3(g)), with independent columns
        block = RatMatrix.from_columns([list(phi.column(j)) for phi in maps for j in range(phi.cols)])
        assert restrict_rep(sub, block).gen_images == tuple(RatMatrix.block_diag([g, g]) for g in rho3.gen_images)
        assert rest is not None and rest.cols == 1
        columns = [list(block.column(j)) for j in range(4)] + [list(rest.column(0))]
        assert RatMatrix.from_columns(columns).rank() == 5
        assert character_inner_product(rho3, restrict_rep(sub, rest)) == 0

    def test_block_basis(self):
        self._check(d3_sum(1, 2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_under_unimodular_base_changes(self, seed):
        self._check(conjugate_rep(d3_sum(1, 2), random_unimodular(random.Random(seed), 5)))


@pytest.mark.parametrize("seed", [0, 1])
def test_classes_by_character_match_classes_by_hom(seed, monkeypatch):
    """On every leaf of the benchmark's isotypic and witness corpora,
    grouping by character gives the classes and member order that grouping
    by Hom spaces gives: dim Hom_G(V, W) = ⟨χ_V, χ_W⟩."""
    leaves = []

    def recording(basis, rep):
        leaf = ComponentMember(basis, rep)
        leaves.append(leaf)
        return leaf

    monkeypatch.setattr(repdec, "ComponentMember", recording)
    cases = benchmark_cases()
    seen = set()
    for case in cases.FULL["isotypic"]() + cases.FULL["witness"]():
        key = (case.generators, case.rep_images)
        if key in seen:
            continue
        seen.add(key)
        _, rep, _ = group_rep_from_json_obj(case.input_obj(seed))
        leaves.clear()
        profiles = decompose(rep)
        assert [list(p.members) for p in profiles] == classes_by_hom(leaves), case.case_id


def test_own_inner_product_is_the_commutant_dimension(monkeypatch):
    """On every node that decompose visits on the benchmark's full corpus,
    ⟨χ_W, χ_W⟩ = dim_Q End_G(W) (Serre, §2.3), the identity the
    "dimension-one" leaves are read from; where it is 1, the solved
    commutant is spanned by the identity that those leaves carry."""
    nodes = []
    meeting = repdec._meeting_class

    def recording(sub, classes):
        nodes.append(sub)
        return meeting(sub, classes)

    monkeypatch.setattr(repdec, "_meeting_class", recording)
    cases = benchmark_cases()
    seen = set()
    for make_cases in cases.FULL.values():
        for case in make_cases():
            key = (case.generators, case.rep_images)
            if key in seen:
                continue
            seen.add(key)
            _, rep, _ = group_rep_from_json_obj(case.input_obj(0))
            decompose(rep)
    assert len(nodes) > len(seen)
    for sub in nodes:
        com = commutant(sub)
        assert character_inner_product(sub, sub) == com.dimension
        if com.dimension == 1:
            assert com.basis == (RatMatrix.identity(sub.dimension),)


def _perm_group(*images):
    return generate_group([perm_matrix(Permutation(p)) for p in images])


def test_restriction_solves_once_per_generator(monkeypatch):
    """restrict_rep maps the generators only: on the regular representation
    of A5 (order 60) it makes one solve per generator."""
    group = _perm_group([1, 2, 3, 4, 0], [1, 2, 0, 3, 4])
    rep = regular_rep(group)
    n = rep.dimension
    ones = RatMatrix.from_columns([[1] * n])
    sum_zero = RatMatrix.from_columns([[int(i == j) - int(i == j + 1) for i in range(n)] for j in range(n - 1)])
    calls = 0
    solve = RatMatrix.solve

    def counting(self, rhs):
        nonlocal calls
        calls += 1
        return solve(self, rhs)

    monkeypatch.setattr(RatMatrix, "solve", counting)
    trivial = restrict_rep(rep, ones)
    assert calls == len(group.gen_indices) == 2
    assert trivial.gen_images == (RatMatrix.identity(1),) * 2
    calls = 0
    augmentation = restrict_rep(rep, sum_zero)
    assert calls == 2
    assert character_inner_product(augmentation, augmentation) == group.order - 1


def test_decompose_builds_no_full_image_list(monkeypatch):
    """On the natural representation of S5 (order 120), and on benchmark
    inputs whose splitting meets proper prime-power minimal polynomials, no
    split node, leaf or class sum reads a full image list."""
    s5 = natural_rep(_perm_group([1, 2, 3, 4, 0], [1, 0, 2, 3, 4]))
    cases = {case.case_id: case for case in benchmark_cases().FULL["isotypic"]() + benchmark_cases().FULL["closure"]()}
    # ingestion checks the homomorphism on the full image list: build first
    prime_power = [
        (cases[name], group_rep_from_json_obj(cases[name].input_obj(seed, 0))[1])
        for name, seed in (("4rho3_c3", 1), ("2q8_c1", 2), ("2s5_c1", 1))
    ]

    def forbidden(self):
        raise AssertionError("a full image list was built")

    # a representation has no image list to read; this one would refuse
    monkeypatch.setattr(RationalRep, "images", property(forbidden), raising=False)
    profiles = decompose(s5)
    assert sorted((p.dimension, p.multiplicity, p.dim_E) for p in profiles) == [(1, 1, 1), (4, 1, 1)]
    steps = 0
    partner = repdec._trace_partner

    def counting(com, y):
        nonlocal steps
        steps += 1
        return partner(com, y)

    monkeypatch.setattr(repdec, "_trace_partner", counting)
    for case, rep in prime_power:
        steps = 0
        profiles = decompose(rep)
        rows = sorted((p.dimension, p.multiplicity, p.r_components) for p in profiles)
        assert rows == sorted(case.components), case.case_id
        assert steps > 0, case.case_id


def _prime_power_trials(com):
    """The basis elements and pair sums of com whose minimal polynomial is a
    proper prime power p^m, each with p."""
    for x in com.basis_and_pair_sums():
        factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(x)))
        if len(factors) == 1 and factors[0][1] > 1:
            yield x, factors[0][0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "make_rep, has_trials",
    [
        (lambda: m_rho3(2), True),
        (lambda: m_rho3(4), True),
        (lambda: multiple(corpus.q8_rep(), 2), True),
        (regular_d4, False),
    ],
    ids=["2rho3", "4rho3", "2q8", "reg_d4"],
)
def test_trace_partner_splits_every_prime_power_trial(make_rep, has_trials, seed):
    """For each trial x with minimal polynomial p^m, m ≥ 2, z = b·p(x) is
    formed with the first basis element b of nonzero trace pairing (checked
    against tr(b·p(x)) from the matrix product), tr z ≠ 0, and the primary
    kernels of z, one per factor, are nonzero complementary invariant
    subspaces. Seed 0 is the representation itself, other seeds a unimodular
    conjugate. The isotypic commutants are matrix algebras, whose bases hold
    nilpotents; the regular representation's basis and pair sums may have no
    such trial."""
    rep = make_rep()
    if seed:
        rep = conjugate_rep(rep, random_unimodular(random.Random(seed), rep.dimension))
    com = commutant(rep)
    trials = 0
    for x, p in _prime_power_trials(com):
        trials += 1
        y = repdec.poly_at_matrix(p.coeffs, x)
        z = repdec._trace_partner(com, y)
        b = next(b for b in com.basis if (b @ y).trace() != 0)
        assert z == b @ y and z.trace() != 0
        factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(z)))
        # singular, not nilpotent: X^j·q with q(0) ≠ 0
        assert len(factors) >= 2 and IntPoly((0, 1)) in [f for f, _ in factors]
        _assert_primary_kernels(rep, z, factors, repdec._split_with(rep, z, factors))
    assert trials or not has_trials


def _assert_primary_kernels(rep, x, factors, kernels):
    """kernels are one nonzero invariant subspace per factor p^e of x's
    minimal polynomial, on which x has minimal polynomial p^e, and together
    they form a basis."""
    assert len(kernels) == len(factors)
    for basis, (p, e) in zip(kernels, factors):
        assert basis.cols
        for img in rep.gen_images:
            restrict_action(basis, img)
        minpoly = IntPoly.clear_denominators(matrix_min_poly(restrict_action(basis, x)))
        assert minpoly == p**e
    columns = [k.column(j) for k in kernels for j in range(k.cols)]
    both = RatMatrix.from_columns(columns)
    assert both.is_square and both.det() != 0


def test_trace_partner_refuses_a_nilpotent_orthogonal_to_the_basis():
    # span{N} with N² = 0 is no commutant of a representation: tr(N·N) = 0
    nilpotent = RatMatrix.from_rows([[0, 1], [0, 0]])
    com = repdec.CommutantBasis(rep=corpus.klein_rep(), basis=(nilpotent,))
    with pytest.raises(repdec.DecompositionError):
        repdec._trace_partner(com, nilpotent)


def _left_multiplication(group, h: RatMatrix) -> RatMatrix:
    """e_g ↦ e_{h·g} on the basis of the regular representation, built as
    regular_rep builds e_g ↦ e_{g·s}; left and right multiplication commute."""
    elements = element_matrices(natural_rep(group))
    index = {g: i for i, g in enumerate(elements)}
    return perm_matrix(Permutation(index[h @ g] for g in elements))


@pytest.mark.parametrize(
    "terms, n_factors, top_exponent",
    [
        # (X − 1)(X + 1)(X² + 1)
        (((1, [[0, -1], [1, 0]]),), 3, 1),
        # X²·(X − 2)(X + 2)(X − 4)(X + 4)
        (((2, [[0, -1], [1, 0]]), (1, [[1, 0], [0, -1]]), (1, [[0, 1], [-1, 0]])), 5, 2),
    ],
    ids=["rotation", "with_a_square"],
)
def test_split_with_returns_every_primary_kernel(terms, n_factors, top_exponent):
    """A commutant element x of the regular representation of D4, an integer
    combination of left multiplications, whose minimal polynomial has at
    least three coprime factors splits the space into one kernel per
    factor p^e, on which x has minimal polynomial p^e."""
    rep = regular_d4()
    x = RatMatrix.zeros(rep.dimension, rep.dimension)
    for c, h in terms:
        x = x + _left_multiplication(rep.group, RatMatrix.from_rows(h)).scale(c)
    assert all(x @ img == img @ x for img in rep.gen_images)
    factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(x)))
    assert len(factors) == n_factors and max(e for _, e in factors) == top_exponent
    _assert_primary_kernels(rep, x, factors, repdec._split_with(rep, x, factors))


def test_regular_a5_splits_into_every_primary_kernel_at_once(monkeypatch):
    """The regular representation of A5 (dimension 60) has one class per
    rational irreducible, of multiplicity its dimension over its commutant's
    centre: 1, 4, 5 and the 6-dim sum of the two Galois-conjugate 3-dim
    complex irreducibles (n = r = 2). Queuing every primary kernel of a
    trial keeps the splitting to at most 20 nodes."""
    rep = regular_rep(_perm_group([1, 2, 3, 4, 0], [1, 2, 0, 3, 4]))
    nodes = 0
    split = repdec._split_once

    def counting(*args, **kwargs):
        nonlocal nodes
        nodes += 1
        return split(*args, **kwargs)

    monkeypatch.setattr(repdec, "_split_once", counting)
    rows = sorted((p.dimension, p.multiplicity, p.n_field, p.r_components) for p in decompose(rep))
    assert rows == [(1, 1, 1, 1), (4, 4, 1, 1), (5, 5, 1, 1), (6, 3, 2, 2)]
    assert nodes <= 20


# -- irreducibility certificates ----------------------------------------------


def c8_rep():
    return natural_rep(generate_group([companion_matrix(cyclotomic(8))]))


def _reducible_reps():
    d3 = corpus.d3_group()
    return {
        "2rho3": m_rho3(2),
        "klein": corpus.klein_rep(),
        "torus2": corpus.torus_rep(2),
        "rho1+rho2": direct_sum([corpus.rho1(d3), corpus.rho2(d3)]),
        "2q8": multiple(corpus.q8_rep(), 2),
    }


def _irreducible_reps():
    """Each with the proof its certificate must carry."""
    return {
        "rho3": (corpus.rho3(), "dimension-one"),
        "q8": (corpus.q8_rep(), "definite"),
        "c4": (corpus.c4_rep(), "definite"),
        "c5": (corpus.c5_rep(), "field"),
        "c8": (c8_rep(), "field"),
    }


REDUCIBLE = _reducible_reps()
IRREDUCIBLE = _irreducible_reps()


def _outcome(result):
    return result.proof if isinstance(result, IrreducibleCertificate) else "split"


def _old_search_splits(rep, rng: random.Random) -> bool:
    """The exhaustive search that once declared a leaf irreducible: the
    commutant basis, its pairwise sums and 20 random combinations, each
    tested for a reducible minimal polynomial."""
    com = commutant(rep)
    if rep.dimension == 1 or com.dimension == 1:
        return False
    b = com.basis
    trials = list(b) + [b[i] + b[j] for i, j in itertools.combinations(range(len(b)), 2)]
    trials += [repdec.random_combination(b, rng, repdec.COEFF_RANGE) for _ in range(20)]
    for x in trials:
        factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(x)))
        if len(factors) > 1 or factors[0][1] > 1:
            return True
    return False


class TestIrreducibleCertificate:
    @pytest.mark.parametrize("name", sorted(REDUCIBLE))
    def test_reducible_never_certified(self, name):
        assert _outcome(split_once(REDUCIBLE[name])) == "split"

    @pytest.mark.parametrize("name", sorted(IRREDUCIBLE))
    def test_irreducible_certified_with_proof(self, name):
        rep, proof = IRREDUCIBLE[name]
        result = split_once(rep)
        assert isinstance(result, IrreducibleCertificate)
        assert result.proof == proof
        assert result.trials <= (2 if proof == "field" else 0)

    @given(st.sampled_from(sorted(REDUCIBLE) + sorted(IRREDUCIBLE)), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_outcome_invariant_under_base_change(self, name, seed):
        rep, expected = IRREDUCIBLE[name] if name in IRREDUCIBLE else (REDUCIBLE[name], "split")
        moved = conjugate_rep(rep, random_unimodular(random.Random(seed), rep.dimension))
        assert _outcome(split_once(moved)) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus_leaves_proved_and_old_search_agrees(self, seed):
        """Every leaf that decompose reaches on the benchmark's isotypic and
        witness corpora carries an exact proof, and the old exhaustive
        search finds no split of it either."""
        cases = benchmark_cases()
        seen = set()
        for case in cases.FULL["isotypic"]() + cases.FULL["witness"]():
            key = (case.generators, case.rep_images)
            if key in seen:
                continue
            seen.add(key)
            _, rep, _ = group_rep_from_json_obj(case.input_obj(seed))
            for profile in decompose(rep):
                for member in profile.members:
                    leaf = restrict_rep(rep, member.basis)
                    assert _outcome(split_once(leaf)) != "search", case.case_id
                    assert not _old_search_splits(leaf, random.Random(0)), case.case_id

    def test_q8_leaf_needs_no_minimal_polynomial(self, q8_rep, monkeypatch):
        """Q8's commutant is the rational quaternions, a definite algebra: the
        leaf is proved without a trial, where the search made 30."""
        calls = 0
        min_poly = repdec.matrix_min_poly

        def counting(x):
            nonlocal calls
            calls += 1
            return min_poly(x)

        monkeypatch.setattr(repdec, "matrix_min_poly", counting)
        profiles = decompose(q8_rep)
        assert [p.dim_E for p in profiles] == [4]
        assert calls == 0

    def test_proof_not_in_default_json(self, q8_rep):
        assert all("proof" not in p.to_json_obj() for p in decompose(q8_rep))
        assert "proof" not in str(decide(q8_rep, 1).to_json_obj())


class TestSearchLeafMeetingAnotherClass:
    """A "search" leaf whose character meets a proven class's is peeled
    through it, and no verdict comes from two classes whose characters are
    not orthogonal."""

    @staticmethod
    def _assert_closed_form(rep, m, c, label):
        profiles = decompose(rep)
        for p, q in itertools.combinations(profiles, 2):
            assert character_inner_product(p.sub_rep, q.sub_rep) == 0, label
        verdict = decide(rep, c)
        rows = [(r["dimension"], r["multiplicity"], r["r_components"]) for r in verdict.components]
        assert rows == [(2, m, 1)], label
        assert verdict.admits_anosov == (m > c), label

    def test_dense_three_copies_of_rho3(self):
        _, rep, c = group_rep_from_json_obj(DENSE_3RHO3)
        self._assert_closed_form(rep, 3, c, "repro")
        verdict = decide_with_witness(rep, c)
        assert verdict.witness_status == "attached"
        assert verify_witness(rep, verdict.witness.witness, c).is_valid

    @pytest.mark.parametrize("m, c", [(3, 2), (4, 3)])
    def test_dense_bases_match_the_closed_form(self, m, c):
        # at the bases k = 3, 7, 13, 14 (m = 3) and 6, 9, 10 (m = 4) a leaf
        # ρ3 ⊕ ρ3 ends in "search"
        for k in range(15):
            self._assert_closed_form(dense_basis(m_rho3(m), k), m, c, k)

    def test_meeting_leaf_split_through_the_smaller_class(self, monkeypatch):
        # in the 12th dense basis of 5·ρ3 a leaf ρ3 ⊕ ρ3 ends in "search"
        # before any ρ3 is proven; once the queue empties it is queued
        # again, and peeled as peel(ρ3, leaf, 2)
        searched, peeled = [], []
        split, peel = repdec._split_once, repdec.peel

        def recording_split(rep, *args, **kwargs):
            result = split(rep, *args, **kwargs)
            if isinstance(result, IrreducibleCertificate) and result.proof == "search":
                searched.append(rep)
            return result

        def recording_peel(rep0, sub, k):
            peeled.append((rep0, sub, k))
            return peel(rep0, sub, k)

        monkeypatch.setattr(repdec, "_split_once", recording_split)
        monkeypatch.setattr(repdec, "peel", recording_peel)
        profiles = decompose(dense_basis(m_rho3(5), 12))
        assert [(p.dimension, p.multiplicity) for p in profiles] == [(2, 5)]
        (leaf,) = searched
        assert leaf.dimension == 4
        assert [(rep0, k) for rep0, sub, k in peeled if sub is leaf] == [(profiles[0].sub_rep, 2)]

    def test_proven_classes_do_no_extra_work(self, monkeypatch):
        # regular Q8 ends in no "search" class, so no node is queued twice;
        # every inner product reads a class representative's character
        # against a node's, in a meeting test or in the last check, or is a
        # node's own ⟨χ, χ⟩, asked once by a node that passes the degree gate
        inner = repdec.character_inner_product
        pairs = []

        def recording(a, b):
            pairs.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(repdec, "character_inner_product", recording)
        profiles = repdec.decompose(regular_rep(corpus.q8_rep().group))
        assert not any(p.unproven for p in profiles)
        representatives = [p.sub_rep for p in profiles]
        own = [a for a, b in pairs if a is b and not any(a is r for r in representatives)]
        assert all(any(a is r for r in representatives) or a is b for a, b in pairs)
        assert own and len({id(a) for a in own}) == len(own)

    def test_peel_through_no_summand_is_an_error(self, d3):
        # ρ1 ⊕ ρ2 meets ρ1 ⊕ ρ3 ⊕ ρ3, but is no summand of it
        rho1, rho2, rho3 = corpus.rho1(d3), corpus.rho2(d3), corpus.rho3(d3)
        with pytest.raises(repdec.DecompositionError):
            repdec.peel(direct_sum([rho1, rho2]), direct_sum([rho1, rho3, rho3]), 1)

    def test_search_classes_of_one_dimension_that_meet_are_an_error(self, d3, monkeypatch):
        # ρ1 ⊕ ρ1 and ρ1 ⊕ ρ2, each declared a "search" leaf, meet, and no
        # proven class peels either: the last check refuses the classes
        rho1, rho2 = corpus.rho1(d3), corpus.rho2(d3)
        unit = [[int(i == j) for i in range(4)] for j in range(4)]
        halves = [RatMatrix.from_columns(unit[:2]), RatMatrix.from_columns(unit[2:])]

        def two_search_leaves(rep, rng, com=None):
            if rep.dimension == 4:
                return halves
            return IrreducibleCertificate(trials=0, commutant=commutant(rep), proof="search")

        monkeypatch.setattr(repdec, "_split_once", two_search_leaves)
        with pytest.raises(repdec.DecompositionError, match="orthogonality"):
            decompose(direct_sum([rho1, rho1, rho1, rho2]))


class TestUnprovenRows:
    def test_q32_row_is_flagged(self):
        # Q32's one leaf ends in "search" and meets no other class
        rep = q32_rep()
        (profile,) = decompose(rep)
        assert profile.proof == "search" and profile.unproven
        assert profile.to_json_obj()["unproven"] is True
        (row,) = decide(rep, 1).to_json_obj()["components"]
        assert row["unproven"] is True and row["passes"] is True

    def test_dense_regular_d4_rows_are_right_or_flagged(self):
        """In a dense basis a leaf ρ ⊕ ρ of D4's 2-dim irreducible can end in
        "search" and meet no other class (the bases k = 1 and 7 here). The
        verdict still follows the closed form, four classes (1, 1, 1) and one
        (2, 2, 1), NO at c = 1, and a row off it is flagged unproven."""
        closed_form = [(1, 1, 1)] * 4 + [(2, 2, 1)]
        for k in range(15):
            verdict = decide(dense_basis(regular_d4(), k), 1).to_json_obj()
            assert verdict["admits_anosov"] is False, k
            rows = verdict["components"]
            keys = [(r["dimension"], r["multiplicity"], r["r_components"]) for r in rows]
            assert all(key in closed_form or row.get("unproven") for key, row in zip(keys, rows)), k

    def test_proven_rows_carry_no_flag(self, q8_rep):
        assert all("unproven" not in p.to_json_obj() for p in decompose(q8_rep))
        assert all("unproven" not in row for row in decide(q8_rep, 1).to_json_obj()["components"])


# (dimension, multiplicity, r) of every class, from the character tables:
# ρ3 and the 2-dim irreducible of D4 are absolutely irreducible, Q8's 4-dim
# rational irreducible is the quaternions (r = 1, once in the regular
# representation), and S4 has five absolutely irreducible characters of
# degrees 1, 1, 2, 3, 3
CLOSED_FORMS = {
    **{f"{m}rho3": (lambda m=m: m_rho3(m), [(2, m, 1)]) for m in range(1, 7)},
    **{f"{k}q8": (lambda k=k: multiple(corpus.q8_rep(), k), [(4, k, 1)]) for k in range(1, 4)},
    "reg_d4": (regular_d4, [(1, 1, 1)] * 4 + [(2, 2, 1)]),
    "reg_q8": (lambda: regular_rep(corpus.q8_rep().group), [(1, 1, 1)] * 4 + [(4, 1, 1)]),
    "reg_s4": (lambda: regular_rep(_perm_group([1, 2, 3, 0], [1, 0, 2, 3])), [(1, 1, 1)] * 2 + [(2, 2, 1)] + [(3, 3, 1)] * 2),
}


class TestDecompositionCrossCheck:
    """The decomposition against what it claims. The member bases together
    form an invertible B; B⁻¹ρ(g)B is block diagonal, each member's block
    being the images of the representation it carries, which for a member
    split off through Hom_G are its class representative's own; and the
    rows match the closed form. A row may differ from it only when flagged
    unproven (TestUnprovenRows), and then Σ dim·m and Σ r·m still agree."""

    @staticmethod
    def _check(rep, closed_form, label) -> int:
        """The checks above; returns the number of members that carry their
        class representative's images without being it."""
        profiles = decompose(rep)
        members = [m for p in profiles for m in p.members]
        b = RatMatrix.from_columns([list(m.basis.column(j)) for m in members for j in range(m.basis.cols)])
        assert b.rows == b.cols and b.det() != 0, label
        for s, g in enumerate(rep.gen_images):
            assert g @ b == b @ RatMatrix.block_diag([m.rep.gen_images[s] for m in members]), label
        rows = [(p.dimension, p.multiplicity, p.r_components) for p in profiles]
        proven = sorted(row for row, p in zip(rows, profiles) if not p.unproven)
        assert all(proven.count(row) <= closed_form.count(row) for row in proven), label
        assert sum(d * m for d, m, _ in rows) == sum(d * m for d, m, _ in closed_form), label
        assert sum(r * m for _, m, r in rows) == sum(r * m for _, m, r in closed_form), label
        if not any(p.unproven for p in profiles):
            assert sorted(rows) == sorted(closed_form), label
        return sum(m.rep is p.sub_rep for p in profiles for m in p.members[1:])

    @pytest.mark.parametrize("name", [name for name in CLOSED_FORMS if name != "reg_s4"])
    def test_dense_bases(self, name):
        make_rep, closed_form = CLOSED_FORMS[name]
        through_hom = sum(self._check(dense_basis(make_rep(), k), closed_form, k) for k in range(15))
        # from three copies on, some node is peeled into two or more
        assert through_hom or max(m for _, m, _ in closed_form) < 3

    def test_regular_s4(self):
        # one dense basis of the 24-dim regular representation takes about
        # 100 s in its commutant solve, so S4 is checked in its permutation
        # basis alone
        make_rep, closed_form = CLOSED_FORMS["reg_s4"]
        self._check(make_rep(), closed_form, "reg_s4")


def _leaf_certificates(rep, monkeypatch):
    """The certificate of every leaf decompose(rep) reaches."""
    certificates = []
    split = repdec._split_once

    def recording(*args, **kwargs):
        result = split(*args, **kwargs)
        if isinstance(result, IrreducibleCertificate):
            certificates.append(result)
        return result

    with monkeypatch.context() as patched:
        patched.setattr(repdec, "_split_once", recording)
        decompose(rep)
    return certificates


class TestFieldDegreeFromProof:
    """n = dim Z(E) read off a leaf's irreducibility proof agrees with the
    center solved for as the kernel of the brackets."""

    @staticmethod
    def _assert_agrees(rep, monkeypatch, label) -> set:
        proofs = set()
        for cert in _leaf_certificates(rep, monkeypatch):
            from_proof = component_profile(cert.commutant, proof=cert.proof).n_field
            assert from_proof == repdec._center_dimension(cert.commutant.basis), (label, cert.proof)
            proofs.add(cert.proof)
        return proofs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_corpus_leaves(self, seed, monkeypatch):
        cases = benchmark_cases()
        proofs = set()
        for case in cases.FULL["isotypic"]() + cases.FULL["witness"]() + cases.FULL["lattice"]():
            _, rep, _ = group_rep_from_json_obj(case.input_obj(seed))
            proofs |= self._assert_agrees(rep, monkeypatch, case.case_id)
        assert {"dimension-one", "definite", "field"} <= proofs

    def test_rotations_and_regular_q8(self, monkeypatch):
        reps = {
            "c4": corpus.c4_rep(),
            "c5": corpus.c5_rep(),
            "c8": c8_rep(),
            "reg_q8": regular_rep(corpus.q8_rep().group),
        }
        proofs = set()
        for name, rep in reps.items():
            proofs |= self._assert_agrees(rep, monkeypatch, name)
        assert {"dimension-one", "definite", "field"} <= proofs

    def test_proved_leaves_solve_no_center(self, monkeypatch):
        def refuse(basis):
            raise AssertionError("center solved for a proved leaf")

        monkeypatch.setattr(repdec, "_center_dimension", refuse)
        profiles = decompose(regular_rep(corpus.q8_rep().group))
        assert sorted((p.dim_E, p.n_field) for p in profiles) == [(1, 1)] * 4 + [(4, 1)]


@st.composite
def _symmetric_integer_matrices(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # B·Bᵀ: positive semidefinite, so every leading minor is ≥ 0, and a
        # singular leading block of B gives a zero one
        b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        return [[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
    upper = [[draw(st.integers(-4, 4)) for _ in range(n - i)] for i in range(n)]
    return [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]


class TestLeadingMinors:
    """The one-pass Bareiss test against a determinant per leading minor."""

    @staticmethod
    def _per_minor(a) -> bool:
        return all(RatMatrix.from_rows([row[:k] for row in a[:k]]).det() > 0 for k in range(1, len(a) + 1))

    @given(_symmetric_integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_per_minor_determinants(self, a):
        expected = self._per_minor(a)
        assert repdec._leading_minors_positive([list(row) for row in a]) == expected

    @pytest.mark.parametrize(
        "a, expected",
        [
            ([[2, 1], [1, 1]], True),
            ([[1, 1], [1, 1]], False),  # second minor 0
            ([[0, 1], [1, 5]], False),  # first minor 0
            ([[1, 2, 0], [2, 4, 1], [0, 1, 9]], False),  # second minor 0, third −1
            ([[1, 2, 3], [2, 5, 4], [3, 4, 30]], True),
        ],
    )
    def test_zero_and_positive_leading_minors(self, a, expected):
        assert self._per_minor(a) == expected
        assert repdec._leading_minors_positive(a) == expected
