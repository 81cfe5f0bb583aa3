import itertools
import json
import random
from fractions import Fraction

import pytest

from anosov.corpus import d3_degree2_rep, rho3_prime
from anosov.fingrp import (
    GroupClosureError,
    HomomorphismError,
    RationalRep,
    character_inner_product,
    class_character,
    conjugacy_classes,
    conjugate_rep,
    direct_sum,
    fs_indicator_value,
    generate_group,
    group_rep_from_json_obj,
    multiple,
    natural_rep,
    rep_from_generator_images,
)
from anosov.ratmat import Permutation, RatMatrix, perm_matrix
from anosov.repdec import intertwiner_space

from conftest import (
    benchmark_cases,
    character,
    element_matrices,
    fs_indicator_by_element,
    homomorphism_by_products,
    inner_product_by_element,
    random_unimodular,
    regular_rep,
)


def perm(images):
    return perm_matrix(Permutation(images))


ORDER_MESSAGE = r"^group order exceeds max_order={}; generators may generate an infinite group$"


# the hyperoctahedral group B3 (order 48), A5 (order 60) and S5 (order 120)
# on their natural modules
B3_GENS = [perm([1, 2, 0]), perm([1, 0, 2]), RatMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]
A5_GENS = [perm([1, 2, 3, 4, 0]), perm([1, 2, 0, 3, 4])]
S5_GENS = [perm([1, 2, 3, 4, 0]), perm([1, 0, 2, 3, 4])]
HALVE = RatMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def dense_conjugates(gens, seed: int) -> list:
    """U g U⁻¹ for a seeded random unimodular U: entries beyond ±1 and
    several nonzeros per row, where the natural generators are monomial."""
    u = random_unimodular(random.Random(seed), gens[0].rows)
    u_inv = u.inverse()
    return [u @ g @ u_inv for g in gens]


def keyed_check_accepts(rep) -> bool:
    try:
        rep.check_homomorphism()
    except HomomorphismError:
        return False
    return True


def perturbations(images: list) -> list:
    """images, then images with one of them negated, with two of them
    swapped, and with one of them times the shear I + E_{0,n−1} (det 1)."""
    n = images[0].rows
    shear = RatMatrix.from_rows([[int(i == j) + int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)])
    out = [images]
    for s in range(len(images)):
        out.append(images[:s] + [-images[s]] + images[s + 1 :])
        if n > 1:
            out.append(images[:s] + [images[s] @ shear] + images[s + 1 :])
    for s, t in itertools.combinations(range(len(images)), 2):
        swapped = list(images)
        swapped[s], swapped[t] = images[t], images[s]
        out.append(swapped)
    return out


@pytest.fixture(scope="module")
def groups(d3, q8_rep):
    return {
        "d3": d3,
        "q8": q8_rep.group,
        "b3": generate_group(B3_GENS),
        "a5": generate_group(A5_GENS),
        "s5": generate_group(S5_GENS),
        "b3_dense": generate_group(dense_conjugates(B3_GENS, 3)),
        "a5_dense": generate_group(dense_conjugates(A5_GENS, 5)),
        # entries ±1/2 and ±2: orbit points with denominators
        "b3_halves": generate_group([HALVE @ g @ HALVE.inverse() for g in B3_GENS]),
    }


class TestGenerateGroup:
    def test_d3_order_and_classes(self, d3):
        assert d3.order == 6
        assert sorted(len(c) for c in conjugacy_classes(d3)) == [1, 2, 3]
        assert conjugacy_classes(d3)[0] == [0]

    def test_trivial_group(self):
        g = generate_group([RatMatrix.identity(2)])
        assert g.order == 1
        assert conjugacy_classes(g) == [[0]]

    def test_rotation_gives_c4(self):
        g = generate_group([RatMatrix.from_rows([[0, -1], [1, 0]])])
        assert g.order == 4
        assert [len(c) for c in conjugacy_classes(g)] == [1, 1, 1, 1]

    def test_infinite_group_guard(self):
        with pytest.raises(GroupClosureError):
            generate_group([RatMatrix.from_rows([[1, 1], [0, 1]])], max_order=50)

    def test_guard_on_an_orbit(self):
        # the companion matrix of Φ5 has order 5, and the orbit of e_0 is
        # e_0, e_1, e_2, e_3, −(e_0 + e_1 + e_2 + e_3)
        rotation = RatMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
        with pytest.raises(GroupClosureError, match=ORDER_MESSAGE.format(4)) as excinfo:
            generate_group([rotation], max_order=4)
        assert excinfo.traceback[-1].name == "_orbit_action"

    def test_guard_on_the_closure(self):
        # S4 on its natural module: orbits of at most 4 points, order 24
        s4 = [perm([1, 2, 3, 0]), perm([1, 0, 2, 3])]
        with pytest.raises(GroupClosureError, match=ORDER_MESSAGE.format(23)) as excinfo:
            generate_group(s4, max_order=23)
        assert excinfo.traceback[-1].name == "generate_group"
        assert generate_group(s4, max_order=24).order == 24

    def test_closure_takes_no_matrix_products(self, monkeypatch):
        """Closing S7 on its natural module works on orbit indices only."""
        products = 0
        matmul = RatMatrix.__matmul__

        def counting(self, other):
            nonlocal products
            products += 1
            return matmul(self, other)

        monkeypatch.setattr(RatMatrix, "__matmul__", counting)
        group = generate_group([perm([1, 2, 3, 4, 5, 6, 0]), perm([1, 0, 2, 3, 4, 5, 6])])
        assert products == 0
        assert group.order == 5040
        assert len(conjugacy_classes(group)) == 15

    def test_non_invertible_generator(self):
        with pytest.raises(ValueError):
            generate_group([RatMatrix.from_rows([[1, 1], [1, 1]])])

    def test_determinant_not_plus_minus_one_rejected(self):
        # a rational matrix of finite order has determinant ±1
        with pytest.raises(ValueError, match="determinant 2"):
            generate_group([RatMatrix.from_rows([[2]])])

    def test_max_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_order"):
            generate_group([RatMatrix.identity(2)], max_order=0)

    @pytest.mark.parametrize("name", ["d3", "q8", "b3", "b3_dense", "a5_dense", "b3_halves"])
    def test_cayley_graph_squares_inverses(self, name, groups):
        group = groups[name]
        gens = group.generators()
        elements = element_matrices(natural_rep(group))
        ident = elements[0]
        assert ident == RatMatrix.identity(group.degree)
        assert len(set(elements)) == group.order
        for g, elem in enumerate(elements):
            for s, j in enumerate(group.right[g]):
                assert elements[j] == elem @ gens[s]
            if g:
                i, s = group.parent[g]
                assert i < g and group.right[i][s] == g
            assert elements[group.sq_map[g]] == elem @ elem
            assert elem @ elements[group.inv_map[g]] == ident

    @pytest.mark.parametrize(
        "name, sizes",
        [
            ("d3", [1, 2, 3]),
            ("q8", [1, 1, 2, 2, 2]),
            ("b3", [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]),
            ("a5", [1, 12, 12, 15, 20]),
            ("b3_dense", [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]),
            ("a5_dense", [1, 12, 12, 15, 20]),
            ("b3_halves", [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]),
        ],
    )
    def test_classes_match_brute_force_conjugation(self, name, sizes, groups):
        group = groups[name]
        elements = element_matrices(natural_rep(group))
        index = {elem: i for i, elem in enumerate(elements)}
        inverses = [elem.inverse() for elem in elements]
        expected, seen = [], set()
        for i, x in enumerate(elements):
            if i not in seen:
                cls = sorted({index[h @ x @ h_inv] for h, h_inv in zip(elements, inverses)})
                expected.append(cls)
                seen.update(cls)
        assert conjugacy_classes(group) == expected
        assert sorted(len(c) for c in expected) == sizes


class TestCharacters:
    def test_rho3_values(self, d3, rho3):
        chi = character(rho3)
        a_idx, b_idx = d3.gen_indices
        assert (chi[0], chi[a_idx], chi[b_idx]) == (2, -1, 0)

    def test_trivial_rep_constant_one(self, d3, rho1):
        assert set(character(rho1)) == {Fraction(1)}

    def test_degree2_rep_values(self, d3):
        rep = d3_degree2_rep(d3)
        chi = character(rep)
        a_idx, b_idx = d3.gen_indices
        assert (chi[0], chi[a_idx], chi[b_idx]) == (4, 1, 0)

    def test_characters_are_class_functions(self, d3, rho3, q8_rep):
        for rep in (rho3, q8_rep):
            chi = character(rep)
            for cls in conjugacy_classes(rep.group):
                assert len({chi[g] for g in cls}) == 1

    def test_inner_product_positive_integer(self, rho3, rho1, rho2, q8_rep):
        for rep in (rho3, rho1, rho2, q8_rep, multiple(rho3, 2)):
            value = character_inner_product(rep, rep)
            assert value.denominator == 1 and value >= 1


class TestIndicatorSum:
    def test_rho3(self, rho3):
        # squares of the six elements hit {1, a, a^2} with traces 2, -1, -1
        assert fs_indicator_value(rho3) == 1

    def test_trivial(self, rho1):
        assert fs_indicator_value(rho1) == 1

    def test_c4_rotation(self):
        rep = natural_rep(generate_group([RatMatrix.from_rows([[0, -1], [1, 0]])]))
        assert fs_indicator_value(rep) == 0

    def test_additive_over_direct_sums(self, d3, rho3, rho2):
        total = fs_indicator_value(direct_sum([rho3, rho2]))
        assert total == fs_indicator_value(rho3) + fs_indicator_value(rho2)


class TestClassSums:
    """The class sums against the per-element sums they replaced, on natural
    and regular representations and on random unimodular conjugates."""

    @pytest.mark.parametrize("name", ["d3", "q8", "b3", "a5", "s5"])
    def test_match_per_element_sums(self, name, groups):
        group = groups[name]
        rng = random.Random(name)
        reps = [natural_rep(group), regular_rep(group)]
        reps += [conjugate_rep(rep, random_unimodular(rng, rep.dimension)) for rep in reps]
        reps.append(direct_sum(reps[:2]))
        for a in reps:
            chi = character(a)
            assert class_character(a) == [chi[g] for g in group.class_data.reps]
            assert fs_indicator_value(a) == fs_indicator_by_element(a)
            for b in reps:
                assert character_inner_product(a, b) == inner_product_by_element(a, b)

    @pytest.mark.parametrize("name", ["d3", "q8", "b3", "a5", "s5"])
    def test_class_data(self, name, groups):
        group = groups[name]
        classes = conjugacy_classes(group)
        data = group.class_data
        assert data is group.class_data
        assert data.sizes == tuple(len(c) for c in classes)
        assert data.reps == tuple(c[0] for c in classes)
        for g, sq, inv in zip(data.reps, data.sq_class, data.inv_class):
            assert group.sq_map[g] in classes[sq] and group.inv_map[g] in classes[inv]


class TestRepFromGeneratorImages:
    def test_rho3_prime_valid_and_equivalent(self, d3, rho3):
        rep = rho3_prime(d3)
        rep.check_homomorphism()
        hom = intertwiner_space(rho3.gen_images, rep.gen_images)
        assert hom, "swapped reflection must stay Q-equivalent to the natural model"

    def test_relation_violation_raises(self, d3):
        with pytest.raises(HomomorphismError):
            rep_from_generator_images(
                d3, [RatMatrix.from_rows([[-1]]), RatMatrix.identity(1)]
            )

    @pytest.mark.parametrize("name", ["d3", "q8", "b3"])
    def test_check_reaches_every_element(self, name, groups):
        """Each generator image s moved to ρ(s·k), for every element k, is
        accepted or rejected as the product oracle says; k = e is accepted,
        and some other k is not."""
        group = groups[name]
        images = element_matrices(natural_rep(group))
        verdicts = []
        for s, k in itertools.product(range(len(group.gen_indices)), range(group.order)):
            gen_images = [images[i] for i in group.gen_indices]
            gen_images[s] = gen_images[s] @ images[k]
            rep = RationalRep(group=group, gen_images=tuple(gen_images))
            verdict = homomorphism_by_products(rep)
            assert keyed_check_accepts(rep) == verdict
            verdicts.append(verdict)
        assert all(verdicts[:: group.order]) and not all(verdicts)

    def test_size_mismatch(self, d3):
        with pytest.raises(ValueError):
            rep_from_generator_images(d3, [RatMatrix.identity(1)])

    def test_check_takes_no_matrix_products(self, groups, monkeypatch):
        """The check runs on orbit indices."""
        group = groups["b3"]
        products = 0
        matmul = RatMatrix.__matmul__

        def counting(self, other):
            nonlocal products
            products += 1
            return matmul(self, other)

        monkeypatch.setattr(RatMatrix, "__matmul__", counting)
        rep = rep_from_generator_images(group, group.generators())
        assert rep.gen_images == tuple(group.generators())
        assert products == 0

    def test_infinite_image_group_fails_on_the_orbit_bound(self, d3):
        # the shear's orbit of e_1 is e_1 + k·e_0 for every k ≥ 0
        shear = RatMatrix.from_rows([[1, 1], [0, 1]])
        message = r"^the images have an orbit of more than \|G\| = 6 points, so they generate a larger group$"
        with pytest.raises(HomomorphismError, match=message) as excinfo:
            rep_from_generator_images(d3, [shear, RatMatrix.identity(2)])
        assert excinfo.traceback[-1].name == "check_homomorphism"

    @pytest.mark.parametrize("seed", range(4))
    def test_check_agrees_with_products_on_the_benchmark_corpus(self, seed):
        """On every generator set of the benchmark corpus, and on each with
        one image negated, two images swapped or one image sheared (det 1),
        the keyed check accepts exactly when the product oracle does."""
        cases = benchmark_cases()
        seen, verdicts = set(), []
        for corpus in (cases.WORKLOADS, cases.FULL, cases.TOO_SLOW):
            for make_cases in corpus.values():
                for case in make_cases():
                    obj = case.input_obj(seed)
                    key = json.dumps([obj["generators"], obj["rep_images"]])
                    if key in seen:
                        continue
                    seen.add(key)
                    group, rep, _ = group_rep_from_json_obj(obj)
                    for gen_images in perturbations(list(rep.gen_images)):
                        perturbed = RationalRep(group=group, gen_images=tuple(gen_images))
                        verdict = homomorphism_by_products(perturbed)
                        assert keyed_check_accepts(perturbed) == verdict, case.case_id
                        verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)


def test_group_rep_json_schema(d3):
    obj = {
        "generators": [[["0", "-1"], ["1", "-1"]], [["0", "-1"], ["-1", "0"]]],
        "rep_images": [[["1"]], [["-1"]]],
        "class": 2,
    }
    group, rep, c = group_rep_from_json_obj(obj)
    assert group.order == 6 and rep.dimension == 1 and c == 2
    group2, rep2, c2 = group_rep_from_json_obj({"generators": obj["generators"]})
    assert rep2.dimension == 2 and c2 is None


@pytest.mark.parametrize(
    "gens, with_images", [(B3_GENS, True), (A5_GENS, False)], ids=["b3_images", "a5_natural"]
)
def test_products_linear_in_order(gens, with_images, monkeypatch):
    calls = 0
    matmul = RatMatrix.__matmul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    obj = {"generators": [m.to_json_obj() for m in gens]}
    if with_images:
        obj["rep_images"] = obj["generators"]
    group, _, _ = group_rep_from_json_obj(obj)
    assert calls <= (2 * len(gens) + 4) * group.order
