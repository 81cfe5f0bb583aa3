"""Finite matrix groups over Q: closure from generators, Cayley structure,
conjugacy classes, characters, and the indicator sum (1/|G|)·Σ tr ρ(g²).

Groups are always represented faithfully by exact rational matrices; closure
is breadth-first from the identity with the generator order as given, so the
element ordering (and everything seeded downstream) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ratmat import RatMatrix

DEFAULT_MAX_ORDER = 10000


class GroupClosureError(ValueError):
    pass


class HomomorphismError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Closed finite group of invertible rational matrices.

    elements[0] is the identity; mul_table[g][h] = index of elements[g] @
    elements[h]; words[g] is a factorization of elements[g] as generator
    indices applied left to right.
    """

    elements: tuple
    gen_indices: tuple
    mul_table: tuple
    sq_map: tuple
    inv_map: tuple
    words: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return self.elements[0].rows

    def generators(self) -> list[RatMatrix]:
        return [self.elements[i] for i in self.gen_indices]


def generate_group(gens: Sequence[RatMatrix], max_order: int = DEFAULT_MAX_ORDER) -> FiniteMatrixGroup:
    """Breadth-first closure of the given invertible generators."""
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise ValueError("generators must be square matrices of equal size")
        if g.det() == 0:
            raise ValueError("generators must be invertible")
    ident = RatMatrix.identity(n)
    elements = [ident]
    words: list[tuple] = [()]
    index = {ident: 0}
    queue = [0]
    while queue:
        i = queue.pop(0)
        for gi, g in enumerate(gens):
            prod = elements[i] @ g
            if prod not in index:
                if len(elements) >= max_order:
                    raise GroupClosureError(
                        f"group order exceeds max_order={max_order}; generators may "
                        f"generate an infinite group"
                    )
                index[prod] = len(elements)
                elements.append(prod)
                words.append(words[i] + (gi,))
                queue.append(index[prod])

    order = len(elements)
    mul_table = tuple(
        tuple(index[elements[i] @ elements[j]] for j in range(order)) for i in range(order)
    )
    sq_map = tuple(mul_table[i][i] for i in range(order))
    inv_map = tuple(mul_table[i].index(0) for i in range(order))
    gen_indices = tuple(index[g] for g in gens)
    return FiniteMatrixGroup(
        elements=tuple(elements),
        gen_indices=gen_indices,
        mul_table=mul_table,
        sq_map=sq_map,
        inv_map=inv_map,
        words=tuple(words),
    )


def conjugacy_classes(group: FiniteMatrixGroup) -> list[list[int]]:
    """Partition of element indices; class of the identity first, then by
    smallest member index. Classes themselves are sorted index lists."""
    seen = set()
    classes = []
    for i in range(group.order):
        if i in seen:
            continue
        orbit = {group.mul_table[group.mul_table[h][i]][group.inv_map[h]] for h in range(group.order)}
        classes.append(sorted(orbit))
        seen |= orbit
    classes.sort(key=lambda cl: (0 not in cl, cl[0]))
    return classes


@dataclass(frozen=True)
class RationalRep:
    """Rational representation: one invertible matrix per group element."""

    group: FiniteMatrixGroup
    images: tuple

    @property
    def dimension(self) -> int:
        return self.images[0].rows

    def image_of_generators(self) -> list[RatMatrix]:
        return [self.images[i] for i in self.group.gen_indices]

    def check_homomorphism(self) -> None:
        tab = self.group.mul_table
        for g in range(self.group.order):
            for h in range(self.group.order):
                if self.images[tab[g][h]] != self.images[g] @ self.images[h]:
                    raise HomomorphismError(
                        f"images violate the Cayley table at pair ({g}, {h})"
                    )


def rep_from_generator_images(
    group: FiniteMatrixGroup, gen_images: Sequence[RatMatrix], verify: bool = True
) -> RationalRep:
    """Extend images on the generators to the whole group via the closure words.

    Raises HomomorphismError if the assignment does not define a homomorphism.
    """
    if len(gen_images) != len(group.gen_indices):
        raise ValueError("one image per generator required")
    dim = gen_images[0].rows
    for m in gen_images:
        if not m.is_square or m.rows != dim:
            raise ValueError("generator images must be square of equal size")
        if m.det() == 0:
            raise ValueError("generator images must be invertible")
    ident = RatMatrix.identity(dim)
    images = []
    for word in group.words:
        img = ident
        for gi in word:
            img = img @ gen_images[gi]
        images.append(img)
    rep = RationalRep(group=group, images=tuple(images))
    if verify:
        rep.check_homomorphism()
    return rep


def natural_rep(group: FiniteMatrixGroup) -> RationalRep:
    """The defining representation: each element maps to itself."""
    return RationalRep(group=group, images=group.elements)


def direct_sum(reps: Sequence[RationalRep]) -> RationalRep:
    group = reps[0].group
    if any(r.group is not group for r in reps[1:]):
        raise ValueError("direct sum requires representations of the same group object")
    images = tuple(
        RatMatrix.block_diag([r.images[i] for r in reps]) for i in range(group.order)
    )
    return RationalRep(group=group, images=images)


def multiple(rep: RationalRep, m: int) -> RationalRep:
    """m·ρ = ρ ⊕ … ⊕ ρ, m times."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    return direct_sum([rep] * m)


def conjugate_rep(rep: RationalRep, u: RatMatrix) -> RationalRep:
    """Base change g ↦ U ρ(g) U⁻¹."""
    u_inv = u.inverse()
    return RationalRep(group=rep.group, images=tuple(u @ img @ u_inv for img in rep.images))


def character(rep: RationalRep) -> list[Fraction]:
    """χ(g) = tr ρ(g), indexed by element; constant on conjugacy classes."""
    return [img.trace() for img in rep.images]


def fs_indicator_value(rep: RationalRep) -> Fraction:
    """(1/|G|)·Σ_g tr ρ(g²), exact.

    For a complex-irreducible character this is the classical ±1/0 indicator;
    applied to a rational representation it returns the sum over the full
    character, which for a Q-irreducible is (m·n)·(indicator of one complex
    constituent).
    """
    group = rep.group
    total = sum((rep.images[group.sq_map[g]].trace() for g in range(group.order)), Fraction(0))
    return total / group.order


def character_inner_product(rep_a: RationalRep, rep_b: RationalRep) -> Fraction:
    """⟨χ_a, χ_b⟩ = (1/|G|)·Σ χ_a(g)·χ_b(g⁻¹), exact."""
    group = rep_a.group
    total = Fraction(0)
    for g in range(group.order):
        total += rep_a.images[g].trace() * rep_b.images[group.inv_map[g]].trace()
    return total / group.order


def group_rep_from_json_obj(obj, max_order: int = DEFAULT_MAX_ORDER):
    """Parse the group/representation input schema:
    {"generators": [matrix…], "rep_images": [matrix…] (optional), "class": c}.

    Returns (group, rep, class_c). rep_images defaults to the generators.
    """
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError('input must be an object with a "generators" field')
    gens = [RatMatrix.from_json_obj(m) for m in obj["generators"]]
    group = generate_group(gens, max_order=max_order)
    if "rep_images" in obj and obj["rep_images"] is not None:
        images = [RatMatrix.from_json_obj(m) for m in obj["rep_images"]]
        rep = rep_from_generator_images(group, images)
    else:
        rep = natural_rep(group)
    class_c = obj.get("class")
    if class_c is not None:
        class_c = int(class_c)
        if class_c < 1:
            raise ValueError("nilpotency class must be >= 1")
    return group, rep, class_c
