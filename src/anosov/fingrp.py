"""Finite matrix groups over Q: closure from generators, the generator Cayley
graph, conjugacy classes, and class sums: characters, the inner product
⟨χ,ψ⟩ and the indicator sum (1/|G|)·Σ tr ρ(g²).

A group is given by its rational generator matrices and closed
breadth-first from the identity with the generator order as given, so the
element ordering (and everything downstream) is deterministic. Closure runs
on base images (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*
§4.1 and §4.4; Sims, 1970): the generators' permutations of O, the union of
the orbits of the standard basis vectors, take at most n·|G|·#gens
matrix–vector products; n points of O that span Q^n form a basis, and an
element g is held as the orbit indices of g⁻¹ at those points, n ints that
fix g. Walking the Cayley graph g ↦ g·s of the generators s then takes
|G|·#gens lookups of n indices each and no arithmetic. The homomorphism
check of a representation runs the same way on its generator images, with
|G| as the orbit bound, and takes no matrix product either. No step forms
the |G|² multiplication table; squares, inverses and conjugacy classes are
read off the Cayley graph.

After closure every step costs #generators or #classes, not |G|. A
representation is held by its generator images, and no step builds the
matrix of every element.
Characters are class functions (Serre, *Linear Representations of Finite
Groups*, §2.2–2.5), so the class sums read a representation's character, the
trace of its image at one representative per class, evaluated once per
representation; the class sizes and the classes of rep² and rep⁻¹ are
computed once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import Sequence

from .ratmat import RatMatrix, _insert, json_int

DEFAULT_MAX_ORDER = 10000


class GroupClosureError(ValueError):
    pass


class HomomorphismError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Closed finite group of invertible rational matrices.

    gen_matrices holds the generators as given. elements holds one key per
    element, in breadth-first order from the identity, elements[0]: the
    orbit indices of g⁻¹ at the basis points of generate_group's orbit, a
    tuple of n ints; the element's matrix is the product of the generators
    along the breadth-first tree.
    right[g][s] = index of g·(generator s): the generator Cayley graph.
    parent[g] = (i, s) is the breadth-first tree edge with g = i·(generator
    s); parent[0] is None. sq_map[g] and inv_map[g] are the indices of g²
    and g⁻¹.
    """

    elements: tuple
    gen_matrices: tuple
    gen_indices: tuple
    right: tuple
    parent: tuple
    sq_map: tuple
    inv_map: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return self.gen_matrices[0].rows

    def generators(self) -> list[RatMatrix]:
        return list(self.gen_matrices)

    @cached_property
    def class_data(self) -> "ClassData":
        """The conjugacy classes as the class sums read them; computed once
        per group."""
        classes = conjugacy_classes(self)
        class_of = [0] * self.order
        for c, members in enumerate(classes):
            for g in members:
                class_of[g] = c
        reps = tuple(members[0] for members in classes)
        return ClassData(
            sizes=tuple(len(members) for members in classes),
            reps=reps,
            sq_class=tuple(class_of[self.sq_map[g]] for g in reps),
            inv_class=tuple(class_of[self.inv_map[g]] for g in reps),
        )


@dataclass(frozen=True)
class ClassData:
    """Per conjugacy class, in the order of conjugacy_classes: its size, its
    smallest element index as representative, and the classes of rep² and
    rep⁻¹."""

    sizes: tuple
    reps: tuple
    sq_class: tuple
    inv_class: tuple


def generate_group(gens: Sequence[RatMatrix], max_order: int = DEFAULT_MAX_ORDER) -> FiniteMatrixGroup:
    """Breadth-first closure of the given invertible generators, on the base
    images of _orbit_action: an element g is keyed by the orbit indices of
    g⁻¹·b_j over the basis points b_j, which fix g⁻¹ and so g, and the key
    of g·s is that of g with s⁻¹ applied to each index."""
    if not gens:
        raise ValueError("need at least one generator")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise ValueError("generators must be square matrices of equal size")
        det = g.det()
        if det == 0:
            raise ValueError("generators must be invertible")
        if abs(det) != 1:
            raise ValueError(
                f"a generator has determinant {det}, so it has infinite order "
                f"(a rational matrix of finite order has determinant ±1)"
            )
    steps, basis = _orbit_action(gens, max_order)
    ident = tuple(basis)
    elements = [ident]
    index = {ident: 0}
    parent: list = [None]
    right = []
    # elements doubles as the breadth-first queue: it grows while it is read
    for i, key in enumerate(elements):
        row = []
        for s, step in enumerate(steps):
            prod = tuple(map(step, key))
            j = index.get(prod)
            if j is None:
                if len(elements) >= max_order:
                    raise _order_error(max_order)
                j = index[prod] = len(elements)
                elements.append(prod)
                parent.append((i, s))
            row.append(j)
        right.append(tuple(row))

    # For g's tree word s₁⋯s_k, g² = g·s₁⋯s_k: walk the word through right
    # from g. g⁻¹ is the x with x·s₁⋯s_k = e: walk it backwards from e
    # through back[s], the inverse permutation of g ↦ g·s.
    back = [[0] * len(elements) for _ in gens]
    for g, row in enumerate(right):
        for s, j in enumerate(row):
            back[s][j] = g
    sq_map, inv_map = [], []
    for g in range(len(elements)):
        word = []
        h = g
        while h:
            h, s = parent[h]
            word.append(s)
        x, y = g, 0
        for s in word:
            y = back[s][y]
        for s in reversed(word):
            x = right[x][s]
        sq_map.append(x)
        inv_map.append(y)
    return FiniteMatrixGroup(
        elements=tuple(elements),
        gen_matrices=tuple(gens),
        gen_indices=right[0],
        right=tuple(right),
        parent=tuple(parent),
        sq_map=tuple(sq_map),
        inv_map=tuple(inv_map),
    )


def _order_error(max_order: int) -> GroupClosureError:
    return GroupClosureError(
        f"group order exceeds max_order={max_order}; generators may generate an infinite group"
    )


def _orbit_action(gens: Sequence[RatMatrix], max_order: int) -> tuple[list, list]:
    """The generators' permutations of O, the union of the orbits of the
    standard basis vectors e_0, e_1, … under v ↦ s·v, each e_i taken as a
    seed only when it lies outside the span of the orbits before it. A point
    is held as (numerators, d), the vector numerators/d with d > 0 and
    gcd(numerators…, d) = 1, so equal vectors are equal tuples.

    Returns (steps, basis): steps[s] maps the index in O of a point v to
    that of gens[s]⁻¹·v, and basis lists the indices of the n points that
    raised the rank of the span, in order. One matrix–vector product per
    point and generator: at most n·|G|·#gens, as an orbit has at most |G|
    points, so an orbit of more than max_order points raises
    GroupClosureError."""
    n = gens[0].rows
    acts = []  # per generator: nonzero numerators (row, value) by column, read at a point's nonzeros; denominator
    for g in gens:
        nums, den = g.integer_form()
        cols = [[(i, nums[i * n + j]) for i in range(n) if nums[i * n + j]] for j in range(n)]
        acts.append((cols, den))
    points: list = []
    index: dict = {}
    perms: list = [[] for _ in gens]
    basis: list = []
    span: dict = {}  # the echelon rows of ratmat._insert
    for i in range(n):
        if _insert(span, {i: 1}) is None:
            continue
        start = len(points)
        seed = (tuple(int(i == j) for j in range(n)), 1)
        basis.append(start)
        index[seed] = start
        points.append(seed)
        # points doubles as the orbit's breadth-first queue
        for nums, d in islice(points, start, None):
            support = [(j, x) for j, x in enumerate(nums) if x]
            for (cols, den), perm in zip(acts, perms):
                image = [0] * n
                for j, x in support:
                    for i, a in cols[j]:
                        image[i] += a * x
                image_d = den * d
                if image_d != 1:
                    c = gcd(image_d, *image)
                    if c != 1:
                        image = [x // c for x in image]
                        image_d //= c
                point = (tuple(image), image_d)
                k = index.get(point)
                if k is None:
                    if len(points) - start >= max_order:
                        raise _order_error(max_order)
                    k = index[point] = len(points)
                    points.append(point)
                    if len(basis) < n and _insert(span, {j: x for j, x in enumerate(image) if x}) is not None:
                        basis.append(k)
                perm.append(k)
    # the inverse of a permutation sorts its positions by their images
    return [sorted(range(len(perm)), key=perm.__getitem__).__getitem__ for perm in perms], basis


def conjugacy_classes(group: FiniteMatrixGroup) -> list[list[int]]:
    """Partition of element indices; class of the identity first, then by
    smallest member index. Classes themselves are sorted index lists.

    Each class is an orbit of x ↦ s⁻¹·x·s over the generators s, read off the
    Cayley graph without matrix products: s⁻¹·x·s = ((x·s)⁻¹·s)⁻¹.
    """
    right, inv = group.right, group.inv_map
    seen = [False] * group.order
    classes = []
    # starting from the smallest unseen index yields the documented order
    for start in range(group.order):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for s, xs in enumerate(right[x]):
                y = inv[right[inv[xs]][s]]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        classes.append(sorted(orbit))
    return classes


@dataclass(frozen=True)
class RationalRep:
    """Rational representation, held by its generator images, one per entry
    of group.gen_indices."""

    group: FiniteMatrixGroup
    gen_images: tuple

    @property
    def dimension(self) -> int:
        return self.gen_images[0].rows

    @cached_property
    def character(self) -> tuple:
        """χ = tr ρ on each conjugacy class, in the order of group.class_data,
        read at the class representatives; evaluated once per representation.
        The values are Python ints: the trace of a matrix of finite order is a
        sum of roots of unity, and a rational one is an integer. ρ is built
        at the representatives and their breadth-first ancestors, one product
        per element from its parent's image."""
        reps, parent = self.group.class_data.reps, self.group.parent
        needed = {0}
        for g in reps:
            while g not in needed:
                needed.add(g)
                g = parent[g][0]
        images = {0: RatMatrix.identity(self.dimension)}
        # parents precede their children
        for g in sorted(needed)[1:]:
            i, s = parent[g]
            images[g] = images[i] @ self.gen_images[s]
        traces = [images[g].trace() for g in reps]
        if any(t.denominator != 1 for t in traces):
            raise HomomorphismError("a trace at an element of finite order is not an integer")
        return tuple(t.numerator for t in traces)

    def check_homomorphism(self) -> None:
        """Check ρ(g·s) = ρ(g)·ρ(s) for every element g and generator s, ρ
        built along the breadth-first tree from ρ(e) = I. This is complete:
        for h = s₁⋯s_k, induction on k gives ρ(g·h) = ρ(g)·ρ(s₁)⋯ρ(s_k).

        It runs on base images, as generate_group does: ρ(g) is keyed by the
        orbit indices of ρ(g)⁻¹ at n basis points of the images' orbits, so
        equal keys are equal matrices and no edge takes a matrix product.
        An orbit of more than |G| points means a larger image group."""
        group = self.group
        try:
            steps, basis = _orbit_action(self.gen_images, group.order)
        except GroupClosureError:
            raise HomomorphismError(
                f"the images have an orbit of more than |G| = {group.order} points, so they generate a larger group"
            ) from None
        keys = [tuple(basis)] + [None] * (group.order - 1)
        # a tree edge is the first edge into its node, so keys[g] is set when read
        for g, row in enumerate(group.right):
            for s, j in enumerate(row):
                key = tuple(map(steps[s], keys[g]))
                if group.parent[j] == (g, s):
                    keys[j] = key
                elif key != keys[j]:
                    raise HomomorphismError(
                        f"images violate the Cayley graph at element {g} times generator {s}"
                    )


def rep_from_generator_images(group: FiniteMatrixGroup, gen_images: Sequence[RatMatrix]) -> RationalRep:
    """The representation with the given generator images, checked on base
    images with no matrix product.

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
    rep = RationalRep(group=group, gen_images=tuple(gen_images))
    rep.check_homomorphism()
    return rep


def natural_rep(group: FiniteMatrixGroup) -> RationalRep:
    """The defining representation: each element maps to itself."""
    return RationalRep(group=group, gen_images=tuple(group.generators()))


def direct_sum(reps: Sequence[RationalRep]) -> RationalRep:
    group = reps[0].group
    if any(r.group is not group for r in reps[1:]):
        raise ValueError("direct sum requires representations of the same group object")
    gen_images = tuple(RatMatrix.block_diag(blocks) for blocks in zip(*(r.gen_images for r in reps)))
    return RationalRep(group=group, gen_images=gen_images)


def multiple(rep: RationalRep, m: int) -> RationalRep:
    """m·ρ = ρ ⊕ … ⊕ ρ, m times."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    return direct_sum([rep] * m)


def conjugate_rep(rep: RationalRep, u: RatMatrix) -> RationalRep:
    """Base change g ↦ U ρ(g) U⁻¹."""
    u_inv = u.inverse()
    return RationalRep(group=rep.group, gen_images=tuple(u @ img @ u_inv for img in rep.gen_images))


def class_character(rep: RationalRep) -> list[int]:
    """χ = tr ρ on each conjugacy class, in the order of group.class_data."""
    return list(rep.character)


def fs_indicator_value(rep: RationalRep) -> Fraction:
    """(1/|G|)·Σ_g tr ρ(g²) = (1/|G|)·Σ_C |C|·χ(C²), exact.

    For a complex-irreducible character this is the classical ±1/0 indicator;
    applied to a rational representation it returns the sum over the full
    character, which for a Q-irreducible is (m·n)·(indicator of one complex
    constituent).
    """
    data = rep.group.class_data
    chi = rep.character
    return Fraction(sum(size * chi[sq] for size, sq in zip(data.sizes, data.sq_class)), rep.group.order)


def character_inner_product(rep_a: RationalRep, rep_b: RationalRep) -> Fraction:
    """⟨χ_a, χ_b⟩ = (1/|G|)·Σ_C |C|·χ_a(C)·χ_b(C⁻¹), exact: one integer sum,
    divided once."""
    data = rep_a.group.class_data
    chi_b = rep_b.character
    total = sum(size * x * chi_b[inv] for size, x, inv in zip(data.sizes, rep_a.character, data.inv_class))
    return Fraction(total, rep_a.group.order)


def group_rep_from_json_obj(obj, max_order: int = DEFAULT_MAX_ORDER):
    """Parse the group/representation input schema:
    {"generators": [matrix…], "rep_images": [matrix…] (optional), "class": c}.

    Returns (group, rep, class_c). rep_images defaults to the generators.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("generators"), list):
        raise ValueError('input must be an object with a "generators" array')
    gens = [RatMatrix.from_json_obj(m) for m in obj["generators"]]
    group = generate_group(gens, max_order=max_order)
    if obj.get("rep_images") is not None:
        if not isinstance(obj["rep_images"], list):
            raise ValueError('"rep_images" must be an array of matrices')
        images = [RatMatrix.from_json_obj(m) for m in obj["rep_images"]]
        rep = rep_from_generator_images(group, images)
    else:
        rep = natural_rep(group)
    class_c = obj.get("class")
    if class_c is not None:
        class_c = json_int(class_c, '"class"')
        if class_c < 1:
            raise ValueError("nilpotency class must be >= 1")
    return group, rep, class_c
