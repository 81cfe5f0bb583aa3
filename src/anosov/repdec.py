"""Decomposition of rational representations into Q-irreducible components.

For each equivalence class of components the profile records: multiplicity,
endomorphism-algebra dimension dim_E, character-field degree n (dimension of
the commutant's center), the square root m of dim_E/n, the complex-component
count e = m·n, the sign of the indicator sum, and the real-component count r.

Splitting is commutant-driven: a trial x in the commutant E splits V at once
into the primary kernels of all the coprime factors of its minimal polynomial.
If that is a proper prime power p^m, y = p(x) is nilpotent and nonzero. The
trace form tr_V(u·v) of the semisimple E is nondegenerate (its radical is an
ideal whose elements have powers of trace 0, so it is nil, so zero), so
tr(b·y) ≠ 0 for a basis element b, and z = b·y, singular but not nilpotent,
has minimal polynomial X^j·q with q(0) ≠ 0. The trials are the commutant
basis, its pairwise sums and a run of random combinations, drawn in decompose
from one fixed random.Random(0), so every run draws the same trials.

A leaf V with commutant E is proved irreducible, exactly, by one of:
- "dimension-one": dim V = 1 or E = Q, read with no commutant solve from
  ⟨χ_V, χ_V⟩ = dim_Q E = 1 (Serre, §2.3), asked only when dim V divides
  |G| and dim V² ≤ |G|, as an absolutely irreducible degree does (§6.5);
- "definite": dim E ≤ 4 and (x, y) ↦ tr_V(x·y) is negative definite on the
  trace-zero part of E, so E has no idempotent but 0 and 1 (an idempotent e
  of rank k, 0 < k < dim V, gives x = e − (k/dim V)·I with tr_V(x²) > 0);
  this covers every E with E⊗R one of C or H, such as Q8's quaternions and
  the C4 rotation's Q(i);
- "field": a trial's minimal polynomial is irreducible of degree dim E, so
  E = Q[x] is a field, such as Q(ζ5) and Q(ζ8) for the C5 and C8 rotations.
Any other leaf, such as one whose commutant is an indefinite quaternion
algebra or a noncommutative division algebra of dimension over 4, is still
declared irreducible only after every trial fails to split it ("search").

The first three proofs also fix n = dim Z(E), the degree of the character
field (Serre, §12.2), so component_profile reads n off the class's first
proof: 1 for "dimension-one"; for "definite", E⊗R has no idempotent but 0
and 1, so it is a real division algebra, C or H (Frobenius), and n is 2 for
dim E = 2 and 1 for dim E = 4; dim E for "field", as E = Q[x] is
commutative. Only a "search" leaf has its center solved for, as the kernel
of the brackets with the commutant basis.

Leaves are grouped into classes by character: irreducibles V, W are
isomorphic iff dim_Q Hom_G(V, W) = ⟨χ_V, χ_W⟩ > 0 (Serre, §2.3–2.6), so the
dim_E = m²·n constraint is checked once per class, in component_profile.

One rule serves every node that meets a proven class, one whose first leaf
has a proof other than "search": the node is peeled through that class. W
holds k = ⟨χ_L, χ_W⟩ / dim E_L copies of a Q-irreducible L, as
Hom_G(L, L) = E_L, and characters are ints, so _meeting_class tests each
node taken from the queue against the proven classes at one integer sum
each. A node W that meets L takes no commutant: if χ_W = χ_L it joins L's
class as it stands; otherwise peel solves Hom_G(L, W), dim L·dim W unknowns
in place of dim W², for k members that carry L's own images, and queues
the rest of W, the common kernel of Hom_G(W, L). The parts of each split
are queued smallest first, so the first copy of a class is often proven
before a larger node that holds more of it.

Two proven irreducibles meet only when their characters are equal, so a
proven class that meets a "search" class of another character is a summand
of it, as ρ is of a leaf ρ ⊕ ρ with commutant M_2(Q) in a basis where every
trial has an irreducible quadratic minimal polynomial. When the queue
empties, the members of such a class are queued again, and peeled. A last
check that the characters of the classes are pairwise orthogonal keeps a
verdict off two classes that meet: a "search" class that only "search"
classes meet is an error, and one that meets no other is kept, its rows
flagged unproven.

With no given commutant, U = Q[G]·e_0 is decomposed by the same loop and
its proven classes seed V's. A gate on χ_V asks ⟨χ, χ⟩ ≠ 1, a trivial
multiplicity of 0 or dim V, and a k ≥ 2 dividing every χ(g), with
dim E_U = ⟨χ, χ⟩/k² dividing dim U = dim V/k and, when it is 1, an
indicator of k, as a Q-irreducible with E = Q has indicator +1. U is spun
up to dim V/k for the least such k, and its loop draws from its own
random.Random(0). Each class of U with a proof other than "search" enters
V's class table with no members, so V meets it and is peeled through it,
and the rest of V is split as usual. When nothing is seeded, V is split
with its trials untouched.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence

from .fingrp import RationalRep, character_inner_product, fs_indicator_value
from .intpoly import IntPoly, factor_over_Q
from .ratmat import RatMatrix, _insert, int_char_poly, matrix_min_poly, sparse_kernel_basis

RANDOM_TRIALS = 20
COEFF_RANGE = 5


class DecompositionError(RuntimeError):
    pass


@dataclass(frozen=True)
class CommutantBasis:
    rep: RationalRep
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_and_pair_sums(self):
        """The basis elements, then the sums b_i + b_j for i < j; each sum is
        built only when an iteration reaches it."""
        b = self.basis
        return itertools.chain(b, (b[i] + b[j] for i in range(len(b)) for j in range(i + 1, len(b))))


@dataclass(frozen=True)
class ComponentMember:
    """One occurrence of a component class inside the ambient representation:
    basis columns span the invariant subspace in ambient coordinates, and rep
    is the representation on the span in the coordinates of those columns.
    A member split off through Hom_G from the class's first member carries
    that member's rep itself."""

    basis: RatMatrix
    rep: RationalRep


@dataclass(frozen=True)
class ComponentProfile:
    """A component class. members[0] is its representative; the commutant,
    representation and dim_E are the representative's, and proof is the
    irreducibility proof of that first leaf, if there was one."""

    members: tuple = field(repr=False)
    commutant: CommutantBasis = field(repr=False)
    n_field: int
    m_schur: int
    e_complex: int
    fs_sign: str
    r_components: int
    proof: Optional[str]

    @property
    def sub_rep(self) -> RationalRep:
        return self.commutant.rep

    @property
    def dim_E(self) -> int:
        return self.commutant.dimension

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    @property
    def dimension(self) -> int:
        return self.sub_rep.dimension

    @property
    def unproven(self) -> bool:
        """Whether the first leaf was declared irreducible only because every
        trial failed to split it."""
        return self.proof == "search"

    def to_json_obj(self) -> dict:
        obj = {
            "dimension": self.dimension,
            "multiplicity": self.multiplicity,
            "dim_E": self.dim_E,
            "n": self.n_field,
            "m": self.m_schur,
            "e": self.e_complex,
            "fs_sign": self.fs_sign,
            "r_components": self.r_components,
        }
        if self.unproven:
            obj["unproven"] = True
        return obj


# -- linear-algebra helpers -----------------------------------------------------


def intertwiner_space(
    left_images: Sequence[RatMatrix], right_images: Sequence[RatMatrix]
) -> list[RatMatrix]:
    """Basis of {X : X·A_t = B_t·X for all t}, X of shape rows(B) × cols(A).

    Equation (t, i, j) has at most rows(B) + cols(A) nonzero coefficients
    among the rows(B)·cols(A) unknowns, so the system is built sparse, from
    the numerators of A_t and B_t over their common denominator."""
    c = left_images[0].cols
    r = right_images[0].rows
    rows = []
    for a, b in zip(left_images, right_images):
        (na, da), (nb, db) = a.integer_form(), b.integer_form()
        g = gcd(da, db)
        fa, fb = db // g, da // g
        a_cols = [[(k, fa * na[k * c + j]) for k in range(c) if na[k * c + j]] for j in range(c)]
        b_rows = [[(k, fb * nb[i * r + k]) for k in range(r) if nb[i * r + k]] for i in range(r)]
        for i in range(r):
            for j in range(c):
                row = {i * c + k: x for k, x in a_cols[j]}
                for k, y in b_rows[i]:
                    pos = k * c + j
                    row[pos] = row.get(pos, 0) - y
                rows.append(row)
    return [RatMatrix.from_integers(r, c, vec) for vec in sparse_kernel_basis(rows, r * c)]


def commutant(rep: RationalRep) -> CommutantBasis:
    """Basis of {X : X·ρ(g) = ρ(g)·X}, solved over the generators only."""
    gens = rep.gen_images
    basis = intertwiner_space(gens, gens)
    return CommutantBasis(rep=rep, basis=tuple(basis))


def poly_at_matrix(coeffs: Sequence, m: RatMatrix) -> RatMatrix:
    """p(m) for ascending coefficients, by Horner's rule."""
    ident = RatMatrix.identity(m.rows)
    acc = RatMatrix.zeros(m.rows, m.rows)
    for c in reversed(list(coeffs)):
        acc = acc @ m + ident.scale(c)
    return acc


def restrict_action(basis: RatMatrix, m: RatMatrix) -> RatMatrix:
    """Matrix of m restricted to the column span of basis; exact, and raises
    if the span is not m-invariant."""
    return basis.solve(m @ basis)


def restrict_rep(rep: RationalRep, basis: RatMatrix) -> RationalRep:
    """The subrepresentation on the column span of basis, one solve per
    generator; a span invariant under the generators is invariant under G."""
    return RationalRep(group=rep.group, gen_images=tuple(restrict_action(basis, img) for img in rep.gen_images))


@dataclass(frozen=True)
class IrreducibleCertificate:
    """The leaf is irreducible. proof says why (see the module docstring):
    "dimension-one", "definite", "field" or "search"; trials counts the
    commutant elements tried. Carries the commutant, which
    component_profile reuses."""

    trials: int
    commutant: CommutantBasis
    proof: str


def _split_with(rep: RationalRep, x: RatMatrix, factors: list) -> list[RatMatrix]:
    """Complementary invariant subspaces from a commutant element x whose
    minimal polynomial has two or more coprime factors, such as _trace_partner
    makes from a prime-power trial: the kernel of p_i^{e_i}(x) for every
    factor p_i^{e_i}, in the order of factors (Hoffman–Kunze, §6.8)."""
    kernels = [poly_at_matrix((p**mult).coeffs, x).kernel_basis() for p, mult in factors]
    if not all(kernels) or sum(map(len, kernels)) != rep.dimension:
        raise DecompositionError("primary kernels do not decompose the space")
    return [RatMatrix.from_columns([list(v) for v in k]) for k in kernels]


def _trace_partner(com: CommutantBasis, y: RatMatrix) -> RatMatrix:
    """z = b·y for the first basis element b of com with tr(b·y) ≠ 0, y a
    nonzero nilpotent in com (module docstring); only b·y is formed."""
    traces = _trace_pairings((b.integer_form()[0] for b in com.basis), y.integer_form()[0], y.rows)
    b = next((b for b, t in zip(com.basis, traces) if t), None)
    if b is None:
        raise DecompositionError("a nonzero nilpotent is orthogonal to the commutant under the trace form")
    return b @ y


def random_combination(basis: Sequence[RatMatrix], rng: random.Random, coeff_range: int) -> RatMatrix:
    """A nonzero integer combination of basis with coefficients drawn from
    [−coeff_range, coeff_range]; an all-zero draw is drawn again."""
    while True:
        coeffs = [rng.randint(-coeff_range, coeff_range) for _ in basis]
        if any(coeffs):
            break
    acc = RatMatrix.zeros(basis[0].rows, basis[0].cols)
    for c, b in zip(coeffs, basis):
        if c:
            acc = acc + b.scale(c)
    return acc


def _trace_pairings(xs, y: Sequence[int], n: int):
    """tr(x·y) = Σ x[k,l]·y[l,k] for each x, on the row-major integer
    numerators of n×n matrices: each x is paired with y transposed."""
    yt = [y[l * n + k] for k in range(n) for l in range(n)]
    return (sum(map(mul, x, yt)) for x in xs)


def _trace_form_negative_definite(basis: Sequence[RatMatrix]) -> bool:
    """Whether (x, y) ↦ tr(x·y) is negative definite on the trace-zero part
    of span(basis), a subalgebra holding the identity.

    Each basis element is scaled to its integer numerators, which rescales
    the form by positive factors only. With t_i the traces and t_p ≠ 0, the
    x_i = t_p·N_i − t_i·N_p (i ≠ p) span the trace-zero part, and the form
    is negative definite iff its negated Gram matrix is positive definite."""
    n = basis[0].rows
    nums = [b.integer_form()[0] for b in basis]
    traces = [sum(m[:: n + 1]) for m in nums]
    p = next(i for i, t in enumerate(traces) if t)
    xs = [
        [traces[p] * a - traces[i] * b for a, b in zip(m, nums[p])]
        for i, m in enumerate(nums)
        if i != p
    ]
    return _positive_definite([-t for y in xs for t in _trace_pairings(xs, y, n)], len(xs))


def _positive_definite(a: Sequence[int], n: int) -> bool:
    """Whether the symmetric row-major n×n integer matrix a is positive
    definite: its eigenvalues are real, so they are all positive exactly
    when the coefficients of det(X·I − a) strictly alternate in sign."""
    return all((-1) ** (n - k) * c > 0 for k, c in enumerate(int_char_poly(a, n)))


def _split_once(rep: RationalRep, rng: random.Random, com: Optional[CommutantBasis] = None):
    """Either an IrreducibleCertificate or _split_with's subspace bases, one
    per primary kernel of a trial; the random trials come from rng."""
    if com is None:
        dim, order = rep.dimension, rep.group.order
        # E = Q iff ⟨χ, χ⟩ = 1 (module docstring)
        if dim == 1 or dim * dim <= order and order % dim == 0 and character_inner_product(rep, rep) == 1:
            com = CommutantBasis(rep, (RatMatrix.identity(dim),))
        else:
            com = commutant(rep)
    if com.dimension == 1:
        return IrreducibleCertificate(trials=0, commutant=com, proof="dimension-one")
    # E⊗R is R, C or H only if dim E <= 4
    if com.dimension <= 4 and _trace_form_negative_definite(com.basis):
        return IrreducibleCertificate(trials=0, commutant=com, proof="definite")
    # the random combinations are drawn only when the loop reaches them
    randoms = (random_combination(com.basis, rng, COEFF_RANGE) for _ in range(RANDOM_TRIALS))
    attempted = 0
    for x in itertools.chain(com.basis_and_pair_sums(), randoms):
        attempted += 1
        factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(x)))
        if len(factors) == 1 and factors[0][1] > 1:
            x = _trace_partner(com, poly_at_matrix(factors[0][0].coeffs, x))
            factors = factor_over_Q(IntPoly.clear_denominators(matrix_min_poly(x)))
        if len(factors) > 1:
            return _split_with(rep, x, factors)
        if factors[0][0].degree == com.dimension:
            return IrreducibleCertificate(trials=attempted, commutant=com, proof="field")
    return IrreducibleCertificate(trials=attempted, commutant=com, proof="search")


def _center_dimension(basis: Sequence[RatMatrix]) -> int:
    """Dimension of the center of the algebra spanned by the commutant basis:
    the kernel of z ↦ ([x, z])_x, one sparse equation per bracket entry,
    scaled to integers by the lcm of the brackets' denominators."""
    rows = []
    for b in basis:
        brackets = [(x @ b - b @ x).integer_form() for x in basis]
        d = lcm(*(den for _, den in brackets))
        columns = [(num, d // den) for num, den in brackets]
        for pos in range(basis[0].rows * basis[0].cols):
            rows.append({idx: f * num[pos] for idx, (num, f) in enumerate(columns) if num[pos]})
    return len(sparse_kernel_basis(rows, len(basis)))


def component_profile(
    com: CommutantBasis, members: Sequence[ComponentMember] = (), proof: Optional[str] = None
) -> ComponentProfile:
    """Profile of a certified-irreducible component, from its commutant com.
    members are its occurrences in the ambient representation, the first
    being the one com was solved on; by default the component alone, in its
    own coordinates. proof is the IrreducibleCertificate's proof for that
    first member, from which n is read when it fixes n (module docstring);
    without one, or for "search", n is the dimension of E's center."""
    sub_rep = com.rep
    dim_e = com.dimension
    if proof in ("dimension-one", "field"):
        # E is Q or the field Q[x]: commutative, so its own center
        n = dim_e
    elif proof == "definite":
        # E⊗R is C or H; a 3-dimensional E never passes the test
        n = 2 if dim_e == 2 else 1
    else:
        n = _center_dimension(com.basis)
    if n == 0 or dim_e % n:
        raise DecompositionError(f"dim_E={dim_e} not divisible by center dimension {n}")
    m = isqrt(dim_e // n)
    if m * m * n != dim_e:
        raise DecompositionError(f"dim_E={dim_e}/n={n} is not a perfect square")
    e = m * n
    fs_value = fs_indicator_value(sub_rep)
    if fs_value == e:
        fs_sign = "+"
        r = e
    elif fs_value == 0:
        fs_sign = "0"
        if e % 2:
            raise DecompositionError(f"e={e} odd with indicator 0")
        r = e // 2
    elif fs_value == -e:
        fs_sign = "-"
        if e % 2:
            raise DecompositionError(f"e={e} odd with indicator -e")
        r = e // 2
    else:
        raise DecompositionError(f"indicator sum {fs_value} not in {{{e}, 0, {-e}}}")
    dim = sub_rep.dimension
    if dim % e:
        raise DecompositionError(f"component dimension {dim} not divisible by e={e}")
    return ComponentProfile(
        members=tuple(members) or (ComponentMember(RatMatrix.identity(dim), sub_rep),),
        commutant=com,
        n_field=n,
        m_schur=m,
        e_complex=e,
        fs_sign=fs_sign,
        r_components=r,
        proof=proof,
    )


def peel(rep0: RationalRep, sub: RationalRep, k: int) -> tuple[list[RatMatrix], Optional[RatMatrix]]:
    """(maps, complement) for sub holding exactly k copies of the irreducible
    rep0: each basis map of Hom_G(rep0, sub) whose image raises the rank of
    the images kept so far, until k are kept (an irreducible image meets
    their sum trivially or lies inside it); and None when their images fill
    sub, else the common kernel of Hom_G(sub, rep0), which meets the
    rep0-isotypic part in zero and holds every other summand."""
    kept, columns = [], []
    for phi in intertwiner_space(rep0.gen_images, sub.gen_images):
        more = columns + [list(phi.column(j)) for j in range(phi.cols)]
        if RatMatrix.from_columns(more).rank() == len(more):
            kept.append(phi)
            columns = more
            if len(kept) == k:
                break
    else:
        raise DecompositionError(f"Hom_G from a class has images of fewer than {k} copies of it")
    if len(columns) == sub.dimension:
        return kept, None
    back = intertwiner_space(sub.gen_images, rep0.gen_images)
    kernel = RatMatrix.from_rows([psi.row(i) for psi in back for i in range(psi.rows)]).kernel_basis()
    if len(kernel) + len(columns) != sub.dimension:
        raise DecompositionError("a node holds more copies of a class than its character says")
    return kept, RatMatrix.from_columns([list(v) for v in kernel])


def _meeting_class(sub: RationalRep, classes: dict) -> Optional[tuple[RationalRep, int]]:
    """(L, k) for the first proven class L that sub meets, where
    k = ⟨χ_L, χ_sub⟩ / dim E_L is the number of copies of L in sub, or None.
    classes maps a character to (the first leaf's certificate, the class's
    members); χ_sub is read only once a proven class exists."""
    for cert, _ in classes.values():
        if cert.proof == "search":
            continue
        k = character_inner_product(cert.commutant.rep, sub) / cert.commutant.dimension
        if k.denominator != 1:
            raise DecompositionError(f"a node meets a class in {k} copies")
        if k:
            return cert.commutant.rep, k.numerator
    return None


def _spin(rep: RationalRep, bound: int) -> Optional[RatMatrix]:
    """Columns spanning Q[G]·e_0, breadth first, each generator's image of a
    kept vector kept if it raises the rank (ratmat._insert); None past bound."""
    kept = [RatMatrix.from_integers(rep.dimension, 1, [1] + [0] * (rep.dimension - 1))]
    span: dict = {0: {0: 1}}
    for v in kept:  # kept doubles as the breadth-first queue
        for img in rep.gen_images:
            w = img @ v
            if _insert(span, {i: x for i, x in enumerate(w.integer_form()[0]) if x}) is not None:
                if len(kept) == bound:
                    return None
                kept.append(w)
    return RatMatrix.from_columns([v.entries() for v in kept])


def _within(basis: RatMatrix, m: RatMatrix) -> RatMatrix:
    """basis·m; only the root's basis, the identity, is square."""
    return m if basis.rows == basis.cols else basis @ m


def _classes(rep: RationalRep, com: Optional[CommutantBasis], classes: dict) -> dict:
    """Splits and peels rep into the class table classes, character ->
    (the first leaf's certificate, the class's members), and returns it; the
    trials come from one random.Random(0). com is rep's commutant, if solved."""
    rng = random.Random(0)
    pending = [(RatMatrix.identity(rep.dimension), rep, com)]
    while pending:
        basis, sub, com = pending.pop(0)
        met = _meeting_class(sub, classes)
        if met is not None:
            rep0, k = met
            _, members = classes[rep0.character]
            if sub.dimension == rep0.dimension:
                members.append(ComponentMember(basis, sub))
            else:
                maps, rest = peel(rep0, sub, k)
                members += [ComponentMember(_within(basis, phi), rep0) for phi in maps]
                if rest is not None:
                    pending.append((_within(basis, rest), restrict_rep(sub, rest), None))
        else:
            result = _split_once(sub, rng, com=com)
            if isinstance(result, IrreducibleCertificate):
                _, members = classes.setdefault(sub.character, (result, []))
                members.append(ComponentMember(basis, result.commutant.rep))
            else:
                parts = sorted(result, key=lambda part: part.cols)
                pending += [(_within(basis, k), restrict_rep(sub, k), None) for k in parts]
        if not pending:
            for key, (cert, members) in list(classes.items()):
                if cert.proof == "search" and _meeting_class(members[0].rep, classes):
                    del classes[key]
                    pending += [(m.basis, m.rep, None) for m in members]
    return classes


def _seeded_classes(rep: RationalRep) -> dict:
    """The classes of U = Q[G]·e_0 proven other than by "search", with no
    members, if the gate passes and the spin stays in bound; else {}."""
    chi, n = rep.character, rep.dimension
    norm = character_inner_product(rep, rep).numerator
    trivial = sum(map(mul, rep.group.class_data.sizes, chi)) // rep.group.order
    g = gcd(*chi)
    # k | χ, dim E_U = ⟨χ, χ⟩/k² divides dim U = n/k, and E_U = Q has indicator +1
    ks = (k for k in range(2, g + 1) if g % k == 0 == norm % (k * k) and (n // k) % (norm // k // k) == 0)
    k_min = next((k for k in ks if norm != k * k or fs_indicator_value(rep) == k), 0)
    if not (k_min and norm != 1 and trivial in (0, n)) or (span := _spin(rep, n // k_min)) is None:
        return {}
    classes = _classes(restrict_rep(rep, span), None, {})
    return {key: (cert, []) for key, (cert, _) in classes.items() if cert.proof != "search"}


def decompose(rep: RationalRep, ambient: Optional[CommutantBasis] = None) -> list[ComponentProfile]:
    """Recursive splitting into Q-irreducibles, grouped into classes by
    character in the order of their first leaves; with no `ambient`, the
    proven classes of U = Q[G]·e_0 seed them (module docstring). The result
    depends on rep alone. `ambient` is rep's commutant, if already solved."""
    n = rep.dimension
    classes = _classes(rep, ambient, {} if ambient is not None else _seeded_classes(rep))
    profiles = [component_profile(cert.commutant, members, cert.proof) for cert, members in classes.values()]
    total = sum(p.multiplicity * p.dimension for p in profiles)
    if total != n:
        raise DecompositionError(f"component dimensions sum to {total}, ambient is {n}")
    # ⟨χ, χ⟩ = dim E for each class, and 0 for two classes
    for p, q in itertools.combinations_with_replacement(profiles, 2):
        inner = character_inner_product(p.sub_rep, q.sub_rep)
        if inner != (p.dim_E if p is q else 0):
            raise DecompositionError(f"character inner product {inner} breaks dim E or orthogonality")
    return profiles
