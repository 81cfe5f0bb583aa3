"""The fixed corpus: workloads, their cases, the seeded input generator and
the expected fingerprints.

Every case is one `anosov` CLI invocation. Its input is the JSON object the
CLI reads ({"generators", "rep_images", "class"}); its expected fingerprint is
derived from the closed form of the representation (which rational
irreducibles occur, with which multiplicity and real-component count), not
from the program's own output.

Seed 0 gives the canonical matrices. Any other seed conjugates the
generators, and separately the representation images, by a seeded integer
matrix of determinant ±1 with small entries. Conjugation leaves the group,
the isomorphism class of the representation and therefore every expected
fingerprint unchanged, while it changes entry sizes and commutant bases.

Matrices here are tuples of tuples of Python ints; the benchmark builds its
inputs without calling into `anosov`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

Mat = tuple  # tuple of row tuples of int


# -- integer matrix helpers --------------------------------------------------


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def block_diag(blocks) -> Mat:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (n - offset - len(row)))
        offset += len(b)
    return tuple(rows)


def perm_matrix(images) -> Mat:
    """P with P e_i = e_{images[i]}."""
    n = len(images)
    return tuple(tuple(int(images[j] == i) for j in range(n)) for i in range(n))


def companion(coeffs) -> Mat:
    """Companion matrix of the monic polynomial with ascending `coeffs`."""
    n = len(coeffs) - 1
    return tuple(
        tuple((1 if i == j + 1 else 0) + (-coeffs[i] if j == n - 1 else 0) for j in range(n))
        for i in range(n)
    )


def closure(gens) -> list:
    """Elements of the finite group generated by integer matrices, breadth first."""
    elements = [identity(len(gens[0]))]
    seen = {elements[0]}
    for g in elements:
        for s in gens:
            p = matmul(g, s)
            if p not in seen:
                seen.add(p)
                elements.append(p)
    return elements


def regular_images(gens) -> list:
    """Left-regular permutation matrices of the generators."""
    elements = closure(gens)
    index = {g: i for i, g in enumerate(elements)}
    return [perm_matrix([index[matmul(s, h)] for h in elements]) for s in gens]


def unimodular(rng: random.Random, n: int):
    """A seeded integer matrix U with det ±1, and its inverse: a signed
    permutation times one elementary shear I + sE_ij with s = ±1. One shear
    keeps the entries small, and the extra work about the same from seed to
    seed."""
    shear, shear_inv = identity(n), identity(n)
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        shear = tuple(tuple(int(r == c) + s * ((r, c) == (i, j)) for c in range(n)) for r in range(n))
        shear_inv = tuple(tuple(int(r == c) - s * ((r, c) == (i, j)) for c in range(n)) for r in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = tuple(tuple(signs[r] * int(perm[c] == r) for c in range(n)) for r in range(n))
    p_inv = tuple(zip(*p))  # a signed permutation matrix is orthogonal
    return matmul(p, shear), matmul(shear_inv, p_inv)


def conjugate_all(mats, rng: random.Random):
    u, u_inv = unimodular(rng, len(mats[0]))
    return [matmul(matmul(u, m), u_inv) for m in mats]


# -- the groups --------------------------------------------------------------

D3 = (((0, -1), (1, -1)), ((0, -1), (-1, 0)))
Q8 = (
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
)
D4 = (((0, -1), (1, 0)), ((1, 0), (0, -1)))
S4 = (perm_matrix([1, 2, 3, 0]), perm_matrix([1, 0, 2, 3]))
S5 = (perm_matrix([1, 2, 3, 4, 0]), perm_matrix([1, 0, 2, 3, 4]))
B4 = S4 + (block_diag([((-1,),), identity(3)]),)
B3 = (perm_matrix([1, 2, 0]), perm_matrix([1, 0, 2]), block_diag([((-1,),), identity(2)]))
A5 = (perm_matrix([1, 2, 3, 4, 0]), perm_matrix([1, 2, 0, 3, 4]))
S6 = (perm_matrix([1, 2, 3, 4, 5, 0]), perm_matrix([1, 0, 2, 3, 4, 5]))
KLEIN = (((1, 0), (0, -1)),)
CIRCLE = (identity(1),)
C5 = (companion((1, 1, 1, 1, 1)),)
C7 = (companion((1, 1, 1, 1, 1, 1, 1)),)
C8 = (companion((1, 0, 0, 0, 1)),)


def copies(gens, k: int):
    """rep_images of k copies of the natural representation; None (the
    natural representation itself) for k = 1."""
    return None if k == 1 else tuple(block_diag([g] * k) for g in gens)


# -- cases -------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One CLI invocation and its closed-form expectation.

    `components` lists (dimension, multiplicity, r_components) of every
    rational irreducible class; `rep_images` is None for the natural
    representation."""

    case_id: str
    command: str  # "decide", "witness" or "no-cert"
    generators: tuple
    rep_images: tuple | None
    c: int
    components: tuple
    height_bound: int = 0
    commutant_dim: int = 0

    def argv(self) -> list[str]:
        if self.command == "witness":
            return ["decide", "-", "--witness"]
        if self.command == "no-cert":
            return ["no-cert", "-", "--height-bound", str(self.height_bound)]
        return ["decide", "-"]

    def input_obj(self, seed: int, pass_index: int = 0) -> dict:
        """The CLI input. Each pass of a run draws its own change of basis
        from the seed, so a run's medians average over several of them."""
        gens, images = list(self.generators), self.rep_images
        if seed:
            rng = random.Random(f"{seed}:{pass_index}:{self.case_id}")
            gens = conjugate_all(gens, rng)
            if images is not None:
                images = conjugate_all(list(images), rng)
        obj = {"generators": [_json_matrix(g) for g in gens]}
        obj["rep_images"] = None if images is None else [_json_matrix(m) for m in images]
        obj["class"] = self.c
        return obj

    def expected(self) -> dict:
        """The fingerprint the closed form predicts: a component passes iff
        r·m > c, and the verdict is YES iff every component passes."""
        rows = []
        for dim, mult, r in self.components:
            threshold = Fraction(self.c, mult)
            rows.append(
                [dim, mult, r, f"{threshold.numerator}/{threshold.denominator}", r * mult > self.c]
            )
        verdict = all(row[4] for row in rows)
        if self.command == "no-cert":
            # the search screens every nonzero integer combination of the
            # commutant basis with coefficients in [-h, h], and finds none
            screened = (2 * self.height_bound + 1) ** self.commutant_dim - 1
            return {"verdict": verdict, "hits": 0, "candidates_screened": screened}
        fp = {"verdict": verdict, "components": sorted(rows)}
        if self.command == "witness":
            fp["witness"] = _valid_witness_flags() if verdict else "not-applicable"
        return fp


def _json_matrix(m: Mat) -> list:
    return [[str(x) for x in row] for row in m]


def _valid_witness_flags() -> dict:
    return {
        "witness_status": "attached",
        "commutes": True,
        "integer_like": True,
        "per_generator_commutation": True,
        "hyperbolic": True,
    }


def fingerprint(case: Case, out: dict) -> dict:
    """The part of a CLI result that a correct program must reproduce. The
    witness matrix itself is left out: any valid witness is accepted."""
    if case.command == "no-cert":
        # no-cert refuses (raises) on a YES verdict, so a result means NO
        return {"verdict": False, "hits": out["hits"], "candidates_screened": out["candidates_screened"]}
    fp = {
        "verdict": out["admits_anosov"],
        "components": sorted(
            [row["dimension"], row["multiplicity"], row["r_components"], row["threshold"], row["passes"]]
            for row in out["components"]
        ),
    }
    if case.command == "witness":
        status = out.get("witness_status")
        w = out.get("witness")
        if status == "attached" and w is not None:
            fp["witness"] = {
                "witness_status": status,
                "commutes": w["commutes"],
                "integer_like": w["integer_like"],
                "per_generator_commutation": all(w["per_generator_commutation"]),
                "hyperbolic": w["hyperbolicity"]["verdict"],
            }
        else:
            fp["witness"] = status
    return fp


# Component classes from the closed forms: rho3 is the 2-dimensional rational
# irreducible of D3 (absolutely irreducible, r = 1); Q8's 4-dimensional
# rational irreducible is quaternionic (r = 1); the companion of Phi_n gives
# one irreducible of dimension phi(n) with r = phi(n)/2; a trivial group
# acting on Q^n is the trivial irreducible with multiplicity n; a regular
# representation contains every irreducible, so its trivial summand
# (m = 1, r = 1) fails at every c >= 1. The commutant of a representation
# has dimension sum(m^2 * dim End(V)) over its irreducibles V: End(V) is Q
# for the Klein bottle's two characters, the circle and rho3, and the
# rational quaternions (dimension 4) for Q8.


def k_rho3(k: int, c: int, command: str = "decide") -> Case:
    return Case(f"{k}rho3_c{c}", command, D3, copies(D3, k), c, ((2, k, 1),))


def k_q8(k: int, c: int) -> Case:
    return Case(f"{k}q8_c{c}", "decide", Q8, copies(Q8, k), c, ((4, k, 1),))


def regular(name: str, gens, c: int, components) -> Case:
    return Case(f"reg_{name}_c{c}", "decide", gens, tuple(regular_images(gens)), c, components)


REG_Q8 = ((1, 1, 1),) * 4 + ((4, 1, 1),)
REG_D4 = ((1, 1, 1),) * 4 + ((2, 2, 1),)
REG_S4 = ((1, 1, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (3, 3, 1))


def cyclic(name: str, gens, k: int, c: int, dim: int) -> Case:
    return Case(f"{k}{name}_c{c}", "witness", gens, copies(gens, k), c, ((dim, k, dim // 2),))


def torus(n: int, c: int) -> Case:
    return Case(f"t{n}_c{c}", "witness", (identity(n),), None, c, ((1, n, 1),))


def no_cert(case_id: str, gens, images, c: int, components, height: int, commutant_dim: int) -> Case:
    return Case(case_id, "no-cert", gens, images, c, components, height, commutant_dim)


# The timed corpus. Each workload is cut so that one pass takes well under
# a second on a quiet 2-core host: a 20 s run then holds 15 to 30 passes, so
# that its tail percentile lies inside the slowest cases' samples rather
# than at their minimum, and its minimum number of passes still fits the
# run when the shared host runs at half speed. Each has an
# odd number of cases so that the median case falls inside one case's
# samples.
WORKLOADS = {
    # commutant, splitting and profiles; no hyperbolicity work at all
    "isotypic": lambda: [
        k_rho3(2, 1), k_rho3(4, 3), k_q8(1, 1), k_q8(2, 1), regular("d4", D4, 1, REG_D4),
    ],
    # group closure and the homomorphism check dominate (orders 48 and 60)
    "closure": lambda: [
        Case("b3_natural_c1", "decide", B3, None, 1, ((3, 1, 1),)),
        Case("b3_images_c1", "decide", B3, B3, 1, ((3, 1, 1),)),
        Case("a5_natural_c1", "decide", A5, None, 1, ((1, 1, 1), (4, 1, 1))),
    ],
    # witness construction: tensor shortcut (m*rho3, tori) and field through
    # the commutant (cyclotomic rotations); 4*rho3 at c = 3 gives the
    # highest-degree eigenvalue-product polynomial. No case takes more than
    # about a quarter of a pass, and the two slowest are alike, so that the
    # tail percentile draws on both.
    "witness": lambda: [
        k_rho3(2, 1, "witness"), k_rho3(3, 2, "witness"), k_rho3(4, 2, "witness"), k_rho3(4, 3, "witness"),
        cyclic("c5", C5, 1, 1, 4), cyclic("c8", C8, 1, 1, 4), torus(3, 2),
    ],
    # the only workload that reaches lattice_search: many small polynomials.
    # The two slowest cases are alike, so that the tail percentile draws on
    # both and not on one case's extremes.
    "lattice": lambda: [
        no_cert("klein_c1_h5", KLEIN, None, 1, ((1, 1, 1), (1, 1, 1)), 5, 2),
        no_cert("circle_c1_h5", CIRCLE, None, 1, ((1, 1, 1),), 5, 1),
        no_cert("2rho3_c2_h1", D3, copies(D3, 2), 2, ((2, 2, 1),), 1, 4),
        no_cert("2rho3_c3_h1", D3, copies(D3, 2), 3, ((2, 2, 1),), 1, 4),
        no_cert("q8_c1_h1", Q8, None, 1, ((4, 1, 1),), 1, 4),
        no_cert("q8_c2_h1", Q8, None, 2, ((4, 1, 1),), 1, 4),
        no_cert("q8_c3_h1", Q8, None, 3, ((4, 1, 1),), 1, 4),
    ],
}

# The full corpus each workload was designed from. Most of it is left out
# of the timed runs because one case alone would take longer than a whole
# pass; `baseline.py` measures it, and a case can join its timed workload
# once the program is fast enough.
FULL = {
    "isotypic": lambda: [
        k_rho3(k, c) for k in (2, 4, 6, 8) for c in (k - 1, k)
    ] + [
        k_q8(k, c) for k in (1, 2, 3) for c in (k - 1, k) if c >= 1
    ] + [
        regular("q8", Q8, 1, REG_Q8), regular("d4", D4, 1, REG_D4), regular("s4", S4, 1, REG_S4),
    ],
    "closure": lambda: [
        Case("b4_natural_c1", "decide", B4, None, 1, ((4, 1, 1),)),
        Case("b4_images_c1", "decide", B4, B4, 1, ((4, 1, 1),)),
        Case("s5_images_c1", "decide", S5, S5, 1, ((1, 1, 1), (4, 1, 1))),
        Case("2s5_c1", "decide", S5, copies(S5, 2), 1, ((1, 2, 1), (4, 2, 1))),
    ],
    "witness": lambda: [
        k_rho3(m, c, "witness") for m in range(2, 7) for c in range(1, m) if (m, c) != (6, 5)
    ] + [
        cyclic("c5", C5, 1, 1, 4),
        *(cyclic("c5", C5, 2, c, 4) for c in (1, 2, 3)),
        *(cyclic("c7", C7, 1, c, 6) for c in (1, 2)),
        cyclic("c8", C8, 1, 1, 4),
        torus(2, 1), torus(3, 2),
    ],
    "lattice": lambda: [
        no_cert("klein_c1_h5", KLEIN, None, 1, ((1, 1, 1), (1, 1, 1)), 5, 2),
        no_cert("circle_c1_h5", CIRCLE, None, 1, ((1, 1, 1),), 5, 1),
        no_cert("2rho3_c2_h3", D3, copies(D3, 2), 2, ((2, 2, 1),), 3, 4),
        no_cert("q8_c1_h3", Q8, None, 1, ((4, 1, 1),), 3, 4),
        no_cert("q8_c2_h3", Q8, None, 2, ((4, 1, 1),), 3, 4),
    ],
}

# Left out of the full corpus too: either one would dominate it.
TOO_SLOW = {
    "closure": lambda: [Case("s6_natural_c1", "decide", S6, None, 1, ((1, 1, 1), (5, 1, 1)))],
    "witness": lambda: [k_rho3(6, 5, "witness")],
}


def make_inputs(cases: list[Case], seed: int, pass_index: int = 0) -> list[str]:
    """The JSON input text of each case, in order, for one pass."""
    return [json.dumps(case.input_obj(seed, pass_index)) for case in cases]
