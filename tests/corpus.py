"""Seeded corpus of graded associative and Lie algebras for the stability
sweeps: builtins, randomized graded quotients of truncated free-group
algebras, random graded subalgebras of matrix algebras, direct sums, and the
commutator Lie algebras A^- of the small associative members; plus seeded
integer matrices for the linear-algebra sweeps, and two rewrites of a given
algebra: with the trivial grading, and on a new homogeneous basis.

Grading groups covered: trivial, Z2, Z3, Z2 x Z2, free(2). All dims <= 8.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gradedalg.algebra import LIE, GradedAlgebra, algebra_on_subspace, quotient_algebra
from gradedalg.builders import (direct_sum, free_group_truncation, fz2,
                                group_algebra, gl2_z2, heisenberg3,
                                matrix_algebra, matrix_algebra_z2, sl2,
                                two_dim_nonabelian_lie, upper_triangular, ut2)
from gradedalg.exactlin import Subspace
from gradedalg.groups import CyclicGroup, ProductGroup, TrivialGroup
from gradedalg.radical import jacobson_radical
from gradedalg.structure import malcev_complement_graded
from tests.dense import invert

MAX_DIM = 8


def _random_homogeneous(rng, A, g, lo=-2, hi=2):
    v = [Fraction(0)] * A.dim
    for i in A.component_indices(g):
        v[i] = Fraction(rng.randint(lo, hi))
    return tuple(v)


def random_graded_quotient(rng: random.Random) -> GradedAlgebra:
    rank = rng.choice([1, 1, 2])
    cutoff = rng.choice([3, 4]) if rank == 1 else rng.choice([2, 3])
    A = free_group_truncation(rank, cutoff)
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(A.support[1:])    # skip the unit's component
            gens.append(_random_homogeneous(rng, A, g))
        ideal = A.ideal_generated(gens)
        if 0 < ideal.dim < A.dim and A.dim - ideal.dim <= MAX_DIM:
            return quotient_algebra(A, ideal).algebra
    return A


_MATRIX_BASES = [
    lambda: matrix_algebra_z2(),
    lambda: matrix_algebra(2, CyclicGroup(3), (0, 1), name="m2_z3"),
    lambda: matrix_algebra(2, name="m2"),
    lambda: upper_triangular(3, CyclicGroup(2), (0, 1, 0), name="ut3_z2"),
    lambda: upper_triangular(3, name="ut3"),
]


def random_matrix_subalgebra(rng: random.Random) -> GradedAlgebra:
    base = rng.choice(_MATRIX_BASES)()
    for _ in range(30):
        gens = []
        if rng.random() < 0.5 and base.unit is not None:
            gens.append(base.unit)
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(base.support)
            gens.append(_random_homogeneous(rng, base, g, -1, 1))
        sub = base.subalgebra_generated(gens)
        if 0 < sub.dim <= MAX_DIM:
            return algebra_on_subspace(base, sub, name="sub").algebra
    return base


def _associative_atoms():
    return [
        matrix_algebra_z2(),
        ut2(),
        fz2(),
        free_group_truncation(2, 2),
        free_group_truncation(1, 3),
        matrix_algebra(2, name="m2"),
        upper_triangular(2, name="ut2_triv"),
        group_algebra(CyclicGroup(3), name="fz3"),
        group_algebra(ProductGroup((CyclicGroup(2), CyclicGroup(2))), name="fk4"),
        matrix_algebra(1, CyclicGroup(2), name="f_z2graded"),
    ]


def random_direct_sum(rng: random.Random) -> GradedAlgebra:
    atoms = _associative_atoms()
    for _ in range(30):
        a = rng.choice(atoms)
        b = rng.choice(atoms)
        if a.group != b.group or a.dim + b.dim > MAX_DIM:
            continue
        return direct_sum(a, b)
    a = fz2()
    return direct_sum(a, fz2())


def associative_corpus(seed: int = 20240817, quotients: int = 70,
                       subalgebras: int = 65, sums: int = 60) -> list:
    """At least 200 graded associative algebras, dims <= 8, varied groups."""
    rng = random.Random(seed)
    corpus = list(_associative_atoms())
    corpus += [
        free_group_truncation(2, 3),
        free_group_truncation(1, 4),
        upper_triangular(3, name="ut3"),
        group_algebra(CyclicGroup(2), name="fz2b"),
    ]
    for _ in range(quotients):
        corpus.append(random_graded_quotient(rng))
    for _ in range(subalgebras):
        corpus.append(random_matrix_subalgebra(rng))
    for _ in range(sums):
        corpus.append(random_direct_sum(rng))
    assert all(a.dim <= MAX_DIM for a in corpus)
    return corpus


def semisimple_part(A: GradedAlgebra) -> GradedAlgebra:
    """A if J(A) = 0, else the algebra on its graded Mal'cev complement."""
    if jacobson_radical(A, verify=False).is_zero():
        return A
    return algebra_on_subspace(A, malcev_complement_graded(A)).algebra


def corpus_semisimple_parts() -> list:
    return [semisimple_part(A) for A in associative_corpus() if A.unit is not None]


def trivially_graded(A: GradedAlgebra) -> GradedAlgebra:
    """A with the same structure constants and unit, graded by the trivial group."""
    t = TrivialGroup()
    return GradedAlgebra(t, [t.identity()] * A.dim, A.constants(), kind=A.kind,
                         unit=A.unit, name=f"{A.name}_triv")


def change_basis(A: GradedAlgebra, rows):
    """(B, image) for a unital associative A or a Lie A: B is A written on the basis b_i = rows[i]
    (A-coordinates, b_i homogeneous of degree A.degrees[i]), and image takes
    a subspace of A to the same subspace in B's coordinates."""
    inverse = invert(rows)

    def coords(v):
        return tuple(sum(v[r] * inverse[r][k] for r in range(A.dim)) for k in range(A.dim))

    structure = {(i, j, k): c for i, bi in enumerate(rows) for j, bj in enumerate(rows)
                 for k, c in enumerate(coords(A.multiply(bi, bj)))}
    unit = None if A.unit is None else coords(A.unit)
    B = GradedAlgebra(A.group, A.degrees, structure, kind=A.kind, unit=unit,
                      name=f"{A.name}_rebased")
    return B, lambda S: Subspace.from_vectors(A.dim, [coords(v) for v in S.basis_vectors()])


def has_non_integral_constant(A: GradedAlgebra) -> bool:
    """Whether some structure constant of A is a non-integral Fraction."""
    return any(isinstance(c, Fraction) and c.denominator != 1 for c in A.constants().values())


def rescaled(A: GradedAlgebra, scales, shear=0) -> GradedAlgebra:
    """A unital associative A or a Lie A on the basis b_i = scales[i] e_i + shear e_j, where e_j is
    the next basis vector of e_i's degree (none for the last one): the same
    grading, with the structure constants changed. With shear 0 each constant
    is multiplied by scales[i] * scales[j] / scales[k]."""
    rows = []
    for i in range(A.dim):
        row = [0] * A.dim
        row[i] = scales[i]
        later = [j for j in A.component_indices(A.degrees[i]) if j > i]
        if later:
            row[later[0]] = shear
        rows.append(row)
    return change_basis(A, rows)[0]


def lie_corpus() -> list:
    """Lie builtins plus graded direct sums over matching groups."""
    out = [sl2(), gl2_z2(), heisenberg3(), two_dim_nonabelian_lie()]
    out.append(direct_sum(sl2(), sl2(), name="sl2+sl2"))
    out.append(direct_sum(gl2_z2(), two_dim_nonabelian_lie(), name="gl2+aff1"))
    out.append(direct_sum(heisenberg3(), heisenberg3(), name="heis3+heis3"))
    out.append(direct_sum(two_dim_nonabelian_lie(), two_dim_nonabelian_lie(), name="aff1+aff1"))
    return out


def commutator_algebra(A: GradedAlgebra) -> GradedAlgebra:
    """A^- : the basis of A under [a, b] = ab - ba, with the same degrees."""
    structure = {}
    for (i, j, k), c in A.constants().items():
        structure[i, j, k] = structure.get((i, j, k), 0) + c
        structure[j, i, k] = structure.get((j, i, k), 0) - c
    return GradedAlgebra(A.group, A.degrees, structure, kind=LIE, name=f"{A.name}^-")


def commutator_corpus() -> list:
    """A^- for every member of `associative_corpus()` with dim <= 7 whose
    support commutes (so ab and ba share a degree and A^- is graded)."""
    return [commutator_algebra(A) for A in associative_corpus()
            if A.dim <= 7 and all(g * h == h * g for g in A.support for h in A.support)]


_MATRIX_SHAPES = [(0, 4), (3, 0), (0, 0), (12, 3), (20, 2), (5, 7), (6, 6), (1, 5)]


def random_matrices(seed: int, count: int = 72):
    """Seeded integer matrices as (rows, cols): empty (0 rows or 0 columns),
    tall (rows >> cols), wide and square; one in three of the nonempty ones
    is rank-deficient, a product through a middle dimension below min(rows, cols)."""
    rng = random.Random(seed)
    for i in range(count):
        nr, nc = _MATRIX_SHAPES[i % len(_MATRIX_SHAPES)]
        if i % 3 == 2 and nr and nc:
            k = rng.randint(0, min(nr, nc) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
            right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
            rows = [[sum(l[t] * right[t][j] for t in range(k)) for j in range(nc)]
                    for l in left]
        else:
            rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        yield rows, nc
