"""Builders for the stock algebras: matrix algebras with elementary gradings,
upper triangular algebras, truncated free-group monoid algebras, group
algebras, direct sums, and the small Lie algebras used throughout the tests.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import ASSOCIATIVE, LIE, GradedAlgebra
from .errors import ResourceCapError, ValidationError
from .exactlin import ZERO
from .groups import (CyclicGroup, FreeGroup, Group, GroupElem, ProductGroup,
                     TrivialGroup)

ONE = Fraction(1)

# the largest dimension `free_group_truncation` builds: free_trunc_2_10, of
# dim 1023, is the largest binary truncation allowed
MAX_FREE_TRUNC_DIM = 1024


def _elementary_degrees(n: int, group: Group | None, row_labels, pairs) -> tuple:
    """(group, [deg e_pq for (p, q) in pairs]) for the elementary grading
    deg e_pq = g_p^{-1} g_q given by one row label g_p per row; the default
    group is trivial and the default labels are its identity; n >= 1."""
    if n < 1:
        raise ValidationError("a matrix algebra needs n >= 1 rows")
    if group is None:
        group = TrivialGroup()
    if row_labels is None:
        labels = [group.identity()] * n
    else:
        labels = [x if isinstance(x, GroupElem) else group.elem(x) for x in row_labels]
        if len(labels) != n:
            raise ValidationError("need one row label per matrix row")
    return group, [labels[p].inverse() * labels[q] for p, q in pairs]


def matrix_algebra(n: int, group: Group | None = None, row_labels=None,
                   name: str = "") -> GradedAlgebra:
    """Full matrix algebra M_n(Q) on the basis e_pq (row-major).

    With `row_labels` (g_1, ..., g_n) the elementary grading deg e_pq =
    g_p^{-1} g_q is used; the default is the trivial grading.
    """
    pairs = [(p, q) for p in range(n) for q in range(n)]
    group, degrees = _elementary_degrees(n, group, row_labels, pairs)
    idx = lambda p, q: p * n + q
    structure = {(idx(p, q), idx(q, s), idx(p, s)): ONE
                 for p in range(n) for q in range(n) for s in range(n)}
    unit = [ONE if p == q else ZERO for p, q in pairs]
    return GradedAlgebra(group, degrees, structure, kind=ASSOCIATIVE, unit=unit,
                         name=name or f"M{n}")


def matrix_algebra_z2() -> GradedAlgebra:
    """M_2(Q) with the Z2 grading: diagonal in degree 0, antidiagonal in degree 1."""
    z2 = CyclicGroup(2)
    return matrix_algebra(2, z2, (0, 1), name="m2_z2")


def upper_triangular(n: int, group: Group | None = None, row_labels=None,
                     name: str = "") -> GradedAlgebra:
    """Upper triangular matrices UT_n(Q), elementary grading as in matrix_algebra."""
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    group, degrees = _elementary_degrees(n, group, row_labels, pairs)
    index = {pq: i for i, pq in enumerate(pairs)}
    structure = {(index[(p, q)], index[(r, s)], index[(p, s)]): ONE
                 for (p, q) in pairs for (r, s) in pairs if q == r}
    unit = [ONE if p == q else ZERO for (p, q) in pairs]
    return GradedAlgebra(group, degrees, structure, kind=ASSOCIATIVE, unit=unit,
                         name=name or f"UT{n}")


def ut2() -> GradedAlgebra:
    """UT_2(Q) with the elementary Z2 grading (diagonal 0, corner 1)."""
    return upper_triangular(2, CyclicGroup(2), (0, 1), name="ut2")


def free_group_truncation(rank: int, cutoff: int) -> GradedAlgebra:
    """Monoid algebra of words over `rank` letters of length < cutoff, graded by
    the free group of that rank; concatenation products of length >= cutoff are 0.

    dim = sum_{t < cutoff} rank^t; every homogeneous component is 1-dimensional.
    A dim above MAX_FREE_TRUNC_DIM raises ResourceCapError before anything is
    built; the sum stops as soon as it passes the cap.
    """
    if rank < 1 or cutoff < 1:
        raise ValidationError("rank and cutoff must be >= 1")
    dim, words_of_length = 0, 1
    for _ in range(cutoff):
        dim += words_of_length
        if dim > MAX_FREE_TRUNC_DIM:
            raise ResourceCapError(f"free_trunc_{rank}_{cutoff} has dimension above "
                                   f"the cap of {MAX_FREE_TRUNC_DIM}")
        words_of_length *= rank
    F = FreeGroup(rank)
    words = [()]
    frontier = [()]
    for _ in range(cutoff - 1):
        frontier = [w + (a,) for w in frontier for a in range(1, rank + 1)]
        words.extend(frontier)
    index = {w: i for i, w in enumerate(words)}
    structure = {(iu, iv, index[u + v]): ONE for u, iu in index.items()
                 for v, iv in index.items() if len(u) + len(v) < cutoff}
    degrees = [F.elem(w) for w in words]
    unit = [ONE] + [ZERO] * (dim - 1)
    return GradedAlgebra(F, degrees, structure, kind=ASSOCIATIVE, unit=unit,
                         name=f"free_trunc_{rank}_{cutoff}")


def group_algebra(group: Group, name: str = "") -> GradedAlgebra:
    """Group algebra QG of a finite group with its natural G-grading."""
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    structure = {(i, j, index[gi * gj]): ONE
                 for i, gi in enumerate(elems) for j, gj in enumerate(elems)}
    unit = [ONE if e.is_identity() else ZERO for e in elems]
    return GradedAlgebra(group, elems, structure, kind=ASSOCIATIVE, unit=unit,
                         name=name or "QG")


def fz2() -> GradedAlgebra:
    return group_algebra(CyclicGroup(2), name="fz2")


def direct_sum(A: GradedAlgebra, B: GradedAlgebra, name: str = "") -> GradedAlgebra:
    if A.group != B.group:
        raise ValidationError("direct sum needs both summands graded by the same group")
    if A.kind != B.kind:
        raise ValidationError("direct sum needs summands of the same kind")
    n = A.dim
    structure = A.constants()
    structure.update({(n + i, n + j, n + k): c for (i, j, k), c in B.constants().items()})
    degrees = list(A.degrees) + list(B.degrees)
    unit = None
    if A.kind == ASSOCIATIVE and A.unit is not None and B.unit is not None:
        unit = list(A.unit) + list(B.unit)
    return GradedAlgebra(A.group, degrees, structure, kind=A.kind, unit=unit,
                         name=name or f"{A.name}(+){B.name}")


def lie_from_brackets(group: Group, degrees, dim: int, brackets: dict,
                      name: str = "") -> GradedAlgebra:
    """Lie algebra from brackets {(i, j): [(k, coeff), ...]} for i < j; the
    antisymmetric completion is filled in and Jacobi is checked on construction."""
    structure = {}
    for (i, j), terms in brackets.items():
        if not i < j:
            raise ValidationError("brackets must be given for i < j only")
        for k, c in terms:
            c = Fraction(c)
            structure[i, j, k] = c
            structure[j, i, k] = -c
    degs = [group.elem(d) if not isinstance(d, GroupElem) else d for d in degrees]
    if len(degs) != dim:
        raise ValidationError("need one degree per basis vector")
    return GradedAlgebra(group, degs, structure, kind=LIE, name=name)


def sl2() -> GradedAlgebra:
    """sl_2(Q) on (e, h, f), graded by the free group of rank 1 via
    deg e = a, deg h = 1, deg f = a^{-1}."""
    F = FreeGroup(1)
    degrees = [F.elem((1,)), F.identity(), F.elem((-1,))]
    brackets = {
        (0, 1): [(0, -2)],   # [e, h] = -2e
        (0, 2): [(1, 1)],    # [e, f] = h
        (1, 2): [(2, -2)],   # [h, f] = -2f
    }
    return lie_from_brackets(F, degrees, 3, brackets, name="sl2")


def gl2_z2() -> GradedAlgebra:
    """gl_2(Q) under the commutator, Z2-graded by diagonal/antidiagonal."""
    M = matrix_algebra(2, CyclicGroup(2), (0, 1))
    structure = {}      # [e_i, e_j] has c_ij^k - c_ji^k on e_k; zeros are dropped
    for (i, j, k), c in M.constants().items():
        structure[i, j, k] = structure.get((i, j, k), 0) + c
        structure[j, i, k] = structure.get((j, i, k), 0) - c
    return GradedAlgebra(M.group, M.degrees, structure, kind=LIE, name="gl2_z2")


def heisenberg3() -> GradedAlgebra:
    """3-dimensional Heisenberg Lie algebra [x, y] = z, graded by Z2 x Z2."""
    K = ProductGroup((CyclicGroup(2), CyclicGroup(2)))
    degrees = [K.elem((1, 0)), K.elem((0, 1)), K.elem((1, 1))]
    return lie_from_brackets(K, degrees, 3, {(0, 1): [(2, 1)]}, name="heis3")


def two_dim_nonabelian_lie() -> GradedAlgebra:
    """The affine line: basis (x, y) with [x, y] = x, Z2-graded with deg x = 1."""
    z2 = CyclicGroup(2)
    return lie_from_brackets(z2, [z2.elem(1), z2.elem(0)], 2,
                             {(0, 1): [(0, 1)]}, name="aff1")


_FREE_TRUNC_RE = re.compile(r"^free_trunc_([0-9]{1,20})_([0-9]{1,20})$")

_FIXED_BUILTINS = {
    "m2_z2": matrix_algebra_z2,
    "ut2": ut2,
    "sl2": sl2,
    "gl2_z2": gl2_z2,
    "heis3": heisenberg3,
    "aff1": two_dim_nonabelian_lie,
    "fz2": fz2,
}


def builtin_names() -> list[str]:
    return sorted(_FIXED_BUILTINS) + ["free_trunc_<rank>_<cutoff>"]


def builtin(name: str) -> GradedAlgebra:
    if name in _FIXED_BUILTINS:
        return _FIXED_BUILTINS[name]()
    m = _FREE_TRUNC_RE.match(name)
    if m:
        return free_group_truncation(int(m.group(1)), int(m.group(2)))
    raise ValidationError(
        f"unknown builtin {name!r}; available: {', '.join(builtin_names())}")
