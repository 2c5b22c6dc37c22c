"""Graded structure theory: decomposition of semisimple algebras into graded-
simple ideals, graded semisimple complements to the Jacobson radical, and
graded Levi decompositions.

No polynomial factorization anywhere. The semisimple decomposition descends on
graded ideals generated by single homogeneous elements and splits with
two-sided annihilator complements. The Mal'cev complement and the Levi
subalgebra share one solve, `_lift_section`: it corrects a homogeneous linear
section of A -> A/I by elements of the ideal I so that it is multiplicative
modulo a smaller ideal. Mal'cev runs it along J, J^2, J^4, ...; Levi quotients
by the derived series of the solvable radical until the radical is abelian
and runs it once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (ASSOCIATIVE, LIE, GradedAlgebra, algebra_on_subspace,
                      quotient_algebra)
from .errors import InternalCheckError, NotSemisimpleError, ValidationError
from .exactlin import (Mat, ONE, Subspace, ZERO, is_zero_vector, kernel,
                       solve, unit_vector)
from .radical import jacobson_radical, solvable_radical


@dataclass
class GradedDecomposition:
    kind: str                     # "wedderburn_artin" | "malcev" | "levi"
    components: list

    def dims(self) -> list:
        return [c.dim for c in self.components]


def _homogeneous_candidates(A: GradedAlgebra, piece: Subspace, rng, extra: int = 4):
    """Nonzero homogeneous elements of the piece: projections of its canonical
    basis plus a few seeded random homogeneous combinations per degree."""
    seen = set()
    out = []
    for v in piece.basis_vectors():
        for _, p in A.homogeneous_components(v):
            if p not in seen:
                seen.add(p)
                out.append(p)
    by_degree: dict = {}
    for p in out:
        g = A.degree_of(p)
        by_degree.setdefault(g, []).append(p)
    for g, vecs in list(by_degree.items()):
        if len(vecs) < 2:
            continue
        for _ in range(extra):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in vecs]
            w = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(A.dim))
            if not is_zero_vector(w) and w not in seen:
                seen.add(w)
                out.append(w)
    return out


def _minimal_graded_ideal(A: GradedAlgebra, piece: Subspace, rng) -> Subspace:
    """Descend from the piece through graded ideals generated by single
    homogeneous elements until no candidate generates anything smaller."""
    current = piece
    while True:
        best = None
        for x in _homogeneous_candidates(A, current, rng):
            ide = A.ideal_generated([x])
            if 0 < ide.dim < current.dim and (best is None or ide.dim < best.dim):
                best = ide
        if best is None:
            return current
        current = best


def annihilator_within(A: GradedAlgebra, piece: Subspace, ideal: Subspace) -> Subspace:
    """{a in piece : a b = b a = 0 for all b in the ideal}."""
    rows = []
    for b in ideal.basis_vectors():
        rows.extend(A.right_mult_matrix(b).data)   # a -> a b
        rows.extend(A.left_mult_matrix(b).data)    # a -> b a
    if not rows:
        return piece
    ann = kernel(Mat(rows, cols=A.dim))
    return ann & piece


def wedderburn_artin_graded(A: GradedAlgebra, seed: int = 20240901) -> GradedDecomposition:
    """Decompose a semisimple unital algebra into graded-simple ideals.

    Splitting is descent + annihilator complement; each returned component is
    re-verified: pairwise products vanish, dims add up, every candidate
    homogeneous element generates its whole component.
    """
    if A.kind != ASSOCIATIVE:
        raise ValidationError("decomposition applies to associative algebras")
    if A.dim == 0:
        return GradedDecomposition("wedderburn_artin", [])
    if A.unit is None:
        raise ValidationError("decomposition needs a unital algebra")
    if not jacobson_radical(A, verify=False).is_zero():
        raise NotSemisimpleError("algebra has a nonzero radical")
    rng = random.Random(seed)
    final = []
    stack = [Subspace.full(A.dim)]
    while stack:
        piece = stack.pop()
        minimal = _minimal_graded_ideal(A, piece, rng)
        if minimal.dim == piece.dim:
            final.append(piece)
            continue
        rest = annihilator_within(A, piece, minimal)
        if minimal.dim + rest.dim != piece.dim or not (minimal & rest).is_zero():
            raise InternalCheckError("annihilator complement does not split the piece")
        stack.append(minimal)
        stack.append(rest)
    final.sort(key=lambda s: (s.dim, s.mat.data))
    total = sum(c.dim for c in final)
    if total != A.dim:
        raise InternalCheckError("component dimensions do not add up")
    for i, ci in enumerate(final):
        for j, cj in enumerate(final):
            if i == j:
                continue
            for u in ci.basis_vectors():
                for w in cj.basis_vectors():
                    if not is_zero_vector(A.multiply(u, w)):
                        raise InternalCheckError("cross products between components do not vanish")
    for c in final:
        for x in _homogeneous_candidates(A, c, rng):
            if A.ideal_generated([x]) != c:
                raise InternalCheckError(
                    "component is not graded-simple: a homogeneous element generates a proper ideal")
    return GradedDecomposition("wedderburn_artin", final)


def malcev_decomposition(A: GradedAlgebra) -> GradedDecomposition:
    """Complement and radical packaged as one decomposition record."""
    B = malcev_complement_graded(A)
    J = jacobson_radical(A, verify=False)
    parts = [p for p in (B, J) if not p.is_zero()]
    return GradedDecomposition("malcev", parts)


def levi_decomposition(L: GradedAlgebra) -> GradedDecomposition:
    B = levi_graded(L)
    R = solvable_radical(L, verify=False)
    parts = [p for p in (B, R) if not p.is_zero()]
    return GradedDecomposition("levi", parts)


def _axpy(acc: list, c, v):
    """acc += c v in place, skipping the zero entries of v."""
    for i, x in enumerate(v):
        if x:
            acc[i] += c * x


def _image(A: GradedAlgebra, Q: GradedAlgebra, section, a: int, b: int) -> list:
    """sum_k mu^k_ab s_k: the product of quotient basis vectors a, b carried
    back along the section."""
    out = [ZERO] * A.dim
    for k, mu in Q.structure[a][b]:
        _axpy(out, mu, section[k])
    return out


def _lift_section(A: GradedAlgebra, Q: GradedAlgebra, section: list,
                  ideal: Subspace, below: Subspace):
    """Correct the homogeneous section of A -> Q in place by t_a in the ideal.

    Solves s_a t_b + t_a s_b - sum_k mu^k_ab t_k = -defect_ab modulo `below`
    with t_a in ideal ^ A_{deg a}, where defect_ab = s_a s_b - sum_k mu^k_ab s_k
    and mu are the structure constants of Q. The dropped terms t_a t_b must lie
    in `below`. The correction is the echelon particular solution (free
    variables zero), hence deterministic.
    """
    blocks = []
    offsets = []
    nunk = 0
    for g in Q.degrees:
        comp = Subspace.from_vectors(
            A.dim, [A.homogeneous_projection(v, g) for v in ideal.basis_vectors()])
        blocks.append(comp.basis_vectors())
        offsets.append(nunk)
        nunk += comp.dim
    rows = []
    rhs = []
    for a, sa in enumerate(section):
        for b, sb in enumerate(section):
            cols = [[ZERO] * A.dim for _ in range(nunk)]
            for u, t in enumerate(blocks[b]):
                _axpy(cols[offsets[b] + u], ONE, A.multiply(sa, t))
            for u, t in enumerate(blocks[a]):
                _axpy(cols[offsets[a] + u], ONE, A.multiply(t, sb))
            for k, mu in Q.structure[a][b]:
                for u, t in enumerate(blocks[k]):
                    _axpy(cols[offsets[k] + u], -mu, t)
            # -defect_ab = sum_k mu^k_ab s_k - s_a s_b
            neg_defect = [e - p for p, e in zip(A.multiply(sa, sb), _image(A, Q, section, a, b))]
            red_cols = [below.residual(col) for col in cols]
            red_rhs = below.residual(neg_defect)
            for i in range(A.dim):
                row = [rc[i] for rc in red_cols]
                if any(x != 0 for x in row) or red_rhs[i] != 0:
                    rows.append(row)
                    rhs.append(red_rhs[i])
    if not rows:
        return
    sol = solve(Mat(rows, cols=nunk), rhs)
    if sol is None:
        raise InternalCheckError("section lifting system is infeasible")
    for a, block in enumerate(blocks):
        for u, t in enumerate(block):
            _axpy(section[a], sol[offsets[a] + u], t)


def malcev_complement_graded(A: GradedAlgebra) -> Subspace:
    """A graded semisimple complement B with A = B (+) J(A).

    Start from the homogeneous standard-vector section of A -> A/J and repair
    multiplicativity modulo J, J^2, J^4, ... with `_lift_section`; every
    correction is homogeneous because J is graded, so B stays graded.
    """
    if A.kind != ASSOCIATIVE:
        raise ValidationError("complement construction applies to associative algebras")
    if A.unit is None:
        raise ValidationError("complement construction needs a unital algebra")
    J = jacobson_radical(A, verify=False)
    if J.is_zero():
        return Subspace.full(A.dim)
    q = quotient_algebra(A, J)
    section = [list(v) for v in q.section]
    jpow = J
    while not jpow.is_zero():
        jnext = A.product_span(jpow, jpow)
        _lift_section(A, q.algebra, section, jpow, jnext)
        jpow = jnext
    B = Subspace.from_vectors(A.dim, section)
    _verify_complement(A, B, J, q.algebra, section)
    return B


def _verify_complement(A, B, J, Q, section):
    if B.dim != Q.dim or not (B & J).is_zero() or (B + J).dim != A.dim:
        raise InternalCheckError("complement does not split the algebra")
    for a in range(Q.dim):
        for b in range(Q.dim):
            if list(A.multiply(section[a], section[b])) != _image(A, Q, section, a, b):
                raise InternalCheckError("complement section is not multiplicative")
    for v in B.basis_vectors():
        if A.degree_of(v) is None:
            raise InternalCheckError("complement is not graded")


def levi_graded(L: GradedAlgebra) -> Subspace:
    """A graded semisimple subalgebra B with L = B (+) R (solvable radical).

    Recurses along the derived series of R: quotient by [R, R] until the
    radical is abelian, then one exact homogeneous correction solve.
    """
    if L.kind != LIE:
        raise ValidationError("Levi decomposition applies to Lie algebras")
    R = solvable_radical(L, verify=False)
    B = _levi_rows(L, R)
    Bs = Subspace.from_vectors(L.dim, B)
    if Bs.dim != L.dim - R.dim or not (Bs & R).is_zero() or (Bs + R).dim != L.dim:
        raise InternalCheckError("Levi subalgebra does not complement the radical")
    if not L.is_subalgebra(Bs):
        raise InternalCheckError("Levi candidate is not closed under the bracket")
    ok = all(L.degree_of(v) is not None for v in Bs.basis_vectors())
    if not ok:
        raise InternalCheckError("Levi subalgebra is not graded")
    return Bs


def _levi_rows(L: GradedAlgebra, R: Subspace) -> list:
    if R.is_zero():
        return [list(unit_vector(L.dim, i)) for i in range(L.dim)]
    if R.dim == L.dim:
        return []
    DR = L.product_span(R, R)
    if not DR.is_zero():
        q = quotient_algebra(L, DR)
        M = q.algebra
        RM = solvable_radical(M, verify=False)
        rows_M = _levi_rows(M, RM)
        # preimage of the Levi part of M: a graded subalgebra with radical [R, R]
        pre = Subspace.from_vectors(
            L.dim, [q.lift(v) for v in rows_M] + list(DR.basis_vectors()))
        emb = algebra_on_subspace(L, pre, name="levi-preimage")
        inner_rows = _levi_rows(emb.algebra, solvable_radical(emb.algebra, verify=False))
        return [list(emb.include(v)) for v in inner_rows]
    # R abelian: one exact lift of the homogeneous section of L -> L/R
    q = quotient_algebra(L, R)
    section = [list(v) for v in q.section]
    _lift_section(L, q.algebra, section, R, Subspace.zero(L.dim))
    return section
