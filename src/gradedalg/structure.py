"""Graded structure theory: decomposition of semisimple algebras into graded-
simple ideals, graded semisimple complements to the Jacobson radical, and
graded Levi decompositions.

No polynomial factorization anywhere. The semisimple decomposition descends on
graded ideals generated by single homogeneous elements and splits with
two-sided annihilator complements. Every closure in the descent is bounded by
the ideal it lies in and stops once it fills it, and each piece is descended
once. The post-check first checks that every component is an ideal, then
relies on such bounded closures.

The Mal'cev complement (I = J, the Jacobson radical) and the Levi subalgebra
(I = R, the solvable radical) are one routine, `_graded_complement`. It takes
the homogeneous standard-vector section s of A -> A/I and corrects it along
I = I_0 >= I_1 >= ..., I_{k+1} = I_k . I_k: J, J^2, J^4, ... for Mal'cev, the
derived series of R for Levi. Step k (`_lift_section`) adds t_a in I_k so that
s is multiplicative modulo I_{k+1}. As s is multiplicative modulo I_k and
I_k . I_k = I_{k+1}, the s_a make I_k / I_{k+1} a bimodule (Lie: a module) of
the semisimple A/I, and the defect of s is a 2-cocycle there. It is a
coboundary, so step k is solvable: by the Wedderburn-Mal'cev theorem
(Hochschild H^2 = 0) for associative A/I, by Whitehead's second lemma for Lie
A/I. The chain reaches zero because I is nilpotent or solvable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ASSOCIATIVE, LIE, GradedAlgebra, quotient_algebra
from .errors import InternalCheckError, NotSemisimpleError, ValidationError
from .exactlin import Mat, ONE, Subspace, ZERO, axpy, is_zero_vector, kernel, solve
from .radical import jacobson_radical, solvable_radical

# Seed of the random homogeneous candidates, and how many of them to draw per
# degree, in the graded-simple descent; fixed so decompositions reproduce.
_CANDIDATE_SEED = 20240901
_EXTRA_CANDIDATES = 4


@dataclass
class GradedDecomposition:
    kind: str                     # "wedderburn_artin" | "malcev" | "levi"
    components: list

    def dims(self) -> list:
        return [c.dim for c in self.components]


def _homogeneous_candidates(A: GradedAlgebra, piece: Subspace, rng):
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
        for _ in range(_EXTRA_CANDIDATES):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in vecs]
            w = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(A.dim))
            if not is_zero_vector(w) and w not in seen:
                seen.add(w)
                out.append(w)
    return out


def _minimal_graded_ideal(A: GradedAlgebra, piece: Subspace, rng) -> Subspace:
    """Descend from the piece, a graded ideal, through graded ideals generated
    by single homogeneous elements until no candidate generates anything
    smaller. Each closure is bounded by the current ideal, so it stops once it
    fills it."""
    current = piece
    while True:
        best = None
        for x in _homogeneous_candidates(A, current, rng):
            ide = A.ideal_generated([x], within=current)
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


def wedderburn_artin_graded(A: GradedAlgebra) -> GradedDecomposition:
    """Decompose a semisimple unital algebra into graded-simple ideals.

    Splitting is descent + annihilator complement. Each piece is descended
    once: the minimal ideal the descent returns is final, and only its
    annihilator complement goes back on the stack. Each returned component is
    re-verified: dims add up, pairwise products vanish, it is a two-sided
    ideal, and every candidate homogeneous element lies in it and generates
    all of it (a closure bounded by the component).
    """
    if A.kind != ASSOCIATIVE:
        raise ValidationError("decomposition applies to associative algebras")
    if A.dim == 0:
        return GradedDecomposition("wedderburn_artin", [])
    if A.unit is None:
        raise ValidationError("decomposition needs a unital algebra")
    if not jacobson_radical(A, verify=False).is_zero():
        raise NotSemisimpleError("algebra has a nonzero radical")
    rng = random.Random(_CANDIDATE_SEED)
    final = []
    stack = [Subspace.full(A.dim)]
    while stack:
        piece = stack.pop()
        minimal = _minimal_graded_ideal(A, piece, rng)
        final.append(minimal)
        if minimal.dim == piece.dim:
            continue
        rest = annihilator_within(A, piece, minimal)
        if minimal.dim + rest.dim != piece.dim or not (minimal & rest).is_zero():
            raise InternalCheckError("annihilator complement does not split the piece")
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
        if not A.is_ideal(c):
            raise InternalCheckError("component is not a two-sided ideal")
        for x in _homogeneous_candidates(A, c, rng):
            if not c.contains(x):
                raise InternalCheckError("component is not graded")
            if A.ideal_generated([x], within=c) != c:
                raise InternalCheckError(
                    "component is not graded-simple: a homogeneous element generates a proper ideal")
    return GradedDecomposition("wedderburn_artin", final)


def _image(A: GradedAlgebra, Q: GradedAlgebra, section, a: int, b: int) -> list:
    """sum_k mu^k_ab s_k: the product of quotient basis vectors a, b carried
    back along the section."""
    out = [ZERO] * A.dim
    for k, mu in Q.structure[a][b]:
        axpy(out, mu, section[k])
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
                axpy(cols[offsets[b] + u], ONE, A.multiply(sa, t))
            for u, t in enumerate(blocks[a]):
                axpy(cols[offsets[a] + u], ONE, A.multiply(t, sb))
            for k, mu in Q.structure[a][b]:
                for u, t in enumerate(blocks[k]):
                    axpy(cols[offsets[k] + u], -mu, t)
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
            axpy(section[a], sol[offsets[a] + u], t)


def _graded_complement(A: GradedAlgebra, I: Subspace) -> Subspace:
    """A graded subalgebra B with A = B (+) I, for a graded ideal I that is
    nilpotent (associative A) or solvable (Lie A) with A/I semisimple.

    Lifts the standard-vector section of A -> A/I along I, I.I, (I.I).(I.I),
    ... with `_lift_section` (see the module docstring for why each step is
    solvable); every correction is homogeneous because each I_k is graded.
    """
    if I.is_zero():
        return Subspace.full(A.dim)
    q = quotient_algebra(A, I)
    section = [list(v) for v in q.section]
    power = I
    while not power.is_zero():
        below = A.product_span(power, power)
        if below == power:
            raise InternalCheckError("ideal is not solvable: I_k . I_k = I_k != 0")
        _lift_section(A, q.algebra, section, power, below)
        power = below
    B = Subspace.from_vectors(A.dim, section)
    _verify_complement(A, B, I, q.algebra, section)
    return B


def _verify_complement(A, B, I, Q, section):
    if B.dim != Q.dim or not (B & I).is_zero() or (B + I).dim != A.dim:
        raise InternalCheckError("complement does not split the algebra")
    for a in range(Q.dim):
        for b in range(Q.dim):
            if list(A.multiply(section[a], section[b])) != _image(A, Q, section, a, b):
                raise InternalCheckError("complement section is not multiplicative")
    for v in B.basis_vectors():
        if A.degree_of(v) is None:
            raise InternalCheckError("complement is not graded")


def _unital_radical(A: GradedAlgebra) -> Subspace:
    """J(A), behind the guards of the Mal'cev complement."""
    if A.kind != ASSOCIATIVE:
        raise ValidationError("complement construction applies to associative algebras")
    if A.unit is None:
        raise ValidationError("complement construction needs a unital algebra")
    return jacobson_radical(A, verify=False)


def _lie_radical(L: GradedAlgebra) -> Subspace:
    """The solvable radical, behind the guard of the Levi subalgebra."""
    if L.kind != LIE:
        raise ValidationError("Levi decomposition applies to Lie algebras")
    return solvable_radical(L, verify=False)


def malcev_complement_graded(A: GradedAlgebra) -> Subspace:
    """A graded semisimple complement B with A = B (+) J(A), a subalgebra."""
    return _graded_complement(A, _unital_radical(A))


def levi_graded(L: GradedAlgebra) -> Subspace:
    """A graded semisimple subalgebra B with L = B (+) R (solvable radical)."""
    return _graded_complement(L, _lie_radical(L))


def _decomposition(kind: str, A: GradedAlgebra, I: Subspace) -> GradedDecomposition:
    """Complement and ideal packaged as one decomposition record."""
    parts = [p for p in (_graded_complement(A, I), I) if not p.is_zero()]
    return GradedDecomposition(kind, parts)


def malcev_decomposition(A: GradedAlgebra) -> GradedDecomposition:
    return _decomposition("malcev", A, _unital_radical(A))


def levi_decomposition(L: GradedAlgebra) -> GradedDecomposition:
    return _decomposition("levi", L, _lie_radical(L))
