"""Graded structure theory: decomposition of semisimple algebras into graded-
simple ideals, graded semisimple complements to the Jacobson radical, and
graded Levi decompositions.

The semisimple decomposition runs through the degree-e centre C = Z(A) ^ A_e,
one null space of sparse rows read off the nonempty rows e_i e_b and e_b e_i
of `structure` and its `transpose`. Every graded ideal of a graded semisimple
unital A is A.f for a central idempotent f of degree e, so the graded-simple
components are the A.f for the primitive idempotents f of the commutative
semisimple C. A piece A.f is final when C.f = C ^ A.f is Q f,
or Q[c] for a c whose minimal polynomial has degree <= 3 and no rational
root, so is irreducible and C.f a field.
Otherwise a rational root l of the minimal polynomial m = (x - l) q of some c
in C.f gives the idempotent f' = q(c) / q(l), and A.f = A.f' (+) A.(f - f').
Nothing beyond this rational-root test is factored: such a piece is refused.
Idempotents and powers are sparse dicts; C.f (`_times`) and A.f, the span of
the images e_j f, are read off the right operator of f. The final f_i certify
the components: they are nonzero idempotents in C that sum to 1, so
orthogonal in the commutative semisimple C, and a central f of degree e makes
A.f = f.A a graded ideal, so A = (+) A.f_i with A.f_i . A.f_j = 0.

The Mal'cev complement (I = J, the Jacobson radical) and the Levi subalgebra
(I = R, the solvable radical) are one routine, `graded_complement`. It takes
the homogeneous standard-vector section s of A -> A/I and corrects it along
I = I_0 >= I_1 >= ..., I_{k+1} = I_k . I_k: J, J^2, J^4, ... for Mal'cev, the
derived series of R for Levi. Step k (`_lift_section`) adds t_a in I_k so that
s is multiplicative modulo I_{k+1}. As s is multiplicative modulo I_k and
I_k . I_k = I_{k+1}, the s_a make I_k / I_{k+1} a bimodule (Lie: a module) of
the semisimple A/I, and the defect of s is a 2-cocycle there. It is a
coboundary, so step k is solvable: by the Wedderburn-Mal'cev theorem
(Hochschild H^2 = 0) for associative A/I, by Whitehead's second lemma for Lie
A/I. The chain reaches zero because I is nilpotent or solvable. The section
is sparse, and each step is one sparse elimination (`solve_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import ASSOCIATIVE, LIE, GradedAlgebra, graded_check, quotient_algebra
from .errors import InternalCheckError, NotSemisimpleError, ValidationError
from .exactlin import (ONE, Reducer, Subspace, ZERO, apply_operator, axpy, div,
                       null_space, solve_rows, sparse)
from .radical import derived_series, jacobson_radical, solvable_radical


@dataclass
class GradedDecomposition:
    components: list

    def dims(self) -> list:
        return [c.dim for c in self.components]


def _degree_e_centre(A: GradedAlgebra) -> Subspace:
    """C = Z(A) ^ A_e: the degree-e vectors z with z e_b = e_b z for every b,
    the null space of sparse rows: one row e_i per basis vector of degree
    other than e, and for each (b, k) the coefficient of e_k in
    e_i e_b - e_b e_i over the degree-e e_i, read off the nonempty rows of
    plane i of `structure` (e_i e_b) and of `transpose` (e_b e_i)."""
    e = A.group.identity()
    rows = {i: {i: 1} for i in range(A.dim) if A.degrees[i] != e}
    for i in A.component_indices(e):
        for plane, sign in ((A.structure[i], 1), (A.transpose[i], -1)):
            for b, terms in plane.items():
                for k, c in terms.items():
                    row = rows.setdefault((b, k), {})
                    row[i] = row.get(i, 0) + sign * c
    return null_space(A.dim, rows.values())


def _minimal_polynomial(A: GradedAlgebra, f: dict, c: dict):
    """(m, powers): the monic minimal polynomial m of the sparse c in the
    algebra with unit f, constant term first, and the sparse powers f, c,
    ..., c^(deg m - 1), so that sum_t q_t powers[t] = q(c) for deg q < deg m.
    m's lower coefficients solve sum_t x_t powers[t] = c^(deg m), one sparse
    equation per coordinate."""
    powers, red, p = [f], Reducer(A.dim, [f]), c
    while red.insert(p) is not None:
        powers.append(p)
        p = A.mul_sparse(p, c)
    eqs: dict = {}
    for t, v in enumerate(powers + [p]):
        for i, x in v.items():
            eqs.setdefault(i, {})[t] = x
    return [-a for a in solve_rows(len(powers), eqs.values())] + [ONE], powers


def _divide(m, r):
    """(q, m(r)) with m = (x - r) q + m(r), coefficients constant term first."""
    acc, b = ZERO, []
    for a in reversed(m):
        acc = acc * r + a
        b.append(acc)
    return b[-2::-1], b[-1]


def _value(p, x: int) -> int:
    """p(x) for an integer polynomial p, constant term first."""
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _root_cover(p) -> set:
    """Integers k with every real root of the integer polynomial p (constant
    term first, nonzero leading term) in some [k, k + 1]. Between the marks
    k and k + 1 of the derivative's cover, p is strictly monotone, so one
    exact integer bisection per sign change finds the rest; the derivative's
    marks are kept, as p may have roots next to them. The Cauchy bound puts
    every root strictly inside +-bound."""
    if len(p) < 2:
        return set()
    cover = _root_cover([i * a for i, a in enumerate(p)][1:])
    bound = 2 + max(abs(a) for a in p[:-1]) // abs(p[-1])
    marks = sorted(cover | {k + 1 for k in cover} | {-bound, bound})
    found = set(cover)
    for lo, hi in zip(marks, marks[1:]):
        v = _value(p, lo)
        if v == 0:
            found.add(lo)
        elif v * _value(p, hi) < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _value(p, mid) * v > 0:
                    lo = mid
                else:
                    hi = mid
            found.add(lo)
    return found


def _rational_root(m):
    """A rational root of the monic m (constant term first), or None. With L
    the lcm of m's denominators and d = deg m, y = L x turns m into the
    monic integer sum_i m_i L^(d - i) y^i, whose rational roots are integers
    next to its root cover. Of several roots, the first in the order 0,
    least |numerator|, least denominator, positive first, is returned."""
    scale = lcm(*(a.denominator for a in m))
    d = len(m) - 1
    p = [int(a * scale ** (d - i)) for i, a in enumerate(m)]
    cover = _root_cover(p)
    roots = [Fraction(y, scale) for y in cover | {k + 1 for k in cover} if _value(p, y) == 0]
    return min(roots, key=lambda r: (r != 0, abs(r.numerator), r.denominator, r < 0),
               default=None)


def _times(A: GradedAlgebra, S: Subspace, f: dict) -> Subspace:
    """S.f: the span of v f over the RREF basis rows v of S, each applied to
    the right operator {j: e_j f} of f, built once: a vanishing v f never
    reaches the Reducer."""
    right = A.operator(f, A.transpose)
    products = (apply_operator(right, v) for v in S.pivot_rows.values())
    return Subspace.from_vectors(A.dim, [p for p in products if p])


def _split(A: GradedAlgebra, cf: Subspace, f: dict):
    """Two orthogonal idempotents of cf = C.f summing to the central idempotent
    f, all sparse, or None when A.f is graded-simple (C.f = Q f, or a field).
    Each half h has C.h < C.f: the other half is in C.f and kills C.h."""
    if cf.dim == 1:
        return None
    for c in (cf.pivot_rows[p] for p in cf.pivots):
        m, powers = _minimal_polynomial(A, f, c)
        root = _rational_root(m) if len(m) > 2 else None
        if root is not None:
            q, _ = _divide(m, root)
            scale = _divide(q, root)[1]
            half: dict = {}
            for a, v in zip(q, powers):
                if a:
                    axpy(half, div(a, scale), v)
            rest = dict(f)
            axpy(rest, -ONE, half)
            return half, rest
        if len(m) - 1 == cf.dim <= 3:
            return None
    raise ValidationError(
        f"graded-simple split needs factoring over Q: no basis element of a {cf.dim}-dim "
        f"degree-e centre has a rational eigenvalue, and fields are certified to degree 3")


def wedderburn_artin_graded(A: GradedAlgebra) -> GradedDecomposition:
    """Decompose a semisimple unital algebra into graded-simple ideals: the
    unique minimal graded ideals A.f, f primitive in the degree-e centre, in
    canonical order, post-checked by the module docstring's certificate and
    the dims. Raises ValidationError when a piece needs factoring over Q.
    A piece is split again only when its C.f is smaller than its parent's,
    else InternalCheckError, so the loop ends; final pieces are certified."""
    if A.kind != ASSOCIATIVE:
        raise ValidationError("decomposition applies to associative algebras")
    if A.dim == 0:
        return GradedDecomposition([])
    if A.unit is None:
        raise ValidationError("decomposition needs a unital algebra")
    if not jacobson_radical(A, verify=False).is_zero():
        raise NotSemisimpleError("algebra has a nonzero radical")
    centre = _degree_e_centre(A)
    idempotents, stack, total = [], [(sparse(A.unit), centre, centre.dim + 1)], {}   # C.1 = C
    while stack:
        f, cf, bound = stack.pop()
        halves = _split(A, cf, f)
        if halves is not None:
            if cf.dim >= bound:
                raise InternalCheckError("a split piece's C.f is no smaller than its parent's")
            stack += [(h, _times(A, cf, h), cf.dim) for h in halves]    # C.h = (C.f).h
        elif not (f and centre.contains(f) and A.mul_sparse(f, f) == f):
            raise InternalCheckError("component idempotent is not a nonzero idempotent of C")
        else:
            idempotents.append(f)
            axpy(total, ONE, f)
    if total != sparse(A.unit):
        raise InternalCheckError("component idempotents do not sum to the unit")
    final = sorted((Subspace.from_vectors(A.dim, A.operator(f, A.transpose).values())
                    for f in idempotents),
                   key=lambda s: (s.dim, s.basis_vectors()))
    if sum(c.dim for c in final) != A.dim:
        raise InternalCheckError("component dimensions do not add up")
    return GradedDecomposition(final)


def _image(Q: GradedAlgebra, section: list, a: int, b: int) -> dict:
    """sum_k mu^k_ab s_k: the product of quotient basis vectors a, b carried
    back along the sparse section."""
    out: dict = {}
    for k, mu in Q.structure[a].get(b, {}).items():
        axpy(out, mu, section[k])
    return out


def _lift_section(A: GradedAlgebra, Q: GradedAlgebra, section: list,
                  ideal: Subspace, below: Subspace):
    """Correct the homogeneous section of A -> Q, sparse dicts, in place by
    t_a in the ideal.

    Solves s_a t_b + t_a s_b - sum_k mu^k_ab t_k = -defect_ab modulo `below`
    with t_a in ideal ^ A_{deg a}, where defect_ab = s_a s_b - sum_k mu^k_ab s_k
    and mu are the structure constants of Q. The dropped terms t_a t_b must lie
    in `below`. The ideal is graded (`quotient_algebra` refuses one that is
    not, and each I_k is a product span of graded subspaces), so its RREF
    rows are homogeneous and the block of unknowns of degree g is read off
    the rows whose pivot has degree g. The products are `mul_sparse` on the
    sparse rows; only the nonzero columns of each (a, b) pass through
    `below.residual`, and each nonzero coordinate of the reduced columns and
    right-hand side is one equation of one Reducer. The correction is its
    echelon solution (free variables zero), hence deterministic.
    """
    by_degree: dict = {}
    for p in ideal.pivots:
        by_degree.setdefault(A.degrees[p], []).append(ideal.pivot_rows[p])
    blocks = []
    offsets = []
    nunk = 0
    for g in Q.degrees:
        blocks.append(by_degree.get(g, []))
        offsets.append(nunk)
        nunk += len(blocks[-1])
    rows = []
    for a, sa in enumerate(section):
        for b, sb in enumerate(section):
            cols: dict = {}
            for u, t in enumerate(blocks[b]):
                axpy(cols.setdefault(offsets[b] + u, {}), ONE, A.mul_sparse(sa, t))
            for u, t in enumerate(blocks[a]):
                axpy(cols.setdefault(offsets[a] + u, {}), ONE, A.mul_sparse(t, sb))
            for k, mu in Q.structure[a].get(b, {}).items():
                for u, t in enumerate(blocks[k]):
                    axpy(cols.setdefault(offsets[k] + u, {}), -mu, t)
            # -defect_ab = sum_k mu^k_ab s_k - s_a s_b
            neg_defect = _image(Q, section, a, b)
            axpy(neg_defect, -ONE, A.mul_sparse(sa, sb))
            eqs: dict = {}
            for x, col in cols.items():
                if col:
                    for i, c in below.residual(col).items():
                        eqs.setdefault(i, {})[x] = c
            for i, c in below.residual(neg_defect).items():
                eqs.setdefault(i, {})[nunk] = c
            rows += eqs.values()
    sol = solve_rows(nunk, rows)
    if sol is None:
        # I is a graded nilpotent (solvable) ideal here, so every step is
        # solvable when A/I is semisimple (module docstring)
        raise InternalCheckError("quotient by the ideal is not semisimple: "
                                 "the section lifting system is infeasible")
    for a, block in enumerate(blocks):
        for u, t in enumerate(block):
            x = sol[offsets[a] + u]
            if x:
                axpy(section[a], x, t)


def graded_complement(A: GradedAlgebra, I: Subspace) -> Subspace:
    """A graded subalgebra B with A = B (+) I, for a graded ideal I that is
    nilpotent (unital associative A) or solvable (Lie A) with A/I semisimple:
    J(A) or the solvable radical, for a caller that already holds it.

    Lifts the standard-vector section of A -> A/I along I, I.I, (I.I).(I.I),
    ... (`derived_series`, which ends at 0 unless I is not solvable) with
    `_lift_section` (see the module docstring for why each step is solvable);
    every correction is homogeneous because each I_k is graded.

    `quotient_algebra` tests that I is a graded ideal and the derived series
    that it is nilpotent (solvable), once each; that A/I, isomorphic to B, is
    semisimple is left to a caller that needs it (`cli decompose`).
    """
    if A.kind == ASSOCIATIVE and A.unit is None:
        raise ValidationError("complement construction needs a unital algebra")
    if I.is_zero():
        return Subspace.full(A.dim)
    q = quotient_algebra(A, I)
    section = [{i: ONE} for i in q.indices]
    series = derived_series(A, I)
    if not series[-1].is_zero():
        raise InternalCheckError("ideal is not solvable: I_k . I_k = I_k != 0")
    for power, below in zip(series, series[1:]):
        _lift_section(A, q.algebra, section, power, below)
    B = Subspace.from_vectors(A.dim, section)
    _verify_complement(A, B, I, q.algebra, section)
    return B


def _verify_complement(A, B, I, Q, section):
    # B.dim = Q.dim = A.dim - I.dim, so B + I = A forces B ^ I = 0
    if B.dim != Q.dim or (B + I).dim != A.dim:
        raise InternalCheckError("complement does not split the algebra")
    for a in range(Q.dim):
        for b in range(Q.dim):
            if A.mul_sparse(section[a], section[b]) != _image(Q, section, a, b):
                raise InternalCheckError("complement section is not multiplicative")
    if not graded_check(B, A)[0]:
        raise InternalCheckError("complement is not graded")


def malcev_complement_graded(A: GradedAlgebra) -> Subspace:
    """A graded semisimple complement B with A = B (+) J(A), a subalgebra."""
    if A.kind != ASSOCIATIVE:
        raise ValidationError("complement construction applies to associative algebras")
    return graded_complement(A, jacobson_radical(A, verify=False))


def levi_graded(L: GradedAlgebra) -> Subspace:
    """A graded semisimple subalgebra B with L = B (+) R (solvable radical)."""
    if L.kind != LIE:
        raise ValidationError("Levi decomposition applies to Lie algebras")
    return graded_complement(L, solvable_radical(L, verify=False))
