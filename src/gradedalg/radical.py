"""Radicals and their gradedness: Jacobson radical via the trace-form kernel,
solvable radical via Killing orthogonality, nilradical via the adjoint
associative envelope, plus the graded-closure verdicts.

All radical computations are plain exact linear algebra; over Q (char 0) the
trace criterion J = rad{(a,b) -> tr(L(ab))} on the unitalization is exact, and
the Killing-orthogonal complement of [L, L] is the solvable radical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (ASSOCIATIVE, LIE, GradedAlgebra, SubalgebraEmbedding,
                      graded_closure, nilpotency_index, quotient_algebra,
                      unitalize)
from .errors import InternalCheckError, ValidationError
from .exactlin import Mat, Reducer, Subspace, ZERO, kernel, unit_vector
from .groups import TrivialGroup


def graded_check(w: Subspace, A: GradedAlgebra):
    """(is_graded, witness): witness is a homogeneous projection of a basis
    vector that escapes w, present exactly when the check fails."""
    for v in w.basis_vectors():
        for _, p in A.homogeneous_components(v):
            if not w.contains(p):
                return False, p
    return True, None


def is_graded_subspace(w: Subspace, A: GradedAlgebra) -> bool:
    return graded_check(w, A)[0]


def _trace_form_radical(A: GradedAlgebra) -> Subspace:
    """Kernel of (a, b) -> tr(L(ab)) on the unitalization, pulled back to A."""
    if A.dim == 0:
        return Subspace.zero(0)
    B = A if A.unit is not None else unitalize(A)
    tvec = [B.trace_of_left_mult(unit_vector(B.dim, i)) for i in range(B.dim)]
    gram = [[sum((c * tvec[k] for k, c in B.structure[i][j]), ZERO) for j in range(B.dim)]
            for i in range(B.dim)]
    rad = kernel(Mat(gram, cols=B.dim))
    if B is A:
        return rad
    # intersect back with A = the span of the first dim(A) coordinates
    amb = Subspace.from_vectors(B.dim, [unit_vector(B.dim, i) for i in range(A.dim)])
    inter = rad & amb
    return Subspace.from_vectors(A.dim, [r[:A.dim] for r in inter.basis_vectors()])


def jacobson_radical(A: GradedAlgebra, verify: bool = True) -> Subspace:
    """Largest nilpotent two-sided ideal of an associative algebra over Q.

    With verify=True the result is post-checked: it is an ideal, it is
    nilpotent, and the quotient by it has zero radical again.
    """
    if A.kind != ASSOCIATIVE:
        raise ValidationError("Jacobson radical is for associative algebras")
    J = _trace_form_radical(A)
    if verify and A.dim > 0:
        if not A.is_ideal(J):
            raise InternalCheckError("radical candidate is not a two-sided ideal")
        if nilpotency_index(A, J) is None:
            raise InternalCheckError("radical candidate is not nilpotent")
        if not J.is_zero():
            ok, witness = graded_check(J, A)
            if not ok:
                raise InternalCheckError(f"radical is not graded; witness {witness}")
            q = quotient_algebra(A, J)
            if not _trace_form_radical(q.algebra).is_zero():
                raise InternalCheckError("quotient by the radical is not semisimple")
    return J


def killing_form(L: GradedAlgebra) -> Mat:
    """kappa(x, y) = tr(ad x . ad y) as a matrix over the basis."""
    if L.kind != LIE:
        raise ValidationError("Killing form is for Lie algebras")
    ads = [L.left_mult_matrix(unit_vector(L.dim, i)) for i in range(L.dim)]
    n = L.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            t = ZERO
            for a in range(n):
                for b in range(n):
                    t += ads[i].entry(a, b) * ads[j].entry(b, a)
            row.append(t)
        rows.append(row)
    return Mat(rows, cols=n)


def derived_series(L: GradedAlgebra, s: Subspace) -> list:
    """s, [s,s], [[s,s],[s,s]], ... down to the first repetition or zero."""
    out = [s]
    while not out[-1].is_zero():
        nxt = L.product_span(out[-1], out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def is_solvable(L: GradedAlgebra, s: Subspace) -> bool:
    return derived_series(L, s)[-1].is_zero()


def solvable_radical(L: GradedAlgebra, verify: bool = True) -> Subspace:
    """R = Killing-orthogonal complement of [L, L]; over Q this is the solvable
    radical (Cartan criterion)."""
    if L.kind != LIE:
        raise ValidationError("solvable radical is for Lie algebras")
    if L.dim == 0:
        return Subspace.zero(0)
    K = killing_form(L)
    derived = L.product_span(Subspace.full(L.dim), Subspace.full(L.dim))
    rows = [K.mul_vec(d) for d in derived.basis_vectors()]
    R = kernel(Mat(rows, cols=L.dim)) if rows else Subspace.full(L.dim)
    if verify:
        if not L.is_ideal(R):
            raise InternalCheckError("solvable radical candidate is not an ideal")
        if not is_solvable(L, R):
            raise InternalCheckError("solvable radical candidate is not solvable")
        if R.dim < L.dim:
            ok, witness = graded_check(R, L)
            if not ok:
                raise InternalCheckError(f"solvable radical is not graded; witness {witness}")
            q = quotient_algebra(L, R)
            if not solvable_radical(q.algebra, verify=False).is_zero():
                raise InternalCheckError("quotient by the solvable radical is not semisimple")
    return R


def adjoint_envelope(L: GradedAlgebra) -> SubalgebraEmbedding:
    """The associative subalgebra of End(L) generated by all ad x, presented as
    an abstract (trivially graded) algebra over the flattened matrix space."""
    if L.kind != LIE:
        raise ValidationError("adjoint envelope is for Lie algebras")
    n = L.dim
    mats = [L.left_mult_matrix(unit_vector(n, i)) for i in range(n)]
    amb = n * n
    flat = lambda M: tuple(M.entry(i, j) for i in range(n) for j in range(n))
    red = Reducer(amb)
    basis_mats = []
    work = []
    for M in mats:
        if red.insert(flat(M)):
            basis_mats.append(M)
            work.append(M)
    while work:
        M = work.pop()
        for B in list(basis_mats):
            for P in (M @ B, B @ M):
                if red.insert(flat(P)):
                    basis_mats.append(P)
                    work.append(P)
    span = red.subspace()
    # abstract associative algebra over the flattened ambient space
    triv = TrivialGroup()
    rows = span.basis_vectors()
    dim = len(rows)
    unflat = lambda r: Mat([r[i * n:(i + 1) * n] for i in range(n)], cols=n)
    row_mats = [unflat(r) for r in rows]
    structure = {}
    for a in range(dim):
        for b in range(dim):
            coords = span.coords(flat(row_mats[a] @ row_mats[b]))
            if coords is None:
                raise InternalCheckError("envelope span is not multiplicatively closed")
            structure.update({(a, b, k): c for k, c in enumerate(coords) if c != 0})
    degrees = [triv.identity()] * dim
    alg = GradedAlgebra(triv, degrees, structure, kind=ASSOCIATIVE, name="ad-envelope")
    return SubalgebraEmbedding(alg, tuple(rows))


def nilradical(L: GradedAlgebra, verify: bool = True) -> Subspace:
    """N = {x : ad x lies in the Jacobson radical of the adjoint envelope}."""
    if L.kind != LIE:
        raise ValidationError("nilradical is for Lie algebras")
    n = L.dim
    if n == 0:
        return Subspace.zero(0)
    env = adjoint_envelope(L)
    JE = jacobson_radical(env.algebra, verify=False)
    jmats = [env.include(r) for r in JE.basis_vectors()]    # flattened matrices
    admap_cols = []
    for i in range(n):
        M = L.left_mult_matrix(unit_vector(n, i))
        admap_cols.append(tuple(M.entry(a, b) for a in range(n) for b in range(n)))
    # x in N  iff  admap . x lies in span(jmats): kernel of [admap | -jmats]
    rows = []
    for r in range(n * n):
        rows.append([admap_cols[i][r] for i in range(n)] + [-jm[r] for jm in jmats])
    ker = kernel(Mat(rows, cols=n + len(jmats)))
    red = Reducer(n)
    for v in ker.basis_vectors():
        red.insert(v[:n])
    N = red.subspace()
    if verify:
        if not L.is_ideal(N):
            raise InternalCheckError("nilradical candidate is not an ideal")
        if nilpotency_index(L, N) is None:
            raise InternalCheckError("nilradical candidate is not nilpotent")
        if N.dim < L.dim:
            ok, witness = graded_check(N, L)
            if not ok:
                raise InternalCheckError(f"nilradical is not graded; witness {witness}")
    return N


@dataclass
class RadicalReport:
    kind: str                     # "jacobson" | "solvable" | "nilpotent"
    radical: Subspace
    graded: bool
    nilpotency: int | None        # power index when the radical is nilpotent
    witness: tuple | None = None  # non-graded witness projection, if any

    def summary(self) -> str:
        idx = "-" if self.nilpotency is None else str(self.nilpotency)
        return (f"{self.kind}: dim {self.radical.dim}, graded={self.graded}, "
                f"nilpotency index {idx}")


def graded_radical_report(A: GradedAlgebra) -> list[RadicalReport]:
    """Compute the relevant radicals, check gradedness and delta-closure
    stability, and for Lie algebras check [L, R] <= N. Raises with a witness
    if any structural guarantee fails."""
    reports = []
    if A.kind == ASSOCIATIVE:
        J = jacobson_radical(A, verify=False)
        ok, witness = graded_check(J, A)
        if graded_closure(J, A) != J:
            raise InternalCheckError("delta closure of the Jacobson radical moved it")
        reports.append(RadicalReport("jacobson", J, ok, nilpotency_index(A, J), witness))
        if not ok:
            raise InternalCheckError(f"Jacobson radical not graded; witness {witness}")
    else:
        R = solvable_radical(A, verify=False)
        N = nilradical(A, verify=False)
        okR, wR = graded_check(R, A)
        okN, wN = graded_check(N, A)
        if graded_closure(R, A) != R or graded_closure(N, A) != N:
            raise InternalCheckError("delta closure moved a Lie radical")
        if not N <= R:
            raise InternalCheckError("nilradical is not inside the solvable radical")
        if not A.product_span(Subspace.full(A.dim), R) <= N:
            raise InternalCheckError("[L, R] escapes the nilradical")
        reports.append(RadicalReport("solvable", R, okR, nilpotency_index(A, R), wR))
        reports.append(RadicalReport("nilpotent", N, okN, nilpotency_index(A, N), wN))
        if not (okR and okN):
            raise InternalCheckError(f"Lie radical not graded; witnesses {wR} {wN}")
    return reports
