"""Radicals and their gradedness: Jacobson radical via the trace-form kernel,
solvable radical via Killing orthogonality, nilradical as the kernel of
tr(ad x . y) over the span of ad-words, plus one gradedness verdict per
radical (`graded_check` of the algebra layer, which carries a witness).

All radical computations are plain exact linear algebra; over Q (char 0) the
trace criterion J = rad{(a,b) -> tr(L(ab))} is exact, on A itself also when
A has no unit (see `_trace_form_radical`); the Killing-orthogonal complement
of [L, L] is the solvable radical, and the nilradical {x : ad x in J(E)}, E
the span of the nonempty ad-words, is {x : tr(ad x . y) = 0 for all y in E},
since J(E) is the radical of the trace form of E (see `nilradical`). With
verify=True each radical runs the same post-checks (`_post_check`).

Every radical is the `null_space` of sparse rows read off the nonempty rows of
the table `structure`, each a sparse dict {k: c}, one Reducer and no dense
matrix (`_trace_form_radical` for the trace form's rows), so the cost follows
the nonzero constants. The Lie radicals pair with ad operators held as sparse
dicts over the n^2 matrix cells (`_ad_operators`). The pairing, one sparse
dict {i: c_ij^k} per cell, is a linear map: applied to y
(`exactlin.apply_operator`) it gives tr(ad e_i . y) for every i, and so serves
the Killing form, the solvable radical (y = ad d, d over [L, L]) and the
nilradical (y over the ad-word span). That one `null_space` call per radical
is also where a test can hand a radical a wrong candidate. The ad-word span
is a `span_closure`, and `derived_series` an `algebra.product_chain`, so the
solvability post-check ends within dim + 2 terms on any candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (ASSOCIATIVE, LIE, GradedAlgebra, _quotient, graded_check,
                      nilpotency_index, product_chain)
from .errors import InternalCheckError, ValidationError
from .exactlin import Subspace, apply_operator, dense, null_space, span_closure


def _post_check(A: GradedAlgebra, I: Subspace, name: str, trait: str, quotient_radical=None):
    """The verify=True checks of a radical I: it is nilpotent or solvable
    (`trait`); and when 0 < I < A (0 and A are always graded ideals) it is an
    ideal, it is graded, and, given `quotient_radical`, A/I has zero radical.
    Those two checks are the input checks of `quotient_algebra`, so the
    quotient is built without repeating them."""
    holds = (derived_series(A, I)[-1].is_zero() if trait == "solvable"
             else nilpotency_index(A, I) is not None)
    if not holds:
        raise InternalCheckError(f"{name} candidate is not {trait}")
    if I.is_zero() or I.dim == A.dim:
        return
    if not A.is_ideal(I):
        raise InternalCheckError(f"{name} candidate is not an ideal")
    ok, witness = graded_check(I, A)
    if not ok:
        raise InternalCheckError(f"{name} is not graded; witness {witness}")
    if quotient_radical and not quotient_radical(_quotient(A, I).algebra).is_zero():
        raise InternalCheckError(f"quotient by the {name} is not semisimple")


def _trace_form_radical(A: GradedAlgebra) -> Subspace:
    """Kernel of the trace form (a, b) -> tr(L(ab)) of A itself, also for a
    non-unital A, where J(A) is J(A (+) Q.1) ^ A. For x in A, L(x) sends 1 to
    x, off the diagonal, so its trace on A (+) Q.1 is its trace on A. The one
    extra pairing, (x, 1) -> tr(L(x)), vanishes on the kernel anyway: there
    tr(L(x)^k) = tr(L(x . x^(k-1))) = 0 for k >= 2, so L(x) is nilpotent.

    The Gram rows are read off the nonempty rows of `structure`:
    G_ij = sum_k c_ij^k T_k with the traces T_k = tr L(e_k). T_k = 0 for e_k
    of degree other than e, so G_ij can be nonzero only when
    deg e_i deg e_j = e: each row is sparse."""
    traces = A.left_mult_traces
    rows = []
    for plane in A.structure:
        row = {}
        for j, terms in plane.items():
            g = sum(c * traces[k] for k, c in terms.items())
            if g:
                row[j] = g
        if row:
            rows.append(row)
    return null_space(A.dim, rows)


def jacobson_radical(A: GradedAlgebra, verify: bool = True) -> Subspace:
    """Largest nilpotent two-sided ideal of an associative algebra over Q, the
    trace-form radical, with no unit adjoined to a non-unital A.

    With verify=True the result is post-checked: it is nilpotent, and when
    proper and nonzero it is a graded ideal whose quotient has zero radical.
    """
    if A.kind != ASSOCIATIVE:
        raise ValidationError("Jacobson radical is for associative algebras")
    J = _trace_form_radical(A)
    if verify:
        _post_check(A, J, "Jacobson radical", "nilpotent", _trace_form_radical)
    return J


def _ad_operators(L: GradedAlgebra) -> tuple:
    """(ad, pairing) from the table `structure`. ad = {i: ad e_i}, the map
    x -> ad x, each ad e_i a sparse dict over the n^2 cells: cell k n + j
    holds c_ij^k, the coefficient of e_k in [e_i, e_j]. pairing[j n + k] is
    the sparse {i: c_ij^k}, as tr(ad e_i . y) = sum over j, k of
    c_ij^k y[j][k]: for y sparse over the cells, `apply_operator(pairing, y)`
    is the trace row {i: tr(ad e_i . y)}, at the cost of the constants that
    meet y's support."""
    n = L.dim
    ad: dict = {i: {} for i in range(n)}
    pairing: dict = {}
    for i, plane in enumerate(L.structure):
        for j, terms in plane.items():
            for k, c in terms.items():
                ad[i][k * n + j] = c
                pairing.setdefault(j * n + k, {})[i] = c
    return ad, pairing


def killing_form(L: GradedAlgebra) -> tuple:
    """kappa(x, y) = tr(ad x . ad y) over the basis, as row tuples: row j is
    the trace row of ad e_j (`_ad_operators`), as dense Fractions."""
    if L.kind != LIE:
        raise ValidationError("Killing form is for Lie algebras")
    ad, pairing = _ad_operators(L)
    return tuple(tuple(dense(apply_operator(pairing, a), L.dim)) for a in ad.values())


def derived_series(L: GradedAlgebra, s: Subspace) -> list:
    """s, [s,s], [[s,s],[s,s]], ... (s, s^2, s^4, ... for an associative s),
    a `product_chain`; the series of an ideal shrinks until 0 or a repeat,
    so only a subspace that is not an ideal meets its bound."""
    return product_chain(L, s, lambda t: L.product_span(t, t))


def solvable_radical(L: GradedAlgebra, verify: bool = True) -> Subspace:
    """R = Killing-orthogonal complement of [L, L]; over Q this is the solvable
    radical (Cartan criterion). x is in R iff tr(ad x . ad d) = 0 for d over
    the sparse basis rows of [L, L]: one trace row of ad d per d, with
    no Killing matrix built."""
    if L.kind != LIE:
        raise ValidationError("solvable radical is for Lie algebras")
    ad, pairing = _ad_operators(L)
    derived = L.product_span(Subspace.full(L.dim), Subspace.full(L.dim))
    R = null_space(L.dim, [apply_operator(pairing, apply_operator(ad, d))
                           for d in derived.pivot_rows.values()])
    if verify:
        _post_check(L, R, "solvable radical", "solvable",
                    lambda Q: solvable_radical(Q, verify=False))
    return R


def _ad_word_span(n: int, ad: dict) -> list:
    """The sparse RREF rows of E = the span of all nonempty ad-words
    ad x_i1 ... ad x_ik (the associative subalgebra of End(L) the ad x
    generate), as sparse dicts over the n^2 cells: the span of the ad x_i
    closed (`span_closure`) by multiplying each new basis row y on the
    left by each ad x_i, with (ad x_i . y)[k][m] = sum over j of
    ad x_i[k][j] y[j][m]. `ad` is the map {i: ad x_i} of `_ad_operators`."""
    def images(y):
        by_row: dict = {}           # row j of y as [(m, y[j][m]), ...]
        for cell, v in y.items():
            j, m = divmod(cell, n)
            by_row.setdefault(j, []).append((m, v))
        for a in ad.values():
            p: dict = {}
            for cell, c in a.items():
                k, j = divmod(cell, n)
                for m, v in by_row.get(j, ()):
                    p[k * n + m] = p.get(k * n + m, 0) + c * v
            yield p
    return list(span_closure(n * n, ad.values(), images).pivot_rows.values())


def nilradical(L: GradedAlgebra, verify: bool = True) -> Subspace:
    """N = {x : ad x in J(E)}, E the span of the nonempty ad-words, computed as
    the kernel of tr(ad x . y) over the span of ad-words: x is in N iff
    tr(ad x . y) = 0 for every y in E.

    Over Q, J(E) = T = {y in E : tr(yz) = 0 for all z in E}. T is an ideal of
    E (the trace is cyclic); each y in T has tr(y^k) = 0 for k >= 2, so y is
    nilpotent, and a nil ideal is nilpotent, so T <= J(E). Conversely J(E) E
    consists of nilpotents, whose traces vanish, so J(E) <= T.
    """
    if L.kind != LIE:
        raise ValidationError("nilradical is for Lie algebras")
    n = L.dim
    ad, pairing = _ad_operators(L)
    N = null_space(n, [apply_operator(pairing, y) for y in _ad_word_span(n, ad)])
    if verify:
        _post_check(L, N, "nilradical", "nilpotent")
    return N


@dataclass
class RadicalReport:
    kind: str                     # "jacobson" | "solvable" | "nilpotent"
    radical: Subspace
    nilpotency: int | None        # power index when the radical is nilpotent
    graded = True                 # `graded_radical_report` raises on one that is not

    def summary(self) -> str:
        idx = "-" if self.nilpotency is None else str(self.nilpotency)
        return (f"{self.kind}: dim {self.radical.dim}, graded={self.graded}, "
                f"nilpotency index {idx}")


def graded_radical_report(A: GradedAlgebra) -> list[RadicalReport]:
    """Compute the relevant radicals, check that each is graded, and for Lie
    algebras check N <= R and [L, R] <= N. Raises with a witness if any
    structural guarantee fails.

    One `graded_check` per radical also settles delta-closure: for a group
    grading, w is graded iff it holds the homogeneous projections of its
    basis, iff w equals its graded closure, i.e. graded and delta-closed
    coincide."""
    if A.kind == ASSOCIATIVE:
        radicals = [("Jacobson radical", "jacobson", jacobson_radical(A, verify=False))]
    else:
        R = solvable_radical(A, verify=False)
        N = nilradical(A, verify=False)
        radicals = [("solvable radical", "solvable", R), ("nilradical", "nilpotent", N)]
    for name, _, I in radicals:
        ok, witness = graded_check(I, A)
        if not ok:
            raise InternalCheckError(f"{name} not graded; witness {witness}")
    if A.kind != ASSOCIATIVE:
        if not N <= R:
            raise InternalCheckError("nilradical is not inside the solvable radical")
        if not A.product_span(Subspace.full(A.dim), R) <= N:
            raise InternalCheckError("[L, R] escapes the nilradical")
    return [RadicalReport(kind, I, nilpotency_index(A, I)) for _, kind, I in radicals]
