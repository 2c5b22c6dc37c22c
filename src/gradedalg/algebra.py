"""Finite-dimensional group-graded algebras over Q via structure constants.

A `GradedAlgebra` is built from a mapping {(i, j, k): c}: the product of
basis vectors i and j has coefficient c on basis vector k, and absent triples
are zero. It keeps only the sparse table `structure[i][j] = ((k, c), ...)`
over the nonzero c in increasing k, plus one group element per basis vector.
`integer_structure` is the same table scaled to integers; the constructor
builds it, and its associativity or Lie check, the traces `integer_traces`
and `left_mult_traces`, the trace-form radical and the codimension walk read
it. `mul_sparse`, on sparse {index: coefficient} dicts (`exactlin.sparse`,
`exactlin.dense`), is the product kernel that `multiply`, `product_span`,
`algebra_on_subspace` and the closures below go through; `multiply` is its
dense view, which the radical, quotient and structure layers do not use.
`quotient_algebra` inverts no matrix: its projection is the RREF of the
functionals that vanish on the ideal (`exactlin.null_space`), and it reads
`structure` directly.
Constructors validate everything: indices, grading compatibility,
associativity or antisymmetry + Jacobi, and the unit law. The associativity
check reads only nonzero products, so its cost follows the nonzero
constants, not dim^3; the Jacobi check reads only nonempty rows. Instances
are immutable in use; all operations are pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import (DimensionMismatchError, InternalCheckError, NotAnIdealError,
                     NotGradedError, ValidationError)
from .exactlin import (ONE, Reducer, Subspace, ZERO, as_rat, as_vector,
                       axpy, dense, is_zero_vector, null_space, solve_rows,
                       sparse, unit_vector)
from .groups import Group, GroupElem

ASSOCIATIVE = "associative"
LIE = "lie"


class GradedAlgebra:
    def __init__(self, group: Group, degrees: Sequence[GroupElem], structure,
                 kind: str = ASSOCIATIVE, unit=None, name: str = ""):
        if kind not in (ASSOCIATIVE, LIE):
            raise ValidationError(f"unknown algebra kind {kind!r}")
        self.group = group
        self.degrees = tuple(degrees)
        self.dim = len(self.degrees)
        self.kind = kind
        self.name = name
        for i, g in enumerate(self.degrees):
            if not isinstance(g, GroupElem) or g.group != group:
                raise ValidationError(f"degree of basis vector {i} is not an element of the grading group")
        if not isinstance(structure, Mapping):
            raise ValidationError("structure must be a mapping {(i, j, k): coefficient}")
        nonzero = {}
        for key, c in structure.items():
            if not (isinstance(key, tuple) and len(key) == 3 and all(
                    isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.dim
                    for v in key)):
                raise ValidationError(
                    f"structure index {key!r} is not a triple of integers in 0..{self.dim - 1}")
            c = as_rat(c)
            if c != 0:
                nonzero[key] = c
        rows = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for i, j, k in sorted(nonzero):
            rows[i][j].append((k, nonzero[i, j, k]))
        self.structure = tuple(tuple(map(tuple, plane)) for plane in rows)
        if unit is not None:
            if kind == LIE:
                raise ValidationError("Lie algebras carry no unit")
            unit = as_vector(unit)
            if len(unit) != self.dim:
                raise DimensionMismatchError("unit vector has wrong length")
        self.unit = unit
        # support: distinct degrees in order of first occurrence
        seen = []
        comp: dict[GroupElem, list[int]] = {}
        for i, g in enumerate(self.degrees):
            if g not in comp:
                comp[g] = []
                seen.append(g)
            comp[g].append(i)
        self.support = tuple(seen)
        self._components = {g: tuple(ix) for g, ix in comp.items()}
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        for i, gi in enumerate(self.degrees):
            for j, row in enumerate(self.structure[i]):
                if not row:
                    continue
                gij = gi * self.degrees[j]
                for k, c in row:
                    if self.degrees[k] != gij:
                        raise ValidationError(
                            f"grading violated: c[{i}][{j}][{k}] != 0 but "
                            f"deg[{k}] differs from deg[{i}]*deg[{j}]")
        if self.kind == ASSOCIATIVE:
            self._check_associativity()
        else:
            self._check_lie()
        if self.unit is not None:
            su = sparse(self.unit)
            for b in range(self.dim):
                eb = {b: ONE}
                if self.mul_sparse(su, eb) != eb or self.mul_sparse(eb, su) != eb:
                    raise ValidationError(f"unit law fails on basis vector {b}")

    def _check_associativity(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, in the integer
        table, where both sides are D^2 times their rational value. For each
        (i, j) the differences over all k go into one dict keyed by (k, m):
        (e_i e_j) e_k through the nonempty rows of each plane l in e_i e_j,
        e_i (e_j e_k) through the nonempty rows of plane j. A side can be
        nonzero only when e_i e_j != 0 or some e_j e_k holds an l with
        e_i e_l != 0, so only those j are visited. The least k of the first
        (i, j) with a nonzero difference names the first failing triple in
        index order."""
        table = self.integer_structure[1]
        nonempty = [[(k, row) for k, row in enumerate(plane) if row] for plane in table]
        producers = [set() for _ in table]      # producers[l]: each j with l in some e_j e_k
        for j, rows in enumerate(nonempty):
            for _, row in rows:
                for l, _ in row:
                    producers[l].add(j)
        for i, plane_i in enumerate(table):
            js = {l for l, _ in nonempty[i]}
            for l, _ in nonempty[i]:
                js |= producers[l]
            for j in sorted(js):
                acc: dict = {}
                for l, a in plane_i[j]:
                    for k, row in nonempty[l]:
                        for m, b in row:
                            acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in nonempty[j]:
                    for l, a in row:
                        for m, b in plane_i[l]:
                            acc[k, m] = acc.get((k, m), 0) - a * b
                bad = [k for (k, _), v in acc.items() if v]
                if bad:
                    raise ValidationError(f"associativity fails on basis triple ({i},{j},{min(bad)})")

    def _check_lie(self):
        """[e_i, e_i] = 0, antisymmetry, and the Jacobi identity on every
        triple i < j < k, in the integer table. As for associativity, each
        (i, j) collects the cyclic sum over all k > j in one dict keyed by
        (k, m), reading only nonempty rows; [[e_k, e_i], e_j] is read as
        -[[e_i, e_k], e_j], through the rows of plane i."""
        table = self.integer_structure[1]
        for i, plane in enumerate(table):
            if plane[i]:
                raise ValidationError(f"[x,x] != 0 on basis vector {i}")
            for j in range(i + 1, self.dim):
                if plane[j] != tuple((k, -c) for k, c in table[j][i]):
                    raise ValidationError(f"antisymmetry fails at ({i},{j})")
        nonempty = [[(k, row) for k, row in enumerate(plane) if row] for plane in table]
        for i, plane_i in enumerate(table):
            for j in range(i + 1, self.dim):
                acc: dict = {}
                for l, a in plane_i[j]:
                    for k, row in nonempty[l]:
                        if k > j:
                            for m, b in row:
                                acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in nonempty[j]:
                    if k > j:
                        for l, a in row:
                            for m, b in table[l][i]:
                                acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in nonempty[i]:
                    if k > j:
                        for l, a in row:
                            for m, b in table[l][j]:
                                acc[k, m] = acc.get((k, m), 0) - a * b
                bad = [k for (k, _), v in acc.items() if v]
                if bad:
                    raise ValidationError(f"Jacobi identity fails on ({i},{j},{min(bad)})")

    # -- basic operations ---------------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.dim, i)

    def multiply(self, a, b) -> tuple:
        """The product a b of dense vectors: a dense view of `mul_sparse`."""
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionMismatchError("vectors have wrong ambient dimension")
        return tuple(dense(self.mul_sparse(sparse(a), sparse(b)), self.dim))

    def mul_sparse(self, sa: dict, sb: dict) -> dict:
        """The product of sparse vectors {index: coefficient}, without zero
        entries: the product kernel, the one loop over `structure`. A pair
        with e_i e_j = 0 costs no multiplication."""
        acc: dict = {}
        for i, ai in sa.items():
            sci = self.structure[i]
            for j, bj in sb.items():
                row = sci[j]
                if row:
                    f = ai * bj
                    for k, c in row:
                        t = f * c
                        acc[k] = acc[k] + t if k in acc else t
        return {k: c for k, c in acc.items() if c}

    def trace_of_left_mult(self, a) -> Fraction:
        """tr L(a) = sum_i a_i tr L(e_i), over `left_mult_traces`."""
        if len(a) != self.dim:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        return sum((ai * t for ai, t in zip(a, self.left_mult_traces) if ai and t), ZERO)

    @cached_property
    def left_mult_traces(self) -> tuple:
        """(tr L(e_0), ..., tr L(e_{dim-1})) with tr L(e_i) = sum_j c_ij^j:
        the `integer_traces` over D. For a homogeneous e_i of degree other
        than the identity every c_ij^j is 0, so tr L(e_i) = 0."""
        D = self.integer_structure[0]
        return tuple(Fraction(t, D) for t in self.integer_traces)

    @cached_property
    def integer_traces(self) -> tuple:
        """(D tr L(e_0), ..., D tr L(e_{dim-1})) as ints, read once from the
        integer table `integer_structure` over the common denominator D."""
        return tuple(sum(c for j, row in enumerate(plane) for k, c in row if k == j)
                     for plane in self.integer_structure[1])

    @cached_property
    def integer_structure(self) -> tuple:
        """(D, table): D is the lcm of the denominators of the structure
        constants and table[i][j] = ((k, D c), ...) holds the integers D c
        for the entries (k, c) of structure[i][j]. A product of n basis
        vectors folded through the table is D^(n-1) times the true one. The
        constructor builds it: its associativity or Lie check runs on it."""
        D = lcm(*(c.denominator for plane in self.structure for row in plane for _, c in row))
        table = tuple(tuple(tuple((k, c.numerator * (D // c.denominator)) for k, c in row)
                            if row else () for row in plane) for plane in self.structure)
        return D, table

    def constants(self) -> dict:
        """The structure constants as the mapping {(i, j, k): c} the
        constructor takes, nonzero c only, in index order."""
        return {(i, j, k): c for i, plane in enumerate(self.structure)
                for j, row in enumerate(plane) for k, c in row}

    # -- grading ------------------------------------------------------------

    def component_indices(self, g: GroupElem) -> tuple:
        return self._components.get(g, ())

    def homogeneous_projection(self, v, g: GroupElem) -> tuple:
        if len(v) != self.dim:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        return tuple(x if self.degrees[i] == g else ZERO for i, x in enumerate(v))

    def homogeneous_components(self, v) -> list:
        """Nonzero pieces [(g, pi_g(v)), ...] in support order."""
        out = []
        for g in self.support:
            p = self.homogeneous_projection(v, g)
            if not is_zero_vector(p):
                out.append((g, p))
        return out

    def degree_of(self, v):
        """The degree of a homogeneous vector, None for 0 or mixed vectors."""
        comps = self.homogeneous_components(v)
        if len(comps) == 1:
            return comps[0][0]
        return None

    # -- ideals and subalgebras ---------------------------------------------

    def _basis_products(self, sv: dict):
        """The nonzero products e_b v and v e_b for b = 0, 1, ..., of the
        sparse v, each a sparse dict from `mul_sparse`."""
        for b in range(self.dim):
            sb = {b: ONE}
            for prod in (self.mul_sparse(sb, sv), self.mul_sparse(sv, sb)):
                if prod:
                    yield prod

    def ideal_generated(self, gens: Iterable) -> Subspace:
        """Smallest two-sided ideal containing the generators: closure of their
        span under left/right multiplication by basis vectors. The closure
        stops as soon as it fills the whole algebra."""
        red = Reducer(self.dim, gens)
        work = list(red.pivot_rows.values())
        while work and red.dim < self.dim:
            for w in self._basis_products(work.pop()):
                if red.insert(w):
                    work.append(w)
                    if red.dim == self.dim:
                        break
        return red.subspace()

    def subalgebra_generated(self, gens: Iterable) -> Subspace:
        """Smallest multiplicatively closed subspace containing the generators:
        each new basis row is multiplied with itself and, in both orders, with
        every row kept before it, so each pair of kept rows is multiplied once."""
        red = Reducer(self.dim, gens)
        work = list(red.pivot_rows.values())
        kept = []
        while work:
            sv = work.pop()
            prods = [self.mul_sparse(sv, sv)]
            for su in kept:
                prods += [self.mul_sparse(su, sv), self.mul_sparse(sv, su)]
            kept.append(sv)
            for prod in prods:
                row = red.insert(prod)
                if row:
                    work.append(row)
        return red.subspace()

    def product_span(self, s1: Subspace, s2: Subspace) -> Subspace:
        """Span of pairwise products of the two bases: each pair of sparse
        basis rows is multiplied by `mul_sparse`, and the product enters the
        Reducer as it comes."""
        if s1.ambient != self.dim or s2.ambient != self.dim:
            raise DimensionMismatchError("subspace lives in a different ambient space")
        red = Reducer(self.dim)
        rows2 = s2.pivot_rows.values()
        for su in s1.pivot_rows.values():
            for sw in rows2:
                red.insert(self.mul_sparse(su, sw))
        return red.subspace()

    def is_ideal(self, s: Subspace) -> bool:
        """Whether s is a two-sided ideal: e_b v and v e_b lie in s for every
        basis vector v of s and every b (`_basis_products`)."""
        if s.ambient != self.dim:
            raise DimensionMismatchError("subspace lives in a different ambient space")
        return all(s.contains(w) for v in s.pivot_rows.values() for w in self._basis_products(v))

    def is_subalgebra(self, s: Subspace) -> bool:
        """Whether s is closed under the product: its `product_span` with
        itself lies in s."""
        return self.product_span(s, s) <= s

    def __repr__(self):
        label = self.name or f"{self.kind} algebra"
        return f"GradedAlgebra({label}, dim={self.dim}, group={self.group!r})"


def graded_closure(w: Subspace, A: GradedAlgebra) -> Subspace:
    """Span of the homogeneous projections of w: the smallest graded subspace
    containing w. For a group grading this is also the delta-closure, the
    smallest subspace containing w and closed under every delta_g action."""
    return Subspace.from_vectors(
        A.dim, [p for v in w.basis_vectors() for _, p in A.homogeneous_components(v)])


def graded_check(w: Subspace, A: GradedAlgebra):
    """(is_graded, witness): the witness is a homogeneous vector that escapes
    w, present exactly when w is not graded.

    w is graded iff every row r of its canonical RREF basis is homogeneous.
    If w is graded, the projection pi_g(r) on the degree g of r's pivot lies
    in w; then r - pi_g(r) lies in w and is zero at every pivot, so it is 0.
    So only the degrees of r's nonzero coordinates, its sparse keys, are
    read. When r mixes degrees, the same argument shows that pi_g(r) escapes
    w: the witness."""
    for p in w.pivots:
        r, g = w.pivot_rows[p], A.degrees[p]
        if any(A.degrees[i] != g for i in r):
            return False, A.homogeneous_projection(dense(r, A.dim), g)
    return True, None


def nilpotency_index(A: GradedAlgebra, s: Subspace | None = None):
    """Smallest p with S^p = 0 for the subspace S (default: the whole algebra),
    powers taken as iterated product spans; None if S is not nilpotent.
    S^(p+1) = S^p . S depends on S^p alone, so a power that repeats without
    being 0 never reaches 0."""
    if s is None:
        s = Subspace.full(A.dim)
    power = s
    p = 1
    while not power.is_zero():
        if p > A.dim + 1:
            return None
        nxt = A.product_span(power, s)
        if nxt == power:
            return None
        power = nxt
        p += 1
    return p


@dataclass
class QuotientResult:
    algebra: GradedAlgebra
    section: tuple          # quotient basis lifted to ambient vectors (standard basis vectors)
    projection: tuple       # dim(quotient) rows of length dim(A), v -> coordinates of v + I
    indices: tuple          # ambient indices of the chosen complement vectors
    ambient: int            # dimension of the algebra divided by the ideal

    def project(self, v) -> tuple:
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.projection)


def quotient_algebra(A: GradedAlgebra, ideal: Subspace, name: str = "") -> QuotientResult:
    """Quotient by a graded two-sided ideal, on a homogeneous complement basis.

    The complement is picked by greedy pivot extension in basis order: e_i is
    chosen iff its class is not in the span of the classes of the e_j chosen
    before it. So quotient bases are reproducible and every quotient basis
    vector is the class of a standard basis vector of A. No matrix is
    inverted. For each column j that is not a pivot of the ideal's RREF,
    P_j = e_j - sum_p row_p[j] e_p is the functional that reads coordinate j
    of a vector reduced modulo the ideal; the P_j span the functionals that
    vanish on the ideal (`null_space` of its rows). Column i of the P_j is
    the class of e_i, so the pivots of their RREF are the greedy complement,
    and since each RREF row is 1 at its own pivot and 0 at the others, the
    RREF rows are the projection onto it. The ideal's own non-pivot columns
    are not the complement in general: for the ideal spanned by e_0 + e_1
    the greedy rule picks e_0. The product of sections a, b is the sparse
    row structure[i_a][i_b], projected through the sparse columns of the
    projection.
    """
    if ideal.ambient != A.dim:
        raise DimensionMismatchError("ideal lives in a different ambient space")
    if not A.is_ideal(ideal):
        raise NotAnIdealError("subspace is not a two-sided ideal")
    ok, witness = graded_check(ideal, A)
    if not ok:
        raise NotGradedError(f"ideal is not graded: a basis row mixes degrees; witness {witness}")
    return _quotient(A, ideal, name)


def _quotient(A: GradedAlgebra, ideal: Subspace, name: str = "") -> QuotientResult:
    """`quotient_algebra` without its input checks, for an ideal that is
    already known to be a graded two-sided ideal of A."""
    projection = null_space(A.dim, ideal.pivot_rows.values())
    chosen = projection.pivots
    qdim = len(chosen)
    if qdim != A.dim - ideal.dim:
        raise InternalCheckError("quotient dimension differs from dim A - dim I")
    proj_cols: dict = {}        # column k of the projection, {quotient index: entry}
    for a, i in enumerate(chosen):
        for k, x in projection.pivot_rows[i].items():
            proj_cols.setdefault(k, {})[a] = x
    structure = {}
    for a, i in enumerate(chosen):
        for b, j in enumerate(chosen):
            acc: dict = {}
            for k, c in A.structure[i][j]:
                if k in proj_cols:      # else e_k lies in the ideal
                    axpy(acc, c, proj_cols[k])
            structure.update({(a, b, r): x for r, x in acc.items()})
    degrees = [A.degrees[i] for i in chosen]
    unit = None
    if A.unit is not None:
        su = sparse(A.unit)
        unit = tuple(sum((x * su[k] for k, x in projection.pivot_rows[i].items() if k in su), ZERO)
                     for i in chosen)
    Q = GradedAlgebra(A.group, degrees, structure, kind=A.kind, unit=unit,
                      name=name or (A.name + "/I" if A.name else ""))
    section = tuple(unit_vector(A.dim, i) for i in chosen)
    return QuotientResult(Q, section, projection.basis_vectors(), chosen, A.dim)


def unitalize(A: GradedAlgebra) -> GradedAlgebra:
    """Adjoin a formal unit of identity degree as the last basis vector."""
    if A.kind != ASSOCIATIVE:
        raise ValidationError("only associative algebras are unitalized")
    n = A.dim
    structure = A.constants()
    for i in range(n):
        structure[i, n, i] = structure[n, i, i] = ONE
    structure[n, n, n] = ONE
    degrees = list(A.degrees) + [A.group.identity()]
    return GradedAlgebra(A.group, degrees, structure, kind=ASSOCIATIVE,
                         unit=unit_vector(n + 1, n),
                         name=(A.name + "+1") if A.name else "unitalized")


@dataclass
class SubalgebraEmbedding:
    algebra: GradedAlgebra
    rows: tuple             # basis of the subalgebra as ambient vectors
    ambient: int            # dimension of the ambient algebra

    def include(self, v_sub) -> tuple:
        out = [ZERO] * self.ambient
        for c, r in zip(v_sub, self.rows):
            if c != 0:
                for i, x in enumerate(r):
                    out[i] += c * x
        return tuple(out)


def algebra_on_subspace(A: GradedAlgebra, s: Subspace, name: str = "") -> SubalgebraEmbedding:
    """Make a multiplicatively closed graded subspace into an algebra of its own.

    The canonical RREF basis of a graded subspace is homogeneous
    (`graded_check`), so each basis row has the degree of its pivot.
    """
    if not graded_check(s, A)[0]:
        raise NotGradedError("subspace is not graded: basis vector mixes degrees")
    degrees = [A.degrees[p] for p in s.pivots]
    rows = [s.pivot_rows[p] for p in s.pivots]
    dim = len(rows)
    structure = {}
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            coords = s.coords(A.mul_sparse(ra, rb))
            if coords is None:
                raise ValidationError("subspace is not multiplicatively closed")
            structure.update({(a, b, k): c for k, c in enumerate(coords) if c != 0})
    unit = None
    if A.kind == ASSOCIATIVE and dim > 0:
        # a unit of the subalgebra, if one exists: u * r_b = r_b and
        # r_b * u = r_b, one sparse equation per (side, b, k), rhs in column dim
        eqs = {(side, b, b): {dim: ONE} for b in range(dim) for side in (0, 1)}
        for (x, y, k), c in structure.items():
            eqs.setdefault((0, y, k), {})[x] = c
            eqs.setdefault((1, x, k), {})[y] = c
        unit = solve_rows(dim, eqs.values())
    alg = GradedAlgebra(A.group, degrees, structure, kind=A.kind, unit=unit, name=name)
    return SubalgebraEmbedding(alg, s.basis_vectors(), A.dim)
