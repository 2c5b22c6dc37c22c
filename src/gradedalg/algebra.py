"""Finite-dimensional group-graded algebras over Q via structure constants.

A `GradedAlgebra` is built from a mapping {(i, j, k): c}: the product of
basis vectors i and j has coefficient c on basis vector k, and absent triples
are zero. It keeps only the sparse table `structure[i] = {j: {k: c}}` over
the nonempty rows, keys in increasing j, each row over the nonzero c in
increasing k, each c an int when it is an integer (`exactlin.as_rat`), plus
one group element per basis vector. A vanishing product has no entry, so
the table costs the nonzero constants, not dim^2, and a product's row is
read as `structure[i].get(j, {})`. It is the one table: the checks, the
traces `left_mult_traces`, the radicals, the degree-e centre, the quotient
and the codimension walk all read it plane by plane; `transpose` holds the
same row dicts, read only, by their second index. Plane i is the left
operator {j: e_i e_j} of e_i, and `transpose[j]` the right operator of e_j.
`mul_sparse`, on sparse {index: coefficient} dicts (`exactlin.sparse`,
`exactlin.dense`), is the kernel for single products: `multiply` (its
dense view), `algebra_on_subspace`, `subalgebra_generated`, the structure
layer and the codimension walk go through it. `product_span` and the ideal
tests multiply through one-sided operators instead (`operator`): the left
operator {j: v e_j} and the right operator {j: e_j v} of a vector are built
from the nonempty rows of its planes and applied by `apply_operator`, so a
vanishing product is never computed and never reaches a Reducer.
Ideals and subalgebras are generated by `span_closure`; `product_chain`,
bounded at dim + 2 terms, gives nilpotency indices and derived series.
`quotient_algebra` inverts no matrix: its projection is the RREF of the
functionals that vanish on the ideal (`exactlin.null_space`), and it reads
`structure` directly.
Constructors validate everything: indices, grading compatibility,
associativity or antisymmetry + Jacobi, and the unit law, in that order.
The grading check multiplies two degrees once per pair of distinct degrees.
Associativity is Light's test (`_check_associativity`): the set T of the a
with (x a) y = x (a y) for all x, y is a subspace closed under products, so
A is associative iff T holds a generating set. T holds for free each basis
vector whose products all vanish, and the unit once the unit law holds; a
single-term product e_r e_s = c e_k puts e_k in T with e_r and e_s, so
closing under these costs O(dim + nonzero constants), and the generators
(`_associativity_generators`) are the basis vectors that the closure does
not reach. Only paths through a generator are read, each a nonzero
product, so the check costs those paths plus O(nonzero constants), not
dim^3. Only on a failure does `_first_failing_triple` scan the triples in
index order to name the first. The antisymmetry and Jacobi checks read
only nonempty rows. Instances are immutable in use; all operations are
pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (DimensionMismatchError, InternalCheckError, NotAnIdealError,
                     NotGradedError, ValidationError)
from .exactlin import (ONE, Reducer, Subspace, ZERO, apply_operator, as_rat,
                       as_vector, axpy, dense, null_space,
                       solve_rows, span_closure, sparse, unit_vector)
from .groups import Group, GroupElem, is_element_of

ASSOCIATIVE = "associative"
LIE = "lie"


def _is_index_triple(key, dim: int) -> bool:
    """Whether key is a triple of ints, not bools, in 0..dim-1; a triple of
    plain ints takes the fast path."""
    if type(key) is tuple and len(key) == 3:
        i, j, k = key
        if type(i) is int and type(j) is int and type(k) is int:
            return 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
    return isinstance(key, tuple) and len(key) == 3 and all(
        isinstance(v, int) and not isinstance(v, bool) and 0 <= v < dim for v in key)


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
            if not is_element_of(g, group):
                raise ValidationError(f"degree of basis vector {i} is not an element of the grading group")
        if not isinstance(structure, Mapping):
            raise ValidationError("structure must be a mapping {(i, j, k): coefficient}")
        nonzero = {}
        for key, c in structure.items():
            if not _is_index_triple(key, self.dim):
                raise ValidationError(
                    f"structure index {key!r} is not a triple of integers in 0..{self.dim - 1}")
            if type(c) is not int:
                c = as_rat(c)
            if c:
                nonzero[key] = c
        planes: list = [{} for _ in range(self.dim)]
        for i, j, k in sorted(nonzero):
            planes[i].setdefault(j, {})[k] = nonzero[i, j, k]
        self.structure = tuple(planes)
        # `structure` read by its second index: transpose[j] is {i: row} over
        # the nonempty rows e_i e_j, keys in increasing i; the rows are the
        # dicts of `structure` itself, so no constant is stored twice
        columns: list = [{} for _ in range(self.dim)]
        for i, plane in enumerate(self.structure):
            for j, row in plane.items():
                columns[j][i] = row
        self.transpose = tuple(columns)
        if unit is not None:
            if kind == LIE:
                raise ValidationError("Lie algebras carry no unit")
            unit = as_vector(unit)
            if len(unit) != self.dim:
                raise DimensionMismatchError("unit vector has wrong length")
        self.unit = unit
        # support: distinct degrees in order of first occurrence
        comp: dict[GroupElem, list[int]] = {}
        for i, g in enumerate(self.degrees):
            comp.setdefault(g, []).append(i)
        self.support = tuple(comp)
        self._components = {g: tuple(ix) for g, ix in comp.items()}
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Grading, then associativity (Light's test) or antisymmetry and
        Jacobi, then the unit law: the first that fails raises. The unit-law
        verdict is reached before associativity, since a unit that passes
        seeds Light's test, but its error is raised last."""
        self._check_grading()
        if self.kind == LIE:
            self._check_lie()
            return
        unit_failure = seed = None
        if self.unit is not None:
            su = sparse(self.unit)
            unit_failure = self._unit_failure(su)
            if unit_failure is None and len(su) == 1:
                seed, = su
        self._check_associativity(seed)
        if unit_failure is not None:
            raise ValidationError(f"unit law fails on basis vector {unit_failure}")

    def _check_grading(self):
        """deg e_k = deg e_i deg e_j wherever c_ij^k != 0, in index order.
        Degrees are compared by their position in `support`, and the product
        of two degrees is computed once per pair of positions."""
        position, place = {}, []
        for g in self.degrees:
            place.append(position.setdefault(g, len(position)))
        width, products = len(position), {}
        for i, plane in enumerate(self.structure):
            for j, row in plane.items():
                pair = place[i] * width + place[j]
                want = products.get(pair)
                if want is None:
                    want = products[pair] = position.get(self.degrees[i] * self.degrees[j], -1)
                for k in row:
                    if place[k] != want:
                        raise ValidationError(
                            f"grading violated: c[{i}][{j}][{k}] != 0 but "
                            f"deg[{k}] differs from deg[{i}]*deg[{j}]")

    def _unit_failure(self, su: dict):
        """The least b with u e_b != e_b or e_b u != e_b for the sparse unit
        u, or None when the unit law holds: read off the unit's left and
        right operators (`operator`)."""
        left, right = self.operator(su, self.structure), self.operator(su, self.transpose)
        for b in range(self.dim):
            eb = {b: ONE}
            if left.get(b) != eb or right.get(b) != eb:
                return b
        return None

    def _associativity_generators(self, seed) -> list:
        """Basis indices that generate A together with the vectors that
        Light's test gets for free (`_check_associativity`): each basis
        vector with an empty plane and an empty `transpose` row, and e_seed
        unless `seed` is None (the unit, when it is a multiple of e_seed and
        passed the unit law). A single-term product e_r e_s = c e_k is the clause
        r and s give k; each clause keeps a count of its body indices not
        yet reached, so closing under the clauses costs O(dim + nonzero
        constants). Each basis vector still unreached is picked in turn,
        first those that are no single-term product of two other basis
        vectors, then the rest, in index order, and the closure grows from
        it. This gives 2n - 1 generators for UT_n and M_n, r for
        `free_group_truncation(r, c)` and 1 for a cyclic group algebra; a
        basis with few single-term products, such as a quotient in RREF
        coordinates, gives nearly every vector."""
        heads, missing = [], []
        waiting: list = [[] for _ in range(self.dim)]   # waiting[r]: the clauses whose body holds r
        produced = [False] * self.dim
        for r, plane in enumerate(self.structure):
            for s, row in plane.items():
                if len(row) == 1:
                    k, = row
                    waiting[r].append(len(heads))
                    if s != r:
                        waiting[s].append(len(heads))
                    missing.append(1 if s == r else 2)
                    heads.append(k)
                    if k != r and k != s:
                        produced[k] = True
        reached = [not plane and not column for plane, column in zip(self.structure, self.transpose)]
        generators = []
        stack = [] if seed is None else [seed]      # reached, their clauses not yet counted
        for a in [*(a for a in range(self.dim) if not produced[a]), *range(self.dim)]:
            while stack:
                b = stack.pop()
                if not reached[b]:
                    reached[b] = True
                    for n in waiting[b]:
                        missing[n] -= 1
                        if not missing[n]:
                            stack.append(heads[n])
            if not reached[a]:
                generators.append(a)
                stack.append(a)
        return generators

    def _check_associativity(self, seed):
        """Light's associativity test: (e_x g) e_y = e_x (g e_y) for every
        g in a generating set (`_associativity_generators`) and all basis
        e_x, e_y. The set T of the a with (x a) y = x (a y) for all x, y is a
        subspace, closed under products: for a, b in T,
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y). So A is
        associative iff T holds a generating set. It holds for free each
        basis vector whose products all vanish, and the unit when the unit
        law holds: e_seed, unless `seed` is None. Only nonzero paths are visited: the left side through
        `transpose[g]` then `structure`, the right side through
        `structure[g]` then `transpose`, one dict keyed by (x, y, m) per g.
        The cost is the paths through the generators plus O(nonzero
        constants), never more paths than a scan over every middle factor.
        On a failure, and only then, `_first_failing_triple` names the
        first failing triple in index order."""
        table, columns = self.structure, self.transpose
        for g in self._associativity_generators(seed):
            acc: dict = {}
            for x, row in columns[g].items():
                for l, a in row.items():
                    for y, row_l in table[l].items():
                        for m, b in row_l.items():
                            key = x, y, m
                            acc[key] = acc.get(key, 0) + a * b
            for y, row in table[g].items():
                for l, a in row.items():
                    for x, row_l in columns[l].items():
                        for m, b in row_l.items():
                            key = x, y, m
                            acc[key] = acc.get(key, 0) - a * b
            if any(acc.values()):
                triple = self._first_failing_triple()
                if triple is None:
                    raise InternalCheckError(
                        f"associativity fails through basis vector {g}, but on no basis triple")
                raise ValidationError("associativity fails on basis triple (%d,%d,%d)" % triple)

    def _first_failing_triple(self):
        """The first basis triple (i, j, k) in index order with
        (e_i e_j) e_k != e_i (e_j e_k), or None: the diagnostic of
        `_check_associativity`, run only once it has found a failure. For
        each (i, j) the differences over all k go into one dict keyed by
        (k, m): (e_i e_j) e_k through the nonempty rows of each plane l in
        e_i e_j, e_i (e_j e_k) through the nonempty rows of plane j. A side
        can be nonzero only when e_i e_j != 0 or some e_j e_k holds an l
        with e_i e_l != 0, so only those j are visited."""
        table = self.structure
        producers = [set() for _ in table]      # producers[l]: each j with l in some e_j e_k
        for j, plane in enumerate(table):
            for row in plane.values():
                for l in row:
                    producers[l].add(j)
        for i, plane_i in enumerate(table):
            js = set(plane_i)
            for l in plane_i:
                js |= producers[l]
            for j in sorted(js):
                acc: dict = {}
                for l, a in plane_i.get(j, {}).items():
                    for k, row in table[l].items():
                        for m, b in row.items():
                            acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in table[j].items():
                    for l, a in row.items():
                        for m, b in plane_i.get(l, {}).items():
                            acc[k, m] = acc.get((k, m), 0) - a * b
                bad = [k for (k, _), v in acc.items() if v]
                if bad:
                    return i, j, min(bad)
        return None

    def _check_lie(self):
        """[e_i, e_i] = 0, antisymmetry, and the Jacobi identity on every
        triple i < j < k. Antisymmetry can fail at (i, j) only where e_i e_j
        or e_j e_i is nonzero, so only the j > i of plane i and of
        `transpose[i]` are compared, in increasing order.
        As for associativity, each (i, j) collects the cyclic sum over all
        k > j in one dict keyed by (k, m), reading only nonempty rows;
        [[e_k, e_i], e_j] is read as -[[e_i, e_k], e_j], through the rows of
        plane i. Once antisymmetry holds, an empty plane i makes every term
        0 ([[e_j, e_k], e_i] = -[e_i, [e_j, e_k]]), so it is skipped."""
        table = self.structure
        for i, plane in enumerate(table):
            if i in plane:
                raise ValidationError(f"[x,x] != 0 on basis vector {i}")
            for j in sorted(j for j in {*plane, *self.transpose[i]} if j > i):
                if plane.get(j, {}) != {k: -c for k, c in table[j].get(i, {}).items()}:
                    raise ValidationError(f"antisymmetry fails at ({i},{j})")
        for i, plane_i in enumerate(table):
            if not plane_i:
                continue
            for j in range(i + 1, self.dim):
                acc: dict = {}
                for l, a in plane_i.get(j, {}).items():
                    for k, row in table[l].items():
                        if k > j:
                            for m, b in row.items():
                                acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in table[j].items():
                    if k > j:
                        for l, a in row.items():
                            for m, b in table[l].get(i, {}).items():
                                acc[k, m] = acc.get((k, m), 0) + a * b
                for k, row in plane_i.items():
                    if k > j:
                        for l, a in row.items():
                            for m, b in table[l].get(j, {}).items():
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
        """The product of sparse vectors {index: coefficient} without zero
        entries, itself without zero entries: the kernel for single
        products. A pair with e_i e_j = 0 costs no multiplication, and the
        rows e_i e_j of the others are summed by `axpy`, which drops an
        entry as it cancels."""
        acc: dict = {}
        for i, ai in sa.items():
            plane = self.structure[i]
            for j, bj in sb.items():
                row = plane.get(j)
                if row is not None:
                    axpy(acc, ai * bj, row)
        return acc

    def trace_of_left_mult(self, a) -> Fraction:
        """tr L(a) = sum_i a_i tr L(e_i), over `left_mult_traces`."""
        a = as_vector(a)
        if len(a) != self.dim:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        return sum((ai * t for ai, t in zip(a, self.left_mult_traces) if ai and t), ZERO)

    @cached_property
    def left_mult_traces(self) -> tuple:
        """(tr L(e_0), ..., tr L(e_{dim-1})) with tr L(e_i) = sum_j c_ij^j,
        read once from `structure`, each an int where it is an integer. For
        a homogeneous e_i of degree other than the identity every c_ij^j is
        0, so tr L(e_i) = 0."""
        return tuple(as_rat(sum(row.get(j, 0) for j, row in plane.items()))
                     for plane in self.structure)

    def constants(self) -> dict:
        """The structure constants as the mapping {(i, j, k): c} the
        constructor takes, nonzero c only, in index order."""
        return {(i, j, k): c for i, plane in enumerate(self.structure)
                for j, row in plane.items() for k, c in row.items()}

    # -- grading ------------------------------------------------------------

    def component_indices(self, g: GroupElem) -> tuple:
        return self._components.get(g, ())

    # -- ideals and subalgebras ---------------------------------------------

    def operator(self, sv: dict, table: tuple) -> dict:
        """{j: product of sv with e_j} over the nonzero products, the sum
        (`axpy`) of the planes of sv's support: with `structure` the left
        operator {j: v e_j}, with `transpose` the right operator {j: e_j v},
        which `exactlin.apply_operator` applies to a sparse w: v w or w v."""
        op: dict = {}
        for i, a in sv.items():
            for j, row in table[i].items():
                axpy(op.setdefault(j, {}), a, row)
        return {j: w for j, w in op.items() if w}

    def _basis_products(self, sv: dict):
        """The nonzero products v e_b and e_b v of the sparse v, over every
        b: the values of its left and right operators (`operator`)."""
        yield from self.operator(sv, self.structure).values()
        yield from self.operator(sv, self.transpose).values()

    def ideal_generated(self, gens: Iterable) -> Subspace:
        """Smallest two-sided ideal containing the generators: their span closed
        under left/right multiplication by basis vectors (`_basis_products`)."""
        return span_closure(self.dim, gens, self._basis_products)

    def subalgebra_generated(self, gens: Iterable) -> Subspace:
        """Smallest multiplicatively closed subspace containing the generators:
        `span_closure` multiplies each new basis row, as it enters, with
        itself and, in both orders, with every row kept before it, so each
        pair of kept rows is multiplied once."""
        kept = []

        def images(sv):
            prods = [self.mul_sparse(sv, sv)]
            for su in kept:
                prods += [self.mul_sparse(su, sv), self.mul_sparse(sv, su)]
            kept.append(sv)
            return prods
        return span_closure(self.dim, gens, images)

    def product_span(self, s1: Subspace, s2: Subspace) -> Subspace:
        """Span of pairwise products of the two bases. For each basis row u
        of s1 the left operator {j: u e_j} is built once (`operator`), and
        u w = sum_j w_j u e_j (`apply_operator`) for the basis rows w of s2
        whose support meets its keys, found through a column index; a
        product that vanishes never reaches the Reducer. When both are the
        whole space, A A is the span of the nonempty rows of `structure`,
        which enter as they are: the RREF is canonical, so the span is the
        same."""
        if s1.ambient != self.dim or s2.ambient != self.dim:
            raise DimensionMismatchError("subspace lives in a different ambient space")
        red = Reducer(self.dim)
        if s1.dim == s2.dim == self.dim:
            for plane in self.structure:
                for row in plane.values():
                    red.insert(row)
            return red.subspace()
        rows2, meets = list(s2.pivot_rows.values()), {}     # meets[j]: the rows w with w_j != 0
        for t, sw in enumerate(rows2):
            for j in sw:
                meets.setdefault(j, []).append(t)
        for su in s1.pivot_rows.values():
            left = self.operator(su, self.structure)
            for t in {t for j in left for t in meets.get(j, ())}:
                prod = apply_operator(left, rows2[t])
                if prod:
                    red.insert(prod)
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


def _part(r: dict, g: GroupElem, A: GradedAlgebra) -> dict:
    """pi_g(r) of the sparse row r: its entries on basis vectors of degree g,
    each through `as_rat`, as `exactlin.sparse` gives them (an RREF row can
    hold an integral Fraction)."""
    degrees = A.degrees
    return {i: as_rat(c) for i, c in r.items() if degrees[i] == g}


def graded_closure(w: Subspace, A: GradedAlgebra) -> Subspace:
    """Span of the homogeneous projections of w: the smallest graded subspace
    containing w. For a group grading this is also the delta-closure, the
    smallest subspace containing w and closed under every delta_g action:
    the span of one `_part` per degree that a basis row's keys carry."""
    return Subspace.from_vectors(A.dim, [
        _part(r, g, A) for r in w.pivot_rows.values()
        for g in {A.degrees[i]: None for i in r}])


def graded_check(w: Subspace, A: GradedAlgebra):
    """(is_graded, witness): the witness is a homogeneous vector that escapes
    w, a dense tuple of Fractions, present exactly when w is not graded.

    w is graded iff every row r of its canonical RREF basis is homogeneous.
    If w is graded, the projection pi_g(r) on the degree g of r's pivot lies
    in w; then r - pi_g(r) lies in w and is zero at every pivot, so it is 0.
    So only the degrees of r's nonzero coordinates, its sparse keys, are
    read. When r mixes degrees, the same argument shows that pi_g(r)
    (`_part`) escapes w: the witness."""
    for p in w.pivots:
        r, g = w.pivot_rows[p], A.degrees[p]
        if any(A.degrees[i] != g for i in r):
            return False, tuple(dense(_part(r, g, A), A.dim))
    return True, None


def product_chain(A: GradedAlgebra, s: Subspace, step) -> list:
    """[s, step(s), ...] up to the first 0, before the first repeat of the last
    term (0 then never comes), and at most A.dim + 2 terms: a chain that shrinks
    at each step ends within A.dim + 1; span(diag(2, 3))^k in M2 does not."""
    out = [s]
    while not out[-1].is_zero() and len(out) < A.dim + 2:
        nxt = step(out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def nilpotency_index(A: GradedAlgebra, s: Subspace | None = None):
    """Smallest p with S^p = 0 for the subspace S (default: the whole algebra),
    powers taken as iterated product spans S^(p+1) = S^p . S
    (`product_chain`); None if S is not nilpotent."""
    s = Subspace.full(A.dim) if s is None else s
    chain = product_chain(A, s, lambda t: A.product_span(t, s))
    return len(chain) if chain[-1].is_zero() else None


@dataclass
class QuotientResult:
    algebra: GradedAlgebra
    section: tuple          # quotient basis lifted to ambient vectors (standard basis vectors)
    projection: tuple       # dim(quotient) rows of length dim(A), v -> coordinates of v + I
    indices: tuple          # ambient indices of the chosen complement vectors
    ambient: int            # dimension of the algebra divided by the ideal

    def project(self, v) -> tuple:
        v = as_vector(v)
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
    row of e_(i_a) e_(i_b) in `structure`, projected through the sparse
    columns of the projection; only the nonempty rows are visited.
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
    position = {i: a for a, i in enumerate(chosen)}
    for a, i in enumerate(chosen):
        for j, row in A.structure[i].items():
            b = position.get(j)
            if b is not None:
                # a k outside proj_cols has e_k in the ideal
                structure.update({(a, b, r): x for r, x in apply_operator(proj_cols, row).items()})
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
        v_sub = as_vector(v_sub)
        if len(v_sub) != len(self.rows):
            raise DimensionMismatchError("vector has wrong subalgebra dimension")
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
    return _algebra_on_subspace(A, s, name)


def _algebra_on_subspace(A: GradedAlgebra, s: Subspace, name: str = "") -> SubalgebraEmbedding:
    """`algebra_on_subspace` without its gradedness test, for a subspace
    that is already known to be graded, as `_quotient` is for
    `quotient_algebra`; closure under the product is still tested."""
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
