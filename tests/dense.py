"""Dense matrix product, inverse and trace, the algebra product summed over
the structure constants, Gauss-Jordan elimination over full-width rows, the
associativity and Lie checks as triple loops, and the radical, quotient and
structure routines as they were on dense Fraction vectors (a dense Gram or
Killing matrix and `kernel`, a quotient through `invert`, the section lift,
the degree-e centre and the idempotent split on dense vectors): the
references the tests check the library's matrices (inverses, left
multiplication, the Killing form), products, ideal closures, sparse
elimination, constructor checks, radicals, quotients, complements and
graded-simple components against."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product

from gradedalg.algebra import GradedAlgebra, QuotientResult
from gradedalg.errors import DimensionMismatchError, InternalCheckError
from gradedalg.exactlin import Mat, Reducer, Subspace, kernel, solve, sparse, unit_vector
from gradedalg.radical import _ad_traces, _ad_word_span, derived_series, killing_form
from gradedalg.structure import _divide, _rational_root


def matmul(a: Mat, b: Mat) -> Mat:
    assert a.cols == b.rows, "matrix product shape mismatch"
    cols = b.transpose().data
    return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                for row in a.data], cols=b.cols)


def trace(m: Mat) -> Fraction:
    return sum((m.data[i][i] for i in range(min(m.rows, m.cols))), Fraction(0))


def invert(m: Mat) -> Mat:
    """Inverse of a square matrix; raises on singular input (a pivot of
    [m | I] beyond column n - 1)."""
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    n = m.rows
    red = Reducer(2 * n, [{**sparse(row), n + i: Fraction(1)} for i, row in enumerate(m.data)])
    if red.pivots != list(range(n)):
        raise DimensionMismatchError("matrix is singular")
    return Mat([[red.pivot_rows[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)],
               cols=n)


def dense_multiply(A, a, b) -> tuple:
    """The product a b as sum a_i b_j c_ijk e_k over the structure constants
    {(i, j, k): c} of `A.constants()`, which is all it reads of A."""
    out = [Fraction(0)] * A.dim
    for (i, j, k), c in A.constants().items():
        out[k] += a[i] * b[j] * c
    return tuple(out)


def is_ideal_dense(A, s) -> bool:
    """The two-sided ideal test with dense products: e_b v and v e_b through
    `dense_multiply` for every basis vector v of s and every b, each checked
    with `contains`."""
    for v in s.basis_vectors():
        for b in range(A.dim):
            eb = A.basis_vector(b)
            if not s.contains(dense_multiply(A, eb, v)) or not s.contains(dense_multiply(A, v, eb)):
                return False
    return True


def ideal_generated_dense(A, gens) -> Subspace:
    """The two-sided ideal generated by gens, grown a whole round at a time:
    the span of s and every e_b v and v e_b (`dense_multiply`) over the basis
    vectors v of s, until the dimension stops growing."""
    s = Subspace.from_vectors(A.dim, gens)
    while True:
        vecs = list(s.basis_vectors())
        for v in s.basis_vectors():
            for b in range(A.dim):
                eb = A.basis_vector(b)
                vecs += [dense_multiply(A, eb, v), dense_multiply(A, v, eb)]
        grown = Subspace.from_vectors(A.dim, vecs)
        if grown.dim == s.dim:
            return s
        s = grown


class DenseGaussJordan:
    """Incremental Gauss-Jordan elimination on dense lists of Fractions,
    every step over the full width: `rows` is the RREF basis in pivot order
    and `pivots` its pivot columns."""

    def __init__(self, width: int):
        self.width = width
        self.rows = []
        self.pivots = []

    def residual(self, v) -> list:
        """v minus, for each basis row in turn, v's entry at that row's pivot
        times the row."""
        v = [Fraction(a) for a in v]
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def coords(self, v):
        """v's entries at the pivots when v is in the span, else None."""
        if any(self.residual(v)):
            return None
        return tuple(Fraction(v[p]) for p in self.pivots)

    def insert(self, v):
        """Add v; the new row (v reduced and scaled to 1 at its pivot), or
        None when v is already in the span."""
        v = self.residual(v)
        piv = next((j for j, a in enumerate(v) if a), None)
        if piv is None:
            return None
        v = [a / v[piv] for a in v]
        self.rows = [[a - row[piv] * b for a, b in zip(row, v)] for row in self.rows]
        at = bisect_left(self.pivots, piv)
        self.pivots.insert(at, piv)
        self.rows.insert(at, v)
        return v


def structure_failure(dim: int, constants: dict, kind: str = "associative"):
    """The message of the first failing constructor check on the mapping
    {(i, j, k): c}, or None when all hold, from triple loops over dense
    Fraction vectors. Associative: (e_i e_j) e_k = e_i (e_j e_k) for every
    (i, j, k) in index order. Lie: for each i in turn [e_i, e_i] = 0 and then
    antisymmetry with every j > i, and after those the Jacobi identity on
    every i < j < k."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), x in constants.items():
        c[i][j][k] = Fraction(x)

    def mul(u, v):
        out = [Fraction(0)] * dim
        for a, b in product(range(dim), repeat=2):
            if u[a] and v[b]:
                for m in range(dim):
                    out[m] += u[a] * v[b] * c[a][b][m]
        return out

    basis = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    if kind == "associative":
        for i, j, k in product(range(dim), repeat=3):
            if mul(c[i][j], basis[k]) != mul(basis[i], c[j][k]):
                return f"associativity fails on basis triple ({i},{j},{k})"
        return None
    for i in range(dim):
        if any(c[i][i]):
            return f"[x,x] != 0 on basis vector {i}"
        for j in range(i + 1, dim):
            if any(a + b for a, b in zip(c[i][j], c[j][i])):
                return f"antisymmetry fails at ({i},{j})"
    for i, j, k in combinations(range(dim), 3):
        terms = (mul(c[i][j], basis[k]), mul(c[j][k], basis[i]), mul(c[k][i], basis[j]))
        if any(map(sum, zip(*terms))):
            return f"Jacobi identity fails on ({i},{j},{k})"
    return None


# -- radicals, quotients and structure on dense vectors --------------------

def _axpy(acc: list, c, v):
    for i, x in enumerate(v):
        if x:
            acc[i] += c * x


def jacobson_radical_dense(A) -> Subspace:
    """The kernel of the dense Gram matrix tr L(e_i e_j) = sum_k c_ij^k tr L(e_k)."""
    t = A.left_mult_traces
    gram = [[sum((c * t[k] for k, c in A.structure[i][j]), Fraction(0)) for j in range(A.dim)]
            for i in range(A.dim)]
    return kernel(Mat(gram, cols=A.dim))


def solvable_radical_dense(L) -> Subspace:
    """The kernel of the dense rows K d, K the Killing matrix, d over a basis of [L, L]."""
    K = killing_form(L)
    derived = L.product_span(Subspace.full(L.dim), Subspace.full(L.dim))
    return kernel(Mat([K.mul_vec(d) for d in derived.basis_vectors()], cols=L.dim))


def nilradical_dense(L) -> Subspace:
    return kernel(Mat([_ad_traces(L, y) for y in _ad_word_span(L)], cols=L.dim))


def quotient_dense(A, ideal) -> QuotientResult:
    """A/I on the greedy standard-vector complement, its projection the last
    rows of the inverse of [ideal basis; chosen unit vectors]^T."""
    red = Reducer(A.dim, ideal.pivot_rows.values())
    chosen = [i for i in range(A.dim) if red.insert({i: Fraction(1)})]
    rows = [list(r) for r in ideal.basis_vectors()] + [list(unit_vector(A.dim, i)) for i in chosen]
    binv = invert(Mat(rows, cols=A.dim).transpose())
    proj = Mat(binv.data[ideal.dim:], cols=A.dim)
    proj_cols = proj.transpose().data
    structure = {}
    for a, i in enumerate(chosen):
        for b, j in enumerate(chosen):
            acc = [Fraction(0)] * len(chosen)
            for k, c in A.structure[i][j]:
                _axpy(acc, c, proj_cols[k])
            structure.update({(a, b, r): x for r, x in enumerate(acc) if x != 0})
    unit = proj.mul_vec(A.unit) if A.unit is not None else None
    Q = GradedAlgebra(A.group, [A.degrees[i] for i in chosen], structure, kind=A.kind,
                      unit=unit, name=A.name + "/I" if A.name else "")
    return QuotientResult(Q, tuple(unit_vector(A.dim, i) for i in chosen), proj, tuple(chosen))


def _image_dense(Q, section, a, b) -> list:
    out = [Fraction(0)] * len(section[0])
    for k, mu in Q.structure[a][b]:
        _axpy(out, mu, section[k])
    return out


def lift_section_dense(A, Q, section, ideal, below):
    """The section lift on dense vectors: each block projected from the whole
    ideal basis, one dense column per unknown, one `solve` on a dense matrix."""
    blocks, offsets, nunk = [], [], 0
    for g in Q.degrees:
        comp = Subspace.from_vectors(
            A.dim, [A.homogeneous_projection(v, g) for v in ideal.basis_vectors()])
        blocks.append(comp.basis_vectors())
        offsets.append(nunk)
        nunk += comp.dim
    rows, rhs = [], []
    for a, sa in enumerate(section):
        for b, sb in enumerate(section):
            cols = [[Fraction(0)] * A.dim for _ in range(nunk)]
            for u, t in enumerate(blocks[b]):
                _axpy(cols[offsets[b] + u], 1, A.multiply(sa, t))
            for u, t in enumerate(blocks[a]):
                _axpy(cols[offsets[a] + u], 1, A.multiply(t, sb))
            for k, mu in Q.structure[a][b]:
                for u, t in enumerate(blocks[k]):
                    _axpy(cols[offsets[k] + u], -mu, t)
            neg_defect = [e - p for p, e in zip(A.multiply(sa, sb), _image_dense(Q, section, a, b))]
            red_cols = [below.residual(col) for col in cols]
            red_rhs = below.residual(neg_defect)
            for i in range(A.dim):
                row = [rc[i] for rc in red_cols]
                if any(row) or red_rhs[i]:
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


def graded_complement_dense(A, I) -> Subspace:
    """The graded complement through `quotient_dense` and `lift_section_dense`."""
    if I.is_zero():
        return Subspace.full(A.dim)
    q = quotient_dense(A, I)
    section = [list(v) for v in q.section]
    series = derived_series(A, I)
    for power, below in zip(series, series[1:]):
        lift_section_dense(A, q.algebra, section, power, below)
    return Subspace.from_vectors(A.dim, section)


def wedderburn_dense(A) -> list:
    """The graded-simple components of a semisimple unital A in canonical
    order, from the dense degree-e centre and dense idempotent splits."""
    e = A.group.identity()
    rows = {i: unit_vector(A.dim, i) for i in range(A.dim) if A.degrees[i] != e}
    for i in A.component_indices(e):
        for b in range(A.dim):
            for terms, sign in ((A.structure[i][b], 1), (A.structure[b][i], -1)):
                for k, c in terms:
                    rows.setdefault((b, k), [Fraction(0)] * A.dim)[i] += sign * c
    centre = kernel(Mat(list(rows.values()), cols=A.dim))

    def minimal_polynomial(f, c):
        powers, red, p = [f], Reducer(A.dim, [f]), c
        while red.insert(p) is not None:
            powers.append(p)
            p = A.multiply(p, c)
        krylov = Mat(list(zip(*powers)), cols=len(powers))
        return [-a for a in solve(krylov, p)] + [Fraction(1)], krylov

    def split(f):
        cf = Subspace.from_vectors(A.dim, [A.multiply(z, f) for z in centre.basis_vectors()])
        if cf.dim == 1:
            return None
        for c in cf.basis_vectors():
            m, krylov = minimal_polynomial(f, c)
            root = _rational_root(m) if len(m) > 2 else None
            if root is not None:
                q, _ = _divide(m, root)
                half = tuple(x / _divide(q, root)[1] for x in krylov.mul_vec(q))
                return half, tuple(x - y for x, y in zip(f, half))
            if len(m) - 1 == cf.dim <= 3:
                return None
        raise ValueError("split needs factoring")

    final, stack = [], [A.unit]
    while stack:
        f = stack.pop()
        halves = split(f)
        if halves is None:
            final.append(Subspace.from_vectors(
                A.dim, [A.multiply(A.basis_vector(i), f) for i in range(A.dim)]))
        else:
            stack += halves
    return sorted(final, key=lambda s: (s.dim, s.mat.data))
