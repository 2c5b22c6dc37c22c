"""Dense matrix product, inverse and trace on tuple rows, the algebra
product summed over the structure constants, Gauss-Jordan elimination over
full-width rows with its null space and solve, the associativity and Lie
checks as triple loops, and the radical, quotient and structure routines as
they were on dense Fraction vectors (a dense Gram or Killing matrix and its
null space, the ad-word span as dense n x n matrices, a quotient through
`invert`, the section lift, the degree-e centre and the idempotent split on
dense vectors): the references the tests check the library's products,
ideal closures, sparse elimination, constructor checks, Killing form,
radicals, quotients, complements and graded-simple components against.
Every elimination here is `DenseGaussJordan`, and every reference reads
the structure constants only through `A.constants()` (`constant_rows`), so
none depends on the layout of the table under test."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product

from gradedalg.algebra import GradedAlgebra, QuotientResult
from gradedalg.errors import DimensionMismatchError, InternalCheckError
from gradedalg.exactlin import Subspace, unit_vector
from gradedalg.radical import derived_series
from gradedalg.structure import _divide, _rational_root


def matmul(a, b) -> tuple:
    """The product of matrices given as sequences of rows; b has at least
    one row."""
    assert all(len(row) == len(b) for row in a), "matrix product shape mismatch"
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
                 for row in a)


def matvec(m, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def trace(m) -> Fraction:
    return sum((row[i] for i, row in enumerate(m) if i < len(row)), Fraction(0))


def identity(n: int) -> tuple:
    return tuple(unit_vector(n, i) for i in range(n))


def invert(m) -> tuple:
    """Inverse of a square matrix given by its rows; raises on singular
    input (a pivot of [m | I] beyond column n - 1)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatchError("only square matrices can be inverted")
    gj = DenseGaussJordan(2 * n)
    for row, e in zip(m, identity(n)):
        gj.insert(list(row) + list(e))
    if gj.pivots != list(range(n)):
        raise DimensionMismatchError("matrix is singular")
    return tuple(tuple(row[n:]) for row in gj.rows)


def constant_rows(A) -> dict:
    """{(i, j): [(k, c), ...]}: the nonzero c_ij^k of `A.constants()` by
    pair, in increasing k; an absent pair has e_i e_j = 0."""
    rows = {}
    for (i, j, k), c in A.constants().items():
        rows.setdefault((i, j), []).append((k, c))
    return rows


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


def null_space_dense(width: int, rows) -> Subspace:
    """{v : r . v = 0 for every r in rows}: for each free column f of the
    rows' Gauss-Jordan form, 1 at f and -row[f] at each row's pivot."""
    gj = DenseGaussJordan(width)
    for row in rows:
        gj.insert(row)
    vecs = []
    for f in range(width):
        if f not in gj.pivots:
            v = [Fraction(0)] * width
            v[f] = Fraction(1)
            for p, row in zip(gj.pivots, gj.rows):
                v[p] = -row[f]
            vecs.append(v)
    return Subspace.from_vectors(width, vecs)


def solve_dense(nunk: int, rows, rhs):
    """The solution of rows . x = rhs with free variables zero, read off the
    Gauss-Jordan form of [rows | rhs]; None when the rhs column is a pivot."""
    gj = DenseGaussJordan(nunk + 1)
    for row, b in zip(rows, rhs):
        gj.insert(list(row) + [b])
    if nunk in gj.pivots:
        return None
    x = [Fraction(0)] * nunk
    for p, row in zip(gj.pivots, gj.rows):
        x[p] = row[nunk]
    return x


def structure_failure(dim: int, constants: dict, kind: str = "associative",
                      degrees=None, unit=None):
    """The message of the first failing constructor check on the mapping
    {(i, j, k): c}, or None when all hold, from triple loops over dense
    Fraction vectors. With `degrees`, the grading comes first:
    deg k = deg i * deg j for every nonzero c_ij^k in index order.
    Associative: (e_i e_j) e_k = e_i (e_j e_k) for every (i, j, k) in index
    order. Lie: for each i in turn [e_i, e_i] = 0 and then antisymmetry with
    every j > i, and after those the Jacobi identity on every i < j < k.
    With a `unit` u, the unit law comes last: u e_b = e_b = e_b u for every
    b in index order."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), x in constants.items():
        c[i][j][k] = Fraction(x)
    if degrees is not None:
        for i, j, k in sorted(constants):
            if c[i][j][k] and degrees[k] != degrees[i] * degrees[j]:
                return (f"grading violated: c[{i}][{j}][{k}] != 0 but "
                        f"deg[{k}] differs from deg[{i}]*deg[{j}]")

    def mul(u, v):
        out = [Fraction(0)] * dim
        for a, x in enumerate(u):
            if x:
                for b, y in enumerate(v):
                    if y:
                        for m in range(dim):
                            out[m] += x * y * c[a][b][m]
        return out

    basis = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    if kind == "associative":
        for i, j, k in product(range(dim), repeat=3):
            if mul(c[i][j], basis[k]) != mul(basis[i], c[j][k]):
                return f"associativity fails on basis triple ({i},{j},{k})"
        if unit is not None:
            u = [Fraction(x) for x in unit]
            for b in range(dim):
                if mul(u, basis[b]) != basis[b] or mul(basis[b], u) != basis[b]:
                    return f"unit law fails on basis vector {b}"
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
    """The null space of the dense Gram matrix tr L(e_i e_j) = sum_k c_ij^k tr L(e_k),
    with tr L(e_k) = sum_j c_kj^j, all read off `A.constants()`."""
    constants = A.constants()
    t = [Fraction(0)] * A.dim
    gram = [[Fraction(0)] * A.dim for _ in range(A.dim)]
    for (k, j, m), c in constants.items():
        if j == m:
            t[k] += c
    for (i, j, k), c in constants.items():
        gram[i][j] += c * t[k]
    return null_space_dense(A.dim, gram)


def ad_matrices(L) -> list:
    """ad e_i as dense n x n row tuples: entry (k, j) is the coefficient of
    e_k in [e_i, e_j], read off `L.constants()`."""
    ads = [[[Fraction(0)] * L.dim for _ in range(L.dim)] for _ in range(L.dim)]
    for (i, j, k), c in L.constants().items():
        ads[i][k][j] = c
    return [tuple(map(tuple, m)) for m in ads]


def killing_form_dense(L) -> tuple:
    """tr(ad e_i . ad e_j) as row tuples, from dense matrix products."""
    ads = ad_matrices(L)
    return tuple(tuple(trace(matmul(ads[i], ads[j])) for j in range(L.dim))
                 for i in range(L.dim))


def solvable_radical_dense(L) -> Subspace:
    """The null space of the dense rows K d, K the Killing matrix, d over a
    basis of [L, L] spanned by the dense products [e_i, e_j]."""
    derived = DenseGaussJordan(L.dim)
    for i in range(L.dim):
        for j in range(L.dim):
            derived.insert(dense_multiply(L, L.basis_vector(i), L.basis_vector(j)))
    K = killing_form_dense(L)
    return null_space_dense(L.dim, [matvec(K, d) for d in derived.rows])


def nilradical_dense(L) -> Subspace:
    """The null space of the rows (tr(ad e_i . y))_i, y over a basis of the
    ad-word span, closed under left multiplication by each ad e_i as dense
    n x n matrices."""
    n = L.dim
    ads = ad_matrices(L)
    span = DenseGaussJordan(n * n)
    work, basis = list(ads), []
    while work:
        y = work.pop()
        if span.insert([x for row in y for x in row]) is not None:
            basis.append(y)
            work += [matmul(a, y) for a in ads]
    return null_space_dense(n, [[trace(matmul(a, y)) for a in ads] for y in basis])


def quotient_dense(A, ideal) -> QuotientResult:
    """A/I on the greedy standard-vector complement, its projection the last
    rows of the inverse of [ideal basis; chosen unit vectors]^T."""
    gj = DenseGaussJordan(A.dim)
    for r in ideal.basis_vectors():
        gj.insert(r)
    chosen = [i for i in range(A.dim) if gj.insert(unit_vector(A.dim, i)) is not None]
    rows = list(ideal.basis_vectors()) + [unit_vector(A.dim, i) for i in chosen]
    binv = invert(tuple(zip(*rows))) if rows else ()
    proj = binv[ideal.dim:]
    proj_cols = list(zip(*proj)) if proj else [()] * A.dim
    structure, table = {}, constant_rows(A)
    for a, i in enumerate(chosen):
        for b, j in enumerate(chosen):
            acc = [Fraction(0)] * len(chosen)
            for k, c in table.get((i, j), ()):
                _axpy(acc, c, proj_cols[k])
            structure.update({(a, b, r): x for r, x in enumerate(acc) if x != 0})
    unit = matvec(proj, A.unit) if A.unit is not None else None
    Q = GradedAlgebra(A.group, [A.degrees[i] for i in chosen], structure, kind=A.kind,
                      unit=unit, name=A.name + "/I" if A.name else "")
    return QuotientResult(Q, tuple(unit_vector(A.dim, i) for i in chosen), proj, tuple(chosen),
                          A.dim)


def _image_dense(Q, section, a, b) -> list:
    out = [Fraction(0)] * len(section[0])
    for k, mu in constant_rows(Q).get((a, b), ()):
        _axpy(out, mu, section[k])
    return out


def lift_section_dense(A, Q, section, ideal, below):
    """The section lift on dense vectors: each block projected from the whole
    ideal basis, one dense column per unknown, one `solve_dense`."""
    blocks, offsets, nunk = [], [], 0
    for g in Q.degrees:
        comp = Subspace.from_vectors(A.dim, [
            tuple(x if A.degrees[i] == g else Fraction(0) for i, x in enumerate(v))
            for v in ideal.basis_vectors()])
        blocks.append(comp.basis_vectors())
        offsets.append(nunk)
        nunk += comp.dim
    rows, rhs, table = [], [], constant_rows(Q)
    for a, sa in enumerate(section):
        for b, sb in enumerate(section):
            cols = [[Fraction(0)] * A.dim for _ in range(nunk)]
            for u, t in enumerate(blocks[b]):
                _axpy(cols[offsets[b] + u], 1, A.multiply(sa, t))
            for u, t in enumerate(blocks[a]):
                _axpy(cols[offsets[a] + u], 1, A.multiply(t, sb))
            for k, mu in table.get((a, b), ()):
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
    sol = solve_dense(nunk, rows, rhs)
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
    table = constant_rows(A)
    for i in A.component_indices(e):
        for b in range(A.dim):
            for terms, sign in ((table.get((i, b), ()), 1), (table.get((b, i), ()), -1)):
                for k, c in terms:
                    rows.setdefault((b, k), [Fraction(0)] * A.dim)[i] += sign * c
    centre = null_space_dense(A.dim, list(rows.values()))

    def minimal_polynomial(f, c):
        powers, red, p = [f], DenseGaussJordan(A.dim), c
        red.insert(f)
        while red.insert(p) is not None:
            powers.append(p)
            p = A.multiply(p, c)
        krylov = tuple(zip(*powers))
        return [-a for a in solve_dense(len(powers), krylov, p)] + [Fraction(1)], krylov

    def split(f):
        cf = Subspace.from_vectors(A.dim, [A.multiply(z, f) for z in centre.basis_vectors()])
        if cf.dim == 1:
            return None
        for c in cf.basis_vectors():
            m, krylov = minimal_polynomial(f, c)
            root = _rational_root(m) if len(m) > 2 else None
            if root is not None:
                q, _ = _divide(m, root)
                half = tuple(x / _divide(q, root)[1] for x in matvec(krylov, q))
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
    return sorted(final, key=lambda s: (s.dim, s.basis_vectors()))
