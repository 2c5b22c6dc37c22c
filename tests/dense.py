"""Dense matrix product and trace, the algebra product summed over the
structure constants, Gauss-Jordan elimination over full-width rows, and the
associativity and Lie checks as triple loops: the references the tests check
the library's matrices (inverses, left multiplication, the Killing form),
products, ideal closures, sparse elimination and constructor checks
against."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product

from gradedalg.exactlin import Mat, Subspace


def matmul(a: Mat, b: Mat) -> Mat:
    assert a.cols == b.rows, "matrix product shape mismatch"
    cols = b.transpose().data
    return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                for row in a.data], cols=b.cols)


def trace(m: Mat) -> Fraction:
    return sum((m.data[i][i] for i in range(min(m.rows, m.cols))), Fraction(0))


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
