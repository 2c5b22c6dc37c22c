"""Dense matrix product and trace, and the algebra product summed over the
structure constants: the references the tests check the library's matrices
(inverses, left multiplication, the Killing form), products and ideal
closures against."""

from fractions import Fraction

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
