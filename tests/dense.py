"""Dense matrix product and trace, the reference the tests check the library's
matrices against (inverses, left multiplication, the Killing form)."""

from fractions import Fraction

from gradedalg.exactlin import Mat


def matmul(a: Mat, b: Mat) -> Mat:
    assert a.cols == b.rows, "matrix product shape mismatch"
    cols = b.transpose().data
    return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                for row in a.data], cols=b.cols)


def trace(m: Mat) -> Fraction:
    return sum((m.data[i][i] for i in range(min(m.rows, m.cols))), Fraction(0))


def is_ideal_dense(A, s) -> bool:
    """The two-sided ideal test with dense products: e_b v and v e_b through
    `multiply` for every basis vector v of s and every b, each checked with
    `contains`."""
    for v in s.basis_vectors():
        for b in range(A.dim):
            eb = A.basis_vector(b)
            if not s.contains(A.multiply(eb, v)) or not s.contains(A.multiply(v, eb)):
                return False
    return True
