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
