import random
from fractions import Fraction

import pytest

from gradedalg.algebra import GradedAlgebra
from gradedalg.builders import matrix_algebra_z2
from gradedalg.errors import DimensionMismatchError, ValidationError
from gradedalg.exactlin import (Mat, Reducer, Subspace, kernel, rank,
                                solve, invert, subspace_intersection,
                                subspace_sum, is_zero_vector)
from gradedalg.groups import TrivialGroup
from gradedalg.hopf import DualFunctional, dual_action
from gradedalg.identities import MultilinearGradedPoly
from tests.corpus import random_matrices
from tests.dense import matmul
from tests.oracles import bareiss_rank

F = Fraction


def first_nonzero_columns(rows):
    return tuple(next(j for j, a in enumerate(r) if a != 0) for r in rows)


def test_rref_identity():
    m = Mat.identity(2)
    red = Reducer(m.cols, m.data)
    assert Mat(red.rows, cols=m.cols) == m
    assert red.dim == 2


def test_rref_proportional_rows():
    red = Reducer(2, [[1, 2], [2, 4]])
    assert red.dim == 1
    assert red.rows == [[F(1), F(2)]] and red.pivots == [0]


def test_rref_rank_matches_bareiss_oracle():
    rng = random.Random(101)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)]
        assert rank(Mat(rows)) == bareiss_rank(rows)
    for rows, nc in random_matrices(102):
        assert rank(Mat(rows, cols=nc)) == bareiss_rank(rows)


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = Mat([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) + kernel(m).dim == nc
    for rows, nc in random_matrices(103):
        m = Mat(rows, cols=nc)
        k = kernel(m)
        assert k.dim == nc - bareiss_rank(rows)
        assert k.pivots == first_nonzero_columns(k.basis_vectors())
        for v in k.basis_vectors():
            assert is_zero_vector(m.mul_vec(v))


def test_kernel_zero_matrix():
    assert kernel(Mat.zeros(3, 3)).dim == 3


def test_kernel_identity():
    assert kernel(Mat.identity(4)).is_zero()


def test_kernel_vectors_annihilate():
    m = Mat([[1, 1, 0]])
    k = kernel(m)
    assert k.dim == 2
    for v in k.basis_vectors():
        assert is_zero_vector(m.mul_vec(v))


def test_degenerate_shapes():
    assert rank(Mat([], cols=5)) == 0
    assert rank(Mat([[], [], []], cols=0)) == 0
    assert kernel(Mat([], cols=3)).dim == 3


def test_canonicity_of_subspaces():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_vectors(3, [(1, 2, 1), (2, 3, 1), (1, 0, -1)])
    assert a == b
    assert a.mat == b.mat
    assert a.pivots == b.pivots == (0, 1)


def test_sum_and_intersection_basics():
    e1 = Subspace.from_vectors(2, [(1, 0)])
    e2 = Subspace.from_vectors(2, [(0, 1)])
    assert subspace_sum(e1, e2) == Subspace.full(2)
    assert subspace_intersection(e1, e2).is_zero()
    assert subspace_sum(e1, e1) == e1
    assert subspace_intersection(e1, e1) == e1


def test_dimension_formula_random():
    rng = random.Random(42)
    for _ in range(100):
        a = Subspace.from_vectors(6, [[rng.randint(-3, 3) for _ in range(6)]
                                      for _ in range(rng.randint(0, 4))])
        b = Subspace.from_vectors(6, [[rng.randint(-3, 3) for _ in range(6)]
                                      for _ in range(rng.randint(0, 4))])
        assert (a + b).dim + (a & b).dim == a.dim + b.dim
        for v in (a & b).basis_vectors():
            assert a.contains(v) and b.contains(v)
        for s in (a, b, a + b, a & b):
            assert s.pivots == first_nonzero_columns(s.basis_vectors())


def test_ambient_mismatch():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(DimensionMismatchError):
        subspace_sum(a, b)
    with pytest.raises(DimensionMismatchError):
        subspace_intersection(a, b)


def test_contains_and_coords():
    s = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
    assert s.contains((1, 1, 2))
    assert not s.contains((0, 0, 1))
    assert s.coords((1, 1, 2)) == (F(1), F(1))
    assert s.coords((0, 0, 1)) is None


def test_solve_and_invert():
    m = Mat([[2, 1], [1, 1]])
    x = solve(m, (3, 2))
    assert m.mul_vec(x) == (F(3), F(2))
    assert solve(Mat([[1, 0], [1, 0]]), (1, 2)) is None
    inv = invert(m)
    assert matmul(inv, m) == Mat.identity(2)
    rng = random.Random(104)
    for rows, nc in random_matrices(105):
        m = Mat(rows, cols=nc)
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        for rhs in (m.mul_vec(x0), [rng.randint(-4, 4) for _ in rows]):
            x = solve(m, rhs)
            aug = [r + [b] for r, b in zip(rows, rhs)]
            assert (x is not None) == (bareiss_rank(aug) == bareiss_rank(rows))
            if x is not None:
                assert m.mul_vec(x) == tuple(rhs)
        if len(rows) == nc:
            if bareiss_rank(rows) < nc:
                with pytest.raises(DimensionMismatchError):
                    invert(m)
            else:
                assert matmul(invert(m), m) == Mat.identity(nc)


def test_exactness_with_awkward_fractions():
    m = Mat([[F(1, 3), F(1, 7)], [F(2, 3), F(2, 7)]])
    assert rank(m) == 1


def test_reducer_input_stays_exact():
    red = Reducer(3)
    assert red.insert([3, 1, 1]) == (F(1), F(1, 3), F(1, 3))    # the new row
    assert red.insert([6, 2, 2]) is None                          # already spanned
    basis = Subspace.from_vectors(2, [(3, 1)]).basis_vectors()
    assert red.rows == [[F(1), F(1, 3), F(1, 3)]] and basis == ((F(1), F(1, 3)),)
    assert all(type(a) is Fraction for a in red.rows[0] + list(basis[0]))


def test_reducer_replaces_rows_it_reduces():
    red = Reducer(3, [[1, 1, 0]])
    held = red.rows[0]
    assert red.insert([0, 1, 1]) == (0, 1, 1)
    assert held == [1, 1, 0]                      # the row list a caller holds
    assert red.rows == [[1, 0, -1], [0, 1, 1]]    # the reducer's rows moved on


@pytest.mark.parametrize("build", [
    lambda: GradedAlgebra(TrivialGroup(), [TrivialGroup().identity()], {(0, 0, 0): 0.1}),
    lambda: GradedAlgebra(TrivialGroup(), [TrivialGroup().identity()], {(0, 0, 0): 1},
                          unit=(1.0,)),
    lambda: MultilinearGradedPoly(1, {((0,), (TrivialGroup().identity(),)): 0.5}),
    lambda: DualFunctional(TrivialGroup(), {TrivialGroup().identity(): 0.5}),
    lambda: Mat([[1, 0.5]]),
    lambda: Subspace.from_vectors(2, [(1, 0.5)]),
    lambda: dual_action(DualFunctional.delta(matrix_algebra_z2().support[0]),
                        (0.5, 0, 0, 0), matrix_algebra_z2()),
], ids=["structure-constant", "unit", "poly-coefficient", "functional-value",
        "mat-entry", "subspace-vector", "dual-action-vector"])
def test_float_input_is_rejected(build):
    with pytest.raises(ValidationError, match=r"0\.5|0\.1|1\.0"):
        build()
