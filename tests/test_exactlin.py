import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedalg.algebra import GradedAlgebra, algebra_on_subspace, quotient_algebra
from gradedalg.builders import matrix_algebra_z2
from gradedalg.errors import DimensionMismatchError, ValidationError
from gradedalg.exactlin import (Reducer, Subspace, as_rat, dense, div, null_space,
                                solve_rows, sparse, subspace_intersection, subspace_sum,
                                is_zero_vector)
from gradedalg.groups import TrivialGroup
from gradedalg.hopf import DualFunctional, dual_action
from gradedalg.identities import MultilinearGradedPoly
from tests.corpus import random_matrices
from tests.dense import DenseGaussJordan, identity, invert, matmul, matvec
from tests.oracles import bareiss_rank

F = Fraction


def first_nonzero_columns(rows):
    return tuple(next(j for j, a in enumerate(r) if a != 0) for r in rows)


def test_rref_identity():
    red = Reducer(2, identity(2))
    assert red.rows == [[1, 0], [0, 1]]
    assert red.dim == 2


def test_rref_proportional_rows():
    red = Reducer(2, [[1, 2], [2, 4]])
    assert red.dim == 1
    assert red.rows == [[F(1), F(2)]] and red.pivots == [0]


def test_rref_rank_matches_bareiss_oracle():
    rng = random.Random(101)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)]
        assert Reducer(7, rows).dim == bareiss_rank(rows)
    for rows, nc in random_matrices(102):
        assert Reducer(nc, rows).dim == bareiss_rank(rows)


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert Reducer(nc, m).dim + null_space(nc, m).dim == nc
    for rows, nc in random_matrices(103):
        k = null_space(nc, rows)
        assert k.dim == nc - bareiss_rank(rows)
        assert k.pivots == first_nonzero_columns(k.basis_vectors())
        for v in k.basis_vectors():
            assert is_zero_vector(matvec(rows, v))
        assert null_space(nc, [sparse(r) for r in rows]) == k


def test_kernel_zero_matrix():
    assert null_space(3, [[0] * 3] * 3).dim == 3


def test_kernel_identity():
    assert null_space(4, identity(4)).is_zero()


def test_kernel_vectors_annihilate():
    m = [[1, 1, 0]]
    k = null_space(3, m)
    assert k.dim == 2
    for v in k.basis_vectors():
        assert is_zero_vector(matvec(m, v))


def test_degenerate_shapes():
    assert Reducer(5, []).dim == 0
    assert Reducer(0, [[], [], []]).dim == 0
    assert null_space(3, []).dim == 3
    assert null_space(0, []).is_zero() and Subspace.zero(0).basis_vectors() == ()


def test_canonicity_of_subspaces():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_vectors(3, [(1, 2, 1), (2, 3, 1), (1, 0, -1)])
    assert a == b
    assert a.basis_vectors() == b.basis_vectors()
    assert a.basis_vectors() is a.basis_vectors()      # built once
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
    m = [[2, 1], [1, 1]]
    x = solve_rows(2, [[2, 1, 3], [1, 1, 2]])
    assert matvec(m, x) == (F(3), F(2))
    assert solve_rows(2, [{0: 1, 2: 1}, {0: 1, 2: 2}]) is None      # x_0 = 1 and x_0 = 2
    inv = invert(m)
    assert matmul(inv, m) == identity(2)
    rng = random.Random(104)
    for rows, nc in random_matrices(105):
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        for rhs in (matvec(rows, x0), [rng.randint(-4, 4) for _ in rows]):
            aug = [r + [b] for r, b in zip(rows, rhs)]
            x = solve_rows(nc, aug)
            assert (x is not None) == (bareiss_rank(aug) == bareiss_rank(rows))
            if x is not None:
                assert matvec(rows, x) == tuple(rhs)
                assert solve_rows(nc, [sparse(r) for r in aug]) == x
        if len(rows) == nc:
            if bareiss_rank(rows) < nc:
                with pytest.raises(DimensionMismatchError):
                    invert(rows)
            else:
                assert matmul(invert(rows), rows) == identity(nc)


def test_exactness_with_awkward_fractions():
    assert Reducer(2, [[F(1, 3), F(1, 7)], [F(2, 3), F(2, 7)]]).dim == 1


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


# mostly zero: three of the four branches give 0
ENTRY = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5))


@st.composite
def sparse_matrices(draw):
    """(width, rows, probes): mostly-zero integer rows to insert, in random
    order, and vectors to test against their span, some of them in it."""
    width = draw(st.integers(1, 8))
    vec = st.lists(ENTRY, min_size=width, max_size=width)
    rows = draw(st.lists(vec, max_size=9))
    probes = draw(st.lists(vec, max_size=4))
    for row, c in zip(rows, draw(st.lists(st.integers(-2, 2), max_size=3))):
        probes.append([c * a for a in row])
    return width, draw(st.permutations(rows)), probes


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_reducer_matches_dense_gauss_jordan(case):
    width, rows, probes = case
    red, ref = Reducer(width), DenseGaussJordan(width)
    for i, row in enumerate(rows):
        given_sparse = i % 2 == 1          # every other row as a sparse dict
        got = red.insert(sparse(row) if given_sparse else row)
        want = ref.insert(row)
        if want is None:
            assert got is None
        elif given_sparse:
            assert type(got) is dict and 0 not in got.values()
            assert dense(got, width) == want
        else:
            assert got == tuple(want)
        assert red.rows == ref.rows and red.pivots == ref.pivots
    assert all(type(a) is Fraction for row in red.rows for a in row)
    assert all(type(a) in (int, Fraction) for row in red.pivot_rows.values() for a in row.values())
    s = red.subspace()
    assert s.basis_vectors() == tuple(map(tuple, ref.rows)) and list(s.pivots) == ref.pivots
    for v in probes:
        for form in (v, sparse(v)):
            res = s.residual(form)
            want = ref.residual(v)
            assert (dense(res, width) if isinstance(form, dict) else list(res)) == want
            assert s.contains(form) == (not any(want))
            assert s.coords(form) == ref.coords(v)


RATIONAL = st.one_of(st.integers(-60, 60),
                     st.fractions(min_value=-20, max_value=20, max_denominator=12))


@settings(max_examples=300, deadline=None)
@given(RATIONAL, RATIONAL.filter(bool))
@example(-12, 4).via("divides, negative")
@example(12, -5).via("no int quotient")
@example(F(9, 2), F(3, 2)).via("Fractions with an integral quotient")
@example(F(6), 4).via("an integral Fraction over an int")
@example(0, F(-2, 3)).via("zero")
def test_div_is_exact_and_an_int_when_it_can_be(a, b):
    q = div(a, b)
    assert q == Fraction(a, b)
    assert type(q) is (int if Fraction(a, b).denominator == 1 else Fraction)
    assert type(as_rat(Fraction(a, b))) is type(q)


def test_sparse_input_stays_exact():
    red = Reducer(3)
    assert red.insert({0: 0, 2: 3}) == {2: 1}                  # zeros are dropped
    with pytest.raises(ValidationError, match=r"0\.5"):
        red.insert({1: 0.5})
    with pytest.raises(ValidationError):
        Subspace.full(3).contains({0: 1.0})
    for bad in ({1: True}, [0, True, 0]):      # a bool is no exact rational
        with pytest.raises(ValidationError, match="True"):
            red.insert(bad)
    for bad in ({3: 1}, {-1: 1}, {"0": 1}):
        with pytest.raises(DimensionMismatchError):
            red.insert(bad)
    assert red.pivots == [2]
    # the dense entry points of the algebra and dual-action layers refuse
    # floats and give dense Fractions for int input
    A = matrix_algebra_z2()
    g0 = A.degrees[0]
    entry_points = [
        A.trace_of_left_mult,
        lambda v: dual_action(DualFunctional.delta(g0), v, A),
        lambda v: dual_action(DualFunctional.all_ones(A.group, A.support), v, A),
        quotient_algebra(A, Subspace.zero(A.dim)).project,
        algebra_on_subspace(A, Subspace.full(A.dim)).include,
    ]
    for entry_point in entry_points:
        with pytest.raises(ValidationError, match=r"0\.5"):
            entry_point((0.5, 0.25, 0, 1))
        out = entry_point((3, 0, 0, 1))
        assert all(type(x) is Fraction for x in (out if isinstance(out, tuple) else (out,)))
    assert A.trace_of_left_mult((3, 0, 0, 1)) == 8             # tr L(e_11) = tr L(e_22) = 2
    assert dual_action(DualFunctional.delta(g0), (3, 0, 0, 1), A) == (3, 0, 0, 1)


def test_sparse_insert_touches_only_nonzero_columns():
    """1,000 one-nonzero rows of width 20,000: about 2e7 Fraction operations
    for an elimination over the full width, milliseconds for a sparse one."""
    width, cols = 20_000, [(7919 * i) % 20_000 for i in range(1000)]
    red = Reducer(width)
    t0 = time.perf_counter()
    for i, col in enumerate(cols):
        assert red.insert({col: i + 1}) == {col: 1}
    assert time.perf_counter() - t0 < 3
    assert red.dim == 1000 and red.pivots == sorted(cols)


@pytest.mark.parametrize("build", [
    lambda: GradedAlgebra(TrivialGroup(), [TrivialGroup().identity()], {(0, 0, 0): 0.1}),
    lambda: GradedAlgebra(TrivialGroup(), [TrivialGroup().identity()], {(0, 0, 0): 1},
                          unit=(1.0,)),
    lambda: MultilinearGradedPoly(1, {((0,), (TrivialGroup().identity(),)): 0.5}),
    lambda: DualFunctional(TrivialGroup(), {TrivialGroup().identity(): 0.5}),
    lambda: null_space(2, [[1, 0.5]]),
    lambda: Subspace.from_vectors(2, [(1, 0.5)]),
    lambda: dual_action(DualFunctional.delta(matrix_algebra_z2().support[0]),
                        (0.5, 0, 0, 0), matrix_algebra_z2()),
], ids=["structure-constant", "unit", "poly-coefficient", "functional-value",
        "mat-entry", "subspace-vector", "dual-action-vector"])
def test_float_input_is_rejected(build):
    with pytest.raises(ValidationError, match=r"0\.5|0\.1|1\.0"):
        build()
