"""The radical, quotient and structure layers work on sparse rows read off
the structure table; the dense routines in `tests.dense` are what they replaced.
Both must give identical radicals, quotients, complements and components:
each is read off a canonical RREF, so agreement is exact equality. The
sparse layers must also not fall back on dense products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedalg
from gradedalg import builders
from gradedalg.algebra import (GradedAlgebra, algebra_on_subspace, graded_check,
                               quotient_algebra)
from gradedalg.exactlin import Reducer, Subspace, null_space
from gradedalg.groups import CyclicGroup, TrivialGroup
from gradedalg.radical import jacobson_radical, killing_form, nilradical, solvable_radical
from gradedalg.structure import (levi_graded, malcev_complement_graded,
                                 wedderburn_artin_graded)
from tests.corpus import (_random_homogeneous, associative_corpus, has_non_integral_constant,
                          lie_corpus, rescaled)
from tests.dense import (dense_multiply, graded_complement_dense, identity,
                         jacobson_radical_dense, killing_form_dense, nilradical_dense,
                         quotient_dense, solvable_radical_dense, trace, wedderburn_dense)

F = Fraction
SCALES = [F(1, 2), F(-2, 3), F(3), F(5, 7), F(-1)]


def _greedy_complement(ideal: Subspace) -> tuple:
    """e_i is chosen iff it is outside the ideal plus the e_j chosen before it."""
    red = Reducer(ideal.ambient, ideal.pivot_rows.values())
    return tuple(i for i in range(ideal.ambient) if red.insert({i: F(1)}))


def _assert_same_quotient(A, ideal):
    got, want = quotient_algebra(A, ideal), quotient_dense(A, ideal)
    assert got.indices == want.indices == _greedy_complement(ideal)
    assert got.section == want.section
    assert got.projection == want.projection
    Q, R = got.algebra, want.algebra
    assert Q.constants() == R.constants()
    assert Q.degrees == R.degrees and Q.unit == R.unit and Q.name == R.name


def _left_trace_dense(A, a):
    """tr L(a), L(a) as the dense matrix of the products a e_j."""
    return trace([dense_multiply(A, a, e) for e in identity(A.dim)])


def _test_ideals(A, J, rng):
    """J, J^2 and two ideals generated by random homogeneous vectors."""
    ideals = [J, A.product_span(J, J)]
    for _ in range(2):
        ideals.append(A.ideal_generated([_random_homogeneous(rng, A, rng.choice(A.support))]))
    return ideals


def _matches_the_dense_routines(A, rng) -> bool:
    """The traces tr L(e_i) and tr L(v) of one random v, J, four quotients,
    and for unital A the Mal'cev complement and the graded-simple components
    of the semisimple part, against the dense routines; whether A is unital.
    v has a generator of its own, so rng draws what it drew before."""
    v = tuple(F(x) for x in random.Random(A.dim).choices(range(-3, 4), k=A.dim))
    assert (A.left_mult_traces, A.trace_of_left_mult(v)) == (
        tuple(_left_trace_dense(A, e) for e in identity(A.dim)), _left_trace_dense(A, v)), A.name
    J = jacobson_radical(A)
    assert J == jacobson_radical_dense(A), A.name
    for ideal in _test_ideals(A, J, rng):
        _assert_same_quotient(A, ideal)
    if A.unit is None:
        return False
    B = malcev_complement_graded(A)
    assert B == graded_complement_dense(A, J), A.name
    semi = A if J.is_zero() else algebra_on_subspace(A, B).algebra
    assert wedderburn_artin_graded(semi).components == wedderburn_dense(semi), A.name
    return True


def test_associative_corpus_matches_the_dense_routines():
    rng = random.Random(2121)
    corpus = associative_corpus()
    unital = sum(_matches_the_dense_routines(A, rng) for A in corpus)
    assert len(corpus) == 209 and unital == 201


def test_rebased_corpus_matches_the_dense_routines():
    # the corpus bases make most products single basis vectors; on a
    # rescaled and sheared basis they are sums with fractional constants
    rng = random.Random(2122)
    rebased = [rescaled(A, [rng.choice(SCALES) for _ in range(A.dim)], rng.choice([0, F(1, 2)]))
               for A in associative_corpus()[::3] if A.unit is not None]
    assert len(rebased) == 69
    assert sum(map(has_non_integral_constant, rebased)) == 58
    for B in rebased:
        assert _matches_the_dense_routines(B, rng)


def _lie_matches_the_dense_routines(L):
    R, N = solvable_radical(L), nilradical(L)
    assert killing_form(L) == killing_form_dense(L), L.name
    assert R == solvable_radical_dense(L) and N == nilradical_dense(L), L.name
    _assert_same_quotient(L, R)
    assert levi_graded(L) == graded_complement_dense(L, R), L.name


def test_lie_corpus_matches_the_dense_routines():
    for L in lie_corpus():
        _lie_matches_the_dense_routines(L)


def test_rebased_lie_corpus_matches_the_dense_routines():
    # every Lie corpus member has integer constants; on a rescaled and
    # sheared basis some are not, so the Killing rows hold Fractions
    rng = random.Random(2123)
    rebased = [rescaled(L, [rng.choice(SCALES) for _ in range(L.dim)], shear)
               for L in lie_corpus() for shear in (0, F(1, 2))]
    assert not any(map(has_non_integral_constant, lie_corpus()))
    assert len(rebased) == 16 and all(map(has_non_integral_constant, rebased))
    for B in rebased:
        _lie_matches_the_dense_routines(B)


def test_quotient_complement_is_greedy_not_the_ideals_non_pivots():
    # every subspace of an algebra with zero product is an ideal; for
    # I = span(e_0 + e_1) the class of e_0 is nonzero, so the greedy
    # complement is [0], while I's only non-pivot column is 1
    t = TrivialGroup()
    A = GradedAlgebra(t, [t.identity()] * 2, {})
    ideal = Subspace.from_vectors(2, [(1, 1)])
    assert ideal.pivots == (0,)
    q = quotient_algebra(A, ideal)
    assert q.indices == (0,) == _greedy_complement(ideal)
    assert q.projection == ((F(1), F(-1)),)      # e_1 = -e_0 modulo I
    _assert_same_quotient(A, ideal)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(degrees=st.lists(st.integers(0, 2), min_size=1, max_size=7), data=st.data())
def test_quotient_pivots_are_the_greedy_complement(degrees, data):
    # zero product, graded by Z3: every graded subspace is an ideal, so the
    # ideals are spans of random homogeneous vectors
    G = CyclicGroup(3)
    A = GradedAlgebra(G, [G.elem(d) for d in degrees], {})
    gens = []
    for _ in range(data.draw(st.integers(0, 4))):
        g = data.draw(st.sampled_from(A.support))
        gens.append(tuple(F(data.draw(st.integers(-2, 2))) if A.degrees[i] == g else F(0)
                          for i in range(A.dim)))
    ideal = Subspace.from_vectors(A.dim, gens)
    assert graded_check(ideal, A)[0]
    annihilator = null_space(A.dim, ideal.pivot_rows.values())
    assert annihilator.pivots == _greedy_complement(ideal)
    _assert_same_quotient(A, ideal)


def _ut4_z2():
    return builders.upper_triangular(4, CyclicGroup(2), (0, 1, 0, 1), name="ut4_z2")


@pytest.mark.parametrize("build", [_ut4_z2, lambda: builders.builtin("free_trunc_2_4")])
def test_no_dense_products_in_the_sparse_layers(monkeypatch, build):
    A = build()
    J = jacobson_radical(A)
    calls = []
    multiply = GradedAlgebra.multiply

    def counting(self, a, b):
        calls.append((a, b))
        return multiply(self, a, b)

    monkeypatch.setattr(GradedAlgebra, "multiply", counting)
    assert jacobson_radical(A, verify=False) == J
    quotient_algebra(A, J)
    malcev_complement_graded(A)
    assert calls == []
    # no matrix is inverted anywhere in the package
    assert not any(hasattr(getattr(gradedalg, m), "invert")
                   for m in ("exactlin", "algebra", "radical", "structure"))
