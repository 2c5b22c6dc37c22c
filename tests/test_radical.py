import random
from fractions import Fraction

import pytest

from gradedalg.algebra import (algebra_on_subspace, graded_closure, nilpotency_index,
                               quotient_algebra, unitalize)
from gradedalg.builders import (builtin, direct_sum, free_group_truncation,
                                fz2, lie_from_brackets, matrix_algebra,
                                matrix_algebra_z2, sl2, gl2_z2, heisenberg3,
                                two_dim_nonabelian_lie, upper_triangular, ut2)
from gradedalg.errors import InternalCheckError, ValidationError
from gradedalg.exactlin import Subspace, null_space, unit_vector
from gradedalg.groups import CyclicGroup, TrivialGroup
from gradedalg.radical import (derived_series, graded_check, graded_radical_report,
                               jacobson_radical, killing_form, nilradical,
                               solvable_radical)
from gradedalg.schema import digest
from tests.corpus import associative_corpus, commutator_corpus, lie_corpus
from tests.dense import killing_form_dense
from tests.oracles import brute_force_largest_nilpotent_ideal

F = Fraction


def test_jacobson_simple_algebra_is_zero():
    assert jacobson_radical(matrix_algebra_z2()).is_zero()
    assert jacobson_radical(matrix_algebra(2)).is_zero()
    assert jacobson_radical(fz2()).is_zero()


def test_jacobson_ut2():
    U = ut2()
    J = jacobson_radical(U)
    assert J == Subspace.from_vectors(3, [(0, 1, 0)])
    assert nilpotency_index(U, J) == 2


def test_jacobson_free_trunc():
    A = free_group_truncation(2, 3)
    J = jacobson_radical(A)
    assert J.dim == 6
    assert J == A.ideal_generated([A.basis_vector(1), A.basis_vector(2)])
    assert nilpotency_index(A, J) == 3
    q = quotient_algebra(A, J)
    assert jacobson_radical(q.algebra).is_zero()


def test_jacobson_rejects_lie():
    with pytest.raises(ValidationError):
        jacobson_radical(sl2())


def test_graded_closure_examples():
    M = matrix_algebra_z2()
    assert graded_closure(Subspace.full(4), M) == Subspace.full(4)
    w = Subspace.from_vectors(4, [(1, 1, 0, 0)])
    c = graded_closure(w, M)
    assert c.dim == 2
    ok, witness = graded_check(w, M)
    assert not ok and witness is not None and not w.contains(witness)


def test_radical_graded_on_builtins():
    for name in ("m2_z2", "ut2", "fz2", "free_trunc_2_3", "free_trunc_1_4"):
        A = builtin(name)
        J = jacobson_radical(A)
        assert graded_closure(J, A) == J


def test_killing_form_values():
    K = killing_form(sl2())
    det = (K[0][0] * (K[1][1] * K[2][2] - K[1][2] * K[2][1])
           - K[0][1] * (K[1][0] * K[2][2] - K[1][2] * K[2][0])
           + K[0][2] * (K[1][0] * K[2][1] - K[1][1] * K[2][0]))
    assert det != 0
    assert all(type(x) is Fraction for row in K for x in row)
    t = TrivialGroup()
    abelian = lie_from_brackets(t, [t.identity()] * 2, 2, {}, name="ab2")
    assert killing_form(abelian) == ((0, 0), (0, 0))
    assert killing_form(heisenberg3()) == ((0,) * 3,) * 3


def test_killing_form_invariance():
    rng = random.Random(11)
    for L in (sl2(), gl2_z2(), heisenberg3(), two_dim_nonabelian_lie()):
        K = killing_form(L)
        kf = lambda x, y: sum(a * sum(K[i][j] * b for j, b in enumerate(y))
                              for i, a in enumerate(x))
        for i in range(L.dim):
            for j in range(L.dim):
                for k in range(L.dim):
                    x, y, z = (L.basis_vector(t) for t in (i, j, k))
                    assert kf(L.multiply(x, y), z) == kf(x, L.multiply(y, z))


def test_solvable_radical_examples():
    assert solvable_radical(sl2()).is_zero()
    L = two_dim_nonabelian_lie()
    assert solvable_radical(L) == Subspace.full(2)
    G = gl2_z2()
    R = solvable_radical(G)
    assert R == Subspace.from_vectors(4, [(1, 0, 0, 1)])    # scalar matrices
    assert graded_check(R, G)[0]


def test_nilradical_examples():
    assert nilradical(sl2()).is_zero()
    L = two_dim_nonabelian_lie()
    assert nilradical(L) == Subspace.from_vectors(2, [(1, 0)])
    assert nilradical(heisenberg3()) == Subspace.full(3)
    G = gl2_z2()
    assert nilradical(G) == Subspace.from_vectors(4, [(1, 0, 0, 1)])


@pytest.fixture(scope="module")
def lie_algebras():
    return lie_corpus() + commutator_corpus()


def test_lie_radicals_golden(lie_algebras):
    # recorded while the nilradical was still read off the Jacobson radical
    # of the adjoint envelope, built as an abstract algebra
    assert len(lie_algebras) == 190
    bases = [[[str(x) for x in v] for v in s.basis_vectors()]
             for L in lie_algebras for s in (nilradical(L), solvable_radical(L))]
    assert digest(bases) == "1656df4e86c61cd852f257729bc9d7451f98e74892e39ad5bfa3a8b233fb155f"


def test_nilradical_matches_brute_force_oracle():
    small = [L for L in lie_corpus() if L.dim <= 4]
    assert len(small) == 5
    for L in small:
        assert nilradical(L) == brute_force_largest_nilpotent_ideal(L), L.name


def test_nilradical_is_not_the_killing_radical():
    # ad x rotates (v1, v2) and scales v3, v4 by 1, -1: ad x is not
    # nilpotent, yet tr(ad x . ad y) = 0 for every y, so only products of
    # ad-words separate x from the nilradical span(v1, .., v4)
    z2 = CyclicGroup(2)
    L = lie_from_brackets(z2, [0, 1, 1, 0, 1], 5,
                          {(0, 1): [(2, 1)], (0, 2): [(1, -1)], (0, 3): [(3, 1)],
                           (0, 4): [(4, -1)]}, name="rot+hyp")
    assert killing_form(L) == ((0,) * 5,) * 5
    N = nilradical(L)
    assert N == Subspace.from_vectors(5, [L.basis_vector(i) for i in range(1, 5)])
    assert N == brute_force_largest_nilpotent_ideal(L, entries=(-1, 0, 1))


def test_killing_form_matches_dense_ad_products(lie_algebras):
    for L in lie_algebras:
        assert killing_form(L) == killing_form_dense(L), L.name


def test_derived_series_and_solvability():
    L = two_dim_nonabelian_lie()
    series = derived_series(L, Subspace.full(2))
    assert [s.dim for s in series] == [2, 1, 0]


# subspaces whose derived series neither reaches 0 nor repeats its last
# term: the lines of diag(2^(2^k), 1) in M2, a period-2 cycle of lines in M2,
# and a 3-dimensional subspace of sl2 + sl2 whose coefficients grow without
# bound
NON_SOLVABLE_SUBSPACES = [
    (lambda: matrix_algebra(2), [(2, 0, 0, 1)]),
    (lambda: matrix_algebra(2), [(-2, -1, 1, -1)]),
    (lambda: direct_sum(sl2(), sl2()),
     [(-1, 1, 1, -1, 0, 1), (0, 1, 1, -1, 1, -1), (0, 0, 1, -1, -1, 1)]),
]


@pytest.mark.parametrize("build, rows", NON_SOLVABLE_SUBSPACES)
def test_derived_series_is_bounded_by_the_dimension(build, rows):
    A = build()
    series = derived_series(A, Subspace.from_vectors(A.dim, rows))
    assert len(series) <= A.dim + 2
    assert not series[-1].is_zero()


def _inserts_into_a_full_span(monkeypatch):
    # every `Reducer.insert` call made while the span is already everything
    import gradedalg.exactlin
    late = []
    insert = gradedalg.exactlin.Reducer.insert

    def spy(self, v):
        if self.dim == self.ambient:
            late.append(v)
        return insert(self, v)
    monkeypatch.setattr(gradedalg.exactlin.Reducer, "insert", spy)
    return late


def test_span_closures_stop_once_the_span_is_full(monkeypatch):
    from gradedalg.radical import _ad_operators, _ad_word_span
    M, L = matrix_algebra(2), sl2()
    late = _inserts_into_a_full_span(monkeypatch)
    assert M.subalgebra_generated([M.basis_vector(1), M.basis_vector(2)]) == Subspace.full(4)
    assert M.ideal_generated([M.basis_vector(1)]) == Subspace.full(4)
    assert len(_ad_word_span(3, _ad_operators(L)[0])) == 9       # ad sl2 spans End(sl2)
    assert late == []


def test_lie_reports():
    for L in lie_corpus():
        reports = graded_radical_report(L)
        kinds = {r.kind: r for r in reports}
        R, N = kinds["solvable"].radical, kinds["nilpotent"].radical
        assert kinds["solvable"].graded and kinds["nilpotent"].graded
        assert N <= R
        assert L.product_span(Subspace.full(L.dim), R) <= N


def test_associative_reports():
    for name in ("m2_z2", "ut2", "fz2", "free_trunc_2_3"):
        A = builtin(name)
        (rep,) = graded_radical_report(A)
        assert rep.kind == "jacobson"
        assert rep.graded


def test_trivial_grading_report():
    A = matrix_algebra(2)            # trivial group: gradedness is vacuous
    (rep,) = graded_radical_report(A)
    assert rep.graded


def test_report_raises_the_gradedness_witness(monkeypatch):
    # span(e11 + e12) mixes degrees 0 and 1 of m2_z2; its degree-0 projection
    # e11 escapes it, and the report must name that witness
    import gradedalg.radical
    M = matrix_algebra_z2()
    mixed = Subspace.from_vectors(4, [(1, 1, 0, 0)])
    monkeypatch.setattr(gradedalg.radical, "jacobson_radical", lambda A, verify=True: mixed)
    e11 = (F(1), F(0), F(0), F(0))
    with pytest.raises(InternalCheckError, match="not graded; witness") as exc:
        graded_radical_report(M)
    assert str(e11) in str(exc.value)


@pytest.mark.parametrize("radical, name", [("solvable_radical", "solvable radical"),
                                            ("nilradical", "nilradical")])
def test_lie_report_names_the_radical_that_is_not_graded(radical, name, monkeypatch):
    # span(x + y) mixes the degrees of heis3's x and y; its projection x
    # escapes it, and the report names the radical and that witness
    import gradedalg.radical
    mixed = Subspace.from_vectors(3, [(1, 1, 0)])
    monkeypatch.setattr(gradedalg.radical, radical, lambda L, verify=True: mixed)
    with pytest.raises(InternalCheckError) as exc:
        graded_radical_report(heisenberg3())
    assert str(exc.value) == f"{name} not graded; witness {(F(1), F(0), F(0))}"


def test_brute_force_oracle_small_instances():
    cases = [
        ut2(),
        fz2(),
        matrix_algebra(2),
        free_group_truncation(2, 2),
        free_group_truncation(1, 3),
        upper_triangular(2),
        direct_sum(fz2(), fz2()),
    ]
    for A in cases:
        assert A.dim <= 4
        J = jacobson_radical(A)
        assert brute_force_largest_nilpotent_ideal(A) == J


def test_radical_of_quotient_vanishes_and_nilpotent():
    rng = random.Random(12)
    A = free_group_truncation(2, 3)
    for _ in range(5):
        g = rng.choice(A.support[1:])
        v = [F(0)] * A.dim
        for i in A.component_indices(g):
            v[i] = F(rng.randint(-2, 2))
        ideal = A.ideal_generated([tuple(v)])
        if not 0 < ideal.dim < A.dim:
            continue
        Q = quotient_algebra(A, ideal).algebra
        J = jacobson_radical(Q)
        assert nilpotency_index(Q, J) is not None
        assert jacobson_radical(quotient_algebra(Q, J).algebra).is_zero()


def test_solvable_radical_of_lie_quotient():
    G = gl2_z2()
    R = solvable_radical(G)
    q = quotient_algebra(G, R)
    assert solvable_radical(q.algebra).is_zero()


def test_radical_of_nilpotent_nonunital_algebra_is_everything():
    from gradedalg.algebra import algebra_on_subspace
    A = free_group_truncation(2, 3)
    J = jacobson_radical(A)
    B = algebra_on_subspace(A, J, name="J").algebra
    assert B.unit is None
    assert jacobson_radical(B) == Subspace.full(B.dim)


def test_graded_check_agrees_with_the_graded_closure():
    # spans of homogeneous vectors (graded), of mixed vectors and of both;
    # a failing check must name a homogeneous witness outside w
    rng = random.Random(2024)
    for A in associative_corpus() + lie_corpus():
        for _ in range(4):
            vecs = []
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(A.support)
                vecs.append(tuple(F(rng.randint(-2, 2)) if A.degrees[i] == g else F(0)
                                  for i in range(A.dim)))
            for _ in range(rng.randint(0, 2)):
                vecs.append(tuple(F(rng.randint(-2, 2)) for _ in range(A.dim)))
            w = Subspace.from_vectors(A.dim, vecs)
            ok, witness = graded_check(w, A)
            assert ok == (graded_closure(w, A) == w), A.name
            assert (witness is None) == ok
            if not ok:
                assert A.degree_of(witness) is not None and not w.contains(witness)


def test_non_unital_jacobson_radical_matches_the_unitalization():
    # reference: J of A + Q.1, intersected with A = the first dim A coordinates
    corpus = associative_corpus()
    non_unital = [A for A in corpus if A.unit is None]
    for A in corpus[:30]:
        J = jacobson_radical(A)
        if not J.is_zero():
            N = algebra_on_subspace(A, J, name="J").algebra
            non_unital += [N, direct_sum(A, N)]
    assert len(non_unital) == 44
    for A in non_unital:
        assert A.unit is None
        B = unitalize(A)
        amb = Subspace.from_vectors(B.dim, [unit_vector(B.dim, i) for i in range(A.dim)])
        inter = jacobson_radical(B) & amb
        want = Subspace.from_vectors(A.dim, [r[:A.dim] for r in inter.basis_vectors()])
        assert jacobson_radical(A) == want, A.name


def _first_kernel_returns(monkeypatch, rows, dim):
    # the first `null_space` call of each radical builds its candidate; later
    # calls (the radical of the quotient) stay exact
    import gradedalg.radical
    calls = []

    def fake(ambient, equations):
        calls.append(ambient)
        if len(calls) == 1:
            return Subspace.from_vectors(dim, rows)
        return null_space(ambient, equations)
    monkeypatch.setattr(gradedalg.radical, "null_space", fake)


# ut3 basis: e11, e12, e13, e22, e23, e33; free_trunc_2_3: 1, a, b, aa, ab,
# ba, bb; sl2: e, h, f; heis3: x, y, z with deg x != deg y; aff1: [x, y] = x
_E = unit_vector
POST_CHECK_FAILURES = [
    pytest.param(jacobson_radical, lambda: upper_triangular(3), [_E(6, i) for i in range(6)],
                 "Jacobson radical candidate is not nilpotent", id="J-not-nilpotent-ut3"),
    pytest.param(jacobson_radical, lambda: upper_triangular(3), [_E(6, 1)],
                 "Jacobson radical candidate is not an ideal", id="J-not-ideal-ut3"),
    pytest.param(jacobson_radical, lambda: free_group_truncation(2, 3),
                 [(0, 1, 1, 0, 0, 0, 0)] + [_E(7, i) for i in range(3, 7)],
                 "Jacobson radical is not graded; witness " + str(_E(7, 1)),
                 id="J-not-graded-free_trunc_2_3"),
    pytest.param(jacobson_radical, lambda: upper_triangular(3), [_E(6, 2)],
                 "quotient by the Jacobson radical is not semisimple",
                 id="J-quotient-not-semisimple-ut3"),
    pytest.param(solvable_radical, sl2, [_E(3, i) for i in range(3)],
                 "solvable radical candidate is not solvable", id="R-not-solvable-sl2"),
    pytest.param(solvable_radical, sl2, [_E(3, 1)],
                 "solvable radical candidate is not an ideal", id="R-not-ideal-sl2"),
    pytest.param(solvable_radical, heisenberg3, [(1, 1, 0), (0, 0, 1)],
                 "solvable radical is not graded; witness " + str(_E(3, 0)),
                 id="R-not-graded-heisenberg3"),
    pytest.param(solvable_radical, two_dim_nonabelian_lie, [(1, 0)],
                 "quotient by the solvable radical is not semisimple",
                 id="R-quotient-not-semisimple-aff1"),
    pytest.param(nilradical, two_dim_nonabelian_lie, [(1, 0), (0, 1)],
                 "nilradical candidate is not nilpotent", id="N-not-nilpotent-aff1"),
    pytest.param(nilradical, sl2, [_E(3, 0)],
                 "nilradical candidate is not an ideal", id="N-not-ideal-sl2"),
    pytest.param(nilradical, heisenberg3, [(1, 1, 0), (0, 0, 1)],
                 "nilradical is not graded; witness " + str(_E(3, 0)),
                 id="N-not-graded-heisenberg3"),
    pytest.param(solvable_radical, lambda: direct_sum(sl2(), sl2()),
                 NON_SOLVABLE_SUBSPACES[2][1], "solvable radical candidate is not solvable",
                 id="R-not-solvable-sl2+sl2"),
]


@pytest.mark.parametrize("radical, build, proper", [
    (jacobson_radical, lambda: upper_triangular(3), True),
    (jacobson_radical, matrix_algebra_z2, False),
    (solvable_radical, gl2_z2, True),
    (nilradical, two_dim_nonabelian_lie, True),
])
def test_post_check_tests_a_proper_radical_for_an_ideal_once(monkeypatch, radical, build, proper):
    # `_post_check` tests a proper radical for being an ideal once and then
    # builds the quotient without the input checks of `quotient_algebra`
    import gradedalg.algebra
    A = build()
    calls = []
    is_ideal = gradedalg.algebra.GradedAlgebra.is_ideal
    monkeypatch.setattr(gradedalg.algebra.GradedAlgebra, "is_ideal",
                        lambda self, s: calls.append(s) or is_ideal(self, s))
    I = radical(A, verify=True)
    assert (0 < I.dim < A.dim) == proper
    assert calls == ([I] if proper else [])


@pytest.mark.parametrize("radical, build, rows, message", POST_CHECK_FAILURES)
def test_post_check_rejects_a_wrong_candidate(monkeypatch, radical, build, rows, message):
    A = build()
    _first_kernel_returns(monkeypatch, rows, A.dim)
    with pytest.raises(InternalCheckError) as exc:
        radical(A, verify=True)
    assert str(exc.value) == message

