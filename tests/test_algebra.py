import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedalg.algebra import (GradedAlgebra, algebra_on_subspace,
                               nilpotency_index, quotient_algebra, unitalize)
from gradedalg.builders import (builtin, builtin_names, direct_sum, free_group_truncation,
                                fz2, group_algebra, matrix_algebra,
                                matrix_algebra_z2, sl2, two_dim_nonabelian_lie,
                                upper_triangular, ut2)
from gradedalg.cli import main
from gradedalg.errors import (DimensionMismatchError, InternalCheckError, NotAnIdealError,
                              NotGradedError, ValidationError)
from gradedalg.exactlin import Reducer, Subspace, dense, is_zero_vector, sparse
from gradedalg.groups import CyclicGroup, GroupElem, TrivialGroup
from gradedalg.radical import jacobson_radical, nilradical, solvable_radical
from gradedalg.schema import algebra_to_description, description_to_algebra, load_json
from gradedalg.structure import wedderburn_artin_graded
from tests.corpus import (associative_corpus, has_non_integral_constant, lie_corpus,
                          rescaled, semisimple_part)
from tests.dense import (dense_multiply, ideal_generated_dense, identity, is_ideal_dense,
                         matmul, structure_failure, trace)

F = Fraction

# m2 basis order: e11, e12, e21, e22
E11, E12, E21, E22 = range(4)


def rand_vec(rng, dim, lo=-3, hi=3):
    return tuple(F(rng.randint(lo, hi)) for _ in range(dim))


def rescaled_corpus() -> list:
    """Builtins on a rescaled basis, plain and sheared: every constant
    table here has a non-integral constant."""
    scales = (F(2, 3), F(-5, 2), F(7, 4), F(-3, 5))
    out = [rescaled(A, scales[:A.dim], shear)
           for A in map(builtin, ("m2_z2", "ut2", "fz2", "gl2_z2", "sl2", "heis3"))
           for shear in (0, F(1, 2))]
    assert all(map(has_non_integral_constant, out))
    return out


def zero_product_file(tmp_path, dim: int):
    """A description file of the zero-product algebra of dimension dim."""
    t = TrivialGroup()
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"kind": "associative", "dim": dim, "group": t.describe(),
                                "degrees": [t.encode_elem(t.identity())] * dim,
                                "structure": []}))
    return path


def test_unit_multiplies_trivially():
    for name in ("m2_z2", "ut2", "fz2", "free_trunc_2_3"):
        A = builtin(name)
        for b in range(A.dim):
            eb = A.basis_vector(b)
            assert A.multiply(A.unit, eb) == eb
            assert A.multiply(eb, A.unit) == eb


def test_matrix_units():
    M = matrix_algebra_z2()
    e11, e12 = M.basis_vector(E11), M.basis_vector(E12)
    assert M.multiply(e11, e12) == e12
    assert is_zero_vector(M.multiply(e12, e11))


def test_lie_square_vanishes():
    L = sl2()
    rng = random.Random(1)
    for _ in range(20):
        v = rand_vec(rng, L.dim)
        assert is_zero_vector(L.multiply(v, v))


def left_mult_matrix(A, a) -> tuple:
    """The matrix of b -> a b: column j is a e_j, from `mul_sparse`."""
    sa = sparse(a)
    columns = [dense(A.mul_sparse(sa, {j: F(1)}), A.dim) for j in range(A.dim)]
    return tuple(zip(*columns))


def test_left_mult_matrix_of_unit_is_identity():
    for name in ("m2_z2", "fz2", "ut2"):
        A = builtin(name)
        assert left_mult_matrix(A, A.unit) == identity(A.dim)


def test_left_mult_matrix_e12():
    M = matrix_algebra_z2()
    phi = left_mult_matrix(M, M.basis_vector(E12))
    assert Reducer(M.dim, phi).dim == 2          # e12 * e21 = e11 and e12 * e22 = e12
    assert trace(phi) == 0 == M.trace_of_left_mult(M.basis_vector(E12))


def test_left_mult_is_multiplicative():
    rng = random.Random(2)
    for name in ("m2_z2", "ut2", "fz2", "free_trunc_2_2"):
        A = builtin(name)
        for _ in range(10):
            a, b = rand_vec(rng, A.dim), rand_vec(rng, A.dim)
            assert left_mult_matrix(A, A.multiply(a, b)) == \
                matmul(left_mult_matrix(A, a), left_mult_matrix(A, b))


def test_homogeneous_projection():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    v = tuple(F(x) for x in (1, 1, 0, 0))    # e11 + e12
    assert M.homogeneous_projection(v, g0) == (F(1), F(0), F(0), F(0))
    assert M.homogeneous_projection(v, g1) == (F(0), F(1), F(0), F(0))
    rng = random.Random(3)
    for _ in range(10):
        v = rand_vec(rng, 4)
        acc = [F(0)] * 4
        for g in M.support:
            p = M.homogeneous_projection(v, g)
            acc = [a + b for a, b in zip(acc, p)]
        assert tuple(acc) == v


def test_homogeneous_multiply_lands_in_product_component():
    rng = random.Random(4)
    for name in ("m2_z2", "free_trunc_2_3", "fz2"):
        A = builtin(name)
        for g in A.support:
            for h in A.support:
                a = A.homogeneous_projection(rand_vec(rng, A.dim), g)
                b = A.homogeneous_projection(rand_vec(rng, A.dim), h)
                prod = A.multiply(a, b)
                assert prod == A.homogeneous_projection(prod, g * h)


def test_ideal_generated_examples():
    M = matrix_algebra_z2()
    assert M.ideal_generated([M.basis_vector(E12)]).dim == 4
    U = ut2()                   # basis e11, e12, e22
    ideal = U.ideal_generated([U.basis_vector(1)])
    assert ideal == Subspace.from_vectors(3, [(0, 1, 0)])
    assert M.subalgebra_generated([M.unit]) == Subspace.from_vectors(4, [M.unit])
    # an integer generator whose pivot is not 1 still gives a Fraction basis
    t = TrivialGroup()
    Z = GradedAlgebra(t, [t.identity()] * 2, {})      # zero product: ideal = span
    ideal = Z.ideal_generated([(3, 1)])
    assert ideal.basis_vectors() == ((1, F(1, 3)),)
    assert all(type(a) is Fraction for v in ideal.basis_vectors() for a in v)
    # inserting e12, a product of e22, reduces the stored generator row
    # e12 + e11' to e12; the closure must still multiply e12 + e11' itself
    A = direct_sum(U, U)
    gens = [(0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0)]
    ideal = A.ideal_generated(gens)
    assert ideal == ideal_generated_dense(A, gens)
    assert ideal.dim == 4 and A.is_ideal(ideal)


def test_ideal_generated_matches_the_dense_reference():
    rng = random.Random(5)
    cases = 0
    for A in associative_corpus() + lie_corpus():
        gens = [rand_vec(rng, A.dim, -1, 1) for _ in range(rng.randint(1, min(A.dim, 3)))]
        ideal = A.ideal_generated(gens)
        assert ideal == ideal_generated_dense(A, gens), A
        cases += ideal.dim not in (0, A.dim)
    assert cases > 20


def test_quotient_by_zero_ideal_is_copy():
    A = ut2()
    q = quotient_algebra(A, Subspace.zero(A.dim))
    assert q.algebra.dim == A.dim
    assert q.algebra.structure == A.structure
    assert q.algebra.degrees == A.degrees


def test_quotient_ut2_by_corner():
    U = ut2()
    J = Subspace.from_vectors(3, [(0, 1, 0)])
    q = quotient_algebra(U, J)
    Q = q.algebra
    assert Q.dim == 2
    # commutative, split: the two diagonal idempotents survive
    for i in range(2):
        for j in range(2):
            assert Q.structure[i].get(j, {}) == ({i: F(1)} if i == j else {})


def test_quotient_projection_is_multiplicative():
    rng = random.Random(5)
    A = free_group_truncation(2, 3)
    J = A.ideal_generated([A.basis_vector(1), A.basis_vector(2)])
    q = quotient_algebra(A, J)
    assert q.algebra.dim == 1
    for _ in range(20):
        a, b = rand_vec(rng, A.dim), rand_vec(rng, A.dim)
        assert q.project(A.multiply(a, b)) == \
            q.algebra.multiply(q.project(a), q.project(b))
    with pytest.raises(DimensionMismatchError):
        q.project(rand_vec(rng, A.dim + 1))
    # the quotient by the whole algebra has no projection rows, and still
    # knows the dimension of the algebra
    whole = quotient_algebra(ut2(), Subspace.full(3))
    assert whole.project((1, 2, 3)) == ()
    with pytest.raises(DimensionMismatchError):
        whole.project((1, 2))


def test_products_match_the_dense_reference():
    """multiply, trace_of_left_mult, product_span and is_subalgebra against
    `dense_multiply`, which reads only the structure constants; the rescaled
    builtins come last, so the draws for the others are unchanged."""
    rng = random.Random(13)
    t = TrivialGroup()
    algebras = associative_corpus() + lie_corpus() + [
        GradedAlgebra(t, [], {}), GradedAlgebra(t, [], {}, kind="lie")] + rescaled_corpus()
    assert sum(A.unit is None and A.kind == "associative" and A.dim > 0 for A in algebras) >= 5

    def random_span(A):
        return Subspace.from_vectors(A.dim, [rand_vec(rng, A.dim, -1, 1)
                                             for _ in range(rng.randint(0, A.dim))])

    def dense_span(A, s1, s2):
        return Subspace.from_vectors(A.dim, [dense_multiply(A, u, w) for u in s1.basis_vectors()
                                             for w in s2.basis_vectors()])

    verdicts = []
    for A in algebras:
        basis = [A.basis_vector(i) for i in range(A.dim)]
        vecs = basis + [rand_vec(rng, A.dim) for _ in range(2)]
        for a in vecs:
            for b in vecs:
                assert A.multiply(a, b) == dense_multiply(A, a, b)
            assert A.trace_of_left_mult(a) == trace([dense_multiply(A, a, e) for e in basis])
        # the trace lemma: tr L(e_i) = 0 when e_i has a degree other than e
        e = A.group.identity()
        assert all(t == 0 for t, g in zip(A.left_mult_traces, A.degrees) if g != e)
        s1, s2 = random_span(A), random_span(A)
        assert A.product_span(s1, s2) == dense_span(A, s1, s2)
        for s in (s1, s2, A.subalgebra_generated(s1.basis_vectors()),
                  Subspace.zero(A.dim), Subspace.full(A.dim)):
            basis_s = s.basis_vectors()
            verdict = all(s.contains(dense_multiply(A, u, w)) for u in basis_s for w in basis_s)
            assert A.is_subalgebra(s) == verdict
            verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 50


def test_whole_space_product_span_matches_the_pairwise_span():
    # A A from the nonempty rows of `structure` against every e_i e_j
    for A in associative_corpus() + lie_corpus():
        full = Subspace.full(A.dim)
        pairwise = Subspace.from_vectors(A.dim, [A.mul_sparse({i: 1}, {j: 1})
                                                 for i in range(A.dim) for j in range(A.dim)])
        assert A.product_span(full, full) == pairwise


def test_whole_space_product_span_multiplies_no_pair(tmp_path, monkeypatch):
    """On a zero-product algebra of dim 2,000, `radical` and `codim --n-max 2`
    take A A (under `nilpotency_index`) with no product from `product_span`:
    no `mul_sparse` call and no operator built, where a pairwise span would
    make 4,000,000 products."""
    path = zero_product_file(tmp_path, 2000)
    product_span = GradedAlgebra.product_span
    inside, spans, calls = [False], [], []

    def spy_span(self, s1, s2):
        spans.append((s1.dim, s2.dim))
        inside[0] = True
        try:
            return product_span(self, s1, s2)
        finally:
            inside[0] = False

    def spying(name):
        method = getattr(GradedAlgebra, name)

        def spy(self, *args):
            if inside[0]:
                calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(GradedAlgebra, name, spy)
    monkeypatch.setattr(GradedAlgebra, "product_span", spy_span)
    spying("mul_sparse")
    spying("operator")
    for argv in (["radical"], ["codim", "--n-max", "2"]):
        spans.clear()
        assert main(argv + ["--input", str(path)]) == 0
        assert spans == [(2000, 2000)] and calls == []


def test_zero_product_algebra_costs_no_dim_squared(tmp_path, capsys):
    # the table holds no entry for a vanishing product, so no dim x dim
    # plane of empty rows is built; with one, each command took 2.4-3.5 s
    # here on a shared 2-CPU host
    path = zero_product_file(tmp_path, 2000)
    A = description_to_algebra(load_json(str(path)))
    assert A.dim == 2000 and sum(map(len, A.structure)) == 0
    assert sum(map(len, A.transpose)) == 0
    for argv in (["radical"], ["verify"], ["codim", "--n-max", "2"]):
        start = time.perf_counter()
        assert main(argv + ["--input", str(path)]) == 0
        assert time.perf_counter() - start < 1.0, argv
    out = capsys.readouterr().out
    assert "jacobson: dim 2000, graded=True, nilpotency index 2" in out


def test_span_products_hand_the_reducer_no_empty_row(monkeypatch):
    """`product_span` and `_basis_products` pass on only nonzero products,
    also where a product cancels term by term: in the semigroup algebra of
    the right-zero band {a, b} (x y = y), e_a w = e_b w = w, so u = e_a - e_b
    has u w = 0 for every w, and its left operator is empty; in M2,
    (E11 - E12)(E11 + E21) = E11 - E11 = 0 with both operators nonzero."""
    t = TrivialGroup()
    band = GradedAlgebra(t, [t.identity()] * 2, {(x, y, y): 1 for x in range(2) for y in range(2)})
    M = matrix_algebra_z2()
    inserted, products = [], []
    insert, basis_products = Reducer.insert, GradedAlgebra._basis_products

    def spy_insert(self, v):
        inserted.append(dict(v) if isinstance(v, dict) else sparse(v))
        return insert(self, v)

    def spy_products(self, sv):
        for w in basis_products(self, sv):
            products.append(w)
            yield w
    monkeypatch.setattr(GradedAlgebra, "_basis_products", spy_products)
    span = Subspace.from_vectors
    u, full, w = span(2, [(1, -1)]), Subspace.full(2), span(2, [(1, 1)])
    m_u, m_w = span(4, [(1, -1, 0, 0)]), span(4, [(1, 0, 1, 0)])
    m_s1, m_s2 = span(4, [(1, -1, 0, 0), (0, 0, 1, 1)]), span(4, [(1, 0, 1, 0), (0, 1, 0, 0)])
    monkeypatch.setattr(Reducer, "insert", spy_insert)
    spans = [band.product_span(u, full), band.product_span(u, w), M.product_span(m_u, m_w)]
    assert inserted == [] and all(s.is_zero() for s in spans)
    assert band.product_span(full, u) == u and not M.product_span(m_s1, m_s2).is_zero()
    assert band.is_ideal(u) and band.ideal_generated([(1, -1)]) == u
    assert M.ideal_generated([(1, -1, 0, 0)]) == Subspace.full(4) and not M.is_ideal(m_w)
    assert products and inserted and all(products) and all(inserted)


def test_products_reject_other_ambient_spaces():
    A = ut2()
    for s in (Subspace.full(A.dim + 1), Subspace.full(A.dim - 1)):
        with pytest.raises(DimensionMismatchError):
            A.product_span(Subspace.full(A.dim), s)
        with pytest.raises(DimensionMismatchError):
            A.is_subalgebra(s)
        with pytest.raises(DimensionMismatchError):
            A.multiply(s.basis_vectors()[0], s.basis_vectors()[0])
        with pytest.raises(DimensionMismatchError):
            A.trace_of_left_mult(s.basis_vectors()[0])


def test_quotient_rejects_non_ideal_and_non_graded():
    M = matrix_algebra_z2()
    with pytest.raises(NotAnIdealError):
        quotient_algebra(M, Subspace.from_vectors(4, [(0, 1, 0, 0)]))
    A = fz2()
    mixed = Subspace.from_vectors(2, [(1, 1)])     # ideal span{1+g}, not graded
    assert A.is_ideal(mixed)
    with pytest.raises(NotGradedError):
        quotient_algebra(A, mixed)


def test_is_ideal_matches_the_dense_reference():
    rng = random.Random(11)
    cases = []
    for A in associative_corpus() + lie_corpus() + rescaled_corpus():
        if A.kind == "lie":
            cases += [(A, solvable_radical(A)), (A, nilradical(A))]
        else:
            cases.append((A, jacobson_radical(A)))
            if A.unit is not None:
                S = semisimple_part(A)
                cases += [(S, c) for c in wedderburn_artin_graded(S).components]
        for _ in range(3):
            vecs = [rand_vec(rng, A.dim, -1, 1) for _ in range(rng.randint(1, A.dim))]
            cases.append((A, Subspace.from_vectors(A.dim, vecs)))
        cases.append((A, A.ideal_generated([rand_vec(rng, A.dim, -1, 1)])))
    verdicts = [A.is_ideal(s) for A, s in cases]
    assert verdicts == [is_ideal_dense(A, s) for A, s in cases]
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_free_trunc_shape():
    assert free_group_truncation(2, 2).dim == 3
    A = free_group_truncation(2, 3)
    assert A.dim == 7
    assert len(A.support) == 7
    assert all(len(A.component_indices(g)) == 1 for g in A.support)


def test_m2_z2_grading_facts():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    assert len(M.support) == 2
    assert M.degrees[E11] == g0 and M.degrees[E22] == g0
    assert M.degrees[E12] == g1 and M.degrees[E21] == g1
    # e12 * e21 = e11 with compatible degrees
    assert M.multiply(M.basis_vector(E12), M.basis_vector(E21)) == M.basis_vector(E11)
    assert g1 * g1 == g0


def test_direct_sum_dims_add():
    a, b = fz2(), fz2()
    s = direct_sum(a, b)
    assert s.dim == 4
    assert s.unit == a.unit + b.unit
    with pytest.raises(ValidationError):
        direct_sum(fz2(), matrix_algebra(2))   # different groups


def test_two_dim_nonabelian_bracket():
    L = two_dim_nonabelian_lie()
    x, y = L.basis_vector(0), L.basis_vector(1)
    assert L.multiply(x, y) == x
    assert L.multiply(y, x) == tuple(-c for c in x)


def test_constructor_rejects_bad_grading():
    z2 = CyclicGroup(2)
    structure = {(0, 1, 0): F(1)}
    # e0*e1 = e0 but deg(e0*e1) should be 0+1 = 1 != deg e0 = 0
    with pytest.raises(ValidationError):
        from gradedalg.algebra import GradedAlgebra
        GradedAlgebra(z2, [z2.elem(0), z2.elem(1)], structure)


def test_grading_check_multiplies_degrees_only_for_nonzero_products(monkeypatch):
    calls = []
    mul = GroupElem.__mul__

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(GroupElem, "__mul__", counted)
    A = free_group_truncation(2, 5)
    assert len(calls) == sum(map(len, A.structure)) == 129
    z2 = CyclicGroup(2)
    degs = [z2.elem(0), z2.elem(1), z2.elem(1)]
    with pytest.raises(ValidationError, match=r"c\[0\]\[1\]\[0\] != 0"):
        GradedAlgebra(z2, degs, {(2, 2, 1): F(1), (1, 0, 2): F(1), (0, 1, 0): F(1)})


def test_constructor_rejects_non_associative():
    t = TrivialGroup()
    # e0*e0 = e1, e1*e0 = e0, rest zero: (e0 e0) e0 = e0 but e0 (e0 e0) = e1... not associative
    structure = {(0, 0, 1): F(1), (1, 0, 0): F(1)}
    with pytest.raises(ValidationError):
        from gradedalg.algebra import GradedAlgebra
        GradedAlgebra(t, [t.identity()] * 2, structure)


def test_constructor_rejects_bad_jacobi():
    t = TrivialGroup()
    dim = 3
    structure = {}
    # [e0,e1] = e0, [e1,e2] = e1, [e0,e2] = e2 violates Jacobi
    pairs = {(0, 1): (0, 1), (1, 2): (1, 1), (0, 2): (2, 1)}
    for (i, j), (k, c) in pairs.items():
        structure[i, j, k] = F(c)
        structure[j, i, k] = F(-c)
    with pytest.raises(ValidationError):
        from gradedalg.algebra import GradedAlgebra
        GradedAlgebra(t, [t.identity()] * dim, structure, kind="lie")


def test_constructor_rejects_antisymmetry_failure():
    from gradedalg.algebra import GradedAlgebra
    t = TrivialGroup()
    # [e0, e1] = e0 but [e1, e0] = 0, and the mirror image, where plane 0
    # is empty and only plane 1 holds the row
    for constants in ({(0, 1, 0): F(1)}, {(1, 0, 0): F(1)}):
        with pytest.raises(ValidationError, match=r"antisymmetry fails at \(0,1\)"):
            GradedAlgebra(t, [t.identity()] * 2, constants, kind="lie")


@pytest.mark.parametrize("structure", [
    {(0, 0, 2): F(1)},
    {(-1, 0, 0): F(1)},
    {(0, "1", 0): F(1)},
    {(0, True, 0): F(1)},
    {(0, 0): F(1)},
    [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]]],
])
def test_constructor_rejects_bad_indices(structure):
    from gradedalg.algebra import GradedAlgebra
    t = TrivialGroup()
    with pytest.raises(ValidationError):
        GradedAlgebra(t, [t.identity()] * 2, structure)


def test_constructor_drops_zero_coefficients():
    from gradedalg.algebra import GradedAlgebra
    t = TrivialGroup()
    # Q[x]/(x^2) on (1, x), with the vanishing x*x given explicitly
    A = GradedAlgebra(t, [t.identity()] * 2,
                      {(1, 1, 0): F(0), (1, 0, 1): F(1), (0, 1, 1): F(1), (0, 0, 0): F(1)})
    # only the nonempty rows are held, keyed by the second index in increasing order
    assert A.structure == ({0: {0: F(1)}, 1: {1: F(1)}},
                           {0: {1: F(1)}})
    assert [list(plane) for plane in A.structure] == [[0, 1], [0]]
    assert A.constants() == {(0, 0, 0): F(1), (0, 1, 1): F(1), (1, 0, 1): F(1)}


def test_table_rows_are_shared_sparse_dicts_that_no_command_changes(tmp_path, monkeypatch, capsys):
    # each nonempty row of `structure` is a dict {k: c} over nonzero c in
    # increasing k, and `transpose` holds the same dict objects; the rows
    # are read only, so every command leaves each row and `constants()` as
    # they were
    import gradedalg.cli
    algebras = [builtin(name) for name in builtin_names() if "<" not in name]
    algebras += associative_corpus()
    poly = tmp_path / "poly.json"
    for A in algebras:
        for i, plane in enumerate(A.structure):
            assert list(plane) == sorted(plane)
            for j, row in plane.items():
                assert type(row) is dict and row and list(row) == sorted(row)
                assert all(type(c) in (int, Fraction) and c for c in row.values())
                assert A.transpose[j].get(i) is row
        assert sum(map(len, A.transpose)) == sum(map(len, A.structure))
        rows = [(i, j, row, dict(row)) for i, plane in enumerate(A.structure)
                for j, row in plane.items()]
        constants = A.constants()
        desc = algebra_to_description(A)
        g = desc["degrees"][0]
        poly.write_text(json.dumps({"n": 2, "terms": [
            {"coef": "1", "perm": [1, 2], "labels": [g, g]},
            {"coef": "-1", "perm": [2, 1], "labels": [g, g]}]}))
        monkeypatch.setattr(gradedalg.cli, "_load_algebra", lambda args, A=A, desc=desc: (A, desc))
        for argv in (["radical"], ["verify"], ["decompose"], ["codim", "--n-max", "2"],
                     ["check-identity", "--poly", str(poly)]):
            assert main(argv + ["--builtin", "ut2"]) in (0, 3), (A, argv)
        assert A.constants() == constants
        assert all(A.structure[i].get(j) is row and row == copy for i, j, row, copy in rows)
    capsys.readouterr()


def test_unitalize():
    L = free_group_truncation(2, 3)
    J = L.ideal_generated([L.basis_vector(1), L.basis_vector(2)])
    emb = algebra_on_subspace(L, J, name="J")
    A = emb.algebra
    assert A.unit is None
    B = unitalize(A)
    assert B.dim == A.dim + 1
    assert B.unit == B.basis_vector(A.dim)
    assert nilpotency_index(A) == 3
    assert nilpotency_index(B) is None


def test_nilpotency_index_stops_at_a_repeated_power(monkeypatch):
    # M2 . M2 = M2: the first power repeats, so the loop ends there
    calls = []
    product_span = GradedAlgebra.product_span
    monkeypatch.setattr(GradedAlgebra, "product_span",
                        lambda self, s1, s2: calls.append(1) or product_span(self, s1, s2))
    assert nilpotency_index(matrix_algebra_z2()) is None
    assert len(calls) <= 2


def test_nilpotency_index_of_powers_that_never_repeat():
    # span(diag(2, 3))^p = span(diag(2^p, 3^p)): no power repeats, none is 0
    M = matrix_algebra(2)
    assert nilpotency_index(M, Subspace.from_vectors(4, [(2, 0, 0, 3)])) is None


def test_algebra_on_subspace_detects_unit():
    M = matrix_algebra(2)
    S = M.subalgebra_generated([M.basis_vector(E11)])
    emb = algebra_on_subspace(M, S)
    assert emb.algebra.dim == 1
    assert emb.algebra.unit == (F(1),)


def test_include_lands_in_the_ambient_space():
    M = matrix_algebra(2)
    emb = algebra_on_subspace(M, M.subalgebra_generated([M.basis_vector(E11)]))
    assert emb.ambient == 4 and emb.include((F(3),)) == (F(3), F(0), F(0), F(0))
    zero = algebra_on_subspace(ut2(), Subspace.zero(3))
    assert zero.algebra.dim == 0 and zero.rows == ()
    assert zero.include(()) == (F(0), F(0), F(0))


def test_group_algebra_unit_and_grading():
    A = group_algebra(CyclicGroup(3))
    assert A.dim == 3
    assert A.unit == (F(1), F(0), F(0))
    g = A.degrees[1]
    assert A.multiply(A.basis_vector(1), A.basis_vector(2)) == A.basis_vector(0)
    assert g * A.degrees[2] == A.degrees[0]


def test_upper_triangular_shape():
    U = upper_triangular(3)
    assert U.dim == 6
    assert U.unit is not None


@pytest.mark.parametrize("build", [matrix_algebra, upper_triangular])
@pytest.mark.parametrize("n, labels", [(3, (0, 1)), (2, (0, 1, 1)), (1, ())])
def test_elementary_builders_need_one_label_per_row(build, n, labels):
    with pytest.raises(ValidationError, match="one row label per matrix row"):
        build(n, CyclicGroup(2), labels)
    assert build(n, CyclicGroup(2), (0, 1, 1)[:n]).dim > 0


def test_zero_dimensional_algebra():
    from gradedalg.algebra import GradedAlgebra
    from gradedalg.radical import (graded_radical_report, jacobson_radical, killing_form,
                                   nilradical, solvable_radical)
    from gradedalg.structure import levi_graded, wedderburn_artin_graded
    from gradedalg.identities import graded_codimension
    z = GradedAlgebra(TrivialGroup(), [], {}, kind="associative")
    assert z.support == ()
    assert jacobson_radical(z).dim == 0
    assert wedderburn_artin_graded(z).components == []
    assert graded_codimension(z, 1) == 0
    zl = GradedAlgebra(TrivialGroup(), [], {}, kind="lie")
    assert solvable_radical(zl).dim == 0
    assert nilradical(zl) == Subspace.zero(0)
    assert killing_form(zl) == ()
    assert levi_graded(zl).dim == 0
    assert [r.summary() for r in graded_radical_report(z)] == \
        ["jacobson: dim 0, graded=True, nilpotency index 1"]
    assert [r.summary() for r in graded_radical_report(zl)] == \
        ["solvable: dim 0, graded=True, nilpotency index 1",
         "nilpotent: dim 0, graded=True, nilpotency index 1"]


def test_structure_and_traces_hold_ints_exactly_where_integral():
    # one table for integral and non-integral constants alike: an integral
    # constant or trace is an int, any other a Fraction; tr L(e_11) = 2 s for
    # e_11 scaled by s is a sum of two constants s, so here 1/2 + 1/2 = 1
    A = rescaled(builtin("m2_z2"), (Fraction(1, 2), Fraction(-5, 2), Fraction(7, 4), 3))
    assert A.left_mult_traces[0] == 1 and A.structure[0].get(0) == {0: Fraction(1, 2)}
    U = builtin("ut2")
    assert has_non_integral_constant(A) and not has_non_integral_constant(U)
    for B in (A, U):
        scalars = [c for plane in B.structure for row in plane.values() for c in row.values()]
        scalars += B.left_mult_traces
        assert all(type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1)
                   for c in scalars)
    assert type(A.trace_of_left_mult(A.basis_vector(0))) is Fraction


_FRACTIONS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 2, 3, 5)))


def _radical_of_free_trunc_2_3():
    A = builtin("free_trunc_2_3")
    return algebra_on_subspace(A, jacobson_radical(A)).algebra


_TABLE_SOURCES = {
    **{name: (lambda name=name: builtin(name)) for name in (
        "m2_z2", "ut2", "fz2", "free_trunc_2_2", "free_trunc_2_3",
        "sl2", "gl2_z2", "heis3", "aff1")},
    "ut3_z3": lambda: upper_triangular(3, CyclicGroup(3), (0, 1, 2)),
    "J(free_trunc_2_3)": _radical_of_free_trunc_2_3,
}


@st.composite
def graded_tables(draw):
    """(group, degrees, constants, kind): the constants of an algebra A on a
    basis changed by random fractions within each homogeneous component,
    with the basis then permuted, and up to three grading-compatible
    constants shifted. A unital associative A is `rescaled` (with a shear);
    any other A has e_i scaled by s_i, so c_ij^k becomes c_ij^k s_i s_j / s_k.
    The nilpotent J(free_trunc_2_3) has mostly zero products, so a shift
    there can fail on a triple with e_i e_j = 0. Most Lie shifts at (i, j, k)
    with i != j shift (j, i, k) the other way too, which keeps the table
    antisymmetric, so Jacobi failures come up as well; a shift with i = j
    breaks [x, x] = 0."""
    A = _TABLE_SOURCES[draw(st.sampled_from(sorted(_TABLE_SOURCES)))]()
    scales = draw(st.lists(_FRACTIONS, min_size=A.dim, max_size=A.dim))
    if A.unit is not None:
        constants = rescaled(A, scales, draw(st.sampled_from((0, 1, Fraction(-1, 2))))).constants()
    else:
        constants = {(i, j, k): c * scales[i] * scales[j] / scales[k]
                     for (i, j, k), c in A.constants().items()}
    p = draw(st.permutations(range(A.dim)))
    constants = {(p[i], p[j], p[k]): c for (i, j, k), c in constants.items()}
    degrees = [None] * A.dim
    for i, g in enumerate(A.degrees):
        degrees[p[i]] = g
    compatible = [(i, j, k) for i in range(A.dim) for j in range(A.dim) for k in range(A.dim)
                  if degrees[k] == degrees[i] * degrees[j]]
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = draw(st.sampled_from(compatible))
        delta = draw(_FRACTIONS)
        constants[i, j, k] = constants.get((i, j, k), 0) + delta
        if A.kind == "lie" and i != j and draw(st.sampled_from((True, True, True, False))):
            constants[j, i, k] = constants.get((j, i, k), 0) - delta
    return A.group, degrees, constants, A.kind


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graded_tables())
def test_constructor_checks_match_the_triple_loop_reference(case):
    # same verdict and the same message, naming the first failing triple
    group, degrees, constants, kind = case
    assume(any(Fraction(c).denominator > 1 for c in constants.values()))
    expected = structure_failure(len(degrees), constants, kind)
    if expected is None:
        A = GradedAlgebra(group, degrees, constants, kind=kind)
        assert has_non_integral_constant(A)
    else:
        with pytest.raises(ValidationError) as err:
            GradedAlgebra(group, degrees, constants, kind=kind)
        assert str(err.value) == expected


_MONOMIAL_SOURCES = {
    "free_trunc_2_4": lambda: builtin("free_trunc_2_4"),
    "m3_z3": lambda: matrix_algebra(3, CyclicGroup(3), (0, 1, 2)),
    "ut4_z2": lambda: upper_triangular(4, CyclicGroup(2), (0, 1, 0, 1)),
    "F[Z5]": lambda: group_algebra(CyclicGroup(5)),
    "J(free_trunc_2_3)": _radical_of_free_trunc_2_3,
}


@st.composite
def perturbed_monomial_tables(draw):
    """(group, degrees, constants, unit): the constants and unit of an
    algebra whose basis products are multiples of single basis vectors,
    with no change of basis, so that Light's test needs few generators.
    Up to three constants are shifted, most within the grading and some
    across it, and the unit is kept, dropped, shifted on one coordinate or
    replaced by a basis vector, so inputs break the grading, associativity
    and the unit law alone and together."""
    A = _MONOMIAL_SOURCES[draw(st.sampled_from(sorted(_MONOMIAL_SOURCES)))]()
    constants = A.constants()
    triples = [(i, j, k) for i in range(A.dim) for j in range(A.dim) for k in range(A.dim)]
    compatible = [(i, j, k) for i, j, k in triples
                  if A.degrees[k] == A.degrees[i] * A.degrees[j]]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        i, j, k = draw(st.sampled_from(draw(st.sampled_from((compatible,) * 3 + (triples,)))))
        constants[i, j, k] = constants.get((i, j, k), 0) + draw(_FRACTIONS)
    unit = A.unit
    if unit is not None:
        change = draw(st.sampled_from(("keep", "drop", "shift", "basis")))
        b = draw(st.integers(0, A.dim - 1))
        if change == "drop":
            unit = None
        elif change == "shift":
            unit = [x + (b == i) * draw(_FRACTIONS) for i, x in enumerate(unit)]
        elif change == "basis":
            unit = A.basis_vector(b)
    return A.group, A.degrees, constants, unit


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(perturbed_monomial_tables())
def test_light_test_matches_the_triple_loop_reference(case):
    # the same verdict and message as the reference: grading, then the first
    # failing triple, then the unit law, whichever fails first
    group, degrees, constants, unit = case
    expected = structure_failure(len(degrees), constants, degrees=degrees, unit=unit)
    if expected is None:
        GradedAlgebra(group, degrees, constants, unit=unit)
    else:
        with pytest.raises(ValidationError) as err:
            GradedAlgebra(group, degrees, constants, unit=unit)
        assert str(err.value) == expected


def test_triple_scan_runs_only_on_a_failure(monkeypatch):
    # the index-order scan is the diagnostic of Light's test: it never runs on
    # valid input, runs once on a failure, and an InternalCheckError stands
    # for a failure it cannot name
    def no_scan(self):
        raise AssertionError("the triple scan ran on valid input")

    monkeypatch.setattr(GradedAlgebra, "_first_failing_triple", no_scan)
    sources = [builtin(n) for n in ("fz2", "m2_z2", "ut2", "free_trunc_2_3", "free_trunc_3_3")]
    sources += associative_corpus()
    for A in sources:
        B = GradedAlgebra(A.group, A.degrees, A.constants(), unit=A.unit)
        assert B.constants() == A.constants()
    monkeypatch.undo()
    scans = []
    original = GradedAlgebra._first_failing_triple
    monkeypatch.setattr(GradedAlgebra, "_first_failing_triple",
                        lambda self: scans.append(self) or original(self))
    t = TrivialGroup()
    constants = {(0, 0, 1): 1, (1, 0, 0): 1}     # (e0 e0) e0 = e0, e0 (e0 e0) = 0
    assert structure_failure(2, constants) == "associativity fails on basis triple (0,0,0)"
    with pytest.raises(ValidationError, match=r"^associativity fails on basis triple \(0,0,0\)$"):
        GradedAlgebra(t, [t.identity()] * 2, constants)
    assert len(scans) == 1
    monkeypatch.setattr(GradedAlgebra, "_first_failing_triple", lambda self: None)
    with pytest.raises(InternalCheckError):
        GradedAlgebra(t, [t.identity()] * 2, constants)


@pytest.mark.parametrize("constants, unit", [
    # fz2 with e1 e0 = 2 e1, and e1 for a unit: the law fails, so e1 is no
    # seed, and (e1 e1) e0 = e0 != 2 e0 = e1 (e1 e0) is found through it
    ({(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 2, (1, 1, 0): 1}, (0, 1)),
    # e0 e1 = e0 alone: e1 e_x = 0 for every x, but e_x e1 is not, so e1 is
    # no seed, and (e0 e1) e1 = e0 != 0 = e0 (e1 e1) is found through it
    ({(0, 1, 0): 1}, None)])
def test_light_test_seeds_only_what_holds_for_free(constants, unit):
    t = TrivialGroup()
    expected = structure_failure(2, constants, degrees=[t.identity()] * 2, unit=unit)
    assert expected.startswith("associativity fails")
    with pytest.raises(ValidationError) as err:
        GradedAlgebra(t, [t.identity()] * 2, constants, unit=unit)
    assert str(err.value) == expected


def _generators_used(monkeypatch) -> list:
    """The generator sets Light's test draws, one list per construction."""
    used = []
    original = GradedAlgebra._associativity_generators
    monkeypatch.setattr(GradedAlgebra, "_associativity_generators",
                        lambda self, seed: used.append(original(self, seed)) or used[-1])
    return used


def _paths_through(A, generators) -> int:
    """The terms Light's test reads for the given generators: (e_x g) e_y
    from `transpose[g]` then `structure`, e_x (g e_y) from `structure[g]`
    then `transpose`."""
    left = sum(len(row_l) for g in generators for row in A.transpose[g].values()
               for l in row for row_l in A.structure[l].values())
    right = sum(len(row_l) for g in generators for row in A.structure[g].values()
                for l in row for row_l in A.transpose[l].values())
    return left + right


@pytest.mark.parametrize("make, count", [
    (lambda: upper_triangular(5), 9), (lambda: matrix_algebra(3), 5),
    (lambda: matrix_algebra(5), 9), (lambda: free_group_truncation(3, 3), 3),
    (lambda: group_algebra(CyclicGroup(7)), 1)],
    ids=["UT_5", "M_3", "M_5", "free_trunc_3_3", "F[Z7]"])
def test_light_test_needs_few_generators_on_a_monomial_basis(make, count, monkeypatch):
    # 2n - 1 for UT_n and M_n, r for free_trunc_r_c, 1 for a cyclic group algebra
    used = _generators_used(monkeypatch)
    make()
    assert [len(g) for g in used] == [count]


def test_associativity_check_walks_at_most_c_squared_paths_on_free_trunc_1(monkeypatch):
    # free_trunc_1_c is Q[x]/(x^c), generated by x, and the paths x^a . x . x^b
    # number c(c - 1); the scan over every middle factor walks about c^3/3
    c = 200
    used = _generators_used(monkeypatch)
    scans = []
    monkeypatch.setattr(GradedAlgebra, "_first_failing_triple", lambda self: scans.append(self))
    A = free_group_truncation(1, c)
    assert used == [[1]] and not scans
    assert _paths_through(A, used[0]) == c * (c - 1)
    assert _paths_through(A, range(A.dim)) > c ** 3 // 4


def test_constructor_check_follows_the_nonzero_constants():
    # UT_32 has dim 528 and 5,984 nonzero constants: a dim^3 loop over basis
    # triples takes seconds here, a walk over the nonzero products well under one
    start = time.perf_counter()
    U = upper_triangular(32)
    assert time.perf_counter() - start < 4.0
    assert U.dim == 528 and len(U.constants()) == 5984
