import time
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedalg.algebra import GradedAlgebra, algebra_on_subspace, graded_check, quotient_algebra
from gradedalg.builders import (direct_sum, free_group_truncation, fz2,
                                group_algebra, matrix_algebra,
                                matrix_algebra_z2, sl2, gl2_z2,
                                two_dim_nonabelian_lie, ut2)
from gradedalg.errors import InternalCheckError, NotSemisimpleError, ValidationError
from gradedalg.exactlin import Reducer, Subspace, is_zero_vector, sparse
from gradedalg.groups import CyclicGroup, TrivialGroup
from gradedalg.radical import jacobson_radical, killing_form, solvable_radical
from gradedalg.schema import digest, render_rational
from gradedalg.structure import (_rational_root, graded_complement, levi_graded,
                                 malcev_complement_graded, wedderburn_artin_graded)
from tests.corpus import (associative_corpus, change_basis, corpus_semisimple_parts,
                          lie_corpus, trivially_graded)
from tests.oracles import enumerate_minimal_graded_ideals

F = Fraction


def semisimple_cases():
    return [
        matrix_algebra_z2(),
        fz2(),
        matrix_algebra(2),
        group_algebra(CyclicGroup(3), name="fz3"),
        direct_sum(matrix_algebra_z2(), matrix_algebra(1, CyclicGroup(2)), name="m2+F"),
        direct_sum(fz2(), fz2()),
        direct_sum(matrix_algebra(1), matrix_algebra(1)),
    ]


def test_wedderburn_m2_is_single_component():
    dec = wedderburn_artin_graded(matrix_algebra_z2())
    assert dec.dims() == [4]
    assert dec.components[0] == Subspace.full(4)


def test_wedderburn_direct_sum_splits():
    A = direct_sum(matrix_algebra_z2(), matrix_algebra(1, CyclicGroup(2)), name="m2+F")
    dec = wedderburn_artin_graded(A)
    assert dec.dims() == [1, 4]


def test_wedderburn_fz2_graded_simple():
    # ungraded Q[Z2] splits as Q x Q, but no graded ideal is proper
    dec = wedderburn_artin_graded(fz2())
    assert dec.dims() == [2]


def test_wedderburn_group_algebra_z3():
    dec = wedderburn_artin_graded(group_algebra(CyclicGroup(3)))
    assert dec.dims() == [3]


def test_wedderburn_matches_enumeration_oracle():
    # the grid reaches entries +-2: on a trivially graded Q^3 the third
    # minimal ideal needs a generator such as (2, -1, 0), which (-1, 0, 1)
    # misses
    small = [S for S in corpus_semisimple_parts() if S.dim <= 4]
    assert len(small) == 169
    for A in semisimple_cases() + small:
        assert A.dim <= 6
        dec = wedderburn_artin_graded(A)
        oracle = enumerate_minimal_graded_ideals(A, entries=(-2, -1, 0, 1, 2))
        assert sorted(dec.components, key=lambda s: (s.dim, s.basis_vectors())) == oracle
    assert sum(len(wedderburn_artin_graded(S).components) >= 2 for S in small) == 62


def test_wedderburn_descends_each_component_once(monkeypatch):
    # one split tree: the unit and one inner idempotent are halved, and each
    # of the three components is certified once, k - 1 = 2 splits and k = 3
    # final pieces
    import gradedalg.structure
    calls = []
    split = gradedalg.structure._split

    def counting(A, centre, f):
        halves = split(A, centre, f)
        calls.append((f, halves is None))
        return halves

    monkeypatch.setattr(gradedalg.structure, "_split", counting)
    q = matrix_algebra(1, CyclicGroup(2))
    A = direct_sum(direct_sum(matrix_algebra_z2(), fz2()), q)
    assert wedderburn_artin_graded(A).dims() == [1, 2, 4]
    assert len(calls) == 5 and calls[0][0] == sparse(A.unit)     # idempotents are sparse
    assert sum(final for _, final in calls) == 3


def test_wedderburn_post_check_rejects_a_non_ideal_component(monkeypatch):
    # a split of the unit of M2 at the idempotents e11, e22, which are not
    # central, gives the left ideals A e11 = span(e11, e21) and A e22: dims
    # add up, both are graded (the diagonal is even) and e11 + e22 = 1, but
    # e11 is not in the degree-e centre
    import gradedalg.structure
    M = matrix_algebra_z2()
    e11, e22 = M.basis_vector(0), M.basis_vector(3)
    monkeypatch.setattr(gradedalg.structure, "_split",
                        lambda A, centre, f: (sparse(e11), sparse(e22)) if f == sparse(A.unit) else None)
    with pytest.raises(InternalCheckError, match="not a nonzero idempotent of C"):
        wedderburn_artin_graded(M)


def test_wedderburn_post_check_rejects_a_non_graded_component(monkeypatch):
    # Q[Z2] = span(1 + g) (+) span(1 - g) as ideals, at the central
    # idempotents (1 +- g) / 2, which are not of degree e: neither ideal is
    # graded, and neither idempotent is in the degree-e centre
    import gradedalg.structure
    A = fz2()
    plus, minus = (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))
    monkeypatch.setattr(gradedalg.structure, "_split",
                        lambda A, centre, f: (sparse(plus), sparse(minus)) if f == sparse(A.unit) else None)
    with pytest.raises(InternalCheckError, match="not a nonzero idempotent of C"):
        wedderburn_artin_graded(A)


def test_wedderburn_post_check_rejects_a_zero_idempotent(monkeypatch):
    # the unit split into (1, 0), both then final: the pieces A.1 and A.0 = 0
    # have dims adding up and sum to 1, so only the nonzero test sees it
    import gradedalg.structure
    splits = [lambda f: (f, {})]        # the first split only; every later piece is final
    monkeypatch.setattr(gradedalg.structure, "_split",
                        lambda A, cf, f: splits.pop()(f) if splits else None)
    with pytest.raises(InternalCheckError, match="not a nonzero idempotent of C"):
        wedderburn_artin_graded(matrix_algebra_z2())


def test_wedderburn_post_check_rejects_non_idempotent_halves(monkeypatch):
    # 2 and -1: central, of degree e and summing to 1, but not idempotent
    import gradedalg.structure
    monkeypatch.setattr(
        gradedalg.structure, "_split",
        lambda A, cf, f: ({i: 2 * c for i, c in f.items()}, {i: -c for i, c in f.items()})
        if f == sparse(A.unit) else None)
    for A in (matrix_algebra_z2(), fz2()):
        with pytest.raises(InternalCheckError, match="not a nonzero idempotent of C"):
            wedderburn_artin_graded(A)


def test_wedderburn_post_check_rejects_idempotents_that_miss_the_unit(monkeypatch):
    # Q + Q split into (e1, e1): nonzero central idempotents whose pieces
    # have dims adding up, but they sum to 2 e1, not to 1
    import gradedalg.structure
    monkeypatch.setattr(gradedalg.structure, "_split",
                        lambda A, cf, f: ({0: 1}, {0: 1}) if f == sparse(A.unit) else None)
    with pytest.raises(InternalCheckError, match="do not sum to the unit"):
        wedderburn_artin_graded(direct_sum(matrix_algebra(1), matrix_algebra(1)))


def test_wedderburn_refuses_a_split_that_does_not_shrink_its_centre(monkeypatch):
    # a split (f, 0) keeps C.f in its first half, and the zero half splits
    # into zeros forever: the second split of a piece whose C.f did not
    # shrink raises; the spy stops a loop that would not end
    import gradedalg.structure
    calls = []

    def split(A, cf, f):
        calls.append(f)
        if len(calls) > 50:
            raise RuntimeError("the split loop does not end")
        return f, {}
    monkeypatch.setattr(gradedalg.structure, "_split", split)
    for A in (matrix_algebra_z2(), direct_sum(matrix_algebra(1), matrix_algebra(1))):
        calls.clear()
        with pytest.raises(InternalCheckError, match="no smaller than its parent's"):
            wedderburn_artin_graded(A)
        assert len(calls) == 3


def test_wedderburn_multiplies_by_idempotents_through_their_right_operators(monkeypatch):
    # trivially graded Q^200: C.f and the components A.f are read off the
    # right operator of f, so single products are left to the minimal
    # polynomials and the certificate; one product per basis row of C.f
    # made 80,597 `mul_sparse` calls
    t = TrivialGroup()
    n = 200
    A = GradedAlgebra(t, [t.identity()] * n, {(i, i, i): 1 for i in range(n)}, unit=[1] * n)
    calls = []
    mul = GradedAlgebra.mul_sparse
    monkeypatch.setattr(GradedAlgebra, "mul_sparse",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert wedderburn_artin_graded(A).dims() == [1] * n
    assert len(calls) < 1000


def test_wedderburn_runs_no_ideal_or_product_checks(monkeypatch):
    # the idempotents certify the components: no product span, ideal test or
    # graded check runs
    import gradedalg.algebra
    import gradedalg.structure
    calls = []
    for owner, name in ((GradedAlgebra, "product_span"), (GradedAlgebra, "is_ideal"),
                        (gradedalg.algebra, "graded_check"), (gradedalg.structure, "graded_check")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    for A in semisimple_cases():
        wedderburn_artin_graded(A)
    assert calls == []


def _canonical(subspaces):
    return sorted(subspaces, key=lambda s: (s.dim, s.basis_vectors()))


@pytest.mark.parametrize("rows", [((1, 1, 1), (1, 2, 3), (1, 4, 9)),
                                  ((1, 5, 7), (2, 3, 11), (13, 2, 5))])
def test_wedderburn_splits_q3_on_a_twisted_basis(rows):
    # trivially graded Q^3 on these bases: the seeded candidate search
    # returned dims [1, 2] and [3]; the components are the lines through the
    # standard idempotents
    Q = matrix_algebra(1)
    Q3 = direct_sum(direct_sum(Q, Q), Q)
    B, image = change_basis(Q3, rows)
    lines = [image(Subspace.from_vectors(3, [Q3.basis_vector(i)])) for i in range(3)]
    assert wedderburn_artin_graded(B).components == _canonical(lines)


def test_wedderburn_splits_q3_with_huge_coordinates_in_time():
    # trial division up to the square root of the cleared constant term took
    # 17 to 23 s on this basis; the root search bisects in ints
    Q = matrix_algebra(1)
    Q3 = direct_sum(direct_sum(Q, Q), Q)
    rows = ((2, 3, 5), (7, 10 ** 15, 11), (13, 17, 10 ** 16))
    B, image = change_basis(Q3, rows)
    lines = [image(Subspace.from_vectors(3, [Q3.basis_vector(i)])) for i in range(3)]
    start = time.perf_counter()
    assert wedderburn_artin_graded(B).components == _canonical(lines)
    assert time.perf_counter() - start < 2.0


def _brute_rational_root(m):
    # every candidate +-p/q with p | m_0 and q | m_d once denominators are
    # cleared, 0 first, in the order of the divisor lists
    scale = lcm(*(a.denominator for a in m))

    def divisors(n):
        return sorted({x for d in range(1, isqrt(n) + 1) if n % d == 0 for x in (d, n // d)})

    candidates = [F(0)] + [s * F(p, q) for p in divisors(abs(m[0] * scale).numerator)
                           for q in divisors(scale) for s in (1, -1)]
    for r in candidates:
        if sum(a * r ** i for i, a in enumerate(m)) == 0:
            return r
    return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(roots=st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=6), max_size=4),
       p=st.sampled_from([None, 2, 3, 5, 6, 7, -1, -3]))
def test_rational_root_matches_brute_enumeration(roots, p):
    # prod (x - r_i) (x^2 - p) with a non-square p: the rational roots are
    # the r_i, and both searches return the same one
    m = [F(1)] if p is None else [F(-p), F(0), F(1)]
    for r in roots:
        m = [-r * m[0]] + [m[i - 1] - r * m[i] for i in range(1, len(m))] + [m[-1]]
    assume(len(m) > 2)
    root = _rational_root(m)
    assert root == _brute_rational_root(m)
    assert (root is None) == (not roots)
    assert root is None or root in roots


def test_wedderburn_certifies_small_number_fields():
    # trivially graded Q[Z3] = Q + Q(w), Q[Z4] = Q + Q + Q(i), and
    # Q[x]/(x^2 + 1) = Q(i): each block of the centre of dim 2 has an element
    # whose minimal polynomial has degree 2 and no rational root
    fz3 = trivially_graded(group_algebra(CyclicGroup(3)))
    dec = wedderburn_artin_graded(fz3)
    assert dec.dims() == [1, 2]
    assert dec.components[0] == Subspace.from_vectors(3, [(1, 1, 1)])
    assert wedderburn_artin_graded(trivially_graded(group_algebra(CyclicGroup(4)))).dims() == [1, 1, 2]
    t = TrivialGroup()
    qi = GradedAlgebra(t, [t.identity()] * 2,
                       {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): -1}, unit=(1, 0))
    assert wedderburn_artin_graded(qi).dims() == [2]


@pytest.mark.parametrize("n", [5, 6])
def test_wedderburn_refuses_a_split_that_needs_factoring(n):
    # trivially graded Q[Z5] = Q + Q(z5) and Q[Z6] = Q + Q + Q(w) + Q(w): a
    # piece with a 4-dim centre is left where no basis element has a rational
    # eigenvalue, and the field certificate stops at degree 3. The seeded
    # candidate search returned [1, 4] (right, but only sampled) and
    # [1, 1, 4] (wrong: Q(w) + Q(w) is not graded-simple)
    A = trivially_graded(group_algebra(CyclicGroup(n)))
    with pytest.raises(ValidationError, match="graded-simple split needs factoring over Q"):
        wedderburn_artin_graded(A)


def _split_semisimple_atoms():
    Z2 = CyclicGroup(2)
    return [[lambda: matrix_algebra(1), lambda: matrix_algebra(2)],
            [matrix_algebra_z2, fz2, lambda: matrix_algebra(1, Z2)]]


@st.composite
def twisted_direct_sums(draw):
    """(A, rows): a direct sum of split semisimple builtins over one group, of
    dim <= 8, and a degree-preserving invertible integer basis change."""
    atoms = draw(st.sampled_from(_split_semisimple_atoms()))
    parts = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=4))
    A = parts[0]()
    for part in parts[1:]:
        A = direct_sum(A, part())
    assume(A.dim <= 8)
    rows = [[0] * A.dim for _ in range(A.dim)]
    for g in A.support:
        idx = A.component_indices(g)
        block = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(idx), max_size=len(idx)),
                              min_size=len(idx), max_size=len(idx)))
        assume(Reducer(len(idx), block).dim == len(idx))
        for t, i in enumerate(idx):
            for u, j in enumerate(idx):
                rows[i][j] = block[t][u]
    return A, rows


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(twisted_direct_sums())
def test_wedderburn_components_follow_a_basis_change(case):
    # the components are the unique minimal graded ideals, so on any basis
    # they are the images of the components on the standard one
    A, rows = case
    B, image = change_basis(A, rows)
    before = wedderburn_artin_graded(A).components
    after = wedderburn_artin_graded(B).components
    assert [c.dim for c in after] == [c.dim for c in before]
    assert after == _canonical(image(c) for c in before)


def test_wedderburn_cross_products_vanish():
    A = direct_sum(fz2(), fz2())
    dec = wedderburn_artin_graded(A)
    assert dec.dims() == [2, 2]
    c1, c2 = dec.components
    for u in c1.basis_vectors():
        for w in c2.basis_vectors():
            assert is_zero_vector(A.multiply(u, w))
            assert is_zero_vector(A.multiply(w, u))


def test_wedderburn_rejects_non_semisimple_and_non_unital():
    with pytest.raises(NotSemisimpleError):
        wedderburn_artin_graded(ut2())
    A = free_group_truncation(2, 3)
    J = jacobson_radical(A)
    emb = algebra_on_subspace(A, J, name="J")
    with pytest.raises(ValidationError):
        wedderburn_artin_graded(emb.algebra)


def test_wedderburn_empty_for_zero_algebra():
    from gradedalg.algebra import GradedAlgebra
    from gradedalg.groups import TrivialGroup
    zero = GradedAlgebra(TrivialGroup(), [], {}, kind="associative")
    assert wedderburn_artin_graded(zero).components == []


def test_malcev_semisimple_returns_whole():
    assert malcev_complement_graded(matrix_algebra_z2()) == Subspace.full(4)


def test_malcev_ut2_is_diagonal():
    U = ut2()
    B = malcev_complement_graded(U)
    assert B == Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])
    J = jacobson_radical(U)
    assert (B & J).is_zero() and (B + J).dim == 3
    assert U.is_subalgebra(B)
    assert graded_check(B, U)[0]


def test_malcev_free_trunc_is_span_of_unit():
    A = free_group_truncation(2, 3)
    B = malcev_complement_graded(A)
    assert B == Subspace.from_vectors(7, [A.unit])


def test_malcev_on_nontrivial_correction():
    from gradedalg.builders import upper_triangular
    A = upper_triangular(3, CyclicGroup(2), (0, 1, 0), name="ut3_z2")
    B = malcev_complement_graded(A)
    J = jacobson_radical(A)
    assert (B & J).is_zero()
    assert (B + J).dim == A.dim
    assert A.is_subalgebra(B)
    assert graded_check(B, A)[0]


def test_malcev_correction_actually_corrects():
    # Q[x]/(x^3) on the skewed basis u = 1+x, v = x, w = x^2: the greedy
    # section starts at span{u}, which is not closed (u^2 = u + v), so the
    # lifting has to walk the correction down J then J^2
    from gradedalg.algebra import GradedAlgebra
    from gradedalg.groups import TrivialGroup
    t = TrivialGroup()
    e = t.identity()
    Z = F(0)
    # products: uu = 1+2x+x^2 = u+v+w; uv = vu = x+x^2 = v+w; uw = wu = w
    # vv = x^2 = w; vw = wv = ww = 0
    structure = {
        (0, 0, 0): F(1), (0, 0, 1): F(1), (0, 0, 2): F(1),
        (0, 1, 1): F(1), (0, 1, 2): F(1), (0, 2, 2): F(1),
        (1, 0, 1): F(1), (1, 0, 2): F(1), (1, 1, 2): F(1),
        (2, 0, 2): F(1),
    }
    A = GradedAlgebra(t, [e, e, e], structure, unit=(F(1), F(-1), Z), name="skewed")
    J = jacobson_radical(A)
    assert J == Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    B = malcev_complement_graded(A)
    assert B == Subspace.from_vectors(3, [A.unit])
    assert A.is_subalgebra(B)


def test_levi_semisimple_whole_and_solvable_zero():
    assert levi_graded(sl2()) == Subspace.full(3)
    assert levi_graded(two_dim_nonabelian_lie()).is_zero()


def test_levi_gl2_is_sl2():
    G = gl2_z2()
    B = levi_graded(G)
    assert B == Subspace.from_vectors(4, [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)])
    R = solvable_radical(G)
    assert (B & R).is_zero() and (B + R).dim == 4
    assert G.is_subalgebra(B)
    assert graded_check(B, G)[0]
    # Killing form of the Levi part is nondegenerate
    emb = algebra_on_subspace(G, B, name="levi")
    K = killing_form(emb.algebra)
    assert Reducer(3, K).dim == 3


def test_levi_direct_sum_with_solvable():
    L = direct_sum(gl2_z2(), two_dim_nonabelian_lie(), name="gl2+aff1")
    B = levi_graded(L)
    R = solvable_radical(L)
    assert B.dim + R.dim == L.dim
    assert (B & R).is_zero()
    assert L.is_subalgebra(B)
    assert graded_check(B, L)[0]


def test_levi_nonabelian_radical_recursion():
    # sl2 (+) heisenberg needs the derived-series recursion: use a semidirect
    # feel through a direct sum with a nonabelian solvable summand
    L = direct_sum(sl2(), _solvable3(), name="sl2+sol3")
    B = levi_graded(L)
    R = solvable_radical(L)
    assert R.dim == 3 and B.dim == 3
    assert (B & R).is_zero() and (B + R).dim == 6
    assert L.is_subalgebra(B)


def _solvable3():
    # basis x, y, z: [x, y] = y, [x, z] = z: solvable, [R, R] = span{y, z} != 0
    from gradedalg.builders import lie_from_brackets
    from gradedalg.groups import FreeGroup
    Fg = FreeGroup(1)
    degrees = [Fg.identity(), Fg.identity(), Fg.identity()]
    return lie_from_brackets(Fg, degrees, 3, {(0, 1): [(1, 1)], (0, 2): [(2, 1)]},
                             name="sol3")


def test_levi_correction_on_skewed_semidirect_product():
    # sl2 acting on its natural 2-dim module, written on the skewed basis
    # (u = e + x, h, f, x, y): the greedy complement span{u, h, f} is not
    # closed ([h, u] = -2u + x leaks into the radical), so the correction
    # solve has to move u back to e = u - x
    from gradedalg.builders import lie_from_brackets
    from gradedalg.groups import TrivialGroup
    t = TrivialGroup()
    brackets = {
        (0, 1): [(0, -2), (3, 1)],     # [u, h] = -2u + x
        (0, 2): [(1, 1), (4, -1)],     # [u, f] = h - y
        (0, 4): [(3, 1)],              # [u, y] = x
        (1, 2): [(2, -2)],             # [h, f] = -2f
        (1, 3): [(3, 1)],              # [h, x] = x
        (1, 4): [(4, -1)],             # [h, y] = -y
        (2, 3): [(4, 1)],              # [f, x] = y
    }
    L = lie_from_brackets(t, [t.identity()] * 5, 5, brackets, name="sl2xV")
    R = solvable_radical(L)
    assert R == Subspace.from_vectors(5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    B = levi_graded(L)
    assert B == Subspace.from_vectors(
        5, [(1, 0, 0, -1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    assert L.is_subalgebra(B)


def test_levi_two_stage_correction():
    # sl2 acting on heis3 = span{x, y, z}, with sl2 on (x, y) as on its natural
    # module and z = [x, y] central, Z2-graded with x, y odd, on the skewed
    # basis (u = e + z, h, f, x, y, z). The defect [u, h] + 2u = 2z lies in
    # [R, R] = span{z}: the first pass (mod [R, R]) leaves u alone, the second
    # pass must subtract z
    from gradedalg.builders import lie_from_brackets
    Z2 = CyclicGroup(2)
    even, odd = Z2.elem(0), Z2.elem(1)
    brackets = {
        (0, 1): [(0, -2), (5, 2)],     # [u, h] = -2u + 2z
        (0, 2): [(1, 1)],              # [u, f] = h
        (0, 4): [(3, 1)],              # [u, y] = x
        (1, 2): [(2, -2)],             # [h, f] = -2f
        (1, 3): [(3, 1)],              # [h, x] = x
        (1, 4): [(4, -1)],             # [h, y] = -y
        (2, 3): [(4, 1)],              # [f, x] = y
        (3, 4): [(5, 1)],              # [x, y] = z
    }
    L = lie_from_brackets(Z2, [even, even, even, odd, odd, even], 6, brackets,
                          name="sl2xheis3")
    R = solvable_radical(L)
    assert R.dim == 3 and L.product_span(R, R).dim == 1
    B = levi_graded(L)
    assert B == Subspace.from_vectors(
        6, [(1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert L.is_subalgebra(B)
    assert graded_check(B, L)[0]


def test_malcev_two_stage_correction():
    # Q[x]/(x^4) on the basis (u = 1 + x^2, v = x, w = x^2, s = x^3): the first
    # pass (mod J^2) leaves u alone, the second pass must subtract w
    from gradedalg.algebra import GradedAlgebra
    from gradedalg.groups import TrivialGroup
    t = TrivialGroup()
    Z = F(0)
    structure = {
        # u*u = u + w, u*v = v + s, u*w = w, u*s = s
        (0, 0, 0): F(1), (0, 0, 2): F(1), (0, 1, 1): F(1), (0, 1, 3): F(1),
        (0, 2, 2): F(1), (0, 3, 3): F(1),
        # v*u = v + s, v*v = w, v*w = s, v*s = 0
        (1, 0, 1): F(1), (1, 0, 3): F(1), (1, 1, 2): F(1), (1, 2, 3): F(1),
        # w*u = w, w*v = s, w*w = 0, w*s = 0
        (2, 0, 2): F(1), (2, 1, 3): F(1),
        # s*u = s, s*v = 0, ...
        (3, 0, 3): F(1),
    }
    A = GradedAlgebra(t, [t.identity()] * 4, structure,
                      unit=(F(1), Z, F(-1), Z), name="qx4_skewed")
    J = jacobson_radical(A)
    assert J == Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    B = malcev_complement_graded(A)
    assert B == Subspace.from_vectors(4, [A.unit])


def test_graded_complement_refuses_a_non_solvable_ideal():
    # I = I.I != 0: the chain I >= I.I >= ... would never reach zero
    for A in (sl2(), matrix_algebra_z2()):
        with pytest.raises(InternalCheckError, match="not solvable"):
            graded_complement(A, Subspace.full(A.dim))


def test_graded_complement_needs_a_unit():
    # J of free_trunc_2_3 as an algebra of its own: nilpotent, no unit
    A = free_group_truncation(2, 3)
    N = algebra_on_subspace(A, jacobson_radical(A), name="J").algebra
    assert N.unit is None
    for complement in (lambda: graded_complement(N, jacobson_radical(N)),
                       lambda: malcev_complement_graded(N)):
        with pytest.raises(ValidationError, match="needs a unital algebra"):
            complement()


def _basis_digest(subspaces):
    """sha256 of the canonical JSON of every basis row, rendered exactly."""
    return digest([[[render_rational(c) for c in row] for row in S.basis_vectors()]
                   for S in subspaces])


def test_wedderburn_components_golden():
    # recorded before the graded-simple split became one split tree
    parts = corpus_semisimple_parts()
    assert len(parts) == 201
    decs = [wedderburn_artin_graded(S).components for S in parts]
    assert sum(map(len, decs)) == 341
    assert digest([_basis_digest(c) for c in decs]) == (
        "4ed7aba9d8cc0962b4b2ce1b45cc611207df7837fd92ede2f3455783415276ca")


def test_malcev_and_levi_bases_golden():
    # recorded before the Mal'cev and Levi lifts were merged into one solve
    unital = [A for A in associative_corpus() if A.unit is not None]
    assert len(unital) == 201
    assert _basis_digest(malcev_complement_graded(A) for A in unital) == (
        "d0c3db3e292b104668fda3d6994d5110fef016c4a887747cdd6446e3f0e541d7")
    assert _basis_digest(levi_graded(L) for L in lie_corpus()) == (
        "f98bcbdfeb7a8bacf4971325592ae9d6880eb6d53673d06136075b46f367623a")


def test_corpus_scalars_are_ints_or_fractions():
    """Over the radicals, quotients and complements of the corpus: sparse
    rows and structure constants hold ints and Fractions (never a bool or a
    float), a structure constant is an int exactly when it is an integer,
    and the dense tuples handed out hold Fractions only."""
    def exact(values):
        return all(type(c) in (int, Fraction) for c in values)

    def constants_ok(A):
        return all((type(c) is int) == (F(c).denominator == 1) and exact([c])
                   for c in A.constants().values())

    def rows_ok(s):
        return all(exact(row.values()) for row in s.pivot_rows.values())

    def dense_ok(vectors):
        return all(type(c) is Fraction for v in vectors for c in v)

    for A in associative_corpus():
        assert constants_ok(A)
        J = jacobson_radical(A, verify=False)
        assert rows_ok(J) and dense_ok(J.basis_vectors())
        if 0 < J.dim < A.dim:
            q = quotient_algebra(A, J)
            assert constants_ok(q.algebra)
            assert dense_ok(q.projection) and dense_ok(q.section)
            assert dense_ok([q.project(v) for v in J.basis_vectors()[:1] + q.section[:1]])
            if q.algebra.unit is not None:
                assert dense_ok([q.algebra.unit])
        if A.unit is not None:
            B = malcev_complement_graded(A)
            assert rows_ok(B) and dense_ok(B.basis_vectors())
            emb = algebra_on_subspace(A, B)
            assert constants_ok(emb.algebra) and dense_ok(emb.rows)
            assert dense_ok([emb.algebra.unit, emb.include(emb.algebra.unit)])
