import random
from fractions import Fraction

import pytest

from gradedalg.builders import (builtin, free_group_truncation, fz2,
                                matrix_algebra_z2, ut2)
from gradedalg.errors import DimensionMismatchError, NotAnIdealError
from gradedalg.exactlin import Subspace
from gradedalg.groups import CyclicGroup, TrivialGroup
from gradedalg.algebra import graded_closure
from gradedalg.hopf import (CoalgebraWindow, DualFunctional, dual_action,
                            trace_identity_check, verify_ideal_closure,
                            xi_decompose)
from gradedalg.radical import jacobson_radical

F = Fraction


def rand_vec(rng, dim, lo=-3, hi=3):
    return tuple(F(rng.randint(lo, hi)) for _ in range(dim))


def rand_functional(rng, group, elems, lo=-4, hi=4):
    return DualFunctional(group, {g: F(rng.randint(lo, hi)) for g in elems})


def test_delta_action_is_projection():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    rng = random.Random(1)

    def projection(v, g):       # keeps the coordinates of degree g
        return tuple(x if M.degrees[i] == g else F(0) for i, x in enumerate(v))
    for _ in range(10):
        v = rand_vec(rng, 4)
        assert dual_action(DualFunctional.delta(g0), v, M) == projection(v, g0)
        assert dual_action(DualFunctional.delta(g1), v, M) == projection(v, g1)


def test_all_ones_acts_as_identity():
    for name in ("m2_z2", "fz2", "free_trunc_2_2"):
        A = builtin(name)
        eps = DualFunctional.all_ones(A.group, A.support)
        rng = random.Random(2)
        for _ in range(10):
            v = rand_vec(rng, A.dim)
            assert dual_action(eps, v, A) == v


def test_projection_example_m2():
    M = matrix_algebra_z2()
    _, g1 = M.support
    v = (F(1), F(1), F(0), F(0))            # e11 + e12
    assert dual_action(DualFunctional.delta(g1), v, M) == (F(0), F(1), F(0), F(0))


def test_dual_action_checks_vector_length():
    M = matrix_algebra_z2()
    delta = DualFunctional.delta(M.support[0])
    for v in [(F(1),) * 3, (F(1),) * 5]:
        with pytest.raises(DimensionMismatchError):
            dual_action(delta, v, M)


def test_generalized_action_law_on_products():
    # f(ab) expands through the support: f.(a b) = sum f(gh) (pi_g a)(pi_h b)
    rng = random.Random(3)
    for name in ("m2_z2", "fz2", "ut2", "free_trunc_2_2"):
        A = builtin(name)
        window = [g for g in A.support]
        for _ in range(20):
            f = rand_functional(rng, A.group, window)
            a, b = rand_vec(rng, A.dim), rand_vec(rng, A.dim)
            lhs = dual_action(f, A.multiply(a, b), A)
            acc = [F(0)] * A.dim
            for g in A.support:
                for h in A.support:
                    c = f(g * h)
                    if c == 0:
                        continue
                    prod = A.multiply(dual_action(DualFunctional.delta(g), a, A),
                                      dual_action(DualFunctional.delta(h), b, A))
                    acc = [x + c * y for x, y in zip(acc, prod)]
            assert lhs == tuple(acc)


def test_xi_trivial_group():
    t = TrivialGroup()
    f = DualFunctional(t, {t.identity(): F(5)})
    w = CoalgebraWindow.from_support(t, [t.identity()])
    pairs = xi_decompose(f, w)
    assert len(pairs) == 1
    g = t.identity()
    assert sum(p(g) * q(g) for p, q in pairs) == f(g * g)


def test_xi_z2_delta():
    z2 = CyclicGroup(2)
    w = CoalgebraWindow.from_support(z2, z2.elements())
    f = DualFunctional.delta(z2.elem(0))
    pairs = xi_decompose(f, w)
    # one pair per window element: translation permutes Z2, so no translate
    # of a nonzero f is zero; f = 0 gives none
    assert len(pairs) == len(w.basis)
    assert xi_decompose(DualFunctional(z2), w) == []
    # the split of delta_0 over Z2 is exactly {(d0, d0), (d1, d1)}
    got = sorted((p.support()[0].key, r.support()[0].key) for p, r in pairs)
    assert got == [(0, 0), (1, 1)]
    for g in w.basis:
        for q in w.basis:
            assert sum(p(g) * r(q) for p, r in pairs) == f(g * q)


def xi_certificate_holds(f, window):
    pairs = xi_decompose(f, window)
    assert len(pairs) <= len(window.basis)
    for g in window.basis:
        active = [(p(g), r) for p, r in pairs]
        active = [(c, r) for c, r in active if c != 0]
        for q in window.basis:
            if sum((c * r(q) for c, r in active), F(0)) != f(g * q):
                return False
    return True


def test_xi_random_functionals_free_group_window():
    A = free_group_truncation(2, 3)
    window = CoalgebraWindow.for_algebra(A)
    rng = random.Random(4)
    for _ in range(30):
        f = rand_functional(rng, A.group, window.basis)
        assert xi_certificate_holds(f, window)


def test_window_contents():
    A = free_group_truncation(2, 2)
    w = CoalgebraWindow.for_algebra(A)
    keys = {g.key for g in w.basis}
    assert ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)) <= tuple(keys) or all(
        k in keys for k in [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (-1,), (-2,)])
    # inverses of products present as well
    assert (-2, -1) in keys and (-1, -2) in keys


def assert_delta_closure(c, w, A):
    """c is the smallest subspace containing w and closed under every delta_g
    action, g in the support."""
    deltas = [DualFunctional.delta(g) for g in A.support]
    assert w <= c
    for d in deltas:
        for v in c.basis_vectors():
            assert c.contains(dual_action(d, v, A))
    images = [dual_action(d, v, A) for d in deltas for v in w.basis_vectors()]
    assert c == Subspace.from_vectors(A.dim, images)


def test_hstar_closure_examples():
    M = matrix_algebra_z2()
    graded = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert graded_closure(graded, M) == graded
    mixed = Subspace.from_vectors(4, [(1, 1, 0, 0)])
    closed = graded_closure(mixed, M)
    assert closed == Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert graded_closure(closed, M) == closed
    for w in (graded, mixed, closed, Subspace.zero(4)):
        assert_delta_closure(graded_closure(w, M), w, M)


def test_hstar_closure_matches_direct_graded_closure():
    rng = random.Random(5)
    for name in ("m2_z2", "free_trunc_2_3", "fz2", "ut2"):
        A = builtin(name)
        for _ in range(15):
            w = Subspace.from_vectors(
                A.dim, [rand_vec(rng, A.dim) for _ in range(rng.randint(0, 3))])
            assert_delta_closure(graded_closure(w, A), w, A)


def test_verify_ideal_closure():
    U = ut2()
    J = jacobson_radical(U)
    assert verify_ideal_closure(J, U)
    A = fz2()
    mixed = Subspace.from_vectors(2, [(1, 1)])    # non-graded ideal span{1+g}
    assert verify_ideal_closure(mixed, A)
    assert graded_closure(mixed, A) == Subspace.full(2)
    assert verify_ideal_closure(Subspace.zero(2), A)
    with pytest.raises(NotAnIdealError):
        verify_ideal_closure(Subspace.from_vectors(4, [(0, 1, 0, 0)]), matrix_algebra_z2())


def test_trace_identity_identity_component():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    rng = random.Random(6)
    for _ in range(20):
        a = rand_vec(rng, 4)
        he = DualFunctional.delta(g0)
        assert M.trace_of_left_mult(dual_action(he, a, M)) == M.trace_of_left_mult(a)
        hg = DualFunctional.delta(g1)
        assert M.trace_of_left_mult(dual_action(hg, a, M)) == 0
        assert trace_identity_check(he, a, M)
        assert trace_identity_check(hg, a, M)


def test_trace_identity_on_unit():
    for name in ("m2_z2", "fz2", "ut2"):
        A = builtin(name)
        rng = random.Random(7)
        f = rand_functional(rng, A.group, A.support)
        lhs = A.trace_of_left_mult(dual_action(f, A.unit, A))
        assert lhs == f(A.group.identity()) * A.dim
        assert trace_identity_check(f, A.unit, A)


def test_trace_identity_random_and_non_unital():
    rng = random.Random(8)
    names = ("m2_z2", "ut2", "fz2", "free_trunc_2_2", "free_trunc_2_3")
    for name in names:
        A = builtin(name)
        window = CoalgebraWindow.for_algebra(A)
        for _ in range(50):
            f = rand_functional(rng, A.group, window.basis)
            a = rand_vec(rng, A.dim)
            assert trace_identity_check(f, a, A)
    # non-unital: the radical of free_trunc as an algebra, no unit adjoined
    from gradedalg.algebra import algebra_on_subspace
    A = builtin("free_trunc_2_3")
    J = jacobson_radical(A)
    emb = algebra_on_subspace(A, J, name="J")
    B = emb.algebra
    assert B.unit is None
    for _ in range(50):
        f = rand_functional(rng, B.group, B.support)
        a = rand_vec(rng, B.dim)
        assert trace_identity_check(f, a, B)


def test_functional_arithmetic():
    z3 = CyclicGroup(3)
    f = DualFunctional(z3, {z3.elem(1): F(2)})
    g = DualFunctional(z3, {z3.elem(1): F(-2), z3.elem(2): F(1)})
    s = f + g
    assert s(z3.elem(1)) == 0 and s(z3.elem(2)) == 1
    assert s.support() == (z3.elem(2),)
    assert f.scale(0).is_zero()
    t = f.translate(z3.elem(2))          # q -> f(2 + q), supported at q = 2
    assert t(z3.elem(2)) == 2 and t(z3.elem(0)) == 0
