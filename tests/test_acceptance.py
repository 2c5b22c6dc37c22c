"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic; there are no tolerances anywhere. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product

from gradedalg.algebra import algebra_on_subspace, graded_closure
from gradedalg.builders import (builtin, direct_sum, free_group_truncation,
                                fz2, group_algebra, matrix_algebra,
                                matrix_algebra_z2, ut2, gl2_z2)
from gradedalg.exactlin import Subspace, is_zero_vector
from gradedalg.groups import CyclicGroup, ProductGroup
from gradedalg.hopf import (CoalgebraWindow, DualFunctional,
                            trace_identity_check, xi_decompose)
from gradedalg.identities import (MultilinearGradedPoly, codimension_report,
                                  graded_codimension)
from gradedalg.radical import jacobson_radical, nilradical, solvable_radical
from gradedalg.structure import (levi_graded, malcev_complement_graded,
                                 wedderburn_artin_graded)
from tests.corpus import associative_corpus, lie_corpus
from tests.functional import evaluate_functional_poly
from tests.oracles import (bareiss_rank, brute_force_largest_nilpotent_ideal,
                           enumerate_minimal_graded_ideals,
                           global_graded_codim_rank)

F = Fraction


@contextmanager
def criterion(num, budget, desc):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.1f}s)")


def rand_vec(rng, dim, lo=-3, hi=3):
    return tuple(F(rng.randint(lo, hi)) for _ in range(dim))


ASSOCIATIVE_BUILTINS = ("m2_z2", "ut2", "fz2", "free_trunc_2_2",
                        "free_trunc_1_3", "free_trunc_2_3")
ALL_BUILTINS = ASSOCIATIVE_BUILTINS + ("sl2", "gl2_z2", "heis3", "aff1")


def test_c01_radical_graded_ideal_corpus():
    with criterion(1, 60.0, "Jacobson radical is a graded ideal on the corpus"):
        corpus = associative_corpus()
        assert len(corpus) >= 200
        assert all(a.dim <= 8 for a in corpus)
        kinds = {(type(a.group).__name__,
                  getattr(a.group, "n", getattr(a.group, "rank", None)))
                 for a in corpus}
        assert ("TrivialGroup", None) in kinds
        assert ("CyclicGroup", 2) in kinds and ("CyclicGroup", 3) in kinds
        assert ("ProductGroup", None) in kinds
        assert ("FreeGroup", 2) in kinds
        for A in corpus:
            J = jacobson_radical(A, verify=False)
            assert graded_closure(J, A) == J
            assert A.is_ideal(J)


def test_c02_lie_radicals_graded():
    with criterion(2, 10.0, "Lie solvable/nilpotent radicals graded, [L,R] <= N"):
        for L in lie_corpus():
            R = solvable_radical(L)
            N = nilradical(L)
            assert graded_closure(R, L) == R
            assert graded_closure(N, L) == N
            assert N <= R
            assert L.product_span(Subspace.full(L.dim), R) <= N


def test_c03_radical_oracle_equivalence():
    with criterion(3, 120.0, "trace-form radical equals brute-force nilpotent ideal (dim <= 4)"):
        small = [a for a in associative_corpus() if a.dim <= 4]
        assert len(small) >= 20
        for A in small:
            assert jacobson_radical(A, verify=False) == \
                brute_force_largest_nilpotent_ideal(A)


def test_c04_trace_identity():
    with criterion(4, 60.0, "tr(L(h.a)) = h(e) tr(L(a)), 1000 random pairs per builtin"):
        rng = random.Random(404)
        for name in ALL_BUILTINS:
            A = builtin(name)
            window = CoalgebraWindow.for_algebra(A)
            for _ in range(1000):
                f = DualFunctional(
                    A.group, {g: F(rng.randint(-4, 4)) for g in window.basis})
                a = rand_vec(rng, A.dim)
                assert trace_identity_check(f, a, A)


def test_c05_xi_decomposition_certificates():
    with criterion(5, 60.0, "product splitting h(gq) = sum h_i'(g) h_i''(q) on windows"):
        rng = random.Random(505)
        windows = [
            CoalgebraWindow.from_support(CyclicGroup(2), CyclicGroup(2).elements()),
            CoalgebraWindow.from_support(CyclicGroup(3), CyclicGroup(3).elements()),
            CoalgebraWindow.for_algebra(free_group_truncation(2, 3)),
        ]
        for window in windows:
            for _ in range(100):
                f = DualFunctional(
                    window.group,
                    {g: F(rng.randint(-5, 5)) for g in window.basis
                     if rng.random() < 0.7})
                pairs = xi_decompose(f, window)
                assert len(pairs) <= len(window.basis)
                for g in window.basis:
                    active = [(p(g), r) for p, r in pairs]
                    active = [(c, r) for c, r in active if c != 0]
                    for q in window.basis:
                        assert sum((c * r(q) for c, r in active), F(0)) == f(g * q)


def test_c06_wedderburn_artin():
    with criterion(6, 60.0, "graded-simple decomposition matches exhaustive enumeration"):
        cases = [
            matrix_algebra_z2(),
            fz2(),
            matrix_algebra(2),
            group_algebra(CyclicGroup(3), name="fz3"),
            group_algebra(ProductGroup((CyclicGroup(2), CyclicGroup(2))), name="fk4"),
            direct_sum(matrix_algebra_z2(), matrix_algebra(1, CyclicGroup(2)), name="m2+F"),
            direct_sum(fz2(), fz2()),
            direct_sum(matrix_algebra(1), matrix_algebra(1)),
        ]
        for A in cases:
            assert A.dim <= 6
            dec = wedderburn_artin_graded(A)
            assert sorted(dec.components, key=lambda s: (s.dim, s.basis_vectors())) == \
                enumerate_minimal_graded_ideals(A)
            assert sum(dec.dims()) == A.dim
            for i, ci in enumerate(dec.components):
                for j, cj in enumerate(dec.components):
                    if i != j:
                        for u in ci.basis_vectors():
                            for w in cj.basis_vectors():
                                assert is_zero_vector(A.multiply(u, w))
            # graded-simplicity: every nonzero homogeneous basis projection
            # generates its whole component
            for c in dec.components:
                for v in c.basis_vectors():
                    for _, p in A.homogeneous_components(v):
                        assert A.ideal_generated([p]) == c


def test_c07_malcev_and_levi():
    with criterion(7, 60.0, "graded complements: UT2, free_trunc(2,3), gl2_z2"):
        U = ut2()
        B = malcev_complement_graded(U)
        J = jacobson_radical(U)
        assert B == Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])
        assert (B & J).is_zero() and (B + J).dim == U.dim
        assert U.is_subalgebra(B)
        assert all(U.degree_of(v) is not None for v in B.basis_vectors())

        A = free_group_truncation(2, 3)
        BA = malcev_complement_graded(A)
        JA = jacobson_radical(A)
        assert BA == Subspace.from_vectors(7, [A.unit])
        assert JA.dim == 6
        from gradedalg.algebra import nilpotency_index
        assert nilpotency_index(A, JA) == 3
        assert (BA & JA).is_zero() and (BA + JA).dim == 7

        G = gl2_z2()
        BG = levi_graded(G)
        RG = solvable_radical(G)
        assert BG == Subspace.from_vectors(4, [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)])
        assert (BG & RG).is_zero() and (BG + RG).dim == 4
        assert G.is_subalgebra(BG)
        assert all(G.degree_of(v) is not None for v in BG.basis_vectors())

        # multiplicative sections, verified exactly on basis pairs
        for alg, comp in ((U, B), (A, BA)):
            emb = algebra_on_subspace(alg, comp, name="B")
            for a in range(emb.algebra.dim):
                for b in range(emb.algebra.dim):
                    lhs = alg.multiply(emb.rows[a], emb.rows[b])
                    rhs = emb.include(emb.algebra.multiply(
                        emb.algebra.basis_vector(a), emb.algebra.basis_vector(b)))
                    assert lhs == rhs


def test_c08_codimension_goldens():
    with criterion(8, 10.0, "codimension goldens confirmed by the global-rank oracle"):
        M = matrix_algebra_z2()
        M2 = matrix_algebra(2)
        F22 = free_group_truncation(2, 2)
        goldens = [(M, 1, 2), (M, 2, 7), (M2, 1, 1), (M2, 2, 2), (F22, 1, 3)]
        for A, n, expect in goldens:
            assert global_graded_codim_rank(A, n) == expect
            assert graded_codimension(A, n) == expect


def _delta_label_codimension(A, n):
    """Sum over every labelling in Support^n (no orbit reduction) of the rank
    of its n! monomials, each evaluated by `evaluate_functional_poly` on every
    tuple of basis vectors of A^n: the variables range over all of A and the
    delta labels project them, so no component-wise block is used."""
    tuples = [[A.basis_vector(i) for i in t] for t in product(range(A.dim), repeat=n)]
    total = 0
    for labels in product(A.support, repeat=n):
        rows = []
        for perm in permutations(range(n)):
            mono = MultilinearGradedPoly(n, {(perm, labels): 1})
            row = [c for vecs in tuples for c in evaluate_functional_poly(mono, A, vecs)]
            assert all(c.denominator == 1 for c in row)     # bareiss_rank takes integers
            rows.append(row)
        total += bareiss_rank(rows)
    return total


def test_c09_functional_equals_graded():
    with criterion(9, 120.0, "delta-label codimensions equal graded ones, n <= 3, 5 builtins"):
        names = ("m2_z2", "ut2", "fz2", "free_trunc_2_2", "free_trunc_1_3")
        assert len(names) >= 5
        for name in names:
            A = builtin(name)
            for n in (1, 2, 3):
                assert _delta_label_codimension(A, n) == graded_codimension(A, n), (name, n)


def test_c10_block_split_oracle():
    with criterion(10, 300.0, "sum of block ranks equals one global matrix rank, n <= 3"):
        for name in ASSOCIATIVE_BUILTINS:
            A = builtin(name)
            for n in (1, 2, 3):
                assert graded_codimension(A, n) == global_graded_codim_rank(A, n)


def test_c11_nilpotent_codimensions():
    with criterion(11, 60.0, "nilpotent radical algebra: c_2 > 0, c_n = 0 for n >= 3"):
        A = free_group_truncation(2, 3)
        J = jacobson_radical(A)
        B = algebra_on_subspace(A, J, name="J").algebra
        assert B.unit is None
        assert graded_codimension(B, 2) > 0
        assert graded_codimension(B, 3) == 0
        assert graded_codimension(B, 4) == 0
        # c_n = 0 is settled by nilpotency from the index 3 on, and only there
        assert codimension_report(B, 6).shortcuts == [3, 4, 5, 6]


def test_c12_exponent_consistency():
    with criterion(12, 300.0, "free_trunc(2,3) bracketing verdict with d = 1 over n <= 5"):
        A = free_group_truncation(2, 3)
        rep = codimension_report(A, 5, predicted_d=1)
        # distinct-concatenation counting gives 3n^2 + 3n + 1 per n
        assert rep.values == [3 * n * n + 3 * n + 1 for n in range(1, 6)]
        v = rep.verdict
        assert v is not None and v.consistent
        assert v.lower_power is not None and v.upper_power is not None
        for i, c in enumerate(rep.values):
            n = F(i + 1)
            assert v.lower_const * n ** v.lower_power <= F(c)
            assert F(c) <= v.upper_const * n ** v.upper_power
        assert all("." in r for r in rep.roots)          # finite decimal roots
        # ratio sequence polynomially bounded across the range:
        # c_{n+1}/c_n <= ((n+1)/n)^r2 * (C2/C1) * (n+1)^(r2-r1)
        for i, ratio in enumerate(rep.ratios):
            n = i + 1
            bound = (v.upper_const / v.lower_const) * \
                F(n + 1) ** v.upper_power / F(n) ** v.lower_power
            assert ratio <= bound
