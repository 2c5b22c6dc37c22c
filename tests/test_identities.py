import gc
import json
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedalg import identities
from gradedalg.algebra import GradedAlgebra, algebra_on_subspace, nilpotency_index
from gradedalg.builders import (builtin, free_group_truncation,
                                matrix_algebra, matrix_algebra_z2)
from gradedalg.cli import main
from gradedalg.errors import ResourceCapError, ValidationError
from gradedalg.groups import CyclicGroup, FreeGroup
from gradedalg.hopf import DualFunctional
from gradedalg.identities import (ExponentVerdict, MultilinearGradedPoly,
                                  codim_block, codimension_report, decimal_root,
                                  exponent_estimate, graded_codimension,
                                  is_graded_identity)
from gradedalg.radical import jacobson_radical
from gradedalg.schema import algebra_to_description
from tests.corpus import (has_non_integral_constant, random_graded_quotient,
                          random_matrix_subalgebra, rescaled)
from tests.functional import (evaluate_functional_poly, from_functionals,
                              is_functional_identity)
from tests.oracles import brute_block_rank, global_graded_codim_rank

F = Fraction
SCALES = (F(2, 3), F(-5, 2), F(7, 4), F(-3, 5))


def commutator(degs):
    return MultilinearGradedPoly(2, {((0, 1), tuple(degs)): F(1),
                                     ((1, 0), tuple(degs)): F(-1)})


def test_degree_zero_commutator_is_identity_on_m2():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    assert is_graded_identity(commutator((g0, g0)), M)
    assert not is_graded_identity(commutator((g0, g1)), M)
    assert not is_graded_identity(commutator((g1, g1)), M)


def test_plain_commutator_not_identity_on_m2():
    M = matrix_algebra(2)
    e = M.group.identity()
    assert not is_graded_identity(commutator((e, e)), M)


def test_out_of_support_variable_is_identity():
    A = free_group_truncation(2, 2)
    g_out = A.group.word([1, 1, 1])
    assert g_out not in A.support
    single = MultilinearGradedPoly(1, {((0,), (g_out,)): F(1)})
    assert is_graded_identity(single, A)
    # and a mixed polynomial drops such terms
    g_in = A.support[1]
    mixed = MultilinearGradedPoly(1, {((0,), (g_out,)): F(1), ((0,), (g_in,)): F(0)})
    assert is_graded_identity(mixed, A)


def test_codim_block_values_match_brute_oracle():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    for degs, expect in [((g0,), 1), ((g1,), 1),
                         ((g0, g0), 1), ((g0, g1), 2), ((g1, g0), 2), ((g1, g1), 2)]:
        assert codim_block(M, degs) == expect
        assert brute_block_rank(M, degs) == expect


def test_codim_goldens_after_oracle_confirmation():
    M = matrix_algebra_z2()
    M2 = matrix_algebra(2)
    F22 = free_group_truncation(2, 2)
    for A, n, expect in [(M, 1, 2), (M, 2, 7), (M2, 1, 1), (M2, 2, 2), (F22, 1, 3)]:
        assert global_graded_codim_rank(A, n) == expect
        assert graded_codimension(A, n) == expect


def test_block_sum_equals_global_rank_small():
    for name in ("m2_z2", "fz2", "ut2", "free_trunc_2_2"):
        A = builtin(name)
        for n in (1, 2, 3):
            assert graded_codimension(A, n) == global_graded_codim_rank(A, n)


def test_free_trunc_codims_match_word_counting():
    # every component is one word; a block's rank is the number of distinct
    # nonzero concatenations over the orderings, giving 3n^2 + 3n + 1 overall
    A = free_group_truncation(2, 3)
    for n in (1, 2, 3):
        assert graded_codimension(A, n) == 3 * n * n + 3 * n + 1


def test_trivial_group_reproduces_ordinary_codimension():
    M2 = matrix_algebra(2)
    assert len(M2.support) == 1
    for n in (1, 2, 3):
        assert graded_codimension(M2, n) == global_graded_codim_rank(M2, n)


@pytest.mark.parametrize("name, count", [
    ("m2_z2", 100), ("ut2", 100), ("fz2", 100), ("free_trunc_2_3", 25),
    ("sl2", 100), ("gl2_z2", 100), ("heis3", 100), ("aff1", 100)])
def test_round_trip_label_maps(name, count):
    # delta labels through unrestricted substitutions decide the same
    # identities as degree labels through component substitutions, also
    # when the terms of one polynomial carry different labellings; the
    # oracle tries dim^n substitutions, so the dim-7 algebra gets fewer
    rng = random.Random(21)
    M = builtin(name)
    for _ in range(count):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            perm = tuple(rng.sample(range(n), n))
            degs = tuple(rng.choice(M.support) for _ in range(n))
            terms[(perm, degs)] = F(rng.randint(-3, 3))
        f = MultilinearGradedPoly(n, terms)
        assert from_functionals(n, terms, M.support).terms == f.terms
        assert is_graded_identity(f, M) == is_functional_identity(f, M)


def _mixed_counterexamples():
    A = builtin("fz2")
    g0, g1 = A.support
    S = builtin("sl2")
    a, b = S.group.word([1]), S.group.word([-1])
    return [(A, {((1, 0, 2), (g1, g1, g1)): -1, ((0, 2, 1), (g0, g0, g1)): 1}),
            (A, {((2, 0, 1), (g0, g1, g0)): -3, ((0, 1, 2), (g1, g1, g1)): 3}),
            (S, {((1, 0, 2), (a, a, a)): -2, ((1, 0, 2), (a, b, a)): 3,
                 ((2, 0, 1), (a, a, b)): -1, ((0, 1, 2), (b, a, a)): -2})]


@pytest.mark.parametrize("case", range(3))
def test_mixed_labellings_vanish_part_by_part(case):
    # x_i under two labels is two free variables, so f is not multilinear in
    # the slots (i, label) and basis choices of the slots do not decide it:
    # on fz2, with x_i = s_i 1 under label 0 and t_i u under label 1, the
    # first is (s1 s2 - t1 t2) t3 u
    A, terms = _mixed_counterexamples()[case]
    f = MultilinearGradedPoly(3, terms)
    assert not is_functional_identity(f, A)
    assert not is_graded_identity(f, A)


def test_check_identity_cost_follows_the_nonzero_products():
    # x_1..x_n - x_n..x_1 on m2_z2: a fold over every basis choice takes
    # 2^n of them per labelling (74 s at n = 11 with both labellings), the
    # walk keeps only the nonzero partial products
    M = matrix_algebra_z2()
    g0, g1 = M.support
    for n, labels in [(11, (g0, g1)), (30, (g0,))]:
        fwd = tuple(range(n))
        terms = {}
        for g in labels:
            terms[(fwd, (g,) * n)] = 1
            terms[(fwd[::-1], (g,) * n)] = -1
        start = time.perf_counter()
        assert is_graded_identity(MultilinearGradedPoly(n, terms), M)
        assert time.perf_counter() - start < 2.0


def test_out_of_support_maps_to_zero():
    A = free_group_truncation(2, 2)
    g_out = A.group.word([1, 1])
    f = MultilinearGradedPoly(1, {((0,), (g_out,)): F(1)})
    assert is_functional_identity(f, A)
    assert evaluate_functional_poly(f, A, [(F(1),) * A.dim]) == (F(0),) * A.dim


def test_general_label_reduction():
    # x^f with f = 2*delta_{g0} + 3*delta_{g1} expands along the support
    M = matrix_algebra_z2()
    g0, g1 = M.support
    f = DualFunctional(M.group, {g0: F(2), g1: F(3)})
    poly = from_functionals(1, {((0,), (f,)): F(1)}, M.support)
    assert poly.terms == {((0,), (g0,)): F(2), ((0,), (g1,)): F(3)}
    v = (F(1), F(1), F(1), F(1))
    out = evaluate_functional_poly(poly, M, [v])
    assert out == (F(2), F(3), F(3), F(2))


def test_functional_labels_are_validated():
    M = matrix_algebra_z2()
    g0, g1 = M.support
    with pytest.raises(ValidationError, match="one degree label per variable"):
        from_functionals(2, {((0, 1), (g0,)): 1}, M.support)
    with pytest.raises(ValidationError, match="one degree label per variable"):
        from_functionals(1, {((0,), (DualFunctional.delta(g0), g1)): 1}, M.support)
    with pytest.raises(ValidationError, match="neither a functional nor a group element"):
        from_functionals(1, {((0,), ("g0",)): 1}, M.support)


def test_polynomial_needs_a_variable():
    M = matrix_algebra_z2()
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n >= 1 variables"):
            MultilinearGradedPoly(n, {((), ()): 1})
        with pytest.raises(ValidationError, match="n >= 1 variables"):
            from_functionals(n, {((), ()): 1}, M.support)


def test_nilpotent_shortcut():
    A = free_group_truncation(2, 3)
    J = jacobson_radical(A)
    B = algebra_on_subspace(A, J, name="J").algebra
    # 0 from the nilpotency index 3 on, and none below it
    assert codimension_report(B, 3).shortcuts == [3]
    assert codimension_report(B, 2).shortcuts == []
    assert graded_codimension(B, 2) > 0
    assert graded_codimension(B, 3) == 0
    assert codimension_report(A, 3).shortcuts == []      # unital never shortcuts


def test_codimension_report_computes_the_nilpotency_index_once(monkeypatch):
    A = free_group_truncation(2, 3)
    J = algebra_on_subspace(A, jacobson_radical(A), name="J").algebra
    calls = []

    def counted(*args):
        calls.append(args)
        return nilpotency_index(*args)

    monkeypatch.setattr(identities, "nilpotency_index", counted)
    rep = codimension_report(J, 6)
    assert len(calls) == 1
    assert rep.shortcuts == [3, 4, 5, 6]
    assert rep.values[2:] == [0, 0, 0, 0]


def test_resource_caps():
    A = free_group_truncation(2, 3)
    with pytest.raises(ResourceCapError):
        graded_codimension(A, 7)
    with pytest.raises(ResourceCapError):
        graded_codimension(A, 6)     # 7^6 assignments exceed the default cap
    with pytest.raises(ResourceCapError):
        codimension_report(A, 2, max_blocks=7)    # 7^2 labellings
    with pytest.raises(ValidationError):
        graded_codimension(A, 0)
    for n_max in (0, -1):
        with pytest.raises(ValidationError, match="codimensions start at n = 1"):
            codimension_report(A, n_max)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=st.integers(0, 2 ** 4096 - 1), n=st.integers(1, 16))
def test_int_nth_root_is_the_floor(x, n):
    r = identities._int_nth_root(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_decimal_root():
    assert decimal_root(8, 3) == "2.0000"
    assert decimal_root(2, 1) == "2.0000"
    assert decimal_root(2, 2) == "1.4142"
    assert decimal_root(91, 5) == "2.4649"


def test_exponent_estimate_polynomial_growth():
    values = [3 * n * n + 3 * n + 1 for n in range(1, 6)]
    v = exponent_estimate(values, predicted_d=1)
    assert v.consistent
    assert v.lower_power <= v.upper_power
    assert v.upper_power == 2
    # the bracketing inequalities hold verbatim
    for i, c in enumerate(values):
        n = i + 1
        assert v.lower_const * F(n) ** v.lower_power <= F(c)
        assert F(c) <= v.upper_const * F(n) ** v.upper_power


def test_exponent_estimate_rejects_geometric_mismatch():
    values = [5 ** n for n in range(1, 8)]
    v = exponent_estimate(values, predicted_d=1)
    assert v.consistent is False


def test_exponent_estimate_nilpotent():
    v = exponent_estimate([2, 1, 0, 0], predicted_d=1)
    assert v.nilpotent
    assert "nilpotent" in v.message
    with pytest.raises(ValidationError):
        exponent_estimate([2, 0, 3], predicted_d=1)
    with pytest.raises(ValidationError):
        exponent_estimate([1, 2], predicted_d=1)


# the integers d in 1..9 that the verdict accepts, over a short and a long
# range of each builtin's codimensions: the finite-range verdict is not
# monotone in d (m2_z2 at n <= 6 accepts 7 but not 6)
M2_Z2_CODIMS = [2, 7, 28, 111, 431, 1653, 6308, 24055, 91867, 351693]


@pytest.mark.parametrize("values, accepted", [
    (M2_Z2_CODIMS[:6], {3, 4, 5, 7}),
    (M2_Z2_CODIMS[:8], {3, 4, 5}),
    (M2_Z2_CODIMS, {3, 4}),
    ([n * 2 ** (n - 1) + 1 for n in range(1, 7)], {2, 3, 5}),       # ut2
    ([n * 2 ** (n - 1) + 1 for n in range(1, 12)], {2, 3}),
    ([2 ** n for n in range(1, 7)], {1, 2, 4}),                      # fz2
    ([2 ** n for n in range(1, 9)], {2}),
    ([3 * n * n + 3 * n + 1 for n in range(1, 8)], {1}),             # free_trunc_2_3
])
def test_exponent_estimate_accepted_exponents(values, accepted):
    assert {d for d in range(1, 10) if exponent_estimate(values, d).consistent} == accepted


def _two_scan_verdict(values, predicted_d):
    # frozen copy of the verdict's earlier power search, for positive values:
    # r1 and r2 each scanned over the whole window [-64, 64] from one end
    d = F(predicted_d)
    u = [F(v) / d ** (i + 1) for i, v in enumerate(values)]
    N = len(u)
    ratio = u[N - 1] / u[0]
    r1 = None
    for r in range(64, -65, -1):
        if F(N) ** r <= ratio:
            r1 = r
            break
    r2 = None
    for r in range(-64, 65):
        if ratio <= F(N) ** r:
            r2 = r
            break
    if r1 is None or r2 is None:
        return ExponentVerdict(predicted_d, False, False,
                               message="endpoint slope outside the power window")
    c2 = max(u[0], u[N - 1] / F(N) ** r2)
    c1 = min(u[0], u[N - 1] / F(N) ** r1)
    ok = True
    for i, un in enumerate(u):
        n = F(i + 1)
        if not (c1 * n ** r1 <= un <= c2 * n ** r2):
            ok = False
            break
    msg = (f"consistent with exponent {predicted_d}: "
           f"{c1} * n^{r1} * {predicted_d}^n <= c_n <= {c2} * n^{r2} * {predicted_d}^n "
           f"over n = 1..{N}") if ok else (
           f"no endpoint-anchored bracket around {predicted_d}^n fits the range")
    return ExponentVerdict(predicted_d, False, ok, r1, r2, c1, c2, msg)


def _verdict_cases(seed, count):
    # seeded (values, d): sequences near C n^k b^n, and arbitrary ones
    rng = random.Random(seed)
    for _ in range(count):
        N = rng.randint(3, 8)
        if rng.random() < 0.6:
            C, k, b = rng.randint(1, 50), rng.randint(0, 6), rng.randint(1, 12)
            values = [max(1, C * n ** k * b ** n + rng.randint(-n, n)) for n in range(1, N + 1)]
        else:
            values = [rng.randint(1, 10 ** rng.randint(1, 60)) for _ in range(N)]
        d = rng.choice([rng.randint(1, 12), rng.randint(1, 10 ** rng.randint(2, 40))])
        yield values, d


# three-term sequences: ratio = c_3 / (c_1 d^2) against 3^r
VERDICT_EDGES = [
    [1, 9, 3 ** 64],                     # ratio = 3^64: r1 = r2 = 64
    [1, 9, 3 ** 64 - 1],                 # just inside the top of the window
    [1, 9, 3 ** 64 + 1],                 # just outside it
    [3 ** 64, 3, 1],                     # ratio = 3^-64: r1 = r2 = -64
    [3 ** 64, 3, 2],                     # just inside the bottom
    [3 ** 64 + 1, 3, 1],                 # just outside it
    [5, 45, 5 * 3 ** 5],                 # ratio = 3^5 exactly: r1 = r2
    [2, 4, 8], [1, 10, 100], [7, 7, 7],
]


@pytest.mark.parametrize("values", VERDICT_EDGES)
@pytest.mark.parametrize("d", [1, 2, 3, 10 ** 40])
def test_exponent_walk_matches_the_two_scans_at_the_edges(values, d):
    v = exponent_estimate(values, d)
    assert v == _two_scan_verdict(values, d)
    if v.lower_power is not None:
        ratio = F(values[2], values[0] * d * d)
        assert v.upper_power == v.lower_power + (ratio != F(3) ** v.lower_power)
        assert type(v.lower_const) is F and type(v.upper_const) is F


def test_exponent_walk_window_edges_and_a_huge_exponent():
    top = exponent_estimate([1, 9, 3 ** 64], 1)
    assert (top.lower_power, top.upper_power) == (64, 64)
    assert exponent_estimate([1, 9, 3 ** 64 + 1], 1).message == \
        "endpoint slope outside the power window"
    bottom = exponent_estimate([3 ** 64, 3, 2], 1)
    assert (bottom.lower_power, bottom.upper_power) == (-64, -63)
    assert exponent_estimate([3 ** 64 + 1, 3, 1], 1).lower_power is None
    # d = 10^40 on c_n = d^n n: ratio 3 = N^1 exactly
    d = 10 ** 40
    v = exponent_estimate([d, 2 * d ** 2, 3 * d ** 3], d)
    assert v.consistent and (v.lower_power, v.upper_power) == (1, 1)
    assert type(v.lower_const) is F and type(v.upper_const) is F


def test_exponent_walk_matches_the_two_scans_on_seeded_cases():
    cases = list(_verdict_cases(24, 2000))
    verdicts = [exponent_estimate(v, d) for v, d in cases]
    assert [c for c, v in zip(cases, verdicts) if v != _two_scan_verdict(*c)] == []
    # the sample reaches every outcome: consistent, refused, outside the window
    assert {v.consistent for v in verdicts} == {True, False}
    assert any(v.lower_power is None for v in verdicts)
    assert all(type(v.lower_const) is F and type(v.upper_const) is F
               for v in verdicts if v.lower_power is not None)


def test_codimension_report_structure():
    A = free_group_truncation(2, 3)
    rep = codimension_report(A, 3, predicted_d=1)
    assert rep.values == [7, 19, 37]
    assert rep.verdict is not None and rep.verdict.consistent
    assert rep.roots[0] == "7.0000"
    assert rep.ratios[0] == F(19, 7)
    assert len(rep.per_n) == 3


def test_codimension_report_uses_shortcut():
    A = free_group_truncation(2, 3)
    J = jacobson_radical(A)
    B = algebra_on_subspace(A, J, name="J").algebra
    rep = codimension_report(B, 4)
    assert rep.values[2:] == [0, 0]
    assert rep.shortcuts == [3, 4]


def test_codimensions_reject_lie():
    from gradedalg.builders import sl2
    with pytest.raises(ValidationError):
        graded_codimension(sl2(), 2)
    with pytest.raises(ValidationError):
        codimension_report(sl2(), 2)


def test_codimension_bounds_for_unital_algebras():
    import math
    for name in ("m2_z2", "ut2", "fz2", "free_trunc_2_2"):
        A = builtin(name)
        m = len(A.support)
        for n in (1, 2, 3):
            c = graded_codimension(A, n)
            assert 1 <= c <= m ** n * math.factorial(n)


def test_out_of_support_block_is_zero():
    A = free_group_truncation(2, 2)
    outside = A.group.word([1, 1])
    assert codim_block(A, (outside, A.support[0])) == 0


def test_identity_with_a_label_outside_the_support():
    # a variable labelled outside the support has no basis choice, so its
    # labelling's part vanishes in every word order, the outside variable
    # first, last or between
    A = free_group_truncation(2, 3)
    g, outside = A.support[1], A.group.word([1, 1, 1])
    for perm in permutations(range(3)):
        f = MultilinearGradedPoly(3, {(perm, (g, outside, g)): 1})
        assert is_graded_identity(f, A), perm
    # beside a part on the support that does not vanish, it changes nothing
    e = A.support[0]
    f = MultilinearGradedPoly(3, {((2, 0, 1), (g, outside, g)): 1, ((0, 1, 2), (e, g, g)): 1})
    assert not is_graded_identity(f, A)


def test_m2_exponent_consistent_with_four():
    # roots rise toward the predicted exponent and the bracket closes
    M = matrix_algebra_z2()
    rep = codimension_report(M, 5, predicted_d=4)
    assert rep.values[:2] == [2, 7]
    assert rep.verdict.consistent
    roots = [F(r.replace(".", "")) for r in rep.roots]
    assert roots == sorted(roots)        # increasing toward the bracket


ASSOCIATIVE_BUILTINS = ("m2_z2", "ut2", "fz2", "free_trunc_2_2", "free_trunc_2_3")


def test_orbit_sum_equals_full_labelling_sum():
    for name in ASSOCIATIVE_BUILTINS:
        A = builtin(name)
        for n in (1, 2, 3, 4):
            full = sum(brute_block_rank(A, d) for d in product(A.support, repeat=n))
            assert graded_codimension(A, n) == full, (name, n)


def test_codim_block_invariant_under_relabelling_variables():
    for name in ASSOCIATIVE_BUILTINS:
        A = builtin(name)
        for n in (1, 2, 3, 4):
            for degs in combinations_with_replacement(A.support, n):
                ranks = {codim_block(A, p) for p in set(permutations(degs))}
                assert len(ranks) == 1, (name, degs, ranks)


def test_codimensions_beyond_the_old_reach():
    A = free_group_truncation(2, 3)
    assert graded_codimension(A, 6, max_blocks=7 ** 6) == 3 * 36 + 3 * 6 + 1
    B = builtin("free_trunc_2_5")       # dim 31
    assert graded_codimension(B, 3) == 645
    # reached by the memoised walk; each value was first checked against
    # the unmemoised walk over Fractions
    assert graded_codimension(A, 7, max_n=7, max_blocks=7 ** 7) == 3 * 49 + 3 * 7 + 1
    assert graded_codimension(A, 8, max_n=8, max_blocks=7 ** 8) == 3 * 64 + 3 * 8 + 1
    for name, n, value in [("m2_z2", 7, 6308), ("m2_z2", 8, 24055),
                           ("ut2", 8, 1025), ("fz2", 8, 256),
                           # closed forms n 2^(n-1) + 1 and 2^n
                           ("ut2", 9, 9 * 2 ** 8 + 1), ("fz2", 9, 2 ** 9)]:
        assert graded_codimension(builtin(name), n, max_n=n, max_blocks=2 ** n) == value


def test_codimension_goldens_with_raised_caps():
    # one report each, in process, with raised caps; m2_z2 c_10 took 2.0 s on
    # the depth-first walk that this engine replaced, and c_11 matches an
    # independent cocharacter count
    M = builtin("m2_z2")
    assert codimension_report(M, 11, max_n=11, max_blocks=2 ** 11).values[5:] == \
        [1653, 6308, 24055, 91867, 351693, 1350031]
    for name, n_max, closed in [("ut2", 10, lambda n: n * 2 ** (n - 1) + 1),
                                ("fz2", 10, lambda n: 2 ** n),
                                ("free_trunc_2_3", 8, lambda n: 3 * n * n + 3 * n + 1)]:
        A = builtin(name)
        rep = codimension_report(A, n_max, max_n=n_max, max_blocks=len(A.support) ** n_max)
        assert rep.values == [closed(n) for n in range(1, n_max + 1)], name


def test_m2_z2_c10_in_time():
    A = builtin("m2_z2")
    start = time.perf_counter()
    assert graded_codimension(A, 10, max_n=10, max_blocks=2 ** 10) == 351693
    assert time.perf_counter() - start < 1.0


def test_word_functions_are_built_once_from_the_level_below(monkeypatch):
    # a count of work, not of time: the single step runs 5,013 times for
    # m2_z2 n <= 8 (the depth-first walk took 76,425 steps), and each
    # distinct word function enters the Reducer once
    A = builtin("m2_z2")
    steps, built, inserted = [], [], {}
    step, words, insert = identities._step, identities._Products.words, identities.Reducer.insert

    def counting_steps(*args):
        steps.append(1)
        return step(*args)

    def recording(table, M, below):
        out = words(table, M, below)
        built.append(len(out))
        return out

    def spying(red, v):
        # keyed by the Reducer itself, which the dict keeps alive, so that a
        # freed block's id cannot be reused by the next one
        inserted.setdefault(red, []).append(frozenset(v.items()))
        return insert(red, v)

    monkeypatch.setattr(identities, "_step", counting_steps)
    monkeypatch.setattr(identities._Products, "words", recording)
    monkeypatch.setattr(identities.Reducer, "insert", spying)
    assert codimension_report(A, 8, max_n=8, max_blocks=256).values[-1] == 24055
    assert len(steps) == 5013 < 76425 // 10
    rows = [r for block in inserted.values() for r in block]
    assert len(rows) == sum(built)
    assert all(len(block) == len(set(block)) for block in inserted.values())


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["quotient", "subalgebra", "rescaled"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
def test_report_codimension_and_blocks_agree(kind, seed, n):
    # the report hands each level's word functions to the next; the direct
    # c_n builds its levels without ranking them; each block on its own
    # table builds its own sub-multisets: a map carried from one multiset
    # into another would split them
    A = _random_algebra(kind, random.Random(seed))
    blocks = sum(_multinomial(labels) * codim_block(A, labels)
                 for labels in combinations_with_replacement(A.support, n))
    assert codimension_report(A, n).values[-1] == graded_codimension(A, n) == blocks


@pytest.mark.parametrize("shear", [0, F(1, 2)])
@pytest.mark.parametrize("name", ["m2_z2", "ut2"])
def test_codimensions_survive_non_integral_constants(name, shear):
    # a basis rescaled by distinct rationals keeps the grading and the
    # codimensions but has non-integral constants, so the walk's rows hold
    # Fractions; the shear within each component makes the ranks depend on
    # their values
    A = builtin(name)
    B = rescaled(A, SCALES[:A.dim], shear)
    assert B.degrees == A.degrees and has_non_integral_constant(B)
    assert [graded_codimension(B, n) for n in range(1, 6)] == \
        [graded_codimension(A, n) for n in range(1, 6)]
    for n in (1, 2, 3):
        for degs in combinations_with_replacement(B.support, n):
            assert codim_block(B, degs) == brute_block_rank(B, degs), degs


NON_INTEGRAL = (F(2, 3), F(-5, 2), F(7, 4), F(-3, 5), F(1, 2), F(3, 7))


def _random_algebra(kind, rng):
    if kind == "quotient":
        return random_graded_quotient(rng)
    if kind == "subalgebra":
        return random_matrix_subalgebra(rng)
    A = builtin(rng.choice(["m2_z2", "ut2", "fz2"]))
    B = rescaled(A, [rng.choice(NON_INTEGRAL) for _ in range(A.dim)], rng.choice([0, F(1, 2)]))
    assert has_non_integral_constant(B)
    return B


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["quotient", "subalgebra", "rescaled"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_codim_block_matches_brute_rank_on_random_algebras(kind, seed, data):
    # blocks of one n share a product table whose level the walk built, as
    # in _codim_blocks; a multiset missing from it is not live
    A = _random_algebra(kind, random.Random(seed))
    n = data.draw(st.integers(1, 3))
    products = identities._Products(A)
    for _ in islice(identities._walk(A, products), n):
        pass
    for _ in range(3):
        labels = tuple(data.draw(st.lists(st.sampled_from(A.support), min_size=n, max_size=n)))
        assert codim_block(A, labels, products) == brute_block_rank(A, labels), labels
        assert codim_block(A, labels) == brute_block_rank(A, labels), labels


def test_each_product_is_computed_once_per_report(monkeypatch):
    # a count of work, not of time: every (vector id, basis index) product is
    # computed once per table, and all blocks of all n of one computation
    # share one table
    calls = []
    multiply = identities._Products.multiply

    def counting(table, v, b):
        calls.append((table, v, b))
        return multiply(table, v, b)

    monkeypatch.setattr(identities._Products, "multiply", counting)
    assert graded_codimension(builtin("m2_z2"), 6) == 1653
    assert len({table for table, _, _ in calls}) == 1
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    assert codimension_report(builtin("free_trunc_2_3"), 4).values == [7, 19, 37, 61]
    assert len({table for table, _, _ in calls}) == 1          # n = 1..4
    assert len(calls) == len(set(calls)) > 0


def test_product_tables_do_not_outlive_their_computation(monkeypatch):
    tables = []
    init = identities._Products.__init__

    def tracking(table, A):
        tables.append(weakref.ref(table))
        init(table, A)

    monkeypatch.setattr(identities._Products, "__init__", tracking)
    A = builtin("m2_z2")
    codimension_report(A, 4)
    g0, g1 = A.support
    assert not is_graded_identity(commutator((g0, g1)), A)
    gc.collect()
    # one table for the report's n = 1..4, one for the identity check
    assert len(tables) == 2 and all(ref() is None for ref in tables)


def test_report_block_statistics_golden(tmp_path):
    # per_n recorded from the per-labelling engine; the orbit sum must report
    # the same labelling counts
    M = matrix_algebra_z2()
    assert codimension_report(M, 5).per_n == [
        {"n": n, "assignments": 2 ** n, "computed": 2 ** n,
         "nonzero_blocks": 2 ** n, "max_block_rank": 2 ** (n - 1)}
        for n in range(1, 6)]
    out = tmp_path / "h.json"
    assert main(["codim", "--builtin", "m2_z2", "--n-max", "4", "--mode", "h",
                 "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["h"]["per_n"] == [
        {"n": n, "assignments": 2 ** n, "computed": 2 ** n} for n in range(1, 5)]
    # blocks that vanish for some labellings
    for name, nonzero, max_rank in [("ut2", [2, 3, 4, 5], [1, 2, 4, 8]),
                                    ("free_trunc_2_3", [7, 17, 31, 49], [1, 2, 2, 2])]:
        A = builtin(name)
        m = len(A.support)
        assert codimension_report(A, 4).per_n == [
            {"n": n, "assignments": m ** n, "computed": m ** n,
             "nonzero_blocks": nonzero[n - 1], "max_block_rank": max_rank[n - 1]}
            for n in range(1, 5)]


def _counting_blocks(mp):
    """Record the labels of every block built, through the module global."""
    built = []
    block = identities.codim_block

    def counting(A, labels, *rest):
        built.append(labels)
        return block(A, labels, *rest)

    mp.setattr(identities, "codim_block", counting)
    return built


@pytest.mark.parametrize("name, n, value, blocks", [
    ("free_trunc_2_3", 4, 61, 10),       # 210 multisets
    ("free_trunc_2_3", 6, 127, 10),      # 924 multisets
    ("ut2", 5, 81, 2),                   # only e^n and e^(n-1) g are live
    ("m2_z2", 5, 431, 6),                # every multiset is live
])
def test_only_live_blocks_are_built(monkeypatch, name, n, value, blocks):
    built = _counting_blocks(monkeypatch)
    A = builtin(name)
    assert graded_codimension(A, n, max_blocks=len(A.support) ** n) == value
    assert len(built) == len(set(built)) == blocks


@pytest.mark.parametrize("name, n_max, values", [
    ("free_trunc_2_3", 5, [7, 19, 37, 61, 91]),
    ("ut2", 5, [2, 5, 13, 33, 81]),
])
def test_report_grows_each_level_once(monkeypatch, name, n_max, values):
    # one walk of the live multisets per report, one level per computed n,
    # one table for every block of the report, and each block ranks a level
    # that holds exactly the live multisets of its n
    A = builtin(name)
    walk, live = identities._walk, []
    products = identities._Products(A)
    for _ in islice(walk(A, products), n_max):
        live.append(set(products.level))
    walks = []

    def counting(B, table, *rest):
        walks.append(0)
        for _ in walk(B, table, *rest):
            walks[-1] += 1
            yield

    block = identities.codim_block
    tables = set()

    def checking(B, labels, table):
        tables.add(table)
        assert set(table.level) == live[len(labels) - 1]
        return block(B, labels, table)

    monkeypatch.setattr(identities, "_walk", counting)
    monkeypatch.setattr(identities, "codim_block", checking)
    assert codimension_report(A, n_max).values == values
    assert walks == [n_max]
    assert len(tables) == 1


def test_fresh_block_walks_only_its_own_labels(monkeypatch):
    # a block without a table walks the multisets over the labels of degs
    # alone: one label of free_trunc_2_3's seven here, two of them next
    A = builtin("free_trunc_2_3")
    walk, levels = identities._walk, []

    def recording(B, table, *rest):
        for _ in walk(B, table, *rest):
            levels.append(set(table.level))
            yield

    monkeypatch.setattr(identities, "_walk", recording)
    g, h = A.support[1], A.support[2]
    for degs in [(g, g, g), (g, h, g)]:
        levels.clear()
        own = {A.support.index(x) for x in degs}
        assert codim_block(A, degs) == brute_block_rank(A, degs), degs
        assert len(levels) == len(degs)
        assert all(set(M) <= own for level in levels for M in level)
        assert (A.support.index(g),) in levels[0]


def test_long_words_fold_in_time():
    # each letter takes its variable's fixed stride, so a word of n letters
    # is n steps; recomputing the slot width per letter over the placed
    # variables made it O(n^2), about 0.4 s for both labellings
    A = builtin("m2_z2")
    n = 2000
    forward, backward = tuple(range(n)), tuple(reversed(range(n)))
    start = time.perf_counter()
    verdicts = [is_graded_identity(MultilinearGradedPoly(
        n, {(forward, (g,) * n): 1, (backward, (g,) * n): -1}), A) for g in A.support]
    assert time.perf_counter() - start < 0.15
    # the even part is commutative; odd matrix units chain one way only
    assert verdicts == [True, False]


def _multinomial(labels):
    return factorial(len(labels)) // prod(factorial(k) for k in Counter(labels).values())


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["quotient", "subalgebra", "rescaled", "free"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
def test_dropped_multisets_have_rank_zero(kind, seed, n):
    rng = random.Random(seed)
    if kind == "free":
        A = free_group_truncation(rng.randint(2, 3), rng.randint(2, 3))
    else:
        A = _random_algebra(kind, rng)
    with pytest.MonkeyPatch.context() as mp:
        built = _counting_blocks(mp)
        c_n = graded_codimension(A, n)
    built = set(built)
    unfiltered = 0
    for labels in combinations_with_replacement(A.support, n):
        unfiltered += _multinomial(labels) * codim_block(A, labels)
        if labels not in built:
            assert brute_block_rank(A, labels) == 0, labels
    assert c_n == unfiltered


def _path_algebra(arrows, longest):
    """Paths of length 1..longest in a quiver with arrows {letter: (source,
    target)}, graded by the free group on the letters 1..len(arrows): the
    product of two paths is their concatenation when they compose and it is
    not longer than `longest`, and 0 otherwise."""
    paths = frontier = [(x,) for x in arrows]
    for _ in range(longest - 1):
        frontier = [p + (x,) for p in frontier for x in arrows
                    if arrows[p[-1]][1] == arrows[x][0]]
        paths = paths + frontier
    index = {p: i for i, p in enumerate(paths)}
    F = FreeGroup(len(arrows))
    structure = {(index[u], index[v], index[u + v]): 1
                 for u in paths for v in paths if u + v in index}
    return GradedAlgebra(F, [F.word(p) for p in paths], structure), F


def test_filter_follows_prefix_products_not_pairs(monkeypatch):
    # 1 -a-> 2 -c-> 3 -b-> 4 with basis a, c, b, ac, cb, acb: ab = ba = 0,
    # yet a c b = acb, so a rule on pairs of labels would drop {a, b, c}
    # while the prefix walk a -> ac -> acb keeps it
    P, F = _path_algebra({1: (1, 2), 3: (2, 3), 2: (3, 4)}, 3)
    a, b, c = F.word([1]), F.word([2]), F.word([3])
    assert P.support[:3] == (a, c, b)
    built = _counting_blocks(monkeypatch)
    graded_codimension(P, 2)
    assert (a, b) not in built and (a, c) in built and (c, b) in built
    assert codim_block(P, (a, b)) == 0
    built.clear()
    c3 = graded_codimension(P, 3)
    assert (a, c, b) in built
    assert codim_block(P, (a, c, b)) == brute_block_rank(P, (a, c, b)) == 1
    assert c3 == global_graded_codim_rank(P, 3) > 0


def test_filter_keeps_every_degree_a_multiset_reaches(monkeypatch):
    # 1 -a-> 2 -b-> 1 -c-> 3: {a, b} reaches both ab and ba, and only
    # ab c = abc is nonzero, so {a, b, c} is live through ab alone
    Q, F = _path_algebra({1: (1, 2), 2: (2, 1), 3: (1, 3)}, 3)
    a, b, c = Q.support[:3]
    built = _counting_blocks(monkeypatch)
    graded_codimension(Q, 3)
    assert (a, b, c) in built
    assert codim_block(Q, (a, b, c)) == brute_block_rank(Q, (a, b, c)) == 1


def test_filter_reads_every_product_of_a_component(monkeypatch):
    # Z3-graded, basis d, a, c of degree 1 and ac of degree 2, with a c = ac
    # the only nonzero product: A_1 A_1 is nonzero through neither the first
    # basis vector d of A_1 nor its products
    Z3 = CyclicGroup(3)
    one, two = Z3.elem(1), Z3.elem(2)
    B = GradedAlgebra(Z3, [one, one, one, two], {(1, 2, 3): 1})
    built = _counting_blocks(monkeypatch)
    assert graded_codimension(B, 2) == global_graded_codim_rank(B, 2) == 2
    assert built == [(one, one)]


def test_capped_report_fails_before_building_a_block(monkeypatch, capsys):
    built = _counting_blocks(monkeypatch)
    with pytest.raises(ResourceCapError, match="^n = 13 exceeds the cap of 12$"):
        codimension_report(builtin("ut2"), 13, max_n=12, max_blocks=2 ** 13)
    with pytest.raises(ResourceCapError,
                       match=r"^7\^6 = 117649 degree assignments exceed the cap of 100000$"):
        codimension_report(builtin("free_trunc_2_3"), 6)
    assert main(["codim", "--builtin", "ut2", "--max-n", "12", "--n-max", "13",
                 "--max-blocks", str(2 ** 13)]) == 4
    assert capsys.readouterr().err == "resource cap: n = 13 exceeds the cap of 12\n"
    assert built == []


def test_nilpotent_report_runs_past_the_caps(tmp_path):
    # n >= 3 is settled by the nilpotency index, so only c_1 and c_2 are
    # computed and the cap of 6 on n does not apply
    A = free_group_truncation(2, 3)
    J = algebra_on_subspace(A, jacobson_radical(A), name="J").algebra
    assert codimension_report(J, 10).values == [6, 6] + [0] * 8
    desc = tmp_path / "j.json"
    desc.write_text(json.dumps(algebra_to_description(J)))
    assert main(["codim", "--input", str(desc), "--n-max", "10"]) == 0
