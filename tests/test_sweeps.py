"""Randomized cross-validation sweeps over the corpus: every structural claim
that holds per theorem is re-checked on machine-generated instances, and the
serialization layer round-trips whatever the generators produce."""

import json
import random
from fractions import Fraction

from gradedalg.algebra import algebra_on_subspace, graded_closure, quotient_algebra
from gradedalg.builders import builtin, ut2, upper_triangular
from gradedalg.exactlin import Reducer, Subspace, is_zero_vector
from gradedalg.groups import CyclicGroup
from gradedalg.radical import jacobson_radical, nilradical, solvable_radical
from gradedalg.schema import (algebra_to_description, description_to_algebra,
                              digest)
from gradedalg.structure import malcev_complement_graded, levi_graded
from tests.corpus import associative_corpus, lie_corpus, random_matrices

F = Fraction


def test_malcev_sweep_over_unital_corpus():
    for A in associative_corpus(quotients=25, subalgebras=0, sums=20):
        if A.unit is None:
            continue
        J = jacobson_radical(A, verify=False)
        B = malcev_complement_graded(A)
        assert (B & J).is_zero()
        assert (B + J).dim == A.dim
        assert A.is_subalgebra(B)
        assert graded_closure(B, A) == B


def test_levi_sweep_over_lie_corpus():
    for L in lie_corpus():
        R = solvable_radical(L, verify=False)
        B = levi_graded(L)
        assert (B & R).is_zero()
        assert (B + R).dim == L.dim
        assert L.is_subalgebra(B)
        assert graded_closure(B, L) == B


def test_schema_round_trip_over_corpus():
    for A in associative_corpus(quotients=15, subalgebras=15, sums=10):
        desc = json.loads(json.dumps(algebra_to_description(A)))
        B = description_to_algebra(desc)
        assert B.structure == A.structure
        assert B.degrees == A.degrees
        assert B.unit == A.unit


def test_description_digests_golden():
    # recorded while GradedAlgebra still stored the dense dim^3 tensor
    assert digest([algebra_to_description(A) for A in associative_corpus()]) == (
        "a47f712f6bd925079e48bc9a87e8bb8e0bd6ccc9590053b4308f4094b1fbd6d4")
    assert digest([algebra_to_description(L) for L in lie_corpus()]) == (
        "9d1176afbf2e0f82cd2ba9f1907e104fa963df1d656a68ae0102630da094fab1")
    names = ["m2_z2", "ut2", "sl2", "gl2_z2", "heis3", "aff1", "fz2",
             "free_trunc_1_3", "free_trunc_2_2", "free_trunc_2_3"]
    assert digest([algebra_to_description(builtin(n)) for n in names]) == (
        "08fb6d4e1fd54a1479be73255e60117cd883dc566d4fb9b305ae5a2009a24db3")


def test_rref_pivot_structure_random():
    rng = random.Random(77)
    cases = [([[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)], 6)
             for _ in range(50)]
    for rows, nc in cases + list(random_matrices(78)):
        red = Reducer(nc, rows)
        R = red.rows
        assert not any(is_zero_vector(row) for row in R)
        pivots = []
        for row in R:
            j = next(k for k, x in enumerate(row) if x != 0)
            assert row[j] == 1
            pivots.append(j)
        assert pivots == red.pivots
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for j in pivots:
            col = [row[j] for row in R]
            assert sum(1 for x in col if x != 0) == 1
        # each input row is the combination of the RREF rows weighted by its
        # own pivot entries
        for v in rows:
            comb = [sum((v[p] * R[i][c] for i, p in enumerate(pivots)), F(0))
                    for c in range(nc)]
            assert comb == list(v)


def test_radical_in_skewed_rational_basis():
    # degree-0 component span{e11, e22} remixed with awkward fractions; the
    # corner stays degree 1, so the subspace is graded and fully supported
    U = ut2()
    rows = [
        (F(1, 3), F(0), F(2, 3)),     # degree-0 mix
        (F(0), F(0), F(5, 7)),        # degree-0 mix
        (F(0), F(11, 13), F(0)),      # the corner, rescaled
    ]
    sub = Subspace.from_vectors(3, rows)
    emb = algebra_on_subspace(U, sub, name="skewed")
    A = emb.algebra
    assert A.unit is not None
    J = jacobson_radical(A)
    assert J.dim == 1
    B = malcev_complement_graded(A)
    assert (B & J).is_zero() and (B + J).dim == 3


def test_quotient_unit_survives():
    A = upper_triangular(3, CyclicGroup(2), (0, 1, 0))
    J = jacobson_radical(A)
    q = quotient_algebra(A, J)
    Q = q.algebra
    assert Q.unit is not None
    for b in range(Q.dim):
        eb = Q.basis_vector(b)
        assert Q.multiply(Q.unit, eb) == eb


def test_nilradical_contained_in_solvable_sweep():
    for L in lie_corpus():
        assert nilradical(L, verify=False) <= solvable_radical(L, verify=False)


def test_radical_reports_over_random_quotients():
    from gradedalg.radical import graded_radical_report
    from tests.corpus import random_graded_quotient
    rng = random.Random(424242)
    for _ in range(40):
        A = random_graded_quotient(rng)
        (rep,) = graded_radical_report(A)
        assert rep.graded
        assert rep.nilpotency is not None
