"""Independent verification routes used by the test suite.

Each oracle deliberately avoids the production code path it checks: ranks via
fraction-free Bareiss elimination over the integers, radicals via brute-force
nilpotent-ideal search over candidate grids, decompositions via exhaustive
enumeration of ideals generated by single homogeneous elements, and
codimensions via one global evaluation matrix ranked in a single pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct

from gradedalg.algebra import GradedAlgebra
from gradedalg.exactlin import Reducer, Subspace, ZERO, is_zero_vector


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [[int(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


def _grid_vectors(dim, entries):
    for coeffs in iproduct(entries, repeat=dim):
        if any(c != 0 for c in coeffs):
            yield tuple(Fraction(c) for c in coeffs)


def _element_is_nilpotent(A: GradedAlgebra, v) -> bool:
    power = v
    for _ in range(A.dim + 1):
        if is_zero_vector(power):
            return True
        power = A.multiply(power, v)
    return is_zero_vector(power)


def _subspace_is_nilpotent(A: GradedAlgebra, s: Subspace) -> bool:
    power = s
    for _ in range(A.dim + 1):
        if power.is_zero():
            return True
        red = Reducer(A.dim)
        for u in power.basis_vectors():
            for w in s.basis_vectors():
                red.insert(A.multiply(u, w))
        power = red.subspace()
    return power.is_zero()


def brute_force_largest_nilpotent_ideal(A: GradedAlgebra, entries=(-2, -1, 0, 1, 2)) -> Subspace:
    """Greedy closure over a candidate grid: keep adjoining candidates whose
    generated ideal stays nilpotent. Sound because a sum of nilpotent ideals is
    nilpotent, so acceptance is order-independent."""
    current = Subspace.zero(A.dim)
    for v in _grid_vectors(A.dim, entries):
        if current.contains(v):
            continue
        if not _element_is_nilpotent(A, v):
            continue
        bigger = A.ideal_generated(list(current.basis_vectors()) + [v])
        if _subspace_is_nilpotent(A, bigger):
            current = bigger
    return current


def enumerate_minimal_graded_ideals(A: GradedAlgebra, entries=(-1, 0, 1)) -> list:
    """All minimal members of {ideal(x) : x nonzero homogeneous on the grid}."""
    ideals = set()
    for g in A.support:
        comp = A.component_indices(g)
        for coeffs in iproduct(entries, repeat=len(comp)):
            if all(c == 0 for c in coeffs):
                continue
            v = [ZERO] * A.dim
            for i, c in zip(comp, coeffs):
                v[i] = Fraction(c)
            ideals.add(A.ideal_generated([v]))
    ideals = [i for i in ideals if i.dim > 0]
    minimal = []
    for i in ideals:
        if not any(j.dim < i.dim and j <= i for j in ideals):
            minimal.append(i)
    return sorted(set(minimal), key=lambda s: (s.dim, s.basis_vectors()))


def global_graded_codim_rank(A: GradedAlgebra, n: int) -> int:
    """One evaluation matrix over every degree assignment at once, one rank.

    Rows are all monomials (word order, assignment); columns are (assignment,
    matching basis tuple, output coordinate). Monomials of different
    assignments use disjoint variables, so this global rank must equal the sum
    of per-assignment block ranks.
    """
    assignments = list(iproduct(A.support, repeat=n))
    tuples_for = []
    offsets = []
    off = 0
    for degs in assignments:
        comps = [A.component_indices(g) for g in degs]
        tups = list(iproduct(*comps)) if all(comps) else []
        tuples_for.append(tups)
        offsets.append(off)
        off += len(tups) * A.dim
    red = Reducer(off)
    for a_idx, degs in enumerate(assignments):
        tups = tuples_for[a_idx]
        if not tups:
            continue
        base0 = offsets[a_idx]
        for perm in permutations(range(n)):
            row = [ZERO] * off
            nonzero = False
            for t_idx, tup in enumerate(tups):
                cur = None
                for p in perm:
                    b = A.basis_vector(tup[p])
                    cur = b if cur is None else A.multiply(cur, b)
                    if is_zero_vector(cur):
                        break
                if cur is not None and not is_zero_vector(cur):
                    nonzero = True
                    base = base0 + t_idx * A.dim
                    for k, c in enumerate(cur):
                        if c != 0:
                            row[base + k] = c
            if nonzero:
                red.insert(row)
    return red.dim


def brute_block_rank(A: GradedAlgebra, degs) -> int:
    """Assignment-block rank recomputed naively: dense rows over all matching
    basis tuples, ranked by the Bareiss integer oracle when entries are
    integral, otherwise by a local Fraction elimination."""
    n = len(degs)
    comps = [A.component_indices(g) for g in degs]
    if any(not c for c in comps):
        return 0
    tups = list(iproduct(*comps))
    rows = []
    for perm in permutations(range(n)):
        row = []
        for tup in tups:
            cur = None
            for p in perm:
                b = A.basis_vector(tup[p])
                cur = b if cur is None else A.multiply(cur, b)
            row.extend(cur)
        rows.append(row)
    if all(x.denominator == 1 for row in rows for x in row):
        return bareiss_rank(rows)
    red = Reducer(len(rows[0]))
    for row in rows:
        red.insert(row)
    return red.dim
