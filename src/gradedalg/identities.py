"""Multilinear graded polynomial identities and their codimension sequences.

A degree assignment attaches one support degree to each of the n variables;
the monomials of one assignment use their own private variables, so the
evaluation matrix splits into independent blocks per assignment and the n-th
codimension is the sum of block ranks. Renaming variables permutes a block's
rows and columns, so its rank depends only on the multiset of labels: each
multiset's block is computed once and weighted by the multinomial count of
its labellings (`_codim_blocks`, associative algebras only). Since
A_g A_h lies in A_{gh}, the grading rules out most multisets before any
vector is built: `_walk`, from the nonempty rows of `structure` alone,
follows the degrees that the prefix products of some order of the labels
can reach, and a multiset that reaches none has every word product 0. Only
the live multisets are built; the rest add 0 to c_n. The resource guard
still counts all |support|^n labellings, and a report checks it for every n
it will compute before computing any.

A block is ranked from its word functions. For a multiset M, a sorted tuple
of support indices whose variables are numbered in that order, N(M) is the
set of distinct maps, one per word order, from basis tuples (a basis vector
of its label's component per variable) to products, vanishing tuples
dropped; N((s,)) = {t -> e_t}. A word's last letter is a variable at some
slot s of a label l, and its prefix, renumbered, is a word over M minus l,
so N(M) is the set of maps t -> f(t without t_s) e_{t_s} over every slot s
and every f in N(M minus M[s]) (`_step`, the single step). `_walk` is the
one producer: each step builds N of every live multiset of the next n from
the level below into its `_Products` table, which interns products as small
ints, each computed once by `A.mul_sparse`. Its consumers rank the level
(`_codim_blocks`). `is_graded_identity` folds each labelling's words with
the same step.

For a group grading, the identities whose labels are read as delta
functionals of (QG)* are exactly the graded ones, so H-identities of a
QG-comodule algebra need no computation of their own: the CLI's mode h is a
presentation of `codimension_report` under delta labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice
from math import factorial

from .algebra import ASSOCIATIVE, GradedAlgebra, nilpotency_index
from .errors import ResourceCapError, ValidationError
from .exactlin import Reducer, as_rat, axpy
from .groups import is_element_of, is_int

DEFAULT_MAX_N = 6
DEFAULT_MAX_BLOCKS = 100_000


def _check_perm(perm, n):
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm!r} is not a permutation of 0..{n - 1}")


class MultilinearGradedPoly:
    """Multilinear polynomial in variables x_0..x_{n-1}, each occurrence
    carrying a degree label; terms map (word order, degree-per-variable) to a
    coefficient.

    The pair key means: the monomial is x_{perm[0]} x_{perm[1]} ... with
    variable i labelled by degs[i]. x_i under two labels is two free
    variables, so f vanishes iff each labelling's part does.
    """

    def __init__(self, n: int, terms: dict):
        if n < 1:
            raise ValidationError("a multilinear polynomial needs n >= 1 variables")
        self.n = n
        clean = {}
        for (perm, degs), coeff in terms.items():
            perm = tuple(perm)
            degs = tuple(degs)
            _check_perm(perm, n)
            if len(degs) != n:
                raise ValidationError("need one degree label per variable")
            coeff = as_rat(coeff)
            if coeff != 0:
                clean[(perm, degs)] = clean.get((perm, degs), 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v != 0}


class _Products:
    """Products of basis vectors of A, interned for one computation, and the
    word functions of one level of label multisets. Each distinct vector
    {k: c} gets a small int id, kept as its sorted items in `vectors`; e_b
    has id b. memo[v, b] is the id of v times e_b, or None when it vanishes;
    `multiply` computes it by `A.mul_sparse` on the first lookup only, and a
    lookup reads -1 before. A word function is a frozenset of (key, id)
    pairs, the key numbering a basis tuple in mixed radix, first variable
    most significant. `level` maps the live multisets of the level `_walk`
    last built to their N (dicts as ordered sets)."""

    def __init__(self, A: GradedAlgebra):
        self.dim = A.dim
        self.mul_sparse = A.mul_sparse
        self.vectors = [((b, 1),) for b in range(A.dim)]
        self.ids = {vec: b for b, vec in enumerate(self.vectors)}
        self.memo = {}
        self.index = {g: s for s, g in enumerate(A.support)}
        self.comps = [A.component_indices(g) for g in A.support]
        self.level = {}

    def multiply(self, v: int, b: int):
        vec = tuple(sorted(self.mul_sparse(dict(self.vectors[v]), {b: 1}).items()))
        w = None
        if vec:
            w = self.ids.get(vec)
            if w is None:
                w = self.ids[vec] = len(self.vectors)
                self.vectors.append(vec)
        self.memo[v, b] = w
        return w

    def words(self, M: tuple, below: dict) -> dict:
        """N(M) from `below`, the N of the level below: slot s, of label l,
        extends each f in N(M minus l), whose variables are M's but s. A
        multiset missing below has every word product 0, and so has its N."""
        comps, low = self.comps, 1
        out = {frozenset(enumerate(comps[M[0]])): None} if len(M) == 1 else {}
        for s in reversed(range(len(M))):
            comp = comps[M[s]]
            for f in below.get(M[:s] + M[s + 1:], ()):
                out[frozenset(_step(self, f, comp, low, low * (len(comp) - 1)).items())] = None
            low *= len(comp)
        out.pop(frozenset(), None)
        return out

    def row(self, word):
        dim, vectors = self.dim, self.vectors
        return {key * dim + k: c for key, v in word for k, c in vectors[v]}


def _step(products: _Products, f, comp, low: int, grow: int) -> dict:
    """The single step of every word: t -> f(t without t_s) e_{t_s}, the
    word function f (its (key, id) pairs) extended by a letter at slot s.
    comp is the basis of the letter's component and low the key stride of
    slot s. Each key of f first moves up by grow times key // low, its part
    above slot s: low * (|comp| - 1) opens the slot in keys numbered without
    it, and 0 keeps keys that number every variable already, unshifted
    (a big-int division saved on a long word). Vanishing tuples drop."""
    memo, multiply = products.memo, products.multiply
    out = {}
    for key, v in f:
        if grow:
            key += key // low * grow
        for b in comp:
            w = memo.get((v, b), -1)
            if w == -1:
                w = multiply(v, b)
            if w is not None:
                out[key] = w
            key += low
    return out


def is_graded_identity(f: MultilinearGradedPoly, A: GradedAlgebra) -> bool:
    """True iff f vanishes under every substitution sending each labelled
    variable into its component. Variables with different labels are
    different variables, so f vanishes iff each labelling's part does. A
    part is multilinear, so it vanishes iff the sum of coeff * row(word) is
    empty. A label must be an element of A's group (`is_element_of`),
    checked before any fold; one outside the support has no basis choice,
    so its part's rows are empty. The basis tuples of any other part are
    numbered once over all n variables, a fixed stride per variable, and
    `_step` folds each word letter by letter at its variable's stride."""
    parts = {}
    for (perm, degs), coeff in f.terms.items():
        parts.setdefault(degs, []).append((perm, coeff))
    if not all(is_element_of(g, A.group) for degs in parts for g in degs):
        raise ValidationError("a label is not an element of the grading group")
    products = _Products(A)
    for degs, words in parts.items():
        comps = [A.component_indices(g) for g in degs]
        if not all(comps):
            continue
        stride = [1] * len(comps)
        for i in reversed(range(len(comps) - 1)):
            stride[i] = stride[i + 1] * len(comps[i + 1])
        acc = {}
        for perm, coeff in words:
            word = {t * stride[perm[0]]: b for t, b in enumerate(comps[perm[0]])}
            for i in perm[1:]:
                word = _step(products, word.items(), comps[i], stride[i], 0)
            axpy(acc, coeff, products.row(word.items()))
        if acc:
            return False
    return True


def _guard(A: GradedAlgebra, n: int, max_n: int, max_blocks: int):
    if A.kind != ASSOCIATIVE:
        raise ValidationError("codimensions are computed for associative algebras")
    _check_range(n, None)
    if n > max_n:
        raise ResourceCapError(f"n = {n} exceeds the cap of {max_n}")
    m = len(A.support)
    if m ** n > max_blocks:
        raise ResourceCapError(
            f"{m}^{n} = {m ** n} degree assignments exceed the cap of {max_blocks}")


def codim_block(A: GradedAlgebra, degs, products: _Products | None = None) -> int:
    """Rank of one assignment block: variable i ranges over the basis of the
    component of degs[i]; rows are the n! word orders, columns are (matching
    basis tuple) x (output coordinate). Renaming variables permutes rows
    and columns, so this is the rank of the rows of N(M), M the sorted
    support indices of degs: the block's distinct rows up to a permutation
    of columns, each entering the Reducer once. `products` holds the level
    of M that `_walk` built, as `_codim_blocks` hands it over; without it, a
    table of its own is walked over the labels of degs alone. A label must
    be an element of A's group, which only a label outside the support
    needs checked; such a label, or a multiset missing from the level,
    gives rank 0. Integral constants give int rows, which turn fractional
    only where a pivot division leaves a remainder."""
    table = _Products(A) if products is None else products
    if any(g not in table.index for g in degs):
        if not all(is_element_of(g, A.group) for g in degs):
            raise ValidationError("a label is not an element of the grading group")
        return 0
    M = tuple(sorted(table.index[g] for g in degs))
    if products is None:
        for _ in islice(_walk(A, table, set(M)), len(M)):
            pass
    width = A.dim
    for s in M:
        width *= len(table.comps[s])
    red = Reducer(width)
    for word in table.level.get(M, ()):
        red.insert(table.row(word))
    return red.dim


def _walk(A: GradedAlgebra, products: _Products, labels=None):
    """For n = 1, 2, ...: build N(M) into `products.level` for every live
    multiset M of n support indices (over `labels` alone, if given), each
    from the level before, then yield.

    A live multiset is a sorted tuple that can give a nonzero block, mapped
    to the support indices of the degrees its prefix products can reach.
    step[r] holds the pairs (s, t) of support indices such that some e_i e_j
    with e_i in A_r and e_j in A_s is nonzero, t the index of the degree of
    A_r A_s, read off the output basis index with no group product. The
    prefixes of a nonzero word product are nonzero and their degrees follow
    the table, so level n + 1 grows from level n; a multiset never reached
    has every word product 0 and a block of rank 0."""
    labels = range(len(A.support)) if labels is None else labels
    index = [products.index[g] for g in A.degrees]
    step = [set() for _ in A.support]
    for i, plane in enumerate(A.structure):
        for j, row in plane.items():
            if index[j] in labels:
                step[index[i]].add((index[j], index[next(iter(row))]))
    live = {(s,): {s} for s in labels}
    while True:
        below = products.level
        products.level = {M: products.words(M, below) for M in sorted(live)}
        yield
        grown = {}
        for M, reach in live.items():
            for r in reach:
                for s, t in step[r]:
                    grown.setdefault(tuple(sorted(M + (s,))), set()).add(t)
        live = grown


def _codim_blocks(A: GradedAlgebra, n: int, products: _Products) -> list:
    """(labelling count, block rank) per live multiset of n support labels,
    the keys of `products.level` (built by `_walk`), in sorted order; every
    other multiset has rank 0 and is never built."""
    blocks = []
    for labels in sorted(products.level):
        mult = factorial(n)
        for _, run in groupby(labels):
            mult //= factorial(len(list(run)))
        # called through the module global, so that a wrapper put there
        # sees every block that is built
        blocks.append((mult, codim_block(A, tuple(A.support[s] for s in labels), products)))
    return blocks


def graded_codimension(A: GradedAlgebra, n: int, max_n: int = DEFAULT_MAX_N,
                       max_blocks: int = DEFAULT_MAX_BLOCKS) -> int:
    """c_n = sum of block ranks over all assignments in Support^n, computed
    once per live label multiset and weighted by the multinomial. The
    trivial group reproduces ordinary codimensions."""
    _guard(A, n, max_n, max_blocks)
    products = _Products(A)
    for _ in islice(_walk(A, products), n):
        pass
    return sum(mult * rank for mult, rank in _codim_blocks(A, n, products))


def _settled_by_nilpotency(A: GradedAlgebra, ns) -> list:
    """The n in ns with c_n = 0 because A has no unit and is certified
    nilpotent of index <= n (every product of n factors vanishes); the
    index is computed once."""
    if A.unit is not None:
        return []
    p = nilpotency_index(A)
    return [n for n in ns if p is not None and n >= p]


def _int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) by integer Newton iteration. It starts at a power
    of two at least x ** (1/n), decreases strictly while above the floor,
    and stops there."""
    if x < 0:
        raise ValidationError("negative radicand")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    return r


_ROOT_DIGITS = 4


def decimal_root(c: int, n: int) -> str:
    """c ** (1/n) truncated to four decimals, computed in integers."""
    scaled = _int_nth_root(c * 10 ** (_ROOT_DIGITS * n), n)
    s = str(scaled).rjust(_ROOT_DIGITS + 1, "0")
    return s[:-_ROOT_DIGITS] + "." + s[-_ROOT_DIGITS:]


@dataclass
class ExponentVerdict:
    predicted: int | None
    nilpotent: bool
    consistent: bool | None          # None when no prediction was given
    lower_power: int | None = None   # r1 with C1 n^r1 d^n <= c_n on the range
    upper_power: int | None = None   # r2 with c_n <= C2 n^r2 d^n on the range
    lower_const: Fraction | None = None
    upper_const: Fraction | None = None
    message: str = ""


@dataclass
class CodimReport:
    values: list                     # c_1 .. c_N
    per_n: list = field(default_factory=list)
    roots: list = field(default_factory=list)     # decimal strings (exact truncations)
    ratios: list = field(default_factory=list)    # Fractions c_{n+1}/c_n
    verdict: ExponentVerdict | None = None
    shortcuts: list = field(default_factory=list)  # n values settled by nilpotency


_POWER_WINDOW = 64


def exponent_estimate(values, predicted_d: int | None = None) -> ExponentVerdict:
    """Finite-range growth verdict for a codimension sequence.

    With a predicted exponent d, fit the log-log chord through the endpoints of
    u_n = c_n / d^n: the integers r1 = floor, r2 = ceil of the chord slope, and
    constants anchored at the endpoints, must bracket every computed value:
    C1 n^r1 d^n <= c_n <= C2 n^r2 d^n. A wrong d makes u_n log-convex or
    log-concave enough that the chord fit fails in the interior. All
    comparisons are exact rational inequalities; nothing here claims a limit.
    """
    values = list(values)
    if not all(map(is_int, values)) or not (predicted_d is None or is_int(predicted_d)):
        raise ValidationError("codimensions and the predicted exponent must be ints")
    if len(values) < 3:
        raise ValidationError("need at least three codimension values")
    if any(v < 0 for v in values):
        raise ValidationError("codimensions are nonnegative")
    # once a codimension hits zero the algebra is nilpotent and stays at zero
    if 0 in values:
        first = values.index(0)
        if any(v != 0 for v in values[first:]):
            raise ValidationError("zero followed by a nonzero codimension is impossible")
        return ExponentVerdict(predicted_d, True, None,
                               message="nilpotent, exponent undefined")
    if predicted_d is None:
        return ExponentVerdict(None, False, None, message="no predicted exponent")
    if predicted_d < 1:
        raise ValidationError("predicted exponent must be a positive integer")
    d = Fraction(predicted_d)
    u = [Fraction(v) / d ** (i + 1) for i, v in enumerate(values)]
    N = len(u)
    ratio = u[N - 1] / u[0]                    # = N^(chord slope)
    # r1 = floor, r2 = ceil of log_N(ratio), walked from 0 to one step past
    # the window; the base stays a Fraction, as an int to a negative power
    # would be a float
    base = Fraction(N)
    r1 = 0
    while r1 <= _POWER_WINDOW and base ** (r1 + 1) <= ratio:
        r1 += 1
    while r1 >= -_POWER_WINDOW and base ** r1 > ratio:
        r1 -= 1
    r2 = r1 if base ** r1 == ratio else r1 + 1
    if r1 < -_POWER_WINDOW or r2 > _POWER_WINDOW:
        return ExponentVerdict(predicted_d, False, False,
                               message="endpoint slope outside the power window")
    c2 = max(u[0], u[N - 1] / base ** r2)
    c1 = min(u[0], u[N - 1] / base ** r1)
    ok = all(c1 * Fraction(n) ** r1 <= un <= c2 * Fraction(n) ** r2
             for n, un in enumerate(u, 1))
    msg = (f"consistent with exponent {predicted_d}: "
           f"{c1} * n^{r1} * {predicted_d}^n <= c_n <= {c2} * n^{r2} * {predicted_d}^n "
           f"over n = 1..{N}") if ok else (
           f"no endpoint-anchored bracket around {predicted_d}^n fits the range")
    return ExponentVerdict(predicted_d, False, ok, r1, r2, c1, c2, msg)


def _check_range(n_max: int, predicted_d: int | None):
    """The report's n_max and predicted exponent, also the CLI's usage check."""
    if n_max < 1:
        raise ValidationError("codimensions start at n = 1")
    if predicted_d is not None and predicted_d < 1:
        raise ValidationError("predicted exponent must be a positive integer")
    if predicted_d is not None and n_max < 3:
        raise ValidationError("a predicted exponent needs n_max >= 3: the growth "
                              "verdict compares at least three codimensions")


def codimension_report(A: GradedAlgebra, n_max: int,
                       predicted_d: int | None = None,
                       max_n: int = DEFAULT_MAX_N,
                       max_blocks: int = DEFAULT_MAX_BLOCKS) -> CodimReport:
    """Codimension table c_1..c_{n_max} with block statistics, exact roots,
    ratios and (when requested) the growth verdict. Each block is computed
    once; a per_n row settled by nilpotency reports no nonzero block and no
    block rank."""
    _check_range(n_max, predicted_d)
    values = []
    per_n = []
    m = len(A.support)
    shortcuts = _settled_by_nilpotency(A, range(1, n_max + 1))
    settled = set(shortcuts)
    # every n to compute is checked before the first block is built; the
    # first n past a cap names it, as when each n was checked in turn
    for n in range(1, n_max + 1):
        if n not in settled:
            _guard(A, n, max_n, max_blocks)
    # the settled n are every n from the nilpotency index on, so the levels
    # of the n computed follow one another
    products = _Products(A)
    walk = _walk(A, products)
    for n in range(1, n_max + 1):
        if n in settled:
            values.append(0)
            per_n.append({"n": n, "assignments": m ** n, "computed": 0,
                          "nonzero_blocks": 0})
            continue
        next(walk)
        blocks = _codim_blocks(A, n, products)
        values.append(sum(mult * rank for mult, rank in blocks))
        per_n.append({"n": n, "assignments": m ** n, "computed": m ** n,
                      "nonzero_blocks": sum(mult for mult, rank in blocks if rank),
                      "max_block_rank": max((rank for _, rank in blocks), default=0)})
    roots = [decimal_root(v, i + 1) for i, v in enumerate(values)]
    ratios = [Fraction(values[i + 1], values[i]) if values[i] else None
              for i in range(len(values) - 1)]
    verdict = exponent_estimate(values, predicted_d) if len(values) >= 3 else None
    return CodimReport(values, per_n, roots, ratios, verdict, shortcuts)
