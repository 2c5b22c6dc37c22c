"""Exact rational linear algebra on sparse rows: reduced row echelon form,
null spaces, solves and canonical subspaces.

Every scalar is exact, with no floats and no tolerances: a Python int where
the value is an integer, a `fractions.Fraction` where it is not. Entries
enter as ints or Fractions (`as_rat` rejects anything else, floats
included, and gives an int for an integral value). `div` is the one
division: an int over an int is a float in Python, so no other `/` runs on
scalars. Sparse rows hold ints and Fractions; dense tuples, at the API
boundary, hold Fractions only (`dense`, `unit_vector`, `as_vector`).
`Reducer` is the one elimination: it keeps its RREF rows sparse,
as {column: entry} dicts indexed by pivot, and reduces a vector only at the
pivots in its support (`_reduce`, the one reduce loop). `Reducer.insert` and
the `Subspace` tests take a dense sequence or a sparse dict. `span_closure`
is the one span closure; it stops once the span is everything. Ranks
(`Reducer(...).dim`), null spaces (`null_space`), solves (`solve_rows`),
subspace sums and intersections and every span are read off a Reducer's
pivots and rows; `null_space` and `solve_rows` take their equations as
sparse rows, so no layer builds a dense matrix. `axpy`, the one accumulate
loop over sparse vectors, adds a multiple of one to another (`apply_operator`
sums a map's images through it). `Subspace` is the currency passed between
the algebra, radical and structure layers; it carries its sparse RREF basis
rows and their pivot columns, so two subspaces are equal iff their basis
rows are identical, a plain dict comparison (an int equals the Fraction of
the same value). Dense tuples appear only at the API boundary:
`Subspace.basis_vectors()` builds them on first use.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatchError, ValidationError

Rat = Fraction

ZERO = Fraction(0)      # the fill of dense vectors
ONE = 1                 # the unit entry of a sparse row


def as_rat(x):
    """x as an exact rational: an int for an integral value, else a Fraction;
    only Fractions and ints (not bools) are exact input."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise ValidationError(f"{x!r} is not an exact rational: expected a Fraction or an int")


def div(a, b):
    """a / b for exact rationals a, b != 0: an int when the quotient is an
    integer, else a Fraction, never a float. The one division of this
    package."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def as_vector(entries: Iterable) -> tuple:
    """The entries as a dense tuple of Fractions."""
    # Fractions pass without a call: every dense vector is built through here
    return tuple([e if type(e) is Fraction else Fraction(as_rat(e)) for e in entries])


def unit_vector(n: int, i: int) -> tuple:
    return tuple(Fraction(1) if j == i else ZERO for j in range(n))


def is_zero_vector(u) -> bool:
    return all(a == 0 for a in u)


def sparse(v) -> dict:
    """The vector v as {i: v[i]} over its nonzero entries, in index order,
    each through `as_rat` (so an integral entry is an int): the one
    dense-to-sparse conversion of this package."""
    return {i: c for i, c in enumerate(map(as_rat, v)) if c}


def dense(sv: dict, n: int) -> list:
    """The sparse vector {i: c} as a dense list of length n of Fractions:
    undoes `sparse`."""
    w = [ZERO] * n
    for i, c in sv.items():
        w[i] = c if type(c) is Fraction else Fraction(c)
    return w


def axpy(acc: dict, c, v: dict):
    """acc += c v in place on sparse vectors {index: entry}, v read only;
    entries that cancel are dropped, here and in `_subtract` alone."""
    for i, x in v.items():
        y = acc.get(i)
        if y is None:
            acc[i] = c * x
        else:
            y += c * x
            if y:
                acc[i] = y
            else:
                del acc[i]


def apply_operator(op: dict, v: dict) -> dict:
    """sum_j v_j op[j], the image of the sparse v under a linear map held as
    its nonzero images {j: sparse image}; a j outside op costs nothing."""
    out: dict = {}
    for j, x in v.items():
        if j in op:
            axpy(out, x, op[j])
    return out


def _checked_sparse(v, ambient: int) -> dict:
    """v, a dense sequence of length `ambient` or a sparse dict {column:
    entry}, as a fresh sparse dict of exact nonzero entries; ints and
    Fractions pass as they are."""
    if isinstance(v, dict):
        out = {}
        for j, c in v.items():
            if not (type(j) is int and 0 <= j < ambient):
                raise DimensionMismatchError(f"column {j!r} is outside 0..{ambient - 1}")
            if type(c) is not int and type(c) is not Fraction:
                c = as_rat(c)
            if c:
                out[j] = c
        return out
    if len(v) != ambient:
        raise DimensionMismatchError("vector has wrong ambient dimension")
    return sparse(v)


def _subtract(v: dict, c, row: dict, p: int):
    """v -= c row in place, for a row with entry 1 at p and v's entry at p
    already removed; entries that cancel are dropped. `axpy` with the entry
    at p skipped: this is the inner loop of every elimination, and the
    entry that cancels by construction costs no arithmetic here."""
    for j, x in row.items():
        if j != p:
            y = v.get(j)
            if y is None:
                v[j] = -c * x
            else:
                y -= c * x
                if y:
                    v[j] = y
                else:
                    del v[j]


def _reduce(v: dict, pivot_rows: dict) -> dict:
    """The sparse v reduced in place against RREF rows {pivot: row}: for each
    pivot p in v's support, v minus v[p] times row p; the one reduce loop of
    this module. A row vanishes at every other pivot, so a subtraction leaves
    v's other pivot entries alone and the order of the subtractions does not
    matter."""
    for p in [p for p in v if p in pivot_rows]:
        _subtract(v, v.pop(p), pivot_rows[p], p)
    return v


class Reducer:
    """Incremental reduced-row-echelon accumulator: the one elimination of
    this package.

    Maintains the canonical RREF basis of the span of every inserted vector
    as sparse rows {column: entry}, one per pivot column, in `pivot_rows`;
    `pivots` lists the pivots in increasing order. A vector is reduced only at
    the pivots in its own support, and each subtraction touches only a row's
    nonzero entries. Every rank, null space, solve and subspace is read off
    one Reducer, and so is every `span_closure`. `rows` gives the basis as
    fresh dense lists in pivot order.
    """

    __slots__ = ("ambient", "pivot_rows", "pivots")

    def __init__(self, ambient: int, vectors: Iterable = ()):
        self.ambient = ambient
        self.pivot_rows: dict[int, dict] = {}
        self.pivots: list[int] = []
        for v in vectors:
            self.insert(v)

    def insert(self, v):
        """Add v, a dense sequence or a sparse dict {column: entry}, to the
        span. Returns None when v already lies in it, else the new basis row
        as reduced at insertion, in the form v was given (a tuple or a dict).
        The new row is scaled to 1 at its pivot through `div`, so entries
        that stay integers stay ints. Rows are replaced in `pivot_rows`,
        never changed in place, so a row a caller holds never changes."""
        row = _reduce(_checked_sparse(v, self.ambient), self.pivot_rows)
        if not row:
            return None
        piv = min(row)
        pv = row[piv]
        if pv != 1:
            row = {j: div(x, pv) for j, x in row.items()}
        rows = self.pivot_rows
        for p, r in rows.items():
            f = r.get(piv)
            if f is not None:
                r = dict(r)
                _subtract(r, r.pop(piv), row, piv)
                rows[p] = r
        rows[piv] = row
        insort(self.pivots, piv)
        return dict(row) if isinstance(v, dict) else tuple(dense(row, self.ambient))

    @property
    def rows(self) -> list:
        return [dense(self.pivot_rows[p], self.ambient) for p in self.pivots]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def subspace(self) -> "Subspace":
        return Subspace(self.ambient, dict(self.pivot_rows))


class Subspace:
    """A linear subspace of Q^ambient held by its canonical RREF basis: the
    sparse rows `pivot_rows` {pivot: row}, read only, with their pivot
    columns `pivots` in increasing order. The same basis as dense tuples,
    `basis_vectors()`, is built on first use.

    Canonicity: different spanning sets of the same space produce identical
    basis rows, so `==` is decisive. The constructor trusts its input, so
    a Subspace is built only in this module, from RREF rows (as
    `Reducer.subspace` hands them over); elsewhere use `from_vectors`, `zero`
    or `full`. `residual`, `contains` and `coords` reduce against
    `pivot_rows`.
    """

    __slots__ = ("ambient", "pivot_rows", "pivots", "_basis")

    def __init__(self, ambient: int, pivot_rows: dict):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "pivot_rows", pivot_rows)
        object.__setattr__(self, "pivots", tuple(sorted(pivot_rows)))
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable) -> "Subspace":
        return Reducer(ambient, vectors).subspace()

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, {})

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, {i: {i: ONE} for i in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def basis_vectors(self) -> tuple:
        """The basis as dense tuples of Fractions, rows in pivot order."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(
                tuple(dense(self.pivot_rows[p], self.ambient)) for p in self.pivots))
        return self._basis

    def _reduced(self, v) -> dict:
        return _reduce(_checked_sparse(v, self.ambient), self.pivot_rows)

    def residual(self, v):
        """v reduced against the basis, in the form v was given; zero iff v
        lies in the subspace."""
        r = self._reduced(v)
        return r if isinstance(v, dict) else tuple(dense(r, self.ambient))

    def contains(self, v) -> bool:
        return not self._reduced(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.pivot_rows.values())

    def coords(self, v):
        """Coefficients of v in the RREF basis, or None if v is outside.

        Reducing by one row leaves the other pivot entries alone, so the
        coefficients are v's own pivot entries."""
        v = _checked_sparse(v, self.ambient)
        coords = tuple(v.get(p, ZERO) for p in self.pivots)
        return None if _reduce(v, self.pivot_rows) else coords

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.pivot_rows == other.pivot_rows)

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def __add__(self, other: "Subspace") -> "Subspace":
        return subspace_sum(self, other)

    def __and__(self, other: "Subspace") -> "Subspace":
        return subspace_intersection(self, other)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def span_closure(ambient: int, vectors: Iterable, images) -> Subspace:
    """The span of the vectors closed under `images`: each new basis row, as
    reduced when it enters, goes once as a sparse dict to images(row), whose
    images are inserted as they come, before the rest of the images that
    produced the row. Stops as soon as the span is the whole space."""
    red = Reducer(ambient)
    pending = [iter([_checked_sparse(v, ambient) for v in vectors])]
    while pending and red.dim < ambient:
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
        elif row := red.insert(w):
            pending.append(iter(images(row)))
    return red.subspace()


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspace sum needs equal ambient dimensions")
    return Reducer(a.ambient, [*a.pivot_rows.values(), *b.pivot_rows.values()]).subspace()


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[A A],[B 0]]; the rows with pivot >= n have a
    zero left half, and their right halves are the RREF basis of the
    intersection."""
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspace intersection needs equal ambient dimensions")
    n = a.ambient
    red = Reducer(2 * n, [{**r, **{j + n: c for j, c in r.items()}} for r in a.pivot_rows.values()]
                  + list(b.pivot_rows.values()))
    return Subspace(n, {p - n: {j - n: c for j, c in row.items()}
                        for p, row in red.pivot_rows.items() if p >= n})


def null_space(ambient: int, rows: Iterable) -> Subspace:
    """{v : r . v = 0 for every r in rows}, the rows dense sequences or
    sparse dicts of length `ambient`; dim = ambient - rank. Each free column
    f of the rows' RREF gives the vector with 1 at f and -row[f] at each
    row's pivot: read off the sparse rows, with no dense matrix. These
    vectors also span the annihilator of the span of the rows when the rows
    are read as vectors (`algebra.quotient_algebra` uses this)."""
    pivot_rows = Reducer(ambient, rows).pivot_rows
    free = {f: {f: ONE} for f in range(ambient) if f not in pivot_rows}
    for p, row in pivot_rows.items():
        for f, c in row.items():
            if f != p:
                free[f][p] = -c
    return Subspace.from_vectors(ambient, free.values())


def solve_rows(nunk: int, rows: Iterable):
    """One exact solution x of a linear system in nunk unknowns with free
    variables set to zero, or None when the system is infeasible. Each
    equation is a row of width nunk + 1, a dense sequence or a sparse dict,
    whose column nunk is the right-hand side; the rows enter one Reducer and
    x is read off its pivot rows. Infeasible means the rhs column is a pivot."""
    red = Reducer(nunk + 1, rows)
    if nunk in red.pivot_rows:
        return None
    x = [ZERO] * nunk
    for p, row in red.pivot_rows.items():
        x[p] = row.get(nunk, ZERO)
    return tuple(x)

