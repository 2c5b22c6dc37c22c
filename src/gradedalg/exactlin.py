"""Exact rational linear algebra: matrices, reduced row echelon form, canonical subspaces.

Every scalar is a `fractions.Fraction`; there are no floats and no tolerances.
Entries enter as Fractions or ints (`as_rat` rejects anything else, floats
included). `Reducer` is the one elimination: `rank`, `kernel`,
`solve`, `invert`, subspace sums and intersections and every span are read
off its pivots and rows. `Subspace` is the currency passed between the
algebra, radical and structure layers; it carries its RREF basis and that
basis's pivot columns, so two subspaces are equal iff their basis matrices
are identical, a plain tuple comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, ValidationError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x) -> Fraction:
    """x as a Fraction; only Fractions and ints (not bools) are exact input."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValidationError(f"{x!r} is not an exact rational: expected a Fraction or an int")


def as_vector(entries: Iterable) -> tuple:
    # Fractions pass without a call: every span is built through here
    return tuple([e if type(e) is Fraction else as_rat(e) for e in entries])


def zero_vector(n: int) -> tuple:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vector(u) -> bool:
    return all(a == 0 for a in u)


def sparse(v) -> dict:
    """The vector v as {i: v[i]} over its nonzero entries, in index order:
    the one dense-to-sparse conversion of this package."""
    return {i: c for i, c in enumerate(v) if c}


def dense(sv: dict, n: int) -> list:
    """The sparse vector {i: c} as a dense list of length n: undoes `sparse`."""
    w = [ZERO] * n
    for i, c in sv.items():
        w[i] = c
    return w


def axpy(acc: list, c, v):
    """acc += c v in place, skipping the zero entries of v."""
    for i, x in enumerate(v):
        if x:
            acc[i] += c * x


class Mat:
    """Immutable dense matrix of Fractions, row-major.

    0 x n and n x 0 shapes are legal; `cols` must be given explicitly when
    there are no rows.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = tuple(as_vector(r) for r in data)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise DimensionMismatchError("ragged rows in matrix")
            if cols is not None and cols != ncols:
                raise DimensionMismatchError("explicit cols disagrees with row length")
        else:
            if cols is None:
                raise DimensionMismatchError("empty matrix needs explicit cols")
            ncols = cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls([zero_vector(cols) for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([unit_vector(n, i) for i in range(n)], cols=n)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def transpose(self) -> "Mat":
        return Mat([tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)],
                   cols=self.rows)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError("matrix-vector shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def _reduce(v, pivots, rows):
    """v minus, for each RREF row in turn, v's entry at that row's pivot times
    the row; the one reduce loop of this module."""
    for p, row in zip(pivots, rows):
        c = v[p]
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return v


class Reducer:
    """Incremental reduced-row-echelon accumulator: the one elimination of
    this package.

    Maintains the canonical RREF basis of the span of every inserted vector,
    with its pivot columns in increasing order; every rank, kernel, solve,
    inverse and subspace (and every closure loop above this module) is read
    off one Reducer's `pivots` and `rows`.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors: Iterable = ()):
        self.ambient = ambient
        self.rows: list[list] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.insert(v)

    def insert(self, v) -> tuple | None:
        """Add v to the span. Returns None when v already lies in it, else
        the new basis row as reduced at insertion. Rows that v reduces are
        replaced in `rows`, never changed in place."""
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        v = _reduce(as_vector(v), self.pivots, self.rows)
        piv = None
        for j, a in enumerate(v):
            if a != 0:
                piv = j
                break
        if piv is None:
            return None
        pv = v[piv]
        v = [a / pv for a in v] if pv != 1 else list(v)
        for r, row in enumerate(self.rows):
            f = row[piv]
            if f != 0:
                self.rows[r] = [a - f * b for a, b in zip(row, v)]
        at = bisect_left(self.pivots, piv)
        self.pivots.insert(at, piv)
        self.rows.insert(at, v)
        return tuple(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def subspace(self) -> "Subspace":
        return Subspace(self.ambient, Mat(self.rows, cols=self.ambient), self.pivots)


def rank(m: Mat) -> int:
    return Reducer(m.cols, m.data).dim


class Subspace:
    """A linear subspace of Q^ambient held by its canonical RREF basis `mat`
    and the pivot column of each basis row.

    Canonicity: different spanning sets of the same space produce identical
    basis matrices, so `==` is decisive. The constructor trusts its input, so
    a Subspace is built only in this module, from an RREF basis; elsewhere use
    `from_vectors`, `zero` or `full`.
    """

    __slots__ = ("ambient", "mat", "pivots")

    def __init__(self, ambient: int, mat: Mat, pivots: Iterable[int]):
        if mat.cols != ambient:
            raise DimensionMismatchError("basis width differs from ambient dimension")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable) -> "Subspace":
        return Reducer(ambient, vectors).subspace()

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, Mat([], cols=ambient), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Mat.identity(ambient), range(ambient))

    @property
    def dim(self) -> int:
        return self.mat.rows

    def is_zero(self) -> bool:
        return self.mat.rows == 0

    def basis_vectors(self) -> tuple:
        return self.mat.data

    def residual(self, v) -> tuple:
        """v reduced against the basis; zero iff v lies in the subspace."""
        return tuple(_reduce(as_vector(v), self.pivots, self.mat.data))

    def contains(self, v) -> bool:
        return is_zero_vector(self.residual(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.mat.data)

    def coords(self, v):
        """Coefficients of v in the RREF basis, or None if v is outside.

        Reducing by earlier rows leaves later pivot entries alone, so the
        coefficients are v's own pivot entries."""
        v = as_vector(v)
        if not is_zero_vector(_reduce(v, self.pivots, self.mat.data)):
            return None
        return tuple(v[p] for p in self.pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.mat == other.mat)

    def __hash__(self):
        return hash((self.ambient, self.mat))

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def __add__(self, other: "Subspace") -> "Subspace":
        return subspace_sum(self, other)

    def __and__(self, other: "Subspace") -> "Subspace":
        return subspace_intersection(self, other)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspace sum needs equal ambient dimensions")
    return Reducer(a.ambient, a.mat.data + b.mat.data).subspace()


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[A A],[B 0]]; the rows with pivot >= n have a
    zero left half, and their right halves are the RREF basis of the
    intersection."""
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspace intersection needs equal ambient dimensions")
    n = a.ambient
    red = Reducer(2 * n, [r + r for r in a.mat.data]
                  + [r + zero_vector(n) for r in b.mat.data])
    at = bisect_left(red.pivots, n)
    return Subspace(n, Mat([row[n:] for row in red.rows[at:]], cols=n),
                    [p - n for p in red.pivots[at:]])


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0}; dim = cols - rank. Each free column f gives
    the vector with 1 at f and -row[f] at each row's pivot."""
    red = Reducer(m.cols, m.data)
    pivots = set(red.pivots)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for p, row in zip(red.pivots, red.rows):
            v[p] = -row[f]
        basis.append(v)
    return Subspace.from_vectors(m.cols, basis)


def solve(m: Mat, rhs: Sequence):
    """One exact solution x of m x = rhs with free variables set to zero,
    or None when the system is infeasible (the rhs column is a pivot)."""
    if len(rhs) != m.rows:
        raise DimensionMismatchError("rhs length differs from row count")
    red = Reducer(m.cols + 1, [row + (b,) for row, b in zip(m.data, rhs)])
    if m.cols in red.pivots:
        return None
    x = [ZERO] * m.cols
    for p, row in zip(red.pivots, red.rows):
        x[p] = row[m.cols]
    return tuple(x)


def invert(m: Mat) -> Mat:
    """Inverse of a square matrix; raises on singular input (a pivot of
    [m | I] beyond column n - 1)."""
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    n = m.rows
    red = Reducer(2 * n, [row + unit_vector(n, i) for i, row in enumerate(m.data)])
    if red.pivots != list(range(n)):
        raise DimensionMismatchError("matrix is singular")
    return Mat([row[n:] for row in red.rows], cols=n)
