"""Exact rational linear algebra: matrices, reduced row echelon form, canonical subspaces.

Every scalar is a `fractions.Fraction`; there are no floats and no tolerances.
`Subspace` is the currency passed between the algebra, radical and structure
layers: two subspaces are equal iff their reduced-row-echelon basis matrices
are identical, which makes subspace equality a plain tuple comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vector(entries: Iterable) -> tuple:
    return tuple(as_rat(e) for e in entries)


def zero_vector(n: int) -> tuple:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vector(u) -> bool:
    return all(a == 0 for a in u)


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

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix product shape mismatch")
        ot = other.transpose()
        return Mat([tuple(sum(a * b for a, b in zip(row, col)) for col in ot.data)
                    for row in self.data], cols=other.cols)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError("matrix-vector shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), ZERO)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def rref(m: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form and rank.

    Pivot choice: leftmost nonzero column, topmost nonzero row. With exact
    arithmetic the choice only fixes determinism.
    """
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f != 0:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rr)]
        r += 1
        if r == nrows:
            break
    return Mat(rows, cols=ncols), r


def rank(m: Mat) -> int:
    return rref(m)[1]


class Reducer:
    """Incremental reduced-row-echelon accumulator.

    Maintains a canonical RREF basis under repeated `insert`; the workhorse of
    all closure loops (ideals, subalgebras, graded closures, subspace powers).
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors: Iterable = ()):
        self.ambient = ambient
        self.rows: list[list] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.insert(v)

    def reduce(self, v) -> list:
        v = list(v)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, v) -> bool:
        """Add v to the span; returns True iff the span grew."""
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        v = self.reduce(v)
        piv = None
        for j, a in enumerate(v):
            if a != 0:
                piv = j
                break
        if piv is None:
            return False
        pv = v[piv]
        if pv != 1:
            v = [a / pv for a in v]
        for row in self.rows:
            f = row[piv]
            if f != 0:
                row[:] = [a - f * b for a, b in zip(row, v)]
        at = bisect_left(self.pivots, piv)
        self.pivots.insert(at, piv)
        self.rows.insert(at, v)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def subspace(self) -> "Subspace":
        return Subspace(self.ambient, Mat(self.rows, cols=self.ambient), _trusted=True)


class Subspace:
    """A linear subspace of Q^ambient held by its canonical RREF basis.

    Canonicity: different spanning sets of the same space produce identical
    basis matrices, so `==` is decisive.
    """

    __slots__ = ("ambient", "mat")

    def __init__(self, ambient: int, mat: Mat, _trusted: bool = False):
        if not _trusted:
            mat, r = rref(mat)
            mat = Mat(mat.data[:r], cols=ambient)
        if mat.cols != ambient:
            raise DimensionMismatchError("basis width differs from ambient dimension")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable) -> "Subspace":
        red = Reducer(ambient)
        for v in vectors:
            red.insert(v)
        return red.subspace()

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, Mat([], cols=ambient), _trusted=True)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Mat.identity(ambient), _trusted=True)

    @property
    def dim(self) -> int:
        return self.mat.rows

    def is_zero(self) -> bool:
        return self.mat.rows == 0

    def basis_vectors(self) -> tuple:
        return self.mat.data

    def pivots(self) -> tuple:
        out = []
        for row in self.mat.data:
            for j, a in enumerate(row):
                if a != 0:
                    out.append(j)
                    break
        return tuple(out)

    def residual(self, v) -> tuple:
        """v reduced against the basis; zero iff v lies in the subspace."""
        pivs = self.pivots()
        v = list(as_vector(v))
        for p, row in zip(pivs, self.mat.data):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return is_zero_vector(self.residual(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.mat.data)

    def coords(self, v):
        """Coefficients of v in the RREF basis, or None if v is outside."""
        pivs = self.pivots()
        v = as_vector(v)
        cs = tuple(v[p] for p in pivs)
        acc = list(v)
        for c, row in zip(cs, self.mat.data):
            if c != 0:
                acc = [a - c * b for a, b in zip(acc, row)]
        if not is_zero_vector(acc):
            return None
        return cs

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
    red = Reducer(a.ambient, a.mat.data)
    for v in b.mat.data:
        red.insert(v)
    return red.subspace()


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [[A A],[B 0]]; rows with zero left half carry the
    intersection in their right half."""
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspace intersection needs equal ambient dimensions")
    n = a.ambient
    stacked = [list(r) + list(r) for r in a.mat.data]
    stacked += [list(r) + [ZERO] * n for r in b.mat.data]
    R, r = rref(Mat(stacked, cols=2 * n))
    out = []
    for row in R.data[:r]:
        if is_zero_vector(row[:n]):
            out.append(row[n:])
    return Subspace.from_vectors(n, out)


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0}; dim = cols - rank."""
    R, r = rref(m)
    piv_cols = []
    for row in R.data[:r]:
        for j, a in enumerate(row):
            if a != 0:
                piv_cols.append(j)
                break
    piv_set = set(piv_cols)
    basis = []
    for f in range(m.cols):
        if f in piv_set:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, pc in enumerate(piv_cols):
            v[pc] = -R.data[i][f]
        basis.append(v)
    return Subspace.from_vectors(m.cols, basis)


def solve(m: Mat, rhs: Sequence):
    """One exact solution x of m x = rhs with free variables set to zero,
    or None when the system is infeasible."""
    if len(rhs) != m.rows:
        raise DimensionMismatchError("rhs length differs from row count")
    aug = Mat([list(row) + [as_rat(b)] for row, b in zip(m.data, rhs)] or [],
              cols=m.cols + 1)
    if m.rows == 0:
        return zero_vector(m.cols)
    R, r = rref(aug)
    x = [ZERO] * m.cols
    for row in R.data[:r]:
        piv = None
        for j, a in enumerate(row):
            if a != 0:
                piv = j
                break
        if piv == m.cols:
            return None
        x[piv] = row[m.cols]
    return tuple(x)


def invert(m: Mat) -> Mat:
    """Inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    n = m.rows
    aug = Mat([list(row) + list(unit_vector(n, i)) for i, row in enumerate(m.data)] or [],
              cols=2 * n)
    R, r = rref(aug)
    if r < n or any(R.data[i][i] != 1 for i in range(n)):
        raise DimensionMismatchError("matrix is singular")
    return Mat([row[n:] for row in R.data[:n]], cols=n)
