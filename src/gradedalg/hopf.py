"""Dual-action layer for group gradings.

A grading by G makes the algebra a comodule over the group algebra QG, and the
dual algebra (QG)* acts by weighted sums of homogeneous projections. Elements
of (QG)* are kept as finitely supported functionals; the window type carries
the finite chunk of QG (support, its pairwise products, inverses) on which the
product-splitting certificate is checked. The group-algebra case is the only
instantiation here; the window type is the seam where other finite coalgebra
fragments would plug in.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, graded_closure
from .errors import DimensionMismatchError, GroupMismatchError, NotAnIdealError
from .exactlin import Subspace, ZERO, as_rat, as_vector
from .groups import Group, GroupElem


class DualFunctional:
    """A finitely supported function G -> Q, i.e. an element of (QG)* seen
    through its nonzero values."""

    __slots__ = ("group", "values")

    def __init__(self, group: Group, values=None):
        self.group = group
        vals = {}
        for g, c in (values or {}).items():
            if not isinstance(g, GroupElem) or (g.group is not group and g.group != group):
                raise GroupMismatchError("functional support must lie in the stated group")
            c = as_rat(c)
            if c != 0:
                vals[g] = c
        self.values = vals

    @classmethod
    def _checked(cls, group: Group, values: dict) -> "DualFunctional":
        """A functional from values already known to be nonzero exact
        rationals (ints or Fractions, as `as_rat` gives them) on elements of
        `group`; the constructor's checks are skipped."""
        f = cls.__new__(cls)
        f.group = group
        f.values = values
        return f

    @classmethod
    def delta(cls, g: GroupElem) -> "DualFunctional":
        return cls(g.group, {g: 1})

    @classmethod
    def all_ones(cls, group: Group, elems) -> "DualFunctional":
        """The operational counit: value 1 on each listed element."""
        return cls(group, {g: 1 for g in elems})

    def __call__(self, g: GroupElem):
        if g.group is not self.group and g.group != self.group:
            raise GroupMismatchError("evaluating a functional outside its group")
        return self.values.get(g, ZERO)

    def support(self) -> tuple:
        return tuple(sorted(self.values, key=self.group.sort_key))

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "DualFunctional") -> "DualFunctional":
        if other.group != self.group:
            raise GroupMismatchError("adding functionals on different groups")
        vals = dict(self.values)
        for g, c in other.values.items():
            vals[g] = vals.get(g, ZERO) + c
        return DualFunctional(self.group, vals)

    def scale(self, c) -> "DualFunctional":
        c = as_rat(c)
        return DualFunctional(self.group, {g: c * v for g, v in self.values.items()})

    def translate(self, g: GroupElem) -> "DualFunctional":
        """The functional q -> self(g q). Its support is g^-1 times this one's,
        mapped by one `Group.left_translates` call, and its values are this
        one's, already checked, so they are not checked again. Raises
        `GroupMismatchError` unless g lies in a group equal to `self.group`."""
        support = self.group.left_translates(g.inverse(), self.values)
        return self._checked(self.group, dict(zip(support, self.values.values())))

    def __eq__(self, other):
        return (isinstance(other, DualFunctional) and other.group == self.group
                and other.values == self.values)

    def __hash__(self):
        return hash((self.group, frozenset(self.values.items())))

    def __repr__(self):
        parts = [f"{v}*d[{g!r}]" for g, v in sorted(
            self.values.items(), key=lambda it: self.group.sort_key(it[0]))]
        return " + ".join(parts) if parts else "0"


class CoalgebraWindow:
    """Finite window of QG closed enough for the product-splitting certificate:
    the listed elements contain the grading support, all pairwise products of
    support elements, and the inverses of all of those."""

    __slots__ = ("group", "basis")

    def __init__(self, group: Group, basis):
        self.group = group
        self.basis = tuple(basis)

    @classmethod
    def from_support(cls, group: Group, support) -> "CoalgebraWindow":
        support = list(support)
        seen = dict.fromkeys(support + [a * b for a in support for b in support])
        seen.update(dict.fromkeys([g.inverse() for g in seen]))
        return cls(group, seen)

    @classmethod
    def for_algebra(cls, A: GradedAlgebra) -> "CoalgebraWindow":
        return cls.from_support(A.group, A.support)

    def __repr__(self):
        return f"CoalgebraWindow(|basis|={len(self.basis)})"


def dual_action(f: DualFunctional, v, A: GradedAlgebra) -> tuple:
    """f . v = sum over the support of f(g) * pi_g(v); linear in both arguments."""
    if f.group != A.group:
        raise GroupMismatchError("functional acts on an algebra graded by another group")
    v = as_vector(v)
    if len(v) != A.dim:
        raise DimensionMismatchError("vector has wrong ambient dimension")
    acc = [ZERO] * A.dim
    values = f.values
    for g in A.support:
        c = values.get(g)
        if c is None:
            continue
        for i in A.component_indices(g):     # the components are disjoint
            acc[i] = c * v[i]
    return tuple(acc)


def xi_decompose(f: DualFunctional, window: CoalgebraWindow):
    """Split f of a product into a finite sum of pure tensors on the window:
    f(g q) = sum_i f_i'(g) f_i''(q) for all g, q in the window basis.

    For group algebras the pairs are (delta_g, q -> f(g q)), one per window
    element; translation permutes G, so a translate of f is zero iff f is.
    """
    if f.group != window.group:
        raise GroupMismatchError("functional and window live on different groups")
    if f.is_zero():
        return []
    return [(DualFunctional.delta(g), f.translate(g)) for g in window.basis]


def verify_ideal_closure(ideal: Subspace, A: GradedAlgebra) -> bool:
    """Check that the delta-closure (= graded closure) of a two-sided ideal is
    again a two-sided ideal; raises if the input is not an ideal to begin with."""
    if not A.is_ideal(ideal):
        raise NotAnIdealError("input subspace is not a two-sided ideal")
    return A.is_ideal(graded_closure(ideal, A))


def trace_identity_check(f: DualFunctional, a, A: GradedAlgebra) -> bool:
    """Exact check of tr(L(f.a)) = f(identity) * tr(L(a)) where L is the left
    regular representation (the adjoint one for Lie algebras).

    On a non-unital associative A the identity is meant on A (+) Q.1, but no
    unit is adjoined: for x in A, L(x) sends 1 to x, off the diagonal, so its
    trace there is its trace on A. For Lie algebras the identity needs only
    the grading of the bracket.
    """
    lhs = A.trace_of_left_mult(dual_action(f, a, A))
    rhs = f(A.group.identity()) * A.trace_of_left_mult(a)
    return lhs == rhs
