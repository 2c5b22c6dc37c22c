"""Polynomials with (QG)*-labels, evaluated through projections of
unrestricted substitutions: an independent route to the graded identities and
codimensions of `gradedalg.identities`, which restricts every variable to a
homogeneous component instead.

For a group grading, a variable labelled by the delta functional at g acts on
its argument by the projection onto A_g, so the delta-labelled identities are
exactly the graded ones. A general functional f acts as the sum of f(g) times
those projections, so its labels expand into delta labels (`from_functionals`).
"""

from itertools import product as iproduct

from gradedalg.errors import ValidationError
from gradedalg.exactlin import ONE, ZERO, as_rat, is_zero_vector
from gradedalg.groups import GroupElem
from gradedalg.hopf import DualFunctional, dual_action
from gradedalg.identities import MultilinearGradedPoly


def from_functionals(n: int, terms: dict, support) -> MultilinearGradedPoly:
    """Polynomial whose variables carry (QG)*-labels: each label is a group
    element g, read as the delta functional at g, or a general
    `DualFunctional` f. On an algebra with this support, f acts as the sum of
    f(g) times the projection onto A_g, so a term with label f expands into
    delta-labelled terms weighted by f's values on the support."""
    expanded: dict = {}
    for (perm, labels), coeff in terms.items():
        coeff = as_rat(coeff)
        choices = []
        for l in labels:
            if isinstance(l, DualFunctional):
                choices.append([(g, l(g)) for g in support])
            elif isinstance(l, GroupElem):
                choices.append([(l, ONE)])
            else:
                raise ValidationError(f"label {l!r} is neither a functional nor a group element")
        for combo in iproduct(*choices):
            c = coeff
            for _, w in combo:
                c *= w
            key = (tuple(perm), tuple(g for g, _ in combo))
            expanded[key] = expanded.get(key, ZERO) + c
    return MultilinearGradedPoly(n, expanded)


def evaluate_functional_poly(f: MultilinearGradedPoly, A, vectors) -> tuple:
    """Evaluate with x_i := vectors[i], reading each label as the delta
    functional at it: a labelled occurrence acts on its unrestricted argument
    by the projection onto the label's component (zero outside the support)."""
    if len(vectors) != f.n:
        raise ValidationError("need one substitution vector per variable")
    acc = [ZERO] * A.dim
    for (perm, labels), coeff in f.terms.items():
        cur = None
        for p in perm:
            v = dual_action(DualFunctional.delta(labels[p]), vectors[p], A)
            cur = v if cur is None else A.multiply(cur, v)
            if is_zero_vector(cur):
                break
        for k, c in enumerate(cur):
            acc[k] += coeff * c
    return tuple(acc)


def is_functional_identity(f: MultilinearGradedPoly, A) -> bool:
    """True iff f, its labels read as delta functionals, vanishes for all
    substitutions X -> A (basis tuples suffice). It never restricts a
    variable to a component."""
    for choice in iproduct(range(A.dim), repeat=f.n):
        vectors = [A.basis_vector(i) for i in choice]
        if not is_zero_vector(evaluate_functional_poly(f, A, vectors)):
            return False
    return True
