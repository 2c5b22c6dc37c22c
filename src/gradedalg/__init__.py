"""Exact-arithmetic toolkit for group-graded associative and Lie algebras."""

from .algebra import (ASSOCIATIVE, LIE, GradedAlgebra, algebra_on_subspace,
                      graded_closure, nilpotency_index, quotient_algebra,
                      unitalize)
from .exactlin import Rat, Subspace
from .groups import (CyclicGroup, FreeGroup, GroupElem, ProductGroup,
                     TableGroup, TrivialGroup)
from .hopf import CoalgebraWindow, DualFunctional, dual_action
from .radical import (graded_radical_report, jacobson_radical, killing_form,
                      nilradical, solvable_radical)
from .structure import (GradedDecomposition, levi_graded,
                        malcev_complement_graded, wedderburn_artin_graded)
from .identities import (MultilinearGradedPoly, codim_block,
                         codimension_report, exponent_estimate,
                         graded_codimension, is_graded_identity)

__version__ = "0.1.0"
