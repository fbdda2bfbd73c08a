"""Numerical harmonic analysis on tracial block algebras.

Finite-dimensional tracial algebras with group actions, bracket products,
scaling-operator (Duflo-Moore type) estimation, and certification of the
orthogonality relations and convolution inequalities on exactly computable
finite instances plus quadrature-discretized continuous instances.

Importing the package defaults OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to 1 when they are unset, so that a report does not depend
on the BLAS thread count (a threaded product may sum in another order); a
value set in the environment wins.  The default reaches BLAS only when numpy
is first imported after this package.
"""

import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    p_norm,
    power,
    trace,
)
from .actions import (
    Action,
    MonomialStack,
    conjugation_action,
    dual_action,
    finite_weyl_heisenberg,
    fixed_point_dimension,
    induced_action,
    is_trace_preserving,
    left_translation_action,
    product_phases,
)
from .bracket import (
    bracket,
    bracket_symmetry_defect,
    function_p_norm,
)
from .duflo import (
    CheckReport,
    DufloEstimate,
    check_admissibility,
    check_interpolation,
    check_l1,
    check_orthogonality,
    check_semi_invariance,
    check_young,
    estimate_duflo,
    run_suite,
)
from .groups import (
    FiniteGroup,
    HaarModel,
    QuadratureGroup,
    affine_group,
    counting_haar,
    cyclic,
    probability_haar,
    product,
    symmetric,
)
from .scenarios import (
    Scenario,
    ScenarioSpec,
    builtin,
    list_builtins,
    load_scenario,
    save_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
