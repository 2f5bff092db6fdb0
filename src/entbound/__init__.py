"""Entanglement detection and entanglement-measure lower bounds.

Works on bipartite systems C^N otimes C^N with even local dimension N >= 4.
The package builds the time-reversal structure of two coupled spins, the
associated positive-map entanglement witness, the partial-transpose and
realignment trace-norm criteria, and lower bounds for the concurrence and
the entanglement of formation derived from all three.
"""

from . import closedform  # the reference module: reached as entbound.closedform
from .bounds import (BoundReport, FamilyCurvePoint, binary_entropy,
                     concurrence_from_functional, eof_from_functional,
                     extremal_schmidt_weight, min_schmidt_entropy,
                     min_schmidt_entropy_hull, report_from_verdict)
from .criteria import (CriteriaVerdict, OptimizerBudget, build_witness,
                       evaluate_criteria, extended_reduction_map, functionals,
                       minimize_witness, verdicts)
from .linalg import DimensionError
from .spinspace import (CoupledSpinSystem, coupled_system, singlet_vector,
                        time_reversal_unitary, time_reverse)
from .states import (DensityMatrix, PureState, SchmidtForm, concurrence_pure, eof_pure,
                     family_state, haar_unitary, isotropic_state, load_state, random_densities,
                     random_density, random_pure, save_state, schmidt_decompose, werner_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
