"""Entanglement detection and entanglement-measure lower bounds.

Works on bipartite systems C^N otimes C^N with even local dimension N >= 4.
The package builds the time-reversal structure of two coupled spins, the
associated positive-map entanglement witness, the partial-transpose and
realignment trace-norm criteria, and lower bounds for the concurrence and
the entanglement of formation derived from all three.
"""

from .bounds import (BoundReport, FamilyCurvePoint, binary_entropy,
                     concurrence_from_functional, concurrence_lower_bound,
                     eof_from_functional, extremal_schmidt_weight,
                     isotropic_reference, min_schmidt_entropy,
                     min_schmidt_entropy_hull, report_from_verdict)
from .closedform import (FrameConfig, family_bounds_closed_form,
                         family_trace_norms, family_witness_expectation,
                         lifted_witness, overlap_kernel, sample_frame_config,
                         spectral_witness, witness_spectrum)
from .criteria import (CriteriaVerdict, OptimizerBudget, build_witness,
                       evaluate_criteria, extended_reduction_map, functionals,
                       minimize_witness, partial_time_reversal,
                       partial_transpose, partial_transpose_norm, realign,
                       realign_norm, realign_reshuffle, twisted_witness,
                       verdicts, witness_value)
from .linalg import DimensionError, hermitian_spectrum, trace_norm
from .spinspace import (CoupledSpinSystem, coupled_system, singlet_vector,
                        spin_operators, swap_operator, time_reversal_unitary,
                        time_reverse, total_spin_projectors)
from .states import (DensityMatrix, PureState, SchmidtForm, as_matrix,
                     concurrence_pure, eof_pure, family_state, haar_unitary,
                     isotropic_state, load_state, product_pure, random_densities,
                     random_density, random_product_unitary, random_pure, save_state,
                     schmidt_decompose, schmidt_reconstruct, werner_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
