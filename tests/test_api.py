"""The public API: exactly these names, and the README quick tour runs on them."""

import re
import warnings
from pathlib import Path

import pytest

import entbound
from entbound import bounds, closedform, criteria, linalg, spinspace, states

PUBLIC = [
    "BoundReport", "CoupledSpinSystem", "CriteriaVerdict", "DensityMatrix",
    "DimensionError", "FamilyCurvePoint", "OptimizerBudget", "PureState", "SchmidtForm",
    "as_matrix", "binary_entropy", "bounds", "build_witness", "closedform",
    "concurrence_from_functional", "concurrence_pure", "coupled_system", "criteria",
    "eof_from_functional", "eof_pure", "evaluate_criteria", "extended_reduction_map",
    "extremal_schmidt_weight", "family_state", "functionals", "haar_unitary",
    "isotropic_state", "linalg", "load_state",
    "min_schmidt_entropy", "min_schmidt_entropy_hull", "minimize_witness",
    "partial_transpose", "random_densities", "random_density", "random_pure", "realign",
    "report_from_verdict", "save_state", "schmidt_decompose", "singlet_vector",
    "spinspace", "states", "time_reversal_unitary", "time_reverse", "twisted_witness",
    "verdicts", "werner_state", "witness_value",
]

# deleted wrappers and helpers, references moved to closedform or
# tests/helpers.py, and closedform names that were re-exported
REMOVED = [
    "trace_norm", "partial_transpose_norm", "realign_norm", "concurrence_lower_bound",
    "partial_time_reversal", "realign_reshuffle", "swap_operator", "spin_operators",
    "total_spin_projectors", "isotropic_reference",
    "schmidt_reconstruct", "random_product_unitary", "product_pure",
    "FrameConfig", "family_bounds_closed_form", "family_trace_norms",
    "family_witness_expectation", "lifted_witness", "overlap_kernel",
    "sample_frame_config", "spectral_witness", "witness_spectrum", "hermitian_spectrum",
]

MOVED_TO_CLOSEDFORM = ["partial_time_reversal", "realign_reshuffle", "swap_operator",
                       "spin_operators", "total_spin_projectors", "isotropic_reference"]


def test_public_names():
    assert sorted(entbound.__all__) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_unreachable(name):
    for module in (entbound, bounds, criteria, linalg, spinspace, states):
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", MOVED_TO_CLOSEDFORM)
def test_reference_lives_in_closedform(name):
    assert getattr(closedform, name).__module__ == "entbound.closedform"


def test_version_matches_pyproject():
    # the version is written twice: in pyproject.toml and as entbound.__version__
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(^\[|\Z)", pyproject, re.S | re.M)[1]
    assert re.findall(r'^version = "(.*)"$', project, re.M) == [entbound.__version__]


def test_readme_quick_tour_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(readme), "exec"), {})
