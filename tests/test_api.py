"""The public API: exactly these names, and the README quick tour runs on them."""

import ast
import re
import warnings
from pathlib import Path

import pytest

import entbound
import helpers
from entbound import bounds, cli, closedform, criteria, linalg, spinspace, states

PUBLIC = [
    "BoundReport", "CoupledSpinSystem", "CriteriaVerdict", "DensityMatrix",
    "DimensionError", "FamilyCurvePoint", "OptimizerBudget", "PureState", "SchmidtForm",
    "binary_entropy", "bounds", "build_witness", "closedform",
    "concurrence_from_functional", "concurrence_pure", "coupled_system", "criteria",
    "eof_from_functional", "eof_pure", "evaluate_criteria", "extended_reduction_map",
    "extremal_schmidt_weight", "family_state", "functionals", "haar_unitary",
    "isotropic_state", "linalg", "load_state",
    "min_schmidt_entropy", "min_schmidt_entropy_hull", "minimize_witness",
    "random_densities", "random_density", "random_pure",
    "report_from_verdict", "save_state", "schmidt_decompose", "singlet_vector",
    "spinspace", "states", "time_reversal_unitary", "time_reverse",
    "verdicts", "werner_state",
]

# deleted wrappers, gates and helpers, and cross-checks moved to tests/helpers.py
REMOVED = [
    "trace_norm", "partial_transpose_norm", "realign_norm", "concurrence_lower_bound",
    "partial_transpose", "realign", "witness_value", "twisted_witness", "_flip_signs",
    "partial_time_reversal", "realign_reshuffle", "swap_operator",
    "total_spin_projectors", "isotropic_reference",
    "schmidt_reconstruct", "random_product_unitary", "product_pure", "hermitian_spectrum",
    "as_matrix", "FrameConfig", "sample_frame_config", "_Checker",
    "as_complex_matrix", "as_complex_stack", "_HERM_TOL", "_TRACE_TOL", "_EIG_TOL",
]

# closedform names that the package re-exported once
NOT_REEXPORTED = [
    "spin_operators", "family_bounds_closed_form", "family_trace_norms",
    "family_witness_expectation", "lifted_witness", "overlap_kernel",
    "sample_frames", "spectral_witness", "witness_spectrum",
]

MOVED_TO_CLOSEDFORM = ["spin_operators"]

# oracles that only tests read, moved out of entbound
MOVED_TO_HELPERS = ["twisted_witness", "flip_signs", "swap_operator", "partial_time_reversal",
                    "realign_reshuffle", "isotropic_reference", "total_spin_projectors"]

SRC = Path(entbound.__file__).resolve().parent


def test_public_names():
    assert sorted(entbound.__all__) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_unreachable(name):
    for module in (entbound, bounds, cli, closedform, criteria, linalg, spinspace, states):
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", NOT_REEXPORTED)
def test_closedform_name_is_not_reexported(name):
    assert hasattr(closedform, name)
    for module in (entbound, bounds, criteria, linalg, spinspace, states):
        assert not hasattr(module, name)


@pytest.mark.parametrize("name", MOVED_TO_CLOSEDFORM)
def test_reference_lives_in_closedform(name):
    assert getattr(closedform, name).__module__ == "entbound.closedform"


@pytest.mark.parametrize("name", MOVED_TO_HELPERS)
def test_oracle_lives_in_helpers(name):
    assert getattr(helpers, name).__module__ == "helpers"


def _loaded_names(node):
    """Every name that ``node`` reads as a variable or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_private_and_closedform_function_has_a_reader_in_the_package():
    # one production path per quantity: a private helper, or a closedform
    # reference, that only tests read belongs in tests/helpers.py
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    unread = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                continue
            private = d.name.startswith("_") and not d.name.startswith("__")
            reference = module == "closedform" and isinstance(d, ast.FunctionDef)
            if (private or reference) and not any(
                    d.name in _loaded_names(stmt) for stmt in statements if stmt is not d):
                unread.append(f"{module}.{d.name}")
    assert unread == []


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
