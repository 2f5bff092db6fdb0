"""Test-only conveniences built from the public API."""

from unittest import mock

import numpy as np

from entbound import (PureState, SchmidtForm, evaluate_criteria, haar_unitary, load_state,
                      report_from_verdict, states)
from entbound.spinspace import _swap_index


def bound_report(rho, sys_):
    """The bound report of one state: its verdict through report_from_verdict."""
    return report_from_verdict(evaluate_criteria(rho, sys_), sys_.n)


# Dense N^2 x N^2 oracles of the structured states, with the arithmetic the
# package used before it built them as their J_z blocks.

def werner_matrix(sys_) -> np.ndarray:
    n = sys_.n
    m = np.eye(n * n)
    m[np.arange(n * n), _swap_index(n)] += 1
    return 2 / (n * (n + 1)) * (m / 2)


def family_matrix(sys_, lam) -> np.ndarray:
    p0 = np.outer(sys_.singlet, sys_.singlet.conj())
    return lam * p0 + (1 - lam) * werner_matrix(sys_)


def isotropic_matrix(sys_, fidelity) -> np.ndarray:
    n = sys_.n
    p0 = np.outer(sys_.singlet, sys_.singlet.conj())
    rest = (np.eye(n * n) - p0) / (n * n - 1)
    return fidelity * p0 + (1 - fidelity) * rest


def one_block(stack):
    """A (B, d, d) stack as members of one block each, as trace_norms and hermitian_mask take it."""
    return [np.asarray(stack)[:, None]]


def product_pure(a, b) -> PureState:
    """Pure product state from two local vectors (normalized)."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    v = np.kron(av / np.linalg.norm(av), bv / np.linalg.norm(bv))
    return PureState(n_local=av.size, vector=v)


def random_product_unitary(sys_, seed):
    """Pair (U1, U2) of independent Haar unitaries on the local space."""
    rng = np.random.default_rng(seed)
    return haar_unitary(sys_.n, rng), haar_unitary(sys_.n, rng)


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Rebuild the state vector sum_i alpha_i b1_i otimes b2_i."""
    n = form.basis_1.shape[0]
    out = np.zeros(n * n, dtype=np.complex128)
    for i, alpha in enumerate(form.coefficients):
        out += alpha * np.kron(form.basis_1[:, i], form.basis_2[:, i])
    return out


def load_whole_file(path):
    """load_state with the row reader off: json.loads of the whole text, then the pair conversion.

    The oracle of the row reader: every file must give the same state, or
    the same exception and message, either way.
    """
    with mock.patch.object(states, "_matrix_rows", return_value=None):
        return load_state(path)
