"""Test-only conveniences built from the public API."""

import numpy as np

from entbound import (PureState, SchmidtForm, evaluate_criteria, haar_unitary,
                      report_from_verdict)


def bound_report(rho, sys_):
    """The bound report of one state: its verdict through report_from_verdict."""
    return report_from_verdict(evaluate_criteria(rho, sys_), sys_.n)


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
