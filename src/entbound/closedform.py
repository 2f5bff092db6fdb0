"""Closed-form reference values used to validate the numeric pipeline.

The singlet/Werner mixture admits exact expressions for its partially
transposed and realigned trace norms and for the witness expectation; the
witness spectrum has exact eigenvalues with counting-formula multiplicities.
These functions evaluate those expressions directly from the formulas, with
no matrix algebra, so agreement with the numeric route is a genuine
end-to-end check.  Two further constructions of the witness matrix, from
its definition as a lifted map and from its spectral decomposition, serve
as references for the swap form that :func:`criteria.build_witness` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import extended_reduction_map
from .linalg import DimensionError
from .spinspace import CoupledSpinSystem, _require_even, total_spin_projectors


def _check_args(n: int, lam: float) -> int:
    n = _require_even(n, minimum=4)
    if not 0 <= lam <= 1:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {lam}")
    return n


def family_trace_norms(n: int, lam: float) -> tuple[float, float]:
    """Exact (||T2 rho(lam)||, ||R rho(lam)||) for the singlet/Werner family.

    Piecewise in lam: the partial-transpose norm is 1 up to lam = 1/(n+2),
    then 1 + (n-2)/n [(n+2) lam - 1] up to 1/2, then n lam; the realignment
    norm is 1 - 2 lam up to 1/(n+2), then n lam.
    """
    n = _check_args(n, lam)
    if lam <= 1 / (n + 2):
        t2 = 1.0
    elif lam <= 0.5:
        t2 = 1.0 + (n - 2) / n * ((n + 2) * lam - 1)
    else:
        t2 = n * lam
    if lam <= 1 / (n + 2):
        re = 1.0 - 2 * lam
    else:
        re = n * lam
    return t2, re


def family_witness_expectation(n: int, lam: float) -> float:
    """Exact tr(W rho(lam)) = -lam (n - 2)."""
    n = _check_args(n, lam)
    return -lam * (n - 2)


def witness_spectrum(n: int) -> list[tuple[float, int]]:
    """Exact witness eigenvalues with multiplicities, ascending.

    -(n-2) once (singlet), 0 on the odd-J manifolds, +2 on the even-J
    manifolds with J >= 2; manifold J has dimension 2J + 1.
    """
    n = _check_args(n, 0.0)
    zero_mult = sum(2 * j + 1 for j in range(1, n, 2))
    two_mult = sum(2 * j + 1 for j in range(2, n - 1, 2))
    return [(-(n - 2.0), 1), (0.0, zero_mult), (2.0, two_mult)]


def lifted_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """N (I otimes Phi)(P_0): the extended reduction map on each subsystem-2 block."""
    n = sys.n
    p0 = np.outer(sys.singlet, sys.singlet.conj()).reshape(n, n, n, n)
    w = np.empty_like(p0)
    for i, j in np.ndindex(n, n):
        w[i, :, j, :] = n * extended_reduction_map(p0[i, :, j, :], sys)
    return w.reshape(n * n, n * n)


def spectral_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """-(N-2) P_0 + 2 (P_2 + ... + P_{N-2}), as accurate as total_spin_projectors."""
    n = sys.n
    projs = total_spin_projectors(n)
    return -(n - 2) * projs[0] + 2 * sum(projs[2:n - 1:2])


@dataclass(frozen=True, eq=False)
class FrameConfig:
    """Two pairs of local unit vectors feeding the overlap kernel.

    phi_i / phi_j live on subsystem 1, chi_i / chi_j on subsystem 2; in the
    Schmidt context they are drawn from orthonormal frames, but the kernel
    bound only needs them normalized.
    """

    phi_i: np.ndarray
    phi_j: np.ndarray
    chi_i: np.ndarray
    chi_j: np.ndarray


def overlap_kernel(cfg: FrameConfig, sys: CoupledSpinSystem) -> complex:
    """The pure-state witness kernel A_ij; |A_ij| <= 1 for unit vectors.

    A_ij = <phi_i|chi_j><chi_i|phi_j> + <phi_i|theta chi_i><theta chi_j|phi_j>
    with theta x = V conj(x).  Its boundedness is what caps the witness
    expectation on pure states by the off-diagonal Schmidt sum.
    """
    vecs = (cfg.phi_i, cfg.phi_j, cfg.chi_i, cfg.chi_j)
    arrs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vecs]
    for a in arrs:
        if a.size != sys.n:
            raise DimensionError(f"frame vectors must have length {sys.n}")
        if abs(np.linalg.norm(a) - 1.0) > 1e-10:
            raise ValueError("frame vectors must be normalized within 1e-10")
    phi_i, phi_j, chi_i, chi_j = arrs
    theta_chi_i = sys.v @ chi_i.conj()
    theta_chi_j = sys.v @ chi_j.conj()
    direct = np.vdot(phi_i, chi_j) * np.vdot(chi_i, phi_j)
    reversed_part = np.vdot(phi_i, theta_chi_i) * np.vdot(theta_chi_j, phi_j)
    return complex(direct + reversed_part)


def sample_frame_config(sys: CoupledSpinSystem, rng: np.random.Generator) -> FrameConfig:
    """Draw a random configuration from two Haar-random orthonormal frames."""
    from .states import haar_unitary

    n = sys.n
    u1 = haar_unitary(n, rng)
    u2 = haar_unitary(n, rng)
    i, j = rng.choice(n, size=2, replace=False)
    return FrameConfig(phi_i=u1[:, i], phi_j=u1[:, j],
                       chi_i=u2[:, i], chi_j=u2[:, j])
