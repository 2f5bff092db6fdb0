"""Reference constructions and closed-form values that validate the numeric pipeline.

The singlet/Werner mixture admits exact expressions for its partially
transposed and realigned trace norms and for the witness expectation, and
through them for every column of the ``family`` row; the witness spectrum
has exact eigenvalues with counting-formula multiplicities, and isotropic
states have exact concurrence and bound values.  These functions evaluate
those expressions directly from the formulas, with no matrix algebra, so
agreement with the numeric route is a genuine end-to-end check.

Below those sit the slower, more literal constructions that the
production code is checked against: the spin matrices, the total-spin
projectors and the dense swap F; the witness as a lifted map and from its
spectral decomposition (references for :func:`criteria.build_witness`);
the partial time reversal, and realignment as an index reshuffle
(references for :func:`criteria.realign`).  Nothing in the package's
production path calls this module except ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import FamilyCurvePoint, min_schmidt_entropy_hull
from .criteria import _flip_signs, extended_reduction_map
from .linalg import DimensionError, dagger
from .spinspace import CoupledSpinSystem, _require_even
from .states import as_matrix, haar_unitary


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


def family_bounds_closed_form(n: int, lam: float) -> FamilyCurvePoint:
    """Exact family row: the columns of ``family`` from the formulas above.

    Concurrence: the witness line sqrt(2(n-1)/n) (n-2)/(n-1) lam, the
    partial-transpose and realignment curves sqrt(2/(n(n-1))) (norm - 1)
    over the exact norms (the realignment curve is negative below
    lam = 1/(n+2) and clamped at zero), and the upper line
    sqrt(2(n-1)/n) lam.  Entanglement of formation: hull of the
    minimal-entropy profile at the constraint value with and without the
    witness functional, plus the upper line lam log2 n.
    """
    t2_norm, re_norm = family_trace_norms(n, lam)  # validates n, lam
    n = int(n)
    pref = np.sqrt(2 * (n - 1) / n)
    scale = np.sqrt(2 / (n * (n - 1)))
    lam0_new = min(max(max(n * lam, (n - 2) * lam + 1.0), 1.0), float(n))
    lam0_old = min(max(max(t2_norm, re_norm), 1.0), float(n))
    return FamilyCurvePoint(
        lam=lam,
        tr_W_rho=family_witness_expectation(n, lam),
        bound_witness=max(float(pref * (n - 2) / (n - 1) * lam), 0.0) + 0.0,
        norm_T2=t2_norm,
        bound_ppt=max(float(scale * (t2_norm - 1)), 0.0) + 0.0,
        norm_R=re_norm,
        bound_realign=max(float(scale * (re_norm - 1)), 0.0) + 0.0,
        bound_upper=float(pref * lam),
        eof_new=min_schmidt_entropy_hull(lam0_new, n),
        eof_old=min_schmidt_entropy_hull(lam0_old, n),
        eof_upper=float(lam * np.log2(n)),
    )


def witness_spectrum(n: int) -> list[tuple[float, int]]:
    """Exact witness eigenvalues with multiplicities, ascending.

    -(n-2) once (singlet), 0 on the odd-J manifolds, +2 on the even-J
    manifolds with J >= 2; manifold J has dimension 2J + 1.
    """
    n = _check_args(n, 0.0)
    zero_mult = sum(2 * j + 1 for j in range(1, n, 2))
    two_mult = sum(2 * j + 1 for j in range(2, n - 1, 2))
    return [(-(n - 2.0), 1), (0.0, zero_mult), (2.0, two_mult)]


def isotropic_reference(n: int, fidelity: float) -> tuple[float, float, float]:
    """(exact concurrence, partial-transpose bound, witness bound) for isotropic states.

    Exact concurrence is sqrt(2n/(n-1)) (f - 1/n) above f = 1/n and zero
    below; the partial-transpose bound reproduces it exactly, the witness
    bound is the factor (n-2)/(n-1) weaker.
    """
    n = _require_even(n, minimum=4)
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    if fidelity <= 1 / n:
        return 0.0, 0.0, 0.0
    exact = float(np.sqrt(2 * n / (n - 1)) * (fidelity - 1 / n))
    return exact, exact, float((n - 2) / (n - 1) * exact)


def spin_operators(n: int):
    """Spin matrices (Jx, Jy, Jz) for spin j = (n-1)/2 in the descending-m basis."""
    n = int(n)
    if n < 2:
        raise DimensionError(f"need local dimension >= 2, got {n}")
    j = (n - 1) / 2
    ms = j - np.arange(n)
    jz = np.diag(ms).astype(complex)
    jplus = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        m = ms[i]
        jplus[i - 1, i] = np.sqrt(j * (j + 1) - m * (m + 1))
    jminus = dagger(jplus)
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    return jx, jy, jz


def total_spin_projectors(n: int) -> list[np.ndarray]:
    """Projectors P_J onto total spin J = 0..n-1 of the coupled pair.

    One Hermitian eigensolve of the Casimir
    J^2 = sum_a (j_a otimes I + I otimes j_a)^2, whose eigenvalues J(J+1)
    are integers with gaps >= 2; eigenvectors are grouped by
    J = round((sqrt(1 + 4 lambda) - 1) / 2) and P_J = Q_J Q_J^dag, which is
    idempotent to machine precision at every n.
    """
    n = _require_even(n, minimum=4)
    eye = np.eye(n, dtype=complex)
    j2 = np.zeros((n * n, n * n), dtype=complex)
    for a in spin_operators(n):
        total = np.kron(a, eye) + np.kron(eye, a)
        j2 += total @ total
    evals, q = np.linalg.eigh(j2)
    spins = np.rint((np.sqrt(1 + 4 * evals) - 1) / 2).astype(int)
    return [q[:, spins == bigj] @ dagger(q[:, spins == bigj]) for bigj in range(n)]


def swap_operator(n: int) -> np.ndarray:
    """Dense swap F (e_a otimes e_b) = e_b otimes e_a, the reference for the index map F."""
    n = _require_even(n)
    f = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            f[b * n + a, a * n + b] = 1.0
    return f


def lifted_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """N (I otimes Phi)(P_0): the extended reduction map on each subsystem-2 block."""
    n = sys.n
    p0 = np.outer(sys.singlet, sys.singlet.conj()).reshape(n, n, n, n)
    w = np.empty_like(p0)
    for i, j in np.ndindex(n, n):
        w[i, :, j, :] = n * extended_reduction_map(p0[i, :, j, :], sys)
    return w.reshape(n * n, n * n)


def spectral_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """-(N-2) P_0 + 2 (P_2 + ... + P_{N-2}), as accurate as :func:`total_spin_projectors`."""
    n = sys.n
    projs = total_spin_projectors(n)
    return -(n - 2) * projs[0] + 2 * sum(projs[2:n - 1:2])


def partial_time_reversal(rho, sys: CoupledSpinSystem) -> np.ndarray:
    """(I otimes V) T2(rho) (I otimes V)^dag as the signed index permutation

    out[(a,b),(c,d)] = (-1)^(b+d) rho[(a, n-1-d), (c, n-1-b)].
    """
    n = sys.n
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)[:, ::-1, :, ::-1]
    return (r.transpose(0, 3, 2, 1) * _flip_signs(n)).reshape(n * n, n * n)


def realign_reshuffle(rho, n: int) -> np.ndarray:
    """Realignment as the index reshuffle M[(i,j),(k,l)] = rho[(i,k),(j,l)].

    Differs from :func:`criteria.realign` by an index permutation; the two
    share their singular values, hence the same trace norm.
    """
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)
    return r.transpose(0, 2, 1, 3).reshape(n * n, n * n)


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
    n = sys.n
    u1 = haar_unitary(n, rng)
    u2 = haar_unitary(n, rng)
    i, j = rng.choice(n, size=2, replace=False)
    return FrameConfig(phi_i=u1[:, i], phi_j=u1[:, j],
                       chi_i=u2[:, i], chi_j=u2[:, j])
