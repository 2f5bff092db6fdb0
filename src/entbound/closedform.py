"""Reference constructions and closed-form values that validate the numeric pipeline.

The singlet/Werner mixture admits exact expressions for its partially
transposed and realigned trace norms and for the witness expectation, and
through them for every column of the ``family`` row; the witness spectrum
has exact eigenvalues with counting-formula multiplicities.  These
functions evaluate those expressions directly from the formulas, with no
matrix algebra, so agreement with the numeric route is a genuine
end-to-end check.

Below those sit the slower, more literal constructions that ``verify``
checks the production code against: the witness as a lifted map and from
its spectral decomposition, with the spin matrices and the total-spin
projectors that the latter is built from (references for
:func:`criteria.build_witness`), and the overlap kernel of the pure-state
caps.  Only ``verify`` and the spectrum that ``witness`` prints call this
module; the cross-checks that only tests use live in the test helpers.
"""

from __future__ import annotations

import numpy as np

from .bounds import FamilyCurvePoint, min_schmidt_entropy_hull
from .criteria import extended_reduction_map
from .linalg import DimensionError, dagger
from .spinspace import CoupledSpinSystem, _require_even
from .states import haar_unitary


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


def _spin_projectors(n: int):
    """Yield P_J for J = 0..n-1, each built as it is drawn.

    One Hermitian eigensolve of the Casimir J^2 = sum_a (j_a otimes I + I otimes j_a)^2, whose
    eigenvalues J(J+1) are integers with gaps >= 2; eigenvectors are grouped by
    J = round((sqrt(1 + 4 lambda) - 1) / 2) and P_J = Q_J Q_J^dag, which is idempotent to
    machine precision at every n.
    """
    n = _require_even(n, minimum=4)
    eye = np.eye(n, dtype=complex)
    totals = (np.kron(a, eye) + np.kron(eye, a) for a in spin_operators(n))
    evals, q = np.linalg.eigh(sum(t @ t for t in totals))  # J^2 is freed once it is solved
    spins = np.rint((np.sqrt(1 + 4 * evals) - 1) / 2).astype(int)
    for bigj in range(n):
        yield q[:, spins == bigj] @ dagger(q[:, spins == bigj])


def lifted_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """N (I otimes Phi)(P_0): the extended reduction map on each subsystem-2 block."""
    n = sys.n
    p0 = np.outer(sys.singlet, sys.singlet.conj()).reshape(n, n, n, n)
    w = np.empty_like(p0)
    for i, j in np.ndindex(n, n):
        w[i, :, j, :] = n * extended_reduction_map(p0[i, :, j, :], sys)
    return w.reshape(n * n, n * n)


def spectral_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """-(N-2) P_0 + 2 (P_2 + ... + P_{N-2}), as accurate as :func:`_spin_projectors`."""
    projs = _spin_projectors(sys.n)  # ``sum`` holds one P_J at a time, from int 0 (0 + -0.0 = +0.0)
    return -(sys.n - 2) * next(projs) + 2 * sum(p for j, p in enumerate(projs, 1) if j % 2 == 0)


def overlap_kernel(frames, sys: CoupledSpinSystem) -> complex:
    """The pure-state witness kernel A_ij of frames = (phi_i, phi_j, chi_i, chi_j); |A_ij| <= 1.

    phi_i / phi_j live on subsystem 1, chi_i / chi_j on subsystem 2, each normalized.
    A_ij = <phi_i|chi_j><chi_i|phi_j> + <phi_i|theta chi_i><theta chi_j|phi_j>
    with theta x = V conj(x).  Its boundedness is what caps the witness
    expectation on pure states by the off-diagonal Schmidt sum.
    """
    arrs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in frames]
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


def sample_frames(sys: CoupledSpinSystem, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """(phi_i, phi_j, chi_i, chi_j): columns i != j of two Haar-random unitaries."""
    n = sys.n
    u1 = haar_unitary(n, rng)
    u2 = haar_unitary(n, rng)
    i, j = rng.choice(n, size=2, replace=False)
    return u1[:, i], u1[:, j], u2[:, i], u2[:, j]
