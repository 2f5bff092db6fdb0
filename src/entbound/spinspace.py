"""Structural operators of two coupled spins on C^N otimes C^N, N even.

A local dimension N corresponds to one particle of spin j = (N-1)/2; the
local basis is ordered by descending magnetic quantum number m = j, ..., -j.
Composite indices are subsystem-1 major: (a, b) -> a*N + b.  For even N the
time-reversal rotation V is simultaneously unitary and skew-symmetric, which
is the structural fact everything downstream relies on; odd N is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DimensionError, as_complex_matrix, dagger


def _require_even(n: int, minimum: int = 2) -> int:
    n = int(n)
    if n < minimum or n % 2 != 0:
        raise DimensionError(f"local dimension must be even and >= {minimum}, got {n}")
    return n


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


def time_reversal_unitary(n: int) -> np.ndarray:
    """The rotation V with <j,m'|V|j,m> = (-1)^(j-m) delta(m',-m).

    For even n the matrix is real, unitary and skew-symmetric (V^T = -V),
    so V V = -I and conjugation by V implements the antiunitary time
    reversal together with complex conjugation.
    """
    n = _require_even(n)
    v = np.zeros((n, n), dtype=complex)
    for i in range(n):
        # basis index i holds m = j - i, and -m sits at index n-1-i
        v[n - 1 - i, i] = (-1) ** i
    return v


def time_reverse(b, sys: "CoupledSpinSystem") -> np.ndarray:
    """Operator time reversal  B -> V B^T V^dag."""
    return sys.v @ as_complex_matrix(b, (sys.n, sys.n)).T @ dagger(sys.v)


def swap_operator(n: int) -> np.ndarray:
    """Dense swap F (e_a otimes e_b) = e_b otimes e_a; test reference for :func:`_swap_index`."""
    n = _require_even(n)
    f = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            f[b * n + a, a * n + b] = 1.0
    return f


def _swap_index(n: int) -> np.ndarray:
    """Column (i % n) n + i // n of the single 1 in row i of the swap F (a n + b -> b n + a)."""
    return np.arange(n * n).reshape(n, n).T.ravel()


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


def singlet_vector(n: int) -> np.ndarray:
    """Unit vector of the total-spin-0 (maximally entangled) state.

    Angular-momentum coupling gives the J=0 combination
    |psi0> = n^(-1/2) sum_m (-1)^(j-m) |j,m> otimes |j,-m>.
    """
    n = _require_even(n, minimum=4)
    psi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        psi[i * n + (n - 1 - i)] = (-1) ** i
    return psi / np.sqrt(n)


@dataclass(frozen=True, eq=False)
class CoupledSpinSystem:
    """Precomputed fixed structure of C^N otimes C^N for one even N >= 4.

    Fields: ``n`` (one spin j = (n-1)/2), time-reversal rotation ``v`` (n x n), ``singlet``.
    No n^2 x n^2 array is kept: the swap F is applied by index (reference :func:`swap_operator`).
    """

    n: int
    v: np.ndarray
    singlet: np.ndarray


@lru_cache(maxsize=None)
def coupled_system(n: int) -> CoupledSpinSystem:
    """Build (and cache) the O(n^2) coupled-spin structure for even n >= 4."""
    n = _require_even(n, minimum=4)
    v = time_reversal_unitary(n)
    psi = singlet_vector(n)
    for arr in (v, psi):
        arr.setflags(write=False)
    return CoupledSpinSystem(n=n, v=v, singlet=psi)
