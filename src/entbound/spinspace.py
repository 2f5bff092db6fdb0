"""Structural data of two coupled spins on C^N otimes C^N, N even.

A local dimension N corresponds to one particle of spin j = (N-1)/2; the
local basis is ordered by descending magnetic quantum number m = j, ..., -j.
Composite indices are subsystem-1 major: (a, b) -> a*N + b.  For even N the
time-reversal rotation V is simultaneously unitary and skew-symmetric, which
is the structural fact everything downstream relies on; odd N is rejected.
This module holds V, the singlet and the cached :func:`coupled_system`; the
spin matrices, the dense swap and the total-spin projectors are references
in :mod:`closedform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DimensionError, _is_integer, as_complex_matrix, dagger


def _require_even(n: int, minimum: int = 2) -> int:
    """``n`` as a Python int if it is an even integer >= ``minimum`` (a numpy integer too, not a bool)."""
    if not _is_integer(n) or n < minimum or n % 2 != 0:
        raise DimensionError(f"local dimension must be even and >= {minimum}, got {n!r}")
    return int(n)


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


def _swap_index(n: int) -> np.ndarray:
    """Column (i % n) n + i // n of the single 1 in row i of the swap F (a n + b -> b n + a)."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def singlet_vector(n: int) -> np.ndarray:
    """Unit vector of the total-spin-0 (maximally entangled) state.

    Angular-momentum coupling gives the J=0 combination
    |psi0> = n^(-1/2) sum_m (-1)^(j-m) |j,m> otimes |j,-m>, the entries of V^T / sqrt(n).
    """
    n = _require_even(n, minimum=4)
    return time_reversal_unitary(n).T.ravel() / np.sqrt(n)


@dataclass(frozen=True, eq=False)
class CoupledSpinSystem:
    """Precomputed fixed structure of C^N otimes C^N for one even N >= 4.

    Fields: ``n`` (one spin j = (n-1)/2), time-reversal rotation ``v`` (n x n), ``singlet``.
    No n^2 x n^2 array is kept: the swap F is applied by index
    (reference :func:`closedform.swap_operator`).
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
