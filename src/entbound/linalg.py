"""Dense complex linear algebra kernel.

Everything in here operates on dense matrices of at most MAX_KRON_DIM =
4096 rows (N^2 for the largest N the command line accepts).  Robustness is
preferred over speed throughout: Hermitian eigensolves instead of generic
SVD, explicit clamping of rounding noise, defensive shape checks.
"""

from __future__ import annotations

import numpy as np

# Tensor products beyond this edge length are refused (kron of two 64x64
# operators is already a 4096x4096 matrix; anything bigger is a usage bug).
MAX_KRON_DIM = 4096

# ||M - M^dag|| below this (relative) means M is treated as Hermitian.
_HERMITIAN_DETECT_TOL = 1e-12


class DimensionError(ValueError):
    """Operand shape is incompatible with the requested operation."""


def _check_shape(a: np.ndarray, shape: tuple[int, int] | None) -> np.ndarray:
    """Return ``a`` if ``shape`` is None or its exact shape, else raise DimensionError."""
    if shape is not None and a.shape != shape:
        raise DimensionError(f"operator must be {shape[0]}x{shape[1]}, got {a.shape}")
    return a


def as_complex_matrix(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a 2-d complex128 array of exact ``shape`` (if given), rejecting NaN/Inf.

    The operand gate for raw arrays, which each public function applies once;
    :func:`states.as_matrix` passes validated states without this scan.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {a.ndim}")
    _check_shape(a, shape)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = _HERMITIAN_DETECT_TOL) -> bool:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    return float(np.abs(m - dagger(m)).max(initial=0.0)) <= tol * scale


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix.

    For (numerically) Hermitian input this is the sum of absolute
    eigenvalues, computed directly from the Hermitian eigensolve.  Other
    input goes through a full SVD.  Both paths keep absolute accuracy of
    order eps * ||M|| even for singular values at zero; squaring the matrix
    first (eigensolve of M^dag M) would halve the attainable precision
    there, which the rank-deficient realignment checks cannot afford.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace norm needs a square matrix, got {a.shape}")
    if is_hermitian(a):
        return float(np.abs(np.linalg.eigvalsh((a + dagger(a)) / 2)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def kron(a, b) -> np.ndarray:
    """Tensor product with subsystem-1-major index convention.

    (A otimes B)[(i*rB + k), (j*cB + l)] = A[i, j] * B[k, l].
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape[0] * bm.shape[0] > MAX_KRON_DIM or am.shape[1] * bm.shape[1] > MAX_KRON_DIM:
        raise ValueError(
            f"tensor product of {am.shape} and {bm.shape} exceeds the "
            f"configured maximum edge length {MAX_KRON_DIM}"
        )
    return np.kron(am, bm)


def partial_trace(m, local_dim: int, subsystem: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^d otimes C^d.

    ``subsystem`` names the factor that is traced over (1 or 2); the result
    is the local_dim x local_dim reduced operator of the other factor.
    """
    d = int(local_dim)
    if d <= 0:
        raise DimensionError(f"local dimension must be positive, got {d}")
    r = as_complex_matrix(m, (d * d, d * d)).reshape(d, d, d, d)
    if subsystem == 2:
        return np.einsum("ikjk->ij", r)
    if subsystem == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")


def hermitian_spectrum(m):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises ValueError if the input fails the Hermiticity check at relative
    tolerance 1e-10.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got {a.shape}")
    if not is_hermitian(a, tol=1e-10):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh((a + dagger(a)) / 2)
    return w, q
