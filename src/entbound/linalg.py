"""Dense complex linear algebra kernel.

The operand gates for raw arrays, the stacked trace norm and the Hermitian
spectrum.  Robustness is preferred over speed throughout: Hermitian
eigensolves instead of generic SVD where the input allows, defensive shape
checks.  Tensor products and partial traces are plain ``np.kron`` and
``einsum`` calls where they are needed, on arrays that are already gated.
"""

from __future__ import annotations

import numpy as np

# ||M - M^dag|| below this (relative) means M is treated as Hermitian.
_HERMITIAN_DETECT_TOL = 1e-12


class DimensionError(ValueError):
    """Operand shape is incompatible with the requested operation."""


def _check_shape(a: np.ndarray, shape: tuple[int, int] | None) -> np.ndarray:
    """Return ``a`` if ``shape`` is None or the shape of its matrices, else raise DimensionError."""
    if shape is not None and a.shape[-2:] != shape:
        raise DimensionError(f"operator must be {shape[0]}x{shape[1]}, got {a.shape[-2:]}")
    return a


def _as_complex(m, ndim: int, shape: tuple[int, int] | None) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != ndim:
        what = "a matrix" if ndim == 2 else "a stack of matrices"
        raise DimensionError(f"expected {what}, got array of ndim {a.ndim}")
    _check_shape(a, shape)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_complex_matrix(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a 2-d complex128 array of exact ``shape`` (if given), rejecting NaN/Inf.

    The operand gate for raw arrays, which each public function applies once;
    :func:`states.as_matrix` passes validated states without this scan.
    """
    return _as_complex(m, 2, shape)


def as_complex_stack(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a (B, rows, cols) complex128 stack of ``shape`` matrices, rejecting NaN/Inf.

    The operand gate of :func:`as_complex_matrix` for B matrices at once.
    """
    return _as_complex(m, 3, shape)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_mask(stack: np.ndarray, tol: float = _HERMITIAN_DETECT_TOL) -> np.ndarray:
    """Is ||M - M^dag||_max <= tol * max(1, ||M||_max)?  For a matrix or each matrix of a stack."""
    scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1), initial=0.0))
    return np.abs(stack - dagger(stack)).max(axis=(-2, -1), initial=0.0) <= tol * scale


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Sums of singular values of a finite complex (B, d, d) stack, one per matrix.

    The (numerically) Hermitian members go through one stacked Hermitian
    eigensolve (the sum of absolute eigenvalues), the rest through one
    stacked SVD.  Both keep absolute accuracy of order eps * ||M|| even for
    singular values at zero; squaring the matrix first (eigensolve of
    M^dag M) would halve the attainable precision there, which the
    rank-deficient realignment checks cannot afford.  Each member gets the
    bits that the same kernel gives it alone.  The stack is not scanned for
    NaN/Inf: it is a validated state stack or went through
    :func:`as_complex_stack`.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"trace norm needs a (B, d, d) stack, got shape {stack.shape}")
    herm = hermitian_mask(stack)
    if herm.all():
        return _hermitian_norms(stack)
    if not herm.any():
        return _svd_norms(stack)
    out = np.empty(len(stack))
    out[herm] = _hermitian_norms(stack[herm])
    out[~herm] = _svd_norms(stack[~herm])
    return out


def _hermitian_norms(stack: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh((stack + dagger(stack)) / 2)).sum(axis=-1)


def _svd_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix: the B = 1 case of :func:`trace_norms`."""
    return float(trace_norms(as_complex_matrix(m)[None])[0])


def hermitian_spectrum(m):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises ValueError if the input fails the Hermiticity check at relative
    tolerance 1e-10.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"spectrum needs a square matrix, got {a.shape}")
    if not hermitian_mask(a, tol=1e-10):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh((a + dagger(a)) / 2)
    return w, q
