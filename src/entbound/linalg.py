"""Dense complex linear algebra kernel.

The operand gates for raw arrays and the stacked trace norm.  Robustness
is preferred over speed throughout: Hermitian eigensolves instead of
generic SVD where the input allows, defensive shape checks.  There is no
tensor-product, partial-trace or spectrum helper: callers use numpy
directly, on arrays that are already gated.
"""

from __future__ import annotations

import numpy as np


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


def hermitian_mask(stack: np.ndarray) -> np.ndarray:
    """Is ||M - M^dag||_max <= 1e-12 * max(1, ||M||_max), for a matrix or each of a stack?"""
    scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1), initial=0.0))
    return np.abs(stack - dagger(stack)).max(axis=(-2, -1), initial=0.0) <= 1e-12 * scale


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

