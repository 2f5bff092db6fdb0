"""Complex linear algebra kernel: operand gates, trace norms and label sectors.

The operand gates for raw arrays, the stacked trace norm and the sector
kernel :class:`_Sectors`.  A matrix whose entries vanish exactly between
different index labels (the J_z sectors of the family, Werner and isotropic
states) is handled through its diagonal blocks: 2N - 1 blocks of size <= N
instead of one N^2 x N^2 matrix, O(N^4) work instead of O(N^6).  Every
other matrix takes the dense kernels.  Robustness is preferred over speed
throughout: Hermitian eigensolves instead of generic SVD where the input
allows, defensive shape checks.  There is no tensor-product, partial-trace
or spectrum helper: callers use numpy directly, on arrays that are already
gated.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shape is incompatible with the requested operation."""


def _is_integer(n) -> bool:
    """Is ``n`` an integer (a numpy integer too, not a bool)?"""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


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
    return _within_hermitian_tol(_hermitian_error(stack).max(axis=(-2, -1), initial=0.0),
                                 lambda: np.abs(stack).max(axis=(-2, -1), initial=0.0))


def _within_hermitian_tol(err, absmax) -> np.ndarray:
    """err <= 1e-12 * max(1, absmax()), where absmax() is computed only if some err exceeds 1e-12."""
    ok = err <= 1e-12
    return ok if np.all(ok) else err <= 1e-12 * np.maximum(1.0, absmax())


def trace_norms(stack: np.ndarray, blocks=()) -> np.ndarray:
    """Sums of singular values of finite complex matrices, one per matrix.

    First one per matrix of the (B, d, d) ``stack``, then one per
    sector-diagonal matrix given by its diagonal ``blocks`` (the list that
    :meth:`_Sectors.blocks` gathers).  The (numerically) Hermitian members
    go through Hermitian eigensolves (the sum of absolute eigenvalues), the
    rest through SVDs: one stacked call per kind for the whole matrices, and
    one per kind and block size for the blocks.  Both keep absolute
    accuracy of order eps * ||M|| even for singular values at zero; squaring
    the matrix first (eigensolve of M^dag M) would halve the attainable
    precision there, which the rank-deficient realignment checks cannot
    afford.  Each member gets the bits that the same kernel gives it alone.
    Nothing is scanned for NaN/Inf: the matrices come from a validated
    state stack or one that went through :func:`as_complex_stack`.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"trace norm needs a (B, d, d) stack, got shape {stack.shape}")
    norms = []
    if len(stack) or not blocks:
        norms.append(np.abs(_spectra(stack, hermitian_mask(stack))).sum(axis=-1))
    if blocks:
        herm = _within_hermitian_tol(_block_max(blocks, _hermitian_error),
                                     lambda: _block_max(blocks, np.abs))  # hermitian_mask of M
        norms.append(np.abs(_block_spectra(blocks, herm)).sum(axis=-1))
    return norms[0] if len(norms) == 1 else np.concatenate(norms)


def _spectra(m: np.ndarray, herm: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of each m[k] where herm[k] holds, else singular values.

    ``m`` holds matrices along its last two axes, member k at ``m[k]``: one
    stacked eigensolve and one stacked SVD at most.
    """
    if herm.all():
        return np.linalg.eigvalsh((m + dagger(m)) / 2)
    if not herm.any():
        return np.linalg.svd(m, compute_uv=False)
    out = np.empty(m.shape[:-1])
    out[herm] = _spectra(m[herm], herm[herm])
    out[~herm] = _spectra(m[~herm], herm[~herm])
    return out


def _hermitian_error(m: np.ndarray) -> np.ndarray:
    return np.abs(m - dagger(m))


def _block_max(blocks, f) -> np.ndarray:
    """The largest entry of ``f(block)`` over all blocks of each member (max norm of f(M))."""
    return np.max([f(b).max(axis=(1, 2, 3), initial=0.0) for b in blocks], axis=0)


def _block_spectra(blocks, herm: np.ndarray) -> np.ndarray:
    """The :func:`_spectra` of each member given by its blocks, as a (S, d) array.

    The blocks of one size are one LAPACK call per kind, and each row is
    laid out in the same order whatever S is, so a row sum or minimum does
    not depend on the other members.
    """
    return np.concatenate([_spectra(b, herm).reshape(len(b), -1) for b in blocks], axis=1)


class _Sectors:
    """The diagonal blocks of d x d matrices M that vanish between different labels.

    ``labels[i]`` is an integer label of composite index i.  M is
    sector-diagonal when M[i, j] is exactly zero wherever labels[i] !=
    labels[j]; its eigenvalues and singular values are then those of its
    diagonal blocks, one per label value.  M is read from a stored (B, d, d)
    stack: ``source(rows, cols)`` returns the flat positions of M[rows, cols]
    in a stored matrix, so an index permutation of the stored matrix is
    gathered block by block and never built whole.  Blocks of one size k
    are gathered as one (S, nb, k, k) array, so a spectrum takes one LAPACK
    call per block size.
    """

    def __init__(self, labels: np.ndarray, source):
        # the indices of each label value, in label order
        sectors = [np.flatnonzero(labels == v) for v in range(labels.min(), labels.max() + 1)]
        sectors = [idx for idx in sectors if len(idx)]
        self.takes = []
        for k in sorted({len(idx) for idx in sectors}):
            idx = np.array([i for i in sectors if len(i) == k])  # (nb, k)
            self.takes.append(source(idx[:, :, None], idx[:, None, :]))
        self.inside = np.concatenate([take.ravel() for take in self.takes])
        # a stored entry between the first and the last label, nonzero in any
        # generic dense matrix (a block entry if there is only one label)
        self.probe = source(sectors[0][0], sectors[-1][0])

    def members(self, stack: np.ndarray) -> np.ndarray:
        """Which stored matrices of a (B, d, d) stack give a sector-diagonal M.

        One entry between labels rejects a dense matrix at once; the rest
        are accepted only if every nonzero real and imaginary part of the
        stored matrix lies inside the blocks.
        """
        flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
        out = flat[:, self.probe] == 0
        for k in np.flatnonzero(out):
            out[k] = np.count_nonzero(flat[k].view(np.float64)) == \
                np.count_nonzero(flat[k, self.inside].view(np.float64))
        return out

    def blocks(self, stack: np.ndarray, members: np.ndarray) -> list[np.ndarray]:
        """The blocks of M for the stored matrices ``stack[members]``: one (S, nb, k, k) array per size.

        An empty list if ``members`` is empty, so :func:`trace_norms` takes its dense kernels alone.
        """
        if not len(members):
            return []
        flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
        return [flat[members[:, None, None, None], take] for take in self.takes]
