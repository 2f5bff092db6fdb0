"""Complex linear algebra kernel: operand gates, trace norms and label sectors.

The operand gates for raw arrays, and one kernel per quantity for the
Hermiticity test and the trace norm.  The kernels take each matrix as a
list of its diagonal blocks, and a dense matrix is a member with one
block.  A matrix whose entries vanish exactly between different index
labels (the J_z sectors of the family, Werner and isotropic states) is
read by :class:`_Sectors` as 2N - 1 blocks of size <= N instead of one
N^2 x N^2 block, O(N^4) work instead of O(N^6): read at its positions
from a stored matrix, or from the entries of a state that has no stored matrix.
Robustness is preferred over speed throughout: Hermitian eigensolves
instead of generic SVD for each member that allows it, defensive shape checks.
There is no tensor-product, partial-trace or spectrum helper: callers use
numpy directly, on arrays that are already gated.
"""

from __future__ import annotations

import numpy as np

# No real or imaginary part of a gated entry reaches this bound, so every entry has modulus
# below 2^990.5.  A trace norm of a d x d matrix is at most d^2 times its largest entry modulus,
# and d <= 2^16 in practice (a complex d x d array with d = 2^16 takes 64 GiB), so every trace
# norm, witness row sum and symmetrised pair rho + rho^dag stays below 2^1023.
_ENTRY_LIMIT = 2.0 ** 990


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
    """``m`` as complex128 of ``ndim`` and ``shape``, finite and below :data:`_ENTRY_LIMIT`.

    The array is C-contiguous, a copy only if the input is not.  One ``max``
    and one ``min`` over its float64 view test both bounds; NaN/Inf fails
    them too, so only then is ``isfinite`` run, and NaN/Inf is reported first.
    """
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != ndim:
        what = "a matrix" if ndim == 2 else "a stack of matrices"
        raise DimensionError(f"expected {what}, got array of ndim {a.ndim}")
    _check_shape(a, shape)
    parts = a.reshape(-1).view(np.float64)
    if not (parts.max(initial=0.0) < _ENTRY_LIMIT and parts.min(initial=0.0) > -_ENTRY_LIMIT):
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains NaN or Inf entries")
        raise ValueError("matrix has a real or imaginary part of magnitude 2^990 or more")
    return a


def as_complex_matrix(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a 2-d complex128 array of exact ``shape`` (if given), rejecting NaN/Inf and range.

    The operand gate for raw arrays, which each public function applies once;
    :func:`states.as_matrix` passes validated states without this scan.
    """
    return _as_complex(m, 2, shape)


def as_complex_stack(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a (B, rows, cols) complex128 stack of ``shape`` matrices, rejecting bad entries.

    The operand gate of :func:`as_complex_matrix` for B matrices at once.
    """
    return _as_complex(m, 3, shape)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_test(blocks) -> np.ndarray:
    """||M - M^dag||_max of each member M given by its ``blocks``, the one Hermiticity number.

    A state record holds each member with a nonzero error as its Hermitian
    part and keeps the error for the density check
    (:class:`states._States`); :func:`trace_norms` eigensolves each member
    whose error is 0.  M - M^dag is formed one block array at a time, in
    one array the size of the block array, and its moduli only if some
    entry is nonzero.
    """
    err = np.zeros(len(blocks[0]))
    for b in blocks:
        d = np.conjugate(b.swapaxes(-1, -2), order="C")
        np.subtract(b, d, out=d)
        if d.any():
            err = np.maximum(err, np.abs(d).reshape(len(b), -1).max(axis=1))
    return err


def trace_norms(blocks, hermitian=None) -> np.ndarray:
    """Sums of singular values of finite complex or real matrices, one per member.

    A member M is given by its diagonal blocks: ``blocks`` is a list of (S, nb, k, k) arrays,
    nb blocks of size k for each of the S members, so the singular values of M are those of its
    blocks.  A whole (S, d, d) stack is the one-block list ``[stack[:, None]]``, a view; the
    sector-diagonal matrices of :class:`_Sectors` give one array per block size.  A member takes
    Hermitian eigensolves (the sum of absolute eigenvalues) if ``hermitian`` marks it, else SVDs.
    The caller may mark the members it knows to equal their adjoint in value, one bool each or
    one for all, as for T_2 of a held state (:func:`criteria._functionals`); else each member of
    :func:`_hermitian_test` error 0 is marked.  The members of one route go to LAPACK as given,
    one stacked call per block size; only a mixed stack is split by route, so a member's norm
    never depends on its stack mates.  Real blocks take LAPACK's real kernels (dsyevd, dgesdd),
    about half the cost of the complex ones.  Both kinds keep absolute accuracy of order
    eps * ||M|| even for singular values at zero; squaring the matrix first (eigensolve of
    M^dag M) would halve the attainable precision there, which the rank-deficient realignment
    checks cannot afford.  Nothing is scanned for NaN/Inf or range: the matrices come from a
    validated state stack or one that went through :func:`as_complex_stack`, or are built from
    such entries within the bound of :data:`_ENTRY_LIMIT`.
    """
    for b in blocks:
        if b.ndim != 4 or b.shape[2] != b.shape[3]:
            raise DimensionError(f"trace norm needs (S, nb, k, k) blocks, got shape {b.shape}")
    if len({len(b) for b in blocks}) != 1:
        raise DimensionError("trace norm needs block arrays of one member count, got counts "
                             f"{[len(b) for b in blocks]}")
    hermitian = np.broadcast_to(_hermitian_test(blocks) == 0 if hermitian is None else hermitian,
                                len(blocks[0]))
    norms = np.empty(len(hermitian))
    for route, kernel in ((hermitian, np.linalg.eigvalsh),
                          (~hermitian, lambda b: np.linalg.svd(b, compute_uv=False))):
        if route.any():
            spectra = [kernel(b if route.all() else b[route]) for b in blocks]  # (S, nb, k) each
            norms[route] = np.abs(np.hstack([s.reshape(len(s), -1) for s in spectra])).sum(axis=-1)
    return norms


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of each matrix, a new array."""
    return (m + dagger(m)) / 2


class _Sectors:
    """The diagonal blocks of d x d matrices M that vanish between different labels.

    ``labels[i]`` is an integer label of composite index i.  M is
    sector-diagonal when M[i, j] is exactly zero wherever labels[i] !=
    labels[j]; its eigenvalues and singular values are then those of its
    diagonal blocks, one per label value.  M is read from a stored matrix:
    ``source(rows, cols)`` returns the flat positions of M[rows, cols] in
    it, so an index permutation of the stored matrix is gathered block by
    block and never built whole.  ``positions`` lists the flat positions of
    all blocks, the blocks of one size k together as (nb, k, k), so a
    spectrum takes one LAPACK call per block size.  They are uint32 while
    the largest fits, as it does for the J_z sectors of a state up to
    N = 256 (N^4 - 1 < 2^32), and int64 beyond.
    """

    def __init__(self, labels: np.ndarray, source):
        # the indices of each label value, in label order
        sectors = [np.flatnonzero(labels == v) for v in range(labels.min(), labels.max() + 1)]
        sectors = [idx for idx in sectors if len(idx)]
        takes = []
        for k in sorted({len(idx) for idx in sectors}):
            idx = np.array([i for i in sectors if len(i) == k])  # (nb, k)
            takes.append(source(idx[:, :, None], idx[:, None, :]))
        self.shapes = [take.shape for take in takes]
        dtype = np.uint32 if max(take.max() for take in takes) < 2 ** 32 else np.int64
        self.positions = np.concatenate([take.ravel() for take in takes], dtype=dtype,
                                        casting="unsafe")

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """The (S, nb, k, k) block arrays, as views, of (S, len(positions)) entries read at ``positions``."""
        out, start = [], 0
        for shape in self.shapes:
            size = shape[0] * shape[1] * shape[2]
            out.append(values[:, start:start + size].reshape(len(values), *shape))
            start += size
        return out
