"""Bipartite states: constructors, Schmidt analysis, samplers, file I/O.

Density matrices and pure states are stored with the subsystem-1-major
composite index (a, b) -> a*N + b and the descending-m local basis, matching
the JSON state-file format exactly:

    {"n_local": N, "matrix": [[[re, im], ...], ...]}   (N^2 x N^2 rows)
    {"n_local": N, "vector": [[re, im], ...]}          (length N^2)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, count

import numpy as np

from .linalg import (DimensionError, _check_shape, _hermitian_part, _hermitian_test, _is_integer,
                     _Sectors, as_complex_matrix, as_complex_stack, dagger)
from .spinspace import CoupledSpinSystem

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_CERT_MARGIN = 1e-11  # delta of the Cholesky certificate in _eig_failed
_ENTRY_CHUNK = 2 ** 18  # entries of a J_z block state computed at a time
# the start of a matrix file as save_state writes it, which load_state reads a row at a time
_MATRIX_HEAD = re.compile(r'\{"n_local": ([1-9][0-9]*), "matrix": \[')

# the density checks in the order each state runs them, with their messages
_DENSITY_CHECKS = ("density matrix is not Hermitian within 1e-10",
                   "density matrix trace differs from 1 beyond 1e-10",
                   "density matrix has an eigenvalue below -1e-10")


def _check_n_local(n) -> int:
    """``n`` as a Python int if it is an integer >= 1 (a numpy integer too, not a bool)."""
    if not _is_integer(n) or n < 1:
        raise DimensionError(f"n_local must be an integer >= 1, got {n!r}")
    return int(n)


def _check_finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector contains NaN or Inf entries")
    return v


@lru_cache(maxsize=None)
def _density_sectors(n: int) -> _Sectors:
    """The J_z sectors of a state: composite index (a, b) carries the label a + b."""
    a, b = np.divmod(np.arange(n * n), n)
    return _Sectors(a + b, lambda i, j: i * (n * n) + j)


def _is_sector_stack(stack: np.ndarray, n: int) -> bool:
    """Do all matrices of a (B, N^2, N^2) stack vanish exactly between different J_z sectors?

    The sector decision for arrays from outside the package (state files,
    raw stacks), made once per stack when its :class:`_States` record is
    built; entry-built states are sector states by construction.  Entry
    (0, N^2 - 1), between the first and the last sector, rejects a generic
    dense matrix at once; otherwise the stack is accepted only if every
    nonzero real and imaginary part lies inside the sectors.
    """
    flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
    if flat[:, n * n - 1].any():
        return False
    inside = flat.take(_density_sectors(n).positions, axis=1).view(np.float64)
    return bool(np.count_nonzero(flat.view(np.float64)) == np.count_nonzero(inside))


class _States:
    """S states on C^N otimes C^N and the decisions made about them, once per stack.

    A stack is held as ``array``; the family, Werner and isotropic states
    as ``entries``, a picklable function that returns rho.flat[idx] of each
    state, and no N^2 x N^2 array is built.  ``shape`` is that of the
    (S, N^2, N^2) stack they stand for.  ``sector`` says that every state
    vanishes exactly between different J_z sectors, so that rho, T_2 rho and
    R rho are read as blocks at the ``positions`` of a :class:`linalg._Sectors`.

    Every state is held exactly Hermitian, so the criteria take one route
    each.  A gated stack is decided here, without the density checks: each
    member with ``err`` = ||rho - rho^dag||_max > 0 is held as its Hermitian
    part (rho + rho^dag) / 2, whatever its error, in a new array; a member
    with err 0 is held as given.  So a member's held matrix depends on that
    member alone.  ``err`` stays the error of the input, which only the
    Hermiticity test of :func:`_validate` reads.  The sector scan
    :func:`_is_sector_stack` then reads the held stack.  Entry-built states
    are sector states by construction; :func:`_sector_states` requires
    their J_z blocks, the only entries they have, to be exactly Hermitian.
    """

    __slots__ = ("n", "shape", "array", "entries", "sector", "err")

    def __init__(self, n: int, size: int, array: np.ndarray | None = None, entries=None):
        self.n, self.shape, self.array, self.entries = n, (size, n * n, n * n), array, entries
        if array is None:
            self.sector = True
        else:
            self.err = _hermitian_test([array[:, None]])
            if self.err.any():
                exact = self.err == 0
                self.array = _hermitian_part(array)
                self.array[exact] = array[exact]
            self.sector = _is_sector_stack(self.array, n)

    def __len__(self) -> int:
        return self.shape[0]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """rho.flat[idx] of each state, a C-ordered (S, len(idx)) array, for a 1-d ``idx``."""
        if self.array is not None:
            # np.take is C-ordered; flat[:, idx] is not, and its row sums differ with S
            return self.array.reshape(len(self), self.shape[1] * self.shape[2]).take(idx, axis=1)
        out = np.empty((len(self), len(idx)), dtype=np.complex128)
        for start in range(0, len(idx), _ENTRY_CHUNK):  # the temporaries of entries stay small
            out[:, start:start + _ENTRY_CHUNK] = self.entries(idx[start:start + _ENTRY_CHUNK])
        return out

    def blocks(self, sectors: _Sectors) -> list[np.ndarray]:
        """The (S, nb, k, k) block arrays that ``sectors`` reads from each rho of a sector stack."""
        return sectors.split(self.take(sectors.positions))

    def matrices(self) -> np.ndarray:
        """The held (S, N^2, N^2) stack; of entry-built states, built read-only from the sectors."""
        if self.array is not None:
            return self.array
        inside = _density_sectors(self.n).positions
        m = np.zeros(self.shape, dtype=np.complex128)
        m.reshape(len(self), self.shape[1] * self.shape[2])[:, inside] = self.take(inside)
        m.setflags(write=False)
        return m


def _check_densities(stack, n: int) -> _States:
    """Run the density checks on each matrix of a (B, N^2, N^2) stack; return its decided record.

    The NaN/Inf and range gate of :func:`linalg.as_complex_stack`, the record's
    decisions, then :func:`_validate` with the traces of the matrices as
    given.  The stack the record holds is made read-only.
    """
    a = as_complex_stack(stack, (n * n, n * n))
    states = _validate(_States(n, len(a), array=a), np.trace(a, axis1=1, axis2=2))
    states.array.setflags(write=False)
    return states


def _validate(states: _States, tr: np.ndarray, blocks: list | None = None) -> _States:
    """The Hermiticity, trace and smallest-eigenvalue tests of a decided record with traces ``tr``.

    The Hermiticity test reads the record's ``err``, that of the input.
    The eigenvalue test, a Cholesky certificate (:func:`_eig_failed`),
    factors one block list of the held, exactly Hermitian states: the J_z
    ``blocks`` of a sector record (gathered here unless given), else each
    whole matrix as one block.  The first failing state raises the message
    of its first failing check, as if checked one after another.
    """
    if blocks is None:
        blocks = states.blocks(_density_sectors(states.n)) if states.sector \
            else [states.array[:, None]]
    failed = np.zeros((len(_DENSITY_CHECKS), len(states)), dtype=bool)
    failed[0] = states.err > _HERM_TOL
    failed[1] = (np.abs(tr.real - 1.0) > _TRACE_TOL) | (np.abs(tr.imag) > _TRACE_TOL)
    failed[2] = reduce(np.logical_or, [_eig_failed(b).any(axis=1) for b in blocks])
    if failed.any():
        first = failed.any(axis=0).argmax()
        raise ValueError(_DENSITY_CHECKS[failed[:, first].argmax()])
    return states


def _eig_failed(m: np.ndarray) -> np.ndarray:
    """Has each block of a Hermitian (S, nb, k, k) array an eigenvalue below -1e-10?

    A Cholesky certificate decides the common case without an eigensolve.
    With delta = 1e-11, one stacked factorization of m + (1e-10 - delta) I
    succeeds only if every smallest eigenvalue of m exceeds -1e-10 + delta
    less the backward error of the factorization, of order k * eps * ||m||
    (about 1e-12 for a trace-1 matrix with k <= 4096).  So a success means
    no matrix fails, and it never passes a matrix that the eigensolve
    rejects.  numpy raises for the whole stack if one factorization fails;
    then the stacked eigensolve of m decides as it would alone.  The shift
    goes into the diagonal of m itself (a read-only m is copied first) and
    is undone by writing the saved diagonal back, bit for bit: for B = 1
    the check peaks at three d x d arrays, m, numpy's factor and its
    per-matrix work copy.  Every entry of m lies below the gate's bound
    (:data:`linalg._ENTRY_LIMIT`); a factorization that overflows fails, by
    numpy's error or by a factor whose diagonal is not finite, and the
    eigensolve scales its input.
    """
    if not m.flags.writeable:
        m = m.copy()
    i = np.arange(m.shape[-1])
    diagonal = m[..., i, i]
    m[..., i, i] += _EIG_TOL - _CERT_MARGIN
    try:  # OpenBLAS passes the NaN pivot of an overflowing complex |l|^2, so the diagonal is read
        if np.isfinite(np.linalg.cholesky(m).diagonal(0, -2, -1)).all():
            return np.zeros(m.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    finally:
        m[..., i, i] = diagonal  # the eigensolve reads m unshifted
    return np.linalg.eigvalsh(m)[..., 0] < -_EIG_TOL


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix:
    """Validated bipartite density matrix on C^N otimes C^N.

    ``matrix`` is a read-only complex128 copy of the input, made before it is
    validated, so the caller cannot change a validated state through its own
    array and :func:`as_matrix` hands it on without a rescan; an input with
    0 < ||m - m^dag||_max <= 1e-10 has ``matrix`` (m + m^dag) / 2 instead.  The
    constructors of this module wrap the record of an array they built and
    validated (:func:`_from_record`), without the copy.  Validation is the
    B = 1 case of the stacked check that :func:`random_densities` runs: the
    NaN/Inf, range, Hermiticity and trace tests, then a Cholesky
    factorization of the Hermitian part shifted by 1e-10 - 1e-11 that
    certifies no eigenvalue lies below -1e-10.
    Only if it fails does an eigensolve decide.  The state keeps the
    one-state :class:`_States` record of its check, and ``matrix`` is a view
    of its stack, so the criteria reuse its decisions.  The record of a family,
    Werner or isotropic state holds its entries instead, and ``matrix`` is
    built, read-only, when it is first read (:func:`dataclasses.replace`
    reads it, and gives a state checked as a dense one).
    """

    n_local: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_n_local(self.n_local)
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2:
            raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
        self.__setstate__({"n_local": n, "_states": _check_densities(m[None], n)})

    def __getattr__(self, name):  # the matrix of a state whose record holds its entries
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = vars(self)["matrix"] = self._states.matrices()[0]
        return m

    def __repr__(self) -> str:  # the matrix is not built to be shown
        matrix = "<its J_z blocks>" if self._states.array is None else repr(self.matrix)
        return f"DensityMatrix(n_local={self.n_local}, matrix={matrix})"

    def __getstate__(self):  # matrix is a view of the record's stack, or built from its entries
        return {"n_local": self.n_local, "_states": self._states}

    def __setstate__(self, state):
        vars(self).update(state)
        if self._states.array is not None:
            self._states.array.setflags(write=False)
            vars(self)["matrix"] = self._states.array[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Validated bipartite pure state vector of length N^2."""

    n_local: int
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.complex128)
        n = _check_n_local(self.n_local)
        if v.shape != (n * n,):
            raise DimensionError(f"state vector must have length {n * n}, got {v.shape}")
        _check_finite(v)
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
            raise ValueError("state vector is not normalized within 1e-12")
        object.__setattr__(self, "n_local", n)
        object.__setattr__(self, "vector", v)

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are nonincreasing and square-sum to 1; column i of
    ``basis_1``/``basis_2`` is the i-th local Schmidt vector.
    """

    coefficients: np.ndarray
    basis_1: np.ndarray
    basis_2: np.ndarray


def as_matrix(rho, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The operand gate for states: the matrix of a DensityMatrix, PureState or array.

    A DensityMatrix (its read-only matrix) and a PureState (its projector) were
    validated on construction, so only ``shape`` is checked; anything else goes
    through :func:`linalg.as_complex_matrix`.
    """
    if isinstance(rho, DensityMatrix):
        return _check_shape(rho.matrix, shape)
    if isinstance(rho, PureState):
        return _check_shape(rho.projector(), shape)
    return as_complex_matrix(rho, shape)


def _sector_states(n: int, size: int, entries) -> _States:
    """The ``size`` states whose rho.flat[idx] are the rows of ``entries(idx)``, validated as one stack.

    Their J_z blocks are all the entries they have.  A record of entries
    cannot be held as its Hermitian part, so the blocks must be exactly
    Hermitian, as those of the family, Werner and isotropic states are;
    :func:`_validate` then tests them, with the traces summed from the
    diagonal entries.
    """
    states = _States(n, size, entries=entries)
    blocks = states.blocks(_density_sectors(n))
    states.err = _hermitian_test(blocks)
    if states.err.any():
        raise ValueError("state entries are not Hermitian bit for bit")
    n2 = n * n
    return _validate(states, states.take(np.arange(n2) * (n2 + 1)).sum(axis=-1), blocks)


def _from_record(states: _States) -> DensityMatrix:
    """The DensityMatrix of a validated one-state record: ``matrix`` is a view or built when read."""
    rho = object.__new__(DensityMatrix)
    rho.__setstate__({"n_local": states.n, "_states": states})
    return rho


def _as_states(rho, n: int) -> _States:
    """A state as a record of one for the criteria: a DensityMatrix's own, else a gated matrix's."""
    if isinstance(rho, DensityMatrix):
        return _check_shape(rho._states, (n * n, n * n))
    return _States(n, 1, array=as_matrix(rho, (n * n, n * n))[None])


# The entries of the structured states at flat positions idx: the arithmetic
# of the dense N^2 x N^2 constructions, entry by entry, so they are bit-equal.

def _singlet_entries(sys: CoupledSpinSystem, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """P_0[i, j], as np.outer(singlet, singlet.conj()) has it."""
    return sys.singlet[i] * sys.singlet.conj()[j]


def _werner_part(sys: CoupledSpinSystem, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """2 / (N (N + 1)) * ((I + F) / 2)[i, j], with I + F as a float."""
    n = sys.n
    a, b = np.divmod(i, n)
    return 2 / (n * (n + 1)) * (np.add(i == j, j == b * n + a, dtype=float) / 2)


def _isotropic_part(sys: CoupledSpinSystem, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """((I - P_0) / (N^2 - 1))[i, j]."""
    return ((i == j) - _singlet_entries(sys, i, j)) / (sys.n ** 2 - 1)


def _mixture_entries(sys: CoupledSpinSystem, part, weights, idx: np.ndarray) -> np.ndarray:
    """w P_0 + (1 - w) part at flat positions idx, one row per w of an (S, 1) ``weights`` column."""
    i, j = np.divmod(idx, sys.n ** 2)
    return weights * _singlet_entries(sys, i, j) + (1 - weights) * part(sys, i, j)


def _mixture_stacks(sys: CoupledSpinSystem, weights, part=_werner_part, name="mixing parameter"):
    """The states w P_0 + (1 - w) part at each weight w in [0, 1], as validated stacks in order.

    A stack holds max(1, _ENTRY_CHUNK // b) states, b the J_z block entries
    of one state, so its block arrays stay near _ENTRY_CHUNK entries: 95
    states at N = 16, 11 at N = 32, one from N = 64 up.  The weights are
    checked at once; each stack is built and validated when it is drawn,
    and each state gets the bits it gets alone.
    """
    for w in weights:
        if not 0 <= w <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {w}")
    size = max(1, _ENTRY_CHUNK // len(_density_sectors(sys.n).positions))
    columns = (np.array(weights[k:k + size], dtype=float)[:, None]
               for k in range(0, len(weights), size))
    return (_sector_states(sys.n, len(c), partial(_mixture_entries, sys, part, c)) for c in columns)


def werner_state(sys: CoupledSpinSystem) -> DensityMatrix:
    """Normalized projector onto the swap-symmetric subspace: the family state at lam = 0.

    Equals the sum of the odd-J total-spin projectors; separable, invariant
    under all U otimes U, undetected by every criterion in this package.
    """
    return family_state(sys, 0.0)


def family_state(sys: CoupledSpinSystem, lam: float) -> DensityMatrix:
    """Mixture  lam * P_singlet + (1 - lam) * werner  for lam in [0, 1].

    Every lam > 0 is entangled; for lam <= 1/(N+2) the state stays PPT, so
    only the witness detects it there.
    """
    return _from_record(next(_mixture_stacks(sys, (lam,))))


def isotropic_state(sys: CoupledSpinSystem, fidelity: float) -> DensityMatrix:
    """Isotropic state of given fidelity with the singlet.

    rho_f = f P_0 + (1-f) (I - P_0) / (N^2 - 1).  The singlet is used as the
    maximally entangled reference state; any other choice is related by a
    product unitary.  Separable exactly for f <= 1/N.
    """
    return _from_record(next(_mixture_stacks(sys, (fidelity,), _isotropic_part, "fidelity")))


def random_pure(sys: CoupledSpinSystem, seed) -> PureState:
    """Haar-random global pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(seed)
    n2 = sys.n * sys.n
    v = rng.normal(size=n2) + 1j * rng.normal(size=n2)
    return PureState(n_local=sys.n, vector=v / np.linalg.norm(v))


def _sample_densities(sys: CoupledSpinSystem, rank: int, seeds) -> np.ndarray:
    """Unvalidated stack of G G^dag / tr, one complex Gaussian N^2 x rank factor G per seed.

    G = X + 1j Y with X, Y standard normal: each seed's stream fills one
    (2, N^2, rank) slot of a buffer for the whole stack, X first, as two
    ``normal`` draws would.  ``normal`` returns 0.0 + 1.0 z for the
    standard normal z, which differs from z only for z = -0.0, so the
    buffer gets one += 0.0.  The complex stack is then built once, with
    the arithmetic of X + 1j * Y, and normalized in place.
    """
    n2 = sys.n * sys.n
    if not _is_integer(rank):
        raise TypeError(f"rank must be an integer, got {rank!r}")
    if not 1 <= rank <= n2:
        raise ValueError(f"rank must lie in [1, {n2}], got {rank}")
    draws = np.empty((len(seeds), 2, n2, rank))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=draws[k])
    draws += 0.0
    g = np.multiply(1j, draws[:, 1])
    g += draws[:, 0]
    del draws
    m = g @ dagger(g)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return m


def random_densities(sys: CoupledSpinSystem, rank: int, seeds) -> np.ndarray:
    """Validated read-only stack of random density matrices, one per seed.

    Matrix k is bit-equal to ``random_density(sys, rank, seeds[k]).matrix``.
    """
    return _check_densities(_sample_densities(sys, rank, seeds), sys.n).array


def random_density(sys: CoupledSpinSystem, rank: int, seed) -> DensityMatrix:
    """Random density matrix G G^dag / tr from a complex Gaussian N^2 x rank factor."""
    return _from_record(_check_densities(_sample_densities(sys, rank, [seed]), sys.n))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase-fixed diagonal."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def schmidt_decompose(psi) -> SchmidtForm:
    """Schmidt decomposition of a bipartite pure state.

    The vector is reshaped to its N x N coefficient matrix under the
    composite index convention and singular-value decomposed; the singular
    values are the Schmidt coefficients (nonincreasing).  Degenerate
    coefficients leave the bases non-unique, so compare reconstructions,
    never basis columns.  Only a PureState or a 1-D array is read: a matrix
    is never flattened into a vector.
    """
    if isinstance(psi, PureState):
        v = psi.vector
    else:
        v = np.asarray(psi, dtype=np.complex128)
        if v.ndim != 1:
            raise DimensionError(f"expected a state vector, got array of shape {v.shape}")
        _check_finite(v)
    norm = float(np.linalg.norm(v))
    if norm < 1e-13:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    v = v / norm
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionError(f"vector length {v.size} is not a perfect square")
    c = v.reshape(n, n)
    u, s, vh = np.linalg.svd(c)
    # psi = sum_i s_i u[:,i] otimes vh[i,:]  (no conjugation on the rows)
    return SchmidtForm(coefficients=s, basis_1=u, basis_2=vh.T)


def concurrence_pure(psi) -> float:
    """Pure-state concurrence sqrt(2 (1 - sum_i alpha_i^4)).

    With p = alpha^2 and sum p = 1, 1 - sum p^2 = 2 sum_{i<j} p_i p_j, so
    C = 2 sqrt(sum_{i<j} p_i p_j), a sum of nonnegative terms that does not
    cancel near a product state.
    """
    p = schmidt_decompose(psi).coefficients ** 2
    return float(2 * np.sqrt(p[1:] @ np.cumsum(p)[:-1]))


def eof_pure(psi) -> float:
    """Pure-state entanglement of formation: Shannon entropy of the Schmidt weights.

    Base-2 logarithm, with the continuity convention 0 log 0 = 0.
    """
    p = schmidt_decompose(psi).coefficients ** 2
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def save_state(path, state) -> None:
    """Write a DensityMatrix or PureState as JSON ([re, im] entry pairs).

    The bytes are those of ``json.dump`` of the nested pair lists, written a
    matrix row at a time, so no nested list of the whole matrix is built:
    ``{"n_local": N, "matrix": [row, row, ...]}`` with ``json.dumps`` of each
    row's pairs, the layout that :func:`load_state` reads a row at a time.
    """
    if isinstance(state, DensityMatrix):
        key = "matrix"
    elif isinstance(state, PureState):
        key = "vector"
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n_local": {json.dumps(state.n_local)}, "{key}": ')
        if key == "vector":
            fh.write(_pair_text(state.vector))
        else:
            fh.write("[")
            for i, row in enumerate(state.matrix):
                fh.write(", " + _pair_text(row) if i else _pair_text(row))
            fh.write("]")
        fh.write("}")


def _pair_text(v: np.ndarray) -> str:
    """``json.dumps`` of the [re, im] pairs of a complex vector."""
    return json.dumps(np.stack([v.real, v.imag], -1).tolist())


def load_state(path):
    """Read a DensityMatrix or PureState back from JSON (validating invariants).

    A matrix file in the layout :func:`save_state` writes is decoded a row
    at a time into the complex matrix (:func:`_matrix_rows`); any other file
    (indented, other key order or keys, a vector, anything malformed) is
    parsed whole.  Both give the same matrix, signed zeros included, and a
    file that is not a valid state raises the same exception either way.
    The file text is freed before the state is validated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = _matrix_rows(text)
    if parsed is not None:
        del text
        return _from_record(_check_densities(parsed[1][None], parsed[0]))
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("state file is nested too deeply to parse") from None
    if not isinstance(obj, dict) or "n_local" not in obj:
        raise ValueError("state file must be a JSON object with an 'n_local' key")
    numbers = _only_numbers(text, len(obj))
    del text
    n = obj["n_local"]  # checked by the state class
    if "matrix" in obj:  # popped, so validation holds the complex matrix alone
        m = _pairs(obj.pop("matrix"), 3, numbers,
                   "'matrix' must be a nested list of [re, im] pairs",
                   "matrix contains NaN or Inf entries")
        return _from_record(_check_densities(m[None], _check_n_local(n)))
    if "vector" in obj:
        v = _pairs(obj["vector"], 2, numbers, "'vector' must be a list of [re, im] pairs",
                   "state vector contains NaN or Inf entries")
        return PureState(n_local=n, vector=v)
    raise ValueError("state file must contain a 'matrix' or a 'vector' key")


def _matrix_rows(text: str):
    """``(n_local, matrix)`` of a matrix file in the layout of :func:`save_state`, else None.

    The text must be ``{"n_local": <positive int>, "matrix": [`` and then
    rows separated by ", " up to ``]}`` and optional JSON whitespace, and
    hold no string or literal but its two keys (:func:`_only_numbers`), as
    every file that :func:`save_state` writes does.  Each row is one
    ``raw_decode``, so only one row of Python lists lives at a time; its
    numbers fill one row of the preallocated complex matrix's float view,
    as :func:`_pairs` views its floats, so signed zeros hold.  The width d is that
    of the first row, and every row must hold d pairs of two numbers for d
    rows.  Anything else, and any error of the decoding, returns None, so
    the whole-file parse reports it with its own exception and message.
    """
    head = _MATRIX_HEAD.match(text)
    if head is None or not _only_numbers(text, 2):
        return None
    decode = json.JSONDecoder().raw_decode
    pos, m = head.end(), None
    try:
        n = int(head[1])
        for i in count():
            row, pos = decode(text, pos)
            if m is None:  # a d x d matrix has d^2 pairs of at least "[0,0]" in the text
                d = len(row)
                if 5 * d * d > len(text):
                    return None
                m = np.empty((d, d), dtype=np.complex128)
            if i == d or len(row) != d or set(map(len, row)) != {2}:
                return None
            m.view(np.float64)[i] = np.fromiter(chain.from_iterable(row), float, 2 * d)
            if text.startswith("]}", pos):
                break
            if not text.startswith(", ", pos):
                return None
            pos += 2
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    if i + 1 != d or text[pos + 2:].strip(" \t\n\r"):
        return None
    return n, m


def _only_numbers(text: str, keys: int) -> bool:
    """Is every value in a JSON object text with ``keys`` keys a number, or a list of them?

    True when the text holds no quote but those of the keys and no "u" or
    "s", which every true, false and null has.  False only means that the
    values must be checked one by one.
    """
    pos = -1
    for _ in range(2 * keys + 1):  # str.find, unlike str.count, scans with memchr
        pos = text.find('"', pos + 1)
        if pos < 0:
            break
    return pos < 0 and "u" not in text and "s" not in text


def _pairs(entries, ndim: int, numbers: bool, message: str, nonfinite: str) -> np.ndarray:
    """The complex array of a nested list of [re, im] pairs with ``ndim`` axes, pairs included.

    Every entry must be a JSON number.  numpy reads a string such as "0.5"
    and a boolean as numbers, so the type of each entry is checked unless
    ``numbers`` says the file holds nothing else.  An integer beyond the
    double range raises ``nonfinite``, as an infinite entry does in validation.
    """
    try:
        raw = np.asarray(entries, dtype=float)
    except OverflowError:
        raise ValueError(nonfinite) from None
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if raw.ndim != ndim or raw.shape[-1] != 2:
        raise ValueError(message)
    if not numbers:
        for _ in range(ndim - 1):  # the shape is regular: every level above the entries is a list
            entries = chain.from_iterable(entries)
        if not {int, float}.issuperset(map(type, entries)):
            raise ValueError(message)
    return raw.view(np.complex128)[..., 0]
