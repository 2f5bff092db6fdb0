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
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, count

import numpy as np

from .linalg import (DimensionError, _block_max, _check_shape, _hermitian_error, _is_integer,
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


class _Owned:
    """A fresh array that only the library holds, handed to DensityMatrix without a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@lru_cache(maxsize=None)
def _density_sectors(n: int) -> _Sectors:
    """The J_z sectors of a state: composite index (a, b) carries the label a + b."""
    a, b = np.divmod(np.arange(n * n), n)
    return _Sectors(a + b, lambda i, j: i * (n * n) + j)


def _sector_members(stack: np.ndarray, n: int) -> np.ndarray:
    """Which matrices of a (B, N^2, N^2) stack vanish exactly between different J_z sectors.

    The one decision of the sector path for arrays from outside the
    package (state files, raw stacks), shared by the density check and the
    functionals; the J_z block states of :class:`_SectorStates` carry it
    from construction.  Entry (0, N^2 - 1), between the first and the last
    sector, rejects a generic dense matrix at once; the rest are accepted
    only if every nonzero real and imaginary part lies inside the sectors.
    """
    flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
    out = flat[:, n * n - 1] == 0
    inside = _density_sectors(n).positions
    for k in np.flatnonzero(out):
        out[k] = np.count_nonzero(flat[k].view(np.float64)) == \
            np.count_nonzero(flat[k, inside].view(np.float64))
    return out


def _check_densities(stack, n: int) -> np.ndarray:
    """Run the density checks on each matrix of a (B, N^2, N^2) stack; return it read-only.

    The NaN/Inf scan, the Hermiticity test, the trace test and the
    smallest-eigenvalue test.  The eigenvalue test is a Cholesky certificate
    (:func:`_eig_failed`): one stacked factorization, and an eigensolve of
    the stack only if some factorization fails, so a valid stack is
    validated without an eigensolve.  :func:`_check_blocks` runs once per
    non-empty group of :func:`_sector_members`: the dense matrices as one
    block each, the others as their J_z sector blocks.  The first failing
    matrix raises the message of its first failing check, as if the
    matrices were checked one after another.
    """
    a = as_complex_stack(stack, (n * n, n * n))
    failed = _trace_failed(np.trace(a, axis1=1, axis2=2))
    sector = _sector_members(a, n)
    whole = ~sector
    if whole.any():
        failed[0, whole], failed[2, whole] = _check_blocks(
            [(a if whole.all() else a[whole])[:, None]], failed[1, whole])
    if sector.any():
        failed[0, sector], failed[2, sector] = _check_blocks(
            _density_sectors(n).blocks(a, np.flatnonzero(sector)), failed[1, sector])
    _raise_first(failed)
    a.setflags(write=False)
    return a


def _trace_failed(tr: np.ndarray) -> np.ndarray:
    """The (checks, B) failure table of a stack with traces ``tr``, its trace row filled in."""
    failed = np.zeros((len(_DENSITY_CHECKS), len(tr)), dtype=bool)
    failed[1] = (np.abs(tr.real - 1.0) > _TRACE_TOL) | (np.abs(tr.imag) > _TRACE_TOL)
    return failed


def _raise_first(failed: np.ndarray) -> None:
    """Raise the message of the first failing check of the first failing state, if any."""
    if failed.any():
        first = failed.any(axis=0).argmax()
        raise ValueError(_DENSITY_CHECKS[failed[:, first].argmax()])


def _check_blocks(blocks: list, trace_failed: np.ndarray):
    """The Hermiticity and smallest-eigenvalue failures of each member given by its blocks.

    ``blocks`` are (S, nb, k, k) arrays, as :func:`linalg.trace_norms` takes
    them.  Only the members that passed the Hermiticity and trace tests get
    the eigenvalue test, each block array as one stack for :func:`_eig_failed`.
    """
    herm_failed = _block_max(blocks, _hermitian_error) > _HERM_TOL
    ok = ~(herm_failed | trace_failed)
    eig_failed = np.zeros(len(ok), dtype=bool)
    if ok.any():
        stacks = blocks if ok.all() else [b[ok] for b in blocks]
        eig_failed[ok] = reduce(np.logical_or, [_eig_failed(b).any(axis=1) for b in stacks])
    return herm_failed, eig_failed


def _eig_failed(m: np.ndarray) -> np.ndarray:
    """Has the Hermitian part of each matrix of a (..., k, k) stack an eigenvalue below -1e-10?

    A Cholesky certificate decides the common case without an eigensolve.
    With sym = (m + m^dag) / 2 and delta = 1e-11, one stacked factorization
    of sym + (1e-10 - delta) I succeeds only if every smallest eigenvalue of
    sym exceeds -1e-10 + delta less the backward error of the factorization,
    of order k * eps * ||sym|| (about 1e-12 for a trace-1 matrix with
    k <= 4096).  So a success means no matrix fails, and it never passes a
    matrix that the eigensolve rejects.  numpy raises for the whole stack if
    one factorization fails; then the stacked eigensolve of sym, rebuilt
    unshifted, decides as it would alone.  The shift goes into the buffer
    that holds sym; numpy's factor and its per-matrix work copy are the
    only other arrays alive: for B = 1 the check peaks at four d x d
    arrays here, and at three in the Hermiticity test.
    """
    sym = (m + dagger(m)) / 2
    i = np.arange(m.shape[-1])
    sym[..., i, i] += _EIG_TOL - _CERT_MARGIN
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        del sym
        return np.linalg.eigvalsh((m + dagger(m)) / 2)[..., 0] < -_EIG_TOL
    return np.zeros(m.shape[:-2], dtype=bool)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated bipartite density matrix on C^N otimes C^N.

    ``matrix`` is a read-only complex128 copy of the input, made before it is
    validated, so the caller cannot change a validated state through its own
    array and :func:`as_matrix` hands it on without a rescan.  The
    constructors of this module hand over arrays they built themselves,
    which are adopted without the copy.  Validation is the B = 1 case of the
    stacked check that :func:`random_densities` runs: the NaN/Inf, Hermiticity
    and trace tests, then a Cholesky factorization of the Hermitian part
    shifted by 1e-10 - 1e-11 that certifies no eigenvalue lies below -1e-10.
    Only if it fails does an eigensolve decide.  The family, Werner and
    isotropic states are a private subclass that holds their J_z blocks
    instead (:class:`_SectorDensity`) and builds ``matrix`` only on demand.
    """

    n_local: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_n_local(self.n_local)
        m = self.matrix
        m = np.asarray(m.array, dtype=np.complex128) if isinstance(m, _Owned) \
            else np.array(m, dtype=np.complex128)
        if m.ndim != 2:
            raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
        _check_densities(m[None], n)
        m.setflags(write=False)
        object.__setattr__(self, "n_local", n)
        object.__setattr__(self, "matrix", m)


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


class _SectorStates:
    """S states that vanish exactly between different J_z sectors, held as their entries.

    ``take(idx)`` returns rho.flat[idx] of each state as an (S, len(idx))
    array for a 1-d ``idx``, so every block of rho, T_2 rho and R rho is filled at the
    ``positions`` of a :class:`linalg._Sectors` and no N^2 x N^2 array is
    built.  Being one is the sector decision: no scan of a matrix makes it.
    ``shape`` is that of the (S, N^2, N^2) stack the states stand for.
    """

    __slots__ = ("n", "take", "shape")

    def __init__(self, n: int, size: int, take):
        self.n, self.take, self.shape = n, take, (size, n * n, n * n)

    def __len__(self) -> int:
        return self.shape[0]

    def blocks(self, sectors: _Sectors) -> list[np.ndarray]:
        """The (S, nb, k, k) block arrays of the matrices that ``sectors`` reads from rho."""
        return sectors.split(self.take(sectors.positions))

    def matrices(self) -> np.ndarray:
        """The read-only (S, N^2, N^2) stack: the entries inside the sectors, zero outside."""
        inside = _density_sectors(self.n).positions
        m = np.zeros(self.shape, dtype=np.complex128)
        m.reshape(len(self), -1)[:, inside] = self.take(inside)
        m.setflags(write=False)
        return m


def _sector_states(n: int, size: int, entries) -> _SectorStates:
    """The ``size`` states whose rho.flat[idx] are the rows of ``entries(idx)``, validated as one stack.

    The trace test on the diagonal entries and :func:`_check_blocks` on the
    J_z blocks, with the precedence and messages of :func:`_check_densities`.
    """
    def take(idx):  # a chunk at a time, so the temporaries of entries stay small at large N
        out = np.empty((size, len(idx)), dtype=np.complex128)
        for start in range(0, len(idx), _ENTRY_CHUNK):
            out[:, start:start + _ENTRY_CHUNK] = entries(idx[start:start + _ENTRY_CHUNK])
        return out

    states = _SectorStates(n, size, take)
    n2 = n * n
    failed = _trace_failed(states.take(np.arange(n2) * (n2 + 1)).sum(axis=-1))
    failed[0], failed[2] = _check_blocks(states.blocks(_density_sectors(n)), failed[1])
    _raise_first(failed)
    return states


class _SectorDensity(DensityMatrix):
    """A validated DensityMatrix that commutes with J_z, held as its one-state :class:`_SectorStates`.

    The criteria read its blocks through ``sectors``; ``matrix`` is
    materialized, read-only, only when a caller asks for it.
    """

    def __init__(self, sectors: _SectorStates):
        object.__setattr__(self, "n_local", sectors.n)
        object.__setattr__(self, "sectors", sectors)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.sectors.matrices()[0]

    def __repr__(self) -> str:  # the dataclass repr would build the matrix
        return f"DensityMatrix(n_local={self.n_local}, matrix=<its J_z blocks>)"


def _as_stack(rho, shape: tuple[int, int]):
    """A state as a stack of one for the criteria: a J_z block state as its sectors, else (1, d, d)."""
    if isinstance(rho, _SectorDensity):
        return _check_shape(rho.sectors, shape)
    return as_matrix(rho, shape)[None]


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


def _werner_entries(sys: CoupledSpinSystem, idx: np.ndarray) -> np.ndarray:
    return _werner_part(sys, *np.divmod(idx, sys.n ** 2))


def _family_entries(sys: CoupledSpinSystem, lam, idx: np.ndarray) -> np.ndarray:
    """One row per entry of ``lam``, a float or an (S, 1) column of them."""
    i, j = np.divmod(idx, sys.n ** 2)
    return lam * _singlet_entries(sys, i, j) + (1 - lam) * _werner_part(sys, i, j)


def _isotropic_entries(sys: CoupledSpinSystem, fidelity: float, idx: np.ndarray) -> np.ndarray:
    n2 = sys.n ** 2
    i, j = np.divmod(idx, n2)
    p0 = _singlet_entries(sys, i, j)
    return fidelity * p0 + (1 - fidelity) * (((i == j) - p0) / (n2 - 1))


def werner_state(sys: CoupledSpinSystem) -> DensityMatrix:
    """Normalized projector onto the swap-symmetric subspace.

    Equals the sum of the odd-J total-spin projectors; separable, invariant
    under all U otimes U, undetected by every criterion in this package.
    Built and validated as its J_z blocks, like the family and isotropic states.
    """
    return _SectorDensity(_sector_states(sys.n, 1, partial(_werner_entries, sys)))


def family_state(sys: CoupledSpinSystem, lam: float) -> DensityMatrix:
    """Mixture  lam * P_singlet + (1 - lam) * werner  for lam in [0, 1].

    Every lam > 0 is entangled; for lam <= 1/(N+2) the state stays PPT, so
    only the witness detects it there.
    """
    return _SectorDensity(_family_states(sys, (lam,)))


def _family_states(sys: CoupledSpinSystem, lams) -> _SectorStates:
    """The family states at each lam, validated as one stack; state k is ``family_state(sys, lams[k])``."""
    for lam in lams:
        if not 0 <= lam <= 1:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {lam}")
    # one row of entries per lam: lam * x is the same product for a scalar and a column
    column = np.array(lams, dtype=float)[:, None]
    return _sector_states(sys.n, len(lams), partial(_family_entries, sys, column))


def isotropic_state(sys: CoupledSpinSystem, fidelity: float) -> DensityMatrix:
    """Isotropic state of given fidelity with the singlet.

    rho_f = f P_0 + (1-f) (I - P_0) / (N^2 - 1).  The singlet is used as the
    maximally entangled reference state; any other choice is related by a
    product unitary.  Separable exactly for f <= 1/N.
    """
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    return _SectorDensity(_sector_states(sys.n, 1, partial(_isotropic_entries, sys, fidelity)))


def random_pure(sys: CoupledSpinSystem, seed) -> PureState:
    """Haar-random global pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(seed)
    n2 = sys.n * sys.n
    v = rng.normal(size=n2) + 1j * rng.normal(size=n2)
    return PureState(n_local=sys.n, vector=v / np.linalg.norm(v))


def _sample_densities(sys: CoupledSpinSystem, rank: int, seeds) -> np.ndarray:
    """Unvalidated stack of G G^dag / tr, one complex Gaussian N^2 x rank factor G per seed."""
    n2 = sys.n * sys.n
    if not 1 <= rank <= n2:
        raise ValueError(f"rank must lie in [1, {n2}], got {rank}")
    g = np.empty((len(seeds), n2, rank), dtype=np.complex128)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g[k] = rng.normal(size=(n2, rank)) + 1j * rng.normal(size=(n2, rank))
    m = g @ dagger(g)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_densities(sys: CoupledSpinSystem, rank: int, seeds) -> np.ndarray:
    """Validated read-only stack of random density matrices, one per seed.

    Matrix k is bit-equal to ``random_density(sys, rank, seeds[k]).matrix``.
    """
    return _check_densities(_sample_densities(sys, rank, seeds), sys.n)


def random_density(sys: CoupledSpinSystem, rank: int, seed) -> DensityMatrix:
    """Random density matrix G G^dag / tr from a complex Gaussian N^2 x rank factor."""
    return DensityMatrix(n_local=sys.n, matrix=_Owned(_sample_densities(sys, rank, [seed])[0]))


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
    never basis columns.
    """
    if isinstance(psi, PureState):
        v = psi.vector
    else:
        v = _check_finite(np.asarray(psi, dtype=np.complex128).reshape(-1))
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
    """Pure-state concurrence sqrt(2 (1 - sum_i alpha_i^4))."""
    s = schmidt_decompose(psi).coefficients
    return float(np.sqrt(max(0.0, 2 * (1 - np.sum(s ** 4)))))


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
        return DensityMatrix(n_local=parsed[0], matrix=_Owned(parsed[1]))
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
        return DensityMatrix(n_local=n, matrix=_Owned(m))
    if "vector" in obj:
        v = _pairs(obj["vector"], 2, numbers, "'vector' must be a list of [re, im] pairs",
                   "state vector contains NaN or Inf entries")
        return PureState(n_local=n, vector=v)
    raise ValueError("state file must contain a 'matrix' or a 'vector' key")


def _matrix_rows(text: str):
    """``(n_local, matrix)`` of a matrix file in the layout of :func:`save_state`, else None.

    The text must be ``{"n_local": <positive int>, "matrix": [`` and then
    rows separated by ", " up to ``]}`` and optional JSON whitespace.  Each
    row is one ``raw_decode``, so only one row of Python lists lives at a
    time; its pairs fill one row of the preallocated complex matrix as
    ``re + 1j * im``, the arithmetic of :func:`_pairs`.  The width d is that
    of the first row, and every row must hold d pairs of two JSON numbers
    for d rows.  Anything else, and any error of the decoding, returns None,
    so the whole-file parse reports it with its own exception and message.
    """
    head = _MATRIX_HEAD.match(text)
    if head is None:
        return None
    typed = not _only_numbers(text, 2)  # a string or a literal may stand for an entry
    decode = json.JSONDecoder().raw_decode
    pos, m = head.end(), None
    try:
        n = int(head[1])
        for i in count():
            row, pos = decode(text, pos)
            if type(row) is not list:
                return None
            if m is None:  # a d x d matrix has d^2 pairs of at least "[0,0]" in the text
                d = len(row)
                if d == 0 or 5 * d * d > len(text):
                    return None
                m = np.empty((d, d), dtype=np.complex128)
            if i == d or len(row) != d or set(map(len, row)) != {2} or (
                    typed and not {int, float}.issuperset(map(type, chain.from_iterable(row)))):
                return None
            pairs = np.fromiter(chain.from_iterable(row), float, 2 * d)
            m[i] = pairs[0::2] + 1j * pairs[1::2]
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
    return raw[..., 0] + 1j * raw[..., 1]
