"""Bipartite states: constructors, Schmidt analysis, samplers, file I/O.

Density matrices and pure states are stored with the subsystem-1-major
composite index (a, b) -> a*N + b and the descending-m local basis, matching
the JSON state-file format exactly:

    {"n_local": N, "matrix": [[[re, im], ...], ...]}   (N^2 x N^2 rows)
    {"n_local": N, "vector": [[re, im], ...]}          (length N^2)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (DimensionError, _check_shape, as_complex_matrix,
                     as_complex_stack, dagger)
from .spinspace import CoupledSpinSystem, _swap_index

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10

# the density checks in the order each state runs them, with their messages
_DENSITY_CHECKS = ("density matrix is not Hermitian within 1e-10",
                   "density matrix trace differs from 1 beyond 1e-10",
                   "density matrix has an eigenvalue below -1e-10")


def _check_n_local(n) -> int:
    """``n`` as a Python int if it is an integer >= 1 (a numpy integer too, not a bool)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
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


def _check_densities(stack, n: int) -> np.ndarray:
    """Run the density checks on each matrix of a (B, N^2, N^2) stack; return it read-only.

    The NaN/Inf scan, the Hermiticity test, the trace test and the
    smallest-eigenvalue test (one stacked eigensolve).  The first failing
    matrix raises the message of its first failing check, as if the matrices
    were checked one after another.
    """
    a = as_complex_stack(stack, (n * n, n * n))
    tr = np.trace(a, axis1=1, axis2=2)
    failed = np.zeros((len(_DENSITY_CHECKS), len(a)), dtype=bool)
    ah = dagger(a)
    failed[0] = np.abs(a - ah).max(axis=(1, 2)) > _HERM_TOL
    failed[1] = (np.abs(tr.real - 1.0) > _TRACE_TOL) | (np.abs(tr.imag) > _TRACE_TOL)
    ok = ~failed.any(axis=0)  # the eigensolve sees only matrices that passed so far
    sym = (a + ah) / 2 if ok.all() else (a[ok] + ah[ok]) / 2
    del ah  # one N^2 x N^2 copy per state fewer during the eigensolve
    failed[2, ok] = np.linalg.eigvalsh(sym)[:, 0] < -_EIG_TOL
    if failed.any():
        first = failed.any(axis=0).argmax()
        raise ValueError(_DENSITY_CHECKS[failed[:, first].argmax()])
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated bipartite density matrix on C^N otimes C^N.

    ``matrix`` is a read-only complex128 copy of the input, made before it is
    validated, so the caller cannot change a validated state through its own
    array and :func:`as_matrix` hands it on without a rescan.  The
    constructors of this module hand over arrays they built themselves,
    which are adopted without the copy.  Validation is the B = 1 case of the
    stacked check that :func:`random_densities` runs.
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


def _werner_matrix(sys: CoupledSpinSystem) -> np.ndarray:
    n = sys.n
    m = np.eye(n * n)
    m[np.arange(n * n), _swap_index(n)] += 1
    return 2 / (n * (n + 1)) * (m / 2)


def werner_state(sys: CoupledSpinSystem) -> DensityMatrix:
    """Normalized projector onto the swap-symmetric subspace.

    Equals the sum of the odd-J total-spin projectors; separable, invariant
    under all U otimes U, undetected by every criterion in this package.
    """
    return DensityMatrix(n_local=sys.n, matrix=_Owned(_werner_matrix(sys)))


def family_state(sys: CoupledSpinSystem, lam: float) -> DensityMatrix:
    """Mixture  lam * P_singlet + (1 - lam) * werner  for lam in [0, 1].

    Every lam > 0 is entangled; for lam <= 1/(N+2) the state stays PPT, so
    only the witness detects it there.
    """
    if not 0 <= lam <= 1:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {lam}")
    n = sys.n
    p0 = np.outer(sys.singlet, sys.singlet.conj())
    return DensityMatrix(n_local=n, matrix=_Owned(lam * p0 + (1 - lam) * _werner_matrix(sys)))


def isotropic_state(sys: CoupledSpinSystem, fidelity: float) -> DensityMatrix:
    """Isotropic state of given fidelity with the singlet.

    rho_f = f P_0 + (1-f) (I - P_0) / (N^2 - 1).  The singlet is used as the
    maximally entangled reference state; any other choice is related by a
    product unitary.  Separable exactly for f <= 1/N.
    """
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    n = sys.n
    p0 = np.outer(sys.singlet, sys.singlet.conj())
    rest = (np.eye(n * n) - p0) / (n * n - 1)
    return DensityMatrix(n_local=n, matrix=_Owned(fidelity * p0 + (1 - fidelity) * rest))


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
    """Write a DensityMatrix or PureState as JSON ([re, im] entry pairs)."""
    if isinstance(state, DensityMatrix):
        obj = {"n_local": state.n_local,
               "matrix": [[[z.real, z.imag] for z in row] for row in state.matrix]}
    elif isinstance(state, PureState):
        obj = {"n_local": state.n_local,
               "vector": [[z.real, z.imag] for z in state.vector]}
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def load_state(path):
    """Read a DensityMatrix or PureState back from JSON (validating invariants)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("state file is nested too deeply to parse") from None
    if not isinstance(obj, dict) or "n_local" not in obj:
        raise ValueError("state file must be a JSON object with an 'n_local' key")
    n = obj["n_local"]  # checked by the state class
    if "matrix" in obj:
        raw = _pairs(obj["matrix"], 3, "'matrix' must be a nested list of [re, im] pairs")
        return DensityMatrix(n_local=n, matrix=_Owned(raw[..., 0] + 1j * raw[..., 1]))
    if "vector" in obj:
        raw = _pairs(obj["vector"], 2, "'vector' must be a list of [re, im] pairs")
        return PureState(n_local=n, vector=raw[:, 0] + 1j * raw[:, 1])
    raise ValueError("state file must contain a 'matrix' or a 'vector' key")


def _pairs(entries, ndim: int, message: str) -> np.ndarray:
    try:
        raw = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if raw.ndim != ndim or raw.shape[-1] != 2:
        raise ValueError(message)
    return raw
