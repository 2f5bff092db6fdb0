"""Separability criteria: positive map, realignment, witness.

The distinguished positive (but not completely positive) map used here is
the time-reversal extension of the reduction map,

    B  ->  (tr B) I - B - V B^T V^dag,

defined for even local dimension N >= 4.  Lifting it to the second factor
of C^N otimes C^N and applying it to the singlet produces a Hermitian
witness operator that detects entangled states with positive partial
transpose; here it is built in its swap form I - N P_0 - F (the lifted and
spectral constructions live in :mod:`closedform` as references).
Trace-norm criteria (partial transpose / realignment) live here as well, so
one call evaluates all three detectors on a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_complex_matrix, dagger, kron, partial_trace, trace_norm
from .spinspace import CoupledSpinSystem, _swap_index, time_reverse
from .states import as_matrix, haar_unitary

# Margin added to strict inequalities when turning numbers into verdicts.
VERDICT_TOL = 1e-9

# A witness-search restart ends below this gradient norm or Armijo step length.
_GRADIENT_TOL = 1e-12
_STEP_MIN = 1e-12


def extended_reduction_map(b, sys: CoupledSpinSystem) -> np.ndarray:
    """Apply the positive map  B -> (tr B) I - B - theta(B)  on one factor.

    For a normalized pure input |phi><phi| the image is the projector onto
    the orthogonal complement of span{|phi>, theta|phi>}, hence positive.
    """
    a = as_complex_matrix(b, (sys.n, sys.n))
    return np.trace(a) * np.eye(sys.n) - a - time_reverse(a, sys)


def partial_transpose(rho, n: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on C^n otimes C^n."""
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)
    return r.transpose(0, 3, 2, 1).reshape(n * n, n * n)


def _flip_signs(n: int) -> np.ndarray:
    """(-1)^(b+d) on the subsystem-2 axes (b, d) of an (n, n, n, n) view.

    V[n-1-i, i] = (-1)^i, so conjugating by I otimes V reverses both
    subsystem-2 indices and applies these signs (even n: (-1)^(n-1) squared).
    """
    s = (-1.0) ** np.arange(n)
    return np.multiply.outer(s, s)[None, :, None, :]


def partial_time_reversal(rho, sys: CoupledSpinSystem) -> np.ndarray:
    """(I otimes V) T2(rho) (I otimes V)^dag as the signed index permutation

    out[(a,b),(c,d)] = (-1)^(b+d) rho[(a, n-1-d), (c, n-1-b)].
    """
    n = sys.n
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)[:, ::-1, :, ::-1]
    return (r.transpose(0, 3, 2, 1) * _flip_signs(n)).reshape(n * n, n * n)


def partial_transpose_norm(rho, sys: CoupledSpinSystem) -> float:
    """Trace norm of the partially transposed state; > 1 flags entanglement."""
    return trace_norm(partial_transpose(rho, sys.n))


def realign(rho, sys: CoupledSpinSystem) -> np.ndarray:
    """Canonical realignment theta_2(F rho) as the signed index permutation

    out[(a,b),(c,d)] = (-1)^(b+d) rho[(n-1-d, a), (c, n-1-b)].
    """
    n = sys.n
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)[::-1, :, :, ::-1]
    return (r.transpose(1, 3, 2, 0) * _flip_signs(n)).reshape(n * n, n * n)


def realign_reshuffle(rho, n: int) -> np.ndarray:
    """Realignment as the index reshuffle M[(i,j),(k,l)] = rho[(i,k),(j,l)].

    Differs from :func:`realign` by an index permutation; the two share
    their singular values, hence the same trace norm.
    """
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)
    return r.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def realign_norm(rho, sys: CoupledSpinSystem) -> float:
    """Trace norm of the realigned state; > 1 flags entanglement."""
    return trace_norm(realign(rho, sys))


@lru_cache(maxsize=None)
def build_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """The witness W = I - N P_0 - F, built once per system and cached read-only.

    W is filled in one array: N P_0 is subtracted on its N x N support, then F
    by index, the order of the dense sum, so every zero keeps its sign
    (:func:`spinspace.swap_operator` is the reference).  W equals N (I otimes Phi) applied to the singlet projector and
    -(N-2) P_0 + 2 (P_2 + ... + P_{N-2}); both constructions are kept in
    :mod:`closedform` as references.  The spectrum is -(N-2) on the singlet,
    +2 on the even-J manifolds with J >= 2, and 0 on the odd-J (symmetric) manifolds.
    """
    n = sys.n
    w = np.eye(n * n, dtype=complex)
    idx = np.arange(n) * (n - 1) + n - 1  # a N + N-1-a: where the singlet is nonzero
    w[np.ix_(idx, idx)] -= n * np.outer(sys.singlet[idx], sys.singlet[idx].conj())
    w[np.arange(n * n), _swap_index(n)] -= 1
    trace = float(np.trace(w).real)
    if abs(trace - n * (n - 2)) > 1e-10 * n * n:
        raise ValueError(f"witness trace {trace!r} differs from N(N-2) = {n * (n - 2)}")
    w.setflags(write=False)
    return w


def _trace_product(w: np.ndarray, a: np.ndarray) -> float:
    """Re tr(W A) without forming W A."""
    return float(np.einsum("ij,ji->", w, a).real)


def witness_value(w: np.ndarray, rho) -> float:
    """tr(W rho); negative values certify entanglement of rho."""
    return _trace_product(w, as_matrix(rho, w.shape))


def twisted_witness(w: np.ndarray, u1, u2) -> np.ndarray:
    """(U1 otimes U2) W (U1 otimes U2)^dag for unitary U1, U2."""
    n = math.isqrt(w.shape[0])
    for u in (u1, u2):
        a = as_complex_matrix(u, (n, n))
        if float(np.abs(dagger(a) @ a - np.eye(n)).max()) > 1e-10:
            raise ValueError("twist matrices must be unitary within 1e-10")
    u = kron(u1, u2)
    return u @ w @ dagger(u)


@dataclass(frozen=True)
class OptimizerBudget:
    """Search effort for the local-unitary witness minimization."""

    restarts: int = 8
    iterations: int = 500
    seed: int = 0


def _geodesic_step(g: np.ndarray, mu: float, u: np.ndarray) -> np.ndarray:
    """exp(mu G) U for anti-Hermitian G, from eigh of the Hermitian -i mu G."""
    e, q = np.linalg.eigh(-1j * mu * g)
    return (q * np.exp(1j * e)) @ dagger(q) @ u


def minimize_witness(rho, sys: CoupledSpinSystem, budget: OptimizerBudget | None = None):
    """Minimize tr(W_U rho) over product unitaries U = U1 otimes U2.

    Returns ``(value, u1, u2)`` with value = tr((U1 otimes U2) W (.)^dag rho)
    re-evaluated at the returned unitaries.  The identity twist is always a
    candidate, so the result never exceeds tr(W rho).  Each restart takes up
    to ``budget.iterations`` Riemannian steepest-descent steps on U(N) x U(N)
    (Abrudan, Eriksson, Koivunen, IEEE TSP 56, 2008): for the twisted state
    sigma and C = sigma W - W sigma, the anti-Hermitian gradients G1 = tr_2 C
    and G2 = tr_1 C move U_k -> exp(mu G_k) U_k along geodesics.  mu halves
    until f drops by mu (|G1|^2 + |G2|^2) / 2 and doubles after each step; a
    restart ends early once the gradient vanishes.  Restarts draw independent
    RNG streams split from the seed, with restart 0 starting at the identity.
    """
    if budget is None:
        budget = OptimizerBudget()
    if budget.restarts < 1 or budget.iterations < 0:
        raise ValueError("budget must have restarts >= 1 and iterations >= 0")
    n = sys.n
    a = as_matrix(rho, (n * n, n * n))
    w = build_witness(sys)

    # Minimizing tr(W U rho U^dag) over U = U1 x U2 is the same search with
    # U replaced by its adjoint; twist the state and undo at the end.
    def twist(u1, u2):
        u = kron(u1, u2)
        sigma = u @ a @ dagger(u)
        return _trace_product(w, sigma), sigma

    eye = np.eye(n)
    best_val, best_u = twist(eye, eye)[0], (eye, eye)

    streams = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    for r in range(budget.restarts):
        rng = np.random.default_rng(streams[r])
        u1, u2 = (eye, eye) if r == 0 else (haar_unitary(n, rng), haar_unitary(n, rng))
        val, sigma = twist(u1, u2)
        mu = 1.0
        for _ in range(budget.iterations):
            c = sigma @ w - w @ sigma
            g1, g2 = partial_trace(c, n, 2), partial_trace(c, n, 1)
            sq = float(np.vdot(g1, g1).real + np.vdot(g2, g2).real)
            if sq < _GRADIENT_TOL ** 2:
                break
            while mu > _STEP_MIN:
                t1, t2 = _geodesic_step(g1, mu, u1), _geodesic_step(g2, mu, u2)
                trial, trial_sigma = twist(t1, t2)
                if trial <= val - mu * sq / 2:
                    break
                mu /= 2
            else:
                break  # no step beats rounding noise: numerically stationary
            u1, u2, val, sigma, mu = t1, t2, trial, trial_sigma, 2 * mu
        if val < best_val:
            best_val, best_u = val, (u1, u2)

    # The witness twist that realizes the value is the adjoint of the state twist.
    u1, u2 = dagger(best_u[0]), dagger(best_u[1])
    return witness_value(twisted_witness(w, u1, u2), rho), u1, u2


@dataclass(frozen=True)
class CriteriaVerdict:
    """Outcome of all three separability tests on one state."""

    ppt_violated: bool
    realignment_violated: bool
    witness_value: float
    witness_detects: bool
    trace_norm_T2: float
    trace_norm_R: float


def evaluate_criteria(rho, sys: CoupledSpinSystem) -> CriteriaVerdict:
    """Run the partial-transpose, realignment and witness tests on a state."""
    t2 = partial_transpose_norm(rho, sys)
    rn = realign_norm(rho, sys)
    wval = witness_value(build_witness(sys), rho)
    return CriteriaVerdict(
        ppt_violated=t2 > 1 + VERDICT_TOL,
        realignment_violated=rn > 1 + VERDICT_TOL,
        witness_value=wval,
        witness_detects=wval < -VERDICT_TOL,
        trace_norm_T2=t2,
        trace_norm_R=rn,
    )
