"""Separability criteria: positive map, realignment, witness.

The distinguished positive (but not completely positive) map used here is
the time-reversal extension of the reduction map,

    B  ->  (tr B) I - B - V B^T V^dag,

defined for even local dimension N >= 4.  Lifting it to the second factor
of C^N otimes C^N and applying it to the singlet produces a Hermitian
witness operator that detects entangled states with positive partial
transpose; here it is built in its swap form I - N P_0 - F.
Trace-norm criteria (partial transpose / realignment) live here as well, so
one call evaluates all three detectors on a state.  The lifted and spectral
witness constructions, the matrix-product partial time reversal and the
index-reshuffle realignment are references in :mod:`closedform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_complex_matrix, as_complex_stack, dagger, trace_norms
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


def _partial_transposes(stack: np.ndarray, n: int) -> np.ndarray:
    """T_2 of each matrix of a (B, n^2, n^2) stack: swap the subsystem-2 indices."""
    return stack.reshape(-1, n, n, n, n).transpose(0, 1, 4, 3, 2).reshape(-1, n * n, n * n)


def partial_transpose(rho, n: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on C^n otimes C^n."""
    return _partial_transposes(as_matrix(rho, (n * n, n * n))[None], n)[0]


def _flip_signs(n: int) -> np.ndarray:
    """(-1)^(b+d) on the subsystem-2 axes (b, d) of an (n, n, n, n) view.

    V[n-1-i, i] = (-1)^i, so conjugating by I otimes V reverses both
    subsystem-2 indices and applies these signs (even n: (-1)^(n-1) squared).
    """
    s = (-1.0) ** np.arange(n)
    return np.multiply.outer(s, s)[None, :, None, :]


def _realignments(stack: np.ndarray, n: int) -> np.ndarray:
    """The realignment of each matrix of a (B, n^2, n^2) stack (see :func:`realign`)."""
    r = stack.reshape(-1, n, n, n, n)[:, ::-1, :, :, ::-1]
    # written in C order, so the reshape is a view and not a second copy
    signed = np.multiply(r.transpose(0, 2, 4, 3, 1), _flip_signs(n), order="C")
    return signed.reshape(-1, n * n, n * n)


def realign(rho, sys: CoupledSpinSystem) -> np.ndarray:
    """Canonical realignment theta_2(F rho) as the signed index permutation

    out[(a,b),(c,d)] = (-1)^(b+d) rho[(n-1-d, a), (c, n-1-b)].
    """
    n = sys.n
    return _realignments(as_matrix(rho, (n * n, n * n))[None], n)[0]


@lru_cache(maxsize=None)
def build_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """The witness W = I - N P_0 - F, built once per system and cached read-only.

    W is filled in one array: N P_0 is subtracted on its N x N support, then F
    by index, the order of the dense sum, so every zero keeps its sign
    (:func:`closedform.swap_operator` is the reference).  W equals
    N (I otimes Phi) applied to the singlet projector and
    -(N-2) P_0 + 2 (P_2 + ... + P_{N-2}); both constructions are kept in
    :mod:`closedform` as references.  The spectrum is -(N-2) on the singlet,
    +2 on the even-J manifolds with J >= 2, and 0 on the odd-J (symmetric) manifolds.
    """
    n = sys.n
    w = np.eye(n * n, dtype=complex)
    idx = np.flatnonzero(sys.singlet)
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


def witness_value(w, rho) -> float:
    """tr(W rho); negative values certify entanglement of rho."""
    w = as_complex_matrix(w)
    return _trace_product(w, as_matrix(rho, w.shape))


def _conjugate(m: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(U1 otimes U2) M (U1 otimes U2)^dag for arrays that are already gated."""
    u = np.kron(u1, u2)
    return u @ m @ dagger(u)


def twisted_witness(w, u1, u2) -> np.ndarray:
    """(U1 otimes U2) W (U1 otimes U2)^dag for an N^2 x N^2 W and unitary N x N U1, U2."""
    n = math.isqrt(len(w))
    w = as_complex_matrix(w, (n * n, n * n))
    a1, a2 = as_complex_matrix(u1, (n, n)), as_complex_matrix(u2, (n, n))
    for a in (a1, a2):
        if float(np.abs(dagger(a) @ a - np.eye(n)).max()) > 1e-10:
            raise ValueError("twist matrices must be unitary within 1e-10")
    return _conjugate(w, a1, a2)


@dataclass(frozen=True)
class OptimizerBudget:
    """Search effort for the witness minimization: integer restarts >= 1, iterations >= 0."""

    restarts: int = 8
    iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for value in (self.restarts, self.iterations):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"budget restarts and iterations must be integers, got {value!r}")
        if self.restarts < 1 or self.iterations < 0:
            raise ValueError("budget must have restarts >= 1 and iterations >= 0")


def _geodesic_step(g: np.ndarray, mu: float, u: np.ndarray) -> np.ndarray:
    """exp(mu G) U for anti-Hermitian G, from eigh of the Hermitian -i mu G."""
    e, q = np.linalg.eigh(-1j * mu * g)
    return (q * np.exp(1j * e)) @ dagger(q) @ u


def minimize_witness(rho, sys: CoupledSpinSystem, budget: OptimizerBudget = OptimizerBudget()):
    """Minimize tr(W_U rho) over product unitaries U = U1 otimes U2.

    Returns ``(value, u1, u2)`` with value = tr((U1 otimes U2) W (.)^dag rho)
    re-evaluated at the returned unitaries.  Each restart takes up to
    ``budget.iterations`` Riemannian steepest-descent steps on U(N) x U(N)
    (Abrudan, Eriksson, Koivunen, IEEE TSP 56, 2008): for the twisted state
    sigma and C = sigma W - W sigma, the anti-Hermitian gradients G1 = tr_2 C
    and G2 = tr_1 C move U_k -> exp(mu G_k) U_k along geodesics.  mu halves
    until f drops by mu (|G1|^2 + |G2|^2) / 2 and doubles after each step; a
    restart ends early once the gradient vanishes.  Restarts draw independent
    RNG streams split from the seed.  Restart 0 starts at the identity, so it
    is the identity candidate and the result never exceeds tr(W rho).
    """
    n = sys.n
    a = as_matrix(rho, (n * n, n * n))
    w = build_witness(sys)

    # Minimizing tr(W U rho U^dag) over U = U1 x U2 is the same search with
    # U replaced by its adjoint; twist the state and undo at the end.  The
    # loop only meets arrays it built itself, so nothing in it is gated.
    def twist(u1, u2):
        sigma = _conjugate(a, u1, u2)
        return _trace_product(w, sigma), sigma

    eye = np.eye(n)
    best_val, best_u = np.inf, None

    streams = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    for r in range(budget.restarts):
        rng = np.random.default_rng(streams[r])
        u1, u2 = (eye, eye) if r == 0 else (haar_unitary(n, rng), haar_unitary(n, rng))
        val, sigma = twist(u1, u2)
        mu = 1.0
        for _ in range(budget.iterations):
            c = (sigma @ w - w @ sigma).reshape(n, n, n, n)
            g1, g2 = np.einsum("ikjk->ij", c), np.einsum("kikj->ij", c)  # tr_2 C, tr_1 C
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
    return _trace_product(twisted_witness(w, u1, u2), a), u1, u2


def _functionals(stack: np.ndarray, sys: CoupledSpinSystem):
    """The ungated core of :func:`functionals`, for a stack that is already gated or validated."""
    n = sys.n
    t2 = trace_norms(_partial_transposes(stack, n))
    rn = trace_norms(_realignments(stack, n))
    wval = np.einsum("ij,bji->b", build_witness(sys), stack).real
    return t2, rn, wval


def functionals(stack, sys: CoupledSpinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """||T_2 rho||_1, ||R rho||_1 and tr(W rho) for each state of a (B, N^2, N^2) stack.

    The raw stack passes :func:`linalg.as_complex_stack` once.  T_2 and R
    are signed index permutations of the whole stack, each followed by one
    stacked :func:`linalg.trace_norms`; tr(W rho) is one contraction with
    the cached witness.  Each state gets the bits it gets alone, in a stack
    of one.
    """
    n2 = sys.n * sys.n
    return _functionals(as_complex_stack(stack, (n2, n2)), sys)


@dataclass(frozen=True)
class CriteriaVerdict:
    """Outcome of all three separability tests on one state."""

    ppt_violated: bool
    realignment_violated: bool
    witness_value: float
    witness_detects: bool
    trace_norm_T2: float
    trace_norm_R: float


def _verdicts(stack: np.ndarray, sys: CoupledSpinSystem) -> list[CriteriaVerdict]:
    """The ungated core of :func:`verdicts`, for a stack that is already gated or validated."""
    return [CriteriaVerdict(ppt_violated=t2 > 1 + VERDICT_TOL,
                            realignment_violated=rn > 1 + VERDICT_TOL,
                            witness_value=wval,
                            witness_detects=wval < -VERDICT_TOL,
                            trace_norm_T2=t2,
                            trace_norm_R=rn)
            for t2, rn, wval in zip(*(f.tolist() for f in _functionals(stack, sys)))]


def verdicts(stack, sys: CoupledSpinSystem) -> list[CriteriaVerdict]:
    """One verdict per state of a raw (B, N^2, N^2) stack, gated once (see :func:`functionals`)."""
    n2 = sys.n * sys.n
    return _verdicts(as_complex_stack(stack, (n2, n2)), sys)


def evaluate_criteria(rho, sys: CoupledSpinSystem) -> CriteriaVerdict:
    """Run the partial-transpose, realignment and witness tests on a state.

    The B = 1 case of :func:`verdicts`, gated by :func:`states.as_matrix`.
    """
    n2 = sys.n * sys.n
    return _verdicts(as_matrix(rho, (n2, n2))[None], sys)[0]
