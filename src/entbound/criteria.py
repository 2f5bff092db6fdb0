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
from functools import lru_cache, partial

import numpy as np

from .linalg import _is_integer, _Sectors, as_complex_matrix, as_complex_stack, dagger, trace_norms
from .spinspace import CoupledSpinSystem, _swap_index, time_reverse
from .states import _as_states, _States, as_matrix, haar_unitary

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


@lru_cache(maxsize=None)
def _pair_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of R_0 in rho, in pair order: R_0 is read at rows[:, None] + cols.

    R_0[(a,c),(b,d)] = rho[(a,b),(c,d)], at flat position (a n + b) n^2 + c n + d
    of rho, so row (a, c) contributes a n^3 + c n and column (b, d) b n^2 + d.
    The pair order lists (a, a), then (a, c) and then (c, a) for each a < c
    (see :func:`_realignment_pair_forms`).
    """
    a, c = np.triu_indices(n, 1)
    first, second = np.concatenate([np.arange(n), a, c]), np.concatenate([np.arange(n), c, a])
    return first * n ** 3 + second * n, first * n * n + second


def _realignment_pair_forms(stack: np.ndarray, n: int) -> np.ndarray:
    """C = Q^dag R_0 Q for each rho of a (B, n^2, n^2) stack, R_0[(a,c),(b,d)] = rho[(a,b),(c,d)].

    Q is the fixed unitary whose columns are e_(a,a), (e_(a,c) + e_(c,a)) / sqrt 2
    and i (e_(a,c) - e_(c,a)) / sqrt 2 for a < c.  R_0 is a signed
    permutation of the transposed realignment, so C has its singular
    values.  For Hermitian rho, conj(R_0) = P R_0 P with P the swap
    (a,c) <-> (c,a), and P Q = conj(Q), so C is real.  Combined row pair by
    row pair and then column pair by column pair, the imaginary parts of an
    exactly Hermitian rho, as every held state is, cancel to exact zeros.
    R_0 is gathered once, rows and columns in pair order (:func:`_pair_offsets`);
    each pass then overwrites the pair rows (then columns) in place, with
    the complex arithmetic of (u + v) / sqrt 2 and phase (u - v) / sqrt 2.
    """
    m = n * (n - 1) // 2
    rows, cols = _pair_offsets(n)
    c = stack.reshape(len(stack), n ** 4).take(np.add.outer(rows, cols), axis=1)
    for axis, phase in ((1, -1j), (2, 1j)):
        u, v = (c[:, n:n + m], c[:, n + m:]) if axis == 1 else (c[:, :, n:n + m], c[:, :, n + m:])
        plus, minus = u + v, u - v
        np.divide(plus, math.sqrt(2), out=u)
        np.multiply(phase, minus, out=minus)
        np.divide(minus, math.sqrt(2), out=v)
    return c


def realign(rho, sys: CoupledSpinSystem) -> np.ndarray:
    """Canonical realignment theta_2(F rho) as the signed index permutation

    out[(a,b),(c,d)] = (-1)^(b+d) rho[(n-1-d, a), (c, n-1-b)].

    :func:`functionals` norms its real pair form (:func:`_realignment_pair_forms`) instead.
    """
    n = sys.n
    r = as_matrix(rho, (n * n, n * n)).reshape(n, n, n, n)[::-1, :, :, ::-1]
    # written in C order, so the reshape is a view and not a second copy
    return np.multiply(r.transpose(1, 3, 2, 0), _flip_signs(n), order="C").reshape(n * n, n * n)


@lru_cache(maxsize=None)
def build_witness(sys: CoupledSpinSystem) -> np.ndarray:
    """The witness W = I - N P_0 - F, built once per system and cached read-only.

    W is filled in one array: N P_0 is subtracted on its N x N support, then F by index, the
    order of the dense sum, so every zero keeps its sign (:func:`closedform.swap_operator` is
    the reference).  W equals N (I otimes Phi) applied to the singlet projector and
    -(N-2) P_0 + 2 (P_2 + ... + P_{N-2}); both constructions are kept in :mod:`closedform` as
    references.  The spectrum is -(N-2) on the singlet, +2 on the even-J manifolds with
    J >= 2, and 0 on the odd-J (symmetric) manifolds.  Only :func:`witness_value`,
    :func:`twisted_witness` and the ``witness`` and ``verify witness`` commands use W itself;
    :func:`functionals` and :func:`minimize_witness` read tr(W rho) without it.
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


def witness_value(w, rho) -> float:
    """tr(W rho); negative values certify entanglement of rho."""
    w = as_complex_matrix(w)
    return float(np.einsum("ij,ji->", w, as_matrix(rho, w.shape)).real)


def twisted_witness(w, u1, u2) -> np.ndarray:
    """(U1 otimes U2) W (U1 otimes U2)^dag for an N^2 x N^2 W and unitary N x N U1, U2.

    Four N x N products on views, O(N^5); any N^2 x N^2 matrix is twisted alike.
    """
    n = math.isqrt(len(w))
    w = as_complex_matrix(w, (n * n, n * n))
    a1, a2 = as_complex_matrix(u1, (n, n)), as_complex_matrix(u2, (n, n))
    for a in (a1, a2):
        if float(np.abs(dagger(a) @ a - np.eye(n)).max()) > 1e-10:
            raise ValueError("twist matrices must be unitary within 1e-10")
    r = (a2 @ (a1 @ w.reshape(n, -1)).reshape(n, n, -1)).reshape(-1, n) @ dagger(a2)
    return (a1.conj() @ r.reshape(n * n, n, n)).reshape(n * n, n * n)


@dataclass(frozen=True)
class OptimizerBudget:
    """Search effort for the witness search: integer restarts >= 1, iterations >= 0, seed >= 0."""

    restarts: int = 8
    iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for value in (self.restarts, self.iterations, self.seed):
            if not _is_integer(value):
                raise TypeError(f"budget restarts, iterations and seed must be integers, got {value!r}")
        if self.restarts < 1 or self.iterations < 0:
            raise ValueError("budget must have restarts >= 1 and iterations >= 0")
        if self.seed < 0:
            raise ValueError(f"budget seed must be >= 0, got {self.seed!r}")


def _geodesic_step(g: np.ndarray, mu: float, u: np.ndarray) -> np.ndarray:
    """exp(mu G) U for anti-Hermitian G, from eigh of the Hermitian -i mu G."""
    e, q = np.linalg.eigh(-1j * mu * g)
    return (q * np.exp(1j * e)) @ dagger(q) @ u


def minimize_witness(rho, sys: CoupledSpinSystem, budget: OptimizerBudget = OptimizerBudget()):
    """Minimize tr(W_U rho) over product unitaries U = U1 otimes U2, on the Hermitian part of rho.

    Returns ``(value, u1, u2)``, the best iterate's tr((U1 otimes U2) W (.)^dag rho) and unitaries.
    Each restart takes up to ``budget.iterations`` Riemannian steepest-descent steps on U(N) x U(N)
    (Abrudan, Eriksson, Koivunen, IEEE TSP 56, 2008), U_k -> exp(mu G_k) U_k along geodesics, with
    the value and G_k from :func:`_twisted_witness_terms`: W and the twisted state are never built,
    and a step is O(N^4).  mu halves until f drops by mu (|G1|^2 + |G2|^2) / 2 and doubles after
    each step; a restart ends once the gradient vanishes.  Restarts draw independent RNG streams
    split from the seed, one spawned as each starts; restart 0 starts at the identity, so the
    result never exceeds tr(W rho).  rho is the matrix its record holds (:func:`states._as_states`).
    """
    n = sys.n
    # Minimizing tr(W U rho U^dag) over U = U1 x U2 is the same search with U replaced by its
    # adjoint; twist the state, undo at the end.  The loop meets only arrays it built: none gated.
    a = _as_states(rho, n).matrices()[0]
    eye, best_val, best_u, root = np.eye(n), np.inf, None, np.random.SeedSequence(budget.seed)
    for r in range(budget.restarts):
        rng = np.random.default_rng(root.spawn(1)[0])
        u1, u2 = (eye, eye) if r == 0 else (haar_unitary(n, rng), haar_unitary(n, rng))
        val, gradients = _twisted_witness_terms(a, u1, u2, sys)
        mu = 1.0
        for _ in range(budget.iterations):
            g1, g2 = gradients()
            sq = float(np.vdot(g1, g1).real + np.vdot(g2, g2).real)
            if sq < _GRADIENT_TOL ** 2:
                break
            while mu > _STEP_MIN:
                t1, t2 = _geodesic_step(g1, mu, u1), _geodesic_step(g2, mu, u2)
                trial, trial_gradients = _twisted_witness_terms(a, t1, t2, sys)
                if trial <= val - mu * sq / 2:
                    break
                mu /= 2
            else:
                break  # no step beats rounding noise: numerically stationary
            u1, u2, val, gradients, mu = t1, t2, trial, trial_gradients, 2 * mu
        if val < best_val:
            best_val, best_u = val, (u1, u2)

    # The witness twist that realizes the value is the adjoint of the state twist.
    return float(best_val), dagger(best_u[0]), dagger(best_u[1])


@lru_cache(maxsize=None)
def _sectors(n: int) -> tuple[_Sectors, _Sectors]:
    """The J_z sectors of T_2 rho (labels a - b) and of R rho (labels a + b), gathered from rho.

    rho commutes with J_z when it vanishes between different a + b (local
    index a holds m = j - a), as the states of a ``sector``
    :class:`states._States` record do.  T_2 and R are signed index
    permutations that carry exactly those zeros to the entries between
    different labels of their own; T_2 carries rho's J_z blocks, entry for
    entry, to the blocks of T_2 rho.  The signs
    (-1)^(b+d) of R are left out: they conjugate each block by a diagonal
    of +-1, which keeps its singular values and its Hermiticity.
    """
    n2 = n * n

    def t2(i, j):  # T_2 rho[(a, b), (c, d)] = rho[(a, d), (c, b)]
        (a, b), (c, d) = np.divmod(i, n), np.divmod(j, n)
        return (a * n + d) * n2 + c * n + b

    def r(i, j):  # R rho[(a, b), (c, d)] = +-rho[(n-1-d, a), (c, n-1-b)], see realign
        (a, b), (c, d) = np.divmod(i, n), np.divmod(j, n)
        return ((n - 1 - d) * n + a) * n2 + c * n + n - 1 - b

    a, b = np.divmod(np.arange(n2), n)
    return _Sectors(a - b, t2), _Sectors(a + b, r)


@lru_cache(maxsize=None)
def _witness_terms(sys: CoupledSpinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat positions in rho that tr(W rho) reads, and psi_0 and its conjugate on its support.

    In order, N^2 positions each: the diagonal entries, the entries
    rho[i, j] with i and j on the support of psi_0 (N of them), and the
    entries rho[i, F(i)].
    """
    n2 = sys.n ** 2
    i = np.arange(n2)
    support = np.flatnonzero(sys.singlet)
    positions = np.concatenate([i * (n2 + 1), (support[:, None] * n2 + support).ravel(),
                                i * n2 + _swap_index(sys.n)])
    psi = sys.singlet[support]
    return positions, psi, psi.conj()


def _witness_values(states: _States, sys: CoupledSpinSystem) -> np.ndarray:
    """tr(W rho) = tr rho - N <psi_0|rho|psi_0> - tr F rho for each state of a record, from 3 N^2 entries.

    W is never built.  Each sum runs over one row, so a state gets the same bits in any stack.
    """
    n, n2 = sys.n, sys.n ** 2
    positions, psi, psi_conj = _witness_terms(sys)
    values = states.take(positions)
    diag, singlet, swap = values[:, :n2], values[:, n2:2 * n2], values[:, 2 * n2:]
    expectation = ((singlet.reshape(-1, n, n) * psi).sum(axis=-1) * psi_conj).sum(axis=-1)
    return (diag.sum(axis=-1) - n * expectation - swap.sum(axis=-1)).real


def _twisted_witness_terms(rho: np.ndarray, u1: np.ndarray, u2: np.ndarray, sys: CoupledSpinSystem):
    """tr(W sigma), sigma = U rho U^dag for U = U1 otimes U2, and a function giving (G1, G2); O(N^4).

    From rho, phi = U^dag psi_0 (the N x N U1^dag Psi_0 conj(U2)) and X = U1^dag U2: the value is
    Re(tr rho - tr h1), and G_k = U_k (h_k^dag - h_k) U_k^dag, tr_2 and tr_1 of sigma W - W sigma
    for Hermitian rho; h1 = N Y phi^dag + Z1 X^dag, h2 = N Y^T conj(phi) + Z2 X, Y = rho phi,
    Z1[i,q] = sum rho[(i,j),(p,q)] X[p,j] and Z2[j,p] = sum rho[(i,j),(p,q)] conj(X[i,q]).
    """
    n, r3 = sys.n, rho.reshape(sys.n, -1, sys.n)  # rho[(i,j),(p,q)] at [i, j n + p, q]
    phi, x = dagger(u1) @ sys.singlet.reshape(n, n) @ u2.conj(), dagger(u1) @ u2
    y, z1 = (rho @ phi.ravel()).reshape(n, n), x.T.ravel() @ r3

    def gradients():
        z2 = (r3 @ x.conj()[:, :, None]).sum(axis=0).reshape(n, n)
        k1 = u1 @ (n * y @ dagger(phi) + z1 @ dagger(x)) @ dagger(u1)
        k2 = u2 @ (n * y.T @ phi.conj() + z2 @ x) @ dagger(u2)
        return dagger(k1) - k1, dagger(k2) - k2
    return float((np.trace(rho) - n * np.vdot(phi, y) - np.vdot(x, z1)).real), gradients


def _functionals(states: _States, sys: CoupledSpinSystem):
    """The ungated core of :func:`functionals`, for a :class:`states._States` record.

    The record holds every state exactly Hermitian, and its sector decision
    is read once for the stack; the route only picks how each functional's
    blocks are gathered.  A sector stack gives its J_z blocks; any other
    gives T_2 rho whole, as a permutation, and R rho as its pair form C
    (:func:`_realignment_pair_forms`), whose imaginary parts are exact zeros
    for an exactly Hermitian rho, so ``C.real`` takes the real kernels, about
    half the cost of the complex ones.  Each block list is gathered only as
    its norm is taken, so the two are never alive together (at N = 256 one
    list of a family row is about 170 MB).  T_2 rho - (T_2 rho)^dag = T_2
    (rho - rho^dag) entry for entry, so T_2 rho is exactly Hermitian too and
    is marked so, untested; each member's blocks of R rho are tested and
    routed on their own (:func:`linalg.trace_norms`).
    """
    n = sys.n
    if states.sector:
        t2, r = (partial(states.blocks, s) for s in _sectors(n))
    else:
        t2 = lambda: [_partial_transposes(states.array, n)[:, None]]
        r = lambda: [_realignment_pair_forms(states.array, n).real[:, None]]
    return trace_norms(t2(), hermitian=True), trace_norms(r()), _witness_values(states, sys)


def functionals(stack, sys: CoupledSpinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """||T_2 rho||_1, ||R rho||_1 and tr(W rho) for each state of a (B, N^2, N^2) stack.

    The raw stack passes :func:`linalg.as_complex_stack` once; T_2 rho and
    R rho (or its real pair form) are gathered from rho, each followed by
    one trace-norm call, and tr(W rho) is read from the swap form
    W = I - N P_0 - F, O(N^2) entries of rho, without W.
    Each rho is read as its Hermitian part (rho + rho^dag) / 2, whatever
    its error, as a DensityMatrix and :func:`minimize_witness` read it
    (:class:`states._States`); an exactly Hermitian rho is read as given.
    The gathering is decided once for the stack: J_z blocks gathered straight
    from rho, O(N^4) work, only if every state vanishes exactly between
    different sectors (m_1 + m_2), as the family, Werner and isotropic
    states do, else whole matrices, O(N^6); the eigensolve or SVD of R rho
    is each member's own.  A state gets the bits it gets alone in any stack
    whose states agree on the gathering, as every stack a command builds
    does; any other stack takes the dense route, within rounding of those bits.
    """
    a = as_complex_stack(stack, (sys.n ** 2, sys.n ** 2))
    return _functionals(_States(sys.n, len(a), array=a), sys)


@dataclass(frozen=True)
class CriteriaVerdict:
    """Outcome of all three separability tests on one state."""

    ppt_violated: bool
    realignment_violated: bool
    witness_value: float
    witness_detects: bool
    trace_norm_T2: float
    trace_norm_R: float


def _verdict_columns(states: _States, sys: CoupledSpinSystem) -> tuple[np.ndarray, ...]:
    """The fields of :class:`CriteriaVerdict` as arrays, one entry per state of a record, in field order."""
    t2, rn, wval = _functionals(states, sys)
    return t2 > 1 + VERDICT_TOL, rn > 1 + VERDICT_TOL, wval, wval < -VERDICT_TOL, t2, rn


def _verdicts(states: _States, sys: CoupledSpinSystem) -> list[CriteriaVerdict]:
    """The ungated core of :func:`verdicts`, for a :class:`states._States` record."""
    return [CriteriaVerdict(*fields)
            for fields in zip(*(c.tolist() for c in _verdict_columns(states, sys)))]


def verdicts(stack, sys: CoupledSpinSystem) -> list[CriteriaVerdict]:
    """One verdict per state of a raw (B, N^2, N^2) stack (see :func:`functionals`)."""
    a = as_complex_stack(stack, (sys.n ** 2, sys.n ** 2))
    return _verdicts(_States(sys.n, len(a), array=a), sys)


def evaluate_criteria(rho, sys: CoupledSpinSystem) -> CriteriaVerdict:
    """Run the partial-transpose, realignment and witness tests on a state.

    The B = 1 case of :func:`verdicts`.  A DensityMatrix enters as the
    record of its validation, so nothing about it is decided again, and the
    family, Werner and isotropic states enter as their J_z blocks, so their
    N^2 x N^2 matrix is never built here; anything else is gated by
    :func:`states.as_matrix`.
    """
    return _verdicts(_as_states(rho, sys.n), sys)[0]
