"""Test-only conveniences built from the public API."""

import sys
from dataclasses import astuple, fields
from unittest import mock

import numpy as np

from entbound import (FamilyCurvePoint, PureState, SchmidtForm, concurrence_from_functional,
                      coupled_system, criteria, eof_from_functional, evaluate_criteria,
                      family_state, haar_unitary, linalg, load_state, random_density,
                      report_from_verdict, states)
from entbound.cli import FAMILY_COLUMNS, SURVEY_COLUMNS, SURVEY_FAMILY_LAMBDAS, _fmt
from entbound.spinspace import _swap_index


def count_calls(monkeypatch, function, owner=linalg):
    """Count calls of ``owner.function`` made through it or through any entbound module."""
    calls = []
    original = getattr(owner, function)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, function, counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("entbound") and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counting)
    return calls


def bound_report(rho, sys_):
    """The bound report of one state: its verdict through report_from_verdict."""
    return report_from_verdict(evaluate_criteria(rho, sys_), sys_.n)


def family_row(sys_, lam: float) -> FamilyCurvePoint:
    """The numeric family row at lam, one state at a time: family_state and evaluate_criteria.

    The oracle of ``cli._family_rows``, which evaluates a grid as stacks of
    J_z block states: every row must have the same bits.
    """
    n = sys_.n
    v = evaluate_criteria(family_state(sys_, lam), sys_)
    report = report_from_verdict(v, n)
    return FamilyCurvePoint(
        lam=lam,
        tr_W_rho=v.witness_value + 0.0,
        bound_witness=concurrence_from_functional(report.f_witness, n),
        norm_T2=v.trace_norm_T2,
        bound_ppt=concurrence_from_functional(report.f_ppt, n),
        norm_R=v.trace_norm_R,
        bound_realign=concurrence_from_functional(report.f_realign, n),
        bound_upper=np.sqrt(2 * (n - 1) / n) * lam,
        eof_new=report.eof_lower,
        eof_old=eof_from_functional(max(report.f_ppt, report.f_realign), n),
        eof_upper=lam * np.log2(n),
    )


def family_csv(sys_, lams) -> str:
    """The text ``family`` prints for the grid ``lams``, from the rows of :func:`family_row`."""
    rows = (family_row(sys_, float(lam)) for lam in lams)
    return "".join(line + "\n" for line in [",".join(FAMILY_COLUMNS)] + [
        ",".join(_fmt(getattr(row, f.name)) for f in fields(row)) for row in rows])


def survey_csv(sys_, rank: int, samples: int, seed: int, include_family: bool = False) -> str:
    """The text ``survey`` prints, one state at a time: random_density and evaluate_criteria.

    The oracle of ``cli.cmd_survey``, which samples, validates and
    evaluates its states as stacks and prints its rows without building a
    verdict per state: every row must have the same bits.
    """
    named = [(f"family({lam})", family_state(sys_, lam))
             for lam in (SURVEY_FAMILY_LAMBDAS if include_family else ())]
    named += [(f"random{k}", random_density(sys_, rank, child))
              for k, child in enumerate(np.random.SeedSequence(seed).spawn(samples))]
    lines = [",".join(SURVEY_COLUMNS)]
    counts = [0, 0, 0, 0]
    for name, rho in named:
        v = evaluate_criteria(rho, sys_)
        lines.append(",".join([name, *map(_fmt, astuple(v))]))
        counts = [c + x for c, x in zip(counts, (
            v.ppt_violated, v.realignment_violated, v.witness_detects,
            v.witness_detects and not v.ppt_violated and not v.realignment_violated))]
    lines.append("# summary states={} ppt={} realign={} witness={} witness_only={}".format(
        len(named), *counts))
    return "".join(line + "\n" for line in lines)


def exactly_hermitian(blocks):
    """Is ||M - M^dag||_max 0 for each member M given by its blocks (linalg._hermitian_test)?"""
    return linalg._hermitian_test(blocks) == 0


def hermitian_part(m):
    """(m + m^dag) / 2 of a matrix or of each matrix of a stack, a new array, in numpy arithmetic."""
    m = np.asarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def noisy_product(n: int, eps: float) -> np.ndarray:
    """|00><00| + i eps B on C^N otimes C^N: ||rho - rho^dag||_max = 2 eps, trace 1.

    B is a symmetric +-1 pattern with zero diagonal (``default_rng(1)``), so
    i eps B is anti-Hermitian and the Hermitian part is |00><00| exactly.  For
    eps = 4.9e-11 and 4.9e-13 the density check accepts it, and trace norms
    of rho itself exceed 1 by up to 2e-8.
    """
    d = n * n
    b = np.triu(np.random.default_rng(1).choice([-1.0, 1.0], size=(d, d)), 1)
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return m + 1j * eps * (b + b.T)


def hermitian_part_path():
    """A context in which every array-backed state record holds the Hermitian part of each member.

    Members with error 0 then are held as (rho + rho^dag) / 2 too: the
    oracle of the record, which holds them as given and must not change a
    bit for states whose signed zeros match.
    """
    init = states._States.__init__

    def always(self, n, size, array=None, entries=None):
        init(self, n, size, array, entries)
        if array is not None:
            self.array = hermitian_part(self.array)
            self.sector = states._is_sector_stack(self.array, n)
    return mock.patch.object(states._States, "__init__", always)


# Dense N^2 x N^2 oracles of the structured states, with the arithmetic the
# package used before it built them as their J_z blocks.

def werner_matrix(sys_) -> np.ndarray:
    n = sys_.n
    m = np.eye(n * n)
    m[np.arange(n * n), _swap_index(n)] += 1
    return 2 / (n * (n + 1)) * (m / 2)


def family_matrix(sys_, lam) -> np.ndarray:
    p0 = np.outer(sys_.singlet, sys_.singlet.conj())
    return lam * p0 + (1 - lam) * werner_matrix(sys_)


def isotropic_matrix(sys_, fidelity) -> np.ndarray:
    n = sys_.n
    p0 = np.outer(sys_.singlet, sys_.singlet.conj())
    rest = (np.eye(n * n) - p0) / (n * n - 1)
    return fidelity * p0 + (1 - fidelity) * rest


def dense_witness_search(rho, sys_, u1, u2):
    """tr(W sigma), tr_2 C and tr_1 C for sigma = U rho U^dag, U = U1 kron U2, C = sigma W - W sigma.

    The dense oracle of the witness search: the Kronecker twist, the cached
    N^2 x N^2 W and two partial traces of the commutator.
    """
    n = sys_.n
    w = criteria.build_witness(sys_)
    u = np.kron(u1, u2)
    sigma = u @ rho @ u.conj().T
    c = (sigma @ w - w @ sigma).reshape(n, n, n, n)
    return (float(np.einsum("ij,ji->", w, sigma).real),
            np.einsum("ikjk->ij", c), np.einsum("kikj->ij", c))


def witness_gradients(sigma, sys_):
    """G1 = tr_2 C and G2 = tr_1 C, C = sigma W - W sigma, for Hermitian sigma in O(N^4), without W.

    C = H - H^dag for H = sigma W = sigma - N sigma P_0 - sigma F; tr_k sigma is Hermitian and
    cancels, so G_k = h_k^dag - h_k, exactly anti-Hermitian, for h_k = tr_k(N sigma P_0 + sigma F).
    """
    n, psi = sys_.n, sys_.singlet.reshape(sys_.n, sys_.n)
    s, y = sigma.reshape(n, n, n, n), n * (sigma @ sys_.singlet).reshape(n, n)
    h1 = y @ psi.conj().T + np.einsum("abbc->ac", s)  # (sigma F)[(a,b),(c,d)] = sigma[(a,b),(d,c)]
    h2 = y.T @ psi.conj() + np.einsum("abda->bd", s)
    return h1.conj().T - h1, h2.conj().T - h2


def sigma_witness_search(rho, sys_, u1, u2):
    """tr(W sigma), G1 and G2 for sigma = U rho U^dag, U = U1 kron U2, from the twisted sigma.

    The sigma-route oracle of the witness search: sigma by ``criteria.twisted_witness``
    (O(N^5)), tr(W sigma) from 3 N^2 of its entries as ``functionals`` reads a
    state, and the swap-form gradients of :func:`witness_gradients`.
    """
    sigma = criteria.twisted_witness(rho, u1, u2)
    value = criteria._witness_values(states._States(sys_.n, 1, array=sigma[None]), sys_)[0]
    return (value, *witness_gradients(sigma, sys_))


def stacked_realignments(stack, n: int) -> np.ndarray:
    """R rho of each matrix of a (B, n^2, n^2) stack, as one signed permutation of a 5-d view.

    The oracle of :func:`criteria.realign`, which must give the same bits
    for each matrix alone.
    """
    r = np.asarray(stack).reshape(-1, n, n, n, n)[:, ::-1, :, :, ::-1]
    signed = np.multiply(r.transpose(0, 2, 4, 3, 1), criteria._flip_signs(n), order="C")
    return signed.reshape(-1, n * n, n * n)


def one_block(stack):
    """A (B, d, d) stack as members of one block each, as trace_norms and exactly_hermitian take it."""
    return [np.asarray(stack)[:, None]]


def product_pure(a, b) -> PureState:
    """Pure product state from two local vectors (normalized)."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    v = np.kron(av / np.linalg.norm(av), bv / np.linalg.norm(bv))
    return PureState(n_local=av.size, vector=v)


def random_product_unitary(sys_, seed):
    """Pair (U1, U2) of independent Haar unitaries on the local space."""
    rng = np.random.default_rng(seed)
    return haar_unitary(sys_.n, rng), haar_unitary(sys_.n, rng)


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Rebuild the state vector sum_i alpha_i b1_i otimes b2_i."""
    n = form.basis_1.shape[0]
    out = np.zeros(n * n, dtype=np.complex128)
    for i, alpha in enumerate(form.coefficients):
        out += alpha * np.kron(form.basis_1[:, i], form.basis_2[:, i])
    return out


def load_whole_file(path):
    """load_state with the row reader off: json.loads of the whole text, then the pair conversion.

    The oracle of the row reader: every file must give the same state, or
    the same exception and message, either way.
    """
    with mock.patch.object(states, "_matrix_rows", return_value=None):
        return load_state(path)


# Edits of one off-diagonal pair (i, j) of a dense state at the edges of the
# exact routes, which ||rho - rho^dag||_max = 0 decides.

def edge_base(n: int) -> np.ndarray:
    """An exactly Hermitian dense N^2 x N^2 state far inside the valid states.

    Half a random state and half the maximally mixed one: its smallest
    eigenvalue is at least 1 / (2 N^2), so editing one small entry keeps it
    valid, and no entry vanishes, so it stays off the J_z sector path.
    """
    d = n * n
    rho = random_density(coupled_system(n), d, n).matrix
    return (rho + np.eye(d) / d) / 2


def smallest_pair(m: np.ndarray) -> tuple[int, int]:
    """The off-diagonal position (i, j), i < j, of the entry of least modulus."""
    i, j = np.triu_indices(len(m), 1)
    k = np.abs(m[i, j]).argmin()
    return int(i[k]), int(j[k])


def signed_zero_real(m, i, j):
    m[i, j], m[j, i] = complex(0.0, m[i, j].imag), complex(-0.0, m[j, i].imag)


def both_minus_zero_imag(m, i, j):
    m[i, j], m[j, i] = complex(m[i, j].real, -0.0), complex(m[i, j].real, -0.0)


def both_plus_zero_imag(m, i, j):
    m[i, j], m[j, i] = complex(m[i, j].real, 0.0), complex(m[i, j].real, 0.0)


def minus_zero_diagonal(m, i, j):
    m[i, i] = complex(m[i, i].real, -0.0)


def one_ulp(m, i, j):
    m[i, j] = complex(np.nextafter(m[i, j].real, np.inf), m[i, j].imag)


def skew_1e13(m, i, j):
    m[i, j] += 1e-13


def huge_pair(m, i, j):
    m[i, j] = m[j, i] = 2.0 ** 1023


def nan_entry(m, i, j):
    m[i, j] = complex(np.nan, 0.0)


# each edit, and whether the edited matrix has ||rho - rho^dag||_max 0
EDGES = {"signed zero real part": (signed_zero_real, True),
         "two -0.0 imaginary parts": (both_minus_zero_imag, True),
         "two +0.0 imaginary parts": (both_plus_zero_imag, True),
         "-0.0 diagonal imaginary part": (minus_zero_diagonal, True),
         "1 ulp": (one_ulp, False),
         "1e-13": (skew_1e13, False)}
