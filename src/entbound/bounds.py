"""Lower bounds for concurrence and entanglement of formation.

Three convex functionals of a state feed the bounds: the partial-transpose
trace norm minus one, the realignment trace norm minus one, and minus the
witness expectation.  Each is at most the off-diagonal Schmidt-coefficient
sum on pure states, which is what turns their maximum into a concurrence
bound (after scaling) and, through the minimal-entropy profile below, into
an entanglement-of-formation bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform
from .criteria import (CriteriaVerdict, OptimizerBudget, evaluate_criteria,
                       minimize_witness)
from .spinspace import CoupledSpinSystem, _require_even
from .states import as_matrix


def binary_entropy(x: float) -> float:
    """H2(x) in bits with the convention 0 log 0 = 0."""
    if not 0 <= x <= 1:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    total = 0.0
    for p in (x, 1 - x):
        if p > 0:
            total -= p * np.log2(p)
    return float(total)


def _check_domain(lam: float, n: int) -> int:
    n = _require_even(n, minimum=4)
    if not 1 <= lam <= n:
        raise ValueError(f"constraint value must lie in [1, {n}], got {lam}")
    return n


def extremal_schmidt_weight(lam: float, n: int) -> float:
    """Largest Schmidt weight of the entropy-minimizing state at constraint lam.

    gamma(lam) = [sqrt(lam) + sqrt((n-1)(n-lam))]^2 / n^2.
    """
    n = _check_domain(lam, n)
    return float((np.sqrt(lam) + np.sqrt((n - 1) * (n - lam))) ** 2 / n ** 2)


def min_schmidt_entropy(lam: float, n: int) -> float:
    """Minimal Schmidt-weight entropy at fixed sum_ij alpha_i alpha_j = lam.

    R(lam) = H2(gamma) + (1 - gamma) log2(n-1); R(1) = 0, R(n) = log2 n,
    nondecreasing in between.
    """
    n = _check_domain(lam, n)
    g = extremal_schmidt_weight(lam, n)
    return binary_entropy(g) + (1 - g) * float(np.log2(n - 1))


def min_schmidt_entropy_hull(lam0: float, n: int) -> float:
    """Convex hull of the minimal-entropy profile, evaluated at lam0.

    Coincides with min_schmidt_entropy on [1, 4(n-1)/n] and continues as
    the straight line  log2(n-1)/(n-2) (lam0 - n) + log2 n  up to lam0 = n.
    The piecewise form follows the Terhal-Vollbrecht description of the
    hull, whose exactness is conjectural for n > 2 but standard practice.
    """
    n = _check_domain(lam0, n)
    breakpoint_ = 4 * (n - 1) / n
    if lam0 <= breakpoint_:
        return min_schmidt_entropy(lam0, n)
    return float(np.log2(n - 1) / (n - 2) * (lam0 - n) + np.log2(n))


def _constraint_value(f: float, n: int) -> float:
    """The entropy-hull argument 1 + f, clamped to [1, n]."""
    return float(min(max(1.0 + f, 1.0), float(n)))


def concurrence_from_functional(f: float, n: int) -> float:
    """Concurrence lower bound sqrt(2/(n(n-1))) max(f, 0) from a functional value f."""
    # "+ 0.0" normalizes -0.0 from clamped negative functionals
    return float(np.sqrt(2 / (n * (n - 1))) * max(f, 0.0) + 0.0)


def eof_from_functional(f: float, n: int) -> float:
    """Entanglement-of-formation lower bound co R(1 + f) from a functional value f.

    Over the two trace-norm functionals alone it is the older Chen-Albeverio-Fei bound.
    """
    return min_schmidt_entropy_hull(_constraint_value(f, n), n)


@dataclass(frozen=True)
class BoundReport:
    """All criterion functionals and the two derived bounds for one state."""

    f_ppt: float
    f_realign: float
    f_witness: float
    f_witness_optimized: float | None
    concurrence_lower: float
    lambda0: float
    eof_lower: float


def report_from_verdict(verdict: CriteriaVerdict, n: int,
                        f_witness_optimized: float | None = None) -> BoundReport:
    """Derive both bounds from the largest functional that one verdict carries.

    Raw (possibly negative) functional values are reported as-is; clamping
    to zero happens only in the derived concurrence bound.
    ``f_witness_optimized`` is minus the minimized twisted-witness value.
    """
    f_ppt = verdict.trace_norm_T2 - 1.0
    f_realign = verdict.trace_norm_R - 1.0
    f_w = -verdict.witness_value
    candidates = [f_ppt, f_realign, f_w]
    if f_witness_optimized is not None:
        candidates.append(f_witness_optimized)
    best = max(candidates)
    return BoundReport(
        f_ppt=f_ppt,
        f_realign=f_realign,
        f_witness=f_w,
        f_witness_optimized=f_witness_optimized,
        concurrence_lower=concurrence_from_functional(best, n),
        lambda0=_constraint_value(best, n),
        eof_lower=eof_from_functional(best, n),
    )


def concurrence_lower_bound(rho, sys: CoupledSpinSystem, optimize: bool = False,
                            budget: OptimizerBudget | None = None) -> BoundReport:
    """Evaluate the criteria on a state and apply :func:`report_from_verdict`.

    ``optimize`` adds the witness functional sharpened over product unitaries.
    """
    m = as_matrix(rho)
    verdict = evaluate_criteria(m, sys)
    f_opt = -minimize_witness(m, sys, budget)[0] if optimize else None
    return report_from_verdict(verdict, sys.n, f_opt)


@dataclass(frozen=True)
class FamilyCurvePoint:
    """Closed-form bound curves of the singlet/Werner family at one lam.

    ``bound_*`` values are clamped at zero for reporting; the unclamped
    formula values are kept in ``raw_*``.
    """

    lam: float
    bound_witness: float
    bound_ppt: float
    bound_realign: float
    bound_upper: float
    eof_new: float
    eof_old: float
    eof_upper: float
    raw_witness: float
    raw_ppt: float
    raw_realign: float


def family_bounds_closed_form(n: int, lam: float) -> FamilyCurvePoint:
    """Exact bound curves for the singlet/Werner family.

    Concurrence: the witness line sqrt(2(n-1)/n) (n-2)/(n-1) lam, the
    partial-transpose and realignment curves sqrt(2/(n(n-1))) (norm - 1)
    over the exact norms of :func:`closedform.family_trace_norms` (the
    realignment curve is negative below lam = 1/(n+2)), and the upper line
    sqrt(2(n-1)/n) lam.  Entanglement of formation: hull of the
    minimal-entropy profile at the constraint value with and without the
    witness functional, plus the upper line lam log2 n.
    """
    t2_norm, re_norm = closedform.family_trace_norms(n, lam)  # validates n, lam
    n = int(n)
    pref = np.sqrt(2 * (n - 1) / n)
    scale = np.sqrt(2 / (n * (n - 1)))

    raw_witness = float(pref * (n - 2) / (n - 1) * lam)
    raw_ppt = float(scale * (t2_norm - 1))
    raw_realign = float(scale * (re_norm - 1))
    lam0_new = min(max(max(n * lam, (n - 2) * lam + 1.0), 1.0), float(n))
    lam0_old = min(max(max(t2_norm, re_norm), 1.0), float(n))

    return FamilyCurvePoint(
        lam=lam,
        bound_witness=max(raw_witness, 0.0) + 0.0,
        bound_ppt=max(raw_ppt, 0.0) + 0.0,
        bound_realign=max(raw_realign, 0.0) + 0.0,
        bound_upper=float(pref * lam),
        eof_new=min_schmidt_entropy_hull(lam0_new, n),
        eof_old=min_schmidt_entropy_hull(lam0_old, n),
        eof_upper=float(lam * np.log2(n)),
        raw_witness=raw_witness,
        raw_ppt=raw_ppt,
        raw_realign=raw_realign,
    )


def isotropic_reference(n: int, fidelity: float) -> tuple[float, float, float]:
    """(exact concurrence, partial-transpose bound, witness bound) for isotropic states.

    Exact concurrence is sqrt(2n/(n-1)) (f - 1/n) above f = 1/n and zero
    below; the partial-transpose bound reproduces it exactly, the witness
    bound is the factor (n-2)/(n-1) weaker.
    """
    n = _require_even(n, minimum=4)
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    if fidelity <= 1 / n:
        return 0.0, 0.0, 0.0
    exact = float(np.sqrt(2 * n / (n - 1)) * (fidelity - 1 / n))
    return exact, exact, float((n - 2) / (n - 1) * exact)
