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

from .criteria import CriteriaVerdict
from .spinspace import _require_even


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

    gamma(lam) = [sqrt(lam) + sqrt((n-1)(n-lam))]^2 / n^2, clamped at its
    maximum gamma(1) = 1, which rounding can pass for lam a few ulps above 1.
    """
    n = _check_domain(lam, n)
    return float(min((np.sqrt(lam) + np.sqrt((n - 1) * (n - lam))) ** 2 / n ** 2, 1.0))


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
    the straight line  log2(n-1)/(n-2) (lam0 - n) + log2 n  up to lam0 = n:
    exactly the lower convex envelope of R.  What stays conjectural for
    n > 2 (Terhal-Vollbrecht) is that R(lam) is the least Schmidt entropy at lam.
    """
    n = _check_domain(lam0, n)
    breakpoint_ = 4 * (n - 1) / n
    if lam0 <= breakpoint_:
        return min_schmidt_entropy(lam0, n)
    return float(np.log2(n - 1) / (n - 2) * (lam0 - n) + np.log2(n))


def _constraint_value(f: float, n: int) -> float:
    """The entropy-hull argument 1 + f, clamped to [1, n]."""
    return float(min(max(1.0 + f, 1.0), float(n)))


def _check_functional(f: float, n: int) -> int:
    """``n`` if it is even and >= 4 and the functional value ``f`` is finite, else raise."""
    n = _require_even(n, minimum=4)
    if not np.isfinite(f):
        raise ValueError(f"functional value must be finite, got {f}")
    return n


def concurrence_from_functional(f: float, n: int) -> float:
    """Concurrence lower bound sqrt(2/(n(n-1))) max(f, 0) from a finite functional value f."""
    n = _check_functional(f, n)
    # "+ 0.0" normalizes -0.0 from clamped negative functionals
    return float(np.sqrt(2 / (n * (n - 1))) * max(f, 0.0) + 0.0)


def eof_from_functional(f: float, n: int) -> float:
    """Entanglement-of-formation lower bound co R(1 + f) from a finite functional value f.

    Over the two trace-norm functionals alone it is the older Chen-Albeverio-Fei bound.
    """
    n = _check_functional(f, n)
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
    The witness functionals are negated values, so a zero is reported as
    +0.0 (``+ 0.0``), never -0.0.
    """
    f_ppt = verdict.trace_norm_T2 - 1.0
    f_realign = verdict.trace_norm_R - 1.0
    f_w = -verdict.witness_value + 0.0
    candidates = [f_ppt, f_realign, f_w]
    if f_witness_optimized is not None:
        f_witness_optimized += 0.0
        candidates.append(f_witness_optimized)
    for f in candidates:  # max() would skip a NaN that is not first
        _check_functional(f, n)
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


@dataclass(frozen=True)
class FamilyCurvePoint:
    """One row of the singlet/Werner family sweep, the columns ``family`` prints.

    ``tr_W_rho``, ``norm_T2`` and ``norm_R`` are the three functionals'
    inputs; ``bound_*`` are the concurrence bounds from the witness, the
    partial transpose and realignment (clamped at zero) and the upper line;
    ``eof_new`` is the EoF bound over all three functionals, ``eof_old``
    over the two trace norms only, and ``eof_upper`` the upper line.
    """

    lam: float
    tr_W_rho: float
    bound_witness: float
    norm_T2: float
    bound_ppt: float
    norm_R: float
    bound_realign: float
    bound_upper: float
    eof_new: float
    eof_old: float
    eof_upper: float
