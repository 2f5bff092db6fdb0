"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Criteria 1, 2, 4 and 7 run ``entbound verify`` suites and require
exit code 0; those tolerances are fixed in ``entbound.cli``.  The other
criteria pin theirs here; nothing is deferred to calibration.  A line's
elapsed time is printed, never judged.
"""

import time

import numpy as np

from entbound import (OptimizerBudget, build_witness, coupled_system,
                      eof_from_functional, evaluate_criteria, extended_reduction_map,
                      family_state, isotropic_state, min_schmidt_entropy_hull,
                      minimize_witness, twisted_witness, witness_value)
from entbound.cli import main
from entbound.closedform import (family_bounds_closed_form, isotropic_reference,
                                 partial_time_reversal, realign_reshuffle)
from entbound.linalg import trace_norms
from entbound.states import haar_unitary, random_density
from helpers import bound_report, one_block


def report(name, ok, detail):
    print(f"\n[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_witness_structure():
    t0 = time.perf_counter()
    coupled_system.cache_clear()
    codes = [main(["verify", "witness", "--n", str(n)]) for n in (4, 6, 8)]
    elapsed = time.perf_counter() - t0
    ok = codes == [0, 0, 0]
    report("criterion 1 witness structure",
           ok, f"verify_witness_exit_codes(n=4,6,8)={codes} elapsed={elapsed:.2f}s")


def test_criterion_02_family_oracle_equality():
    t0 = time.perf_counter()
    codes = [main(["verify", "appendixB", "--n", str(n)]) for n in (4, 6)]
    elapsed = time.perf_counter() - t0
    ok = codes == [0, 0]
    report("criterion 2 closed-form trace norms",
           ok, f"verify_appendixB_exit_codes(n=4,6)={codes} elapsed={elapsed:.2f}s")


def test_criterion_03_ppt_entangled_window():
    t0 = time.perf_counter()
    min_eig = 0.0
    max_wit = -np.inf
    for n in (4, 6, 8):
        sys_ = coupled_system(n)
        w = build_witness(sys_)
        for lam in np.linspace(1e-4, 1 / (n + 2), 10):
            rho = family_state(sys_, float(lam)).matrix
            min_eig = min(min_eig, float(np.linalg.eigvalsh(
                partial_time_reversal(rho, sys_))[0]))
            max_wit = max(max_wit, witness_value(w, rho))
    elapsed = time.perf_counter() - t0
    ok = min_eig >= -1e-10 and max_wit < 0
    report("criterion 3 PPT-entangled window",
           ok, f"min_theta2_eig={min_eig:.2e} max_witness_value={max_wit:.2e} "
               f"elapsed={elapsed:.2f}s")


def test_criterion_04_figure1_reproduction():
    code = main(["verify", "figures", "--n", "4"])
    printed_witness = {0.1: 0.08165, 0.25: 0.20412, 0.5: 0.40825,
                       0.75: 0.61237, 1.0: 0.81650}
    printed_ppt = {0.1: 0.0, 0.25: 0.10206, 0.5: 0.40825,
                   0.75: 0.81650, 1.0: 1.22474}
    print_err = 0.0
    for lam, wit_ref in printed_witness.items():
        point = family_bounds_closed_form(4, lam)
        # the reference values are printed to five decimals
        print_err = max(print_err,
                        abs(point.bound_witness - wit_ref),
                        abs(point.bound_ppt - printed_ppt[lam]))
    ok = code == 0 and print_err <= 1e-5
    report("criterion 4 figure-1 reproduction",
           ok, f"verify_figures_exit_code={code} printed_value_err={print_err:.2e}")


def test_criterion_05_figure2_reproduction():
    sys_ = coupled_system(4)
    # oracle values recomputed from the minimal-entropy hull formulas
    new_ref = min_schmidt_entropy_hull(1.5, 4)     # 0.16033079773273232
    old_ref = min_schmidt_entropy_hull(1.25, 4)    # 0.05182768894868844
    end_err = abs(bound_report(family_state(sys_, 1.0), sys_).eof_lower - 2.0)
    quarter = bound_report(family_state(sys_, 0.25), sys_)
    new_got = quarter.eof_lower
    old_got = eof_from_functional(max(quarter.f_ppt, quarter.f_realign), 4)
    quarter_ok = (abs(new_got - 0.1603) <= 1e-3 and abs(old_got - 0.0518) <= 1e-3
                  and abs(new_got - new_ref) <= 1e-9 and abs(old_got - old_ref) <= 1e-9)
    dominance_ok = True
    for k in range(101):
        rep = bound_report(family_state(sys_, k / 100), sys_)
        dominance_ok &= (rep.eof_lower
                         >= eof_from_functional(max(rep.f_ppt, rep.f_realign), 4) - 1e-12)
    ok = end_err <= 1e-9 and quarter_ok and dominance_ok
    report("criterion 5 figure-2 reproduction",
           ok, f"endpoint_err={end_err:.2e} eof_new(0.25)={new_got:.6f} "
               f"eof_old(0.25)={old_got:.6f} dominance_ok={dominance_ok}")


def test_criterion_06_positivity_suite():
    t0 = time.perf_counter()
    min_eig = 0.0
    idem_err = 0.0
    rng = np.random.default_rng(606)
    for n in (4, 6):
        sys_ = coupled_system(n)
        for _ in range(1000):
            phi = rng.normal(size=n) + 1j * rng.normal(size=n)
            phi /= np.linalg.norm(phi)
            out = extended_reduction_map(np.outer(phi, phi.conj()), sys_)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(out)[0]))
            idem_err = max(idem_err, float(np.abs(out @ out - out).max()))
    sys4 = coupled_system(4)
    w = build_witness(sys4)
    worst_sep = np.inf
    for _ in range(1000):
        terms = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(terms))
        val = 0.0
        for p in weights:
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            val += p * float((vec.conj() @ w @ vec).real)
        worst_sep = min(worst_sep, val)
    elapsed = time.perf_counter() - t0
    ok = min_eig >= -1e-10 and idem_err <= 1e-10 and worst_sep >= -1e-10
    report("criterion 6 positivity suite",
           ok, f"min_eig={min_eig:.2e} idempotence_err={idem_err:.2e} "
               f"min_separable_value={worst_sep:.2e} elapsed={elapsed:.2f}s")


def test_criterion_07_overlap_kernel_inequality():
    code = main(["verify", "appendixA", "--n", "4", "--samples", "10000", "--seed", "707"])
    report("criterion 7 overlap-kernel inequality",
           code == 0, f"verify_appendixA_exit_code={code}")


def test_criterion_08_isotropic_states():
    worst_ppt = 0.0
    worst_wit = 0.0
    for n in (4, 6, 8):
        sys_ = coupled_system(n)
        scale = np.sqrt(2 / (n * (n - 1)))
        for k in range(21):
            f = k * 0.05
            exact, ppt_ref, wit_ref = isotropic_reference(n, f)
            rep = bound_report(isotropic_state(sys_, f), sys_)
            if f > 1 / n:
                worst_ppt = max(worst_ppt, abs(scale * max(rep.f_ppt, 0) - exact))
            worst_wit = max(worst_wit, abs(scale * max(rep.f_witness, 0) - wit_ref))
    ok = worst_ppt <= 1e-9 and worst_wit <= 1e-9
    report("criterion 8 isotropic states",
           ok, f"ppt_vs_exact_err={worst_ppt:.2e} witness_vs_ref_err={worst_wit:.2e}")


def test_criterion_09_realignment_cross_check():
    sys_ = coupled_system(4)
    rng = np.random.default_rng(909)
    worst = 0.0
    for k in range(100):
        rank = int(rng.integers(1, 17))
        rho = random_density(sys_, rank, rng).matrix
        canonical = evaluate_criteria(rho, sys_).trace_norm_R
        reshuffled = trace_norms(one_block(realign_reshuffle(rho, 4)[None]))[0]
        worst = max(worst, abs(canonical - reshuffled))
    ok = worst <= 1e-9
    report("criterion 9 realignment cross-check", ok, f"max_norm_diff={worst:.2e}")


def test_criterion_10_optimizer_sanity():
    t0 = time.perf_counter()
    sys_ = coupled_system(4)
    rho = family_state(sys_, 0.3).matrix
    w = build_witness(sys_)
    untwisted_value = witness_value(w, rho)            # -0.6
    rng = np.random.default_rng(1010)
    u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
    u = np.kron(u1, u2)
    rho_twisted = u @ rho @ u.conj().T
    identity_candidate = witness_value(w, rho_twisted)
    val, best1, best2 = minimize_witness(rho_twisted, sys_,
                                         OptimizerBudget(seed=42))
    re_eval = float(np.einsum("ij,ji->", twisted_witness(w, best1, best2),
                              rho_twisted).real)
    elapsed = time.perf_counter() - t0
    ok = (val <= untwisted_value + 1e-6 and val <= identity_candidate + 1e-12
          and abs(val - re_eval) <= 1e-10)
    report("criterion 10 optimizer sanity",
           ok, f"found={val:.9f} target={untwisted_value:.6f} "
               f"identity_candidate={identity_candidate:.6f} elapsed={elapsed:.1f}s")
