import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import entbound
from entbound import (DimensionError, OptimizerBudget, build_witness,
                      coupled_system, evaluate_criteria, extended_reduction_map,
                      family_state, functionals, isotropic_state, minimize_witness,
                      partial_transpose, random_pure, realign, time_reverse,
                      twisted_witness, verdicts, werner_state, witness_value)
from entbound.closedform import partial_time_reversal, realign_reshuffle, swap_operator
from entbound.linalg import hermitian_mask, trace_norms
from entbound.states import haar_unitary, random_density
from helpers import product_pure


def assert_same_bits(got, ref):
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


def rand_state_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestExtendedReductionMap:
    def test_identity_input(self, sys4):
        got = extended_reduction_map(np.eye(4), sys4)
        assert np.abs(got - 2 * np.eye(4)).max() < 1e-12

    def test_pure_input_projects_on_complement(self, sys4):
        rng = np.random.default_rng(5)
        for _ in range(25):
            phi = rand_state_vector(rng, 4)
            out = extended_reduction_map(np.outer(phi, phi.conj()), sys4)
            # rank N-2 projector: idempotent, trace N-2, annihilates phi
            assert np.abs(out @ out - out).max() < 1e-10
            assert np.trace(out).real == pytest.approx(2.0, abs=1e-10)
            assert np.linalg.norm(out @ phi) < 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_trace_scaling(self, sys6):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        out = extended_reduction_map(b, sys6)
        assert np.trace(out) == pytest.approx(4 * np.trace(b), abs=1e-12)

    def test_positive_on_mixed_inputs(self, sys4):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = g @ g.conj().T
            assert np.linalg.eigvalsh(extended_reduction_map(b, sys4))[0] >= -1e-10

    def test_rejects_wrong_shape(self, sys4):
        with pytest.raises(DimensionError):
            extended_reduction_map(np.eye(6), sys4)


class TestLifts:
    def test_product_factorization(self, sys4):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = partial_time_reversal(np.kron(a, b), sys4)
        assert np.abs(got - np.kron(a, time_reverse(b, sys4))).max() < 1e-12
        got_t = partial_transpose(np.kron(a, b), 4)
        assert np.abs(got_t - np.kron(a, b.T)).max() < 1e-12

    def test_singlet_to_swap(self, sys4):
        p0 = np.outer(sys4.singlet, sys4.singlet.conj())
        assert np.abs(partial_time_reversal(p0, sys4) - swap_operator(4) / 4).max() < 1e-12

    def test_transpose_involution(self, sys4):
        rng = np.random.default_rng(9)
        rho = random_density(sys4, 16, rng).matrix
        assert np.abs(partial_transpose(partial_transpose(rho, 4), 4)
                      - rho).max() < 1e-14

    def test_phi_lift_matches_blockwise_oracle(self, sys4):
        # independent route: apply the local map block by block
        rng = np.random.default_rng(10)
        rho = random_density(sys4, 7, rng).matrix
        blocks = rho.reshape(4, 4, 4, 4)
        oracle = np.zeros_like(rho).reshape(4, 4, 4, 4)
        for i in range(4):
            for j in range(4):
                oracle[i, :, j, :] = extended_reduction_map(blocks[i, :, j, :], sys4)
        oracle = oracle.reshape(16, 16)
        # the lifted map: blockwise (tr B) I is the subsystem-1 reduction
        rho_1 = np.einsum("ikjk->ij", rho.reshape(4, 4, 4, 4))  # tr_2 rho
        lifted = (np.kron(rho_1, np.eye(4)) - rho
                  - partial_time_reversal(rho, sys4))
        assert np.abs(lifted - oracle).max() < 1e-12


def product_route_time_reversal(rho, sys_):
    """(I otimes V) T2(rho) (I otimes V)^dag by matrix products."""
    iv = np.kron(np.eye(sys_.n), sys_.v)
    return iv @ partial_transpose(rho, sys_.n) @ iv.conj().T


class TestIndexPermutationRoutes:
    """The index-permutation maps equal the matrix-product definitions bit for bit."""

    @pytest.mark.parametrize("n", [4, 6, 16])
    def test_equal_to_matrix_product_oracles(self, n):
        sys_ = coupled_system(n)
        rng = np.random.default_rng(100 + n)
        states = [family_state(sys_, lam).matrix for lam in (0.0, 0.05, 0.3, 0.5, 1.0)]
        states += [random_density(sys_, int(rng.integers(1, n * n + 1)), rng).matrix
                   for _ in range(5)]
        states.append(rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))
        for rho in states:
            assert np.array_equal(partial_time_reversal(rho, sys_),
                                  product_route_time_reversal(rho, sys_))
            assert np.array_equal(realign(rho, sys_),
                                  product_route_time_reversal(swap_operator(n) @ rho, sys_))


class TestTraceNormCriteria:
    def test_transpose_equals_time_reversal_norm(self, sys4):
        rng = np.random.default_rng(12)
        for rank in (1, 4, 16):
            rho = random_density(sys4, rank, rng).matrix
            assert evaluate_criteria(rho, sys4).trace_norm_T2 == pytest.approx(
                trace_norms(partial_time_reversal(rho, sys4)[None])[0], abs=1e-10)

    def test_maximally_entangled(self, sys4):
        p0 = np.outer(sys4.singlet, sys4.singlet.conj())
        v = evaluate_criteria(p0, sys4)
        assert v.trace_norm_T2 == pytest.approx(4.0, abs=1e-10)
        assert v.trace_norm_R == pytest.approx(4.0, abs=1e-10)

    def test_product_state(self, sys4):
        rng = np.random.default_rng(13)
        psi = product_pure(rand_state_vector(rng, 4), rand_state_vector(rng, 4))
        rho = psi.projector()
        v = evaluate_criteria(rho, sys4)
        assert v.trace_norm_T2 == pytest.approx(1.0, abs=1e-10)
        assert v.trace_norm_R == pytest.approx(1.0, abs=1e-10)

    def test_family_branch_values(self, sys4):
        assert evaluate_criteria(family_state(sys4, 0.4).matrix, sys4).trace_norm_T2 == \
            pytest.approx(1.7, abs=1e-12)
        assert evaluate_criteria(family_state(sys4, 0.1).matrix, sys4).trace_norm_R == \
            pytest.approx(0.8, abs=1e-12)

    def test_reshuffle_matches_canonical_norm(self, sys4):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rank = int(rng.integers(1, 17))
            rho = random_density(sys4, rank, rng).matrix
            assert trace_norms(realign_reshuffle(rho, 4)[None])[0] == pytest.approx(
                evaluate_criteria(rho, sys4).trace_norm_R, abs=1e-9)

    def test_realign_shapes_reject(self, sys4):
        with pytest.raises(DimensionError):
            realign(np.eye(9), sys4)
        with pytest.raises(DimensionError):
            realign_reshuffle(np.eye(9), 4)


class TestWitness:
    def test_trace_n4(self, sys4):
        assert np.trace(build_witness(sys4)).real == pytest.approx(8.0, abs=1e-10)

    def test_built_once_per_system(self, sys4):
        w = build_witness(sys4)
        assert build_witness(sys4) is w
        with pytest.raises(ValueError):
            w[0, 0] = 5.0

    @pytest.mark.parametrize("n", [4, 6, 16, 32])
    def test_bit_equal_to_dense_swap_form(self, n):
        sys_ = coupled_system(n)
        p0 = np.outer(sys_.singlet, sys_.singlet.conj())
        dense = np.eye(n * n) - n * p0 - swap_operator(n)
        assert_same_bits(build_witness(sys_), (dense + dense.conj().T) / 2)

    def test_built_in_one_array(self):
        sys_ = coupled_system(32)
        tracemalloc.start()
        try:
            w = build_witness.__wrapped__(sys_)  # bypass the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * w.nbytes


class TestWitnessValue:
    def test_family_line(self, sys4):
        w = build_witness(sys4)
        for lam in np.linspace(0, 1, 21):
            got = witness_value(w, family_state(sys4, float(lam)).matrix)
            assert got == pytest.approx(-lam * 2, abs=1e-12)

    def test_werner_is_zero(self, sys6):
        w = build_witness(sys6)
        assert witness_value(w, werner_state(sys6).matrix) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_formula(self, sys4):
        w = build_witness(sys4)
        for f in (0.0, 0.3, 1 / 4, 0.9, 1.0):
            got = witness_value(w, isotropic_state(sys4, f).matrix)
            assert got == pytest.approx(2 * (1 - 4 * f) / 3, abs=1e-12)


class TestTwistedWitness:
    def test_identity_twist(self, sys4):
        w = build_witness(sys4)
        assert np.abs(twisted_witness(w, np.eye(4), np.eye(4)) - w).max() < 1e-12

    def test_spectrum_preserved(self, sys4):
        rng = np.random.default_rng(15)
        w = build_witness(sys4)
        u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
        ref = np.linalg.eigvalsh(w)
        got = np.linalg.eigvalsh(twisted_witness(w, u1, u2))
        assert np.abs(ref - got).max() < 1e-10

    def test_cyclic_invariance(self, sys4):
        rng = np.random.default_rng(16)
        w = build_witness(sys4)
        u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
        rho = random_density(sys4, 5, rng).matrix
        u = np.kron(u1, u2)
        rho_u = u @ rho @ u.conj().T
        wu = twisted_witness(w, u1, u2)
        assert np.einsum("ij,ji->", wu, rho_u).real == pytest.approx(
            witness_value(w, rho), abs=1e-12)

    def test_rejects_non_unitary(self, sys4):
        w = build_witness(sys4)
        with pytest.raises(ValueError):
            twisted_witness(w, 2 * np.eye(4), np.eye(4))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_witness_is_rejected(self, sys4, entry):
        w = np.array(build_witness(sys4))
        w[3, 5] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
                witness_value(w, family_state(sys4, 0.3))
            with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
                twisted_witness(w, np.eye(4), np.eye(4))

    def test_list_witness_same_as_array(self, sys4):
        rng = np.random.default_rng(17)
        w = build_witness(sys4)
        u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
        rho = random_density(sys4, 3, rng)
        assert_same_bits(witness_value(w.tolist(), rho), witness_value(w, rho))
        assert_same_bits(twisted_witness(w.tolist(), u1, u2), twisted_witness(w, u1, u2))

    def test_rejects_witness_of_non_square_dimension(self):
        with pytest.raises(DimensionError):
            twisted_witness(np.eye(15), np.eye(3), np.eye(3))


class TestMinimizeWitness:
    def test_zero_iterations_returns_identity_value(self, sys4):
        rho = family_state(sys4, 0.37).matrix
        w = build_witness(sys4)
        val, u1, u2 = minimize_witness(rho, sys4,
                                       OptimizerBudget(restarts=1, iterations=0, seed=1))
        assert val == pytest.approx(witness_value(w, rho), abs=1e-12)
        assert np.abs(u1 - np.eye(4)).max() < 1e-12
        assert np.abs(u2 - np.eye(4)).max() < 1e-12

    def test_singlet_reaches_minimum(self, sys4):
        p0 = np.outer(sys4.singlet, sys4.singlet.conj())
        val, _, _ = minimize_witness(p0, sys4,
                                     OptimizerBudget(restarts=1, iterations=50, seed=2))
        assert val <= -2 + 1e-9

    def test_unitaries_reproduce_value(self, sys4):
        rng = np.random.default_rng(18)
        rho = random_density(sys4, 3, rng).matrix
        w = build_witness(sys4)
        budget = OptimizerBudget(restarts=2, iterations=40, seed=3)
        val, u1, u2 = minimize_witness(rho, sys4, budget)
        re_eval = np.einsum("ij,ji->", twisted_witness(w, u1, u2), rho).real
        assert val == pytest.approx(re_eval, abs=1e-10)
        assert val <= witness_value(w, rho) + 1e-12
        # same seed, same answer
        val2, _, _ = minimize_witness(rho, sys4, budget)
        assert val == val2

    def test_recovers_twisted_family_value(self, sys4):
        # undoing a product twist is in the feasible set, so the optimizer
        # must reach the untwisted value (a short budget suffices here)
        rng = np.random.default_rng(19)
        u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
        u = np.kron(u1, u2)
        rho = family_state(sys4, 0.3).matrix
        rho_twisted = u @ rho @ u.conj().T
        val, _, _ = minimize_witness(rho_twisted, sys4,
                                     OptimizerBudget(restarts=2, iterations=100, seed=4))
        assert val <= -0.6 + 1e-6

    def test_recovers_twisted_family_value_n6(self, sys6):
        rng = np.random.default_rng(23)
        u = np.kron(haar_unitary(6, rng), haar_unitary(6, rng))
        rho_twisted = u @ family_state(sys6, 0.3).matrix @ u.conj().T
        val, _, _ = minimize_witness(rho_twisted, sys6,
                                     OptimizerBudget(restarts=2, iterations=200, seed=5))
        assert val <= -0.3 * (6 - 2) + 1e-6

    def test_rejects_bad_budget(self, sys4):
        with pytest.raises(ValueError):
            minimize_witness(np.eye(16) / 16, sys4, OptimizerBudget(restarts=0))

    @pytest.mark.parametrize("fields, error", [
        ({"restarts": 2.5}, TypeError), ({"iterations": 1.5}, TypeError),
        ({"restarts": True}, TypeError), ({"iterations": False}, TypeError),
        ({"restarts": 0}, ValueError), ({"iterations": -1}, ValueError),
    ], ids=["float-restarts", "float-iterations", "bool-restarts", "bool-iterations",
            "zero-restarts", "negative-iterations"])
    def test_budget_checks_its_fields(self, fields, error):
        with pytest.raises(error):
            OptimizerBudget(**fields)

    def test_budget_accepts_numpy_integers(self, sys4):
        rho = random_density(sys4, 3, 21)
        got = minimize_witness(rho, sys4, OptimizerBudget(np.int64(2), np.int32(5), 1))
        ref = minimize_witness(rho, sys4, OptimizerBudget(2, 5, 1))
        for part, ref_part in zip(got, ref):
            assert_same_bits(part, ref_part)

    @pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (6, 3)])
    def test_more_steps_never_worse(self, n, seed):
        # every accepted Armijo step lowers the value, and restarts are seeded
        # independently of the step budget
        sys_ = coupled_system(n)
        rho = random_density(sys_, 4, seed).matrix
        values = [minimize_witness(rho, sys_, OptimizerBudget(2, k, seed))[0]
                  for k in (0, 1, 3, 10, 30, 100)]
        for fewer, more in zip(values, values[1:]):
            assert more <= fewer + 1e-12


STATE_FUNCTIONS = {
    "partial_transpose": lambda rho, sys_: partial_transpose(rho, sys_.n),
    "partial_time_reversal": partial_time_reversal,
    "realign": realign,
    "realign_reshuffle": lambda rho, sys_: realign_reshuffle(rho, sys_.n),
    "witness_value": lambda rho, sys_: witness_value(build_witness(sys_), rho),
    "minimize_witness": lambda rho, sys_: minimize_witness(
        rho, sys_, OptimizerBudget(restarts=2, iterations=5, seed=1)),
    "evaluate_criteria": evaluate_criteria,
}


def result_parts(result):
    """A function result as a list of complex arrays, field by field."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if not isinstance(result, tuple):
        result = (result,)
    return [np.asarray(part, dtype=complex) for part in result]


class TestStateOperands:
    """A validated state enters each function exactly as its matrix does."""

    @pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
    def test_density_matrix_same_as_array(self, sys4, name):
        dm = random_density(sys4, 3, 31)
        f = STATE_FUNCTIONS[name]
        for got, ref in zip(result_parts(f(dm, sys4)), result_parts(f(dm.matrix, sys4))):
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
    def test_pure_state_same_as_projector(self, sys4, name):
        psi = random_pure(sys4, 32)
        f = STATE_FUNCTIONS[name]
        for got, ref in zip(result_parts(f(psi, sys4)), result_parts(f(psi.projector(), sys4))):
            assert_same_bits(got, ref)

    def test_state_shape_is_checked(self, sys4, sys6):
        with pytest.raises(DimensionError):
            partial_transpose(random_density(sys6, 2, 33), 4)
        with pytest.raises(DimensionError):
            witness_value(build_witness(sys4), random_pure(sys6, 34))


class TestEvaluateCriteria:
    def test_werner_undetected(self, sys4):
        v = evaluate_criteria(werner_state(sys4).matrix, sys4)
        assert not v.ppt_violated
        assert not v.realignment_violated
        assert not v.witness_detects
        assert v.trace_norm_T2 == pytest.approx(1.0, abs=1e-10)

    def test_ppt_entangled_window(self, sys4):
        v = evaluate_criteria(family_state(sys4, 0.1).matrix, sys4)
        assert v.witness_detects
        assert not v.ppt_violated
        assert not v.realignment_violated
        assert v.witness_value == pytest.approx(-0.2, abs=1e-12)

    def test_strongly_entangled(self, sys4):
        v = evaluate_criteria(family_state(sys4, 0.75).matrix, sys4)
        assert v.ppt_violated and v.realignment_violated and v.witness_detects


class TestFunctionals:
    """A stack gives each state the bits that evaluate_criteria gives it alone."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_bit_equal_to_one_state_at_a_time(self, n):
        sys_ = coupled_system(n)
        states = [family_state(sys_, lam) for lam in (0.0, 0.05, 1 / (n + 2), 0.5, 1.0)]
        states += [random_density(sys_, rank, (n, rank, k))
                   for rank in (1, 2 * n, n * n) for k in range(3)]
        # family states have a Hermitian realignment and random ones do not,
        # so the realignment stack takes both trace-norm kernels
        herm = [bool(hermitian_mask(realign(rho, sys_))) for rho in states]
        assert any(herm) and not all(herm)
        states = states[::2] + states[1::2]  # interleave the two kinds
        stack = np.stack([rho.matrix for rho in states])
        got = functionals(stack, sys_)
        ref = [evaluate_criteria(rho, sys_) for rho in states]
        for values, field in zip(got, ("trace_norm_T2", "trace_norm_R", "witness_value")):
            assert_same_bits(values, np.array([getattr(v, field) for v in ref]))
        assert verdicts(stack, sys_) == ref

    def test_stack_shape_is_checked(self, sys4):
        rho = family_state(sys4, 0.3).matrix
        with pytest.raises(DimensionError):
            functionals(rho, sys4)
        with pytest.raises(DimensionError):
            functionals(np.stack([rho, rho]), coupled_system(6))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("function", [functionals, verdicts])
    def test_non_finite_stack_is_rejected(self, sys4, function, entry):
        # the raw stack is gated before any kernel sees it
        stack = np.stack([family_state(sys4, 0.3).matrix] * 2)
        stack[1, 2, 3] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
                function(stack, sys4)


class TestMapProperties:
    def test_positivity_on_random_pure(self, sys4, sys6):
        rng = np.random.default_rng(20)
        for sys_ in (sys4, sys6):
            for _ in range(200):
                phi = rand_state_vector(rng, sys_.n)
                out = extended_reduction_map(np.outer(phi, phi.conj()), sys_)
                assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_witness_nonnegative_on_separable_mixtures(self, sys4):
        rng = np.random.default_rng(21)
        w = build_witness(sys4)
        for _ in range(200):
            terms = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(terms))
            val = 0.0
            for p in weights:
                vec = np.kron(rand_state_vector(rng, 4), rand_state_vector(rng, 4))
                val += p * (vec.conj() @ w @ vec).real
            assert val >= -1e-10

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_detects_ppt_entangled_states(self, n):
        sys_ = coupled_system(n)
        lam = 1 / (n + 2)
        rho = family_state(sys_, lam).matrix
        theta2 = partial_time_reversal(rho, sys_)
        assert np.linalg.eigvalsh(theta2)[0] >= -1e-10
        assert witness_value(build_witness(sys_), rho) == pytest.approx(
            -lam * (n - 2), abs=1e-12)

    def test_transpose_vs_time_reversal_norm_identity(self, sys4):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(sys4, int(rng.integers(1, 17)), rng).matrix
            assert abs(evaluate_criteria(rho, sys4).trace_norm_T2
                       - trace_norms(partial_time_reversal(rho, sys4)[None])[0]) < 1e-10


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; run the import in a fresh interpreter
    src = os.path.dirname(os.path.dirname(entbound.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, entbound; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
