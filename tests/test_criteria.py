import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import entbound
from entbound import (DensityMatrix, DimensionError, OptimizerBudget, build_witness,
                      report_from_verdict,
                      coupled_system, criteria, evaluate_criteria, extended_reduction_map,
                      family_state, functionals, isotropic_state, minimize_witness,
                      random_densities, random_pure, time_reverse, verdicts, werner_state)
from entbound.criteria import (_partial_transposes, _realignment_pair_forms,
                               _twisted_witness_terms)
from entbound.linalg import _hermitian_part, _Sectors, dagger, trace_norms
from entbound.states import (_check_densities, _density_sectors, _is_sector_stack, _States,
                             haar_unitary, random_density)
from helpers import (EDGES, count_calls, dense_witness_search, dense_witness_value, edge_base,
                     exactly_hermitian, hermitian_part, hermitian_part_path, noisy_product,
                     one_block, partial_time_reversal, product_pure, realign_reshuffle,
                     sigma_witness_search, smallest_pair, stacked_realignments, swap_operator,
                     twisted_witness)

# the edits of EDGES that keep rho = rho^dag in value, changing only signed zeros
SIGNED_ZEROS = ["signed zero real part", "two -0.0 imaginary parts", "two +0.0 imaginary parts",
                "-0.0 diagonal imaginary part"]


def assert_same_bits(got, ref):
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


def counted(function, calls, event=1):
    """``function`` that appends ``event`` to ``calls`` each time it runs."""
    def wrapper(*args, **kwargs):
        calls.append(event)
        return function(*args, **kwargs)
    return wrapper


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
        got_t = _partial_transposes(np.kron(a, b)[None], 4)[0]
        assert np.abs(got_t - np.kron(a, b.T)).max() < 1e-12

    def test_singlet_to_swap(self, sys4):
        p0 = np.outer(sys4.singlet, sys4.singlet.conj())
        assert np.abs(partial_time_reversal(p0, sys4) - swap_operator(4) / 4).max() < 1e-12

    def test_transpose_involution(self, sys4):
        rng = np.random.default_rng(9)
        rho = random_density(sys4, 16, rng).matrix
        assert np.abs(_partial_transposes(_partial_transposes(rho[None], 4), 4)[0]
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
    return iv @ _partial_transposes(rho[None], sys_.n)[0] @ iv.conj().T


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
            assert np.array_equal(stacked_realignments(rho[None], n)[0],
                                  product_route_time_reversal(swap_operator(n) @ rho, sys_))


class TestTraceNormCriteria:
    def test_transpose_equals_time_reversal_norm(self, sys4):
        rng = np.random.default_rng(12)
        for rank in (1, 4, 16):
            rho = random_density(sys4, rank, rng).matrix
            assert evaluate_criteria(rho, sys4).trace_norm_T2 == pytest.approx(
                trace_norms(one_block(partial_time_reversal(rho, sys4)[None]))[0], abs=1e-10)

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
            assert trace_norms(one_block(realign_reshuffle(rho, 4)[None]))[0] == pytest.approx(
                evaluate_criteria(rho, sys4).trace_norm_R, abs=1e-9)


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

    def test_trace_check_raises(self, monkeypatch, sys4):
        # a swap index that is the identity gives W = -N P_0, of trace -4, not N(N - 2) = 8
        monkeypatch.setattr(criteria, "_swap_index", lambda n: np.arange(n * n))
        with pytest.raises(ValueError, match=r"^witness trace -4\.0 differs from N\(N-2\) = 8$"):
            build_witness.__wrapped__(sys4)  # bypass the cache

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
            got = dense_witness_value(w, family_state(sys4, float(lam)).matrix)
            assert got == pytest.approx(-lam * 2, abs=1e-12)

    def test_werner_is_zero(self, sys6):
        w = build_witness(sys6)
        assert dense_witness_value(w, werner_state(sys6).matrix) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_formula(self, sys4):
        w = build_witness(sys4)
        for f in (0.0, 0.3, 1 / 4, 0.9, 1.0):
            got = dense_witness_value(w, isotropic_state(sys4, f).matrix)
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
        assert dense_witness_value(wu, rho_u) == pytest.approx(
            dense_witness_value(w, rho), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_conjugate_matches_kron(self, n):
        rng = np.random.default_rng(40 + n)
        u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
        m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        u = np.kron(u1, u2)
        assert np.abs(twisted_witness(m, u1, u2) - u @ m @ u.conj().T).max() < 1e-12 * n


def search_terms(rho, sys_, u1, u2):
    """The witness search's value and gradients at (U1, U2), from its kernel."""
    value, gradients = _twisted_witness_terms(rho, u1, u2, sys_)
    return (value, *gradients())


class TestWitnessSearchKernel:
    """The O(N^4) value and gradients of the search against the sigma route and the dense W."""

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_matches_dense_oracle(self, n):
        sys_ = coupled_system(n)
        rng = np.random.default_rng(50 + n)
        rho = random_density(sys_, n, rng).matrix
        u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
        got = search_terms(rho, sys_, u1, u2)
        for oracle in (sigma_witness_search, dense_witness_search):
            for part, ref in zip(got, oracle(rho, sys_, u1, u2), strict=True):
                assert np.abs(part - ref).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_gradients_match_finite_differences(self, n):
        # d/dt f(e^{tZ} U1, U2) = Re tr(Z G1) at t = 0, and likewise for U2
        sys_ = coupled_system(n)
        rng = np.random.default_rng(60 + n)
        rho = random_density(sys_, n, rng).matrix
        u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = (x - dagger(x)) / 2
        _, g1, g2 = search_terms(rho, sys_, u1, u2)
        e, q = np.linalg.eigh(-1j * z)
        t = 1e-5

        def step(s):  # exp(s Z)
            return (q * np.exp(1j * s * e)) @ dagger(q)

        for k, g in ((0, g1), (1, g2)):
            def f(s):
                us = [u1, u2]
                us[k] = step(s) @ us[k]
                return search_terms(rho, sys_, *us)[0]
            slope = (f(t) - f(-t)) / (2 * t)
            assert slope == pytest.approx(np.trace(z @ g).real, abs=1e-8)

    @pytest.mark.parametrize("n", [4, 6])
    def test_gradients_are_exactly_anti_hermitian(self, n):
        sys_ = coupled_system(n)
        rng = np.random.default_rng(70 + n)
        rho = random_density(sys_, n, rng).matrix
        for g in search_terms(rho, sys_, haar_unitary(n, rng), haar_unitary(n, rng))[1:]:
            assert np.array_equal(g, -dagger(g))  # in value; the zeros of a diagonal keep one sign


class TestMinimizeWitness:
    def test_zero_iterations_returns_identity_value(self, sys4):
        rho = family_state(sys4, 0.37).matrix
        w = build_witness(sys4)
        val, u1, u2 = minimize_witness(rho, sys4,
                                       OptimizerBudget(restarts=1, iterations=0, seed=1))
        assert val == pytest.approx(dense_witness_value(w, rho), abs=1e-12)
        assert np.abs(u1 - np.eye(4)).max() < 1e-12
        assert np.abs(u2 - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("iterations", [0, 50])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_never_above_the_verdict_witness_value(self, n, iterations):
        # restart 0 must start from the verdict's bits of tr(W rho): the search
        # kernel's own read at the identity differs in the last bits (it reads
        # 2.2e-16 against the verdict's 0.0 on the Werner state at N = 8)
        sys_ = coupled_system(n)
        for rho in (werner_state(sys_), family_state(sys_, 0.05), family_state(sys_, 0.3)):
            value = minimize_witness(rho, sys_, OptimizerBudget(2, iterations, 1))[0]
            assert value <= evaluate_criteria(rho, sys_).witness_value

    def test_random_states_never_above_the_verdict_witness_value(self, sys4):
        # at the identity the search returns its start value, which is the
        # verdict's own bits; the kernel's read differs on some of these states
        for seed in range(200):
            rho = random_density(sys4, 4, seed)
            value = minimize_witness(rho, sys4, OptimizerBudget(1, 0, 0))[0]
            assert value == evaluate_criteria(rho, sys4).witness_value

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
        re_eval = dense_witness_value(twisted_witness(w, u1, u2), rho)
        assert val == pytest.approx(re_eval, abs=1e-10)
        assert val <= dense_witness_value(w, rho) + 1e-12
        # same seed, same answer
        val2, _, _ = minimize_witness(rho, sys4, budget)
        assert val == val2

    def test_restart_streams_are_spawned_one_at_a_time(self, monkeypatch, sys4):
        # one child per restart as it starts, never spawn(restarts) up front: the
        # children, in order, of one spawn(restarts) (the bytes: test_cli)
        real = np.random.SeedSequence
        sizes = []

        class Recorded:
            def __init__(self, seed):
                self.root = real(seed)

            def spawn(self, k):
                sizes.append(k)
                return self.root.spawn(k)
        monkeypatch.setattr(np.random, "SeedSequence", Recorded)
        minimize_witness(random_density(sys4, 3, 25), sys4, OptimizerBudget(5, 20, 7))
        assert sizes == [1] * 5
        spawned = real(7)
        one_at_a_time = [spawned.spawn(1)[0] for _ in range(5)]
        for a, b in zip(one_at_a_time, real(7).spawn(5)):
            assert a.spawn_key == b.spawn_key
            assert np.array_equal(a.generate_state(4), b.generate_state(4))

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

    def test_non_hermitian_input_searches_its_hermitian_part(self, sys4):
        # Re tr(W_U rho) reads only (rho + rho^dag) / 2, so an anti-Hermitian
        # part must not stall the search at the identity value
        rng = np.random.default_rng(19)
        u = np.kron(haar_unitary(4, rng), haar_unitary(4, rng))
        rho = u @ family_state(sys4, 0.3).matrix @ u.conj().T
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        budget = OptimizerBudget(restarts=2, iterations=100, seed=4)
        val, _, _ = minimize_witness(rho + 0.05 * (x - dagger(x)) / 2, sys4, budget)
        assert val <= -0.6 + 1e-6
        assert val == pytest.approx(minimize_witness(rho, sys4, budget)[0], abs=1e-12)

    def test_density_matrix_is_searched_as_its_record_holds_it(self, monkeypatch, sys4):
        # the record build is the one place that forms a Hermitian part: the
        # search reads a DensityMatrix's held matrix and symmetrises nothing
        rho = random_density(sys4, 3, 22)
        budget = OptimizerBudget(restarts=2, iterations=20, seed=1)
        want = minimize_witness(rho.matrix.copy(), sys4, budget)
        parts = count_calls(monkeypatch, "_hermitian_part")
        got = minimize_witness(rho, sys4, budget)
        assert parts == []
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    def test_hermitian_part_keeps_hermitian_bits(self, sys4):
        rho = random_density(sys4, 3, 22).matrix
        assert_same_bits(_hermitian_part(rho), rho)

    def test_search_builds_no_dense_witness(self, monkeypatch, sys4):
        # the search reads rho through its O(N^4) kernel: no W, no twisted state, no Kronecker twist
        calls = []
        for owner, name in ((criteria, "build_witness"), (np, "kron")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name), calls))
        minimize_witness(random_density(sys4, 3, 24), sys4, OptimizerBudget(2, 20, 1))
        assert not calls

    def test_rejects_bad_budget(self, sys4):
        with pytest.raises(ValueError):
            minimize_witness(np.eye(16) / 16, sys4, OptimizerBudget(restarts=0))

    @pytest.mark.parametrize("fields, error", [
        ({"restarts": 2.5}, TypeError), ({"iterations": 1.5}, TypeError),
        ({"restarts": True}, TypeError), ({"iterations": False}, TypeError),
        ({"restarts": 0}, ValueError), ({"iterations": -1}, ValueError),
        ({"seed": True}, TypeError), ({"seed": None}, TypeError), ({"seed": 1.5}, TypeError),
        ({"seed": "3"}, TypeError), ({"seed": -1}, ValueError),
    ], ids=["float-restarts", "float-iterations", "bool-restarts", "bool-iterations",
            "zero-restarts", "negative-iterations", "bool-seed", "none-seed", "float-seed",
            "str-seed", "negative-seed"])
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
            evaluate_criteria(random_density(sys6, 2, 33), sys4)
        with pytest.raises(DimensionError):
            minimize_witness(random_pure(sys6, 34), sys4, OptimizerBudget(1, 1, 1))


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


class TestSectorPath:
    """States that commute with J_z are checked and trace-normed block by block."""

    @staticmethod
    def sector_states(n):
        sys_ = coupled_system(n)
        return ([family_state(sys_, lam) for lam in (0.0, 0.05, 1 / (n + 2), 0.3, 0.5, 0.8, 1.0)]
                + [werner_state(sys_)]
                + [isotropic_state(sys_, f) for f in (0.0, 1 / n, 0.5, 1.0)])

    @staticmethod
    def dense_values(m, n):
        """Smallest eigenvalue, ||T_2 rho||_1 and ||R rho||_1 from the kernels on whole matrices."""
        stack = m[None]
        return (np.linalg.eigvalsh((stack + stack.conj().swapaxes(1, 2)) / 2)[0, 0],
                trace_norms(one_block(_partial_transposes(stack, n)))[0],
                trace_norms(one_block(stacked_realignments(stack, n)))[0])

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_agrees_with_the_dense_kernels(self, n):
        sys_ = coupled_system(n)
        for rho in self.sector_states(n):
            stack = rho.matrix[None]
            assert _is_sector_stack(stack, n)
            sectors = _density_sectors(n)
            blocks = sectors.split(stack.reshape(1, -1)[:, sectors.positions])
            smallest = min(np.linalg.eigvalsh(b).min() for b in blocks)
            v = evaluate_criteria(rho, sys_)
            got = (smallest, v.trace_norm_T2, v.trace_norm_R)
            assert np.abs(np.subtract(got, self.dense_values(rho.matrix, n))).max() <= 1e-13

    @pytest.mark.parametrize("n", [4, 8])
    def test_one_lapack_call_per_block_size(self, n, monkeypatch):
        calls = []
        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), calls))
        for rho in self.sector_states(n):
            calls.clear()
            functionals(rho.matrix[None], coupled_system(n))
            assert len(calls) == 2 * n  # block sizes 1..N, for T_2 rho and for R rho

    @pytest.mark.parametrize("n", [4, 6, 16])
    @pytest.mark.parametrize("position", [(0, -1), (0, 1)])
    def test_one_off_sector_entry_takes_the_dense_path(self, n, position):
        # (0, N^2 - 1) is the entry probed first, (0, 1) is found by the full scan
        sys_ = coupled_system(n)
        m = family_state(sys_, 0.3).matrix.copy()
        m[position] = m[position[::-1]] = 1e-300
        assert not _is_sector_stack(m[None], n)
        v = evaluate_criteria(DensityMatrix(n_local=n, matrix=m), sys_)

        def eigensolve_norm(whole):
            return np.abs(np.linalg.eigvalsh((whole + whole.conj().swapaxes(1, 2)) / 2)).sum(axis=-1)

        def svd_norm(whole):
            return np.linalg.svd(whole, compute_uv=False).sum(axis=-1)

        # the dense kernels: T_2 rho of the family is Hermitian, one complex
        # eigensolve; rho is exactly Hermitian, so R rho is normed through
        # its real form C.  With the pair at (0, N^2 - 1), C is symmetric: one
        # real eigensolve.  At (0, 1) it is symmetric only to within rounding
        # of the 1e-300 entries, so it takes the real SVD, as the kernel has no
        # tolerance route
        assert_same_bits(np.array([v.trace_norm_T2]),
                         eigensolve_norm(_partial_transposes(m[None], n)))
        real_form = _realignment_pair_forms(m[None], n)
        symmetric = position == (0, -1)
        assert not real_form.imag.any()
        assert exactly_hermitian(one_block(real_form.real)).tolist() == [symmetric]
        assert_same_bits(np.array([v.trace_norm_R]),
                         (eigensolve_norm if symmetric else svd_norm)(real_form.real))
        # and within rounding of the complex eigensolve of R rho itself
        assert abs(v.trace_norm_R - eigensolve_norm(stacked_realignments(m[None], n))[0]) \
            <= 1e-14 * max(1.0, v.trace_norm_R)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("position", [(0, -1), (0, 1)])
    def test_density_check_and_functionals_share_the_decision(self, n, position, monkeypatch):
        # an imaginary part alone puts an entry off the sectors; a signed zero does not
        sys_ = coupled_system(n)
        family = family_state(sys_, 0.3).matrix
        gathered = []
        monkeypatch.setattr(_Sectors, "split", counted(_Sectors.split, gathered))
        for entry, sector in ((1e-300j, False), (complex(-0.0, -0.0), True)):
            m = family.copy()
            m[position], m[position[::-1]] = entry, np.conj(entry)
            assert _is_sector_stack(m[None], n) == sector
            gathered.clear()
            _check_densities(m[None], n)
            assert len(gathered) == sector
            gathered.clear()
            got = functionals(m[None], sys_)
            assert len(gathered) == 2 * sector
        for values, ref in zip(got, functionals(family[None], sys_)):
            assert_same_bits(values, ref)

    @pytest.mark.parametrize("n", [4, 6])
    def test_strided_stack_is_read_as_its_copy(self, n):
        # a stack with a strided last axis: the gate hands on a C-ordered copy,
        # so the sector scan views its float parts, and every bit is the copy's
        sys_ = coupled_system(n)
        for rho in (family_state(sys_, 0.3), random_density(sys_, 2, n)):
            wide = np.zeros((1, n * n, 2 * n * n), dtype=complex)
            wide[0, :, ::2] = rho.matrix
            want = functionals(rho.matrix[None], sys_)
            for got, ref in zip(functionals(wide[:, :, ::2], sys_), want):
                assert_same_bits(got, ref)

    @staticmethod
    def block_defect(n, eigenvalue):
        """I / N^2 with the label-1 block (indices 1 and N) rotated to eigenvalues e and 2/N^2 - e."""
        m = np.eye(n * n, dtype=complex) / (n * n)
        x = 1 / (n * n)
        y = (x - eigenvalue) * np.exp(0.7j)
        m[1, n], m[n, 1] = y, np.conj(y)
        return m

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("offset", [-3e-11, -1.2e-11, -0.8e-11, 0.8e-11, 1.2e-11, 3e-11])
    def test_block_eigenvalue_near_the_tolerance(self, sys4, n, offset):
        m = self.block_defect(n, -1e-10 + offset)
        assert _is_sector_stack(m[None], n)
        dense_rejects = np.linalg.eigvalsh(m)[0] < -1e-10
        assert dense_rejects == (offset < 0)
        if dense_rejects:
            with pytest.raises(ValueError, match="^density matrix has an eigenvalue below -1e-10$"):
                DensityMatrix(n_local=n, matrix=m)
        else:
            DensityMatrix(n_local=n, matrix=m)
        # in a stack behind a dense state, with a non-Hermitian dense state after it
        dense = random_density(coupled_system(n), 3, 1).matrix
        bad = dense.copy()
        bad[0, 1] += 1e-6
        message = "eigenvalue below" if dense_rejects else "not Hermitian"
        with pytest.raises(ValueError, match=message):
            _check_densities([dense, m, bad], n)


class TestRealRealignment:
    """Every dense ||R rho||_1 is normed on the real pair form C of the held, exactly Hermitian rho."""

    @staticmethod
    def spy(monkeypatch):
        """Record the stacks C is built for and the dtype of each block array criteria.trace_norms tests.

        On the dense path :func:`criteria._functionals` has ``trace_norms``
        test only C (T_2 rho is marked Hermitian), so the dtypes are those
        of the pair forms that are normed: float64 for ``C.real``.
        """
        seen = {"stacks": [], "dtypes": []}
        forms, norms = criteria._realignment_pair_forms, criteria.trace_norms
        monkeypatch.setattr(criteria, "_realignment_pair_forms",
                            lambda a, n_: seen["stacks"].append(a.copy()) or forms(a, n_))
        monkeypatch.setattr(criteria, "trace_norms", lambda blocks, hermitian=None: (
            hermitian is None and seen["dtypes"].extend(b.dtype for b in blocks))
            or norms(blocks, hermitian))
        return seen

    @staticmethod
    def reshuffle_norm(m, n):
        """||R rho||_1 from the SVD of the index reshuffle oracle."""
        return np.linalg.svd(realign_reshuffle(m, n), compute_uv=False).sum()

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_exactly_hermitian_states_have_a_real_form(self, monkeypatch, n):
        sys_ = coupled_system(n)
        for rank in sorted({1, 2, 4, 2 * n, n * n}):
            stack = random_densities(sys_, rank, np.random.SeedSequence([n, rank]).spawn(3))
            assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
            assert not _realignment_pair_forms(stack, n).imag.any()
            seen = self.spy(monkeypatch)
            norms = functionals(stack, sys_)[1]
            monkeypatch.undo()
            assert len(seen["stacks"]) == 1 and seen["dtypes"] == [np.float64]
            ref = np.linalg.svd(stacked_realignments(stack, n), compute_uv=False).sum(axis=-1)
            assert np.all(np.abs(norms - ref) <= 1e-14 * np.maximum(1.0, ref))

    @pytest.mark.parametrize("n", [4, 6])
    def test_nearly_hermitian_member_is_read_as_its_hermitian_part(self, monkeypatch, n):
        # one member Hermitian within 1e-13 only: the record holds it as its
        # Hermitian part and the others as given, so every member takes the
        # real form, with the bits of its Hermitian part alone
        sys_ = coupled_system(n)
        stack = random_densities(sys_, n, np.random.SeedSequence(n).spawn(4)).copy()
        stack[2, 0, 1] += 1e-13
        real = ~_realignment_pair_forms(stack, n).imag.any(axis=(1, 2))
        assert real.tolist() == [True, True, False, True]
        seen = self.spy(monkeypatch)
        got = functionals(stack, sys_)
        monkeypatch.undo()
        h = hermitian_part(stack)
        assert len(seen["stacks"]) == 1 and np.array_equal(seen["stacks"][0], h)
        assert seen["dtypes"] == [np.float64]
        assert_same_bits(got[1], trace_norms([_realignment_pair_forms(h, n).real[:, None]]))
        for k in range(len(stack)):
            for values, ref in zip(got, functionals(h[k:k + 1], sys_)):
                assert_same_bits(values[k:k + 1], ref)
        for values, ref in zip(got, functionals(stack[2:3], sys_)):
            assert_same_bits(values[2:3], ref)

    @pytest.mark.parametrize("n", [4, 6])
    def test_member_beyond_the_tolerance_is_read_as_its_hermitian_part(self, n):
        sys_ = coupled_system(n)
        stack = random_densities(sys_, n, np.random.SeedSequence(n).spawn(4)).copy()
        stack[2, 0, 1] += 2e-10  # Hermitian within 2e-10 only, beyond the density tolerance
        got = functionals(stack, sys_)
        # every member is read as its Hermitian part, whatever its error: the bits
        # of that part alone and of the member alone, within rounding of the
        # reshuffled realignment
        h = hermitian_part(stack)
        for k in range(len(stack)):
            for values, part, alone in zip(got, functionals(h[k:k + 1], sys_),
                                           functionals(stack[k:k + 1], sys_)):
                assert_same_bits(values[k:k + 1], part)
                assert_same_bits(values[k:k + 1], alone)
            ref = self.reshuffle_norm(h[k], n)
            assert abs(got[1][k] - ref) <= 1e-12 * ref
        assert verdicts(stack, sys_)[2] == verdicts(h[2:3], sys_)[0]
        # the density check still reads the error of the input
        with pytest.raises(ValueError, match="^density matrix is not Hermitian within 1e-10$"):
            DensityMatrix(n, stack[2])

    @pytest.mark.parametrize("n", [4, 6])
    def test_member_beyond_the_tolerance_takes_the_real_kernels(self, monkeypatch, n):
        # one pair form of the four held members, all exactly Hermitian, normed as
        # C.real; T_2 rho takes one eigensolve, untested
        sys_ = coupled_system(n)
        stack = random_densities(sys_, n, np.random.SeedSequence(n).spawn(4)).copy()
        stack[2, 0, 1] += 2e-10
        held = stack.copy()
        held[2] = hermitian_part(stack[2])
        seen = self.spy(monkeypatch)
        kernels = {"eigvalsh": [], "svd": []}
        for name, calls in kernels.items():
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), calls))
        got = functionals(stack, sys_)
        assert len(seen["stacks"]) == 1
        assert seen["stacks"][0].tobytes() == held.tobytes()
        assert seen["dtypes"] == [np.float64]
        assert kernels == {"eigvalsh": [1], "svd": [1]}  # T_2 rho, then the non-symmetric C.real
        monkeypatch.undo()
        t2_spectra = np.linalg.eigvalsh(_partial_transposes(held, n))
        assert_same_bits(got[0], np.abs(t2_spectra).sum(axis=-1))
        assert_same_bits(got[1], np.linalg.svd(_realignment_pair_forms(held, n).real,
                                               compute_uv=False).sum(axis=-1))

    @pytest.mark.parametrize("n", [4, 6])
    def test_raw_non_hermitian_stacks_read_their_hermitian_part(self, n):
        # m, m^dag and (m + m^dag) / 2 for a complex Gaussian m: none is a state,
        # and all three are read as the same Hermitian part, bit for bit, within
        # rounding of the reshuffled realignment of that part
        sys_ = coupled_system(n)
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
            h = (m + m.conj().T) / 2
            got = functionals(np.stack([m, m.conj().T, h]), sys_)
            for values in got:
                assert values[0].tobytes() == values[1].tobytes() == values[2].tobytes()
            ref = self.reshuffle_norm(h, n)
            assert abs(got[1][0] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("edge", SIGNED_ZEROS)
    def test_signed_zero_member_takes_the_real_form(self, monkeypatch, n, edge):
        # rho = rho^dag in value, so its error is 0, whatever its signed zeros:
        # C is real, and the member is normed as C.real, in a stack and alone
        base = edge_base(n)
        m = base.copy()
        EDGES[edge][0](m, *smallest_pair(m))
        stack = np.stack([base, m])
        c = _realignment_pair_forms(stack, n)
        assert not c.imag.any()
        want = trace_norms([c.real[:, None]])
        seen = self.spy(monkeypatch)
        sys_ = coupled_system(n)
        assert_same_bits(functionals(stack, sys_)[1], want)
        assert_same_bits(functionals(m[None], sys_)[1], want[1:])
        with hermitian_part_path():
            assert_same_bits(functionals(stack, sys_)[1], want)
        assert len(seen["stacks"]) == 3
        assert seen["dtypes"] == [np.float64] * 3


class TestNoiseWithinTheTolerance:
    """Anti-Hermitian noise that the density check accepts certifies no entanglement, in any stack.

    |00><00| + i eps B is held as its Hermitian part |00><00|: both trace
    norms are exactly 1, and no verdict or bound is positive.  Read as it
    is, its norms exceed 1 by up to 2e-8 at eps = 4.9e-11 (case A) and its
    ||R rho||_1 by 1e-9 at eps = 4.9e-13 and N = 16 (case B).
    """

    @staticmethod
    def assert_product_values(v, n):
        assert (v.trace_norm_T2, v.trace_norm_R) == (1.0, 1.0)
        assert not v.ppt_violated and not v.realignment_violated and not v.witness_detects
        assert report_from_verdict(v, n).concurrence_lower == 0.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("eps", [4.9e-11, 4.9e-13])
    def test_density_matrix_holds_the_hermitian_part(self, n, eps):
        m = noisy_product(n, eps)
        assert 0 < np.abs(m - dagger(m)).max() <= 1e-10
        before = m.copy()
        for a in (m, before.copy()):
            a.setflags(write=a is m)
            rho = DensityMatrix(n, a)
            assert_same_bits(rho.matrix, hermitian_part(before))
            assert np.array_equal(a.view(np.uint64), before.view(np.uint64))
            self.assert_product_values(evaluate_criteria(rho, coupled_system(n)), n)

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("eps", [4.9e-11, 4.9e-13])
    def test_raw_stack_gives_the_bits_of_the_density_matrix(self, n, eps):
        sys_ = coupled_system(n)
        m = noisy_product(n, eps)
        before = m.copy()
        ref = evaluate_criteria(DensityMatrix(n, m), sys_)
        fields = (ref.trace_norm_T2, ref.trace_norm_R, ref.witness_value)
        for a in (m, before.copy()):
            a.setflags(write=a is m)
            for got, want in zip(functionals(a[None], sys_), fields):
                assert got.tobytes() == np.array([want]).tobytes()
            assert verdicts(a[None], sys_) == [ref]
            assert evaluate_criteria(a, sys_) == ref
            assert np.array_equal(a.view(np.uint64), before.view(np.uint64))
        self.assert_product_values(ref, n)


    @pytest.mark.parametrize("n", [4, 8])
    def test_member_beyond_the_tolerance_leaves_the_noise_silent(self, n):
        # a stack member beyond 1e-10 does not send the noisy product state back to
        # its raw norms, 1 + 2.3e-9 at N = 4 and 1 + 2.1e-8 at N = 8
        sys_ = coupled_system(n)
        m = noisy_product(n, 4.9e-11)
        b = m.copy()
        b[0, 1] += 1e-9
        stack = np.stack([m, b])
        alone = verdicts(m[None], sys_)[0]
        self.assert_product_values(alone, n)
        got = verdicts(stack, sys_)
        assert got[0] == alone
        self.assert_product_values(got[0], n)
        for values, want in zip(functionals(stack, sys_), functionals(m[None], sys_)):
            assert values[:1].tobytes() == want.tobytes()
        assert got[1] == verdicts(hermitian_part(b)[None], sys_)[0]

    @pytest.mark.parametrize("n", [4, 6])
    def test_mixed_errors_give_each_member_its_own_bits(self, n):
        # random stacks of members with error 0, error within 1e-10 and error beyond
        # it: each member's functionals are those it gets alone and those of its
        # Hermitian part, bit for bit
        sys_ = coupled_system(n)
        rng = np.random.default_rng(70 + n)
        for trial in range(4):
            stack = random_densities(sys_, n, np.random.SeedSequence([n, trial]).spawn(6)).copy()
            kinds = rng.permutation([0, 0, 1, 1, 2, 2])
            for k, kind in enumerate(kinds):
                i, j = rng.choice(n * n, 2, replace=False)
                stack[k, i, j] += (0.0, 1e-13 + 1e-12j, 3e-9j)[kind]
            err = np.abs(stack - dagger(stack)).max(axis=(1, 2))
            assert ((err > 0).astype(int) + (err > 1e-10)).tolist() == kinds.tolist()
            got = functionals(stack, sys_)
            for k in range(len(stack)):
                for values, alone, part in zip(got, functionals(stack[k:k + 1], sys_),
                                               functionals(hermitian_part(stack[k:k + 1]), sys_)):
                    assert values[k:k + 1].tobytes() == alone.tobytes() == part.tobytes()


class TestFunctionals:
    """A stack whose states agree on their routes gives each its bits from evaluate_criteria."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_bit_equal_to_one_state_at_a_time(self, n, monkeypatch):
        sys_ = coupled_system(n)
        family = [family_state(sys_, lam) for lam in (0.0, 0.05, 1 / (n + 2), 0.5, 1.0)]
        dense = [random_density(sys_, rank, (n, rank, k))
                 for rank in (1, 2 * n, n * n) for k in range(3)]
        fields = ("trace_norm_T2", "trace_norm_R", "witness_value")

        def alone(states):
            ref = [evaluate_criteria(rho, sys_) for rho in states]
            return ref, [np.array([getattr(v, field) for v in ref]) for field in fields]

        # a stack of one kind takes the route each of its states takes alone
        for states in (family, dense):
            stack = np.stack([rho.matrix for rho in states])
            ref, columns = alone(states)
            for values, column in zip(functionals(stack, sys_), columns):
                assert_same_bits(values, column)
            assert verdicts(stack, sys_) == ref
        # family states have a Hermitian realignment and random ones do not;
        # interleaved, the stack is not all sector states, so it is permuted
        # whole, and each state is within rounding of its value alone
        herm = [bool(exactly_hermitian(one_block(stacked_realignments(rho.matrix[None], n))))
                for rho in family + dense]
        assert any(herm) and not all(herm)
        states = (family + dense)[::2] + (family + dense)[1::2]
        calls = []
        monkeypatch.setattr(criteria, "_partial_transposes", counted(_partial_transposes, calls))
        got = functionals(np.stack([rho.matrix for rho in states]), sys_)
        assert len(calls) == 1
        columns = alone(states)[1]
        for values, column in zip(got[:2], columns[:2]):
            assert np.all(np.abs(values - column) <= 1e-12 * np.maximum(1.0, np.abs(column)))
        assert_same_bits(got[2], columns[2])  # tr(W rho) reads the same entries on every route

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("kind", ["sector", "dense"])
    def test_member_keeps_its_bits_beside_a_member_of_the_other_route(self, n, kind):
        # the Hermiticity route of R rho is each member's own: a family state
        # (Hermitian R blocks) beside (rho + |01><01|) / 2 in one J_z stack, and
        # a real rho_A x rho_A (symmetric C.real) beside a random state
        sys_ = coupled_system(n)
        if kind == "sector":
            rho = family_state(sys_, 0.2).matrix
            e = np.zeros_like(rho)
            e[1, 1] = 1
            mate = (rho + e) / 2
        else:
            g = np.random.default_rng(n).normal(size=(n, n))
            rho_a = g @ g.T / np.trace(g @ g.T)
            rho = np.kron(rho_a, rho_a).astype(complex)
            mate = random_density(sys_, 4, 1).matrix
        stack = np.stack([rho, mate])
        held = _States(n, 2, array=stack)
        assert held.sector is (kind == "sector")
        blocks = (held.blocks(criteria._sectors(n)[1]) if held.sector
                  else [_realignment_pair_forms(stack, n).real[:, None]])
        assert exactly_hermitian(blocks).tolist() == [True, False]
        for values, alone in zip(functionals(stack, sys_), functionals(rho[None], sys_)):
            assert_same_bits(values[:1], alone)

    @pytest.mark.parametrize("n, route", [(4, "dense"), (6, "dense"), (4, "sector"), (6, "sector"),
                                          (16, "sector")])
    def test_one_kernel_call_per_block_size_and_functional(self, monkeypatch, n, route):
        # one trace_norms call per functional for the whole stack: a dense
        # stack is one eigensolve of T_2 rho and one SVD of the real pair form C
        # (random states: C is not symmetric); a family stack one LAPACK call
        # per J_z block size of T_2 rho and of R rho.  The blocks of R rho are
        # gathered only after T_2 rho is normed, so the two lists never coexist
        sys_ = coupled_system(n)
        if route == "dense":
            stack = random_densities(sys_, n, np.random.SeedSequence(n).spawn(5))
            want = {"eigvalsh": 1, "svd": 1}
        else:
            stack = np.stack([family_state(sys_, lam).matrix for lam in (0.0, 0.3, 1.0)])
            want = sum(len(sectors.shapes) for sectors in criteria._sectors(n))
        norms = count_calls(monkeypatch, "trace_norms")
        kernels = {name: [] for name in ("eigvalsh", "svd")}
        for name, operands in kernels.items():
            def spy(m, *args, kernel=getattr(np.linalg, name), operands=operands, **kwargs):
                operands.append(m)
                return kernel(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        events, given = [], []
        norm = criteria.trace_norms
        monkeypatch.setattr(criteria, "trace_norms", lambda blocks, hermitian=None: events.append(
            "norm") or given.extend(blocks) or norm(blocks, hermitian))
        for owner, name in ((criteria, "_partial_transposes"), (criteria, "_realignment_pair_forms"),
                            (_Sectors, "split")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name), events, "gather"))
        functionals(stack, sys_)
        got = {name: len(operands) for name, operands in kernels.items()}
        assert len(norms) == 2
        assert (got if route == "dense" else sum(got.values())) == want
        assert events == ["gather", "norm", "gather", "norm"]
        # every member takes one route, so each block array goes to LAPACK as it is
        operands = [m for ms in kernels.values() for m in ms]
        assert len(operands) == len(given) and all(any(m is b for b in given) for m in operands)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_swap_form_witness_matches_the_dense_witness(self, n):
        # tr(W rho) from I - N P_0 - F, without W, against the contraction with W
        sys_ = coupled_system(n)
        rng = np.random.default_rng(n)
        stack = np.stack([random_density(sys_, int(rng.integers(1, n * n + 1)), rng).matrix
                          for _ in range(8)] + [family_state(sys_, 0.3).matrix])
        ref = np.einsum("ij,bji->b", build_witness(sys_), stack).real
        assert np.abs(functionals(stack, sys_)[2] - ref).max() <= 1e-13

    def test_empty_stack(self, sys4):
        empty = np.zeros((0, 16, 16))
        assert [f.shape for f in functionals(empty, sys4)] == [(0,)] * 3
        assert verdicts(empty, sys4) == []
        assert _check_densities(empty, 4).shape == (0, 16, 16)

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
        assert dense_witness_value(build_witness(sys_), rho) == pytest.approx(
            -lam * (n - 2), abs=1e-12)

    def test_transpose_vs_time_reversal_norm_identity(self, sys4):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(sys4, int(rng.integers(1, 17)), rng).matrix
            assert abs(evaluate_criteria(rho, sys4).trace_norm_T2
                       - trace_norms(one_block(partial_time_reversal(rho, sys4)[None]))[0]) < 1e-10


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
