import dataclasses
import tracemalloc

import numpy as np
import pytest

from entbound import (DimensionError, concurrence_from_functional, coupled_system,
                      time_reversal_unitary, time_reverse)
from entbound.closedform import (partial_time_reversal, spectral_witness, spin_operators,
                                 swap_operator, total_spin_projectors)


class TestTimeReversalUnitary:
    def test_n2_matrix(self):
        assert np.array_equal(time_reversal_unitary(2).real,
                              np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_n4_matrix(self):
        v = time_reversal_unitary(4).real
        expected = np.zeros((4, 4))
        expected[3, 0] = 1.0
        expected[2, 1] = -1.0
        expected[1, 2] = 1.0
        expected[0, 3] = -1.0
        assert np.array_equal(v, expected)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_unitary_skew(self, n):
        v = time_reversal_unitary(n)
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
        assert np.abs(v.T + v).max() < 1e-12
        assert np.abs(v @ v + np.eye(n)).max() < 1e-12

    def test_rejects_odd(self):
        with pytest.raises(DimensionError):
            time_reversal_unitary(5)


class TestTimeReverse:
    def test_identity_fixed(self, sys4):
        assert np.abs(time_reverse(np.eye(4), sys4) - np.eye(4)).max() < 1e-12

    def test_spin_flip(self, sys4):
        for op in spin_operators(4):
            assert np.abs(time_reverse(op, sys4) + op).max() < 1e-12

    def test_involution(self, sys4):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(time_reverse(time_reverse(b, sys4), sys4) - b).max() < 1e-12

    def test_rejects_wrong_shape(self, sys4):
        with pytest.raises(DimensionError):
            time_reverse(np.eye(3), sys4)


class TestSpinOperators:
    def test_n2_is_half_pauli(self):
        jx, jy, jz = spin_operators(2)
        assert np.abs(jx - np.array([[0, 1], [1, 0]]) / 2).max() < 1e-15
        assert np.abs(jy - np.array([[0, -1j], [1j, 0]]) / 2).max() < 1e-15
        assert np.abs(jz - np.array([[1, 0], [0, -1]]) / 2).max() < 1e-15

    @pytest.mark.parametrize("n", [4, 6])
    def test_casimir(self, n):
        jx, jy, jz = spin_operators(n)
        j = (n - 1) / 2
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.abs(casimir - j * (j + 1) * np.eye(n)).max() < 1e-12

    def test_commutator(self):
        jx, jy, jz = spin_operators(6)
        assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12

    def test_ladder_element_formula(self):
        # raising operator element between adjacent m levels, checked by hand
        jx, jy, _ = spin_operators(4)
        jplus = jx + 1j * jy
        j = 1.5
        for i in range(1, 4):
            m = j - i
            assert jplus[i - 1, i] == pytest.approx(
                np.sqrt(j * (j + 1) - m * (m + 1)), abs=1e-12)


class TestSwap:
    def test_action_on_basis(self):
        f = swap_operator(4)
        e1 = np.zeros(4); e1[1] = 1
        e2 = np.zeros(4); e2[2] = 1
        assert np.abs(f @ np.kron(e1, e2) - np.kron(e2, e1)).max() == 0.0

    @pytest.mark.parametrize("n", [4, 6])
    def test_involution_and_trace(self, n):
        f = swap_operator(n)
        assert np.abs(f @ f - np.eye(n * n)).max() == 0.0
        # the index swap fixes exactly the n diagonal pairs (a, a)
        assert np.trace(f).real == pytest.approx(n)

    @pytest.mark.parametrize("n", [4, 6])
    def test_alternating_projector_sum(self, n):
        projs = total_spin_projectors(n)
        alt = sum((-1) ** (bigj + 1) * p for bigj, p in enumerate(projs))
        assert np.abs(swap_operator(n) - alt).max() < 1e-10


class TestProjectors:
    def test_ranks_n4(self, sys4):
        assert [round(np.trace(p).real) for p in total_spin_projectors(4)] == [1, 3, 5, 7]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_completeness_and_ranks(self, n):
        projs = total_spin_projectors(n)
        assert np.abs(sum(projs) - np.eye(n * n)).max() < 1e-10
        assert [round(np.trace(p).real) for p in projs] == \
            [2 * bigj + 1 for bigj in range(n)]

    @pytest.mark.parametrize("n", [14, 16])
    def test_idempotent_to_machine_precision_at_large_n(self, n):
        projs = total_spin_projectors(n)
        assert max(float(np.abs(p @ p - p).max()) for p in projs) <= 1e-12
        assert np.abs(sum(projs) - np.eye(n * n)).max() <= 1e-12

    def test_orthogonality(self):
        projs = total_spin_projectors(6)
        for a in range(6):
            for b in range(6):
                prod = projs[a] @ projs[b]
                ref = projs[a] if a == b else 0.0
                assert np.abs(prod - ref).max() < 1e-9

    def test_singlet_projector_matches_cg_outer_product(self):
        # independent construction from the coupling coefficients
        n, j = 4, 1.5
        cg = np.zeros(n * n, dtype=complex)
        for i, m in enumerate(j - np.arange(n)):
            cg[i * n + int(j + m)] = (-1) ** (j - m) / np.sqrt(n)
        # index of -m in the descending basis is j - (-m) = j + m
        assert np.abs(total_spin_projectors(4)[0] - np.outer(cg, cg.conj())).max() < 1e-10


class TestSpectralWitness:
    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_same_bits_as_the_sum_of_the_projector_list(self, n):
        projs = total_spin_projectors(n)
        ref = -(n - 2) * projs[0] + 2 * sum(projs[2:n - 1:2])
        assert spectral_witness(coupled_system(n)).tobytes() == ref.tobytes()  # signed zeros too

    def test_holds_a_few_projectors_at_once(self):
        # the N projectors are drawn one at a time from one eigensolve, never held as a list
        n = 16
        sys_ = coupled_system(n)
        tracemalloc.start()
        try:
            spectral_witness(sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * n ** 4


class TestSinglet:
    @pytest.mark.parametrize("n", [4, 6])
    def test_unit_norm_and_eigenvector(self, n):
        sys_ = coupled_system(n)
        psi = sys_.singlet
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(total_spin_projectors(n)[0] @ psi - psi).max() < 1e-10

    @pytest.mark.parametrize("n", [4, 6])
    def test_partial_time_reversal_gives_swap(self, n):
        sys_ = coupled_system(n)
        p0 = np.outer(sys_.singlet, sys_.singlet.conj())
        assert np.abs(n * partial_time_reversal(p0, sys_) - swap_operator(n)).max() < 1e-12

    def test_reduced_state_maximally_mixed(self, sys6):
        p0 = np.outer(sys6.singlet, sys6.singlet.conj())
        r4 = p0.reshape(6, 6, 6, 6)
        reduced = np.einsum("ikjk->ij", r4)
        assert np.abs(reduced - np.eye(6) / 6).max() < 1e-12


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", [4, 6])
    def test_symmetric_subspace_is_odd_spin(self, n):
        sys_ = coupled_system(n)
        odd = sum(total_spin_projectors(n)[bigj] for bigj in range(1, n, 2))
        assert np.abs((np.eye(n * n) + swap_operator(n)) / 2 - odd).max() < 1e-10

    def test_time_reversed_vector_orthogonal(self, sys4):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi /= np.linalg.norm(phi)
            theta_phi = sys4.v @ phi.conj()
            assert abs(np.vdot(phi, theta_phi)) <= 1e-12

    def test_casimir_commutes_with_swap_and_double_rotation(self, sys4):
        ops = spin_operators(4)
        eye = np.eye(4)
        j2 = sum((np.kron(a, eye) + np.kron(eye, a)) @ (np.kron(a, eye) + np.kron(eye, a))
                 for a in ops)
        f = swap_operator(4)
        assert np.abs(j2 @ f - f @ j2).max() < 1e-10
        vv = np.kron(sys4.v, sys4.v)
        assert np.abs(vv @ j2 @ vv.conj().T - j2).max() < 1e-10


class TestSystemCache:
    def test_cached_and_immutable(self):
        a = coupled_system(4)
        b = coupled_system(4)
        assert a is b
        with pytest.raises(ValueError):
            a.singlet[0] = 5.0

    def test_holds_no_dense_operator(self):
        sys_ = coupled_system(64)
        arrays = [getattr(sys_, f.name) for f in dataclasses.fields(sys_)]
        assert max(a.size for a in arrays if isinstance(a, np.ndarray)) <= 64 * 64

    def test_rejects_odd_or_small(self):
        with pytest.raises(DimensionError):
            coupled_system(5)
        with pytest.raises(DimensionError):
            coupled_system(2)


class TestLocalDimensionRule:
    """Every even-N entry point takes an integer N, as ``n_local`` does, never a truncated one."""

    CALLS = {
        "coupled_system": coupled_system,
        "concurrence_from_functional": lambda n: concurrence_from_functional(0.5, n),
        "time_reversal_unitary": time_reversal_unitary,
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("n", [4.7, 2.9, 4.0, True, "4", None])
    def test_rejects_non_integer(self, call, n):
        with pytest.raises(DimensionError, match="even and >= "):
            self.CALLS[call](n)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_accepts_numpy_integer(self, call):
        got, ref = self.CALLS[call](np.int64(4)), self.CALLS[call](4)
        if call == "coupled_system":
            assert type(got.n) is int and got.n == 4
            got, ref = got.singlet, ref.singlet
        assert np.array_equal(got, ref)

