import warnings

import numpy as np
import pytest

from entbound import (DensityMatrix, DimensionError, PureState, build_witness,
                      concurrence_pure, coupled_system, eof_pure,
                      evaluate_criteria, family_state, isotropic_state,
                      load_state, random_densities, random_density, random_pure,
                      save_state, schmidt_decompose, werner_state, witness_value)
from entbound.closedform import swap_operator, total_spin_projectors
from entbound.states import _check_densities, _Owned
from helpers import product_pure, random_product_unitary, schmidt_reconstruct


def non_hermitian():
    m = np.eye(16, dtype=complex) / 16
    m[0, 1] = 0.1
    return m


def negative_eigenvalue():
    m = np.eye(16) / 14
    m[0, 0] = -1 / 14
    return m


def with_nan():
    m = np.eye(16, dtype=complex) / 16
    m[3, 3] = np.nan
    return m


# one invalid 16 x 16 matrix per density check, with the message it raises
DEFECTS = {
    "non-hermitian": (non_hermitian, "density matrix is not Hermitian within 1e-10"),
    "wrong-trace": (lambda: np.eye(16) / 8, "density matrix trace differs from 1 beyond 1e-10"),
    "negative-eigenvalue": (negative_eigenvalue, "density matrix has an eigenvalue below -1e-10"),
    "nan": (with_nan, "matrix contains NaN or Inf entries"),
}


class TestDensityMatrixValidation:
    def test_accepts_valid(self, sys4):
        dm = DensityMatrix(n_local=4, matrix=np.eye(16) / 16)
        assert dm.n_local == 4

    def test_rejects_non_hermitian(self):
        m = np.eye(16, dtype=complex) / 16
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(n_local=4, matrix=m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(n_local=4, matrix=np.eye(16) / 8)

    def test_rejects_negative_eigenvalue(self):
        m = np.eye(16) / 14
        m[0, 0] = -1 / 14
        with pytest.raises(ValueError):
            DensityMatrix(n_local=4, matrix=m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            DensityMatrix(n_local=4, matrix=np.eye(9) / 9)

    def test_matrix_is_read_only(self, sys4):
        dm = random_density(sys4, 3, 1)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 1.0

    def test_input_array_stays_writable(self):
        m = np.eye(16, dtype=complex) / 16
        DensityMatrix(n_local=4, matrix=m)
        m[0, 0] = 0.5

    def test_later_writes_to_input_leave_state_unchanged(self, sys4):
        m = np.eye(16, dtype=complex) / 16
        dm = DensityMatrix(n_local=4, matrix=m)
        before = evaluate_criteria(dm, sys4)
        m[0, 0] = 5.0
        assert np.array_equal(dm.matrix, np.eye(16) / 16)
        assert evaluate_criteria(dm, sys4) == before


    def test_library_arrays_are_adopted_not_copied(self):
        m = np.eye(16, dtype=complex) / 16
        dm = DensityMatrix(n_local=4, matrix=_Owned(m))
        assert dm.matrix is m and not m.flags.writeable


class TestLocalDimension:
    """n_local is an integer >= 1, stored as a Python int."""

    @pytest.mark.parametrize("n, size", [(4.7, 16), (-4, 16), (0, 1), (True, 1),
                                         (np.float64(4.0), 16), ("4", 16)])
    def test_density_matrix_rejects_bad_value(self, n, size):
        with pytest.raises(DimensionError, match="n_local must be an integer >= 1"):
            DensityMatrix(n_local=n, matrix=np.eye(size) / size)

    @pytest.mark.parametrize("n, size", [(4.7, 16), (-4, 16), (0, 1), (True, 1)])
    def test_pure_state_rejects_bad_value(self, n, size):
        with pytest.raises(DimensionError, match="n_local must be an integer >= 1"):
            PureState(n_local=n, vector=np.eye(size)[0])

    def test_numpy_integer_survives_a_file_round_trip(self, tmp_path, sys4):
        for state in (DensityMatrix(np.int64(4), family_state(sys4, 0.3).matrix),
                      PureState(np.int64(4), sys4.singlet)):
            assert type(state.n_local) is int
            path = tmp_path / "state.json"
            save_state(path, state)
            back = load_state(path)
            assert back.n_local == 4
            if isinstance(state, DensityMatrix):
                assert np.array_equal(back.matrix, state.matrix)
            else:
                assert np.array_equal(back.vector, state.vector)


class TestDensityStack:
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_state_raises_the_single_state_message(self, sys4, defect, position):
        make, message = DEFECTS[defect]
        with pytest.raises(ValueError) as single:
            DensityMatrix(n_local=4, matrix=make())
        assert str(single.value) == message
        stack = [random_density(sys4, 3, k).matrix for k in range(5)]
        stack[position] = make()
        with pytest.raises(ValueError) as stacked:
            _check_densities(stack, 4)
        assert str(stacked.value) == message

    def test_first_bad_state_decides_the_message(self, sys4):
        # as if checked one state after another: the eigenvalue defect of the
        # second state is reported before the Hermiticity defect of the third
        stack = [np.eye(16) / 16, negative_eigenvalue(), non_hermitian()]
        with pytest.raises(ValueError, match="eigenvalue below"):
            _check_densities(stack, 4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            _check_densities(np.eye(16)[None] / 16, 6)
        with pytest.raises(DimensionError):
            _check_densities(np.eye(16) / 16, 4)

    @pytest.mark.parametrize("rank", [1, 7, 36])
    def test_random_densities_match_one_at_a_time(self, sys6, rank):
        seeds = np.random.SeedSequence(8).spawn(5)
        stack = random_densities(sys6, rank, seeds)
        assert not stack.flags.writeable
        for got, seed in zip(stack, seeds):
            # the per-state formula, and the per-state sampler
            rng = np.random.default_rng(seed)
            g = rng.normal(size=(36, rank)) + 1j * rng.normal(size=(36, rank))
            m = g @ g.conj().T
            for ref in (m / np.trace(m).real, random_density(sys6, rank, seed).matrix):
                assert np.array_equal(got, ref)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


class TestFamilyState:
    def test_endpoints(self, sys4):
        assert np.abs(family_state(sys4, 0.0).matrix - werner_state(sys4).matrix).max() == 0.0
        p0 = np.outer(sys4.singlet, sys4.singlet.conj())
        assert np.abs(family_state(sys4, 1.0).matrix - p0).max() < 1e-15

    def test_witness_value_midpoint(self, sys4):
        got = witness_value(build_witness(sys4), family_state(sys4, 0.5).matrix)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_out_of_range(self, sys4):
        with pytest.raises(ValueError):
            family_state(sys4, 1.2)
        with pytest.raises(ValueError):
            family_state(sys4, -0.01)

    @pytest.mark.parametrize("n", [4, 6, 16])
    def test_bit_equal_to_dense_swap_mixture(self, n):
        sys_ = coupled_system(n)
        p0 = np.outer(sys_.singlet, sys_.singlet.conj())
        werner = 2 / (n * (n + 1)) * ((np.eye(n * n) + swap_operator(n)) / 2)
        for lam in np.linspace(0, 1, 11):
            got = family_state(sys_, float(lam)).matrix
            ref = lam * p0 + (1 - lam) * werner
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_valid_density_on_grid(self, n):
        sys_ = coupled_system(n)
        for k in range(101):
            family_state(sys_, k / 100)  # construction validates the invariants


class TestWernerState:
    def test_trace_and_symmetric_form(self, sys4):
        rho = werner_state(sys4).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        projs = total_spin_projectors(4)
        odd = sum(projs[j] for j in range(1, 4, 2))
        assert np.abs(rho - 2 / 20 * odd).max() < 1e-10

    def test_undetected(self, sys4):
        rho = werner_state(sys4).matrix
        v = evaluate_criteria(rho, sys4)
        assert v.trace_norm_T2 == pytest.approx(1.0, abs=1e-10)
        assert v.trace_norm_R <= 1.0 + 1e-10
        assert witness_value(build_witness(sys4), rho) == pytest.approx(0.0, abs=1e-12)


class TestIsotropicState:
    def test_uniform_point(self, sys4):
        rho = isotropic_state(sys4, 1 / 16).matrix
        assert np.abs(rho - np.eye(16) / 16).max() < 1e-14

    def test_fidelity_is_singlet_overlap(self, sys4):
        for f in (0.0, 0.2, 0.7, 1.0):
            rho = isotropic_state(sys4, f).matrix
            got = (sys4.singlet.conj() @ rho @ sys4.singlet).real
            assert got == pytest.approx(f, abs=1e-12)

    def test_witness_value_formula(self, sys6):
        w = build_witness(sys6)
        for f in (0.1, 0.5, 0.95):
            got = witness_value(w, isotropic_state(sys6, f).matrix)
            assert got == pytest.approx(4 * (1 - 6 * f) / 5, abs=1e-12)

    def test_rejects_out_of_range(self, sys4):
        with pytest.raises(ValueError):
            isotropic_state(sys4, 1.01)


class TestSamplers:
    def test_deterministic(self, sys4):
        assert np.array_equal(random_pure(sys4, 7).vector, random_pure(sys4, 7).vector)
        assert np.array_equal(random_density(sys4, 5, 7).matrix,
                              random_density(sys4, 5, 7).matrix)
        u1a, u2a = random_product_unitary(sys4, 7)
        u1b, u2b = random_product_unitary(sys4, 7)
        assert np.array_equal(u1a, u1b) and np.array_equal(u2a, u2b)

    def test_rank_one_density(self, sys4):
        rho = random_density(sys4, 1, 11).matrix
        evals = np.linalg.eigvalsh(rho)
        assert np.sum(evals < 1e-10) == 15

    def test_rejects_bad_rank(self, sys4):
        with pytest.raises(ValueError):
            random_density(sys4, 0, 1)
        with pytest.raises(ValueError):
            random_density(sys4, 17, 1)

    def test_product_unitary_is_unitary(self, sys4):
        u1, u2 = random_product_unitary(sys4, 3)
        for u in (u1, u2):
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_purity_moment_against_bootstrap_oracle(self, sys4):
        # the trace and the normalized spectrum of a Wishart factorize, so
        # E[tr rho^2] = E[tr W^2] / E[(tr W)^2] = (n + k) / (n k + 1) exactly
        n2, rank, samples = 16, 16, 1000
        oracle = (n2 + rank) / (n2 * rank + 1)
        purities = np.empty(samples)
        for i in range(samples):
            rho = random_density(sys4, rank, (123, i)).matrix
            purities[i] = np.trace(rho @ rho).real
        rng = np.random.default_rng(99)
        boots = [purities[rng.integers(0, samples, samples)].mean() for _ in range(200)]
        stderr = np.std(boots)
        assert abs(purities.mean() - oracle) < 6 * stderr


class TestSchmidt:
    def test_product_state(self, sys4):
        psi = product_pure([1, 0, 0, 0], [0, 1, 0, 0])
        alpha = schmidt_decompose(psi).coefficients
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(alpha[1:]).max() < 1e-12
        assert concurrence_pure(psi) == pytest.approx(0.0, abs=1e-10)
        assert eof_pure(psi) == pytest.approx(0.0, abs=1e-10)

    def test_singlet_flat_spectrum(self, sys4):
        alpha = schmidt_decompose(PureState(4, sys4.singlet)).coefficients
        assert np.abs(alpha - 0.5).max() < 1e-12

    def test_normalization_and_reconstruction(self, sys4):
        for seed in range(30):
            psi = random_pure(sys4, seed)
            form = schmidt_decompose(psi)
            assert np.sum(form.coefficients ** 2) == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(form.coefficients) <= 1e-14)
            assert np.linalg.norm(schmidt_reconstruct(form) - psi.vector) < 1e-9
            for basis in (form.basis_1, form.basis_2):
                assert np.abs(basis.conj().T @ basis - np.eye(4)).max() < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros(16))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("function", [schmidt_decompose, concurrence_pure, eof_pure])
    def test_rejects_non_finite(self, function, entry):
        v = np.full(16, 0.25, dtype=complex)
        v[5] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="state vector contains NaN or Inf entries"):
                function(v)


class TestPureMeasures:
    def test_maximally_entangled_n4(self, sys4):
        psi = PureState(4, sys4.singlet)
        assert concurrence_pure(psi) == pytest.approx(1.224744871391589, abs=1e-12)
        assert eof_pure(psi) == pytest.approx(2.0, abs=1e-12)

    def test_two_term_state(self):
        v = np.zeros(16)
        v[0 * 4 + 0] = np.sqrt(0.8)
        v[1 * 4 + 1] = np.sqrt(0.2)
        psi = PureState(4, v)
        assert concurrence_pure(psi) == pytest.approx(0.8, abs=1e-12)
        assert eof_pure(psi) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_concurrence_equals_purity_form(self, sys4):
        # same number through the reduced-state purity instead of Schmidt sums
        for seed in range(200):
            psi = random_pure(sys4, (1, seed))
            rho1 = np.einsum("ikjk->ij", psi.projector().reshape(4, 4, 4, 4))
            oracle = np.sqrt(max(0.0, 2 * (1 - np.trace(rho1 @ rho1).real)))
            assert concurrence_pure(psi) == pytest.approx(oracle, abs=1e-10)

    def test_schmidt_sum_inequality(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            alpha = np.sqrt(rng.dirichlet(np.ones(4)))
            off_sq = np.sum(alpha ** 2) ** 2 - np.sum(alpha ** 4)
            off = np.sum(alpha) ** 2 - np.sum(alpha ** 2)
            assert off_sq >= off ** 2 / (4 * 3) - 1e-12


class TestStateFiles:
    def test_density_round_trip(self, tmp_path, sys4):
        rho = family_state(sys4, 0.3)
        path = tmp_path / "rho.json"
        save_state(path, rho)
        back = load_state(path)
        assert isinstance(back, DensityMatrix)
        assert np.array_equal(back.matrix, rho.matrix)

    def test_pure_round_trip(self, tmp_path, sys4):
        psi = random_pure(sys4, 2)
        path = tmp_path / "psi.json"
        save_state(path, psi)
        back = load_state(path)
        assert isinstance(back, PureState)
        assert np.array_equal(back.vector, psi.vector)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_local": 4}')
        with pytest.raises(ValueError):
            load_state(path)

    def test_rejects_invalid_matrix(self, tmp_path):
        path = tmp_path / "invalid.json"
        entries = [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(16)] for i in range(16)]
        entries[0][1] = [0.5, 0.0]  # breaks Hermiticity
        import json
        path.write_text(json.dumps({"n_local": 4, "matrix": entries}))
        with pytest.raises(ValueError):
            load_state(path)
