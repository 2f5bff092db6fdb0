import dataclasses
import json
import pickle
import re
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest

from dataclasses import astuple

from entbound import (DensityMatrix, DimensionError, PureState, build_witness,
                      concurrence_pure, coupled_system, eof_pure,
                      evaluate_criteria, family_state, haar_unitary, isotropic_state,
                      load_state, random_densities, random_density, random_pure,
                      save_state, schmidt_decompose, werner_state, witness_value)
from entbound.closedform import swap_operator, total_spin_projectors
from entbound import criteria, functionals, states
from entbound.states import _check_densities, _is_sector_stack, _mixture_stacks
from helpers import (family_matrix, isotropic_matrix, load_whole_file, product_pure,
                     random_product_unitary, schmidt_reconstruct, werner_matrix)


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


def huge_pair(value=2.0 ** 1023):
    """A trace-1 matrix, Hermitian bit for bit, with ``value`` at (0, 1) and its conjugate at (1, 0)."""
    m = np.eye(16, dtype=complex) / 16
    m[0, 1], m[1, 0] = value, np.conj(value)
    return m


# one invalid 16 x 16 matrix per density check, with the message it raises
DEFECTS = {
    "non-hermitian": (non_hermitian, "density matrix is not Hermitian within 1e-10"),
    "wrong-trace": (lambda: np.eye(16) / 8, "density matrix trace differs from 1 beyond 1e-10"),
    "negative-eigenvalue": (negative_eigenvalue, "density matrix has an eigenvalue below -1e-10"),
    "overflowing-pair": (huge_pair, "matrix has a real or imaginary part of magnitude 2^990 or more"),
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

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionError, match="^expected a matrix, got array of ndim 3$"):
            DensityMatrix(n_local=4, matrix=np.eye(16)[None] / 16)

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


    def test_library_arrays_are_adopted_not_copied(self, monkeypatch, tmp_path, sys4):
        # random_density and both load_state branches validate the array they
        # built and wrap its record: the state's matrix is that array, read-only
        path, indented = tmp_path / "rows.json", tmp_path / "indented.json"
        save_state(path, random_density(sys4, 3, 1))
        indented.write_text(json.dumps(json.loads(path.read_text()), indent=1))  # parsed whole
        built = []
        for name in ("_sample_densities", "_matrix_rows", "_pairs"):
            def spy(*args, original=getattr(states, name)):
                built.append(original(*args))
                return built[-1]
            monkeypatch.setattr(states, name, spy)
        for make, array in ((lambda: random_density(sys4, 3, 1), lambda out: out[0]),
                            (lambda: load_state(path), lambda out: out[1]),
                            (lambda: load_state(indented), lambda out: out)):
            built.clear()
            dm = make()
            m = array(built[-1])
            assert np.shares_memory(dm.matrix, m) and dm.matrix.shape == m.shape == (16, 16)
            assert not dm.matrix.flags.writeable


class TestPureStateValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError, match=r"^state vector must have length 16, got \(15,\)$"):
            PureState(4, np.eye(15)[0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="^state vector is not normalized within 1e-12$"):
            PureState(4, (1 + 2e-12) * np.eye(16)[0])


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_and_odd_dimensions_validate(self, n):
        # only the criteria need an even N >= 4; a state of any size is checked
        assert DensityMatrix(n_local=n, matrix=np.eye(n * n) / (n * n)).n_local == n
        if n > 1:
            negative = np.diag([2.0] + [-1.0 / (n * n - 1)] * (n * n - 1))
            with pytest.raises(ValueError, match="eigenvalue below"):
                DensityMatrix(n_local=n, matrix=negative)

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

    @pytest.mark.parametrize("value, defect", [
        (2.0 ** 1023, "overflowing-pair"), (-(2.0 ** 1023), "overflowing-pair"),
        (2.0 ** 1023 * 1j, "overflowing-pair"), (2.0 ** 989, "negative-eigenvalue")])
    def test_entry_where_symmetrising_overflows_is_rejected(self, sys4, value, defect):
        # (m + m^dag) / 2 is inf from 2^1023 up: the gate rejects every part
        # from 2^990 up, for the whole stack.  Below that, a valid state has
        # no entry above 1 + 16e-10, so m fails the eigenvalue test, and the
        # first failing member still decides the message
        message = DEFECTS[defect][1]
        stack = [random_density(sys4, 3, 1).matrix, huge_pair(value), non_hermitian()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DensityMatrix(n_local=4, matrix=huge_pair(value))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


    def test_certified_dense_check_holds_no_copy(self):
        # an exactly Hermitian state takes its shift in place: the check holds
        # the Hermiticity difference, then numpy's factor, never a copy of rho
        # or (rho + rho^dag) / 2 beside it (the eigenvalue-test peak was two sizes)
        stack = random_density(coupled_system(16), 4, 1).matrix[None].copy()
        _check_densities(stack.copy(), 16)  # warm the caches of N = 16
        tracemalloc.start()
        try:
            _check_densities(stack, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stack.nbytes

    @pytest.mark.parametrize("smallest, message", [
        (1e-3, None), (-0.95e-10, None), (-1e-3, DEFECTS["negative-eigenvalue"][1])])
    def test_check_leaves_its_input_bits(self, smallest, message):
        # the diagonal shift of the certificate is undone bit for bit, whether the
        # factorization succeeds or the eigensolve decides; read-only input is copied
        m = rotated_diagonal(4, smallest)
        m = (m + m.conj().T) / 2  # exactly Hermitian, so m itself takes the shift
        valid = random_density(coupled_system(4), 16, 3).matrix
        for stack in (np.stack([valid, m]), np.stack([m, m.T])):
            before = stack.copy()
            for a in (stack, before.copy()):
                a.setflags(write=a is stack)
                try:
                    _check_densities(a, 4)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == message
                assert np.array_equal(a.view(np.uint64), before.view(np.uint64))


@lru_cache(maxsize=None)
def haar(d):
    return haar_unitary(d, np.random.default_rng(d))


def rotated_diagonal(n, smallest):
    """A dense trace-1 U D U^dag on C^N otimes C^N, U Haar-random.

    D holds ``smallest``, N^2 / 2 - 1 zeros and N^2 / 2 positive entries.
    """
    d = n * n
    rest = np.random.default_rng(n).uniform(0.5, 1.5, d // 2)
    diag = np.concatenate([[smallest], np.zeros(d // 2 - 1), rest * (1 - smallest) / rest.sum()])
    u = haar(d)
    return (u * diag) @ u.conj().T


@lru_cache(maxsize=None)
def valid_and_non_hermitian(n):
    valid = rotated_diagonal(n, 1e-3)
    bad = valid.copy()
    bad[0, 1] += 1e-6
    for m in (valid, bad):
        m.setflags(write=False)
    return valid, bad


class TestEigenvalueBoundary:
    """Dense states with the smallest eigenvalue next to -1e-10 get the eigensolve's verdict.

    The certificate factors sym + (1e-10 - 1e-11) I, so it decides alone
    above -0.9e-10; from -0.92e-10 down the eigensolve decides, accepting
    above -1e-10 and rejecting below.
    """

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("offset", [-3e-11, -1.2e-11, -0.8e-11, 0.8e-11, 1.2e-11, 3e-11])
    def test_verdict_and_route(self, monkeypatch, n, offset):
        m = rotated_diagonal(n, -1e-10 + offset)
        assert not _is_sector_stack(m[None], n)
        sym = (m + m.conj().T) / 2
        rejects = bool(np.linalg.eigvalsh(sym[None])[0, 0] < -1e-10)
        assert rejects == (offset < 0)
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or original(a))
        if rejects:
            with pytest.raises(ValueError, match="^density matrix has an eigenvalue below -1e-10$"):
                DensityMatrix(n_local=n, matrix=m)
        else:
            DensityMatrix(n_local=n, matrix=m)
        assert len(calls) == (offset < 1e-11)
        # behind a valid dense state, with a non-Hermitian one after it
        valid, bad = valid_and_non_hermitian(n)
        message = DEFECTS["negative-eigenvalue" if rejects else "non-hermitian"][1]
        with pytest.raises(ValueError) as stacked:
            _check_densities([valid, m, bad], n)
        assert str(stacked.value) == message


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

    def test_stack_matches_one_at_a_time(self, sys6):
        lams = (0.0, 0.05, 0.3, 1.0)
        stack = next(_mixture_stacks(sys6, lams)).matrices()
        assert not stack.flags.writeable
        for got, lam in zip(stack, lams):
            assert got.tobytes() == family_state(sys6, lam).matrix.tobytes()
        with pytest.raises(ValueError, match="mixing parameter"):
            _mixture_stacks(sys6, (0.5, 1.5))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_valid_density_on_grid(self, n):
        sys_ = coupled_system(n)
        for k in range(101):
            family_state(sys_, k / 100)  # construction validates the invariants


class TestWernerState:
    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
    def test_is_the_family_at_zero(self, n):
        sys_ = coupled_system(n)
        got = werner_state(sys_)
        assert "matrix" not in vars(got)  # held as its J_z blocks
        assert got.matrix.tobytes() == family_state(sys_, 0.0).matrix.tobytes()

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


class TestJzBlockStates:
    """The family, Werner and isotropic states are built and validated as their J_z blocks."""

    @staticmethod
    def states_and_oracles(n):
        sys_ = coupled_system(n)
        out = [(werner_state(sys_), werner_matrix(sys_))]
        out += [(family_state(sys_, float(lam)), family_matrix(sys_, float(lam)))
                for lam in (*np.linspace(0, 1, 11), 1 / (n + 2), 0.05)]
        out += [(isotropic_state(sys_, f), isotropic_matrix(sys_, f))
                for f in (0.0, 1 / n, 1 / (n * n), 0.2, 0.5, 0.95, 1.0)]
        return out

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_matrix_is_bit_equal_to_the_dense_oracle(self, n):
        for state, oracle in self.states_and_oracles(n):
            got = state.matrix
            assert got.dtype == np.complex128 and not got.flags.writeable
            assert got.tobytes() == oracle.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_trace_norms_are_bit_equal_to_the_dense_stack(self, n):
        sys_ = coupled_system(n)
        for state, _ in self.states_and_oracles(n):
            v = evaluate_criteria(state, sys_)
            t2, rn, wval = functionals(state.matrix[None], sys_)
            assert (v.trace_norm_T2, v.trace_norm_R) == (t2[0], rn[0])
            assert v.witness_value == wval[0]

    @pytest.mark.parametrize("make", [lambda s: family_state(s, 0.3), werner_state,
                                      lambda s: isotropic_state(s, 0.4)])
    @pytest.mark.parametrize("n", [4, 6])
    def test_pickle_round_trip_keeps_the_blocks(self, make, n):
        sys_ = coupled_system(n)
        state = make(sys_)
        back = pickle.loads(pickle.dumps(state))
        assert type(back) is type(state) and "matrix" not in vars(back)
        ref = evaluate_criteria(state, sys_)
        got = evaluate_criteria(back, sys_)
        assert np.array(astuple(got)).tobytes() == np.array(astuple(ref)).tobytes()
        assert "matrix" not in vars(back)  # the criteria read the unpickled blocks
        assert back.matrix.tobytes() == state.matrix.tobytes() and not back.matrix.flags.writeable
        # a state whose matrix was read is still pickled as its blocks
        assert "matrix" not in vars(pickle.loads(pickle.dumps(state)))

    def test_pickle_round_trip_of_a_dense_state(self, sys4):
        state = random_density(sys4, 5, 3)
        data = pickle.dumps(state)
        assert len(data) < 1.5 * state.matrix.nbytes  # the matrix is pickled once
        back = pickle.loads(data)
        assert back.matrix.tobytes() == state.matrix.tobytes() and not back.matrix.flags.writeable
        assert evaluate_criteria(back, sys4) == evaluate_criteria(state, sys4)

    @pytest.mark.parametrize("make", [lambda s: family_state(s, 0.3), werner_state,
                                      lambda s: isotropic_state(s, 0.4)])
    def test_replace_gives_a_dense_state(self, make, sys4):
        state = make(sys4)
        dense = dataclasses.replace(state, n_local=4)
        assert type(dense) is DensityMatrix and "matrix" in vars(dense)
        assert dense.matrix.tobytes() == state.matrix.tobytes() and not dense.matrix.flags.writeable
        assert evaluate_criteria(dense, sys4) == evaluate_criteria(state, sys4)
        with pytest.raises(ValueError, match="eigenvalue below"):
            dataclasses.replace(state, matrix=negative_eigenvalue())

    def test_matrix_is_built_only_on_demand(self, sys4, monkeypatch):
        scans = []
        monkeypatch.setattr(states, "_is_sector_stack",
                            lambda *args: scans.append(1) or _is_sector_stack(*args))
        state = family_state(sys4, 0.3)
        evaluate_criteria(state, sys4)
        assert "matrix" not in vars(state) and not scans
        assert state.matrix is state.matrix  # materialized once, then kept

    def test_repr_builds_no_matrix(self, sys4):
        state = family_state(sys4, 0.3)
        assert repr(state) == "DensityMatrix(n_local=4, matrix=<its J_z blocks>)"
        assert "matrix" not in vars(state)
        dense = DensityMatrix(4, np.eye(16) / 16)
        assert repr(dense) == f"DensityMatrix(n_local=4, matrix={dense.matrix!r})"

    @pytest.mark.parametrize("make", [lambda s: family_state(s, 0.3),
                                      lambda s: DensityMatrix(4, np.eye(16) / 16)],
                             ids=["blocks", "dense"])
    def test_unknown_attribute_raises(self, make, sys4):
        with pytest.raises(AttributeError, match="^'DensityMatrix' object has no attribute 'foo'$"):
            make(sys4).foo

    def test_block_check_keeps_the_messages(self, sys4):
        # a J_z block state runs the checks of _check_densities on its blocks
        n2 = 16
        for entries, message in (
                (lambda idx: np.where(idx == 0, 2.0, 0.0), "trace differs"),
                (lambda idx: np.where(idx == 1 * n2 + 4, 1j, 0.0) + (idx % (n2 + 1) == 0) / n2,
                 "not Hermitian"),
                (lambda idx: np.where(idx == 0, -1.0, np.where(idx == n2 + 1, 2.0, 0.0)),
                 "eigenvalue below")):
            with pytest.raises(ValueError, match=message):
                states._sector_states(4, 1, entries)


    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32, 64])
    def test_package_entries_have_error_zero(self, n):
        # the family, Werner and isotropic states equal their adjoints in value, so
        # every one takes the exact routes
        sys_ = coupled_system(n)
        for state in (family_state(sys_, 0.3), werner_state(sys_), isotropic_state(sys_, 0.4)):
            assert state._states.err.tolist() == [0.0]
        stacks = _mixture_stacks(sys_, (0.0, 0.05, 1 / (n + 2), 0.5, 1.0))
        assert [e for s in stacks for e in s.err.tolist()] == [0.0] * 5

    @pytest.mark.parametrize("skew", [1e-13j, 1e-13])
    def test_entries_with_an_error_raise(self, sys4, skew):
        # a record of entries cannot be held as its Hermitian part: entries with one
        # in-sector pair off its conjugate raise, however small the error, before
        # any other check; the same pair, Hermitian bit for bit, is a state
        n2 = 16
        def family(idx):
            return states._mixture_entries(sys4, states._werner_part, np.array([[0.3]]), idx)[0]

        def entries(idx, skew=skew):
            return family(idx) + np.where(idx == 1 * n2 + 4, skew, 0.0)
        with pytest.raises(ValueError, match="^state entries are not Hermitian bit for bit$"):
            states._sector_states(4, 1, entries)
        with pytest.raises(ValueError, match="^state entries are not Hermitian bit for bit$"):
            states._sector_states(4, 2, lambda idx: np.stack([family(idx), entries(idx)]))

        def hermitian(idx):
            return family(idx) + np.where(idx == 1 * n2 + 4, skew, 0.0) \
                + np.where(idx == 4 * n2 + 1, np.conj(skew), 0.0)
        record = states._sector_states(4, 1, hermitian)
        assert record.entries is hermitian and record.err.tolist() == [0.0]
        dense = family_state(sys4, 0.3).matrix.copy()
        dense[1, 4] += skew
        dense[4, 1] += np.conj(skew)
        for got, want in zip(criteria._functionals(record, sys4), functionals(dense[None], sys4)):
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("rank", [True, 4.0])
    def test_rejects_non_integer_rank(self, sys4, rank):
        with pytest.raises(TypeError, match="rank must be an integer, got "):
            random_density(sys4, rank, 1)

    def test_numpy_integer_rank(self, sys4):
        assert np.array_equal(random_density(sys4, np.int64(4), 1).matrix,
                              random_density(sys4, 4, 1).matrix)

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

    def test_rejects_non_square_length(self):
        with pytest.raises(DimensionError, match="^vector length 3 is not a perfect square$"):
            schmidt_decompose(np.ones(3))

    @pytest.mark.parametrize("function", [schmidt_decompose, concurrence_pure, eof_pure])
    def test_rejects_anything_but_a_vector(self, sys4, function):
        # a density matrix, or a vector split into rows, is never read as a longer vector
        for psi in (family_state(sys4, 0.3).matrix, np.full((2, 8), 0.25), np.full((1, 16), 0.25),
                    np.asarray(1.0)):
            with pytest.raises(DimensionError, match=r"^expected a state vector, got array of shape"):
                function(psi)

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

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_product_states_have_zero_concurrence(self, n):
        # 1 - sum alpha^4 cancels to about 1e-8 here; the pairwise form does not
        rng = np.random.default_rng(n)
        for _ in range(200):
            a, b = rng.normal(size=(2, n, 2)) @ np.array([1, 1j])
            assert concurrence_pure(np.kron(a, b)) <= 1e-14

    @pytest.mark.parametrize("eps", [1e-20, 1e-16, 1e-12, 1e-8, 0.1, 0.5])
    def test_two_term_concurrence_is_relatively_accurate(self, eps):
        v = np.zeros(16)
        v[0], v[5] = np.sqrt(1 - eps), np.sqrt(eps)
        assert concurrence_pure(PureState(4, v)) == pytest.approx(
            2 * np.sqrt(eps * (1 - eps)), rel=1e-12)

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


def signed_zero_matrix():
    """The maximally mixed N = 4 state with -0.0 real and imaginary parts off the diagonal."""
    m = np.eye(16, dtype=complex) / 16
    m[0, 1] = m[1, 0] = complex(-0.0, -0.0)
    m[2, 3] = complex(0.0, -0.0)
    m[3, 2] = complex(-0.0, 0.0)
    return m


def pair_lists(values: np.ndarray) -> list:
    """The nested [re, im] lists of a complex array, as a state file holds them."""
    return np.stack([values.real, values.imag], -1).tolist()


def mixed_pairs():
    """The [re, im] pairs of the maximally mixed N = 4 state."""
    return [[[1 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]


def matrix_text(pairs=None, n_local=4, **dump):
    """A matrix state file of ``pairs``, by default those of the maximally mixed state."""
    pairs = mixed_pairs() if pairs is None else pairs
    return json.dumps({"n_local": n_local, "matrix": pairs}, **dump)


def with_pair(pair, row=0, col=1):
    """The maximally mixed file text with one pair replaced."""
    pairs = mixed_pairs()
    pairs[row][col] = pair
    return matrix_text(pairs)


def number_forms():
    """A valid state file whose numbers are written as ints, exponents and signed zeros."""
    pairs = mixed_pairs()
    pairs[0][5], pairs[5][0] = [-0.0, 1e-3], [0, -1e-3]
    pairs[7][8], pairs[8][7] = [1e-300, 0], [1e-300, -0.0]
    pairs[3][3] = [0.0625, -0.0]
    return matrix_text(pairs).replace("0.0625", "6.25e-2", 1).replace("0.0625", "625E-4", 1)


def deep_nesting():
    deep = "[" * 100_000 + "]" * 100_000
    return matrix_text().replace("[0.0, 0.0]", deep, 1)


# (name, whether the row reader decodes it or None if either, file text): every
# file must load to the state, or raise the exception and message, of the
# whole-file parse
STATE_FILES = [
    ("save_state", True, lambda: matrix_text()),
    ("ints-exponents-signed-zeros", True, number_forms),
    ("signed-zero-matrix", True, lambda: matrix_text(pair_lists(signed_zero_matrix()))),
    ("trailing-newline", True, lambda: matrix_text() + "\n"),
    ("newline-row-separator", False,
     lambda: matrix_text(pair_lists(signed_zero_matrix())).replace("]], [[", "]],\n[[", 1)),
    ("invalid-state", True, lambda: with_pair([0.5, 0.0])),
    ("nan-entry", True, lambda: with_pair([float("nan"), 0.0])),
    ("infinite-entry", True, lambda: matrix_text().replace("0.0625", "1e400", 1)),
    ("huge-n-local", True, lambda: matrix_text(n_local=10 ** 6)),
    # beyond the int digit limit of the interpreter, where it has one
    ("5000-digit-n-local", None, lambda: matrix_text().replace("4", "4" * 5000, 1)),
    ("bool-entry", False, lambda: with_pair([True, 0.0])),
    ("string-entry", False, lambda: with_pair(["0.5", 0.0])),
    ("null-entry", False, lambda: with_pair([None, 0.0])),
    ("400-digit-integer", False, lambda: with_pair([10 ** 400, 0.0])),
    ("short-pair", False, lambda: with_pair([0.0])),
    ("long-pair", False, lambda: with_pair([0.0, 0.0, 0.0])),
    ("list-entry", False, lambda: with_pair([[0.0], 0.0])),
    ("string-pair", False, lambda: with_pair("00")),
    ("object-pair", False, lambda: with_pair({"0": 0, "1": 0})),
    ("short-first-row", False, lambda: matrix_text([mixed_pairs()[0][:15]] + mixed_pairs()[1:])),
    ("missing-pair", False, lambda: matrix_text(mixed_pairs()[:15] + [mixed_pairs()[15][:15]])),
    ("short-rows", False, lambda: matrix_text([row[:15] for row in mixed_pairs()])),
    ("extra-row", False, lambda: matrix_text(mixed_pairs() + [[[0.0, 0.0]] * 16])),
    ("fifteen-rows", False, lambda: matrix_text(mixed_pairs()[:15])),
    ("truncated", False, lambda: matrix_text()[:-5]),
    ("trailing-garbage", False, lambda: matrix_text() + "x"),
    ("leading-zero", False, lambda: matrix_text().replace('"n_local": 4', '"n_local": 04')),
    ("zero-n-local", False, lambda: matrix_text(n_local=0)),
    ("float-n-local", False, lambda: matrix_text(n_local=4.0)),
    ("deep-nesting", False, deep_nesting),
    ("empty-matrix", False, lambda: matrix_text([])),
    ("empty-row", False, lambda: matrix_text([[]])),
    ("indent", False, lambda: matrix_text(indent=1)),
    ("compact", False, lambda: matrix_text(separators=(",", ":"))),
    ("reordered-keys", False,
     lambda: json.dumps(dict(reversed(json.loads(matrix_text()).items())))),
    ("extra-key", False, lambda: matrix_text()[:-1] + ', "comment": 1}'),
    ("vector", False, lambda: json.dumps({"n_local": 2, "vector": [[0.5, 0]] * 4})),
]


def outcome(load, path):
    """The state ``load`` returns, or the exception it raises."""
    try:
        return load(path)
    except Exception as exc:  # compared by type and message
        return exc


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

    @pytest.mark.parametrize("key, indent", [("matrix", None), ("matrix", 1), ("vector", None)],
                             ids=["rows", "indented", "vector"])
    def test_round_trip_keeps_signed_zeros(self, tmp_path, key, indent):
        # a -0.0 real part beside a +0.0 imaginary part: re + 1j * im loads +0.0
        if key == "matrix":
            state = DensityMatrix(4, signed_zero_matrix())
        else:
            v = np.eye(16, dtype=complex)[0]
            v[1], v[2], v[3] = complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)
            state = PureState(4, v)
        path = tmp_path / "state.json"
        save_state(path, state)
        if indent:
            path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
        assert getattr(load_state(path), key).tobytes() == getattr(state, key).tobytes()

    def test_validation_holds_only_the_matrix(self, tmp_path, monkeypatch):
        # the parsed JSON lists and the float pairs are freed before DensityMatrix validates
        path = tmp_path / "rho.json"
        save_state(path, random_density(coupled_system(8), 4, 1))
        held = []
        check = states._check_densities
        monkeypatch.setattr(states, "_check_densities", lambda stack, n: (
            held.append(tracemalloc.get_traced_memory()[0]) or check(stack, n)))
        tracemalloc.start()
        try:
            back = load_state(path)
        finally:
            tracemalloc.stop()
        assert held and held[0] <= 1.5 * back.matrix.nbytes

    @pytest.mark.parametrize("extra, entry, loads", [
        ({"comment": "true"}, 0.0, True),      # strings and literals outside the entries
        ({"flag": None}, 0.0, True),
        ({"true": 1}, False, False),           # a boolean entry in a file that says "true"
        ({"note": "x"}, "0.0", False),         # a string entry next to a string value
    ])
    def test_entry_types_with_other_keys(self, tmp_path, extra, entry, loads):
        import json
        entries = [[[1 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
        entries[0][1] = [entry, 0.0]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"n_local": 4, "matrix": entries, **extra}))
        if loads:
            assert np.array_equal(load_state(path).matrix, np.eye(16) / 16)
        else:
            with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
                load_state(path)

    @pytest.mark.parametrize("text, keys, numbers", [
        ('{"n_local": 4, "matrix": [[[0.5, -1e-3], [1, 0]]]}', 2, True),
        ('{"n_local": 4, "matrix": [[[0.5, true]]]}', 2, False),
        ('{"n_local": 4, "matrix": [[[0.5, null]]]}', 2, False),
        ('{"n_local": 4, "matrix": [[["0.5", 0]]]}', 2, False),
        ('{"n_local": 4, "n_\\"local": 4, "matrix": []}', 3, False),
    ])
    def test_only_numbers(self, text, keys, numbers):
        assert states._only_numbers(text, keys) == numbers

    @pytest.mark.parametrize("make", [
        lambda sys_: family_state(sys_, 0.3), lambda sys_: random_density(sys_, 5, 2),
        lambda sys_: DensityMatrix(4, signed_zero_matrix()), lambda sys_: random_pure(sys_, 3),
    ], ids=["family", "random", "negative-zero", "pure"])
    def test_save_state_bytes_equal_one_dump(self, tmp_path, sys4, make):
        state = make(sys4)
        key, values = ("matrix", state.matrix) if isinstance(state, DensityMatrix) \
            else ("vector", state.vector)
        path = tmp_path / "state.json"
        save_state(path, state)
        assert path.read_text() == json.dumps({"n_local": 4, key: pair_lists(values)})

    @pytest.mark.parametrize("rows, make", [(rows, make) for _, rows, make in STATE_FILES],
                             ids=[name for name, _, _ in STATE_FILES])
    def test_row_reader_matches_whole_file_parse(self, tmp_path, rows, make):
        text = make()
        assert (states._matrix_rows(text) is not None) == rows or rows is None
        path = tmp_path / "state.json"
        path.write_text(text)
        expected, got = outcome(load_whole_file, path), outcome(load_state, path)
        if isinstance(expected, Exception):
            assert (type(got), str(got)) == (type(expected), str(expected))
        else:
            assert type(got) is type(expected) and got.n_local == expected.n_local
            key = "matrix" if isinstance(got, DensityMatrix) else "vector"
            got, expected = getattr(got, key), getattr(expected, key)
            # bit for bit: array_equal would take -0.0 for 0.0
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entry", ['"0.0"', "true", "false", "null"])
    def test_typed_entry_decodes_no_row(self, tmp_path, monkeypatch, entry):
        # a string or literal entry in the layout of save_state is never a valid
        # state: the row reader hands the file to the whole-file parse before it
        # decodes a row, here one whose only such entry is in the last row
        text = matrix_text()
        last = text.rindex("0.0")
        text = text[:last] + entry + text[last + 3:]
        assert text.endswith(f"[0.0625, {entry}]]]}}")
        rows = []
        decode = json.JSONDecoder.raw_decode
        monkeypatch.setattr(json.JSONDecoder, "raw_decode",
                            lambda self, *args: rows.append(1) or decode(self, *args))
        assert states._matrix_rows(text) is None
        assert rows == []
        monkeypatch.undo()
        path = tmp_path / "state.json"
        path.write_text(text)
        expected, got = outcome(load_whole_file, path), outcome(load_state, path)
        assert isinstance(expected, ValueError)
        assert (type(got), str(got)) == (type(expected), str(expected))

    @pytest.mark.parametrize("state", ["family", "random"])
    def test_save_state_file_takes_the_row_path(self, tmp_path, monkeypatch, sys4, state):
        rho = family_state(sys4, 0.3) if state == "family" else random_density(sys4, 5, 2)
        path = tmp_path / "rho.json"
        save_state(path, rho)

        def whole_file(*args, **kwargs):
            raise AssertionError("the whole file was parsed")
        monkeypatch.setattr(states.json, "loads", whole_file)
        assert load_state(path).matrix.tobytes() == rho.matrix.tobytes()

    @pytest.mark.parametrize("state", ["family", "random"])
    def test_load_state_builds_no_object_graph(self, tmp_path, state):
        # reading the file holds its bytes and its text at once; after that the
        # text, one row of Python lists and the matrix, then the matrix alone
        sys8 = coupled_system(8)
        rho = family_state(sys8, 0.3) if state == "family" else random_density(sys8, 4, 1)
        path = tmp_path / "rho.json"
        save_state(path, rho)
        tracemalloc.start()
        try:
            back = load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size + 3 * back.matrix.nbytes

    def test_wide_first_row_allocates_no_matrix(self, tmp_path):
        # a first row of d pairs in a text too short to hold d rows: no d x d matrix
        path = tmp_path / "wide.json"
        path.write_text(matrix_text([[[0, 0]] * 4000]))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=r"got \(1, 4000\)"):
                load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * path.stat().st_size

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_local": 4}')
        with pytest.raises(ValueError):
            load_state(path)

    def test_rejects_a_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError,
                           match="^state file must be a JSON object with an 'n_local' key$"):
            load_state(path)

    def test_save_state_rejects_an_array(self, tmp_path):
        path = tmp_path / "eye.json"
        with pytest.raises(TypeError, match="^cannot serialize ndarray$"):
            save_state(path, np.eye(16))
        assert not path.exists()

    def test_rejects_invalid_matrix(self, tmp_path):
        path = tmp_path / "invalid.json"
        entries = [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(16)] for i in range(16)]
        entries[0][1] = [0.5, 0.0]  # breaks Hermiticity
        import json
        path.write_text(json.dumps({"n_local": 4, "matrix": entries}))
        with pytest.raises(ValueError):
            load_state(path)
