import numpy as np
import pytest

from entbound import DimensionError
from entbound.linalg import hermitian_mask, trace_norms
from helpers import one_block


def norm(m):
    """The trace norm of one matrix, a stack of one member of one block."""
    return trace_norms(one_block(m[None]))[0]


def rand_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n, n)
    return (a + a.conj().T) / 2


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestTraceNorm:
    def test_identity(self):
        for n in (2, 5, 16):
            assert norm(np.eye(n)) == pytest.approx(n, abs=1e-12)

    def test_hermitian_diagonal(self):
        assert norm(np.diag([1.0, -2.0, 0.0])) == pytest.approx(3.0, abs=1e-12)

    def test_matches_dilation_spectrum_oracle(self):
        # eigenvalues of [[0, M], [M^dag, 0]] come in +/- sigma pairs,
        # so half the absolute eigenvalue sum is the trace norm
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_complex(rng, 6, 6)
            dilation = np.zeros((12, 12), dtype=complex)
            dilation[:6, 6:] = m
            dilation[6:, :6] = m.conj().T
            oracle = np.abs(np.linalg.eigvalsh(dilation)).sum() / 2
            assert norm(m) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.ones((2, 3))[None]))

    def test_stack_gives_each_matrix_its_own_bits(self):
        # a mixed stack: Hermitian members take the eigensolve, the rest the SVD
        rng = np.random.default_rng(14)
        mats = [rand_hermitian(rng, 6), rand_complex(rng, 6, 6), rand_complex(rng, 6, 6),
                rand_hermitian(rng, 6), rand_complex(rng, 6, 6)]
        got = trace_norms(one_block(np.stack(mats)))
        assert got.tolist() == [norm(m) for m in mats]
        pair = one_block(np.stack(mats[:1] + mats[3:4]))
        assert trace_norms(pair).tolist() == got[[0, 3]].tolist()

    def test_stack_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.ones((2, 3, 4))))
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.eye(3)))

    def test_convexity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rand_hermitian(rng, 5)
            b = rand_hermitian(rng, 5)
            p = rng.uniform()
            assert norm(p * a + (1 - p) * b) <= p * norm(a) + (1 - p) * norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rand_complex(rng, 6, 6)
            u = rand_unitary(rng, 6)
            v = rand_unitary(rng, 6)
            assert norm(u @ a @ v) == pytest.approx(norm(a), abs=1e-9)


class TestHermitianMask:
    def test_tolerance_is_relative_above_unit_scale(self):
        # ||M - M^dag||_max <= 1e-12 * max(1, ||M||_max), member by member
        rng = np.random.default_rng(15)
        h = rand_hermitian(rng, 5)
        h /= np.abs(h).max()
        cases = [(h, 2e-12, False), (h, 5e-13, True),
                 (1e4 * h, 5e-9, True), (1e4 * h, 5e-8, False)]
        for m, skew, want in cases:
            bent = m.copy()
            bent[0, 1] += skew
            assert bool(hermitian_mask(one_block(bent[None]))) is want
        stack = np.stack([m + (np.eye(5, k=1) * skew) for m, skew, _ in cases])
        assert hermitian_mask(one_block(stack)).tolist() == [want for _, _, want in cases]

    def test_scale_and_error_in_different_blocks(self):
        # ||M||_max is taken over all blocks of a member, and over that member only
        scale = np.array([1e4, 1e4, 1.0]).reshape(3, 1, 1, 1)  # a 1 x 1 block
        h = np.array([[0.5, 0.25], [0.25, 0.5]])
        skewed = np.stack([h + np.eye(2, k=1) * skew for skew in (5e-9, 5e-8, 5e-9)])[:, None]
        assert hermitian_mask([scale, skewed]).tolist() == [True, False, False]
        assert hermitian_mask([skewed, scale]).tolist() == [True, False, False]
        assert hermitian_mask([skewed]).tolist() == [False, False, False]
