import numpy as np
import pytest

from entbound import DimensionError
from entbound.linalg import hermitian_mask, trace_norms


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
            assert trace_norms(np.eye(n)[None])[0] == pytest.approx(n, abs=1e-12)

    def test_hermitian_diagonal(self):
        assert trace_norms(np.diag([1.0, -2.0, 0.0])[None])[0] == \
            pytest.approx(3.0, abs=1e-12)

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
            assert trace_norms(m[None])[0] == pytest.approx(oracle, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(np.ones((2, 3))[None])

    def test_stack_gives_each_matrix_its_own_bits(self):
        # a mixed stack: Hermitian members take the eigensolve, the rest the SVD
        rng = np.random.default_rng(14)
        mats = [rand_hermitian(rng, 6), rand_complex(rng, 6, 6), rand_complex(rng, 6, 6),
                rand_hermitian(rng, 6), rand_complex(rng, 6, 6)]
        got = trace_norms(np.stack(mats))
        assert got.tolist() == [trace_norms(m[None])[0] for m in mats]
        assert trace_norms(np.stack(mats[:1] + mats[3:4])).tolist() == got[[0, 3]].tolist()

    def test_stack_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(np.ones((2, 3, 4)))
        with pytest.raises(DimensionError):
            trace_norms(np.eye(3))

    def test_convexity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rand_hermitian(rng, 5)
            b = rand_hermitian(rng, 5)
            p = rng.uniform()
            assert trace_norms((p * a + (1 - p) * b)[None])[0] <= \
                p * trace_norms(a[None])[0] + (1 - p) * trace_norms(b[None])[0] + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rand_complex(rng, 6, 6)
            u = rand_unitary(rng, 6)
            v = rand_unitary(rng, 6)
            assert trace_norms((u @ a @ v)[None])[0] == pytest.approx(
                trace_norms(a[None])[0], abs=1e-9)


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
            assert bool(hermitian_mask(bent)) is want
        stack = np.stack([m + (np.eye(5, k=1) * skew) for m, skew, _ in cases])
        assert hermitian_mask(stack).tolist() == [want for _, _, want in cases]

