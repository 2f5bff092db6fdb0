import numpy as np
import pytest

from entbound import DimensionError, hermitian_spectrum, trace_norm
from entbound.linalg import trace_norms


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
            assert trace_norm(np.eye(n)) == pytest.approx(n, abs=1e-12)

    def test_hermitian_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0, 0.0])) == pytest.approx(3.0, abs=1e-12)

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
            assert trace_norm(m) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norm(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            trace_norm(m)

    def test_stack_gives_each_matrix_its_own_bits(self):
        # a mixed stack: Hermitian members take the eigensolve, the rest the SVD
        rng = np.random.default_rng(14)
        mats = [rand_hermitian(rng, 6), rand_complex(rng, 6, 6), rand_complex(rng, 6, 6),
                rand_hermitian(rng, 6), rand_complex(rng, 6, 6)]
        got = trace_norms(np.stack(mats))
        assert got.tolist() == [trace_norm(m) for m in mats]
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
            assert trace_norm(p * a + (1 - p) * b) <= \
                p * trace_norm(a) + (1 - p) * trace_norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rand_complex(rng, 6, 6)
            u = rand_unitary(rng, 6)
            v = rand_unitary(rng, 6)
            assert trace_norm(u @ a @ v) == pytest.approx(trace_norm(a), abs=1e-9)


class TestHermitianSpectrum:
    def test_sorted_diagonal(self):
        w, q = hermitian_spectrum(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-12

    def test_trace_invariance_and_reconstruction(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rand_hermitian(rng, 8)
            w, q = hermitian_spectrum(m)
            assert w.sum() == pytest.approx(np.trace(m).real, abs=1e-10)
            recon = (q * w) @ q.conj().T
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m - recon) <= 1e-9 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
