import numpy as np
import pytest

from entbound import (FrameConfig, family_trace_norms, family_witness_expectation,
                      overlap_kernel, sample_frame_config, witness_spectrum)
from entbound.linalg import DimensionError


class TestFamilyTraceNorms:
    def test_ppt_window(self):
        assert family_trace_norms(4, 0.1) == pytest.approx((1.0, 0.8), abs=1e-15)

    def test_middle_branch(self):
        assert family_trace_norms(4, 0.4) == pytest.approx((1.7, 1.6), abs=1e-12)

    def test_singlet_endpoint(self):
        assert family_trace_norms(4, 1.0) == pytest.approx((4.0, 4.0), abs=1e-12)

    def test_branch_continuity(self):
        for n in (4, 6, 8):
            for bp in (1 / (n + 2), 0.5):
                below = family_trace_norms(n, bp - 1e-9)
                above = family_trace_norms(n, bp + 1e-9)
                assert below == pytest.approx(above, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            family_trace_norms(4, -0.1)
        with pytest.raises(DimensionError):
            family_trace_norms(5, 0.5)


class TestFamilyWitnessExpectation:
    def test_values(self):
        assert family_witness_expectation(4, 0.0) == 0.0
        assert family_witness_expectation(4, 0.5) == pytest.approx(-1.0, abs=1e-15)
        assert family_witness_expectation(8, 1.0) == pytest.approx(-6.0, abs=1e-15)


class TestWitnessSpectrum:
    def test_n4(self):
        assert witness_spectrum(4) == [(-2.0, 1), (0.0, 10), (2.0, 5)]

    def test_n6(self):
        assert witness_spectrum(6) == [(-4.0, 1), (0.0, 21), (2.0, 14)]

    def test_weighted_sum_is_trace(self):
        for n in (4, 6, 8, 10):
            spec = witness_spectrum(n)
            assert sum(v * m for v, m in spec) == pytest.approx(n * (n - 2), abs=1e-12)
            assert sum(m for _, m in spec) == n * n


class TestOverlapKernel:
    def test_parallel_decomposition_vanishes(self, sys4):
        # chi_j proportional to the time reversal of chi_i kills the kernel
        rng = np.random.default_rng(71)
        for _ in range(50):
            chi_i = rng.normal(size=4) + 1j * rng.normal(size=4)
            chi_i /= np.linalg.norm(chi_i)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            chi_j = phase * (sys4.v @ chi_i.conj())
            phi_i = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi_j = rng.normal(size=4) + 1j * rng.normal(size=4)
            cfg = FrameConfig(phi_i=phi_i / np.linalg.norm(phi_i),
                              phi_j=phi_j / np.linalg.norm(phi_j),
                              chi_i=chi_i, chi_j=chi_j)
            assert abs(overlap_kernel(cfg, sys4)) < 1e-12

    def test_singlet_frames_attain_bound(self, sys4):
        # Schmidt frames of the singlet: phi_i = e_i, chi_i = (-1)^i e_{3-i}
        eye = np.eye(4)
        chi = [(-1) ** i * eye[3 - i] for i in range(4)]
        cfg = FrameConfig(phi_i=eye[0], phi_j=eye[1], chi_i=chi[0], chi_j=chi[1])
        assert abs(overlap_kernel(cfg, sys4)) == pytest.approx(1.0, abs=1e-12)

    def test_frame_invariants(self, sys4):
        rng = np.random.default_rng(73)
        cfg = sample_frame_config(sys4, rng)
        assert abs(np.vdot(cfg.phi_i, cfg.phi_j)) < 1e-10
        assert abs(np.vdot(cfg.chi_i, cfg.chi_j)) < 1e-10

    def test_rejects_unnormalized(self, sys4):
        eye = np.eye(4)
        cfg = FrameConfig(phi_i=2 * eye[0], phi_j=eye[1], chi_i=eye[2], chi_j=eye[3])
        with pytest.raises(ValueError):
            overlap_kernel(cfg, sys4)
