import numpy as np
import pytest

from entbound import (CriteriaVerdict, DimensionError, binary_entropy,
                      concurrence_from_functional, concurrence_pure, eof_from_functional,
                      eof_pure, extremal_schmidt_weight, family_state, isotropic_state,
                      min_schmidt_entropy, min_schmidt_entropy_hull, random_pure,
                      report_from_verdict)
from entbound.closedform import (family_bounds_closed_form, family_trace_norms,
                                 isotropic_reference, witness_spectrum)
from helpers import bound_report, product_pure

SCALE4 = np.sqrt(2 / 12)


# The second argument is out of range too: N must be checked first.
@pytest.mark.parametrize("call", [
    lambda n: min_schmidt_entropy(0.5, n),
    lambda n: min_schmidt_entropy_hull(0.5, n),
    lambda n: extremal_schmidt_weight(0.5, n),
    lambda n: isotropic_reference(n, 1.5),
    lambda n: family_trace_norms(n, 1.5),
    lambda n: witness_spectrum(n),
], ids=["min_schmidt_entropy", "min_schmidt_entropy_hull", "extremal_schmidt_weight",
        "isotropic_reference", "family_trace_norms", "witness_spectrum"])
@pytest.mark.parametrize("n", [2, 5])
def test_rejects_odd_or_small_local_dimension(call, n):
    with pytest.raises(DimensionError, match="even and >= 4"):
        call(n)


@pytest.mark.parametrize("bound_map", [concurrence_from_functional, eof_from_functional])
@pytest.mark.parametrize("f, n, error, message", [
    (0.5, 1, DimensionError, "even and >= 4"),
    (0.5, -1, DimensionError, "even and >= 4"),
    (0.5, 5, DimensionError, "even and >= 4"),
    (np.nan, 4, ValueError, "must be finite"),
    (np.inf, 4, ValueError, "must be finite"),
    (-np.inf, 4, ValueError, "must be finite"),
], ids=["n=1", "n=-1", "n=5", "f=nan", "f=inf", "f=-inf"])
def test_functional_maps_check_n_and_f(bound_map, f, n, error, message):
    with pytest.raises(error, match=message):
        bound_map(f, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", range(4),
                         ids=["trace_norm_T2", "trace_norm_R", "witness_value", "optimized"])
def test_report_rejects_a_non_finite_functional_in_any_position(bad, position):
    # max() keeps a NaN only in first place, so each candidate is checked on its own
    values = [1.5, 1.2, -0.3, 0.4]
    values[position] = bad
    verdict = CriteriaVerdict(ppt_violated=True, realignment_violated=True,
                              witness_value=values[2], witness_detects=True,
                              trace_norm_T2=values[0], trace_norm_R=values[1])
    with pytest.raises(ValueError, match="^functional value must be finite, got "):
        report_from_verdict(verdict, 4, values[3])


class TestEntropyHelpers:
    def test_binary_entropy(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        assert binary_entropy(0.8) == pytest.approx(0.7219280948873623, abs=1e-12)
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    def test_extremal_weight(self):
        assert extremal_schmidt_weight(1.0, 4) == pytest.approx(1.0, abs=1e-12)
        assert extremal_schmidt_weight(4.0, 4) == pytest.approx(0.25, abs=1e-12)
        assert extremal_schmidt_weight(2.0, 4) == pytest.approx(0.9330127018922192, abs=1e-12)

    def test_min_entropy_endpoints(self):
        for n in (4, 6, 8):
            assert min_schmidt_entropy(1.0, n) == pytest.approx(0.0, abs=1e-12)
            assert min_schmidt_entropy(float(n), n) == pytest.approx(np.log2(n), abs=1e-12)

    def test_min_entropy_interior_value(self):
        # frozen from direct evaluation of the formula chain
        assert min_schmidt_entropy(2.0, 4) == pytest.approx(0.46075125819073226, abs=1e-12)

    def test_min_entropy_monotone(self):
        grid = np.linspace(1, 4, 301)
        vals = [min_schmidt_entropy(x, 4) for x in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            min_schmidt_entropy(0.5, 4)
        with pytest.raises(ValueError):
            min_schmidt_entropy_hull(4.5, 4)


class TestEntropyHull:
    def test_endpoint(self):
        assert min_schmidt_entropy_hull(4.0, 4) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6])
    def test_branches_continuous(self, n):
        bp = 4 * (n - 1) / n
        assert min_schmidt_entropy(bp, n) == pytest.approx(
            np.log2(n - 1) / (n - 2) * (bp - n) + np.log2(n), abs=1e-9)

    def test_interior_value(self):
        assert min_schmidt_entropy_hull(1.5, 4) == pytest.approx(0.16033079773273232, abs=1e-12)

    def test_convex_and_below_profile(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            x = np.sort(rng.uniform(1, 4, size=3))
            if x[2] - x[0] < 1e-6:
                continue
            t = (x[1] - x[0]) / (x[2] - x[0])
            mid = min_schmidt_entropy_hull(x[1], 4)
            chord = ((1 - t) * min_schmidt_entropy_hull(x[0], 4)
                     + t * min_schmidt_entropy_hull(x[2], 4))
            assert mid <= chord + 1e-10
            assert mid <= min_schmidt_entropy(x[1], 4) + 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8, 16, 64, 256])
    def test_equals_the_lower_convex_envelope(self, n):
        # the oracle: Andrew's monotone chain over R on a 20001-point grid, whose
        # chords lie above the true envelope by grid error alone
        x = np.linspace(1, n, 20001)
        r = [min_schmidt_entropy(t, n) for t in x]
        chain = []
        for k in range(len(x)):
            while len(chain) >= 2 and ((x[chain[-1]] - x[chain[-2]]) * (r[k] - r[chain[-2]])
                                       - (r[chain[-1]] - r[chain[-2]]) * (x[k] - x[chain[-2]])
                                       <= 0):
                chain.pop()
            chain.append(k)
        envelope = np.interp(x, x[chain], np.take(r, chain))
        hull = np.array([min_schmidt_entropy_hull(t, n) for t in x])
        assert (hull - envelope).max() <= 1e-12
        assert (envelope - hull).max() <= 1e-7


class TestConcurrenceLowerBound:
    def test_family_witness_dominates_low_lambda(self, sys4):
        report = bound_report(family_state(sys4, 0.1), sys4)
        assert report.concurrence_lower == pytest.approx(SCALE4 * 0.2, abs=1e-10)
        assert report.f_witness == pytest.approx(0.2, abs=1e-12)
        assert report.f_ppt <= 1e-10
        assert report.f_realign <= 0.0

    def test_family_ppt_dominates_high_lambda(self, sys4):
        report = bound_report(family_state(sys4, 0.75), sys4)
        assert report.concurrence_lower == pytest.approx(0.816496580927726, abs=1e-9)
        assert report.f_ppt == pytest.approx(2.0, abs=1e-9)
        assert report.f_witness == pytest.approx(1.5, abs=1e-12)
        assert SCALE4 * report.f_witness == pytest.approx(0.6123724356957945, abs=1e-10)

    def test_separable_product_state_gives_zero(self, sys4):
        rng = np.random.default_rng(62)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        report = bound_report(product_pure(a, b), sys4)
        assert report.concurrence_lower == pytest.approx(0.0, abs=1e-9)
        assert report.lambda0 == pytest.approx(1.0, abs=1e-9)
        assert report.eof_lower == pytest.approx(0.0, abs=1e-9)


class TestFamilyClosedForm:
    def test_crossing_at_half(self):
        point = family_bounds_closed_form(4, 0.5)
        assert point.bound_witness == pytest.approx(point.bound_ppt, abs=1e-12)
        assert point.bound_witness == pytest.approx(0.4082482904638630, abs=1e-12)

    def test_realign_branch_point_is_zero(self):
        point = family_bounds_closed_form(4, 0.25)
        assert point.norm_R - 1 == pytest.approx(0.0, abs=1e-15)
        assert point.bound_realign == 0.0

    def test_realign_negative_region_clamped(self):
        point = family_bounds_closed_form(4, 0.1)
        assert point.norm_R < 1
        assert point.bound_realign == 0.0

    def test_endpoint_matches_upper_bound(self):
        point = family_bounds_closed_form(4, 1.0)
        assert point.bound_ppt == pytest.approx(1.224744871391589, abs=1e-12)
        assert point.bound_upper == pytest.approx(1.224744871391589, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            family_bounds_closed_form(4, 1.5)

def eof_trace_norms_only(rho, sys_):
    """The older EoF bound: the entropy hull over the two trace-norm functionals."""
    rep = bound_report(rho, sys_)
    return eof_from_functional(max(rep.f_ppt, rep.f_realign), sys_.n)


class TestEofLowerBound:
    def test_family_endpoint(self, sys4):
        rho = family_state(sys4, 1.0)
        assert bound_report(rho, sys4).eof_lower == pytest.approx(2.0, abs=1e-9)
        assert eof_trace_norms_only(rho, sys4) == pytest.approx(2.0, abs=1e-9)

    def test_family_quarter_point(self, sys4):
        # frozen oracle values: Lambda0 = 1.5 (with witness) and 1.25 (trace norms only)
        rho = family_state(sys4, 0.25)
        assert bound_report(rho, sys4).eof_lower == pytest.approx(
            0.16033079773273232, abs=1e-9)
        assert eof_trace_norms_only(rho, sys4) == pytest.approx(
            0.05182768894868844, abs=1e-9)

    def test_maximally_mixed_gives_zero(self, sys4):
        rho = np.eye(16) / 16
        assert bound_report(rho, sys4).eof_lower == 0.0

    def test_functional_a_few_ulps_above_zero(self):
        # gamma(1 + f) rounds above its maximum 1 for some f of a few ulps (first
        # at N = 10, f = 10 ulp of 1); clamped, it never reaches the entropy
        assert extremal_schmidt_weight(1 + 10 * 2.0 ** -52, 10) == 1.0
        for n in range(4, 129, 2):
            for k in range(1, 400):
                assert 0 <= eof_from_functional(k * 2.0 ** -52, n) <= np.log2(n)

    def test_witness_mode_dominates(self, sys4):
        rng = np.random.default_rng(63)
        states = [family_state(sys4, lam) for lam in (0.05, 0.3, 0.6, 0.9)]
        states += [isotropic_state(sys4, f) for f in (0.1, 0.5, 0.9)]
        from entbound import random_density
        states += [random_density(sys4, int(rng.integers(1, 17)), rng) for _ in range(20)]
        for rho in states:
            assert bound_report(rho, sys4).eof_lower >= \
                eof_trace_norms_only(rho, sys4) - 1e-12


class TestIsotropicReference:
    def test_separable_region(self):
        assert isotropic_reference(4, 0.25) == (0.0, 0.0, 0.0)
        assert isotropic_reference(4, 0.1) == (0.0, 0.0, 0.0)

    def test_maximal_fidelity(self):
        exact, ppt, wit = isotropic_reference(4, 1.0)
        assert exact == pytest.approx(1.224744871391589, abs=1e-12)
        assert ppt == exact
        assert wit == pytest.approx(0.816496580927726, abs=1e-12)

    def test_ratio_above_threshold(self):
        for n in (4, 6, 8):
            for f in (0.4, 0.7, 1.0):
                exact, ppt, wit = isotropic_reference(n, f)
                assert ppt == exact
                assert wit == pytest.approx((n - 2) / (n - 1) * exact, abs=1e-12)

    def test_matches_numeric_pipeline(self, sys4):
        for f in np.linspace(0, 1, 11):
            exact, ppt_ref, wit_ref = isotropic_reference(4, float(f))
            report = bound_report(isotropic_state(sys4, float(f)), sys4)
            assert SCALE4 * max(report.f_ppt, 0) == pytest.approx(ppt_ref, abs=1e-9)
            assert SCALE4 * max(report.f_witness, 0) == pytest.approx(wit_ref, abs=1e-9)


class TestBoundConsistency:
    def test_lower_bounds_below_pure_values(self, sys4):
        for seed in range(500):
            psi = random_pure(sys4, (2, seed))
            report = bound_report(psi, sys4)
            assert report.concurrence_lower <= concurrence_pure(psi) + 1e-12
            assert report.eof_lower <= eof_pure(psi) + 1e-8

    def test_figure_ordering_n4(self, sys4):
        for lam in np.linspace(0.02, 0.48, 24):
            point = family_bounds_closed_form(4, float(lam))
            assert point.bound_witness > point.bound_ppt
            assert point.bound_witness > point.bound_realign
        for lam in np.linspace(0.52, 1.0, 25):
            point = family_bounds_closed_form(4, float(lam))
            assert point.bound_ppt > point.bound_witness
            assert point.bound_ppt == pytest.approx(point.bound_realign, abs=1e-9)
