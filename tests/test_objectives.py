"""Error-probability objectives across the three CSIT regimes."""

import math

import numpy as np
import pytest

from relaypower.objectives import (
    PartialCsitObjective,
    PerfectCsitObjective,
    StatisticalCsitObjective,
    exp_integral_e1,
    exp_integral_e1_scaled,
    f0_gradient,
    f0_value,
    f1_value,
    log_objective_J,
    pep_bound_partial,
    pep_bound_perfect,
    pep_bound_statistical_asymptotic,
    pep_bound_statistical_exact,
    rho_values,
    saddle_point_error,
)

EULER_GAMMA = 0.5772156649015328606


class TestExpIntegralE1:
    # reference values frozen from mpmath.e1 at 50 digits
    @pytest.mark.parametrize("x,expected", [
        (1e-6, 13.238295893062491289),
        (0.5, 0.55977359477616081175),
        (1.0, 0.21938393439552027368),
        (2.0, 0.048900510708061119567),
        (10.0, 4.1569689296853242774e-6),
        (50.0, 3.7832640295504590187e-24),
    ])
    def test_frozen_values(self, x, expected):
        assert exp_integral_e1(x) == pytest.approx(expected, rel=1e-14)

    def test_against_mpmath_on_log_grid(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.logspace(-6, math.log10(50.0), 400)
        for x in xs:
            ref = float(mpmath.e1(mpmath.mpf(float(x))))
            assert exp_integral_e1(float(x)) == pytest.approx(ref, rel=5e-14)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.logspace(-4, 1.5, 200)
        mine = np.array([exp_integral_e1(float(x)) for x in xs])
        np.testing.assert_allclose(mine, special.exp1(xs), rtol=1e-12)

    def test_sandwich_bounds(self):
        # e^-x/(x+1) < E1(x) < e^-x/x for every x > 0
        for x in np.logspace(-5, 1.6, 300):
            v = exp_integral_e1(float(x))
            lo = math.exp(-x) / (x + 1.0)
            hi = math.exp(-x) / x
            assert lo < v < hi

    def test_small_x_limit(self):
        # E1(x) + ln x -> -gamma as x -> 0
        assert exp_integral_e1(1e-10) + math.log(1e-10) == pytest.approx(
            -EULER_GAMMA, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            exp_integral_e1(x)


def _perfect_m3():
    # |h|^2 = (4, 0.01, 1), unit second hop, p_s = p_r = 10, N0 = 1
    h = np.array([2.0, 0.1, 1.0])
    g = np.ones(3, dtype=complex)
    return PerfectCsitObjective.from_channels(h, g, eta=1.0)


class TestScaledExpIntegralE1:
    def test_against_mpmath_out_to_a_million(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.logspace(-6, 6, 500):
            ref = float(mpmath.exp(mpmath.mpf(float(x))) * mpmath.e1(mpmath.mpf(float(x))))
            assert exp_integral_e1_scaled(float(x)) == pytest.approx(ref, rel=5e-14)

    def test_consistent_with_unscaled_where_both_are_finite(self):
        for x in np.logspace(-6, math.log10(700.0), 300):
            x = float(x)
            assert exp_integral_e1_scaled(x) == pytest.approx(
                math.exp(x) * exp_integral_e1(x), rel=1e-13)

    def test_large_argument_asymptote(self):
        # e^x E1(x) = 1/x - 1/x^2 + 2/x^3 - ...
        x = 1e8
        assert exp_integral_e1_scaled(x) == pytest.approx(1 / x - 1 / x**2, rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            exp_integral_e1_scaled(x)


class TestPerfectObjective:
    def test_coefficients_from_channels(self):
        h = np.array([1 + 1j, 2.0])
        g = np.array([1j, 0.5])
        obj = PerfectCsitObjective.from_channels(h, g, eta=3.0)
        np.testing.assert_allclose(obj.alpha, np.abs(h * g) ** 2, rtol=1e-15)
        np.testing.assert_allclose(obj.beta, np.abs(g) ** 2, rtol=1e-15)
        assert obj.eta == 3.0

    def test_f0_worked_example(self):
        # relays 1 and 3 on at caps 10/41 and 10/11 give f0 = 850/971
        obj = _perfect_m3()
        p = np.array([10.0 / 41.0, 0.0, 10.0 / 11.0])
        assert f0_value(obj, p) == pytest.approx(850.0 / 971.0, rel=1e-15)

    def test_f0_zero_allocation(self):
        assert f0_value(_perfect_m3(), np.zeros(3)) == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
            g = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
            obj = PerfectCsitObjective.from_channels(h, g, eta=1.0)
            p = rng.uniform(0.1, 5.0, size=m)
            grad = f0_gradient(obj, p)
            eps = 1e-6
            for i in range(m):
                dp = np.zeros(m)
                dp[i] = eps
                fd = (f0_value(obj, p + dp) - f0_value(obj, p - dp)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_gradient_numerator_structure(self):
        # sign of component i is the sign of alpha_i(1+B) - beta_i A
        obj = _perfect_m3()
        p = np.array([0.2, 0.3, 0.1])
        a_sum = float(obj.alpha @ p)
        b_sum = float(obj.beta @ p)
        grad = f0_gradient(obj, p)
        num = obj.alpha * (1 + b_sum) - obj.beta * a_sum
        np.testing.assert_allclose(grad * (1 + b_sum) ** 2, num, rtol=1e-12)

    def test_chernoff_bound(self):
        obj = _perfect_m3()
        p = np.array([0.1, 0.2, 0.3])
        assert pep_bound_perfect(obj, p) == pytest.approx(
            math.exp(-obj.eta * f0_value(obj, p)), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfectCsitObjective(alpha=np.array([1.0]), beta=np.array([1.0, 2.0]), eta=1.0)
        with pytest.raises(ValueError):
            PerfectCsitObjective(alpha=np.array([1.0]), beta=np.array([1.0]), eta=0.0)
        with pytest.raises(ValueError):
            f0_value(_perfect_m3(), np.array([1.0, -1.0, 0.0]))


def _partial_m3():
    return PartialCsitObjective(a=np.ones(3), gamma_g=np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("name, build", [
    ("alpha", lambda v: PerfectCsitObjective(alpha=v, beta=np.ones(3), eta=1.0)),
    ("beta", lambda v: PerfectCsitObjective(alpha=np.ones(3), beta=v, eta=1.0)),
    ("a", lambda v: PartialCsitObjective(a=v, gamma_g=np.ones(3))),
    ("a", lambda v: StatisticalCsitObjective(a=v, gamma_g=np.ones(3))),
    ("p", lambda v: f0_value(_perfect_m3(), v)),
    ("p", lambda v: rho_values(_partial_m3(), v)),
    ("p", lambda v: log_objective_J(_partial_m3(), v)),
], ids=["alpha", "beta", "a-partial", "a-statistical", "p-f0", "p-rho", "p-J"])
def test_rejects_non_finite_or_negative_entries(name, build, bad):
    with pytest.raises(ValueError, match=f"{name} entries must be finite"):
        build(np.array([1.0, bad, 2.0]))


class TestAveragedObjectives:
    def test_partial_and_statistical_coefficients_agree(self):
        # |h_i|^2 == gamma_hi makes the two constructions identical
        rng = np.random.default_rng(5)
        gamma_h = rng.uniform(0.5, 2.0, 6)
        gamma_g = rng.uniform(0.5, 2.0, 6)
        h = np.sqrt(gamma_h)
        a = PartialCsitObjective.from_channels(h, gamma_g, eta=1.7)
        b = StatisticalCsitObjective.from_variances(gamma_h, gamma_g, eta=1.7)
        np.testing.assert_allclose(a.a, b.a, rtol=1e-14)

    def test_rho_definition(self):
        obj = PartialCsitObjective(a=np.array([2.0, 3.0]), gamma_g=np.array([1.0, 0.5]))
        p = np.array([1.0, 2.0])
        denom = 1.0 + 1.0 * 1.0 + 0.5 * 2.0
        np.testing.assert_allclose(rho_values(obj, p), [2.0 / denom, 6.0 / denom],
                                   rtol=1e-15)

    def test_partial_bound_and_f1_are_reciprocal_logs(self):
        rng = np.random.default_rng(8)
        obj = PartialCsitObjective(a=rng.uniform(0.1, 4, 5), gamma_g=rng.uniform(0.2, 2, 5))
        p = rng.uniform(0.1, 3, 5)
        assert f1_value(obj, p) == pytest.approx(-math.log(pep_bound_partial(obj, p)),
                                                 rel=1e-12)

    def test_statistical_exact_single_factor(self):
        # rho = 1 gives the factor e * E1(1)
        obj = StatisticalCsitObjective(a=np.array([2.0]), gamma_g=np.array([1.0]))
        p = np.array([1.0])
        assert rho_values(obj, p)[0] == pytest.approx(1.0, rel=1e-15)
        assert pep_bound_statistical_exact(obj, p) == pytest.approx(
            0.59634736232319407434, rel=1e-13)

    def test_statistical_exact_tiny_rho_does_not_overflow(self):
        # eta = 1e-4 puts 1/rho_i near 3e4, far past exp overflow at ~709;
        # each factor (1/rho) e^(1/rho) E1(1/rho) tends to 1 - rho
        obj = StatisticalCsitObjective.from_variances(np.ones(2), np.ones(2), 1e-4)
        p = np.array([1.0, 1.0])
        rho = rho_values(obj, p)
        assert 1.0 / rho[0] > 709.0
        expected = np.prod(1.0 - rho + 2.0 * rho**2 - 6.0 * rho**3)
        assert pep_bound_statistical_exact(obj, p) == pytest.approx(expected, rel=1e-12)

    def test_statistical_exact_rejects_silent_relay(self):
        obj = StatisticalCsitObjective(a=np.array([1.0, 1.0]), gamma_g=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            pep_bound_statistical_exact(obj, np.array([1.0, 0.0]))

    def test_statistical_exact_factors_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            obj = StatisticalCsitObjective(a=rng.uniform(0.1, 10, m),
                                           gamma_g=rng.uniform(0.1, 5, m))
            v = pep_bound_statistical_exact(obj, rng.uniform(0.05, 5, m))
            assert 0.0 < v < 1.0

    def test_asymptotic_values(self):
        # single relay with rho = e, then rho = e^2
        obj = StatisticalCsitObjective(a=np.array([2 * math.e]), gamma_g=np.array([1.0]))
        p = np.array([1.0])
        assert pep_bound_statistical_asymptotic(obj, p) == pytest.approx(
            math.exp(-1.0), rel=1e-14)
        obj2 = StatisticalCsitObjective(a=np.array([2 * math.e**2]), gamma_g=np.array([1.0]))
        assert pep_bound_statistical_asymptotic(obj2, p) == pytest.approx(
            2 * math.exp(-2.0), rel=1e-14)

    def test_asymptotic_flags_low_snr_with_nan(self):
        obj = StatisticalCsitObjective(a=np.array([1.0]), gamma_g=np.array([1.0]))
        assert math.isnan(pep_bound_statistical_asymptotic(obj, np.array([1.0])))

    def test_asymptotic_approaches_exact_at_high_snr(self):
        # the gap decays like gamma / ln(rho): 8.99% at rho = 1e3,
        # under 5% once rho passes ~2e5
        def gap(rho):
            obj = StatisticalCsitObjective(a=np.array([2 * rho]), gamma_g=np.array([1.0]))
            p = np.array([1.0])
            exact = pep_bound_statistical_exact(obj, p)
            return abs(pep_bound_statistical_asymptotic(obj, p) - exact) / exact

        gaps = [gap(rho) for rho in (1e3, 1e4, 1e5, 1e6)]
        assert gaps[0] == pytest.approx(0.08994, abs=2e-4)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestLogObjective:
    def test_worked_value(self):
        obj = PartialCsitObjective(a=np.ones(3), gamma_g=np.ones(3))
        p = np.array([0.5, 1.0, 1.25])
        assert log_objective_J(obj, p) == pytest.approx(-4.435271149192694, rel=1e-14)

    def test_rejects_zero_power(self):
        obj = PartialCsitObjective(a=np.ones(2), gamma_g=np.ones(2))
        with pytest.raises(ValueError):
            log_objective_J(obj, np.array([1.0, 0.0]))

    def test_concave_in_log_powers(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            obj = PartialCsitObjective(a=rng.uniform(0.1, 5, m),
                                       gamma_g=rng.uniform(0.1, 3, m))
            u = rng.uniform(-2, 2, m)
            v = rng.uniform(-2, 2, m)
            mid = log_objective_J(obj, np.exp((u + v) / 2))
            ends = (log_objective_J(obj, np.exp(u)) + log_objective_J(obj, np.exp(v))) / 2
            assert mid >= ends - 1e-10

    def test_scaling_a_shifts_by_additive_constant(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(0.5, 2, 4)
        gamma_g = rng.uniform(0.5, 2, 4)
        p = rng.uniform(0.2, 3, 4)
        c = 7.3
        base = log_objective_J(PartialCsitObjective(a=a, gamma_g=gamma_g), p)
        scaled = log_objective_J(PartialCsitObjective(a=c * a, gamma_g=gamma_g), p)
        assert scaled == pytest.approx(base + 4 * math.log(c), rel=1e-12)


class TestSaddlePointError:
    def test_zero_power_gives_zero_error(self):
        r = saddle_point_error(np.ones(2), np.ones(2), np.zeros(2),
                               eta=1.0, trials=10_000, seed=0)
        assert r.bound == 1.0
        assert r.mc_estimate == 1.0
        assert r.rel_error == 0.0

    def test_zero_eta_gives_zero_error(self):
        r = saddle_point_error(np.ones(3), np.ones(3), np.ones(3),
                               eta=0.0, trials=10_000, seed=0)
        assert r.rel_error == 0.0

    def test_deterministic_in_seed(self):
        args = (np.ones(2), np.ones(2), np.ones(2))
        a = saddle_point_error(*args, eta=1.0, trials=20_000, seed=9)
        b = saddle_point_error(*args, eta=1.0, trials=20_000, seed=9)
        assert a.mc_estimate == b.mc_estimate

    def test_error_shrinks_from_two_to_sixteen_relays(self):
        # symmetric network at unit powers: the product bound tightens
        # as relays are added even though each factor stays crude
        errs = {}
        for m in (2, 16):
            r = saddle_point_error(np.ones(m), np.ones(m), np.ones(m),
                                   eta=0.5, trials=200_000, seed=3)
            errs[m] = r.rel_error
            assert r.rel_error > 3 * r.rel_error_stderr  # resolved, not noise
        assert errs[16] < errs[2]

    def test_stderr_scales_canonically(self):
        r1 = saddle_point_error(np.ones(2), np.ones(2), np.ones(2),
                                eta=1.0, trials=10_000, seed=4)
        r2 = saddle_point_error(np.ones(2), np.ones(2), np.ones(2),
                                eta=1.0, trials=160_000, seed=4)
        assert r2.mc_stderr < r1.mc_stderr / 2.5

    def test_rel_error_stderr_delta_method(self):
        r = saddle_point_error(np.ones(2), np.ones(2), np.ones(2),
                               eta=1.0, trials=10_000, seed=1)
        assert r.rel_error_stderr == pytest.approx(
            r.mc_stderr * r.bound / r.mc_estimate**2, rel=1e-15)

    @pytest.mark.parametrize("eta, estimate", [(15350.0, "stderr_squared_overflows"),
                                               (2e4, "squared_underflows"), (1e9, "zero")])
    def test_unresolved_estimate_has_infinite_error(self, eta, estimate):
        # so large an eta leaves the Monte Carlo estimate, at seed 0, too small
        # for the delta method's error (its square overflows, or the estimate's
        # square underflows to 0) or 0 outright, when every kernel underflows
        r = saddle_point_error(np.ones(2), np.ones(2), np.ones(2), eta=eta, trials=10_000, seed=0)
        square = r.mc_estimate**2
        assert {"stderr_squared_overflows": square > 0.0 and r.mc_stderr * r.bound / square > 1.35e154,
                "squared_underflows": square == 0.0 < r.mc_estimate, "zero": r.mc_estimate == 0.0}[estimate]
        assert r.rel_error_stderr == math.inf
        assert r.rel_error == (math.inf if r.mc_estimate == 0.0 else abs(r.mc_estimate - r.bound) / r.mc_estimate)

    def test_trials_floor(self):
        for trials in (9999, 10_000.5, True):
            with pytest.raises(ValueError, match=f"trials must be an integer >= 10000, got {trials}"):
                saddle_point_error(np.ones(2), np.ones(2), np.ones(2),
                                   eta=1.0, trials=trials, seed=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            saddle_point_error(np.ones(2), np.ones(3), np.ones(2),
                               eta=1.0, trials=10_000, seed=0)

    @pytest.mark.parametrize("name, bad", [("h", np.nan), ("gamma_g", np.nan), ("gamma_g", np.inf),
                                           ("p", np.nan), ("p", np.inf)])
    def test_rejects_non_finite_inputs(self, name, bad):
        # each used to give an all-NaN comparison, or a RuntimeWarning
        args = {"h": np.ones(2, dtype=np.complex128), "gamma_g": np.ones(2), "p": np.ones(2)}
        args[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            saddle_point_error(**args, eta=1.0, trials=10_000, seed=0)
