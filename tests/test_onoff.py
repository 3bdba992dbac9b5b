"""On-off allocation: iterative solver, closed form, and vertex oracle."""

import numpy as np
import pytest

from relaypower.model import PowerAllocation
from relaypower.objectives import PerfectCsitObjective, f0_gradient, f0_value
from relaypower.onoff import (
    feedback_bits,
    m2_discriminant,
    onoff_m2_closed_form,
    solve_onoff,
    solve_onoff_batch,
    verify_stationarity,
    vertex_enumeration_oracle,
)


def _obj_and_caps(h2, g2, p_s=10.0, p_r=10.0, N0=1.0, eta=1.0):
    h2 = np.asarray(h2, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    obj = PerfectCsitObjective(alpha=h2 * g2, beta=g2, eta=eta)
    caps = p_r / (p_s * h2 + N0)
    return obj, caps


def _random_instance(rng, m):
    h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    g = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    return _obj_and_caps(np.abs(h) ** 2, np.abs(g) ** 2)


class TestSolveOnOff:
    def test_symmetric_two_relay(self):
        obj, caps = _obj_and_caps([1.0, 1.0], [1.0, 1.0], p_s=1.0, p_r=1.0, N0=1.0)
        alloc, trace = solve_onoff(obj, caps)
        np.testing.assert_allclose(alloc.p, [0.5, 0.5], rtol=1e-15)
        assert trace.converged

    def test_three_relay_worked_example(self):
        obj, caps = _obj_and_caps([4.0, 0.01, 1.0], [1.0, 1.0, 1.0])
        alloc, _ = solve_onoff(obj, caps)
        np.testing.assert_allclose(alloc.p, [10 / 41, 0.0, 10 / 11], rtol=1e-15)
        assert f0_value(obj, alloc.p) == pytest.approx(850 / 971, rel=1e-15)

    def test_trace_is_monotone_ascent(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            obj, caps = _random_instance(rng, int(rng.integers(2, 10)))
            _, trace = solve_onoff(obj, caps)
            vals = trace.objective_values
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            assert not trace.used_fallback

    def test_matches_oracle(self):
        rng = np.random.default_rng(44)
        for m in range(2, 9):
            for _ in range(100):
                obj, caps = _random_instance(rng, m)
                alloc, trace = solve_onoff(obj, caps)
                oracle = vertex_enumeration_oracle(obj, caps)
                assert trace.converged
                assert f0_value(obj, alloc.p) == pytest.approx(
                    f0_value(obj, oracle.p), rel=1e-12)

    def test_start_at_optimum_is_fixed_point(self):
        rng = np.random.default_rng(7)
        obj, caps = _random_instance(rng, 6)
        oracle = vertex_enumeration_oracle(obj, caps)
        alloc, trace = solve_onoff(obj, caps, start=oracle.active)
        np.testing.assert_array_equal(alloc.p, oracle.p)
        assert trace.iterations == 0

    def test_start_shape_checked(self):
        obj, caps = _obj_and_caps([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="start"):
            solve_onoff(obj, caps, start=np.ones(3, dtype=bool))

    def test_all_zero_alpha_turns_everything_off(self):
        obj = PerfectCsitObjective(alpha=np.zeros(3), beta=np.ones(3), eta=1.0)
        alloc, _ = solve_onoff(obj, np.ones(3))
        np.testing.assert_array_equal(alloc.p, np.zeros(3))

    def test_strong_first_hop_activates_everything(self):
        # amplifier caps collapse, so every relay's gradient stays positive
        rng = np.random.default_rng(50)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            h2 = 1e6 * rng.exponential(1.0, m)
            g2 = rng.exponential(1.0, m)
            obj, caps = _obj_and_caps(h2, g2)
            alloc, _ = solve_onoff(obj, caps)
            assert np.all(alloc.active)

    def test_strong_second_hop_selects_single_best_relay(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            h2 = rng.exponential(1.0, m)
            g2 = 1e6 * rng.exponential(1.0, m)
            obj, caps = _obj_and_caps(h2, g2)
            alloc, _ = solve_onoff(obj, caps)
            assert np.count_nonzero(alloc.active) == 1
            scores = h2 / (1.0 + 1.0 / (g2 * caps))
            assert int(np.argmax(scores)) == int(np.argmax(alloc.active))


class TestBatchSolver:
    def test_agrees_with_scalar_solver(self):
        rng = np.random.default_rng(60)
        m, n = 5, 400
        h2 = rng.exponential(1.0, (n, m))
        g2 = rng.exponential(1.0, (n, m))
        alpha = h2 * g2
        caps = 10.0 / (10.0 * h2 + 1.0)
        masks, iters, fallback, _ = solve_onoff_batch(alpha, g2, caps)
        assert not fallback.any()
        for i in range(n):
            obj = PerfectCsitObjective(alpha=alpha[i], beta=g2[i], eta=1.0)
            alloc, trace = solve_onoff(obj, caps[i])
            np.testing.assert_array_equal(masks[i], alloc.active)
            assert iters[i] == trace.iterations

    def test_history_starts_all_on_and_freezes_at_convergence(self):
        rng = np.random.default_rng(61)
        m, n = 4, 200
        h2 = rng.exponential(1.0, (n, m))
        g2 = rng.exponential(1.0, (n, m))
        alpha = h2 * g2
        caps = 10.0 / (10.0 * h2 + 1.0)
        masks, _, _, hist = solve_onoff_batch(alpha, g2, caps, history=12)
        assert hist.shape == (n, 12)
        a_on = np.sum(alpha * caps, axis=1)
        b_on = np.sum(g2 * caps, axis=1)
        np.testing.assert_allclose(hist[:, 0], a_on / (1.0 + b_on), rtol=1e-12)
        a_fin = np.sum(np.where(masks, alpha * caps, 0.0), axis=1)
        b_fin = np.sum(np.where(masks, g2 * caps, 0.0), axis=1)
        np.testing.assert_allclose(hist[:, -1], a_fin / (1.0 + b_fin), rtol=1e-12)
        diffs = np.diff(hist, axis=1)
        assert np.all(diffs >= -1e-15)

    def test_start_override(self):
        rng = np.random.default_rng(62)
        m, n = 3, 100
        h2 = rng.exponential(1.0, (n, m))
        g2 = rng.exponential(1.0, (n, m))
        caps = 10.0 / (10.0 * h2 + 1.0)
        start = rng.integers(0, 2, (n, m)).astype(bool)
        masks, _, fallback, _ = solve_onoff_batch(h2 * g2, g2, caps, start=start)
        default, _, _, _ = solve_onoff_batch(h2 * g2, g2, caps)
        assert not fallback.any()
        # stationary pattern is unique off a measure-zero set, so the
        # start vertex must not change the answer
        np.testing.assert_array_equal(masks, default)

    def test_rejects_caps_of_another_shape(self):
        with pytest.raises(ValueError, match="caps must have shape"):
            solve_onoff_batch(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite_caps(self, bad):
        caps = np.ones((2, 3))
        caps[1, 2] = bad
        with pytest.raises(ValueError, match="caps entries must be finite"):
            solve_onoff_batch(np.ones((2, 3)), np.ones((2, 3)), caps)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_rejects_gains_of_another_shape(self, name):
        args = {"alpha": np.ones((2, 3)), "beta": np.ones((2, 3))}
        args[name] = np.ones((2, 4))
        with pytest.raises(ValueError, match=f"{name} must have the shape"):
            solve_onoff_batch(args["alpha"], args["beta"], np.ones((2, 3)))

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_gains(self, name, bad):
        args = {"alpha": np.ones((2, 3)), "beta": np.ones((2, 3))}
        args[name][0, 1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve_onoff_batch(args["alpha"], args["beta"], np.ones((2, 3)))

    def test_accepts_zero_gains(self):
        # a relay with no channel is a valid instance: it is switched off
        alpha = np.array([[0.0, 2.0]])
        masks, _, fallback, _ = solve_onoff_batch(alpha, np.array([[0.0, 1.0]]), np.ones((1, 2)))
        np.testing.assert_array_equal(masks, [[False, True]])
        assert not fallback.any()


class TestVertexOracle:
    def test_single_relay(self):
        obj = PerfectCsitObjective(alpha=np.array([2.0]), beta=np.array([1.0]), eta=1.0)
        alloc = vertex_enumeration_oracle(obj, np.array([3.0]))
        np.testing.assert_array_equal(alloc.p, [3.0])

    def test_zero_alpha_ties_resolve_to_origin(self):
        obj = PerfectCsitObjective(alpha=np.zeros(4), beta=np.ones(4), eta=1.0)
        alloc = vertex_enumeration_oracle(obj, np.ones(4))
        np.testing.assert_array_equal(alloc.p, np.zeros(4))

    def test_size_limit(self):
        m = 21
        obj = PerfectCsitObjective(alpha=np.ones(m), beta=np.ones(m), eta=1.0)
        with pytest.raises(ValueError, match="20"):
            vertex_enumeration_oracle(obj, np.ones(m))

    def test_beats_every_other_vertex(self):
        rng = np.random.default_rng(70)
        obj, caps = _random_instance(rng, 6)
        best = f0_value(obj, vertex_enumeration_oracle(obj, caps).p)
        for bits in range(2**6):
            mask = np.array([(bits >> i) & 1 for i in range(6)], dtype=bool)
            assert f0_value(obj, np.where(mask, caps, 0.0)) <= best + 1e-15


class TestStationarity:
    def test_holds_at_oracle_vertex_and_breaks_when_flipped(self):
        rng = np.random.default_rng(80)
        checked_flips = 0
        for _ in range(200):
            obj, caps = _random_instance(rng, 5)
            alloc = vertex_enumeration_oracle(obj, caps)
            assert verify_stationarity(obj, alloc)
            i = int(rng.integers(0, 5))
            p = alloc.p.copy()
            p[i] = caps[i] - p[i]
            flipped = PowerAllocation(p=p, caps=caps)
            if abs(f0_value(obj, p) - f0_value(obj, alloc.p)) > 1e-12:
                assert not verify_stationarity(obj, flipped)
                checked_flips += 1
        assert checked_flips > 150

    def test_single_relay_certificate(self):
        obj = PerfectCsitObjective(alpha=np.array([1.0]), beta=np.array([1.0]), eta=1.0)
        caps = np.array([2.0])
        assert verify_stationarity(obj, PowerAllocation(p=caps, caps=caps))

    def test_non_vertex_rejected(self):
        obj, caps = _obj_and_caps([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="vert"):
            verify_stationarity(obj, PowerAllocation(p=caps / 2, caps=caps))


class TestM2ClosedForm:
    def test_discriminant_sign_tracks_first_hop_ordering(self):
        rng = np.random.default_rng(90)
        for _ in range(100):
            h2 = rng.exponential(1.0, 2)
            g2 = rng.exponential(1.0, 2)
            obj, caps = _obj_and_caps(h2, g2)
            d = m2_discriminant(obj, caps)
            assert d.delta == pytest.approx(g2[0] * g2[1] * (h2[0] - h2[1]), rel=1e-12)

    def test_worked_example_silences_weak_relay(self):
        obj, caps = _obj_and_caps([4.0, 0.01], [1.0, 1.0])
        alloc = onoff_m2_closed_form(obj, caps)
        np.testing.assert_allclose(alloc.p, [caps[0], 0.0])

    def test_activation_threshold(self):
        # relay 2 joins exactly above |h_2|^2 = 40/51 in the worked instance
        thr = 40.0 / 51.0
        for h2_2, expect_on in [(thr * 0.999, False), (thr * 1.001, True)]:
            obj, caps = _obj_and_caps([4.0, h2_2], [1.0, 1.0])
            alloc = onoff_m2_closed_form(obj, caps)
            assert bool(alloc.active[1]) is expect_on
            assert alloc.active[0]

    def test_dominant_first_relay_always_on(self):
        obj, caps = _obj_and_caps([1e12, 0.3], [0.7, 1.3])
        alloc = onoff_m2_closed_form(obj, caps)
        assert alloc.active[0]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(91)
        for _ in range(2000):
            obj, caps = _random_instance(rng, 2)
            closed = onoff_m2_closed_form(obj, caps)
            oracle = vertex_enumeration_oracle(obj, caps)
            assert f0_value(obj, closed.p) == pytest.approx(
                f0_value(obj, oracle.p), rel=1e-12)

    def test_requires_two_relays(self):
        obj, caps = _obj_and_caps([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="M = 2"):
            onoff_m2_closed_form(obj, caps)


def test_feedback_bits():
    alloc = PowerAllocation(p=np.array([1.0, 0.0, 2.0]), caps=np.array([1.0, 1.0, 2.0]))
    assert feedback_bits(alloc) == "101"
