"""On-off allocation: iterative solver, closed form, and vertex oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import verify_stationarity, vertex_enumeration_oracle
from relaypower import onoff
from relaypower.model import PowerAllocation
from relaypower.objectives import PerfectCsitObjective, f0_gradient, f0_value
from relaypower.onoff import (
    m2_discriminant,
    onoff_m2_closed_form,
    solve_onoff,
    solve_onoff_batch,
    solve_onoff_masks,
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
        assert not trace.used_fallback

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
                assert not trace.used_fallback
                assert f0_value(obj, alloc.p) == pytest.approx(
                    f0_value(obj, oracle.p), rel=1e-12)

    @pytest.mark.parametrize("regime", ["tie", "noise_free"])
    def test_unsettled_instance_keeps_its_trajectory_and_gets_the_exact_optimum(self, regime):
        # tie: a key on f0 makes the update a rounding-level decision;
        # noise_free: beta P ~ 1e144, 1 + B rounds to B. Either way the
        # float f0 stops rising before the pattern settles
        rng = np.random.default_rng(66)
        if regime == "tie":
            alpha, beta, caps = _near_threshold_rows(rng, 200, 4)
        else:
            alpha, beta, caps = _physical_rows(rng, 50, 4)
            beta *= 1e144
        _, iters, fallback, iterates = solve_onoff_batch(alpha, beta, caps, history=onoff.MAX_ITERATIONS)
        i = int(np.argmax(fallback))
        assert fallback[i]
        obj = PerfectCsitObjective(alpha=alpha[i], beta=beta[i], eta=1.0)
        alloc, trace = solve_onoff(obj, caps[i])
        assert trace.used_fallback
        # every visited pattern, at most M + 2 of them, and nothing else
        assert trace.iterations == iters[i] <= 4 + 1
        assert len(trace.iterates) == iters[i] + 1
        for p, mask in zip(trace.iterates, iterates[i]):
            np.testing.assert_array_equal(p, np.where(mask, caps[i], 0.0))
        _assert_exact_optima(alpha[i : i + 1], beta[i : i + 1], caps[i : i + 1], alloc.active[None])
        assert trace.objective_values == [f0_value(obj, p) for p in trace.iterates]

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
        masks, iters, _, iterates = solve_onoff_batch(alpha, g2, caps, history=12)
        assert iterates.shape == (n, 12, m) and iterates.dtype == bool
        assert iterates[:, 0].all()
        for k in range(12):
            np.testing.assert_array_equal(iterates[iters <= k, k], masks[iters <= k])
        f0 = np.stack([_f0_of(alpha, g2, caps, iterates[:, k]) for k in range(12)], axis=1)
        assert np.all(np.diff(f0, axis=1) >= -1e-15)

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_non_positive_or_non_finite_caps(self, bad):
        caps = np.ones((2, 3))
        caps[1, 2] = bad
        obj = PerfectCsitObjective(alpha=np.ones(3), beta=np.ones(3), eta=1.0)
        for solve in (
            lambda: solve_onoff_batch(np.ones((2, 3)), np.ones((2, 3)), caps),
            lambda: solve_onoff_masks(np.ones((2, 3)), np.ones((2, 3)), caps),
            lambda: solve_onoff(obj, caps[1]),
            lambda: vertex_enumeration_oracle(obj, caps[1]),
            lambda: onoff_m2_closed_form(PerfectCsitObjective(alpha=np.ones(2), beta=np.ones(2), eta=1.0),
                                         caps[1, 1:]),
        ):
            with pytest.raises(ValueError, match="caps entries must be finite"):
                solve()

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

    def test_rejects_batches_of_no_relays(self):
        with pytest.raises(ValueError, match=r"caps must have shape \(n, M\) with M >= 1"):
            solve_onoff_batch(np.ones((3, 0)), np.ones((3, 0)), np.ones((3, 0)))

    def test_accepts_zero_gains(self):
        # a relay with no channel is a valid instance: it is switched off
        alpha = np.array([[0.0, 2.0]])
        masks, _, fallback, _ = solve_onoff_batch(alpha, np.array([[0.0, 1.0]]), np.ones((1, 2)))
        np.testing.assert_array_equal(masks, [[False, True]])
        assert not fallback.any()


def _physical_rows(rng, n, m):
    """alpha = |h|^2 |g|^2, beta = |g|^2 and short-term caps at a random SNR."""
    h2 = rng.exponential(1.0, (n, m))
    g2 = rng.exponential(1.0, (n, m))
    p = 10.0 ** rng.uniform(-1.0, 2.0)
    return h2 * g2, g2, p / (p * h2 + 1.0)


def _f0_of(alpha, beta, caps, masks):
    a = np.sum(np.where(masks, alpha * caps, 0.0), axis=1)
    b = np.sum(np.where(masks, beta * caps, 0.0), axis=1)
    return a / (1.0 + b)


def _assert_exact_optima(alpha, beta, caps, masks):
    """Dinkelbach's certificate in exact arithmetic: S = {i : alpha_i > f0(S) beta_i}.

    The update from S switches on exactly the relays with alpha_i (1 + B) >
    beta_i A; S* is its only fixed point, so a row passes only with the
    fewest-relay optimum, whatever the rounding or the size of M.
    """
    wrong = []
    for r, (a_row, b_row, c_row, mask) in enumerate(
            zip(alpha.tolist(), beta.tolist(), caps.tolist(), masks.tolist())):
        a = sum((Fraction(x) * Fraction(c) for x, c, on in zip(a_row, c_row, mask) if on), Fraction(0))
        b = 1 + sum((Fraction(x) * Fraction(c) for x, c, on in zip(b_row, c_row, mask) if on), Fraction(0))
        if [Fraction(x) * b > Fraction(y) * a for x, y in zip(a_row, b_row)] != mask:
            wrong.append(r)
    assert not wrong, f"rows {wrong} are not the exact optimum"


def _tied_key_rows(rng, n, m):
    """Few distinct |h|^2 and |g|^2, powers of two, so keys tie exactly."""
    h2 = 0.5 * rng.integers(1, 4, (n, m))
    g2 = 2.0 ** rng.integers(-1, 2, (n, m))
    caps = 10.0 / (10.0 * h2 + 1.0) if rng.random() < 0.5 else rng.uniform(0.5, 2.0, (n, m))
    return h2 * g2, g2, caps


def _near_threshold_rows(rng, n, m):
    """One key per row moved onto the row's optimal f0, or 1 ulp either side.

    An off relay gets |h|^2 = f0(S*). Or the weakest relay j of S* gets
    f0(S* less j), which ties the two sets, when no off relay lies between.
    Either way the iteration's update for j is a rounding-level decision.
    """
    alpha, beta, caps = _physical_rows(rng, n, m)
    masks = solve_onoff_batch(alpha, beta, caps)[0]
    f = _f0_of(alpha, beta, caps, masks)
    keys = alpha / beta
    for r in range(n):
        off, on = np.nonzero(~masks[r])[0], np.nonzero(masks[r])[0]
        j, target = None, f[r]
        if on.size >= 2 and rng.random() < 0.5:
            weakest = on[np.argmin(keys[r, on])]
            rest = masks[r : r + 1].copy()
            rest[0, weakest] = False
            rest_f0 = _f0_of(alpha[r : r + 1], beta[r : r + 1], caps[r : r + 1], rest)[0]
            if not off.size or keys[r, off].max() < rest_f0:
                j, target = weakest, rest_f0
        if j is None and off.size:
            j = rng.choice(off)
        if j is None:
            continue
        alpha[r, j] = beta[r, j] * target
        for _ in range(abs(int(rng.integers(-1, 2)))):
            alpha[r, j] = np.nextafter(alpha[r, j], np.inf if rng.random() < 0.5 else 0.0)
    return alpha, beta, caps


def _weighted_rows(rng, n, m, heavy):
    """One off relay per row reweighted next to the threshold.

    heavy: beta P grows by 1e8..1e16 and |h|^2 sits 1e-12..1e-3 relative
    below f0(S*); the relay's own weight can then make S* plus it a float
    fixed point of the iteration. Otherwise beta P shrinks by 1e-40..1e-12
    and |h|^2 sits 1e-8..1e-3 above f0(S*): the relay belongs to S*, but
    adding it moves f0 by less than rounding.
    """
    alpha, beta, caps = _physical_rows(rng, n, m)
    masks = solve_onoff_batch(alpha, beta, caps)[0]
    f = _f0_of(alpha, beta, caps, masks)
    for r in range(n):
        off = np.nonzero(~masks[r])[0]
        if not off.size:
            continue
        j = rng.choice(off)
        if heavy:
            beta[r, j] *= 10.0 ** rng.uniform(8.0, 16.0)
            alpha[r, j] = beta[r, j] * f[r] * (1.0 - 10.0 ** rng.uniform(-12.0, -3.0))
        else:
            beta[r, j] *= 10.0 ** rng.uniform(-40.0, -12.0)
            alpha[r, j] = beta[r, j] * f[r] * (1.0 + 10.0 ** rng.uniform(-8.0, -3.0))
    return alpha, beta, caps


def _split_tie_rows(rng, n, m):
    """An off relay takes the exact key of the weakest relay of S*.

    Its gains are that relay's times 2^-60, so it barely moves f0 and a
    first argmax over the sorted relays can stop between the two.
    """
    alpha, beta, caps = _physical_rows(rng, n, m)
    masks = solve_onoff_batch(alpha, beta, caps)[0]
    for r in range(n):
        off, on = np.nonzero(~masks[r])[0], np.nonzero(masks[r])[0]
        if off.size and on.size:
            weakest = on[np.argmin(alpha[r, on] / beta[r, on])]
            j = rng.choice(off)
            alpha[r, j] = 2.0**-60 * alpha[r, weakest]
            beta[r, j] = 2.0**-60 * beta[r, weakest]
    return alpha, beta, caps


@st.composite
def _onoff_batches(draw):
    """Batches of (alpha, beta, caps) with M = 1..40, one per row structure."""
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [_physical_rows(rng, 12, m), _tied_key_rows(rng, 6, m)]
    if m >= 2:
        parts += [_near_threshold_rows(rng, 8, m), _weighted_rows(rng, 4, m, heavy=True),
                  _weighted_rows(rng, 4, m, heavy=False), _split_tie_rows(rng, 4, m)]
    scaled = draw(st.booleans())
    for alpha, beta, _ in parts:
        # zero gains: alpha = beta = 0, alpha = 0 < beta and beta = 0 < alpha
        for zeroed in ((alpha, beta), (alpha,), (beta,)):
            hit = rng.random(alpha.shape) < 0.05
            for x in zeroed:
                x[hit] = 0.0
        if scaled:
            # row scales of 1e+-150 on alpha and beta; past beta P ~ 1e16,
            # 1 + B rounds to B and every such row leans on the exact scan
            alpha *= 10.0 ** rng.uniform(-150.0, 150.0, (alpha.shape[0], 1))
            beta *= 10.0 ** rng.uniform(-150.0, 150.0, (beta.shape[0], 1))
    return parts


@st.composite
def _generic_batches(draw):
    """Continuous random instances with no constructed ties, M = 1..12."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma_h = rng.uniform(0.1, 10.0, m)
    gamma_g = rng.uniform(0.1, 10.0, m)
    h2 = gamma_h * rng.exponential(1.0, (8, m))
    g2 = gamma_g * rng.exponential(1.0, (8, m))
    p = 10.0 ** draw(st.floats(-2.0, 4.0))
    return h2 * g2, g2, p / (p * h2 + 1.0)


class TestCapMonotonicity:
    # The optimal f0 cannot fall when a cap rises: a set without the relay
    # keeps its value, and at an optimum that holds the relay, f0 grows in
    # its power. The optimal set itself can change either way, so only f0
    # is compared.
    @settings(max_examples=150)
    @given(_generic_batches(), st.integers(0, 11), st.floats(1.0, 1e3))
    def test_optimal_f0_is_non_decreasing_in_every_cap(self, batch, i, factor):
        alpha, beta, caps = batch
        raised = caps.copy()
        raised[:, i % caps.shape[1]] *= factor
        before = _f0_of(alpha, beta, caps, solve_onoff_masks(alpha, beta, caps))
        after = _f0_of(alpha, beta, raised, solve_onoff_masks(alpha, beta, raised))
        assert np.all(after >= before * (1.0 - 1e-12))


@pytest.fixture
def exact_calls(monkeypatch):
    """Records the alpha rows of every call the solvers make to the exact scan."""
    calls = []
    scan = onoff._exact_optimum

    def spy(alpha, beta, caps):
        calls.append(np.array(alpha))
        return scan(alpha, beta, caps)

    monkeypatch.setattr(onoff, "_exact_optimum", spy)
    return calls


class TestMaskKernel:
    @settings(max_examples=150)
    @given(parts=_onoff_batches())
    def test_is_the_exact_optimum(self, parts):
        for alpha, beta, caps in parts:
            masks = solve_onoff_masks(alpha, beta, caps)
            _assert_exact_optima(alpha, beta, caps, masks)
            np.testing.assert_array_equal(solve_onoff_batch(alpha, beta, caps)[0], masks)

    @settings(max_examples=150)
    @given(_generic_batches())
    def test_matches_vertex_oracle(self, batch):
        alpha, beta, caps = batch
        masks = solve_onoff_masks(alpha, beta, caps)
        for i in range(alpha.shape[0]):
            obj = PerfectCsitObjective(alpha=alpha[i], beta=beta[i], eta=1.0)
            np.testing.assert_array_equal(masks[i], vertex_enumeration_oracle(obj, caps[i]).p > 0.0)
            if alpha.shape[1] == 2:
                np.testing.assert_array_equal(masks[i], onoff_m2_closed_form(obj, caps[i]).p > 0.0)

    def test_near_ties_go_through_the_exact_scan(self, exact_calls):
        rng = np.random.default_rng(63)
        m = 12
        clean = _physical_rows(rng, 300, m)
        near = _near_threshold_rows(rng, 40, m)
        heavy = _weighted_rows(rng, 40, m, heavy=True)
        light = _weighted_rows(rng, 40, m, heavy=False)
        split = _split_tie_rows(rng, 40, m)
        alpha, beta, caps = (np.vstack(x) for x in zip(clean, near, heavy, light, split))
        masks = solve_onoff_masks(alpha, beta, caps)
        assert len(exact_calls) == 1
        solved = {row.tobytes() for row in exact_calls[0]}
        _assert_exact_optima(alpha, beta, caps, masks)
        assert not any(row.tobytes() in solved for row in clean[0])
        # every moved key lies within rounding of f0, so the margin test flags it
        assert all(row.tobytes() in solved for row in near[0])
        # the heavy relay sits below f0(S*), so S* leaves it out; the iteration
        # can stop with it on, and the batch solver flags those rows
        moved = heavy[1] > 1e6
        assert np.count_nonzero(np.any(moved, axis=1)) > 30
        first = len(clean[0]) + len(near[0])
        assert not masks[first : first + len(heavy[0])][moved].any()
        batch, _, fallback, _ = solve_onoff_batch(*heavy)
        assert not batch[moved].any() and fallback.any()
        # the fixed-point test flags the rows whose light relay the argmax left out
        assert any(row.tobytes() in solved for row in light[0])
        # and a cut between two equal keys sends the row back too
        assert any(row.tobytes() in solved for row in split[0])

    def test_clean_rows_skip_the_exact_scan(self, exact_calls):
        rng = np.random.default_rng(64)
        for m in (1, 2, 8, 32):
            alpha, beta, caps = _physical_rows(rng, 2000, m)
            masks = solve_onoff_masks(alpha, beta, caps)
            np.testing.assert_array_equal(masks, solve_onoff_batch(alpha, beta, caps)[0])
        assert exact_calls == []

    @pytest.mark.parametrize("m", [4, 12, 24])
    @pytest.mark.parametrize("regime", ["tie", "noise_free"])
    def test_rows_the_iteration_cannot_settle_get_the_exact_optimum(self, m, regime):
        # tie: keys on f0 of S* or of S* less one relay make the update a
        # rounding-level decision; noise_free: with beta P ~ 1e144, 1 + B
        # rounds to B and the best relay alone ties with itself. The float
        # f0 then stops rising, the iteration stops within M + 2 sweeps or
        # settles off S*, and every solver answers every row with S*, for any M
        rng = np.random.default_rng(65)
        if regime == "tie":
            alpha, beta, caps = _near_threshold_rows(rng, 200, m)
        else:
            alpha, beta, caps = _physical_rows(rng, 50, m)
            beta *= 1e144
        masks, iterations, fallback, _ = solve_onoff_batch(alpha, beta, caps)
        assert fallback.any()
        assert iterations.max() <= m + 1
        kernel = solve_onoff_masks(alpha, beta, caps)
        _assert_exact_optima(alpha, beta, caps, kernel)
        _assert_exact_optima(alpha, beta, caps, masks)
        np.testing.assert_array_equal(masks, kernel)
        objs = (PerfectCsitObjective(alpha=a, beta=b, eta=1.0) for a, b in zip(alpha, beta))
        scalar = np.array([solve_onoff(obj, c)[0].active for obj, c in zip(objs, caps)])
        np.testing.assert_array_equal(scalar, masks)

    def test_zero_gains(self):
        alpha = np.array([[0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        beta = np.array([[0.0, 1.0, 3.0, 0.0], [0.0, 1.0, 0.0, 2.0]])
        masks = solve_onoff_masks(alpha, beta, np.ones((2, 4)))
        np.testing.assert_array_equal(masks, [[False, True, False, True], [False] * 4])

    @pytest.mark.parametrize("m", [1, 3])
    def test_empty_batch(self, m):
        empty = np.ones((0, m))
        for masks in (solve_onoff_masks(empty, empty, empty),
                      solve_onoff_batch(empty, empty, empty)[0]):
            assert masks.shape == (0, m) and masks.dtype == bool

    def test_rejects_batches_of_no_relays(self):
        with pytest.raises(ValueError, match=r"caps must have shape \(n, M\) with M >= 1"):
            solve_onoff_masks(np.ones((3, 0)), np.ones((3, 0)), np.ones((3, 0)))

    def test_rejects_caps_of_another_shape(self):
        with pytest.raises(ValueError, match="caps must have shape"):
            solve_onoff_masks(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_gains(self, name, bad):
        args = {"alpha": np.ones((2, 3)), "beta": np.ones((2, 3))}
        args[name][0, 1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve_onoff_masks(args["alpha"], args["beta"], np.ones((2, 3)))


class TestExactScan:
    # the scan answers only rows the float paths cannot settle, so its
    # edge cases are driven directly
    def test_single_relay(self):
        masks = onoff._exact_optimum(np.array([[2.0], [0.0]]), np.ones((2, 1)), np.ones((2, 1)))
        np.testing.assert_array_equal(masks, [[True], [False]])

    def test_zero_gains(self):
        # alpha = beta = 0 and alpha = 0 < beta stay off; beta = 0 < alpha
        # leads, and a second such relay joins it
        alpha = np.array([[0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 2.0, 1.0]])
        beta = np.array([[0.0, 3.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0]])
        masks = onoff._exact_optimum(alpha, beta, np.ones((2, 4)))
        np.testing.assert_array_equal(masks, [[False, False, True, False], [False, False, True, True]])

    def test_tied_keys_at_the_threshold_stay_off(self):
        # relay 0 alone has f0 = 2 / (1 + 1) = 1, and relays 1 and 2 have
        # |h|^2 = 1 exactly, so adding either leaves f0 at 1: the fewest
        # relays win, as in the enumeration
        alpha, beta, caps = np.array([[2.0, 1.0, 3.0]]), np.array([[1.0, 1.0, 3.0]]), np.ones((1, 3))
        obj = PerfectCsitObjective(alpha=alpha[0], beta=beta[0], eta=1.0)
        for masks in (onoff._exact_optimum(alpha, beta, caps), solve_onoff_masks(alpha, beta, caps)):
            np.testing.assert_array_equal(masks, [[True, False, False]])
            np.testing.assert_array_equal(masks[0], vertex_enumeration_oracle(obj, caps[0]).active)

    def test_noise_free_rows_past_the_enumeration_limit(self):
        rng = np.random.default_rng(67)
        alpha, beta, caps = _physical_rows(rng, 20, 64)
        beta *= 1e144
        _assert_exact_optima(alpha, beta, caps, onoff._exact_optimum(alpha, beta, caps))
        masks, iterations, fallback, _ = solve_onoff_batch(alpha, beta, caps)
        assert fallback.any() and iterations.max() <= 64 + 1
        _assert_exact_optima(alpha, beta, caps, masks)
        np.testing.assert_array_equal(solve_onoff_masks(alpha, beta, caps), masks)

    def test_overflowing_products_raise_no_warning(self):
        # alpha P and alpha (1 + B) overflow on finite input the validators
        # accept; under the suite's filterwarnings = error a RuntimeWarning fails
        rng = np.random.default_rng(68)
        alpha, beta, caps = _physical_rows(rng, 64, 6)
        alpha *= 1e300
        caps *= 1e10
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(alpha * caps))
        _assert_exact_optima(alpha, beta, caps, solve_onoff_masks(alpha, beta, caps))
        _assert_exact_optima(alpha, beta, caps, solve_onoff_batch(alpha, beta, caps)[0])


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
