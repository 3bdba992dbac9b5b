"""Capped waterfilling over the averaged second hop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import J_of_mu, derivative_J_wrt_mu, grid_search_oracle
from relaypower import waterfill
from relaypower.objectives import (
    PartialCsitObjective,
    StatisticalCsitObjective,
    log_objective_J,
)
from relaypower.waterfill import (
    solve_waterfill,
    solve_waterfill_batch,
    waterfill_m2_closed_form,
)


def _obj(gamma_g, a=None):
    gamma_g = np.asarray(gamma_g, dtype=np.float64)
    a = gamma_g.copy() if a is None else np.asarray(a, dtype=np.float64)
    return PartialCsitObjective(a=a, gamma_g=gamma_g)


def _random_instance(rng, m):
    gamma_g = rng.uniform(0.1, 4.0, m)
    caps = rng.uniform(0.1, 6.0, m)
    a = rng.uniform(0.1, 4.0, m)
    return _obj(gamma_g, a), caps


M2 = (_obj([1.0, 1.0], a=[1.0, 1.0]), np.array([1.0, 3.0]))
M3 = (_obj([1.0, 1.0, 1.0], a=[1.0, 1.0, 1.0]), np.array([0.5, 1.0, 5.0]))


class TestJOfMu:
    def test_frozen_values_two_relay(self):
        obj, caps = M2
        assert J_of_mu(obj, 2.0, caps) == pytest.approx(-2.0794415416798357, rel=1e-14)
        assert J_of_mu(obj, 2.5, caps) == pytest.approx(-2.0918640616783932, rel=1e-14)

    def test_frozen_values_three_relay(self):
        obj, caps = M3
        assert J_of_mu(obj, 1.25, caps) == pytest.approx(-4.435271149192694, rel=1e-14)
        assert J_of_mu(obj, 1.5, caps) == pytest.approx(-4.446565155811452, rel=1e-14)
        assert J_of_mu(obj, 2.5, caps) == pytest.approx(-4.605170185988091, rel=1e-14)

    def test_agrees_with_log_objective_at_induced_allocation(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            obj, caps = _random_instance(rng, int(rng.integers(1, 9)))
            pg = caps * obj.gamma_g
            mu = rng.uniform(1.0 / obj.M, (1.0 + pg.sum()) / obj.M)
            p = np.minimum(mu / obj.gamma_g, caps)
            assert J_of_mu(obj, mu, caps) == pytest.approx(
                log_objective_J(obj, p), rel=1e-12)

    def test_out_of_range_level_clamps_with_warning(self):
        obj, caps = M2
        with pytest.warns(UserWarning, match="clamp"):
            low = J_of_mu(obj, 0.01, caps)
        assert low == J_of_mu(obj, 0.5, caps)  # mu_min = 1/2


class TestDerivative:
    def test_zero_at_interior_optimum(self):
        obj, caps = M3
        assert abs(derivative_J_wrt_mu(obj, 1.25, caps)) < 1e-9

    def test_negative_just_above_optimum(self):
        obj, caps = M3
        assert derivative_J_wrt_mu(obj, 1.26, caps) < 0.0
        assert derivative_J_wrt_mu(obj, 1.24, caps) > 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            obj, caps = _random_instance(rng, int(rng.integers(2, 9)))
            pg = caps * obj.gamma_g
            mu_min, mu_max = 1.0 / obj.M, (1.0 + pg.sum()) / obj.M
            mu = rng.uniform(mu_min, mu_max)
            eps = 1e-6 * mu
            # keep the membership pattern fixed across the stencil
            if np.any(np.abs(pg - mu) < 10 * eps) or mu - eps < mu_min or mu + eps > mu_max:
                continue
            fd = (J_of_mu(obj, mu + eps, caps) - J_of_mu(obj, mu - eps, caps)) / (2 * eps)
            assert derivative_J_wrt_mu(obj, mu, caps) == pytest.approx(
                fd * mu, rel=1e-6, abs=1e-9)
            checked += 1


class TestSolve:
    def test_two_relay_worked_example(self):
        obj, caps = M2
        res = solve_waterfill(obj, caps)
        assert res.mu_star == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(res.allocation.p, [1.0, 2.0], rtol=1e-15)
        np.testing.assert_array_equal(res.at_cap, [True, False])

    def test_three_relay_worked_example(self):
        obj, caps = M3
        res = solve_waterfill(obj, caps)
        assert res.mu_star == pytest.approx(1.25, rel=1e-15)
        np.testing.assert_allclose(res.allocation.p, [0.5, 1.0, 1.25], rtol=1e-15)

    def test_symmetric_instance_caps_both(self):
        obj = _obj([1.0, 1.0])
        res = solve_waterfill(obj, np.array([1.0, 1.0]))
        np.testing.assert_allclose(res.allocation.p, [1.0, 1.0], rtol=1e-15)
        assert res.at_cap.all()

    def test_single_relay_always_at_cap(self):
        obj = _obj([2.0])
        res = solve_waterfill(obj, np.array([3.0]))
        assert res.mu_star == pytest.approx(7.0, rel=1e-15)
        np.testing.assert_allclose(res.allocation.p, [3.0], rtol=1e-15)

    def test_kkt_pattern_and_positivity(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            obj, caps = _random_instance(rng, int(rng.integers(1, 10)))
            res = solve_waterfill(obj, caps)
            p = res.allocation.p
            assert np.all(p > 0.0)
            assert np.all(p <= caps * (1 + 1e-12))
            free = ~res.at_cap
            np.testing.assert_allclose(p[free] * obj.gamma_g[free], res.mu_star,
                                       rtol=1e-12)
            assert np.all(caps[res.at_cap] * obj.gamma_g[res.at_cap]
                          <= res.mu_star * (1 + 1e-12))

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            obj, caps = _random_instance(rng, int(rng.integers(2, 10)))
            res = solve_waterfill(obj, caps)
            _, j_grid = grid_search_oracle(obj, caps, grid_points=10_000)
            assert res.J_star >= j_grid - 1e-6

    def test_allocation_invariant_to_scaling_a(self):
        rng = np.random.default_rng(16)
        obj, caps = _random_instance(rng, 5)
        scaled = PartialCsitObjective(a=37.0 * obj.a, gamma_g=obj.gamma_g)
        np.testing.assert_array_equal(solve_waterfill(obj, caps).allocation.p,
                                      solve_waterfill(scaled, caps).allocation.p)

    def test_low_water_limit_caps_everyone(self):
        # all P_i gamma_gi far below 1/M: every cap sits under the water
        rng = np.random.default_rng(17)
        obj, caps = _random_instance(rng, 6)
        res = solve_waterfill(obj, caps * 1e-4)
        assert res.at_cap.all()

    def test_strong_second_hop_caps_single_relay(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            gamma_g = 1e6 * rng.uniform(0.5, 2.0, m)
            caps = rng.uniform(0.5, 2.0, m)
            pg = caps * gamma_g
            if np.min(np.diff(np.sort(pg))) < 1e-3 * pg.max():
                continue
            obj = _obj(gamma_g)
            res = solve_waterfill(obj, caps)
            assert int(np.count_nonzero(res.at_cap)) == 1
            assert int(np.argmin(pg)) == int(np.argmax(res.at_cap))
            assert res.mu_star == pytest.approx((1.0 + pg.min()) / 1.0, rel=1e-12)
            free = ~res.at_cap
            np.testing.assert_allclose(res.allocation.p[free] * gamma_g[free],
                                       res.mu_star, rtol=1e-12)

    def test_statistical_objective_is_deterministic_input(self):
        obj = StatisticalCsitObjective.from_variances(
            np.array([1.0, 2.0]), np.array([2.0, 1.0]), eta=1.3)
        caps = np.array([0.7, 0.9])
        a = solve_waterfill(obj, caps).allocation.p
        b = solve_waterfill(obj, caps).allocation.p
        np.testing.assert_array_equal(a, b)


class TestClosedFormM2:
    @pytest.mark.parametrize("gamma_g,caps,expected", [
        ([1.0, 1.0], [1.0, 3.0], [1.0, 2.0]),
        ([1.0, 1.0], [3.0, 1.0], [2.0, 1.0]),
        ([2.0, 1.0], [1.0, 2.5], [1.0, 2.5]),
    ])
    def test_worked_examples(self, gamma_g, caps, expected):
        obj = _obj(gamma_g)
        alloc = waterfill_m2_closed_form(obj, np.asarray(caps, dtype=np.float64))
        np.testing.assert_allclose(alloc.p, expected, rtol=1e-15)

    def test_exact_agreement_with_solver(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            obj, caps = _random_instance(rng, 2)
            closed = waterfill_m2_closed_form(obj, caps)
            solved = solve_waterfill(obj, caps)
            np.testing.assert_array_equal(closed.p, solved.allocation.p)

    def test_requires_two_relays(self):
        obj = _obj([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="M = 2"):
            waterfill_m2_closed_form(obj, np.ones(3))


def _clamped_levels(gamma_g, caps):
    """Every row's M candidate levels, clamped into [1/M, mu_max]."""
    m = caps.shape[1]
    pg_sorted = np.sort(caps * gamma_g, axis=1, kind="stable")
    mu_raw = (1.0 + np.cumsum(pg_sorted, axis=1)) / np.arange(1, m + 1)
    return np.clip(mu_raw, 1.0 / m, mu_raw[:, -1:])


def _full_scan_reference(gamma_g, caps):
    """Batch waterfilling that scores every candidate level of every row.

    This is solve_waterfill_batch as it was before it scored only the rows
    with a near-tie level; the kernel must match it bit for bit.
    """
    gamma_g = np.asarray(gamma_g, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    m = caps.shape[1]
    mu_cl = _clamped_levels(gamma_g, caps)
    # candidate allocations: (n, M candidates, M relays)
    p_cand = np.minimum(mu_cl[:, :, None] / gamma_g[None, None, :], caps[:, None, :])
    denom = 1.0 + np.einsum("ijk,k->ij", p_cand, gamma_g)
    j_cand = np.sum(np.log(p_cand), axis=2) - m * np.log(denom)
    best = np.argmax(j_cand, axis=1)
    mu_star = np.take_along_axis(mu_cl, best[:, None], axis=1)
    return np.minimum(mu_star / gamma_g[None, :], caps)


def _near_levels(gamma_g, caps):
    """Mask of the clamped levels in (mu, mu (1 + rtol)], mu the row's least level."""
    mu = _clamped_levels(gamma_g, caps)
    mu_min = np.min(mu, axis=1, keepdims=True)
    return (mu > mu_min) & (mu <= mu_min * (1.0 + waterfill._NEAR_TIE_RTOL))


def _tie_rows(rng, m, n, gamma_g, n_ties, scale=1.0, spread=0.0):
    """Cap rows whose sorted products satisfy s_(j+1) = ... = mu_j.

    The j smallest products lie below scale/j; at scale 1 that is below
    1/j <= mu_k for every k <= j, so the levels fall up to mu_j. n_ties
    relays get the cap mu_j (1 + spread u) / gamma_gi with u
    uniform in [-1, 1], and the rest lie well above mu_j. Returns the caps
    and each row's j.
    """
    caps = np.empty((n, m))
    js = rng.integers(1, m - n_ties + 1, n)
    for r, j in enumerate(js):
        s = scale * rng.uniform(0.05, 1.0, j) / j
        mu_j = (1.0 + np.cumsum(np.sort(s))[-1]) / j
        ties = mu_j * (1.0 + spread * rng.uniform(-1.0, 1.0, n_ties))
        rest = mu_j * rng.uniform(1.5, 5.0, m - j - n_ties)
        products = np.concatenate([s, ties, rest])
        perm = rng.permutation(m)
        caps[r, perm] = products / gamma_g[perm]
    return caps, js


@st.composite
def _batches(draw):
    """(gamma_g, caps) with M = 1..40 and the structures that make ties."""
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gamma_g = np.full(m, draw(st.floats(0.05, 20.0)))
    else:
        gamma_g = rng.uniform(0.05, 20.0, m)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rows = [scale * rng.exponential(1.0, (16, m)),
            # equal caps within each row
            np.repeat(scale * rng.exponential(1.0, (4, 1)), m, axis=1),
            # a few distinct cap values: equal products and equal levels
            scale * rng.integers(1, 4, (4, m)).astype(np.float64)]
    if m >= 2:
        rows.append(_tie_rows(rng, m, 8, gamma_g, n_ties=min(2, m - 1))[0])
    return gamma_g, np.vstack(rows)


class TestCapMonotonicity:
    @settings(max_examples=150)
    @given(_batches(), st.integers(0, 39), st.floats(1.0, 1e3))
    def test_allocation_is_non_decreasing_in_every_cap(self, batch, i, factor):
        # a higher cap on a capped relay raises the water level, so every
        # relay keeps at least its power; one on an uncapped relay moves nothing
        gamma_g, caps = batch
        raised = caps.copy()
        raised[:, i % caps.shape[1]] *= factor
        before = solve_waterfill_batch(gamma_g, caps)
        after = solve_waterfill_batch(gamma_g, raised)
        assert np.all(after >= before * (1.0 - 1e-12))


@pytest.fixture
def scored_rows(monkeypatch):
    """Records the cap rows of every batch scoring call, each over all M levels."""
    calls = []
    scorer = waterfill._best_candidate

    def spy(gamma_g, caps, mu):
        assert mu.shape == caps.shape
        calls.append(caps.copy())
        return scorer(gamma_g, caps, mu)

    monkeypatch.setattr(waterfill, "_best_candidate", spy)
    return calls


# (gamma_h, gamma_g, p) of statistical-CSIT points whose caps p / (p gamma_h + 1)
# put two candidate levels within J rounding of each other, so a scan that
# rounds J in another order picks the other level (up to 6.7e-8 relative apart)
_INTEGER_NEAR_TIES = [
    ([2, 1, 2, 1, 1], [3, 3, 2, 1, 3], 5547.996686297584),
    ([2, 2, 3, 1, 2], [1, 2, 3, 3, 1], 1e4),
    ([1, 2, 1, 1, 2, 2, 2], [1, 2, 2, 3, 2, 1, 1], 1e3),
    ([2, 1, 2, 1, 1, 2, 1, 2, 2, 1], [2, 3, 1, 2, 1, 2, 3, 1, 2, 2], 10.0 ** 3.4),
    ([3, 2, 3, 3, 2, 1, 2, 1, 1, 2, 2], [2, 2, 1, 2, 1, 1, 1, 3, 1, 1, 1], 10.0 ** 2.8),
    ([2, 2, 2, 1, 3, 2, 1, 1, 3, 2, 2], [3, 1, 3, 2, 3, 2, 1, 3, 3, 1, 3], 1e3),
]

# every relay capped, so mu* is the kernel's mu_max, which sits one ulp
# above (1 + np.sum(products)) / M: the kernel sums the sorted products
_ALL_CAPPED_ULP_ABOVE = (np.array([0.048, 0.339, 1.591]), np.array([[5.156, 0.034, 0.017]]))


def _J_at_level(obj, mu, caps):
    """J_of_mu at a solver's level, which lies inside J_of_mu's interval."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return J_of_mu(obj, mu, caps)


class TestBatchSolver:
    def _assert_rows_match_scalar(self, gamma_g, caps):
        batch = solve_waterfill_batch(gamma_g, caps)
        obj = _obj(gamma_g)
        for i in range(caps.shape[0]):
            res = solve_waterfill(obj, caps[i])
            np.testing.assert_array_equal(batch[i], res.allocation.p)
            assert res.J_star == pytest.approx(_J_at_level(obj, res.mu_star, caps[i]), rel=1e-12)

    def test_agrees_with_scalar_solver(self):
        rng = np.random.default_rng(20)
        for m in (1, 2, 3, 4, 6, 8, 16, 32):
            n = 300 if m <= 8 else 60
            for gamma_g in (rng.uniform(0.2, 3.0, m), np.full(m, 1.3)):
                self._assert_rows_match_scalar(gamma_g, rng.uniform(0.1, 5.0, (n, m)))
        for gamma_h, gamma_g, p in _INTEGER_NEAR_TIES:
            caps = p / (p * np.asarray(gamma_h, dtype=np.float64) + 1.0)
            self._assert_rows_match_scalar(np.asarray(gamma_g, dtype=np.float64), caps[None])
        self._assert_rows_match_scalar(*_ALL_CAPPED_ULP_ABOVE)

    def test_level_an_ulp_above_J_of_mu_interval(self):
        gamma_g, caps = _ALL_CAPPED_ULP_ABOVE
        res = solve_waterfill(_obj(gamma_g), caps[0])
        assert res.at_cap.all()
        assert res.mu_star > (1.0 + np.sum(caps[0] * gamma_g)) / 3
        # J_of_mu sums the products as the kernel does, so its interval
        # holds the solver's own level and it does not warn
        j = _J_at_level(_obj(gamma_g), res.mu_star, caps[0])
        assert j == pytest.approx(res.J_star, rel=1e-12)

    @settings(max_examples=150)
    @given(_batches())
    def test_bit_identical_to_full_scan(self, batch):
        gamma_g, caps = batch
        np.testing.assert_array_equal(solve_waterfill_batch(gamma_g, caps),
                                      _full_scan_reference(gamma_g, caps))

    def test_exact_level_ties_match_full_scan(self):
        # gamma_g = 1 makes the products the caps, so s_(j+1) = mu_j holds
        # exactly with mu_j computed as the kernel computes it
        rng = np.random.default_rng(22)
        for m in (4, 5, 9, 17, 40):
            gamma_g = np.ones(m)
            caps, js = _tie_rows(rng, m, 200, gamma_g, n_ties=1)
            s = np.sort(caps, axis=1, kind="stable")
            rows = np.arange(200)
            mu_j = (1.0 + np.cumsum(s, axis=1)[rows, js - 1]) / js
            np.testing.assert_array_equal(s[rows, js], mu_j)
            np.testing.assert_array_equal(solve_waterfill_batch(gamma_g, caps),
                                          _full_scan_reference(gamma_g, caps))

    def test_near_tie_guard_rescores_over_all_candidates(self, scored_rows):
        # s_(j+1) = s_(j+2) = mu_j puts three levels within rounding of
        # each other; rows where they do not round to one value are scored
        rng = np.random.default_rng(23)
        m, n = 12, 400
        gamma_g = rng.uniform(0.2, 3.0, m)
        caps, _ = _tie_rows(rng, m, n, gamma_g, n_ties=2)
        out = solve_waterfill_batch(gamma_g, caps)
        np.testing.assert_array_equal(out, _full_scan_reference(gamma_g, caps))
        (scored,) = scored_rows
        assert scored.shape[1] == m and 0 < scored.shape[0] < n

    @pytest.mark.parametrize("m", [2, 3, 4, 12, 40])
    def test_adjacent_near_levels_are_scored_in_full(self, m, scored_rows):
        # one product within 1e-6..1e-5 relative of mu_j puts mu_(j+1) that
        # close to mu_j and leaves every other level far: the only near
        # level is a neighbour of the minimum
        rng = np.random.default_rng(24)
        gamma_g = rng.uniform(0.2, 3.0, m)
        ties = [_tie_rows(rng, m, 40, gamma_g, n_ties=1, spread=spread)[0]
                for spread in (1e-6, 3e-6, 1e-5)]
        caps = np.vstack(ties + [rng.exponential(1.0, (40, m))])
        np.testing.assert_array_equal(solve_waterfill_batch(gamma_g, caps),
                                      _full_scan_reference(gamma_g, caps))
        near = _near_levels(gamma_g, caps)
        flagged = np.any(near, axis=1)
        # each flagged tie row has one near value, held by a neighbour of
        # the minimum (and by the levels clamped to it when that is mu_max)
        hit = flagged[:120]
        mu, tied = _clamped_levels(gamma_g, caps)[:120][hit], near[:120][hit]
        assert mu.shape[0] >= 40
        np.testing.assert_array_equal(np.min(np.where(tied, mu, np.inf), axis=1),
                                      np.max(np.where(tied, mu, 0.0), axis=1))
        beside = np.clip(np.argmin(mu, axis=1)[:, None] + [-1, 1], 0, m - 1)
        assert np.all(np.take_along_axis(tied, beside, axis=1).any(axis=1))
        (scored,) = scored_rows
        np.testing.assert_array_equal(scored, caps[flagged])

    @pytest.mark.parametrize("m", [1, 2, 8, 32])
    def test_rows_without_near_levels_are_not_scored(self, m, scored_rows):
        rng = np.random.default_rng(25)
        gamma_g = rng.uniform(0.2, 3.0, m)
        caps = rng.exponential(1.0, (2000, m))
        caps = caps[~np.any(_near_levels(gamma_g, caps), axis=1)]
        assert caps.shape[0] > 1900
        np.testing.assert_array_equal(solve_waterfill_batch(gamma_g, caps),
                                      _full_scan_reference(gamma_g, caps))
        assert scored_rows == []

    @pytest.mark.parametrize("m, scale, seed, n", [(40, 1e100, 1, 4000), (200, 1e300, 5, 800)])
    def test_near_ties_at_large_products_match_full_scan(self, m, scale, seed, n):
        # rounding in J grows with ln(P gamma_g), and with it the level gap
        # at which a full scan can prefer a level other than the least; at
        # 1e100 six rows do so, three of them 1.0e-6 to 1.6e-6 relative from
        # the minimum, and at 1e300 with M = 200 two rows do
        rng = np.random.default_rng(seed)
        gamma_g = rng.uniform(0.2, 3.0, m)
        caps, _ = _tie_rows(rng, m, n, gamma_g, n_ties=3, scale=scale, spread=3e-6)
        for chunk in np.array_split(caps, 16):
            np.testing.assert_array_equal(solve_waterfill_batch(gamma_g, chunk),
                                          _full_scan_reference(gamma_g, chunk))

    @settings(max_examples=150)
    @given(_batches())
    def test_kkt_pattern(self, batch):
        gamma_g, caps = batch
        p = solve_waterfill_batch(gamma_g, caps)
        assert np.all(p > 0.0) and np.all(p <= caps)
        # the water level is the minimum of the V-shaped raw levels
        pg = caps * gamma_g
        m = caps.shape[1]
        mu = np.min((1.0 + np.cumsum(np.sort(pg, axis=1), axis=1)) / np.arange(1, m + 1),
                    axis=1)[:, None]
        below = pg <= mu * (1.0 - 1e-9)
        above = pg >= mu * (1.0 + 1e-9)
        np.testing.assert_array_equal(p[below], caps[below])
        np.testing.assert_allclose((p * gamma_g)[above], np.broadcast_to(mu, p.shape)[above],
                                   rtol=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_rejects_non_positive_or_non_finite_caps(self, bad):
        caps = np.array([1.0, bad, 2.0])
        obj = PartialCsitObjective(a=np.ones(3), gamma_g=np.ones(3))
        obj2 = PartialCsitObjective(a=np.ones(2), gamma_g=np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (
                lambda: solve_waterfill_batch(np.ones(3), caps[None]),
                lambda: solve_waterfill(obj, caps),
                lambda: grid_search_oracle(obj, caps),
                lambda: waterfill_m2_closed_form(obj2, caps[1:]),
            ):
                with pytest.raises(ValueError, match="caps entries must be finite"):
                    solve()

    def test_rejects_batches_of_no_relays(self):
        with pytest.raises(ValueError, match=r"caps must have shape \(n, M\) with M >= 1"):
            solve_waterfill_batch(np.ones(0), np.ones((3, 0)))

    def test_empty_batch(self):
        assert solve_waterfill_batch(np.ones(3), np.ones((0, 3))).shape == (0, 3)

    def test_rejects_caps_that_are_not_a_batch(self):
        with pytest.raises(ValueError, match="caps must have shape"):
            solve_waterfill_batch(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("gamma_g", [np.ones(1), np.ones(4), np.ones((1, 3))])
    def test_rejects_gamma_of_another_shape(self, gamma_g):
        with pytest.raises(ValueError, match=r"gamma_g must have shape \(3,\)"):
            solve_waterfill_batch(gamma_g, np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite_gamma(self, bad):
        with pytest.raises(ValueError, match="gamma_g entries must be finite"):
            solve_waterfill_batch(np.array([1.0, bad, 2.0]), np.ones((2, 3)))


def _grid_oracle_in_one_pass(obj, caps, grid_points):
    """grid_search_oracle's J over the whole grid at once, first-index argmax."""
    pg = caps * obj.gamma_g
    m = obj.M
    order = np.argsort(pg, kind="stable")
    pg_sorted = pg[order]
    prefix_pg = np.concatenate([[0.0], np.cumsum(pg_sorted)])
    prefix_ln_caps = np.concatenate([[0.0], np.cumsum(np.log(caps[order]))])
    prefix_ln_gamma = np.concatenate([[0.0], np.cumsum(np.log(obj.gamma_g[order]))])
    mu_min, mu_max = 1.0 / m, float((1.0 + prefix_pg[-1]) / m)
    mu_cands = np.clip((1.0 + prefix_pg[1:]) / np.arange(1, m + 1), mu_min, mu_max)
    grid = np.concatenate([np.linspace(mu_min, mu_max, grid_points), mu_cands])
    idx = np.searchsorted(pg_sorted, grid, side="right")
    n_free = m - idx
    j_vals = (
        n_free * np.log(grid)
        - (prefix_ln_gamma[m] - prefix_ln_gamma[idx])
        + prefix_ln_caps[idx]
        - m * np.log(1.0 + n_free * grid + prefix_pg[idx])
        + float(np.sum(np.log(obj.a)))
    )
    best = int(np.argmax(j_vals))
    return float(grid[best]), float(j_vals[best])


class TestGridOracle:
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunks_give_the_one_pass_bits(self, monkeypatch, chunk):
        monkeypatch.setattr(oracles, "_ORACLE_CHUNK", chunk)
        rng = np.random.default_rng(8)
        cases = [_random_instance(rng, int(rng.integers(1, 17))) for _ in range(40)]
        # a zero coefficient makes J -inf everywhere
        cases.append((_obj([1.0, 1.0, 1.0], a=[0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])))
        for obj, caps in cases:
            with np.errstate(divide="ignore"):
                got = grid_search_oracle(obj, caps, grid_points=5000)
                want = _grid_oracle_in_one_pass(obj, caps, 5000)
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert want[1] == -np.inf

    @pytest.mark.parametrize("gamma_g,caps", [
        ([10.0, 10.0], [1e308, 1e308]),      # every P_i gamma_gi overflows
        ([1e300, 1.0, 1.0], [1e300, 1.0, 2.0]),  # one does
        ([1.0, 1.0], [1e308, 1e308]),        # only their sum does
    ])
    def test_rejects_an_interval_past_the_float_range(self, gamma_g, caps):
        with pytest.raises(ValueError, match=r"mu_max = \(1 \+ sum_i caps_i gamma_gi\) / M overflows"):
            grid_search_oracle(_obj(gamma_g), np.array(caps))

    def test_recovers_worked_levels(self):
        obj2, caps2 = M2
        mu2, _ = grid_search_oracle(obj2, caps2, grid_points=10_000)
        assert mu2 == pytest.approx(2.0, abs=1e-3)
        obj3, caps3 = M3
        mu3, _ = grid_search_oracle(obj3, caps3, grid_points=10_000)
        assert mu3 == pytest.approx(1.25, abs=1e-3)

    def test_single_relay(self):
        # J is flat above pg = 6, so mu is pinned only through the
        # induced allocation; the objective must still match the solver
        obj = _obj([2.0])
        caps = np.array([3.0])
        mu, j = grid_search_oracle(obj, caps, grid_points=10_000)
        assert mu >= 6.0
        assert np.minimum(mu / obj.gamma_g, caps)[0] == pytest.approx(3.0, rel=1e-12)
        assert j == pytest.approx(solve_waterfill(obj, caps).J_star, rel=1e-12)

    def test_matches_direct_evaluation(self):
        # the prefix-sum evaluation must agree with J_of_mu pointwise
        rng = np.random.default_rng(21)
        obj, caps = _random_instance(rng, 5)
        mu, j = grid_search_oracle(obj, caps, grid_points=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert j == pytest.approx(J_of_mu(obj, mu, caps), rel=1e-12)
