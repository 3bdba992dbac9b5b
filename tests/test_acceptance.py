"""Acceptance gates: ten end-to-end criteria at their stated tolerances.

Each test prints one line with the measured quantities so a verbose run
doubles as a report. Tolerances are asserted as stated, including the
clauses known to sit outside what the implemented algorithms deliver;
those failures are intentional and documented rather than papered over.
"""

import math
import time

import numpy as np
import pytest

from oracles import J_of_mu, derivative_J_wrt_mu, grid_search_oracle, vertex_enumeration_oracle
from relaypower.codebook import generate_codebook
from relaypower.experiments import load_spec, run_experiment
from relaypower.model import (
    NetworkConfig,
    PowerAllocation,
    amplifier_caps,
    overall_noise_variance,
    sample_channels,
)
from relaypower.objectives import (
    PartialCsitObjective,
    PerfectCsitObjective,
    exp_integral_e1,
    f0_gradient,
    f0_value,
    saddle_point_error,
)
from relaypower.onoff import (
    onoff_m2_closed_form,
    solve_onoff,
    solve_onoff_batch,
)
from relaypower.sim import (
    Scheme,
    effective_relay_count,
    run_monte_carlo,
    transmit_frame,
)
from relaypower.waterfill import (
    solve_waterfill,
    solve_waterfill_batch,
    waterfill_m2_closed_form,
)


def _unit_instance(rng, m, p_s=10.0, p_r=10.0, N0=1.0):
    h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    g = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    obj = PerfectCsitObjective.from_channels(h, g, eta=1.0)
    caps = p_r / (p_s * np.abs(h) ** 2 + N0)
    return obj, caps


def test_criterion_01_onoff_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    fallbacks = 0
    for m in range(2, 13):
        for _ in range(1000):
            obj, caps = _unit_instance(rng, m)
            alloc, trace = solve_onoff(obj, caps)
            oracle = vertex_enumeration_oracle(obj, caps)
            fallbacks += trace.used_fallback
            val, ref = f0_value(obj, alloc.p), f0_value(obj, oracle.p)
            worst = max(worst, abs(val - ref) / ref)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst rel dev {worst:.3e}, fallbacks {fallbacks}, "
          f"{elapsed:.1f}s -> {'PASS' if worst <= 1e-12 and fallbacks == 0 else 'FAIL'}")
    assert worst <= 1e-12
    assert fallbacks == 0
    assert elapsed < 120


def test_criterion_02_onoff_closed_form_m2():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    matches = 0
    n = 10_000
    for _ in range(n):
        obj, caps = _unit_instance(rng, 2)
        closed = onoff_m2_closed_form(obj, caps)
        oracle = vertex_enumeration_oracle(obj, caps)
        same = np.array_equal(closed.p, oracle.p)
        tied = abs(f0_value(obj, closed.p) - f0_value(obj, oracle.p)) \
            <= 1e-12 * max(f0_value(obj, oracle.p), 1e-300)
        matches += same or tied
    elapsed = time.perf_counter() - start
    print(f"criterion 2: {matches}/{n} matches, {elapsed:.1f}s -> "
          f"{'PASS' if matches == n else 'FAIL'}")
    assert matches == n
    assert elapsed < 10


@pytest.mark.slow
def test_criterion_03_waterfill_oracle_equivalence():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = np.inf
    for m in range(2, 17):
        for _ in range(1000):
            gamma_g = 10.0 ** rng.uniform(-2, 2, m)
            caps = 10.0 ** rng.uniform(-2, 2, m)
            obj = PartialCsitObjective(a=gamma_g.copy(), gamma_g=gamma_g)
            res = solve_waterfill(obj, caps)
            _, j_grid = grid_search_oracle(obj, caps, grid_points=100_000)
            worst = min(worst, res.J_star - j_grid)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: worst J margin {worst:.3e}, {elapsed:.1f}s -> "
          f"{'PASS' if worst >= -1e-6 else 'FAIL'}")
    assert worst >= -1e-6
    assert elapsed < 300


def test_criterion_04_waterfill_closed_form_m2():
    rng = np.random.default_rng(104)
    mismatches = 0
    n = 10_000
    for _ in range(n):
        gamma_g = 10.0 ** rng.uniform(-2, 2, 2)
        caps = 10.0 ** rng.uniform(-2, 2, 2)
        obj = PartialCsitObjective(a=gamma_g.copy(), gamma_g=gamma_g)
        closed = waterfill_m2_closed_form(obj, caps)
        solved = solve_waterfill(obj, caps)
        mismatches += not np.array_equal(closed.p, solved.allocation.p)

    worked2 = solve_waterfill(
        PartialCsitObjective(a=np.ones(2), gamma_g=np.ones(2)), np.array([1.0, 3.0]))
    worked3 = solve_waterfill(
        PartialCsitObjective(a=np.ones(3), gamma_g=np.ones(3)), np.array([0.5, 1.0, 5.0]))
    ok2 = np.allclose(worked2.allocation.p, [1.0, 2.0], rtol=1e-12, atol=0)
    ok3 = (np.allclose(worked3.allocation.p, [0.5, 1.0, 1.25], rtol=1e-12, atol=0)
           and abs(worked3.mu_star - 1.25) <= 1e-12)
    print(f"criterion 4: {n - mismatches}/{n} exact, worked examples "
          f"{'ok' if ok2 and ok3 else 'bad'} -> "
          f"{'PASS' if mismatches == 0 and ok2 and ok3 else 'FAIL'}")
    assert mismatches == 0
    assert ok2 and ok3


def _convergence_history(m, trials, iterations, seed):
    rng = np.random.default_rng(seed)
    h2 = np.abs((rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m)))
                / np.sqrt(2)) ** 2
    g2 = np.abs((rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m)))
                / np.sqrt(2)) ** 2
    caps = 10.0 / (10.0 * h2 + 1.0)
    alpha = h2 * g2
    masks, iters, fallback, iterates = solve_onoff_batch(alpha, g2, caps,
                                                         history=iterations + 1)
    assert not fallback.any()
    # f0 at every iterate, and at the final pattern in the last column
    on = np.concatenate([iterates, masks[:, None]], axis=1)
    a_sum = np.sum(np.where(on, (alpha * caps)[:, None], 0.0), axis=2)
    b_sum = np.sum(np.where(on, (g2 * caps)[:, None], 0.0), axis=2)
    f0 = a_sum / (1.0 + b_sum)
    return f0[:, :-1] / f0[:, -1:], iters


def test_criterion_05_convergence_within_ten_iterations():
    fractions = {}
    for m in (2, 4, 8, 16):
        _, iters = _convergence_history(m, 10_000, 10, seed=105 + m)
        fractions[m] = float(np.mean(iters <= 10))
    line = ", ".join(f"M={m}: {f:.4f}" for m, f in fractions.items())
    ok = all(f >= 0.999 for f in fractions.values())
    print(f"criterion 5 (iteration budget): {line} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_05_mean_objective_after_two_iterations():
    # the simultaneous sign-jump update needs a third sweep to settle the
    # marginal relays once M grows; measured means at iterate 2 fall short
    # of the 0.99 bar for M >= 8 while iterate 3 clears 0.996 everywhere
    means = {}
    for m in (2, 4, 8, 16):
        hist, _ = _convergence_history(m, 10_000, 10, seed=105 + m)
        means[m] = float(np.mean(hist[:, 2]))
    line = ", ".join(f"M={m}: {v:.4f}" for m, v in means.items())
    ok = all(v >= 0.99 for v in means.values())
    print(f"criterion 5 (mean at iterate 2): {line} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"mean normalized objective after 2 iterations: {line}"


def test_criterion_06_diversity_ordering():
    start = time.perf_counter()
    cfg = NetworkConfig(M=2, p_s=10.0, p_r=10.0, N0=1.0,
                        gamma_h=np.ones(2), gamma_g=np.ones(2))
    snr = np.arange(14.0, 25.0, 2.0)
    frames = 400_000
    on = run_monte_carlo(cfg, Scheme.ONOFF, snr, frames, seed=106)
    mx = run_monte_carlo(cfg, Scheme.MAX_POWER, snr, frames, seed=106)

    def slope(res):
        fit = np.polyfit(snr / 10.0, np.log10(res.bler), 1)
        return -fit[0]

    d_on, d_mx = slope(on), slope(mx)
    gaps = (mx.bler - on.bler) / np.hypot(on.stderr_bler, mx.stderr_bler)
    elapsed = time.perf_counter() - start
    ok = d_on >= d_mx + 0.4 and d_on >= 1.5 and np.all(gaps >= 2.0)
    print(f"criterion 6: d_onoff {d_on:.2f}, d_maxpower {d_mx:.2f}, "
          f"min gap {gaps.min():.1f} SE, {elapsed:.0f}s -> {'PASS' if ok else 'FAIL'}")
    assert d_on >= d_mx + 0.4
    assert d_on >= 1.5
    assert np.all(gaps >= 2.0)
    assert elapsed < 1800


def _distance_cfg(m, mode):
    P = 10.0 ** 1.5  # 15 dB over N0 = 1
    p = P / (m + 1)
    return NetworkConfig(M=m, p_s=p, p_r=p, N0=1.0,
                         gamma_h=np.ones(m), gamma_g=np.ones(m),
                         csit_mode=mode)


def test_criterion_07_distance_asymptotics():
    start = time.perf_counter()
    trials = 20_000
    near, far = {}, {}
    spreads = {}
    for m in (2, 4, 6):
        onoff_cfg = _distance_cfg(m, "perfect")
        partial_cfg = _distance_cfg(m, "partial")
        stat_cfg = _distance_cfg(m, "statistical")
        near[("onoff", m)] = effective_relay_count(
            onoff_cfg, Scheme.ONOFF, [0.1], trials, seed=107)[0]
        near[("waterfill_partial", m)] = effective_relay_count(
            partial_cfg, Scheme.WATERFILL, [0.1], trials, seed=107)[0]
        near[("waterfill_statistical", m)] = effective_relay_count(
            stat_cfg, Scheme.WATERFILL, [0.1], trials, seed=107)[0]
        near[("maxpower", m)] = effective_relay_count(
            onoff_cfg, Scheme.MAX_POWER, [0.1], trials, seed=107)[0]
        far[m] = effective_relay_count(
            onoff_cfg, Scheme.ONOFF, [0.9], trials, seed=107)[0]

        # water-level equalization across uncapped relays at r = 0.9
        rng = np.random.default_rng(207 + m)
        gamma_h = np.full(m, 1.0 / 0.81)
        gamma_g = np.full(m, 100.0)
        h = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) \
            * np.sqrt(gamma_h / 2)
        caps = partial_cfg.p_r / (partial_cfg.p_s * np.abs(h) ** 2 + 1.0)
        p = solve_waterfill_batch(gamma_g, caps)
        levels = p * gamma_g
        free = p < caps * (1.0 - 1e-12)
        masked = np.where(free, levels, np.nan)
        multi = np.count_nonzero(free, axis=1) >= 2
        spread = np.nanmax(masked[multi], axis=1) - np.nanmin(masked[multi], axis=1)
        spreads[m] = float(spread.max()) if spread.size else 0.0

    elapsed = time.perf_counter() - start
    near_ok = all(v >= 0.95 * m for (_, m), v in near.items())
    far_ok = all(v <= 1.2 for v in far.values())
    spread_ok = all(s <= 1e-9 for s in spreads.values())
    near_line = ", ".join(f"{s}/M={m}: {v / m:.4f}" for (s, m), v in near.items())
    far_line = ", ".join(f"M={m}: {v:.3f}" for m, v in far.items())
    ok = near_ok and far_ok and spread_ok
    print(f"criterion 7: r=0.1 count/M [{near_line}]; r=0.9 onoff [{far_line}]; "
          f"max level spread {max(spreads.values()):.1e}; {elapsed:.0f}s -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert near_ok
    assert far_ok
    assert spread_ok
    assert elapsed < 600


def test_criterion_07_waterfill_matches_onoff_near_source():
    # the count clause above passes, but literal allocation equality on
    # 99% of draws does not hold: waterfilling keeps every relay above
    # zero while on-off silences marginal ones, and the measured equal
    # fractions fall with M (about 0.97, 0.86, 0.70 for M = 2, 4, 6)
    trials = 10_000
    fractions = {}
    for m in (2, 4, 6):
        cfg = _distance_cfg(m, "partial")
        rng = np.random.default_rng(307 + m)
        gamma_h = np.full(m, 100.0)
        gamma_g = np.full(m, 1.0 / 0.81)
        h = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) \
            * np.sqrt(gamma_h / 2)
        g = (rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))) \
            * np.sqrt(gamma_g / 2)
        caps = cfg.p_r / (cfg.p_s * np.abs(h) ** 2 + 1.0)
        wf = solve_waterfill_batch(gamma_g, caps)
        masks, _, _, _ = solve_onoff_batch(np.abs(h) ** 2 * np.abs(g) ** 2,
                                           np.abs(g) ** 2, caps)
        onoff = np.where(masks, caps, 0.0)
        equal = np.all(np.abs(wf - onoff) <= 1e-9 * caps, axis=1)
        fractions[m] = float(np.mean(equal))
    line = ", ".join(f"M={m}: {f:.4f}" for m, f in fractions.items())
    ok = all(f >= 0.99 for f in fractions.values())
    print(f"criterion 7 (allocation equality): {line} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"equal-allocation fractions: {line}"


def test_criterion_08_saddle_error_vs_relay_count():
    # Monte Carlo oracle cross-checked against direct quadrature during
    # development; the averaged-bound error is not monotone in M for the
    # equal-variance p = P family (it rises from M=2 to M=4 before
    # falling), so the middle comparisons fail the stated direction
    start = time.perf_counter()
    instances = 24
    draws = 100_000
    means, sems = {}, {}
    for m in (2, 4, 8, 16):
        rng = np.random.default_rng(108 + m)
        errs = np.empty(instances)
        for j in range(instances):
            h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
            caps = 10.0 / (10.0 * np.abs(h) ** 2 + 1.0)
            r = saddle_point_error(h, np.ones(m), caps, eta=1.0,
                                   trials=draws, seed=1080 + 100 * m + j)
            errs[j] = r.rel_error
        means[m] = float(np.mean(errs))
        sems[m] = float(np.std(errs, ddof=1) / math.sqrt(instances))
    elapsed = time.perf_counter() - start
    line = ", ".join(f"M={m}: {means[m]:.4f}±{sems[m]:.4f}" for m in means)
    grid = list(means)
    ok = all(
        means[b] <= means[a] + 2 * math.hypot(sems[a], sems[b])
        for a, b in zip(grid, grid[1:])
    )
    print(f"criterion 8: rel error [{line}], {elapsed:.0f}s -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"relative error not monotone decreasing: {line}"
    assert elapsed < 300


def test_criterion_09_numerical_kernels():
    mpmath = pytest.importorskip("mpmath")
    xs = np.logspace(-6, math.log10(50.0), 1000)
    worst_e1 = max(
        abs(exp_integral_e1(float(x)) - float(mpmath.e1(mpmath.mpf(float(x)))))
        / float(mpmath.e1(mpmath.mpf(float(x))))
        for x in xs
    )

    # denominator floor 1e-3 makes the 1e-6 bar equivalent to
    # |grad - fd| <= max(1e-6 |fd|, 1e-9): central differences lose the
    # last digits on near-stationary components
    rng = np.random.default_rng(109)
    worst_grad = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        obj, _ = _unit_instance(rng, m)
        p = rng.uniform(0.05, 4.0, m)
        grad = f0_gradient(obj, p)
        for i in range(m):
            dp = np.zeros(m)
            dp[i] = 1e-6
            fd = (f0_value(obj, p + dp) - f0_value(obj, p - dp)) / 2e-6
            worst_grad = max(worst_grad, abs(grad[i] - fd) / max(abs(fd), 1e-3))

    worst_mu = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 9))
        gamma_g = 10.0 ** rng.uniform(-1, 1, m)
        caps = 10.0 ** rng.uniform(-1, 1, m)
        obj = PartialCsitObjective(a=gamma_g.copy(), gamma_g=gamma_g)
        pg = caps * gamma_g
        mu = rng.uniform(1.0 / m, (1.0 + pg.sum()) / m)
        eps = 1e-6 * mu
        if np.any(np.abs(pg - mu) < 10 * eps) or mu - eps <= 1.0 / m \
                or mu + eps >= (1.0 + pg.sum()) / m:
            continue
        fd = (J_of_mu(obj, mu + eps, caps) - J_of_mu(obj, mu - eps, caps)) / (2 * eps)
        worst_mu = max(worst_mu,
                       abs(derivative_J_wrt_mu(obj, mu, caps) - fd * mu)
                       / max(abs(fd * mu), 1e-3))
        checked += 1

    code = generate_codebook(2, seed=9)
    cfg = NetworkConfig(M=2, p_s=10.0, p_r=10.0, N0=1.0,
                        gamma_h=np.ones(2), gamma_g=np.ones(2))
    chan = sample_channels(cfg, 9)
    caps = amplifier_caps(cfg, chan.h)
    alloc = PowerAllocation(p=caps, caps=caps)
    clean = transmit_frame(code, chan, alloc, cfg.p_s, 0.0, 2, np.random.default_rng(0))
    rng2 = np.random.default_rng(10)
    n = 100_000
    v = np.empty((n, 2), dtype=np.complex128)
    for i in range(n):
        v[i] = transmit_frame(code, chan, alloc, cfg.p_s, cfg.N0, 2, rng2) - clean
    sigma2 = overall_noise_variance(alloc.p, chan.g, cfg.N0)
    cov = v.conj().T @ v / n
    diag_err = float(np.max(np.abs(np.diagonal(cov).real / sigma2 - 1.0)))
    off_err = float(abs(cov[0, 1]) / sigma2)

    ok = (worst_e1 <= 1e-12 and worst_grad <= 1e-6 and worst_mu <= 1e-6
          and diag_err <= 0.02 and off_err <= 0.02)
    print(f"criterion 9: E1 {worst_e1:.1e}, grad {worst_grad:.1e}, "
          f"dJ/dmu {worst_mu:.1e}, noise diag {diag_err:.4f}, "
          f"off-diag {off_err:.4f} -> {'PASS' if ok else 'FAIL'}")
    assert worst_e1 <= 1e-12
    assert worst_grad <= 1e-6
    assert worst_mu <= 1e-6
    assert diag_err <= 0.02
    assert off_err <= 0.02


_SCENARIOS = {
    "convergence": """\
kind: convergence
m_grid: [2, 4]
trials: 500
network: {p_s: 10.0, p_r: 10.0}
""",
    "bler_vs_snr": """\
kind: bler_vs_snr
schemes: [onoff, waterfill_statistical, maxpower, direct]
snr_db: [10.0, 14.0]
frames: 2000
network: {M: 2}
""",
    "ber_vs_distance": """\
kind: ber_vs_distance
schemes: [onoff, direct]
m_grid: [2]
r_grid: [0.3, 0.7]
network_power_db: 15.0
frames: 2000
network: {}
""",
    "power_ratio_vs_distance": """\
kind: power_ratio_vs_distance
schemes: [onoff, waterfill_partial, maxpower]
m_grid: [2, 4]
r_grid: [0.1, 0.5, 0.9]
network_power_db: 15.0
trials: 500
network: {}
""",
    "ber_vs_network_power": """\
kind: ber_vs_network_power
schemes: [onoff]
m_grid: [2]
snr_db: [12.0, 16.0]
frames: 2000
network: {}
""",
    "asymptotic_study": """\
kind: asymptotic_study
m_grid: [2]
r_grid: [0.1, 0.9]
network_power_db: 15.0
trials: 500
network: {}
""",
    "saddle_study": """\
kind: saddle_study
m_grid: [2, 4]
trials: 10000
instances: 2
network: {p_s: 1.0, p_r: 1.0}
""",
}


def test_criterion_10_shard_determinism(tmp_path):
    mismatched = []
    for kind, text in _SCENARIOS.items():
        spec_path = tmp_path / f"{kind}.yaml"
        spec_path.write_text(text)
        spec = load_spec(spec_path)
        outputs = {}
        for shards in (1, 3):
            out = tmp_path / f"{kind}_s{shards}"
            paths = run_experiment(spec, out, shards=shards)
            outputs[shards] = {p.name: p.read_bytes()
                               for p in paths if p.suffix == ".csv"}
        if outputs[1] != outputs[3]:
            mismatched.append(kind)
    print(f"criterion 10: {len(_SCENARIOS) - len(mismatched)}/{len(_SCENARIOS)} "
          f"kinds byte-identical across shard counts -> "
          f"{'PASS' if not mismatched else 'FAIL ' + str(mismatched)}")
    assert not mismatched
