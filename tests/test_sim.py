"""Monte Carlo chain: physical model, decoding, tallies, sharding."""

import concurrent.futures
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaypower import sim
from relaypower.codebook import codeword_signs, generate_codebook
from relaypower.model import (
    ChannelRealization,
    NetworkConfig,
    PowerAllocation,
    _batch_caps,
    amplifier_caps,
    overall_noise_variance,
    sample_channel_batch,
    sample_channels,
)
from relaypower.rng import STREAM_FRAMES, derive_rng
from relaypower.sim import (
    Scheme,
    SimResult,
    _allocate_batch,
    _batch_size,
    _BatchWorkspace,
    _DecodeTables,
    _ml_decode_batch,
    _relay_batch_tallies,
    effective_code_matrix,
    effective_relay_count,
    ml_decode,
    run_monte_carlo,
    scheme_label,
    transmit_frame,
)


def _cfg(m=2, t=2, **kw):
    base = dict(M=m, T=t, p_s=10.0, p_r=10.0, N0=1.0,
                gamma_h=np.ones(m), gamma_g=np.ones(m))
    base.update(kw)
    return NetworkConfig(**base)


def _stat_cfg(m=2, t=2, **kw):
    return _cfg(m, t, csit_mode="statistical", **kw)


class TestPhysicalChain:
    def test_noiseless_receive_and_decode_are_exact(self):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3, 3)
        chan = sample_channels(cfg, 5)
        caps = amplifier_caps(cfg, chan.h)
        alloc = PowerAllocation(p=caps, caps=caps)
        rng = np.random.default_rng(0)
        for k in range(code.n_codewords):
            r = transmit_frame(code, chan, alloc, cfg.p_s, 0.0, k, rng)
            assert ml_decode(code, chan, alloc, cfg.p_s, r) == k

    def test_effective_matrix_composition(self):
        code = generate_codebook(2, seed=1)
        f = np.array([1 + 1j, 2.0])
        q = np.array([0.5, 1.0])
        c = effective_code_matrix(code, f, q, p_s=4.0)
        expected = 2.0 * (q[0] * f[0] * code.matrices[0] + q[1] * f[1] * code.matrices[1])
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_destination_noise_is_white_with_predicted_variance(self):
        # v = sum_i q_i g_i A_i n_i + w; unitarity of the A_i makes the
        # covariance N0 (1 + sum p_i |g_i|^2) I with zero pseudo-covariance
        code = generate_codebook(2, seed=2)
        cfg = _cfg()
        chan = sample_channels(cfg, 9)
        caps = amplifier_caps(cfg, chan.h)
        alloc = PowerAllocation(p=caps, caps=caps)
        noiseless = transmit_frame(code, chan, alloc, cfg.p_s, 0.0, 1,
                                   np.random.default_rng(0))
        rng = np.random.default_rng(3)
        n = 50_000
        v = np.empty((n, 2), dtype=np.complex128)
        for i in range(n):
            v[i] = transmit_frame(code, chan, alloc, cfg.p_s, cfg.N0, 1, rng) - noiseless
        sigma2 = overall_noise_variance(alloc.p, chan.g, cfg.N0)
        cov = v.conj().T @ v / n
        pseudo = v.T @ v / n
        np.testing.assert_allclose(np.diagonal(cov).real, sigma2, rtol=0.03)
        assert abs(cov[0, 1]) / sigma2 < 0.03
        assert np.max(np.abs(pseudo)) / sigma2 < 0.03

    def test_codeword_index_validated(self):
        code = generate_codebook(2, seed=0)
        cfg = _cfg()
        chan = sample_channels(cfg, 1)
        caps = amplifier_caps(cfg, chan.h)
        alloc = PowerAllocation(p=caps, caps=caps)
        with pytest.raises(ValueError, match="index"):
            transmit_frame(code, chan, alloc, cfg.p_s, cfg.N0, 4, np.random.default_rng(0))

    def test_size_mismatch_rejected(self):
        code = generate_codebook(3, seed=0)
        chan = ChannelRealization(h=np.ones(2, dtype=complex), g=np.ones(2, dtype=complex))
        alloc = PowerAllocation(p=np.ones(2), caps=np.ones(2))
        with pytest.raises(ValueError, match="match"):
            transmit_frame(code, chan, alloc, 1.0, 1.0, 0, np.random.default_rng(0))

    def _frame(self):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3, 3)
        chan = sample_channels(cfg, 4)
        caps = amplifier_caps(cfg, chan.h)
        p = caps.copy()
        p[0] = 0.0  # one silent relay
        return code, cfg, chan, PowerAllocation(p=p, caps=caps)

    def test_one_frame_draws_the_scalar_stream(self):
        # relay noise (M, T) real then imaginary, then w (T) real then imaginary
        code, cfg, chan, alloc = self._frame()
        m, t, k = code.M, code.T, 5
        rng = np.random.default_rng(11)
        r = transmit_frame(code, chan, alloc, cfg.p_s, cfg.N0, k, rng)
        ref = np.random.default_rng(11)
        scale = math.sqrt(cfg.N0 / 2.0)
        relay_noise = scale * (ref.standard_normal((m, t)) + 1j * ref.standard_normal((m, t)))
        w = scale * (ref.standard_normal(t) + 1j * ref.standard_normal(t))
        q = np.sqrt(alloc.p)
        expected = (effective_code_matrix(code, chan.f, q, cfg.p_s) @ codeword_signs(t)[k]
                    + np.einsum("m,mtj,mj->t", q * chan.g, code.matrices, relay_noise) + w)
        np.testing.assert_allclose(r, expected, rtol=1e-13, atol=1e-13)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_noiseless_frame_draws_nothing(self):
        code, cfg, chan, alloc = self._frame()
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        r = transmit_frame(code, chan, alloc, cfg.p_s, 0.0, 6, rng)
        assert rng.bit_generator.state == before
        c = effective_code_matrix(code, chan.f, np.sqrt(alloc.p), cfg.p_s)
        np.testing.assert_allclose(r, c @ codeword_signs(code.T)[6], rtol=1e-13, atol=1e-13)

    def test_negative_noise_power_rejected(self):
        code, cfg, chan, alloc = self._frame()
        with pytest.raises(ValueError, match="N0 must be finite and non-negative"):
            transmit_frame(code, chan, alloc, cfg.p_s, -1.0, 0, np.random.default_rng(0))

    def test_nonfinite_source_power_rejected(self):
        code, cfg, chan, alloc = self._frame()
        with pytest.raises(ValueError, match="p_s must be finite"):
            transmit_frame(code, chan, alloc, np.nan, cfg.N0, 0, np.random.default_rng(0))

    def test_decode_rejects_nonfinite_source_power(self):
        code, cfg, chan, alloc = self._frame()
        with pytest.raises(ValueError, match="p_s must be finite"):
            ml_decode(code, chan, alloc, np.inf, np.ones(3, dtype=complex))

    def test_nonfinite_receive_rejected(self):
        code, cfg, chan, alloc = self._frame()
        r = np.array([1.0, np.nan, 0.5j])
        with pytest.raises(ValueError, match="r entries must be finite"):
            ml_decode(code, chan, alloc, cfg.p_s, r)


def _direct_distance_tallies(cfg, scheme, code, p_s, p_r, n, rng):
    """_relay_batch_tallies with every candidate's receive built and measured directly."""
    h, g = sample_channel_batch(cfg, n, rng)
    h2 = np.abs(h) ** 2
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, g, _batch_caps(cfg, h2, p_s, p_r)))
    k = rng.integers(0, code.n_codewords, size=n)
    c = math.sqrt(p_s) * np.einsum("bm,mtj->btj", q * h * g, code.matrices)
    cands = np.einsum("btj,kj->bkt", c, codeword_signs(code.T))
    scale = math.sqrt(cfg.N0 / 2.0)
    relay_noise = scale * (rng.standard_normal((n, cfg.M, code.T))
                           + 1j * rng.standard_normal((n, cfg.M, code.T)))
    w = scale * (rng.standard_normal((n, code.T)) + 1j * rng.standard_normal((n, code.T)))
    r = cands[np.arange(n), k] + np.einsum("bm,mtj,bmj->bt", q * g, code.matrices, relay_noise) + w
    k_hat = np.argmin(np.sum(np.abs(cands - r[:, None, :]) ** 2, axis=2), axis=1)
    bits = sum(bin(int(v)).count("1") for v in k ^ k_hat)
    return int(np.count_nonzero(k_hat != k)), bits


class TestBatchDecoder:
    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           snr_db=st.floats(-20.0, 40.0), frames=st.integers(1, 6))
    def test_matches_scalar_ml_decode(self, t, seed, snr_db, frames):
        # random channels, allocations (some relays silent) and noisy receives
        code = generate_codebook(t, seed=seed % 7)
        rng = np.random.default_rng(seed)
        p_s = 10.0 ** (snr_db / 10.0)
        chans, allocs, c, r = [], [], [], []
        for _ in range(frames):
            h = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / math.sqrt(2.0)
            g = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / math.sqrt(2.0)
            caps = rng.uniform(0.1, 2.0, t)
            p = np.where(rng.random(t) < 0.25, 0.0, rng.uniform(0.0, 1.0, t) * caps)
            chan = ChannelRealization(h=h, g=g)
            alloc = PowerAllocation(p=p, caps=caps)
            k = int(rng.integers(0, 2**t))
            chans.append(chan)
            allocs.append(alloc)
            c.append(effective_code_matrix(code, chan.f, np.sqrt(p), p_s))
            r.append(transmit_frame(code, chan, alloc, p_s, 1.0, k, rng))
        got = _ml_decode_batch(np.stack(c), np.stack(r), _DecodeTables.for_block(t), _BatchWorkspace(frames, t, t))
        want = [ml_decode(code, chan, alloc, p_s, rx) for chan, alloc, rx in zip(chans, allocs, r)]
        assert got.tolist() == want

    def test_noiseless_receives_decode_exactly(self):
        t = 5
        code = generate_codebook(t, seed=1)
        cfg = _cfg(t, t)
        chan = sample_channels(cfg, 2)
        caps = amplifier_caps(cfg, chan.h)
        c = effective_code_matrix(code, chan.f, np.sqrt(caps), cfg.p_s)
        tables = _DecodeTables.for_block(t)
        r = tables.signs @ c.T
        cs = np.broadcast_to(c, (2**t, t, t))
        np.testing.assert_array_equal(_ml_decode_batch(cs, r, tables, _BatchWorkspace(2**t, t, t)), np.arange(2**t))

    def test_silent_network_ties_to_index_zero(self):
        tables = _DecodeTables.for_block(3)
        c = np.zeros((2, 3, 3), dtype=complex)
        r = np.array([[1.0, -2.0, 0.5j], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(_ml_decode_batch(c, r, tables, _BatchWorkspace(2, 3, 3)), [0, 0])

    @pytest.mark.parametrize("m", [2, 4, 8, 12])
    @pytest.mark.parametrize("scheme,mode", [
        (Scheme.ONOFF, "perfect"), (Scheme.MAX_POWER, "perfect"), (Scheme.WATERFILL, "partial"),
        (Scheme.WATERFILL, "statistical"),
    ])
    def test_relay_tallies_match_direct_distances(self, m, scheme, mode):
        n = min(200, _batch_size(m))  # T = 12 runs 64-frame batches
        if mode == "statistical":
            cfg = _stat_cfg(m, m, p_s=3.0, p_r=3.0, gamma_g=np.linspace(0.5, 2.0, m))
        else:
            cfg = _cfg(m, m, csit_mode=mode, p_s=3.0, p_r=3.0)
        code = generate_codebook(m, seed=m)
        tables = _DecodeTables.for_block(m)
        for bi in range(3):
            rng_got = derive_rng(9, STREAM_FRAMES, 0, bi)
            rng_want = derive_rng(9, STREAM_FRAMES, 0, bi)
            ws = _BatchWorkspace(n, m, m)
            got = _relay_batch_tallies(cfg, scheme, code, tables, 3.0, 3.0, n, rng_got, ws)
            want = _direct_distance_tallies(cfg, scheme, code, 3.0, 3.0, n, rng_want)
            assert got == want
            assert got[0] > 0
            assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _fresh_transmit(code, gains, noise_gains, s, N0, rng):
    """The transmit with every array allocated afresh, written as plain expressions."""
    n = gains.shape[0]
    m, t, _ = code.matrices.shape
    c = (gains @ code.matrices.reshape(m, t * t)).reshape(n, t, t)
    r = np.matmul(c, s[:, :, None])[:, :, 0]
    if N0 > 0.0:
        scale = math.sqrt(N0 / 2.0)
        relay_noise = scale * (rng.standard_normal((n, m, t)) + 1j * rng.standard_normal((n, m, t)))
        w = scale * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
        relay_noise *= noise_gains[:, :, None]
        r += relay_noise.reshape(n, m * t) @ code.matrices.transpose(0, 2, 1).reshape(m * t, t)
        r += w
    return c, r


def _fresh_batch(cfg, scheme, code, tables, p_s, p_r, n, rng):
    """_relay_batch_tallies with every array allocated afresh; returns (C, r, tallies)."""
    h, g = sample_channel_batch(cfg, n, rng)
    h2 = np.abs(h) ** 2
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, g, _batch_caps(cfg, h2, p_s, p_r)))
    k = rng.integers(0, code.n_codewords, size=n)
    c, r = _fresh_transmit(code, math.sqrt(p_s) * q * h * g, q * g, tables.signs[k], cfg.N0, rng)
    k_hat = _ml_decode_batch(c, r, tables, _BatchWorkspace(n, cfg.M, code.T))
    return c, r, (int(np.count_nonzero(k_hat != k)), int(tables.popcounts[k ^ k_hat].sum()))


class TestBatchWorkspace:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme,mode", [
        (Scheme.ONOFF, "perfect"), (Scheme.MAX_POWER, "perfect"), (Scheme.WATERFILL, "partial"),
        (Scheme.WATERFILL, "statistical"),
    ])
    def test_reused_workspace_matches_fresh_allocation(self, m, scheme, mode):
        cfg = _cfg(m, m, csit_mode=mode, p_s=3.0, p_r=3.0, gamma_g=np.linspace(0.5, 2.0, m))
        code = generate_codebook(m, seed=m)
        tables = _DecodeTables.for_block(m)
        ws = _BatchWorkspace(700, m, m)
        # a full batch, then a short one over the first batch's leftovers
        for bi, n in enumerate([700, 301]):
            rng_got = derive_rng(4, STREAM_FRAMES, 0, bi)
            rng_want = derive_rng(4, STREAM_FRAMES, 0, bi)
            got = _relay_batch_tallies(cfg, scheme, code, tables, 3.0, 3.0, n, rng_got, ws)
            c, r, want = _fresh_batch(cfg, scheme, code, tables, 3.0, 3.0, n, rng_want)
            assert got == want
            assert got[0] > 0
            assert ws.c[:n].tobytes() == c.tobytes() and ws.r[:n].tobytes() == r.tobytes()
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_one_frame_matches_fresh_allocation(self, n0):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3, 3)
        chan = sample_channels(cfg, 4)
        caps = amplifier_caps(cfg, chan.h)
        alloc = PowerAllocation(p=caps * [0.0, 0.5, 1.0], caps=caps)
        q = np.sqrt(alloc.p)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        r = transmit_frame(code, chan, alloc, cfg.p_s, n0, 6, rng)
        _, want = _fresh_transmit(code, (math.sqrt(cfg.p_s) * q * chan.f)[None], (q * chan.g)[None],
                                  codeword_signs(3)[6][None], n0, ref)
        assert r.tobytes() == want[0].tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the thread pools run_monte_carlo starts, on a host of 4 usable cores."""
    sizes = []
    real_pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda n: sizes.append(n) or real_pool(n))
    monkeypatch.setattr(sim, "_usable_cores", lambda: 4)
    return sizes


class TestBatchPool:
    @pytest.mark.parametrize("t,grid,frames,workers", [
        (1, [5.0], 9000, 3),        # 3 batches, one worker each
        (2, [5.0, 10.0], 9000, 4),  # 6 batches over 4 cores
        (2, [5.0], 1000, None),     # one batch: nothing to share
        (3, [5.0, 10.0], 9000, None),  # BLAS threads the products itself
        (12, [5.0], 1000, None),
    ])
    def test_only_batches_at_small_block_lengths_share_the_cores(self, pool_sizes, t, grid, frames, workers):
        for scheme in (Scheme.MAX_POWER, Scheme.DIRECT_LINK):
            run_monte_carlo(_cfg(t, t), scheme, grid, frames, seed=0)
        assert pool_sizes == ([] if workers is None else [workers, workers])


class TestSchemeLabel:
    def test_waterfill_carries_mode(self):
        from relaypower.model import CsitMode
        assert scheme_label(Scheme.WATERFILL, CsitMode.PARTIAL) == "waterfill_partial"
        assert scheme_label(Scheme.WATERFILL, CsitMode.STATISTICAL) == "waterfill_statistical"
        assert scheme_label(Scheme.ONOFF, CsitMode.PERFECT) == "onoff"


class TestSimResult:
    def test_rates_and_csv(self):
        res = SimResult(scheme="onoff", seed=1, block_bits=2,
                        snr_db=np.array([10.0]), frames=np.array([1000]),
                        block_errors=np.array([10]), bit_errors=np.array([12]),
                        elapsed_s=0.5)
        assert res.bler[0] == pytest.approx(0.01)
        assert res.ber[0] == pytest.approx(0.006)
        assert res.stderr_bler[0] == pytest.approx(math.sqrt(0.01 * 0.99 / 1000))
        assert res.stderr_ber[0] == pytest.approx(math.sqrt(0.006 * 0.994 / 2000))
        row = res.to_csv_rows()[0]
        assert row.startswith("onoff,10,1000,10,12,0.01")
        assert SimResult.CSV_HEADER.count(",") == row.count(",")


class TestRunMonteCarlo:
    def test_validation(self):
        cfg = _cfg()
        with pytest.raises(ValueError, match="frames"):
            run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 999, seed=0)
        with pytest.raises(ValueError, match="shards"):
            run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 1000, seed=0, shards=0)
        with pytest.raises(ValueError, match="non-empty"):
            run_monte_carlo(cfg, Scheme.ONOFF, [], 1000, seed=0)

    def test_scheme_mode_compat(self):
        with pytest.raises(ValueError, match="csit_mode"):
            run_monte_carlo(_stat_cfg(), Scheme.ONOFF, [10.0], 1000, seed=0)
        with pytest.raises(ValueError, match="csit_mode"):
            run_monte_carlo(_cfg(), Scheme.WATERFILL, [10.0], 1000, seed=0)

    def test_block_length_must_match_relay_count(self):
        cfg = _cfg(m=3, t=2)
        with pytest.raises(ValueError, match="T == M"):
            run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 1000, seed=0)
        # the direct link has no dispersion matrices to constrain
        run_monte_carlo(cfg, Scheme.DIRECT_LINK, [10.0], 1000, seed=0)

    def test_deterministic_and_shard_invariant(self):
        cfg = _cfg()
        runs = [
            run_monte_carlo(cfg, Scheme.ONOFF, [5.0, 10.0], 3000, seed=7, shards=s)
            for s in (1, 1, 3)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].block_errors, other.block_errors)
            np.testing.assert_array_equal(runs[0].bit_errors, other.bit_errors)

    def test_seed_changes_tallies(self):
        cfg = _cfg()
        a = run_monte_carlo(cfg, Scheme.ONOFF, [5.0], 3000, seed=0)
        b = run_monte_carlo(cfg, Scheme.ONOFF, [5.0], 3000, seed=1)
        assert a.block_errors[0] != b.block_errors[0]

    def test_tally_bounds(self):
        cfg = _cfg()
        res = run_monte_carlo(cfg, Scheme.MAX_POWER, [0.0, 5.0], 4000, seed=2)
        assert np.all(res.block_errors <= res.bit_errors)
        assert np.all(res.bit_errors <= cfg.T * res.block_errors)
        assert np.all(res.frames == 4000)

    def test_deep_noise_floor_decodes_at_chance(self):
        cfg = _cfg()
        res = run_monte_carlo(cfg, Scheme.ONOFF, [-30.0], 2000, seed=3)
        assert 0.40 < res.ber[0] < 0.55
        assert res.bler[0] > 0.6

    def test_high_snr_is_nearly_error_free(self):
        cfg = _cfg()
        res = run_monte_carlo(cfg, Scheme.ONOFF, [40.0], 5000, seed=4)
        assert res.bler[0] <= 0.005

    def test_bler_decreases_with_snr(self):
        cfg = _cfg()
        res = run_monte_carlo(cfg, Scheme.ONOFF, [0.0, 5.0, 10.0, 15.0], 10_000, seed=5)
        assert np.all(np.diff(res.bler) < 0.0)

    def test_onoff_beats_max_power(self):
        # same seed pairs the channel and noise draws across the schemes
        cfg = _cfg()
        on = run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 20_000, seed=6)
        mx = run_monte_carlo(cfg, Scheme.MAX_POWER, [10.0], 20_000, seed=6)
        assert on.bler[0] + 2 * on.stderr_bler[0] < mx.bler[0] - 2 * mx.stderr_bler[0]

    def test_direct_link_matches_rayleigh_bpsk_theory(self):
        # coherent BPSK over unit-variance Rayleigh at average SNR gbar
        # has BER (1 - sqrt(gbar/(1+gbar)))/2; network sweep puts the
        # full budget P = N0 * 10^(snr/10) on the source
        cfg = _cfg(m=1, t=2)
        res = run_monte_carlo(cfg, Scheme.DIRECT_LINK, [10.0], 100_000, seed=8,
                              network_power_sweep=True)
        gbar = 10.0
        theory = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
        assert res.ber[0] == pytest.approx(theory, abs=0.003)


@functools.lru_cache(maxsize=None)
def _unsharded(t, frames, scheme, mode):
    return run_monte_carlo(_cfg(t, t, csit_mode=mode), scheme, [8.0], frames, seed=11)


class TestShardInvariance:
    # T = 8 runs 3 batches of 1024 frames, so most counts leave shards
    # empty; T = 12 runs 16 batches of 64 frames
    @pytest.mark.parametrize("t,frames", [(8, 3000), (12, 1000)])
    @pytest.mark.parametrize("scheme,mode", [(Scheme.ONOFF, "perfect"), (Scheme.WATERFILL, "partial")])
    @settings(max_examples=4)
    @given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    def test_any_shard_count_gives_identical_tallies(self, t, frames, scheme, mode, counts):
        ref = _unsharded(t, frames, scheme, mode)
        assert ref.block_errors[0] > 0
        for shards in counts:
            res = run_monte_carlo(_cfg(t, t, csit_mode=mode), scheme, [8.0], frames,
                                  seed=11, shards=shards)
            np.testing.assert_array_equal(res.block_errors, ref.block_errors)
            np.testing.assert_array_equal(res.bit_errors, ref.bit_errors)


class TestStatisticalAllocation:
    def test_same_bits_as_partial_csit_on_a_near_tie(self):
        # two candidate levels of these caps tie within J rounding; partial
        # and statistical CSIT run one kernel, so they pick the same one
        gamma_h = np.array([2.0, 1.0, 2.0, 1.0, 1.0])
        gamma_g = np.array([3.0, 3.0, 2.0, 1.0, 3.0])
        p = 5547.996686297584
        stat = _stat_cfg(5, 5, p_s=p, p_r=p, gamma_h=gamma_h, gamma_g=gamma_g)
        partial = _cfg(5, 5, csit_mode="partial", p_s=p, p_r=p, gamma_h=gamma_h, gamma_g=gamma_g)
        # partial CSIT's short-term caps at |h_i|^2 = gamma_hi are the long-term caps
        h2 = np.broadcast_to(gamma_h, (3, 5))
        caps, caps_partial = _batch_caps(stat, h2, p, p), _batch_caps(partial, h2, p, p)
        np.testing.assert_array_equal(caps, caps_partial)
        p_stat = _allocate_batch(stat, Scheme.WATERFILL, h2, None, caps)
        p_partial = _allocate_batch(partial, Scheme.WATERFILL, h2, None, caps_partial)
        assert p_stat.shape == (3, 5)
        np.testing.assert_array_equal(p_stat, p_partial)


class TestEffectiveRelayCount:
    def test_domain_errors(self):
        cfg = _cfg(4, 4)
        with pytest.raises(ValueError, match="direct"):
            effective_relay_count(cfg, Scheme.DIRECT_LINK, [0.5], 10, seed=0)
        with pytest.raises(ValueError, match="inside"):
            effective_relay_count(cfg, Scheme.ONOFF, [1.0], 10, seed=0)
        with pytest.raises(ValueError, match="trials"):
            effective_relay_count(cfg, Scheme.ONOFF, [0.5], 0, seed=0)
        # 1/r^2 divides by zero, overflows, or leaves LINEAR_RANGE
        for r in (1.0e-200, 1.0e-160, 1.0e-30):
            with pytest.raises(ValueError, match=r"variance outside \[1e-50, 1e\+50\]"):
                effective_relay_count(cfg, Scheme.ONOFF, [r, 0.5], 10, seed=0)

    def test_max_power_scores_m_everywhere(self):
        cfg = _cfg(4, 4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.MAX_POWER, [0.1, 0.5, 0.9], 500, seed=0)
        np.testing.assert_allclose(counts, 4.0, rtol=1e-12)

    def test_statistical_waterfill_is_symmetric_and_full(self, monkeypatch):
        # equal variances put every cap at the same height, so the water
        # covers them all and the count is exactly M, channel-free
        monkeypatch.setattr("relaypower.sim.sample_channel_batch", None)
        cfg = _stat_cfg(4, 4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.WATERFILL, [0.3, 0.7], 50, seed=0)
        np.testing.assert_allclose(counts, 4.0, rtol=1e-12)

    def test_onoff_limits(self):
        cfg = _cfg(4, 4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.ONOFF, [0.05, 0.95], 3000, seed=1)
        assert counts[0] >= 0.95 * 4
        assert counts[1] <= 1.2

    def test_partial_waterfill_near_source(self):
        cfg = _cfg(4, 4, p_s=6.3, p_r=6.3, csit_mode="partial")
        counts = effective_relay_count(cfg, Scheme.WATERFILL, [0.05], 2000, seed=2)
        assert counts[0] >= 0.95 * 4


class TestExtremePowers:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("network_power_sweep", [False, True])
    @pytest.mark.parametrize("scheme,mode", [(Scheme.ONOFF, "perfect"),
                                             (Scheme.WATERFILL, "partial"),
                                             (Scheme.WATERFILL, "statistical"),
                                             (Scheme.MAX_POWER, "perfect")])
    def test_sweeps_to_300_db_stay_finite(self, scheme, mode, network_power_sweep):
        cfg = _stat_cfg(4, 4) if mode == "statistical" else _cfg(4, 4, csit_mode=mode)
        res = run_monte_carlo(cfg, scheme, [-300.0, -100.0, 0.0, 100.0, 300.0], 1000, seed=0,
                              network_power_sweep=network_power_sweep)
        assert np.all(np.isfinite(res.bler)) and np.all(np.isfinite(res.ber))
        assert not any("nan" in row for row in res.to_csv_rows())
