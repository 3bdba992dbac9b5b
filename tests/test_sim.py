"""Monte Carlo chain: physical model, decoding, tallies, sharding."""

import concurrent.futures
import dataclasses
import functools
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DrawsAlive, JobSpy, PoolSizes

from relaypower import model, sim
from relaypower.codebook import codeword_signs, generate_codebook
from relaypower.experiments import load_spec, run_experiment
from relaypower.model import (
    ChannelRealization,
    NetworkConfig,
    PowerAllocation,
    Workspace,
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


def _cfg(m=2, **kw):
    base = dict(M=m, p_s=10.0, p_r=10.0, N0=1.0,
                gamma_h=np.ones(m), gamma_g=np.ones(m))
    base.update(kw)
    return NetworkConfig(**base)


def _stat_cfg(m=2, **kw):
    return _cfg(m, csit_mode="statistical", **kw)


class TestPhysicalChain:
    def test_noiseless_receive_and_decode_are_exact(self):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3)
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

    @pytest.mark.parametrize("index,message", [
        (4, r"codeword index out of range \[0, 4\)"),
        (-1, "index must be an integer >= 0, got -1"),
        # True passes 0 <= index < 4 and 1.0 is no array index: each is rejected by name
        (True, "index must be an integer >= 0, got True"),
        (1.0, "index must be an integer >= 0, got 1.0"),
    ])
    def test_codeword_index_validated(self, index, message):
        code = generate_codebook(2, seed=0)
        cfg = _cfg()
        chan = sample_channels(cfg, 1)
        caps = amplifier_caps(cfg, chan.h)
        alloc = PowerAllocation(p=caps, caps=caps)
        with pytest.raises(ValueError, match=message):
            transmit_frame(code, chan, alloc, cfg.p_s, cfg.N0, index, np.random.default_rng(0))

    @pytest.mark.parametrize("decode", [False, True])
    @pytest.mark.parametrize("chan_m,alloc_m", [(2, 2), (2, 3), (3, 2)])
    def test_size_mismatch_rejected(self, decode, chan_m, alloc_m):
        code = generate_codebook(3, seed=0)
        chan = ChannelRealization(h=np.ones(chan_m, dtype=complex), g=np.ones(chan_m, dtype=complex))
        alloc = PowerAllocation(p=np.ones(alloc_m), caps=np.ones(alloc_m))
        message = f"channel and allocation sizes {chan_m} and {alloc_m} must match the codebook's 3"
        with pytest.raises(ValueError, match=message):
            if decode:
                ml_decode(code, chan, alloc, 1.0, np.ones(3, dtype=complex))
            else:
                transmit_frame(code, chan, alloc, 1.0, 1.0, 0, np.random.default_rng(0))

    def _frame(self):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3)
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
    """One scheme's _relay_batch_tallies with every candidate's receive built and measured directly."""
    h, g = sample_channel_batch(cfg, n, rng)
    h2 = np.abs(h) ** 2
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, np.abs(g) ** 2, _batch_caps(cfg, h2, p_s, p_r)))
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
        got = _ml_decode_batch(np.stack(c), np.stack(r), _DecodeTables.for_block(t), Workspace())
        want = [ml_decode(code, chan, alloc, p_s, rx) for chan, alloc, rx in zip(chans, allocs, r)]
        assert got.tolist() == want

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_noiseless_receives_decode_exactly(self, t):
        code = generate_codebook(t, seed=1)
        cfg = _cfg(t)
        chan = sample_channels(cfg, 2)
        caps = amplifier_caps(cfg, chan.h)
        c = effective_code_matrix(code, chan.f, np.sqrt(caps), cfg.p_s)
        tables = _DecodeTables.for_block(t)
        r = tables.signs @ c.T
        cs = np.broadcast_to(c, (2**t, t, t))
        np.testing.assert_array_equal(_ml_decode_batch(cs, r, tables, Workspace()), np.arange(2**t))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_silent_network_ties_to_index_zero(self, t):
        tables = _DecodeTables.for_block(t)
        c = np.zeros((2, t, t), dtype=complex)
        r = np.array([[1.0, -2.0, 0.5j][:t], [0.0] * t])
        np.testing.assert_array_equal(_ml_decode_batch(c, r, tables, Workspace()), [0, 0])

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-20.0, 60.0))
    def test_column_statistics_decide_as_the_stacked_product(self, t, seed, snr_db):
        # both sides of _COLUMN_WIDTH: at T <= 2 the column form against the
        # batched product, at T = 3 the batched product against the column form
        rng = np.random.default_rng(seed)
        n = 500
        c = (rng.standard_normal((n, t, t)) + 1j * rng.standard_normal((n, t, t))) * 10.0 ** (snr_db / 20.0)
        c[rng.random(n) < 0.1] = 0.0  # silent networks tie every candidate
        tables = _DecodeTables.for_block(t)
        k = rng.integers(0, 2**t, size=n)
        r = np.einsum("btj,bj->bt", c, tables.signs[k])
        r += rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
        got = _ml_decode_batch(c, r, tables, Workspace()).copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_COLUMN_WIDTH", 3 if t == 3 else 0)
            want = _ml_decode_batch(c, r, tables, Workspace())
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 12])
    @pytest.mark.parametrize("scheme,mode", [
        (Scheme.ONOFF, "perfect"), (Scheme.MAX_POWER, "perfect"), (Scheme.WATERFILL, "partial"),
        (Scheme.WATERFILL, "statistical"),
    ])
    def test_relay_tallies_match_direct_distances(self, m, scheme, mode):
        n = min(200, _batch_size(m))  # T = 12 runs 64-frame batches
        if mode == "statistical":
            cfg = _stat_cfg(m, p_s=3.0, p_r=3.0, gamma_g=np.linspace(0.5, 2.0, m))
        else:
            cfg = _cfg(m, csit_mode=mode, p_s=3.0, p_r=3.0)
        code = generate_codebook(m, seed=m)
        tables = _DecodeTables.for_block(m)
        for bi in range(3):
            rng_got = derive_rng(9, STREAM_FRAMES, 0, bi)
            rng_want = derive_rng(9, STREAM_FRAMES, 0, bi)
            ws = Workspace()
            [got] = _relay_batch_tallies([(cfg, scheme)], code, tables, 3.0, 3.0, [(n, rng_got)], ws)
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
    """One scheme's _relay_batch_tallies with every array allocated afresh; returns (C, r, tallies)."""
    h, g = sample_channel_batch(cfg, n, rng)
    h2 = np.abs(h) ** 2
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, np.abs(g) ** 2, _batch_caps(cfg, h2, p_s, p_r)))
    k = rng.integers(0, code.n_codewords, size=n)
    c, r = _fresh_transmit(code, math.sqrt(p_s) * q * h * g, q * g, tables.signs[k], cfg.N0, rng)
    k_hat = _ml_decode_batch(c, r, tables, Workspace())
    return c, r, (int(np.count_nonzero(k_hat != k)), int(tables.popcounts[k ^ k_hat].sum()))


class TestBatchWorkspace:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme,mode", [
        (Scheme.ONOFF, "perfect"), (Scheme.MAX_POWER, "perfect"), (Scheme.WATERFILL, "partial"),
        (Scheme.WATERFILL, "statistical"),
    ])
    def test_reused_workspace_matches_fresh_allocation(self, m, scheme, mode):
        cfg = _cfg(m, csit_mode=mode, p_s=3.0, p_r=3.0, gamma_g=np.linspace(0.5, 2.0, m))
        code = generate_codebook(m, seed=m)
        tables = _DecodeTables.for_block(m)
        ws = Workspace()
        # a full batch, then a short one over the first batch's leftovers
        for bi, n in enumerate([700, 301]):
            rng_got = derive_rng(4, STREAM_FRAMES, 0, bi)
            rng_want = derive_rng(4, STREAM_FRAMES, 0, bi)
            [got] = _relay_batch_tallies([(cfg, scheme)], code, tables, 3.0, 3.0, [(n, rng_got)], ws)
            c, r, want = _fresh_batch(cfg, scheme, code, tables, 3.0, 3.0, n, rng_want)
            assert got == want
            assert got[0] > 0
            assert ws["c"][: c.size].tobytes() == c.tobytes() and ws["r"][: r.size].tobytes() == r.tobytes()
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_one_frame_matches_fresh_allocation(self, n0):
        code = generate_codebook(3, seed=0)
        cfg = _cfg(3)
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

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_column_transmit_keeps_the_stacked_bits(self, t, n0):
        # C s column by column up to T = 2 and by the stacked product at T = 3
        # and 4, silent relays and silent networks included
        code = generate_codebook(t, seed=t)
        rng = np.random.default_rng(t)
        n = 300
        gains = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) * (rng.random((n, t)) < 0.8)
        gains[:20] = 0.0
        s = codeword_signs(t)[rng.integers(0, 2**t, size=n)]
        noise = sim._draw_noise([(n, np.random.default_rng(0))], t, t, n0, Workspace())
        c, r = sim._transmit_batch(code, gains, gains, s, noise, Workspace())
        want_c, want_r = _fresh_transmit(code, gains, gains, s, n0, np.random.default_rng(0))
        assert c.tobytes() == want_c.tobytes() and r.tobytes() == want_r.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 12])
    def test_first_batch_maps_each_array_once(self, m):
        mapped = []

        class Counting(Workspace):
            def take(self, name, shape, dtype=np.float64):
                before = self.get(name)
                view = super().take(name, shape, dtype)
                if self[name] is not before:
                    mapped.append(name)
                return view

        code = generate_codebook(m, seed=m)
        _relay_batch_tallies(_relay_runs(m), code, _DecodeTables.for_block(m), 3.0, 3.0,
                             [(_batch_size(m), derive_rng(4, STREAM_FRAMES, 0, 0))], Counting())
        assert len(mapped) == len(set(mapped))


def _complex_direct_tallies(t, power, N0, n, rng):
    """The direct link's tallies from complex c, w and r: the reference for sim's real form."""
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    s = 1.0 - 2.0 * rng.integers(0, 2, size=(n, t))
    scale = math.sqrt(N0 / 2.0)
    w = scale * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
    r = math.sqrt(power) * c[:, None] * s + w
    detected = np.where((np.conj(c)[:, None] * r).real >= 0.0, 1.0, -1.0)
    errs = detected != s
    return int(np.count_nonzero(errs.any(axis=1))), int(np.count_nonzero(errs))


class TestDirectLink:
    @pytest.mark.parametrize("t", [1, 2, 3, 12])
    @pytest.mark.parametrize("power", [sim.LINEAR_RANGE[0], 1.0, 30.0, sim.LINEAR_RANGE[1]])
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_real_form_tallies_as_the_complex_one(self, t, power, n0):
        for bi in range(3):
            rng_got = derive_rng(5, STREAM_FRAMES, t, bi)
            rng_want = derive_rng(5, STREAM_FRAMES, t, bi)
            got = sim._direct_batch_tallies(t, power, n0, [(2000, rng_got)])
            assert got == _complex_direct_tallies(t, power, n0, 2000, rng_want)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_a_zero_statistic_reads_as_bit_zero(self):
        # a zero coefficient and noise make Re(conj(c) r) = 0 in every slot: each sent 1 is missed
        class Zeros:
            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

            def integers(self, low, high, size):
                return np.ones(size, dtype=np.int64)

        assert sim._direct_batch_tallies(3, 1.0, 1.0, [(5, Zeros())]) == (5, 15)
        assert _complex_direct_tallies(3, 1.0, 1.0, 5, Zeros()) == (5, 15)


# the four relay schemes, each under a CSIT mode it allows
RELAY_SCHEMES = [(Scheme.ONOFF, "perfect"), (Scheme.WATERFILL, "partial"), (Scheme.WATERFILL, "statistical"),
                 (Scheme.MAX_POWER, "perfect")]


def _relay_runs(m):
    """(cfg, scheme) of every relay scheme over one network of m relays with unequal gamma_g."""
    return [(_cfg(m, csit_mode=mode, gamma_g=np.linspace(0.5, 2.0, m)), scheme) for scheme, mode in RELAY_SCHEMES]


class TestSharedDraws:
    """The relay schemes of a run score from one draw per (point, batch), each as if it ran alone."""

    @pytest.mark.parametrize("m", [1, 2, 4, 12])
    @pytest.mark.parametrize("network_power_sweep", [False, True])
    def test_every_subset_scores_each_scheme_as_alone(self, m, network_power_sweep):
        runs = _relay_runs(m)
        p_s, p_r, _ = sim._point_powers(runs[0][0], 8.0, network_power_sweep)
        n = min(300, _batch_size(m))
        code = generate_codebook(m, seed=m)
        tables = _DecodeTables.for_block(m)
        alone, states = [], []
        for cfg, scheme in runs:
            rng = derive_rng(5, STREAM_FRAMES, 0, 0)
            alone.append(_fresh_batch(cfg, scheme, code, tables, p_s, p_r, n, rng)[2])
            states.append(rng.bit_generator.state)
        assert all(state == states[0] for state in states)
        assert sum(blk for blk, _ in alone) > 0
        ws = Workspace()
        for mask in range(1, 2 ** len(runs)):
            subset = [i for i in range(len(runs)) if mask >> i & 1]
            # reversed, a scheme that wrote over a shared draw would change a later one's tallies
            for order in (subset, subset[::-1]):
                rng = derive_rng(5, STREAM_FRAMES, 0, 0)
                got = _relay_batch_tallies([runs[i] for i in order], code, tables, p_s, p_r, [(n, rng)], ws)
                assert got == [alone[i] for i in order]
                assert rng.bit_generator.state == states[0]

    @pytest.mark.parametrize("m", [1, 2, 4, 12])
    @pytest.mark.parametrize("network_power_sweep", [False, True])
    def test_run_tallies_match_one_scheme_runs(self, m, network_power_sweep):
        runs = _relay_runs(m)
        kw = dict(network_power_sweep=network_power_sweep)
        alone = [run_monte_carlo(cfg, scheme, [4.0, 10.0], 1000, m, **kw) for cfg, scheme in runs]
        for order in (list(range(len(runs))), list(range(len(runs)))[::-1]):
            together = sim._run_schemes([runs[i] for i in order], [4.0, 10.0], 1000, m, **kw)
            for i, res in zip(order, together):
                assert res.scheme == alone[i].scheme
                np.testing.assert_array_equal(res.block_errors, alone[i].block_errors)
                np.testing.assert_array_equal(res.bit_errors, alone[i].bit_errors)

    @pytest.mark.parametrize("other", [
        _cfg(3), _cfg(2, N0=2.0), _cfg(2, gamma_h=np.full(2, 2.0)), _cfg(2, gamma_g=np.array([1.0, 0.5])),
    ])
    def test_runs_that_cannot_share_draws_are_rejected(self, other):
        with pytest.raises(ValueError, match="must share M, N0, gamma_h and gamma_g"):
            sim._run_schemes([(_cfg(2), Scheme.ONOFF), (other, Scheme.MAX_POWER)], [5.0], 1000, seed=0)

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("network_power_sweep", [False, True])
    def test_direct_link_anywhere_in_the_list_scores_as_alone(self, position, network_power_sweep):
        runs = _relay_runs(2)
        runs.insert(position, (runs[0][0], Scheme.DIRECT_LINK))
        kw = dict(network_power_sweep=network_power_sweep)
        # 9000 frames: two full batches and one of 808 per point
        together = sim._run_schemes(runs, [4.0, 10.0], 9000, 3, **kw)
        for (cfg, scheme), res in zip(runs, together):
            alone = run_monte_carlo(cfg, scheme, [4.0, 10.0], 9000, 3, **kw)
            assert res.scheme == alone.scheme
            np.testing.assert_array_equal(res.block_errors, alone.block_errors)
            np.testing.assert_array_equal(res.bit_errors, alone.bit_errors)
        assert together[position].scheme == "direct_link" and together[position].block_errors.sum() > 0


class TestGroupedJobs:
    """Up to T = _COLUMN_WIDTH a Monte Carlo job scores two batches at once, each drawn from its own stream."""

    # a full batch, then a short last one
    SIZES = (4096, 777)

    @staticmethod
    def _streams():
        return [derive_rng(6, STREAM_FRAMES, 0, bi) for bi in range(2)]

    @pytest.mark.parametrize("t", [1, 2])
    def test_relay_tallies_and_streams_are_those_of_one_batch_calls(self, t):
        runs = _relay_runs(t)
        code = generate_codebook(t, seed=t)
        tables = _DecodeTables.for_block(t)
        ws = Workspace()
        streams, ref = self._streams(), self._streams()
        alone = [_relay_batch_tallies(runs, code, tables, 3.0, 3.0, [(n, rng)], ws) for n, rng in zip(self.SIZES, ref)]
        got = _relay_batch_tallies(runs, code, tables, 3.0, 3.0, list(zip(self.SIZES, streams)), ws)
        assert got == [(a[0] + b[0], a[1] + b[1]) for a, b in zip(*alone)]
        assert all(block > 0 for block, _ in got)
        assert [rng.bit_generator.state for rng in streams] == [rng.bit_generator.state for rng in ref]

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_direct_tallies_and_streams_are_those_of_one_batch_calls(self, t, n0):
        streams, ref = self._streams(), self._streams()
        alone = [sim._direct_batch_tallies(t, 9.0, n0, [(n, rng)]) for n, rng in zip(self.SIZES, ref)]
        got = sim._direct_batch_tallies(t, 9.0, n0, list(zip(self.SIZES, streams)))
        assert got == (alone[0][0] + alone[1][0], alone[0][1] + alone[1][1])
        assert (got[0] > 0) == (n0 > 0.0)  # without noise every bit is read right
        assert [rng.bit_generator.state for rng in streams] == [rng.bit_generator.state for rng in ref]

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_noise_rows_are_those_of_one_batch_draws(self, t, n0):
        streams, ref = self._streams(), self._streams()
        alone = [sim._draw_noise([(n, rng)], t, t, n0, Workspace()) for n, rng in zip(self.SIZES, ref)]
        got = sim._draw_noise(list(zip(self.SIZES, streams)), t, t, n0, Workspace())
        if n0 == 0.0:
            assert got is None and alone == [None, None]
        else:
            for grouped, parts in zip(got, zip(*alone)):
                assert grouped.tobytes() == np.concatenate(parts).tobytes()
        assert [rng.bit_generator.state for rng in streams] == [rng.bit_generator.state for rng in ref]

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_jobs_take_two_consecutive_batches_up_to_the_column_width(self, monkeypatch, t, shards):
        # 5 batches per point, in shard order 0..4 or 0, 3, 1, 4, 2
        frames = 5 * 4096 - 100
        def position(rng):
            return rng.bit_generator.state["state"]["state"]

        fresh = {position(derive_rng(7, STREAM_FRAMES, pi, bi)): (pi, bi) for pi in range(2) for bi in range(5)}
        seen = {"relay": [], "direct": []}

        def spy(kind, real, at):  # at: the position of the batches argument
            def call(*args):
                seen[kind].append([(fresh[position(rng)], n) for n, rng in args[at]])
                return real(*args)
            return call

        monkeypatch.setattr(sim, "_relay_batch_tallies", spy("relay", sim._relay_batch_tallies, 5))
        monkeypatch.setattr(sim, "_direct_batch_tallies", spy("direct", sim._direct_batch_tallies, 3))
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        runs = [(_cfg(t), Scheme.MAX_POWER), (_cfg(t), Scheme.DIRECT_LINK)]
        sim._run_schemes(runs, [5.0, 10.0], frames, seed=7, shards=shards)
        order = [0, 1, 2, 3, 4] if shards == 1 else [0, 3, 1, 4, 2]
        per_job = 2 if t <= model._COLUMN_WIDTH else 1
        want = [[((pi, bi), 4096 if bi < 4 else 3996) for bi in order[lo:lo + per_job]]
                for pi in range(2) for lo in range(0, 5, per_job)]
        assert seen == {"relay": want, "direct": want}

    @pytest.mark.parametrize("m", [1, 2])
    def test_any_shard_count_gives_identical_bytes(self, monkeypatch, tmp_path, capsys, m):
        # 5 batches per point: two jobs of two and one of one at shards 1, 3 and 7, on 2 workers
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        path = tmp_path / "scenario.yaml"
        path.write_text("kind: bler_vs_snr\nschemes: [onoff, waterfill_partial, waterfill_statistical, maxpower, "
                        f"direct]\nsnr_db: [6.0, 12.0]\nframes: {5 * 4096 - 100}\nnetwork:\n  M: {m}\n")
        csvs = []
        for shards in (1, 3, 7):
            paths = run_experiment(load_spec(path), tmp_path / f"out{shards}", shards=shards)
            csvs.append({p.name: p.read_bytes() for p in paths if p.suffix == ".csv"})
        assert len(csvs[0]) == 5 and csvs[1] == csvs[0] and csvs[2] == csvs[0]

    # a two-batch job's arrays at M = T = 2, in bytes per frame: h, g, w, r,
    # noise_gains, gains and the (n, 2, 2) relay noise and c (64 each) as
    # complex; normal (4 floats), h2, g2, caps, alpha, q, product (1 float),
    # stats (3) and metrics (4) as floats
    BYTES_PER_FRAME = 496

    def test_worker_footprint_at_two_relays(self):
        code = generate_codebook(2, seed=2)
        ws = Workspace()
        batches = [(4096, derive_rng(8, STREAM_FRAMES, 0, bi)) for bi in range(2)]
        _relay_batch_tallies(_relay_runs(2), code, _DecodeTables.for_block(2), 3.0, 3.0, batches, ws)
        assert "weighted_noise" not in ws
        assert sum(a.nbytes for a in ws.values()) == self.BYTES_PER_FRAME * 8192


class TestRelayChainOracle:
    """Simulated BLER against error probabilities of the chain written out independently.

    Given the channel, every A_i is unitary, so the destination noise is
    white with variance s2 = N0 (1 + sum_i q_i^2 |g_i|^2) per complex entry
    (Jing & Hassibi, IEEE TWC 2006) and ML decoding is Euclidean: codewords
    k and l have pairwise error probability erfc(||C (s_k - s_l)|| / (2 s)) / 2.
    Codeword k's error probability lies between the largest of its pairwise
    terms and their sum, which coincide at T = 1. Each check allows 4
    standard errors: under the normal approximation a correct chain fails
    one with probability about 6e-5, and the seven checks below (two SNRs at
    M = 1; max power, on-off and statistical waterfilling at M = 2; partial
    waterfilling at M = 4; max power under a network-power sweep) together
    with under 5e-4; the seeds are fixed, so the outcome is too.
    """

    FRAMES = 60_000

    def test_single_relay_matches_the_exact_average(self):
        integrate = pytest.importorskip("scipy.integrate")
        cfg = _cfg(1)
        res = run_monte_carlo(cfg, Scheme.MAX_POWER, [10.0, 20.0], self.FRAMES, seed=21)
        for snr_db, bler, se in zip(res.snr_db, res.bler, res.stderr_bler):
            p = 10.0 ** (snr_db / 10.0)  # p_s = p_r at N0 = 1

            def error(y, x):  # x = |h|^2, y = |g|^2, both Exp(1); max power spends the cap
                cap = p / (p * x + 1.0)
                return 0.5 * math.erfc(math.sqrt(p * cap * x * y / (1.0 + cap * y))) * math.exp(-x - y)

            exact, _ = integrate.dblquad(error, 0.0, math.inf, 0.0, math.inf, epsabs=1e-10)
            assert abs(bler - exact) <= 4.0 * se, (snr_db, bler, exact, se)

    @pytest.mark.parametrize("m,snr_db,schemes,network_power_sweep", [
        pytest.param(2, 14.0, [(Scheme.MAX_POWER, "perfect"), (Scheme.ONOFF, "perfect")], False,
                     id="M2-maxpower-onoff"),
        # long-term caps
        pytest.param(2, 18.0, [(Scheme.WATERFILL, "statistical")], False, id="M2-waterfill-statistical"),
        pytest.param(4, 14.0, [(Scheme.WATERFILL, "partial")], False, id="M4-waterfill-partial"),
        # 20 dB of network power, split evenly over the source and two relays
        pytest.param(2, 20.0, [(Scheme.MAX_POWER, "perfect")], True, id="M2-maxpower-network-power"),
    ])
    def test_relays_lie_between_the_pairwise_bounds(self, m, snr_db, schemes, network_power_sweep):
        special = pytest.importorskip("scipy.special")
        runs = [(_cfg(m, csit_mode=mode), scheme) for scheme, mode in schemes]
        p = 10.0 ** (snr_db / 10.0) / (m + 1 if network_power_sweep else 1)  # p_s = p_r at N0 = 1
        code = generate_codebook(m, seed=22)
        signs = codeword_signs(m)
        diffs = (signs[:, None, :] - signs[None, :, :]).reshape(-1, m)  # row k 2^T + l is s_k - s_l
        patterns, pair_pattern = np.unique(diffs, axis=0, return_inverse=True)  # its 3^T distinct rows
        results = sim._run_schemes(runs, [snr_db], self.FRAMES, seed=22, network_power_sweep=network_power_sweep)
        for (cfg, scheme), res in zip(runs, results):
            # the oracle's own channel draws, allocated by the kernels under test
            h, g = sample_channel_batch(cfg, 100_000, np.random.default_rng(23))
            h2 = np.abs(h) ** 2
            q = np.sqrt(_allocate_batch(cfg, scheme, h2, np.abs(g) ** 2, _batch_caps(cfg, h2, p, p)))
            c = math.sqrt(p) * np.einsum("bm,mtj->btj", q * h * g, code.matrices)
            sigma = np.sqrt(cfg.N0 * (1.0 + np.sum(q**2 * np.abs(g) ** 2, axis=1)))
            lower, upper = np.empty(h.shape[0]), np.empty(h.shape[0])
            for lo in range(0, h.shape[0], 4000):  # (4000, 4^T) pairwise terms at a time
                rows = slice(lo, lo + 4000)
                dist = np.linalg.norm(c[rows] @ patterns.T, axis=1)
                pairwise = 0.5 * special.erfc(dist / (2.0 * sigma[rows, None]))[:, pair_pattern]
                pairwise = pairwise.reshape(-1, 2**m, 2**m)
                pairwise[:, np.arange(2**m), np.arange(2**m)] = 0.0
                lower[rows] = np.mean(np.max(pairwise, axis=2), axis=1)  # codewords equally likely
                upper[rows] = np.mean(np.sum(pairwise, axis=2), axis=1)
            bler, se = res.bler[0], res.stderr_bler[0]
            tol_lower = 4.0 * math.hypot(se, np.std(lower) / math.sqrt(lower.size))
            tol_upper = 4.0 * math.hypot(se, np.std(upper) / math.sqrt(upper.size))
            assert np.mean(lower) - tol_lower <= bler <= np.mean(upper) + tol_upper, \
                (res.scheme, bler, np.mean(lower), np.mean(upper))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the _map_jobs calls that start threads, on a host of 4 usable cores."""
    monkeypatch.setattr(sim, "_usable_cores", lambda: 4)
    return PoolSizes(monkeypatch)


class TestBatchPool:
    @pytest.mark.parametrize("t,grid,frames,workers", [
        (1, [5.0], 9000, 2),        # 3 batches in jobs of 2 and 1, one worker each
        (2, [5.0, 10.0], 9000, 4),  # 4 jobs of 2 and 1 batches over 4 cores
        (2, [5.0], 1000, None),     # one batch: nothing to share
        (3, [5.0, 10.0], 9000, 4),  # 6 batches over 4 cores
        (12, [5.0], 1000, 4),       # 16 batches of 64 frames
    ])
    def test_batches_share_the_cores_at_every_block_length(self, pool_sizes, t, grid, frames, workers):
        for scheme in (Scheme.MAX_POWER, Scheme.DIRECT_LINK):
            run_monte_carlo(_cfg(t), scheme, grid, frames, seed=0)
        assert pool_sizes() == ([] if workers is None else [workers, workers])

    def test_relay_schemes_and_the_direct_link_share_one_pool(self, pool_sizes, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("kind: bler_vs_snr\nschemes: [onoff, maxpower, direct]\nsnr_db: [5.0]\n"
                        "frames: 9000\nnetwork:\n  M: 2\n")
        run_experiment(load_spec(path), tmp_path / "out")
        assert pool_sizes() == [2]  # 3 batches in jobs of 2 and 1, one worker each


class TestBlasPin:
    """_map_jobs holds BLAS at one thread while its jobs run and restores the count it found."""

    @pytest.fixture
    def blas(self, monkeypatch):
        """The counts a fake OpenBLAS at 3 threads was set to, in order; the last is the current one."""
        counts = [3]
        monkeypatch.setattr(sim, "_blas_thread_calls", lambda: (lambda: counts[-1], counts.append))
        return counts

    @pytest.mark.parametrize("cores", [1, 4])
    def test_jobs_run_on_one_blas_thread(self, blas, monkeypatch, cores):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        assert sim._map_jobs(lambda job, ws: blas[-1], list(range(8))) == [1] * 8
        assert blas == [3, 1, 3]

    @pytest.mark.parametrize("cores", [1, 4])
    def test_count_restored_after_a_failing_job(self, blas, monkeypatch, cores):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)

        def fn(job, ws):
            if job == 5:
                raise ValueError("job 5 failed")
            return job

        with pytest.raises(ValueError, match="job 5 failed"):
            sim._map_jobs(fn, list(range(8)))
        assert blas == [3, 1, 3]

    def test_overlapping_calls_share_one_hold(self, blas, monkeypatch):
        # 8 callers on 2 cores, switching threads as often as it can: every
        # job sees 1, and the count the first caller found comes back
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as callers:
                futures = [callers.submit(sim._map_jobs, lambda job, ws: blas[-1], list(range(50)))
                           for _ in range(8)]
                seen = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert seen == [[1] * 50] * 8
        assert blas[-1] == 3

    @pytest.mark.parametrize("t", [3, 8, 12])
    def test_tallies_do_not_depend_on_the_blas_thread_count(self, monkeypatch, t):
        calls = sim._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = calls
        runs = [(_cfg(t), Scheme.ONOFF), (_cfg(t), Scheme.MAX_POWER)]
        frames = max(sim.MIN_FRAMES, 2 * _batch_size(t) + 100)  # a short last batch too

        def tallies():
            return [(res.block_errors.tolist(), res.bit_errors.tolist())
                    for res in sim._run_schemes(runs, [5.0, 10.0], frames, seed=13)]

        count = get()
        pinned = tallies()
        assert get() == count
        monkeypatch.setattr(sim, "_blas_thread_calls", lambda: None)
        set_(2)
        try:
            threaded = tallies()
        finally:
            set_(count)
        assert all(block[0] > 0 for block, _ in pinned)
        assert threaded == pinned


def _in_thread(fn, timeout=30.0):
    """fn()'s result or error, from a daemon thread given timeout seconds to end, so a hang fails the test."""
    out = {}

    def call():
        try:
            out["result"] = fn()
        except Exception as exc:  # raised again in the test's thread
            out["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "_map_jobs did not return"
    if "error" in out:
        raise out["error"]
    return out["result"]


class TestAdmission:
    """_map_jobs's workers take jobs in list order, each once the weights they keep fit the budget, or alone."""

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", 10)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 4)

    def _map(self, weights, fn=lambda job, ws: job):
        spy = JobSpy(sim._map_jobs)
        results = _in_thread(lambda: spy(fn, list(range(len(weights))), weights))
        spy.check(10)
        return results, spy.starts[0]

    def test_jobs_that_fit_run_together(self):
        # each waits for the other: this ends only if both run at once
        together = threading.Barrier(2, timeout=10)
        assert self._map([5, 5], lambda job, ws: (together.wait(), job)[1])[0] == [0, 1]

    def test_jobs_that_do_not_fit_take_turns(self):
        def fn(job, ws):
            time.sleep(0.05)  # room for job 1 to start if it were let in
            return job

        _, starts = self._map([6, 6], fn)
        assert [running for _, running in starts] == [{0}, {1}]

    def test_jobs_start_in_list_order(self):
        # job 2 fits beside job 0, but waits behind job 1, which does not
        overtaken = threading.Event()

        def fn(job, ws):
            if job == 0:
                overtaken.wait(0.2)
            else:
                overtaken.set()
            return job

        _, starts = self._map([6, 6, 1, 1], fn)
        assert starts[0] == (0, {0})
        assert all(0 not in running for k, running in starts[1:])

    @pytest.mark.parametrize("weights", [[3, 20, 3], [20], [20, 20], [0, 11, 0, 11]])
    def test_a_job_over_the_budget_runs_alone(self, weights):
        def fn(job, ws):
            time.sleep(0.02)
            return job

        results, starts = self._map(weights, fn)
        assert results == list(range(len(weights)))
        # beside jobs that hold nothing at most
        assert all(sum(weights[i] for i in running) == weights[k] for k, running in starts if weights[k] > 10)

    def test_no_job_starts_after_a_failure(self):
        # jobs 1-5 each wait for room while job 0 fails; the error reaches the caller, nothing hangs,
        # and none of them starts
        ran = []

        def fn(job, ws):
            ran.append(job)
            if job == 0:
                time.sleep(0.05)
                raise ValueError("job 0 failed")
            return job

        with pytest.raises(ValueError, match="job 0 failed"):
            self._map([6] * 6, fn)
        assert ran == [0]

    def test_the_failed_job_of_lowest_index_raises(self):
        # all four run at once, and jobs 3 and 1 fail, job 3 first
        together, first = threading.Barrier(4, timeout=10), threading.Event()

        def fn(job, ws):
            together.wait()
            if job == 3:
                first.set()
                raise ValueError("job 3 failed")
            if job == 1:
                first.wait(10)
                raise ValueError("job 1 failed")
            return job

        with pytest.raises(ValueError, match="job 1 failed"):
            self._map([2] * 4, fn)

    def test_a_worker_reuses_its_workspace_across_jobs_that_fit(self, monkeypatch):
        # two workers keep at most 5 entries each: together within the budget of 10
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        weights, seen = [4, 5, 4, 5, 3, 2], {}

        def fn(job, ws):
            ws.take("h2", (weights[job],))
            seen.setdefault(threading.get_ident(), []).append(ws)
            time.sleep(0.01)
            return job

        assert self._map(weights, fn)[0] == list(range(6))
        assert sum(map(len, seen.values())) == 6 and len(seen) <= 2
        assert all(ws is kept[0] for kept in seen.values() for ws in kept)

    def test_a_worker_counts_the_largest_weight_it_ran(self, monkeypatch):
        # one worker runs jobs 0 and 1 in turn and keeps job 0's 6 entries through job 1, so job 2's 5
        # do not fit beside them, although they would beside job 1's own 5
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        draws = DrawsAlive()
        monkeypatch.setattr(sim, "Workspace", draws.workspace)
        weights = [6, 5, 5]

        def fn(job, ws):
            ws.take("h2", (weights[job],))
            ws.take("g2", (weights[job],))
            time.sleep(0.1 if job == 1 else 0.0)  # room for job 2 to start if it were let in
            return job

        spy = JobSpy(sim._map_jobs, probe=draws)
        assert _in_thread(lambda: spy(fn, [0, 1, 2], weights)) == [0, 1, 2]
        spy.check(10)
        assert [running for _, running in spy.starts[0]] == [{0}, {1}, {2}]
        assert max(spy.probed) <= 16 * 10

    def test_a_worker_drops_its_workspace_before_it_waits(self, monkeypatch):
        # job 1 ends while job 0 runs; its worker, grown to job 2's 6 entries, does not fit beside
        # job 0's 6, so it drops its workspace and waits, and job 0 then sees its own draws alone
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        draws = DrawsAlive()
        monkeypatch.setattr(sim, "Workspace", draws.workspace)
        weights, ended, seen = [6, 1, 6], threading.Event(), []

        def fn(job, ws):
            ws.take("h2", (weights[job],))
            ws.take("g2", (weights[job],))
            if job == 1:
                ended.set()
            if job == 0:
                assert ended.wait(10)
                deadline = time.monotonic() + 10
                while draws() > 16 * 6 and time.monotonic() < deadline:
                    time.sleep(0.001)
                seen.append(draws())
            return job

        spy = JobSpy(sim._map_jobs, probe=draws)
        assert _in_thread(lambda: spy(fn, [0, 1, 2], weights)) == [0, 1, 2]
        spy.check(10)
        assert seen == [16 * 6]
        assert max(spy.probed) <= 16 * 10

    def test_results_keep_job_order(self):
        # later jobs end first
        def fn(job, ws):
            time.sleep(0.01 * (8 - job))
            return job * job

        assert self._map([2] * 8, fn)[0] == [k * k for k in range(8)]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_weights_under_contention(self, seed):
        # more workers than cores, switching threads as often as it can
        weights = np.random.default_rng(seed).integers(0, 13, size=40).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, _ = self._map(weights, lambda job, ws: sum(range(200)) + job)
        finally:
            sys.setswitchinterval(interval)
        assert results == [sum(range(200)) + k for k in range(40)]

    def test_one_core_runs_the_jobs_in_order_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        spy = JobSpy(sim._map_jobs)
        assert spy(lambda job, ws: threading.get_ident(), [0, 1, 2], [20, 6, 6]) == [threading.get_ident()] * 3
        assert spy.starts == [[(0, {0}), (1, {1}), (2, {2})]]


class TestSchemeLabel:
    def test_waterfill_carries_mode(self):
        from relaypower.model import CsitMode
        assert scheme_label(Scheme.WATERFILL, CsitMode.PARTIAL) == "waterfill_partial"
        assert scheme_label(Scheme.WATERFILL, CsitMode.STATISTICAL) == "waterfill_statistical"
        assert scheme_label(Scheme.ONOFF, CsitMode.PERFECT) == "onoff"


class TestSimResult:
    def test_rates_and_csv(self):
        res = SimResult(scheme="onoff", block_bits=2,
                        snr_db=np.array([10.0]), frames=np.array([1000]),
                        block_errors=np.array([10]), bit_errors=np.array([12]))
        assert res.bler[0] == pytest.approx(0.01)
        assert res.ber[0] == pytest.approx(0.006)
        assert res.stderr_bler[0] == pytest.approx(math.sqrt(0.01 * 0.99 / 1000))
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
        # a float or bool count is rejected by name, not left to numpy or range
        with pytest.raises(ValueError, match=r"frames must be an integer >= 1000, got 2000\.0"):
            run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 2000.0, seed=0)
        for shards in (1.5, True):
            with pytest.raises(ValueError, match=f"shards must be an integer >= 1, got {shards}"):
                run_monte_carlo(cfg, Scheme.ONOFF, [10.0], 1000, seed=0, shards=shards)

    def test_grid_must_be_one_dimensional(self, monkeypatch):
        # rejected before any stream is drawn from
        monkeypatch.setattr(sim, "derive_rng", None)
        with pytest.raises(ValueError, match=r"snr grid must be a non-empty 1-d array, got shape \(1, 2\)"):
            run_monte_carlo(_cfg(), Scheme.ONOFF, [[5.0, 10.0]], 1000, seed=0)

    def test_scheme_mode_compat(self):
        with pytest.raises(ValueError, match="csit_mode"):
            run_monte_carlo(_stat_cfg(), Scheme.ONOFF, [10.0], 1000, seed=0)
        with pytest.raises(ValueError, match="csit_mode"):
            run_monte_carlo(_cfg(), Scheme.WATERFILL, [10.0], 1000, seed=0)

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
        assert np.all(res.bit_errors <= cfg.M * res.block_errors)
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
        # full budget P = N0 * 10^(snr/10) on the source; M = 2 sets the
        # block length, two BPSK symbols per block
        cfg = _cfg(m=2)
        res = run_monte_carlo(cfg, Scheme.DIRECT_LINK, [10.0], 100_000, seed=8,
                              network_power_sweep=True)
        gbar = 10.0
        theory = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
        assert res.ber[0] == pytest.approx(theory, abs=0.003)


@functools.lru_cache(maxsize=None)
def _unsharded(t, frames, scheme, mode):
    return run_monte_carlo(_cfg(t, csit_mode=mode), scheme, [8.0], frames, seed=11)


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
            res = run_monte_carlo(_cfg(t, csit_mode=mode), scheme, [8.0], frames,
                                  seed=11, shards=shards)
            np.testing.assert_array_equal(res.block_errors, ref.block_errors)
            np.testing.assert_array_equal(res.bit_errors, ref.bit_errors)


    def test_shards_past_the_batch_count_run_the_same_jobs(self, monkeypatch, tmp_path, capsys):
        # T = 8 runs 3 batches of 1024 frames per point; the empty shards
        # past them are never looped over
        seen = []
        real = sim._map_jobs

        def spy(fn, jobs, weights=None):
            assert weights is None  # Monte Carlo jobs share the cores without an entry budget
            seen.append(jobs)
            return real(fn, jobs)

        monkeypatch.setattr(sim, "_map_jobs", spy)
        path = tmp_path / "scenario.yaml"
        path.write_text("kind: bler_vs_snr\nschemes: [onoff, direct]\nsnr_db: [5.0, 10.0]\nframes: 3000\n"
                        "network:\n  M: 8\n")
        csvs = []
        for shards in (1, 3, 10**12):
            paths = run_experiment(load_spec(path), tmp_path / f"out{shards}", shards=shards)
            csvs.append({p.name: p.read_bytes() for p in paths if p.suffix == ".csv"})
        assert len(seen) == 3 and seen[2] == seen[1]
        assert len(csvs[0]) == 2 and csvs[2] == csvs[0]


class TestStatisticalAllocation:
    def test_same_bits_as_partial_csit_on_a_near_tie(self):
        # two candidate levels of these caps tie within J rounding; partial
        # and statistical CSIT run one kernel, so they pick the same one
        gamma_h = np.array([2.0, 1.0, 2.0, 1.0, 1.0])
        gamma_g = np.array([3.0, 3.0, 2.0, 1.0, 3.0])
        p = 5547.996686297584
        stat = _stat_cfg(5, p_s=p, p_r=p, gamma_h=gamma_h, gamma_g=gamma_g)
        partial = _cfg(5, csit_mode="partial", p_s=p, p_r=p, gamma_h=gamma_h, gamma_g=gamma_g)
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
        cfg = _cfg(4)
        with pytest.raises(ValueError, match="direct"):
            effective_relay_count(cfg, Scheme.DIRECT_LINK, [0.5], 10, seed=0)
        for r in (1.0, np.nan):
            with pytest.raises(ValueError, match="inside"):
                effective_relay_count(cfg, Scheme.ONOFF, [0.5, r], 10, seed=0)
        for trials in (0, 10.5, True):
            with pytest.raises(ValueError, match=f"trials must be an integer >= 1, got {trials}"):
                effective_relay_count(cfg, Scheme.ONOFF, [0.5], trials, seed=0)
        # 1/r^2 divides by zero, overflows, or leaves LINEAR_RANGE
        for r in (1.0e-200, 1.0e-160, 1.0e-30):
            with pytest.raises(ValueError, match=r"variance outside \[1e-50, 1e\+50\]"):
                effective_relay_count(cfg, Scheme.ONOFF, [r, 0.5], 10, seed=0)

    def test_grid_must_be_one_dimensional(self, monkeypatch):
        monkeypatch.setattr(sim, "derive_rng", None)
        with pytest.raises(ValueError, match=r"relay distances must be a 1-d array, got shape \(2, 1\)"):
            effective_relay_count(_cfg(4), Scheme.ONOFF, [[0.3], [0.5]], 10, seed=0)

    def test_max_power_scores_m_everywhere(self):
        cfg = _cfg(4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.MAX_POWER, [0.1, 0.5, 0.9], 500, seed=0)
        np.testing.assert_allclose(counts, 4.0, rtol=1e-12)

    def test_statistical_waterfill_is_symmetric_and_full(self, monkeypatch):
        # equal variances put every cap at the same height, so the water
        # covers them all and the count is exactly M, channel-free
        monkeypatch.setattr("relaypower.sim._sample_channel_powers", None)
        cfg = _stat_cfg(4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.WATERFILL, [0.3, 0.7], 50, seed=0)
        np.testing.assert_allclose(counts, 4.0, rtol=1e-12)

    def test_onoff_limits(self):
        cfg = _cfg(4, p_s=6.3, p_r=6.3)
        counts = effective_relay_count(cfg, Scheme.ONOFF, [0.05, 0.95], 3000, seed=1)
        assert counts[0] >= 0.95 * 4
        assert counts[1] <= 1.2

    def test_partial_waterfill_near_source(self):
        cfg = _cfg(4, p_s=6.3, p_r=6.3, csit_mode="partial")
        counts = effective_relay_count(cfg, Scheme.WATERFILL, [0.05], 2000, seed=2)
        assert counts[0] >= 0.95 * 4


class TestPowerBlocks:
    """_power_blocks yields row slices of one whole-array power draw and its short-term caps."""

    @pytest.mark.parametrize("m", [1, 3, 32, model._BLOCK_ENTRIES + 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])  # rows past a whole number of blocks, or short of one
    @pytest.mark.parametrize("mode", ["perfect", "partial"])
    def test_blocks_are_slices_of_the_whole_array_draw(self, m, extra, mode):
        step = max(1, model._BLOCK_ENTRIES // m)
        n = max(0, 2 * step + extra)
        cfg = _cfg(m, p_s=3.0, p_r=2.0, gamma_h=np.geomspace(0.1, 10.0, m), gamma_g=np.full(m, 1.5),
                   csit_mode=mode)
        ref_rng = np.random.default_rng(m + extra)
        ref_h2, ref_g2 = (a.copy() for a in model._sample_channel_powers(cfg, n, ref_rng))
        ref_caps = _batch_caps(cfg, ref_h2, cfg.p_s, cfg.p_r)
        ws = Workspace()
        rng = np.random.default_rng(m + extra)
        starts = []
        for rows, h2, g2, caps in sim._power_blocks(cfg, n, rng, ws):
            starts.append(rows.start)
            assert h2.shape == g2.shape == caps.shape == ref_h2[rows].shape
            for got, ref in ((h2, ref_h2), (g2, ref_g2), (caps, ref_caps)):
                assert got.tobytes() == ref[rows].tobytes()
            assert np.shares_memory(caps, ws["caps"])
        assert starts == list(range(0, n, step))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCountWorkspace:
    """_relay_counts gives the same counts in a reused workspace as in fresh ones; no cell may see another's arrays."""

    # over one row block at M = 1, and not a multiple of the block rows at any M below
    TRIALS = model._BLOCK_ENTRIES + 1

    def test_reused_workspace_gives_the_counts_of_fresh_ones(self):
        labels = ("onoff", "waterfill_partial", "equal")
        ws = Workspace()
        # the workspace grows at M = 3 and 32, then serves M = 3 from its larger arrays
        for seed, m in enumerate([1, 3, 32, 3]):
            assert self.TRIALS % (model._BLOCK_ENTRIES // m)
            cfg = _cfg(m, p_s=3.0, p_r=3.0, gamma_h=np.full(m, 4.0), gamma_g=np.full(m, 1.5), csit_mode="partial")
            rng_reused, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            reused = sim._relay_counts(cfg, self.TRIALS, rng_reused, ws, labels)
            assert reused == sim._relay_counts(cfg, self.TRIALS, rng_fresh, Workspace(), labels)
            assert rng_reused.bit_generator.state == rng_fresh.bit_generator.state

    @pytest.mark.parametrize("n,m", [(10_000, 32), (model._BLOCK_ENTRIES + 1, 3)])
    def test_workspace_holds_channel_powers_not_channels(self, n, m):
        # |h|^2 and |g|^2 at 16 B per entry, plus fixed buffers: the float
        # normal chunk, its complex twin, and one row block of caps and alpha
        cfg = _cfg(m, p_s=3.0, p_r=3.0, gamma_h=np.full(m, 4.0), gamma_g=np.full(m, 1.5))
        ws = Workspace()
        sim._relay_counts(cfg, n, np.random.default_rng(0), ws, ("onoff", "waterfill_partial", "equal"))
        assert not any(a.dtype == np.complex128 and a.size >= n * m for a in ws.values())
        fixed = (8 + 16) * model._BLOCK_ENTRIES + 2 * 8 * model._BLOCK_ENTRIES
        assert sum(a.nbytes for a in ws.values()) <= 16 * n * m + fixed


class TestExtremePowers:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("network_power_sweep", [False, True])
    @pytest.mark.parametrize("scheme,mode", [(Scheme.ONOFF, "perfect"),
                                             (Scheme.WATERFILL, "partial"),
                                             (Scheme.WATERFILL, "statistical"),
                                             (Scheme.MAX_POWER, "perfect")])
    def test_sweeps_to_300_db_stay_finite(self, scheme, mode, network_power_sweep):
        cfg = _stat_cfg(4) if mode == "statistical" else _cfg(4, csit_mode=mode)
        res = run_monte_carlo(cfg, scheme, [-300.0, -100.0, 0.0, 100.0, 300.0], 1000, seed=0,
                              network_power_sweep=network_power_sweep)
        assert np.all(np.isfinite(res.bler)) and np.all(np.isfinite(res.ber))
        assert not any("nan" in row for row in res.to_csv_rows())
