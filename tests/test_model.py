"""Configuration, channel sampling, and cap computation."""

import numpy as np
import pytest

from relaypower.model import (
    ChannelRealization,
    ConstraintKind,
    CsitMode,
    NetworkConfig,
    PowerAllocation,
    amplifier_caps,
    overall_noise_variance,
    sample_channel_batch,
    sample_channels,
)


def _cfg(**kw):
    base = dict(
        M=3, T=3, p_s=10.0, p_r=10.0, N0=1.0,
        gamma_h=np.ones(3), gamma_g=np.ones(3),
    )
    base.update(kw)
    return NetworkConfig(**base)


class TestNetworkConfig:
    def test_defaults_are_perfect_short_term(self):
        cfg = _cfg()
        assert cfg.csit_mode is CsitMode.PERFECT
        assert cfg.constraint_kind is ConstraintKind.SHORT_TERM

    def test_string_enums_coerce(self):
        cfg = _cfg(csit_mode="statistical")
        assert cfg.csit_mode is CsitMode.STATISTICAL

    @pytest.mark.parametrize("mode,kind", [
        ("perfect", ConstraintKind.SHORT_TERM),
        ("partial", ConstraintKind.SHORT_TERM),
        ("statistical", ConstraintKind.LONG_TERM),
    ])
    def test_each_mode_derives_its_constraint(self, mode, kind):
        # knowing instantaneous h is exactly what a short-term cap needs
        assert _cfg(csit_mode=mode).constraint_kind is kind

    def test_constraint_is_not_an_input(self):
        with pytest.raises(TypeError, match="constraint_kind"):
            _cfg(constraint_kind="long_term")

    @pytest.mark.parametrize("field,value", [
        ("M", 0), ("T", 0), ("p_s", 0.0), ("p_r", -1.0), ("N0", 0.0),
    ])
    def test_rejects_nonpositive_scalars(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    def test_rejects_wrong_length_variances(self):
        with pytest.raises(ValueError, match="gamma_h"):
            _cfg(gamma_h=np.ones(2))
        with pytest.raises(ValueError, match="gamma_g"):
            _cfg(gamma_g=np.array([1.0, 1.0, -1.0]))

    def test_variance_arrays_are_frozen(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            cfg.gamma_h[0] = 2.0


class TestChannelRealization:
    def test_cascade_is_elementwise_product(self):
        h = np.array([1 + 1j, 2.0, 0.5j])
        g = np.array([1.0, 1j, 2.0])
        chan = ChannelRealization(h=h, g=g)
        np.testing.assert_array_equal(chan.f, h * g)
        assert chan.M == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(h=np.ones(2), g=np.ones(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,bad", [("h", np.nan), ("g", np.inf), ("g", complex(0.0, np.nan))])
    def test_nonfinite_gains_rejected(self, name, bad):
        gains = {"h": np.ones(2, dtype=complex), "g": np.ones(2, dtype=complex)}
        gains[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            ChannelRealization(**gains)


class TestPowerAllocation:
    def test_active_mask(self):
        alloc = PowerAllocation(p=np.array([0.0, 2.0]), caps=np.array([1.0, 2.0]))
        np.testing.assert_array_equal(alloc.active, [False, True])

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(p=np.array([1.5]), caps=np.array([1.0]))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(p=np.array([-0.1]), caps=np.array([1.0]))

    def test_nonfinite_power_rejected(self):
        with pytest.raises(ValueError, match="p entries must be finite"):
            PowerAllocation(p=[np.nan, 1.0], caps=[1.0, 1.0])

    def test_tiny_roundoff_overshoot_tolerated(self):
        caps = np.array([1.0])
        PowerAllocation(p=caps * (1.0 + 1e-13), caps=caps)


class TestAmplifierCaps:
    def test_short_term_formula(self):
        cfg = _cfg()
        h = np.array([1.0, 2.0, 0.5 + 0.5j])
        expected = cfg.p_r / (cfg.p_s * np.abs(h) ** 2 + cfg.N0)
        np.testing.assert_allclose(amplifier_caps(cfg, h), expected, rtol=1e-15)

    def test_short_term_requires_h(self):
        with pytest.raises(ValueError, match="first-hop"):
            amplifier_caps(_cfg())

    def test_long_term_formula_ignores_h(self):
        cfg = _cfg(csit_mode="statistical", gamma_h=np.array([1.0, 4.0, 0.25]))
        expected = cfg.p_r / (cfg.p_s * cfg.gamma_h + cfg.N0)
        np.testing.assert_allclose(amplifier_caps(cfg), expected, rtol=1e-15)


class TestSampling:
    def test_single_draw_matches_batch_head(self):
        cfg = _cfg()
        chan = sample_channels(cfg, 7)
        h, g = sample_channel_batch(cfg, 1, np.random.default_rng(7))
        np.testing.assert_array_equal(chan.h, h[0])
        np.testing.assert_array_equal(chan.g, g[0])

    def test_batch_variances(self):
        gamma_h = np.array([0.5, 1.0, 2.0])
        gamma_g = np.array([2.0, 1.0, 0.5])
        cfg = _cfg(gamma_h=gamma_h, gamma_g=gamma_g)
        h, g = sample_channel_batch(cfg, 200_000, np.random.default_rng(3))
        np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), gamma_h, rtol=0.02)
        np.testing.assert_allclose(np.mean(np.abs(g) ** 2, axis=0), gamma_g, rtol=0.02)
        # real and imaginary parts carry half the variance each
        np.testing.assert_allclose(np.var(h.real, axis=0), gamma_h / 2, rtol=0.03)

    def test_determinism(self):
        cfg = _cfg()
        a = sample_channels(cfg, 123)
        b = sample_channels(cfg, 123)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.g, b.g)


class TestOverallNoiseVariance:
    def test_closed_form(self):
        p = np.array([1.0, 2.0])
        g = np.array([1.0 + 0j, 1j])
        assert overall_noise_variance(p, g, 2.0) == pytest.approx(2.0 * (1 + 3.0), rel=1e-15)

    def test_no_relays_transmitting(self):
        assert overall_noise_variance(np.zeros(4), np.ones(4), 1.5) == 1.5

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            overall_noise_variance(np.array([-1.0]), np.array([1.0]), 1.0)
