"""Configuration, channel sampling, and cap computation."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relaypower import model
from relaypower.model import (
    ChannelRealization,
    ConstraintKind,
    CsitMode,
    NetworkConfig,
    PowerAllocation,
    Workspace,
    _sample_channel_powers,
    amplifier_caps,
    overall_noise_variance,
    sample_channel_batch,
    sample_channels,
)


def _cfg(**kw):
    base = dict(
        M=3, p_s=10.0, p_r=10.0, N0=1.0,
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
        ("M", 0), ("p_s", 0.0), ("p_r", -1.0), ("N0", 0.0),
    ])
    def test_rejects_nonpositive_scalars(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    @pytest.mark.parametrize("m", [2.0, True, "2", np.float64(2.0)])
    def test_rejects_a_relay_count_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match=re.escape(f"M must be an integer >= 1, got {m!r}")):
            _cfg(M=m, gamma_h=np.ones(2), gamma_g=np.ones(2))

    def test_stores_its_checked_values(self):
        cfg = _cfg(M=np.int64(3), p_s="4", p_r=np.float32(2.5), N0=1)
        assert (cfg.M, cfg.p_s, cfg.p_r, cfg.N0) == (3, 4.0, 2.5, 1.0)
        assert type(cfg.M) is int and all(type(x) is float for x in (cfg.p_s, cfg.p_r, cfg.N0))
        np.testing.assert_array_equal(amplifier_caps(cfg, np.ones(3)), np.full(3, 2.5 / 5.0))

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


def _draw_by_expression(cfg, n, rng):
    """The channel draw written as one complex expression per hop."""
    shape = (n, cfg.M)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(cfg.gamma_h / 2.0)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(cfg.gamma_g / 2.0)
    return h, g


class TestChannelBuffers:
    """The in-place draw, with and without a caller workspace, against the complex expression."""

    @pytest.mark.parametrize("m", [1, 2, 8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_expression(self, m, seed):
        cfg = _cfg(M=m, gamma_h=np.geomspace(0.01, 100.0, m), gamma_g=np.full(m, 1.0 / 0.3**2))
        ref_rng = np.random.default_rng(seed)
        ref_h, ref_g = _draw_by_expression(cfg, 777, ref_rng)
        # a workspace larger than the draw, already holding an earlier draw
        ws = Workspace()
        sample_channel_batch(cfg, 1000, np.random.default_rng(seed + 10), ws)
        for buf in (None, ws):
            rng = np.random.default_rng(seed)
            h, g = sample_channel_batch(cfg, 777, rng, buf)
            assert h.shape == g.shape == (777, m)
            assert h.tobytes() == ref_h.tobytes() and g.tobytes() == ref_g.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n,m", [
        (11_000, 3),  # 33 000 entries: one chunk of 10 922 rows, then 78 rows
        (2, model._BLOCK_ENTRIES + 5),  # a row larger than the chunk, one row per chunk
        (1, 7),
        (1, model._BLOCK_ENTRIES + 5),
        (2 * model._BLOCK_ENTRIES, 1),  # exactly two chunks
    ])
    def test_chunked_draw_matches_one_full_size_draw(self, n, m):
        cfg = _cfg(M=m, gamma_h=np.geomspace(0.01, 100.0, m), gamma_g=np.full(m, 2.5))
        ref_rng = np.random.default_rng(5)
        ref_h, ref_g = _draw_by_expression(cfg, n, ref_rng)
        ws = Workspace()
        for buf in (None, ws):
            rng = np.random.default_rng(5)
            h, g = sample_channel_batch(cfg, n, rng, buf)
            assert h.tobytes() == ref_h.tobytes() and g.tobytes() == ref_g.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert ws["normal"].size == max(m, min(n * m, model._BLOCK_ENTRIES // m * m))

    @pytest.mark.parametrize("chunk", [1, 2, 5, 9, 24, 25])
    def test_any_chunk_size_gives_the_same_bits(self, monkeypatch, chunk):
        # 8 rows of 3: chunks of whole rows, one row when the chunk is smaller
        monkeypatch.setattr(model, "_BLOCK_ENTRIES", chunk)
        cfg = _cfg(gamma_h=np.array([0.5, 1.0, 4.0]), gamma_g=np.array([3.0, 0.2, 1.0]))
        ref_rng = np.random.default_rng(9)
        ref_h, ref_g = _draw_by_expression(cfg, 8, ref_rng)
        rng = np.random.default_rng(9)
        h, g = sample_channel_batch(cfg, 8, rng, Workspace())
        assert h.tobytes() == ref_h.tobytes() and g.tobytes() == ref_g.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_draws_are_views_into_the_buffers(self):
        cfg = _cfg()
        ws = Workspace()
        h1, _ = sample_channel_batch(cfg, 10, np.random.default_rng(0), ws)
        first = h1.copy()
        h2, _ = sample_channel_batch(cfg, 10, np.random.default_rng(1), ws)
        assert np.shares_memory(h1, h2)
        assert not np.array_equal(h1, first)  # overwritten by the second draw


@st.composite
def _power_draws(draw):
    """(m, n, seed): M from 1 to 1024, n at 1, around one chunk of rows, or over several."""
    m = draw(st.integers(1, 1024))
    step = model._BLOCK_ENTRIES // m
    n = draw(st.sampled_from([1, step - 1, step, step + 1, 3 * step + draw(st.integers(1, step - 1))]))
    return m, n, draw(st.integers(0, 2**32 - 1))


class TestChannelPowers:
    """The power draw against the squared magnitudes of the complex draw, bit for bit."""

    @settings(max_examples=60)
    @given(draw=_power_draws(), grown=st.booleans())
    def test_bit_identical_to_squared_complex_draw(self, draw, grown):
        m, n, seed = draw
        # unequal variances over seven decades on each hop
        spread = np.random.default_rng(seed)
        cfg = _cfg(M=m, gamma_h=10.0 ** spread.uniform(-3, 4, m), gamma_g=10.0 ** spread.uniform(-3, 4, m))
        ref_rng = np.random.default_rng(seed)
        h, g = sample_channel_batch(cfg, n, ref_rng)
        ws = Workspace()
        if grown:  # every array larger than this draw needs, filled by an earlier one
            sample_channel_batch(cfg, n + 7, np.random.default_rng(seed + 1), ws)
            _sample_channel_powers(cfg, n + 7, np.random.default_rng(seed + 1), ws)
        rng = np.random.default_rng(seed)
        h2, g2 = _sample_channel_powers(cfg, n, rng, ws)
        assert h2.shape == g2.shape == (n, m) and h2.dtype == g2.dtype == np.float64
        assert h2.tobytes() == np.square(np.abs(h)).tobytes()
        assert g2.tobytes() == np.square(np.abs(g)).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_without_a_workspace_and_as_its_views(self):
        cfg = _cfg(gamma_h=np.array([0.5, 1.0, 4.0]), gamma_g=np.array([3.0, 0.2, 1.0]))
        h, g = sample_channel_batch(cfg, 50, np.random.default_rng(2))
        h2, g2 = _sample_channel_powers(cfg, 50, np.random.default_rng(2))
        assert h2.tobytes() == np.square(np.abs(h)).tobytes() and g2.tobytes() == np.square(np.abs(g)).tobytes()
        ws = Workspace()
        h2, g2 = _sample_channel_powers(cfg, 50, np.random.default_rng(2), ws)
        assert np.shares_memory(h2, ws["h2"]) and np.shares_memory(g2, ws["g2"])

    @pytest.mark.parametrize("draw", [sample_channel_batch, _sample_channel_powers])
    @pytest.mark.parametrize("n", [-1, 2.5, 3.0, "3", None, True])
    def test_row_count_must_be_a_non_negative_integer(self, draw, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 0"):
            draw(_cfg(), n, np.random.default_rng(0))

    @pytest.mark.parametrize("draw", [sample_channel_batch, _sample_channel_powers])
    def test_zero_and_numpy_integer_row_counts(self, draw):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert all(a.shape == (0, 3) for a in draw(_cfg(), 0, rng))
        assert rng.bit_generator.state == state
        assert all(a.shape == (4, 3) for a in draw(_cfg(), np.int64(4), rng))


class TestAbs2:
    """model._abs2, the one rule for |z|^2, against the squared magnitude it replaced."""

    @staticmethod
    def _parts(rng, n):
        # signed parts from 1e-150 to 1e150, where |z|^2 nears the float range
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_bit_identical_to_the_squared_magnitude(self, dtype, with_out):
        rng = np.random.default_rng(11)
        n = 2**16
        z = self._parts(rng, n) + (1j * self._parts(rng, n) if dtype is np.complex128 else 0.0)
        want = (np.abs(z) ** 2).tobytes()
        out = np.empty(n) if with_out else None
        got = model._abs2(z, out=out)
        assert got.dtype == np.float64 and got.tobytes() == want
        assert out is None or got is out

    def test_zero_dimensional_inputs(self):
        rng = np.random.default_rng(12)
        for z in self._parts(rng, 200) + 1j * self._parts(rng, 200):
            z = np.array(z)
            assert np.float64(model._abs2(z)).tobytes() == np.float64(np.abs(z) ** 2).tobytes()

    def test_every_squared_magnitude_in_the_package_is_abs2(self):
        def is_abs(node):
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in ("abs", "absolute"))

        sites = []
        for path in sorted(Path(model.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = {id(node) for f in tree.body if path.name == "model.py"
                       and isinstance(f, ast.FunctionDef) and f.name == "_abs2" for node in ast.walk(f)}
            for node in ast.walk(tree):
                squared = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and is_abs(node.left)
                           and isinstance(node.right, ast.Constant) and node.right.value == 2)
                squared |= (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "square" and any(is_abs(a) for a in node.args))
                if squared and id(node) not in allowed:
                    sites.append(f"{path.name}:{node.lineno}")
        assert sites == []


class TestCount:
    @pytest.mark.parametrize(("x", "low"), [
        (True, 0), (False, 0), (10.5, 1), (2000.0, 1000), (np.float64(3.0), 0),
        ("3", 0), (None, 0), (-1, 0), (0, 1), (9999, 10_000),
    ])
    def test_rejected_by_name(self, x, low):
        with pytest.raises(ValueError, match=re.escape(f"frames must be an integer >= {low}, got {x!r}")):
            model._count(x, "frames", low)

    @pytest.mark.parametrize(("x", "low"), [(0, 0), (1, 1), (np.int64(3), 1), (np.uint8(3), 0), (2**70, 1)])
    def test_integers_at_or_above_the_floor_come_back_as_int(self, x, low):
        n = model._count(x, "frames", low)
        assert type(n) is int and n == x


class TestWorkspace:
    def test_take_reuses_the_head_and_grows_on_demand(self):
        ws = Workspace()
        a = ws.take("a", (3, 4))
        assert a.shape == (3, 4) and a.dtype == np.float64
        assert np.shares_memory(ws.take("a", (2, 5)), a)  # 10 entries fit in 12
        grown = ws.take("a", (13,))
        assert not np.shares_memory(grown, a) and ws["a"].size == 13
        complex_a = ws.take("a", (2,), np.complex128)  # another dtype replaces the array
        assert complex_a.dtype == np.complex128 and not np.shares_memory(complex_a, grown)
        assert np.shares_memory(ws.take("a", (1,), np.complex128), complex_a)
        assert not np.shares_memory(ws.take("b", (3, 4)), ws.take("a", (2,), np.complex128))


# entries that tie, sort apart by sign only, or sort last
_SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
_ROWS = st.tuples(st.integers(0, 12), st.integers(1, 5))


def _same_bits(got, want):
    """Equal shape and dtype, and equal bits wherever want is not NaN (NaN where it is)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if want.dtype.kind == "f":
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = got[~np.isnan(want)], want[~np.isnan(want)]
    assert got.tobytes() == want.tobytes()


class TestRowHelpers:
    """Each _row_* helper and _by_column give numpy's own call bit for bit, in column form at width <= 2 and beyond."""

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, _ROWS, elements=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())))
    def test_float_helpers_match_numpy(self, x):
        _same_bits(model._row_argsort(x), np.argsort(x, axis=1))
        got = x.copy()
        model._row_sort(got)
        _same_bits(got, np.sort(x, axis=1))
        got = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            model._row_cumsum(got)
            _same_bits(got, np.cumsum(x, axis=1))
        _same_bits(model._row_reduce(np.minimum, x), np.min(x, axis=1))
        _same_bits(model._row_argmax(x), np.argmax(x, axis=1))
        _same_bits(model._column_argmin(x), np.argmin(x, axis=1))
        row = x[0] if x.shape[0] else np.ones(x.shape[1])
        with np.errstate(all="ignore"):
            for op in (np.multiply, np.divide):
                _same_bits(model._by_column(op, x, row), op(x, row))
                got = x.copy()
                model._by_column(op, got, row, got)
                _same_bits(got, op(x, row))

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.bool_, _ROWS))
    def test_any_matches_numpy(self, x):
        _same_bits(model._row_reduce(np.logical_or, x), np.any(x, axis=1))

    def test_the_width_switch_sits_at_two(self, monkeypatch):
        # at width 2 the helpers take the column form, at width 3 numpy's call
        def spy(*args, **kwargs):
            raise AssertionError("numpy's sort was called")
        x = np.array([[2.0, 1.0], [np.nan, 0.0]])
        monkeypatch.setattr(np, "argsort", spy)
        np.testing.assert_array_equal(model._row_argsort(x), [[1, 0], [1, 0]])
        with pytest.raises(AssertionError, match="numpy's sort"):
            model._row_argsort(np.zeros((1, 3)))


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
