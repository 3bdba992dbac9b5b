"""Two-hop amplify-and-forward network model: configuration, channels, power caps.

The network has one source, M single-antenna relays and one destination,
with no direct source-destination link. A transmission block spans 2T
channel uses, T = M: T for the source broadcast, T for the relay
retransmission. Relay i scales its received block by a gain q_i = sqrt(p_i)
and applies a fixed unitary dispersion matrix; p_i is bounded by an
amplifier cap that depends on the power-constraint regime.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import as_generator

# Allocations may exceed a cap by at most this relative slack (pure float
# round-off from expressions like min(mu/gamma, P)).
CAP_SLACK = 1e-12


class ConstraintKind(enum.Enum):
    """Relay power-constraint regime."""

    SHORT_TERM = "short_term"  # per-realization cap p_r / (p_s|h_i|^2 + N0)
    LONG_TERM = "long_term"    # average cap p_r / (p_s*gamma_hi + N0)


class CsitMode(enum.Enum):
    """What the transmitter side knows about the two hops."""

    PERFECT = "perfect"          # |h_i| and |g_i| per realization
    PARTIAL = "partial"          # |h_i| per realization, g_i in distribution
    STATISTICAL = "statistical"  # both hops in distribution only


# Knowledge of instantaneous h is what makes a short-term cap realizable,
# so each CSIT mode fixes its constraint; NetworkConfig derives it from here.
_MODE_CONSTRAINTS = {
    CsitMode.PERFECT: ConstraintKind.SHORT_TERM,
    CsitMode.PARTIAL: ConstraintKind.SHORT_TERM,
    CsitMode.STATISTICAL: ConstraintKind.LONG_TERM,
}


def _finite_scalar(x, name: str, *, allow_zero: bool = False) -> float:
    v = float(x)
    if not math.isfinite(v) or v < 0.0 or (v == 0.0 and not allow_zero):
        bound = "non-negative" if allow_zero else "strictly positive"
        raise ValueError(f"{name} must be finite and {bound}")
    return v


def _finite_array(x, name: str, dtype=np.float64) -> np.ndarray:
    """x as an array of dtype whose entries are all finite; not copied."""
    v = np.asarray(x, dtype=dtype)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


def _positive_vector(x, m: int | None, name: str, *, allow_zero: bool = False) -> np.ndarray:
    """x as a read-only float copy of shape (m,), or of any non-empty 1-d shape when m is None.

    Entries must be finite and strictly positive, or non-negative with allow_zero.
    """
    v = np.asarray(x, dtype=np.float64)
    if m is None and (v.ndim != 1 or v.size == 0):
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {v.shape}")
    if m is not None and v.shape != (m,):
        raise ValueError(f"{name} must have shape ({m},), got {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0 if allow_zero else v <= 0.0):
        bound = "non-negative" if allow_zero else "strictly positive"
        raise ValueError(f"{name} entries must be finite and {bound}")
    v = v.copy()
    v.setflags(write=False)
    return v


def _positive_batch(x, name: str) -> np.ndarray:
    """A batch of per-relay values, shape (n, M) with M >= 1, finite and > 0; not copied."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"{name} must have shape (n, M) with M >= 1, got {v.shape}")
    # one pass each, no temporaries; min and max are NaN when any entry is
    if v.size and not (v.min() > 0.0 and v.max() < np.inf):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return v


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the relay network and its power budget.

    Args:
        M: number of relays, and the source block length in channel uses
            (one dispersion matrix per relay).
        p_s: source transmit power per symbol, linear units.
        p_r: relay power budget per symbol, linear units.
        N0: noise power per complex dimension at relays and destination.
        gamma_h: source-to-relay channel variances, length M.
        gamma_g: relay-to-destination channel variances, length M.
        csit_mode: transmitter channel knowledge; it also fixes the relay
            power constraint, read back as constraint_kind.
    """

    M: int
    p_s: float
    p_r: float
    N0: float
    gamma_h: np.ndarray
    gamma_g: np.ndarray
    csit_mode: CsitMode = CsitMode.PERFECT

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        for name in ("p_s", "p_r", "N0"):
            _finite_scalar(getattr(self, name), name)
        object.__setattr__(self, "gamma_h", _positive_vector(self.gamma_h, self.M, "gamma_h"))
        object.__setattr__(self, "gamma_g", _positive_vector(self.gamma_g, self.M, "gamma_g"))
        if not isinstance(self.csit_mode, CsitMode):
            object.__setattr__(self, "csit_mode", CsitMode(self.csit_mode))

    @property
    def constraint_kind(self) -> ConstraintKind:
        """The relay power constraint the CSIT mode can realize."""
        return _MODE_CONSTRAINTS[self.csit_mode]


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw of both hops; f_i = h_i * g_i is the cascade."""

    h: np.ndarray
    g: np.ndarray
    f: np.ndarray = field(init=False)

    def __post_init__(self):
        h = _finite_array(self.h, "h", np.complex128).copy()
        g = _finite_array(self.g, "g", np.complex128).copy()
        if h.ndim != 1 or h.shape != g.shape:
            raise ValueError("h and g must be 1-d arrays of equal length")
        f = h * g
        for arr in (h, g, f):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    @property
    def M(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class PowerAllocation:
    """Relay powers p together with the caps they were solved under."""

    p: np.ndarray
    caps: np.ndarray

    def __post_init__(self):
        p = _finite_array(self.p, "p").copy()
        if p.ndim != 1 or np.shape(self.caps) != p.shape:
            raise ValueError("p and caps must be 1-d arrays of equal length")
        caps = _positive_vector(self.caps, p.shape[0], "caps")
        if np.any(p < 0.0) or np.any(p > caps * (1.0 + CAP_SLACK)):
            raise ValueError("allocation must satisfy 0 <= p_i <= caps_i")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "caps", caps)

    @property
    def M(self) -> int:
        return self.p.shape[0]

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of relays transmitting with nonzero power."""
        return self.p > 0.0


def amplifier_caps(cfg: NetworkConfig, h: np.ndarray | None = None) -> np.ndarray:
    """Per-relay amplifier power caps P_i for the configured constraint.

    Short-term caps hold the instantaneous relay output at p_r and need the
    current first-hop draw; long-term caps hold it at p_r on average and,
    like cfg's own arrays, are read-only.
    """
    if cfg.constraint_kind is ConstraintKind.LONG_TERM:
        return _batch_caps(cfg, cfg.gamma_h, cfg.p_s, cfg.p_r)
    if h is None:
        raise ValueError("short-term caps require the first-hop realization h")
    h = np.asarray(h)
    if h.shape != (cfg.M,):
        raise ValueError(f"h must have shape ({cfg.M},)")
    return _batch_caps(cfg, np.abs(h) ** 2, cfg.p_s, cfg.p_r)


def _batch_caps(cfg: NetworkConfig, h2: np.ndarray, p_s: float, p_r: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Amplifier caps under cfg's constraint for first-hop gains h2 = |h|^2 of any shape.

    Short-term caps go into out when it is given. The long-term caps are
    one (M,) vector broadcast to h2's shape as a read-only view.
    """
    if cfg.constraint_kind is ConstraintKind.SHORT_TERM:
        return np.divide(p_r, np.add(np.multiply(h2, p_s, out=out), cfg.N0, out=out), out=out)
    return np.broadcast_to(p_r / (p_s * cfg.gamma_h + cfg.N0), h2.shape)


def sample_channels(cfg: NetworkConfig, seed_or_rng) -> ChannelRealization:
    """Draw one block-fading realization, h_i ~ CN(0, gamma_hi), g_i ~ CN(0, gamma_gi)."""
    rng = as_generator(seed_or_rng)
    h, g = sample_channel_batch(cfg, 1, rng)
    return ChannelRealization(h=h[0], g=g[0])


# Entries per vector row block, in whole rows (one row when M is larger): the
# chunks in which a channel draw takes its normals (a Generator's normal
# stream does not depend on how the calls split it, so the chunks give the
# bits of one full-size draw) and the blocks in which the allocation-only
# kinds solve (sim._power_blocks). Each block costs a few dozen numpy calls
# whatever its size: with 8000-entry blocks two workers mostly took turns on
# the interpreter lock, and asym_m32 took 1.02-1.05 s on two against
# 1.19-1.36 s on one (fresh processes, 2-vCPU host), 0.72-0.79 s on two at
# 32 000 entries. 64 000 gave no further gain for 6 MB more peak RSS. Blocks
# of 256 KB cost minor faults, as glibc trims the heap top after a free of
# 64 KB or more: 35-39 k per asym_m32 run, 0.12 s of system time
_BLOCK_ENTRIES = 2**15


class Workspace(dict):
    """Flat arrays by name, reused from call to call: one per worker.

    A caller that works many batches keeps one instance, so its batches
    write into the same memory instead of mapping fresh pages every time;
    what it takes out is a view that the next take of that name overwrites.
    """

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A view of shape at the head of the array under name, replaced when too small or of another dtype."""
        size = math.prod(shape)
        buf = self.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


# Rows at most this wide are sorted, reduced and scaled by the helpers
# below one column at a time, one vector operation per column over all
# rows, and sim's transmit and decoder take their column forms up to this
# block length. numpy's own axis=1 calls, and its broadcasts against a row
# or a column, loop over the rows, which at width 2 is most of their cost:
# on 4096 x 2 floats np.min took 134-216 us against 4-5 us for one
# np.minimum of the two columns (2-vCPU host, numpy 2.4). Each helper
# returns numpy's result bit for bit. Past 2 that needs more than this
# code checks: the column sort keeps ties in order, which numpy's argsort
# does only up to width 3 on an AVX-512 host, and a column C s of three
# terms keeps the stacked product's bits only if the BLAS adds them in
# index order
_COLUMN_WIDTH = 2


def _sorted_columns(x: np.ndarray, with_order: bool) -> tuple[list, list | None]:
    """Each row of x sorted, ties in order and NaN last: (key columns, index columns or None).

    A bubble sort over contiguous copies of the columns: a pair swaps only
    where its second entry sorts strictly first, so equal keys, -0.0 and 0.0
    among them, and NaNs keep their order.
    """
    w = x.shape[1]
    keys = [x[:, j].copy() for j in range(w)]
    order = [np.full(x.shape[0], j, dtype=np.intp) for j in range(w)] if with_order else None
    for top in range(w - 1, 0, -1):
        for j in range(top):
            a, b = keys[j], keys[j + 1]
            swap = ~(a <= b) & (b == b)  # b < a, or a is NaN and b is not
            for cols in (keys,) if order is None else (keys, order):
                cols[j], cols[j + 1] = np.where(swap, cols[j + 1], cols[j]), np.where(swap, cols[j], cols[j + 1])
    return keys, order


def _first_extreme(x: np.ndarray, extreme, arg) -> np.ndarray:
    """arg(x, axis=1) of a 2-d x, np.argmin or np.argmax, from extreme, np.minimum or np.maximum, column by column.

    extreme carries a NaN through, so a row's extreme is NaN exactly when
    the row holds one, and then numpy's own call answers; otherwise the
    first column equal to the extreme is numpy's first-index answer.
    """
    best = x[:, 0]
    for j in range(1, x.shape[1]):
        best = extreme(best, x[:, j])
    if np.isnan(best).any():
        return arg(x, axis=1)
    index = np.full(x.shape[0], x.shape[1] - 1, dtype=np.intp)
    for j in range(x.shape[1] - 2, -1, -1):
        index = np.where(x[:, j] == best, j, index)
    return index


def _column_argmin(x: np.ndarray) -> np.ndarray:
    """np.argmin(x, axis=1) of a 2-d float x, column by column at any width."""
    return _first_extreme(x, np.minimum, np.argmin)


def _row_argmax(x: np.ndarray) -> np.ndarray:
    """np.argmax(x, axis=1) of a 2-d float x."""
    if x.shape[1] > _COLUMN_WIDTH:
        return np.argmax(x, axis=1)
    return _first_extreme(x, np.maximum, np.argmax)


def _row_argsort(x: np.ndarray) -> np.ndarray:
    """np.argsort(x, axis=1) of a 2-d float x."""
    if x.shape[1] > _COLUMN_WIDTH:
        return np.argsort(x, axis=1)
    order = np.empty(x.shape, dtype=np.intp)
    for j, column in enumerate(_sorted_columns(x, True)[1]):
        order[:, j] = column
    return order


def _row_sort(x: np.ndarray) -> None:
    """x.sort(axis=1) of a 2-d float x, in place."""
    if x.shape[1] > _COLUMN_WIDTH:
        x.sort(axis=1)
        return
    for j, column in enumerate(_sorted_columns(x, False)[0]):
        x[:, j] = column


def _row_cumsum(x: np.ndarray) -> None:
    """np.cumsum(x, axis=1, out=x) of a 2-d x: each column adds the one before it."""
    if x.shape[1] > _COLUMN_WIDTH:
        np.cumsum(x, axis=1, out=x)
        return
    for j in range(1, x.shape[1]):
        np.add(x[:, j - 1], x[:, j], out=x[:, j])


def _row_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce(x, axis=1) of a 2-d x, as np.min (np.minimum) or np.any (np.logical_or) take it."""
    if x.shape[1] > _COLUMN_WIDTH:
        return ufunc.reduce(x, axis=1)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def _by_column(op, x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """op(x, v, out=out) for a 2-d x and a row v of its width, one column at a time at widths up to _COLUMN_WIDTH."""
    if x.shape[1] > _COLUMN_WIDTH:
        return op(x, v, out=out)
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, v))
    for j in range(x.shape[1]):
        op(x[:, j], v[j], out=out[:, j])
    return out


def _count(x, name: str, low: int = 0) -> int:
    """x as a count; ValueError naming it unless x is an integer >= low (bool is not)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)


def _scaled_chunks(cfg: NetworkConfig, n: int, rng: np.random.Generator, ws: Workspace):
    """Yield (hop, imag, rows, chunk) over the normal draw of n channel rows, in stream order.

    The four normal blocks come in the order Re h, Im h, Re g, Im g (hop 0 is
    h, 1 is g), each in chunks of _BLOCK_ENTRIES // M rows, or one, under ws's
    "normal", scaled in place by its hop's sqrt(gamma / 2). chunk holds the
    imaginary part (imag) or the real part of that hop's rows until the next yield.
    """
    step = max(1, min(n, _BLOCK_ENTRIES // cfg.M))
    normal = ws.take("normal", (step, cfg.M))
    for hop, gamma in enumerate((cfg.gamma_h, cfg.gamma_g)):
        scale = np.sqrt(gamma / 2.0)
        for imag in (False, True):
            for lo in range(0, n, step):
                chunk = rng.standard_normal(out=normal[: n - lo])
                yield hop, imag, slice(lo, lo + step), _by_column(np.multiply, chunk, scale, chunk)


def sample_channel_batch(cfg: NetworkConfig, n: int, rng: np.random.Generator, ws: Workspace | None = None,
                         out: tuple[np.ndarray, np.ndarray] | None = None):
    """Draw n iid realizations at once; returns (H, G) of shape (n, M).

    The normal chunks of _scaled_chunks go into their parts of H and G:
    the same bits as (x + 1j y) sqrt(gamma / 2), from the same stream
    positions. With ws, H and G are its "h" and "g", which the next draw
    overwrites; with out, a pair of (n, M) complex arrays, they are those.
    """
    n = _count(n, "n")
    ws = Workspace() if ws is None else ws
    if out is None:
        out = [ws.take(name, (n, cfg.M), np.complex128) for name in ("h", "g")]
    for hop, imag, rows, chunk in _scaled_chunks(cfg, n, rng, ws):
        (out[hop].imag if imag else out[hop].real)[rows] = chunk
    return out[0], out[1]


def _sample_channel_powers(cfg: NetworkConfig, n: int, rng: np.random.Generator, ws: Workspace | None = None):
    """|H|^2 and |G|^2 of sample_channel_batch(cfg, n, rng), bit for bit, as (n, M) floats.

    The draw reads the same stream positions, but keeps 16 B per entry
    instead of 32: each real chunk goes into its power array, and each
    imaginary chunk joins the real parts stored there in ws's "chunk", a
    complex buffer whose np.abs, squared, overwrites them. (np.hypot is not
    numpy's complex absolute: its last bit differs on about a third of
    entries.) With ws, the powers are its "h2" and "g2", which the next
    draw overwrites.
    """
    n = _count(n, "n")
    ws = Workspace() if ws is None else ws
    out = [ws.take(name, (n, cfg.M)) for name in ("h2", "g2")]
    for hop, imag, rows, chunk in _scaled_chunks(cfg, n, rng, ws):
        power = out[hop][rows]
        if not imag:
            power[...] = chunk
            continue
        both = ws.take("chunk", chunk.shape, np.complex128)
        both.real = power
        both.imag = chunk
        np.square(np.abs(both, out=power), out=power)
    return out[0], out[1]


def overall_noise_variance(p: np.ndarray, g: np.ndarray, N0: float) -> float:
    """Per-dimension variance of the destination noise after relay forwarding.

    The forwarded relay noise and the local receiver noise combine into a
    spatially white term with variance N0 * (1 + sum_i p_i |g_i|^2).
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("relay powers must be non-negative")
    return float(N0 * (1.0 + np.sum(p * np.abs(np.asarray(g)) ** 2)))
