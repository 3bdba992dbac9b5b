"""Two-hop amplify-and-forward network model: configuration, channels, power caps.

The network has one source, M single-antenna relays and one destination,
with no direct source-destination link. A transmission block spans 2T
channel uses: T for the source broadcast, T for the relay retransmission.
Relay i scales its received block by a gain q_i = sqrt(p_i) and applies a
fixed unitary dispersion matrix; p_i is bounded by an amplifier cap that
depends on the power-constraint regime.
"""

from __future__ import annotations

import enum
import math
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
        M: number of relays.
        T: source block length in channel uses (codeword symbols per block).
        p_s: source transmit power per symbol, linear units.
        p_r: relay power budget per symbol, linear units.
        N0: noise power per complex dimension at relays and destination.
        gamma_h: source-to-relay channel variances, length M.
        gamma_g: relay-to-destination channel variances, length M.
        csit_mode: transmitter channel knowledge; it also fixes the relay
            power constraint, read back as constraint_kind.
    """

    M: int
    T: int
    p_s: float
    p_r: float
    N0: float
    gamma_h: np.ndarray
    gamma_g: np.ndarray
    csit_mode: CsitMode = CsitMode.PERFECT

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if self.T < 1:
            raise ValueError("T must be at least 1")
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


def _batch_caps(cfg: NetworkConfig, h2: np.ndarray, p_s: float, p_r: float) -> np.ndarray:
    """Amplifier caps under cfg's constraint for first-hop gains h2 = |h|^2 of any shape.

    The long-term caps are one (M,) vector broadcast to h2's shape as a
    read-only view.
    """
    if cfg.constraint_kind is ConstraintKind.SHORT_TERM:
        return p_r / (p_s * h2 + cfg.N0)
    return np.broadcast_to(p_r / (p_s * cfg.gamma_h + cfg.N0), h2.shape)


def sample_channels(cfg: NetworkConfig, seed_or_rng) -> ChannelRealization:
    """Draw one block-fading realization, h_i ~ CN(0, gamma_hi), g_i ~ CN(0, gamma_gi)."""
    rng = as_generator(seed_or_rng)
    h, g = sample_channel_batch(cfg, 1, rng)
    return ChannelRealization(h=h[0], g=g[0])


def sample_channel_batch(cfg: NetworkConfig, n: int, rng: np.random.Generator):
    """Draw n iid realizations at once; returns (H, G) of shape (n, M)."""
    shape = (n, cfg.M)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(cfg.gamma_h / 2.0)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(cfg.gamma_g / 2.0)
    return h, g


def overall_noise_variance(p: np.ndarray, g: np.ndarray, N0: float) -> float:
    """Per-dimension variance of the destination noise after relay forwarding.

    The forwarded relay noise and the local receiver noise combine into a
    spatially white term with variance N0 * (1 + sum_i p_i |g_i|^2).
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("relay powers must be non-negative")
    return float(N0 * (1.0 + np.sum(p * np.abs(np.asarray(g)) ** 2)))
