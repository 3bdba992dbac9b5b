"""Monte Carlo link simulation for the distributed space-time coded relay hop.

Each frame draws fresh block fading, runs the configured allocator, pushes
one random BPSK codeword through the physical two-hop chain (relay noise
included, nothing pre-whitened) and decodes by exhaustive maximum
likelihood over all 2^T codewords. Frames are simulated in fixed-size
batches; batch b of SNR point i always consumes the stream derived from
(seed, point i, batch b), so splitting the batches across shards cannot
change any tally.

A batch is BLAS work. The receive is r = sqrt(p_s) sum_i q_i f_i A_i s
+ sum_i q_i g_i A_i n_i + w (Jing & Hassibi, IEEE TWC 2006), and each sum
over relays is one complex GEMM once the dispersion stack is reshaped:
the effective matrices are (n, M) gains @ (M, T^2) matrices, the forwarded
relay noise (n, M T) scaled draws @ (M T, T) stacked transposes. The
decoder needs only Re(C^H C) and Re(C^H r), one real batched product.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .codebook import LdCodebook, codeword_signs, generate_codebook
from .model import (
    ChannelRealization,
    CsitMode,
    NetworkConfig,
    PowerAllocation,
    _batch_caps,
    _finite_array,
    _finite_scalar,
    sample_channel_batch,
)
from .onoff import solve_onoff_masks
from .rng import STREAM_CHANNELS, STREAM_FRAMES, derive_rng
from .waterfill import solve_waterfill_batch

MIN_FRAMES = 1000


class Scheme(enum.Enum):
    """Power allocation run per frame (or baseline bypassing the relays)."""

    ONOFF = "onoff"
    WATERFILL = "waterfill"
    MAX_POWER = "max_power"
    DIRECT_LINK = "direct_link"


_SCHEME_MODES = {
    Scheme.ONOFF: (CsitMode.PERFECT,),
    Scheme.WATERFILL: (CsitMode.PARTIAL, CsitMode.STATISTICAL),
    Scheme.MAX_POWER: (CsitMode.PERFECT, CsitMode.PARTIAL, CsitMode.STATISTICAL),
    Scheme.DIRECT_LINK: (CsitMode.PERFECT, CsitMode.PARTIAL, CsitMode.STATISTICAL),
}


def scheme_label(scheme: Scheme, mode: CsitMode) -> str:
    """CSV label; waterfilling is qualified by its CSIT mode."""
    if scheme is Scheme.WATERFILL:
        return f"waterfill_{mode.value}"
    return scheme.value


@dataclass(frozen=True)
class SimResult:
    """Per-SNR error tallies of one scheme sweep."""

    scheme: str
    seed: int
    block_bits: int
    snr_db: np.ndarray
    frames: np.ndarray
    block_errors: np.ndarray
    bit_errors: np.ndarray
    elapsed_s: float

    CSV_HEADER = "scheme,snr_db,frames,block_errors,bit_errors,bler,ber,stderr_bler"

    @property
    def bler(self) -> np.ndarray:
        return self.block_errors / self.frames

    @property
    def ber(self) -> np.ndarray:
        return self.bit_errors / (self.frames * self.block_bits)

    @property
    def stderr_bler(self) -> np.ndarray:
        p = self.bler
        return np.sqrt(p * (1.0 - p) / self.frames)

    @property
    def stderr_ber(self) -> np.ndarray:
        p = self.ber
        return np.sqrt(p * (1.0 - p) / (self.frames * self.block_bits))

    def to_csv_rows(self) -> list[str]:
        rows = []
        bler, ber, se = self.bler, self.ber, self.stderr_bler
        for i in range(self.snr_db.shape[0]):
            rows.append(
                f"{self.scheme},{self.snr_db[i]:.17g},{int(self.frames[i])},"
                f"{int(self.block_errors[i])},{int(self.bit_errors[i])},"
                f"{bler[i]:.17g},{ber[i]:.17g},{se[i]:.17g}"
            )
        return rows


def effective_code_matrix(code: LdCodebook, f: np.ndarray, q: np.ndarray, p_s: float) -> np.ndarray:
    """Matrix C with noiseless receive C @ s: sqrt(p_s) sum_i q_i f_i A_i."""
    return math.sqrt(p_s) * np.einsum("m,mtj->tj", q * np.asarray(f), code.matrices)


def transmit_frame(
    code: LdCodebook,
    chan: ChannelRealization,
    allocation: PowerAllocation,
    p_s: float,
    N0: float,
    index: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate one frame through the physical chain; returns the receive block.

    The relays amplify their own noisy observations, so the destination
    noise is sum_i q_i g_i A_i n_i + w rather than a single white draw.
    N0 = 0 reproduces the noiseless receive exactly and draws nothing.
    """
    t, m = code.T, code.M
    if chan.M != m or allocation.M != m:
        raise ValueError("channel and allocation sizes must match the codebook")
    if not 0 <= index < code.n_codewords:
        raise ValueError(f"codeword index out of range [0, {code.n_codewords})")
    p_s = _finite_scalar(p_s, "p_s")
    N0 = _finite_scalar(N0, "N0", allow_zero=True)
    q = np.sqrt(allocation.p)
    s = codeword_signs(t)[index]
    _, r = _transmit_batch(code, (math.sqrt(p_s) * q * chan.f)[None], (q * chan.g)[None], s[None], N0, rng)
    return r[0]


def ml_decode(
    code: LdCodebook,
    chan: ChannelRealization,
    allocation: PowerAllocation,
    p_s: float,
    r: np.ndarray,
) -> int:
    """Exhaustive ML codeword index; distance ties go to the smallest index."""
    p_s = _finite_scalar(p_s, "p_s")
    r = _finite_array(r, "r", np.complex128)
    if r.shape != (code.T,):
        raise ValueError(f"r must have shape ({code.T},), got {r.shape}")
    c = effective_code_matrix(code, chan.f, np.sqrt(allocation.p), p_s)
    cands = codeword_signs(code.T) @ c.T
    d2 = np.sum(np.abs(cands - r[None, :]) ** 2, axis=1)
    return int(np.argmin(d2))


def _batch_size(t: int) -> int:
    """Frames per RNG batch; shrinks with 2^T to bound decoder memory.

    The decoder holds 2^T float64 metrics per frame plus its (2T, T+1)
    float64 statistics buffer, 8 (2^T + 2T(T+1)) B. The metrics of one
    batch stay at or below 2 MiB for every T up to MAX_BLOCK = 12.
    """
    return min(4096, max(64, 2**21 // (2**t * t)))


def _check_compat(cfg: NetworkConfig, scheme: Scheme, *, require_codebook: bool = True) -> None:
    if cfg.csit_mode not in _SCHEME_MODES[scheme]:
        allowed = ", ".join(m.value for m in _SCHEME_MODES[scheme])
        raise ValueError(f"scheme {scheme.value!r} requires csit_mode in ({allowed})")
    if require_codebook and scheme is not Scheme.DIRECT_LINK and cfg.T != cfg.M:
        raise ValueError("relay simulation requires T == M (one dispersion matrix per relay)")


def _point_powers(cfg: NetworkConfig, snr_db: float, network_power_sweep: bool):
    """Map one sweep value to (p_s, p_r, network power).

    Sweeps are homogeneous (p_s = p_r). A per-relay sweep fixes p_r/N0;
    a network-power sweep fixes P/N0 and splits P evenly over the source
    and the M relays. The direct-link baseline always spends the full
    network power P = (M+1) p_r.
    """
    lin = cfg.N0 * 10.0 ** (snr_db / 10.0)
    if network_power_sweep:
        p = lin / (cfg.M + 1)
        return p, p, lin
    return lin, lin, (cfg.M + 1) * lin


def _allocate_batch(
    cfg: NetworkConfig,
    scheme: Scheme,
    h2: np.ndarray,
    g: np.ndarray | None,
    caps: np.ndarray,
) -> np.ndarray:
    """Relay powers (n, M) of one scheme under cfg's CSIT mode and caps = _batch_caps(cfg, h2, ...)."""
    if scheme is Scheme.MAX_POWER:
        return caps
    if scheme is Scheme.ONOFF:
        g2 = np.abs(g) ** 2
        return np.where(solve_onoff_masks(h2 * g2, g2, caps), caps, 0.0)
    if cfg.csit_mode is CsitMode.STATISTICAL:
        # long-term caps repeat one row, so the allocation does too: solve that row once.
        # The objective's a_i = eta gamma_gi gamma_hi never reach the kernel: sum_i ln(a_i)
        # shifts every candidate level's J equally, so the level depends on gamma_g and caps only
        return np.broadcast_to(solve_waterfill_batch(cfg.gamma_g, caps[:1]), caps.shape)
    return solve_waterfill_batch(cfg.gamma_g, caps)


def _mean_cap_fraction(
    cfg: NetworkConfig, scheme: Scheme, p_s: float, p_r: float, trials: int, seed: int, *key: int
) -> float:
    """E[sum_i p_i / P_i] of one scheme over `trials` draws from channel stream (seed, *key).

    Statistical CSIT allocates from the variances alone, so it draws
    nothing and scores its one allocation.
    """
    if cfg.csit_mode is CsitMode.STATISTICAL:
        # long-term caps read only the shape of the first-hop gains
        h2, g = cfg.gamma_h[None], None
    else:
        h, g = sample_channel_batch(cfg, trials, derive_rng(seed, STREAM_CHANNELS, *key))
        h2 = np.abs(h) ** 2
    caps = _batch_caps(cfg, h2, p_s, p_r)
    return float(np.mean(np.sum(_allocate_batch(cfg, scheme, h2, g, caps) / caps, axis=1)))


@dataclass(frozen=True)
class _DecodeTables:
    """Per-run constants of the exhaustive ML decoder over all 2^T codewords.

    basis row k is [s_i s_j for i < j in triu order, s] for the signs s of
    codeword k; pairs holds that (i, j) order.
    """

    signs: np.ndarray
    popcounts: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    basis: np.ndarray

    @classmethod
    def for_block(cls, t: int) -> "_DecodeTables":
        signs = codeword_signs(t)
        popcounts = np.array([bin(v).count("1") for v in range(2**t)], dtype=np.int64)
        iu, ju = np.triu_indices(t, k=1)
        basis = np.concatenate([signs[:, iu] * signs[:, ju], signs], axis=1)
        return cls(signs=signs, popcounts=popcounts, pairs=(iu, ju), basis=basis)


def _transmit_batch(
    code: LdCodebook,
    gains: np.ndarray,
    noise_gains: np.ndarray,
    s: np.ndarray,
    N0: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Effective matrices C (n, T, T) and receives r (n, T) of n frames.

    gains[b, i] = sqrt(p_s) q_i f_i weighs A_i in C, noise_gains[b, i] =
    q_i g_i weighs relay i's forwarded noise, and s (n, T) holds the sent
    signs. Each sum over relays is one complex GEMM against the stacked
    dispersion matrices. N0 = 0 returns r = C s and draws nothing.
    """
    n = gains.shape[0]
    m, t, _ = code.matrices.shape
    c = (gains @ code.matrices.reshape(m, t * t)).reshape(n, t, t)
    r = np.matmul(c, s[:, :, None])[:, :, 0]
    if N0 > 0.0:
        scale = math.sqrt(N0 / 2.0)
        relay_noise = scale * (rng.standard_normal((n, m, t)) + 1j * rng.standard_normal((n, m, t)))
        w = scale * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
        # sum_i (q_i g_i n_i)^T A_i^T: row b holds the scaled n_i back to back,
        # block i of the stack is A_i^T
        relay_noise *= noise_gains[:, :, None]
        r += relay_noise.reshape(n, m * t) @ code.matrices.transpose(0, 2, 1).reshape(m * t, t)
        r += w
    return c, r


def _relay_batch_tallies(
    cfg: NetworkConfig,
    scheme: Scheme,
    code: LdCodebook,
    tables: _DecodeTables,
    p_s: float,
    p_r: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    h, g = sample_channel_batch(cfg, n, rng)
    h2 = np.abs(h) ** 2
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, g, _batch_caps(cfg, h2, p_s, p_r)))
    k = rng.integers(0, code.n_codewords, size=n)
    c, r = _transmit_batch(code, math.sqrt(p_s) * q * h * g, q * g, tables.signs[k], cfg.N0, rng)
    k_hat = _ml_decode_batch(c, r, tables)
    return int(np.count_nonzero(k_hat != k)), int(tables.popcounts[k ^ k_hat].sum())


def _ml_decode_batch(c: np.ndarray, r: np.ndarray, tables: _DecodeTables) -> np.ndarray:
    """Exhaustive ML indices for effective matrices c (n, T, T) and receives r (n, T).

    BPSK symbols are real, so ||r - C s||^2 = ||r||^2 + tr Re(C^H C)
    + 2 sum_{i<j} s_i s_j Re(C^H C)_ij - 2 s . Re(C^H r). Both statistics
    come from one real batched product: with X = [Re C | Re r ; Im C | Im r]
    of shape (n, 2T, T+1), X[:, :, :T]^T X = [Re(C^H C) | Re(C^H r)].
    Dropping the terms every candidate shares and the factor 2 leaves one
    real GEMM of [Re(C^H C)_{i<j}, -Re(C^H r)] against tables.basis. Ties
    go to the smallest index.
    """
    n, t, _ = c.shape
    x = np.empty((n, 2 * t, t + 1))
    x[:, :t, :t] = c.real
    x[:, t:, :t] = c.imag
    x[:, :t, t] = r.real
    x[:, t:, t] = r.imag
    stats = np.matmul(x[:, :, :t].transpose(0, 2, 1), x)
    iu, ju = tables.pairs
    return np.argmin(np.concatenate([stats[:, iu, ju], -stats[:, :, t]], axis=1) @ tables.basis.T, axis=1)


def _direct_batch_tallies(
    t: int,
    power: float,
    N0: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Coherent BPSK over one unit-variance Rayleigh coefficient per block."""
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    s = 1.0 - 2.0 * rng.integers(0, 2, size=(n, t))
    scale = math.sqrt(N0 / 2.0)
    w = scale * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
    r = math.sqrt(power) * c[:, None] * s + w
    detected = np.where((np.conj(c)[:, None] * r).real >= 0.0, 1.0, -1.0)
    errs = detected != s
    return int(np.count_nonzero(errs.any(axis=1))), int(np.count_nonzero(errs))


def run_monte_carlo(
    cfg: NetworkConfig,
    scheme: Scheme,
    snr_grid_db,
    frames: int,
    seed: int,
    *,
    network_power_sweep: bool = False,
    shards: int = 1,
) -> SimResult:
    """Sweep SNR points, simulating `frames` independent fading blocks each.

    The allocator runs per frame under the configured CSIT mode, except
    for statistical waterfilling, whose long-term caps are the same in
    every frame: it is solved once per batch and repeated. The shard
    count only partitions the fixed batch schedule, so any value produces
    identical tallies for the same seed.
    """
    if frames < MIN_FRAMES:
        raise ValueError(f"frames must be at least {MIN_FRAMES}")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    _check_compat(cfg, scheme)
    grid = np.atleast_1d(np.asarray(snr_grid_db, dtype=np.float64))
    if grid.size == 0:
        raise ValueError("snr grid must be non-empty")

    start = time.perf_counter()
    direct = scheme is Scheme.DIRECT_LINK
    if direct:
        code = None
        tables = None
    else:
        code = generate_codebook(cfg.T, seed)
        tables = _DecodeTables.for_block(cfg.T)

    batch = _batch_size(cfg.T)
    n_batches = -(-frames // batch)
    block_errors = np.zeros(grid.shape[0], dtype=np.int64)
    bit_errors = np.zeros(grid.shape[0], dtype=np.int64)

    for pi, snr in enumerate(grid):
        p_s, p_r, net_power = _point_powers(cfg, float(snr), network_power_sweep)
        for shard in range(shards):
            for bi in range(shard, n_batches, shards):
                n = min(batch, frames - bi * batch)
                rng = derive_rng(seed, STREAM_FRAMES, pi, bi)
                if direct:
                    blk, bits = _direct_batch_tallies(cfg.T, net_power, cfg.N0, n, rng)
                else:
                    blk, bits = _relay_batch_tallies(cfg, scheme, code, tables, p_s, p_r, n, rng)
                block_errors[pi] += blk
                bit_errors[pi] += bits

    return SimResult(
        scheme=scheme_label(scheme, cfg.csit_mode),
        seed=seed,
        block_bits=cfg.T,
        snr_db=grid,
        frames=np.full(grid.shape[0], frames, dtype=np.int64),
        block_errors=block_errors,
        bit_errors=bit_errors,
        elapsed_s=time.perf_counter() - start,
    )


def effective_relay_count(cfg: NetworkConfig, scheme: Scheme, r_grid, trials: int, seed: int) -> np.ndarray:
    """Average fraction-of-cap power sum E[sum_i p_i / P_i] per distance r.

    The relay-to-endpoint distances map to variances gamma_h = 1/r^2 and
    gamma_g = 1/(1-r)^2; cfg supplies everything else. Max power always
    scores exactly M, on-off scores the mean number of active relays.
    """
    if scheme is Scheme.DIRECT_LINK:
        raise ValueError("effective relay count is undefined for the direct link")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("relay distances must lie strictly inside (0, 1)")
    _check_compat(cfg, scheme, require_codebook=False)

    counts = np.empty(grid.shape[0])
    for ri, r in enumerate(grid):
        cfg_r = dataclasses.replace(
            cfg, gamma_h=np.full(cfg.M, 1.0 / r**2), gamma_g=np.full(cfg.M, 1.0 / (1.0 - r) ** 2)
        )
        counts[ri] = _mean_cap_fraction(cfg_r, scheme, cfg.p_s, cfg.p_r, trials, seed, ri)
    return counts
