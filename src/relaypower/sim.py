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
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .codebook import LdCodebook, codeword_signs, generate_codebook
from .model import (
    ChannelBuffers,
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

    def to_csv_rows(self, leads: list[str] | None = None) -> list[str]:
        """One row per point: its lead columns, by default scheme and snr_db, then the tallies."""
        if leads is None:
            leads = [f"{self.scheme},{x:.17g}" for x in self.snr_db]
        bler, ber, se = self.bler, self.ber, self.stderr_bler
        return [
            f"{lead},{int(self.frames[i])},{int(self.block_errors[i])},{int(self.bit_errors[i])},"
            f"{bler[i]:.17g},{ber[i]:.17g},{se[i]:.17g}"
            for i, lead in enumerate(leads)
        ]


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
    ws = _BatchWorkspace(1, m, t)
    _, r = _transmit_batch(code, (math.sqrt(p_s) * q * chan.f)[None], (q * chan.g)[None], s[None], N0, rng, ws)
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
    batch stay at or below 2 MiB for every T up to MAX_BLOCK = 12; that
    bound holds per worker with a batch in flight.
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
    lin = _db_power(cfg.N0, snr_db)
    if network_power_sweep:
        p = _node_power(cfg.N0, snr_db, cfg.M)
        return p, p, lin
    return lin, lin, (cfg.M + 1) * lin


# Every power, noise level and variance that a run starts from, given or
# derived, lies in this range (-500 to 500 dB at N0 = 1). The run multiplies
# up to five of them, with channel draws, into its caps, on-off sums and
# decoder statistics; within 1e-250 to 1e250 these stay normal floats.
LINEAR_RANGE = (1e-50, 1e50)


def _in_linear_range(derive, what: str) -> tuple:
    """derive(), unless it raises or returns a value outside LINEAR_RANGE: then ValueError."""
    try:
        values = derive()
    except ArithmeticError:  # a Python float ** that overflows, or a division by zero
        values = (math.inf,)
    low, high = LINEAR_RANGE
    if not all(low <= x <= high for x in values):
        raise ValueError(f"{what} outside [{low:g}, {high:g}]")
    return values


def _db_power(n0: float, x: float) -> float:
    """Linear power N0 10^(x/10) of a level of x dB; ValueError outside LINEAR_RANGE."""
    return _in_linear_range(lambda: (n0 * 10.0 ** (x / 10.0),), f"{x:g} dB at N0 = {n0:g} gives a linear power")[0]


def _node_power(n0: float, x: float, m: int) -> float:
    """Each node's share of x dB split evenly over the source and m relays; ValueError outside LINEAR_RANGE."""
    return _in_linear_range(lambda: (_db_power(n0, x) / (m + 1),),
                            f"{x:g} dB at N0 = {n0:g} split over {m + 1} nodes gives a power")[0]


def _distance_variances(r: float) -> tuple[float, float]:
    """(gamma_h, gamma_g) = (1/r^2, 1/(1-r)^2) at distance r from the source; ValueError outside LINEAR_RANGE."""
    return _in_linear_range(lambda: (1.0 / r**2, 1.0 / (1.0 - r) ** 2), f"relay distance {r:g} gives a variance")


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


class _BatchWorkspace:
    """Every (n, .) array of a relay batch of up to `frames` frames, reused from batch to batch.

    A worker keeps one, so its batches write into the same memory instead
    of mapping and faulting fresh pages every time; what a batch reads out
    of it is a view that the next batch overwrites. An array that nothing
    reads again takes the next result in place: q = sqrt(p) overwrites
    |h|^2, the two gain vectors overwrite h and g. One complex scratch
    block, seen as floats, takes each normal draw before it is scaled
    into place, sqrt(p_s) q, and the forwarded relay noise. The decoder's
    real stack X and its statistics, the largest arrays of a batch, live
    here too; the allocation kernels keep their own temporaries.
    """

    def __init__(self, frames: int, m: int, t: int):
        self.h2 = np.empty((frames, m))
        self.c = np.empty((frames, t, t), dtype=np.complex128)
        self.r = np.empty((frames, t), dtype=np.complex128)
        self.relay_noise = np.empty((frames, m, t), dtype=np.complex128)
        self.x = np.empty((frames, 2 * t, t + 1))
        self.stats = np.empty((frames, t, t + 1))
        # floats for the largest draw, (n, M, T); complex entries for the (n, T) noise sum
        self.scratch = np.empty(-(-frames * max(m * t, 2 * t) // 2), dtype=np.complex128)
        self.draws = self.scratch.view(np.float64)
        self.channels = ChannelBuffers(frames * m, normal=self.draws)


def _transmit_batch(
    code: LdCodebook,
    gains: np.ndarray,
    noise_gains: np.ndarray,
    s: np.ndarray,
    N0: float,
    rng: np.random.Generator,
    ws: _BatchWorkspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Effective matrices C (n, T, T) and receives r (n, T) of n frames, as views into ws.

    gains[b, i] = sqrt(p_s) q_i f_i weighs A_i in C, noise_gains[b, i] =
    q_i g_i weighs relay i's forwarded noise, and s (n, T) holds the sent
    signs. Each sum over relays is one complex GEMM against the stacked
    dispersion matrices. N0 = 0 returns r = C s and draws nothing.
    """
    n = gains.shape[0]
    m, t, _ = code.matrices.shape
    c, r = ws.c[:n], ws.r[:n]
    np.matmul(gains, code.matrices.reshape(m, t * t), out=c.reshape(n, t * t))
    np.matmul(c, s[:, :, None], out=r[:, :, None])
    if N0 > 0.0:
        scale = math.sqrt(N0 / 2.0)
        # relay noise real then imaginary, then w real then imaginary: the
        # draws of scale (x + 1j y), each scaled into its part
        relay_noise = ws.relay_noise[:n]
        for part in (relay_noise.real, relay_noise.imag):
            np.multiply(rng.standard_normal(out=ws.draws[: part.size].reshape(part.shape)), scale, out=part)
        # sum_i (q_i g_i n_i)^T A_i^T: row b holds the scaled n_i back to back,
        # block i of the stack is A_i^T
        relay_noise *= noise_gains[:, :, None]
        r += np.matmul(relay_noise.reshape(n, m * t), code.matrices.transpose(0, 2, 1).reshape(m * t, t),
                       out=ws.scratch[: n * t].reshape(n, t))
        # then + w, a part at a time: complex addition adds the parts
        for part in (r.real, r.imag):
            w_part = rng.standard_normal(out=ws.draws[: n * t].reshape(n, t))
            w_part *= scale
            part += w_part
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
    ws: _BatchWorkspace,
) -> tuple[int, int]:
    """Block and bit errors of n frames drawn from rng, worked in ws."""
    h, g = sample_channel_batch(cfg, n, rng, ws.channels)
    h2 = np.square(np.abs(h, out=ws.h2[:n]), out=ws.h2[:n])
    q = np.sqrt(_allocate_batch(cfg, scheme, h2, g, _batch_caps(cfg, h2, p_s, p_r)), out=h2)
    k = rng.integers(0, code.n_codewords, size=n)
    # the plain products (sqrt(p_s) q) h g and q g, in place over h and g
    gains = np.multiply(np.multiply(q, math.sqrt(p_s), out=ws.draws[: q.size].reshape(q.shape)), h, out=h)
    gains *= g
    noise_gains = np.multiply(q, g, out=g)
    c, r = _transmit_batch(code, gains, noise_gains, tables.signs[k], cfg.N0, rng, ws)
    k_hat = _ml_decode_batch(c, r, tables, ws)
    return int(np.count_nonzero(k_hat != k)), int(tables.popcounts[k ^ k_hat].sum())


def _ml_decode_batch(c: np.ndarray, r: np.ndarray, tables: _DecodeTables, ws: _BatchWorkspace) -> np.ndarray:
    """Exhaustive ML indices for effective matrices c (n, T, T) and receives r (n, T).

    BPSK symbols are real, so ||r - C s||^2 = ||r||^2 + tr Re(C^H C)
    + 2 sum_{i<j} s_i s_j Re(C^H C)_ij - 2 s . Re(C^H r). Both statistics
    come from one real batched product: with X = [Re C | Re r ; Im C | Im r]
    of shape (n, 2T, T+1), X[:, :, :T]^T X = [Re(C^H C) | Re(C^H r)].
    Dropping the terms every candidate shares and the factor 2 leaves one
    real GEMM of [Re(C^H C)_{i<j}, -Re(C^H r)] against tables.basis. Ties
    go to the smallest index. X and the statistics are views into ws.
    """
    n, t, _ = c.shape
    x = ws.x[:n]
    x[:, :t, :t] = c.real
    x[:, t:, :t] = c.imag
    x[:, :t, t] = r.real
    x[:, t:, t] = r.imag
    stats = np.matmul(x[:, :, :t].transpose(0, 2, 1), x, out=ws.stats[:n])
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
    every frame: it is solved once per batch and repeated. Batch b of
    point i draws from stream (seed, i, b) wherever it runs, and every
    batch works in a reused batch workspace. At T <= 2 the batches run
    one per usable core, each worker with its own workspace; at larger T
    they run in turn, because BLAS already spreads their products over
    the cores. The tallies are integer sums, so neither the shard count,
    which only partitions the fixed batch schedule, nor the number of
    cores changes them.
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
    powers = [_point_powers(cfg, float(snr), network_power_sweep) for snr in grid]
    jobs = [(pi, bi) for pi in range(grid.shape[0])
            for shard in range(shards) for bi in range(shard, n_batches, shards)]

    def tallies(job, ws):
        pi, bi = job
        n = min(batch, frames - bi * batch)
        rng = derive_rng(seed, STREAM_FRAMES, pi, bi)
        p_s, p_r, net_power = powers[pi]
        if direct:
            return _direct_batch_tallies(cfg.T, net_power, cfg.N0, n, rng)
        return _relay_batch_tallies(cfg, scheme, code, tables, p_s, p_r, n, rng, ws)

    workspace = (lambda: None) if direct else (lambda: _BatchWorkspace(min(batch, frames), cfg.M, cfg.T))
    results = _map_jobs(tallies, jobs, workspace, len(jobs) if cfg.T <= _POOL_MAX_BLOCK else 1)
    block_errors = np.zeros(grid.shape[0], dtype=np.int64)
    bit_errors = np.zeros(grid.shape[0], dtype=np.int64)
    for (pi, _), (blk, bits) in zip(jobs, results):
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


# Largest block length T whose batches run one per core. From T = 3 on, BLAS
# spreads a batch's complex GEMMs over the cores by itself, and a second
# batch thread only competes with it: 16-batch runs on a 2-core host took
# 40-53 ms pooled against 60-86 ms in turn at T = 2, but were no faster
# pooled at T = 3-6 (up to 15% slower at T = 4) and up to 2x slower at T = 8-12
_POOL_MAX_BLOCK = 2


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(fn, jobs: list, workspace, max_workers: int) -> list:
    """[fn(job, ws) for job in jobs] on one thread per usable core, at most max_workers.

    Each thread makes its ws = workspace() once and hands it to every job it
    runs. Results keep the order of jobs. With one worker the jobs run in
    the calling thread. A failing job's error is raised once the jobs not
    yet started are cancelled and the running ones have finished.
    """
    workers = min(_usable_cores(), len(jobs), max_workers)
    if workers <= 1:
        ws = workspace()
        return [fn(job, ws) for job in jobs]
    local = threading.local()

    def run(job):
        if not hasattr(local, "ws"):
            local.ws = workspace()
        return fn(job, local.ws)

    # imported here, not at the top: 7 ms that every run without a pool would pay
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(run, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def effective_relay_count(cfg: NetworkConfig, scheme: Scheme, r_grid, trials: int, seed: int) -> np.ndarray:
    """Average fraction-of-cap power sum E[sum_i p_i / P_i] per distance r.

    Distance r maps to variances gamma_h = 1/r^2 and gamma_g = 1/(1-r)^2,
    which must be positive normal floats; cfg supplies everything else.
    Max power scores exactly M, on-off the mean number of active relays.
    """
    if scheme is Scheme.DIRECT_LINK:
        raise ValueError("effective relay count is undefined for the direct link")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("relay distances must lie strictly inside (0, 1)")
    _check_compat(cfg, scheme, require_codebook=False)
    gammas = [_distance_variances(r) for r in grid.tolist()]

    counts = np.empty(grid.shape[0])
    for ri, (gamma_h, gamma_g) in enumerate(gammas):
        cfg_r = dataclasses.replace(cfg, gamma_h=np.full(cfg.M, gamma_h), gamma_g=np.full(cfg.M, gamma_g))
        counts[ri] = _mean_cap_fraction(cfg_r, scheme, cfg.p_s, cfg.p_r, trials, seed, ri)
    return counts
