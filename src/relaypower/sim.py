"""Monte Carlo link simulation for the distributed space-time coded relay hop.

Each frame draws fresh block fading, runs the configured allocator, pushes
one random BPSK codeword through the physical two-hop chain (relay noise
included, nothing pre-whitened) and decodes by exhaustive maximum
likelihood over all 2^T codewords. Frames are simulated in fixed-size
batches; batch b of SNR point i always consumes the stream derived from
(seed, point i, batch b), so splitting the batches across shards cannot
change any tally. The allocators draw nothing, so every relay scheme of a
run would read the same numbers from that stream. The schemes that share
M, N0 and the variances therefore run as one job list: each batch job
scores the relay schemes from one codebook and one draw, so their curves
are paired (common random numbers), and the direct link from the batch's
stream read afresh.

A batch is vector work over its frames. The receive is r = sqrt(p_s)
sum_i q_i f_i A_i s + sum_i q_i g_i A_i n_i + w (Jing & Hassibi, IEEE TWC
2006), and each sum over relays is one complex GEMM once the dispersion
stack is reshaped: the effective matrices are (n, M) gains @ (M, T^2)
matrices, the forwarded relay noise (n, M T) weighted draws @ (M T, T)
stacked transposes. The decoder needs only Re(C^H C) and Re(C^H r), one
real batched product. numpy runs a stacked product of tiny matrices as
one BLAS call per frame, so at small T the per-frame products C s and
the decoder's statistics are instead built column by column, one vector
operation per term over the whole batch, for block lengths up to
model._COLUMN_WIDTH, the limit of every column form.

A run's jobs are runs of _BATCHES_PER_JOB consecutive batches of one
point, in shard order, up to T = model._COLUMN_WIDTH, and single batches
above it. Each batch of a job draws from its own stream into its rows of
the job's arrays, and the job scores all its rows at once, so the tallies
do not depend on the grouping. _map_jobs runs the jobs one per usable
core at every T and holds BLAS at one thread while they run. A job's
products are small: on a 2-vCPU host a T = 3 transmit of 4096 frames took
15 ms on two OpenBLAS threads against 0.5-0.8 ms on one, and an idle BLAS
thread spins beside the other worker. _map_jobs alone bounds a pool's
memory: jobs start in list order, each within MAX_TRIAL_ENTRIES or alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .codebook import LdCodebook, codeword_signs, generate_codebook
from .model import (
    ChannelRealization,
    CsitMode,
    NetworkConfig,
    PowerAllocation,
    Workspace,
    _BLOCK_ENTRIES,
    _COLUMN_WIDTH,
    _batch_caps,
    _column_argmin,
    _count,
    _finite_array,
    _finite_scalar,
    _row_reduce,
    _sample_channel_powers,
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


def _check_sizes(code: LdCodebook, chan: ChannelRealization, allocation: PowerAllocation) -> None:
    if chan.M != code.M or allocation.M != code.M:
        raise ValueError(f"channel and allocation sizes {chan.M} and {allocation.M} must match the codebook's {code.M}")


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
    _check_sizes(code, chan, allocation)
    if _count(index, "index") >= code.n_codewords:
        raise ValueError(f"codeword index out of range [0, {code.n_codewords})")
    p_s = _finite_scalar(p_s, "p_s")
    N0 = _finite_scalar(N0, "N0", allow_zero=True)
    q = np.sqrt(allocation.p)
    s = codeword_signs(t)[index]
    ws = Workspace()
    noise = _draw_noise([(1, rng)], m, t, N0, ws)
    _, r = _transmit_batch(code, (math.sqrt(p_s) * q * chan.f)[None], (q * chan.g)[None], s[None], noise, ws)
    return r[0]


def ml_decode(
    code: LdCodebook,
    chan: ChannelRealization,
    allocation: PowerAllocation,
    p_s: float,
    r: np.ndarray,
) -> int:
    """Exhaustive ML codeword index; distance ties go to the smallest index."""
    _check_sizes(code, chan, allocation)
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
    bound holds per worker with a job in flight, as the jobs of two
    batches at T <= 2 hold 256 KiB.
    """
    return min(4096, max(64, 2**21 // (2**t * t)))


# Batches per Monte Carlo job at block lengths up to _COLUMN_WIDTH; one above
# it. A T <= 2 batch works in numpy calls of a few thousand entries, and two
# workers mostly took turns on the interpreter lock around them: with one
# batch per job a pooled bler_m2 run made 13 100-15 100 voluntary context
# switches, with two 5 000-5 700, and its run_s fell 20% (2-vCPU host). Two
# batches hold 496 B per frame of workspace at M = T = 2, and bler_m2's peak
# RSS rose from 46.1 to 50.8 MB; three took 4% more off run_s for 55.8 MB
_BATCHES_PER_JOB = 2


def _check_compat(cfg: NetworkConfig, scheme: Scheme) -> None:
    if cfg.csit_mode not in _SCHEME_MODES[scheme]:
        allowed = ", ".join(m.value for m in _SCHEME_MODES[scheme])
        raise ValueError(f"scheme {scheme.value!r} requires csit_mode in ({allowed})")


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
    g2: np.ndarray | None,
    caps: np.ndarray,
    alpha_out: np.ndarray | None = None,
) -> np.ndarray:
    """Relay powers (n, M) of one scheme under cfg's CSIT mode and caps = _batch_caps(cfg, h2, ...).

    h2 = |h|^2 and g2 = |g|^2 are the channel powers; only on-off reads
    them, and it writes alpha = h2 g2 into alpha_out when that is given.
    """
    if scheme is Scheme.MAX_POWER:
        return caps
    if scheme is Scheme.ONOFF:
        return np.where(solve_onoff_masks(np.multiply(h2, g2, out=alpha_out), g2, caps), caps, 0.0)
    if cfg.csit_mode is CsitMode.STATISTICAL:
        # long-term caps repeat one row, so the allocation does too: solve that row once.
        # The objective's a_i = eta gamma_gi gamma_hi never reach the kernel: sum_i ln(a_i)
        # shifts every candidate level's J equally, so the level depends on gamma_g and caps only
        return np.broadcast_to(solve_waterfill_batch(cfg.gamma_g, caps[:1]), caps.shape)
    return solve_waterfill_batch(cfg.gamma_g, caps)


def _power_blocks(cfg: NetworkConfig, n: int, rng: np.random.Generator, ws: Workspace):
    """Yield (rows, h2, g2, caps) per block of _BLOCK_ENTRIES // M rows, or one, of n rows of |h|^2 and |g|^2.

    The powers are drawn once from rng into ws (_sample_channel_powers, 16 B per entry); a block's
    short-term caps (cfg's CSIT mode must be perfect or partial) are ws's "caps", which the next overwrites.
    """
    h2_all, g2_all = _sample_channel_powers(cfg, n, rng, ws)
    step = max(1, _BLOCK_ENTRIES // cfg.M)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        h2 = h2_all[rows]
        yield rows, h2, g2_all[rows], _batch_caps(cfg, h2, cfg.p_s, cfg.p_r, out=ws.take("caps", h2.shape))


# The _relay_counts labels read from its channel draw; "equal" is the
# fraction of rows on which on-off and partial waterfilling allocate alike
_DRAWN_COUNTS = ("onoff", "waterfill_partial", "equal")


def _relay_counts(cfg: NetworkConfig, n: int, rng: np.random.Generator, ws: Workspace,
                  wanted) -> dict[str, float]:
    """E[sum_i p_i / P_i] over n trials of cfg per scheme label, and "equal".

    Max power spends every cap, so it scores M exactly, and statistical
    waterfilling allocates from the variances alone: neither draws. The
    wanted labels of _DRAWN_COUNTS come from one draw of n rows from rng
    into ws, worked in row blocks (_power_blocks); with none wanted nothing
    is drawn. Both allocators treat rows independently, so a block's rows
    give the bits of one whole-array solve; alpha = |h|^2 |g|^2 is a
    block-sized ws array, and the allocation kernels keep their own
    temporaries. Each mean then sums its full column as one array.
    """
    stat = dataclasses.replace(cfg, csit_mode=CsitMode.STATISTICAL)
    # one row of long-term caps, which read only the variances
    caps = _batch_caps(stat, cfg.gamma_h[None], cfg.p_s, cfg.p_r)
    counts = {"max_power": float(cfg.M), "waterfill_statistical": float(np.mean(np.sum(
        _allocate_batch(stat, Scheme.WATERFILL, None, None, caps) / caps, axis=1)))}
    drawn = [label for label in _DRAWN_COUNTS if label in wanted]
    if not drawn:
        return counts
    columns = np.empty((len(drawn), n))
    for rows, h2, g2, caps in _power_blocks(cfg, n, rng, ws):
        # "equal" reads both allocations, each other label one
        p_on = (_allocate_batch(cfg, Scheme.ONOFF, h2, g2, caps, ws.take("alpha", h2.shape))
                if drawn != ["waterfill_partial"] else None)
        p_wf = _allocate_batch(cfg, Scheme.WATERFILL, h2, g2, caps) if drawn != ["onoff"] else None
        for label, column in zip(drawn, columns):
            column[rows] = (np.count_nonzero(p_on, axis=1) if label == "onoff"
                            else np.sum(p_wf / caps, axis=1) if label == "waterfill_partial"
                            else np.all(p_wf == p_on, axis=1))
    return counts | {label: float(np.mean(column)) for label, column in zip(drawn, columns)}


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


def _batch_rows(batches: list):
    """(rows, frames, stream) of each (frames, stream) batch of a job: its slice of the job's rows, in order."""
    lo = 0
    for n, rng in batches:
        yield slice(lo, lo + n), n, rng
        lo += n


def _draw_noise(batches: list, m: int, t: int, N0: float,
                ws: Workspace) -> tuple[np.ndarray, np.ndarray] | None:
    """Relay noise (n, M, T) and destination noise w (n, T) of a job's batches, as ws's "relay_noise" and "w".

    n is the frame total of the (frames, stream) batches, and each batch
    draws into its own rows. Both are drawn as scale (x + 1j y), scale =
    sqrt(N0 / 2): per batch the relay noise real then imaginary, then w
    real then imaginary, each normal block through ws's "normal" and then
    scaled into its part. N0 = 0 returns None and draws nothing.
    """
    if N0 == 0.0:
        return None
    n = sum(size for size, _ in batches)
    scale = math.sqrt(N0 / 2.0)
    relay_noise = ws.take("relay_noise", (n, m, t), np.complex128)
    w = ws.take("w", (n, t), np.complex128)
    for rows, _, rng in _batch_rows(batches):
        for part in (relay_noise[rows].real, relay_noise[rows].imag, w[rows].real, w[rows].imag):
            np.multiply(rng.standard_normal(out=ws.take("normal", part.shape)), scale, out=part)
    return relay_noise, w


def _transmit_batch(
    code: LdCodebook,
    gains: np.ndarray,
    noise_gains: np.ndarray,
    s: np.ndarray,
    noise: tuple[np.ndarray, np.ndarray] | None,
    ws: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Effective matrices C (n, T, T) and receives r (n, T) of n frames, as ws's "c" and "r".

    gains[b, i] = sqrt(p_s) q_i f_i weighs A_i in C, noise_gains[b, i] =
    q_i g_i weighs relay i's forwarded noise, s (n, T) holds the sent signs
    and noise the (relay noise, w) of _draw_noise, which this only reads.
    Each sum over relays is one complex GEMM against the stacked dispersion
    matrices. The noise sum comes first: the weighted relay noise goes
    through ws's "c", of C's (n, M, T) size as M = T, and its (n, T) sum
    seen as complex through ws's "normal"; then C overwrites "c", and
    r = C s, r += the noise sum, r += w, the additions in that order. With
    no noise r = C s. Up to T = _COLUMN_WIDTH, C s is summed column by
    column over the batch, each term through ws's "product", and the relay
    noise is weighted one noise entry at a time; above it, they are the
    stacked and the broadcast products. With s = +-1 each term of C s is
    exact, and a sum of two exact terms rounds the same in either order, so
    r keeps the stacked product's value whatever the BLAS; r += 0.0 gives an
    all-zero sum the +0.0 of a BLAS that adds into a zeroed r.
    """
    n = gains.shape[0]
    m, t, _ = code.matrices.shape
    by_columns = t <= _COLUMN_WIDTH
    if noise is not None:
        relay_noise, w = noise
        # sum_i (q_i g_i n_i)^T A_i^T: row b holds the weighted n_i back to back,
        # block i of the stack is A_i^T
        weighted = ws.take("c", relay_noise.shape, np.complex128)
        if by_columns:  # entry j of every relay's n_i at once, each a flat strided product
            for j in range(t):
                np.multiply(relay_noise[:, :, j], noise_gains, out=weighted[:, :, j])
        else:
            np.multiply(relay_noise, noise_gains[:, :, None], out=weighted)
        noise_sum = np.matmul(weighted.reshape(n, m * t), code.matrices.transpose(0, 2, 1).reshape(m * t, t),
                              out=ws.take("normal", (n, 2 * t)).view(np.complex128))
    c = ws.take("c", (n, t, t), np.complex128)
    r = ws.take("r", (n, t), np.complex128)
    np.matmul(gains, code.matrices.reshape(m, t * t), out=c.reshape(n, t * t))
    if by_columns:
        product = ws.take("product", (n,))
        for part, r_part in ((c.real, r.real), (c.imag, r.imag)):
            for i in range(t):
                _multiply_add(r_part[:, i], [(part[:, i, j], s[:, j]) for j in range(t)], product)
        r += 0.0
    else:
        np.matmul(c, s[:, :, None], out=r[:, :, None])
    if noise is not None:
        r += noise_sum
        r += w
    return c, r


def _relay_batch_tallies(
    runs: list[tuple[NetworkConfig, Scheme]],
    code: LdCodebook,
    tables: _DecodeTables,
    p_s: float,
    p_r: float,
    batches: list[tuple[int, np.random.Generator]],
    ws: Workspace,
) -> list[tuple[int, int]]:
    """Block and bit errors of a job's (frames, stream) batches for each (cfg, scheme) of runs, worked in ws.

    The runs share M, N0 and the variances, so one draw serves them all.
    Each batch draws from its own stream into its consecutive rows of the
    job's ws arrays, in the order a one-batch job takes it: h and g, the
    codeword indices, then the relay noise and w (_draw_noise). Each run
    then takes its caps, allocation, gains, transmit and decode once over
    all the job's rows, so its tallies are the sums of one-batch jobs'. No
    run writes over the draws: |h|^2, h, g, the scaled relay noise and w
    keep their ws arrays, and so does |g|^2, squared once when an on-off
    run reads it. Each run's caps, q, gain vectors, C and r are ws arrays
    of their own that the next run reuses.
    """
    cfg = runs[0][0]
    m, t = code.M, code.T
    n = sum(size for size, _ in batches)
    # "normal" at the largest shape this job takes it (relay noise, or the
    # complex noise sum at T = 1), so a worker's first job maps it once
    ws.take("normal", (n, max(m, 2) * t))
    h, g = (ws.take(name, (n, m), np.complex128) for name in ("h", "g"))
    k = np.empty(n, dtype=np.int64)
    for rows, size, rng in _batch_rows(batches):
        sample_channel_batch(cfg, size, rng, ws, out=(h[rows], g[rows]))
        k[rows] = rng.integers(0, code.n_codewords, size=size)
    noise = _draw_noise(batches, m, t, cfg.N0, ws)
    h2 = ws.take("h2", h.shape)
    np.square(np.abs(h, out=h2), out=h2)
    g2 = None
    if any(scheme is Scheme.ONOFF for _, scheme in runs):
        g2 = ws.take("g2", h.shape)
        np.square(np.abs(g, out=g2), out=g2)
    s = tables.signs[k]
    tallies = []
    for cfg, scheme in runs:
        caps = _batch_caps(cfg, h2, p_s, p_r, out=ws.take("caps", h.shape))
        p = _allocate_batch(cfg, scheme, h2, g2, caps, ws.take("alpha", h.shape))
        q = np.sqrt(p, out=ws.take("q", h.shape))
        # the plain products q g and (sqrt(p_s) q) h g
        noise_gains = np.multiply(q, g, out=ws.take("noise_gains", h.shape, np.complex128))
        q *= math.sqrt(p_s)
        gains = np.multiply(q, h, out=ws.take("gains", h.shape, np.complex128))
        gains *= g
        c, r = _transmit_batch(code, gains, noise_gains, s, noise, ws)
        k_hat = _ml_decode_batch(c, r, tables, ws)
        tallies.append((int(np.count_nonzero(k_hat != k)), int(tables.popcounts[k ^ k_hat].sum())))
    return tallies


def _ml_decode_batch(c: np.ndarray, r: np.ndarray, tables: _DecodeTables, ws: Workspace) -> np.ndarray:
    """Exhaustive ML indices for effective matrices c (n, T, T) and receives r (n, T).

    BPSK symbols are real, so ||r - C s||^2 = ||r||^2 + tr Re(C^H C)
    + 2 sum_{i<j} s_i s_j Re(C^H C)_ij - 2 s . Re(C^H r). Dropping the
    terms every candidate shares and the factor 2 leaves one real GEMM of
    the statistics [Re(C^H C)_{i<j}, -Re(C^H r)] against tables.basis. Ties
    go to the smallest index.

    Up to T = _COLUMN_WIDTH the statistics are the rows of ws's (P, n)
    "stats", each summed over the real then the imaginary parts by
    multiply-adds over the batch (ws's "product" holds each term); the
    (2^T, n) metrics, ws's "metrics", are one GEMM, and a scan over their
    at most 4 rows takes the first minimum. Their last bits differ from the
    batched product's, but no decision moved: 0 of 2.87 M at T = 2 and of
    1.15 M at T = 1, over every relay scheme from -10 to 40 dB. Above it
    the statistics come from one real batched product: with
    X = [Re C | Re r ; Im C | Im r] of shape (n, 2T, T+1),
    X[:, :, :T]^T X = [Re(C^H C) | Re(C^H r)]. X and the statistics are
    ws's "x" and "stats".
    """
    n, t, _ = c.shape
    iu, ju = tables.pairs
    if t <= _COLUMN_WIDTH:
        stats = ws.take("stats", (iu.size + t, n))
        product = ws.take("product", (n,))
        parts = ((c.real, r.real), (c.imag, r.imag))
        for row, i, j in zip(stats, iu, ju):
            _multiply_add(row, [(part[:, u, i], part[:, u, j]) for part, _ in parts for u in range(t)], product)
        for row, i in zip(stats[iu.size:], range(t)):
            _multiply_add(row, [(part[:, u, i], r_part[:, u]) for part, r_part in parts for u in range(t)], product)
            np.negative(row, out=row)
        metrics = np.matmul(tables.basis, stats, out=ws.take("metrics", (tables.basis.shape[0], n)))
        return _column_argmin(metrics.T)
    x = ws.take("x", (n, 2 * t, t + 1))
    x[:, :t, :t] = c.real
    x[:, t:, :t] = c.imag
    x[:, :t, t] = r.real
    x[:, t:, t] = r.imag
    stats = np.matmul(x[:, :, :t].transpose(0, 2, 1), x, out=ws.take("stats", (n, t, t + 1)))
    return np.argmin(np.concatenate([stats[:, iu, ju], -stats[:, :, t]], axis=1) @ tables.basis.T, axis=1)


def _multiply_add(out: np.ndarray, terms: list, product: np.ndarray) -> None:
    """out = the sum of a * b over the (a, b) of terms, added in order; product takes each term."""
    np.multiply(*terms[0], out=out)
    for a, b in terms[1:]:
        out += np.multiply(a, b, out=product)


def _direct_batch_tallies(t: int, power: float, N0: float,
                          batches: list[tuple[int, np.random.Generator]]) -> tuple[int, int]:
    """Coherent BPSK over one unit-variance Rayleigh coefficient per block, over a job's (frames, stream) batches.

    Each stream gives its batch's c = (x + 1j y) / sqrt(2), the bits b of
    the signs s = 1 - 2 b, and w = sqrt(N0 / 2) (u + 1j v), in that order,
    into the batch's rows; the receive is r = sqrt(power) c s + w, and a bit
    is read as 0 where Re(conj(c) r) >= 0. All of it is worked in reals with
    numpy's complex rounding: the division by sqrt(2) is a product with its
    reciprocal, and r_r = sqrt(power) c_r s + sqrt(N0 / 2) u term by term.
    Only the last sum rounds apart: numpy's complex product fuses c_r r_r
    into its sum with the rounded c_i r_i, where this rounds c_r r_r first,
    so the two signs can differ only where fl(c_r r_r) = -fl(c_i r_i) exactly.
    """
    n = sum(size for size, _ in batches)
    c_r, c_i = np.empty((n, 1)), np.empty((n, 1))
    bits = np.empty((n, t), dtype=np.int64)
    w_r, w_i = np.empty((n, t)), np.empty((n, t))
    for rows, size, rng in _batch_rows(batches):
        for part in (c_r[rows, 0], c_i[rows, 0]):
            rng.standard_normal(out=part)
        bits[rows] = rng.integers(0, 2, size=(size, t))
        for part in (w_r[rows], w_i[rows]):
            rng.standard_normal(out=part)
    c_r *= 1.0 / math.sqrt(2.0)
    c_i *= 1.0 / math.sqrt(2.0)
    w_r *= math.sqrt(N0 / 2.0)
    w_i *= math.sqrt(N0 / 2.0)
    s = 1.0 - 2.0 * bits
    amp = math.sqrt(power)
    # each half of c_r r_r + c_i r_i formed in place in its w: the same products and sums
    for c, w in ((c_r, w_r), (c_i, w_i)):
        w += (amp * c) * s
        w *= c
    w_r += w_i
    errs = (w_r >= 0.0) == (bits == 1)
    return int(np.count_nonzero(_row_reduce(np.logical_or, errs))), int(np.count_nonzero(errs))


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
    every frame: it is solved once per job and repeated. Batch b of
    point i draws from stream (seed, i, b) wherever it runs, and every
    job, of two batches up to T = 2 and of one above, works in its
    worker's Workspace. The jobs run one per usable core at every T, each
    worker with its own workspace and BLAS on its own thread (_map_jobs).
    The tallies are integer sums, so neither the shard count, which only
    orders the fixed batch schedule, nor the grouping of batches into jobs,
    nor the number of cores changes them. This is the one-scheme call of
    _run_schemes, which runs every scheme of a cell, the direct link
    included, in one job list: the tallies here are those the scheme
    scores there, where the relay schemes' are paired (common random
    numbers).
    """
    return _run_schemes([(cfg, scheme)], snr_grid_db, frames, seed,
                        network_power_sweep=network_power_sweep, shards=shards)[0]


def _run_schemes(runs: list[tuple[NetworkConfig, Scheme]], snr_grid_db, frames: int, seed: int, *,
                 network_power_sweep: bool = False, shards: int = 1) -> list[SimResult]:
    """run_monte_carlo of each (cfg, scheme) of runs, every scheme from each batch's stream.

    The runs must share M, N0 and the variances, or this is a ValueError.
    Each point's batches, in shard order, form jobs of _BATCHES_PER_JOB
    consecutive batches up to T = _COLUMN_WIDTH, of one above it. A job
    scores every relay scheme of runs from one draw of each of its
    batches' streams and one codebook (_relay_batch_tallies), and the
    direct link from those streams read afresh from their start
    (_direct_batch_tallies), so each run's tallies are those it scores
    alone, one batch at a time.
    """
    frames = _count(frames, "frames", MIN_FRAMES)
    shards = _count(shards, "shards", 1)
    for c, scheme in runs:
        _check_compat(c, scheme)
    cfg = runs[0][0]
    if any(c.M != cfg.M or c.N0 != cfg.N0 or not np.array_equal(c.gamma_h, cfg.gamma_h)
           or not np.array_equal(c.gamma_g, cfg.gamma_g) for c, _ in runs):
        raise ValueError("schemes run together must share M, N0, gamma_h and gamma_g")
    grid = np.atleast_1d(np.asarray(snr_grid_db, dtype=np.float64))
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"snr grid must be a non-empty 1-d array, got shape {grid.shape}")

    start = time.perf_counter()
    relay = [run for run in runs if run[1] is not Scheme.DIRECT_LINK]
    if relay:  # the direct link needs no codebook
        code = generate_codebook(cfg.M, seed)
        tables = _DecodeTables.for_block(cfg.M)

    batch = _batch_size(cfg.M)
    n_batches = -(-frames // batch)
    powers = [_point_powers(cfg, float(snr), network_power_sweep) for snr in grid]
    # shards past n_batches would be empty: shards stays the stride, not the loop count
    order = [bi for shard in range(min(shards, n_batches)) for bi in range(shard, n_batches, shards)]
    per_job = _BATCHES_PER_JOB if cfg.M <= _COLUMN_WIDTH else 1
    jobs = [(pi, order[lo:lo + per_job]) for pi in range(grid.shape[0]) for lo in range(0, n_batches, per_job)]

    def tallies(job, ws):
        pi, group = job
        p_s, p_r, net_power = powers[pi]

        def batches():
            return [(min(batch, frames - bi * batch), derive_rng(seed, STREAM_FRAMES, pi, bi)) for bi in group]

        scored = iter(_relay_batch_tallies(relay, code, tables, p_s, p_r, batches(), ws) if relay else ())
        return [_direct_batch_tallies(cfg.M, net_power, cfg.N0, batches())
                if scheme is Scheme.DIRECT_LINK else next(scored) for _, scheme in runs]

    results = _map_jobs(tallies, jobs)
    # errors[run, point, block or bit]
    errors = np.zeros((len(runs), grid.shape[0], 2), dtype=np.int64)
    for (pi, _), scored in zip(jobs, results):
        errors[:, pi] += scored
    elapsed = time.perf_counter() - start
    return [SimResult(
        scheme=scheme_label(scheme, c.csit_mode),
        seed=seed,
        block_bits=cfg.M,
        snr_db=grid,
        frames=np.full(grid.shape[0], frames, dtype=np.int64),
        block_errors=errors[ri, :, 0],
        bit_errors=errors[ri, :, 1],
        elapsed_s=elapsed,
    ) for ri, (c, scheme) in enumerate(runs)]


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Channel entries the running jobs of one _map_jobs call may hold together.
# The relay counts and the convergence run keep |h|^2 and |g|^2, 16 bytes per
# entry in the job's own workspace (268 MB at the bound), and solve them in row
# blocks of model._BLOCK_ENTRIES entries; a convergence cell also holds its
# trajectory (experiments._convergence_entries). At M = 64, 195 000 trials
# and 10 iterations (200 MB of draws) a convergence run peaked at 901 MB
# solving all trials at once, 268 MB in 2^18-entry blocks and 248 MB in
# 2^15-entry ones (one fresh run each, 2-vCPU host, numpy 2.4)
MAX_TRIAL_ENTRIES = 2**24


def _map_jobs(fn, jobs: list, weights: list | None = None) -> list:
    """[fn(job, ws) for job in jobs] on one thread per usable core, at most one per job, BLAS on one thread.

    weights[k] counts the channel entries job k holds. Weighted jobs start in
    list order, each once its weight fits MAX_TRIAL_ENTRIES beside the running
    jobs', or once they hold none: a job over the budget runs without the
    others. Each gets a Workspace ws of its own, freed when it ends, so no
    draws outlive their admission. Without weights each thread hands one ws to
    every job it runs. Results keep the order of jobs; with one worker the
    jobs run in the calling thread. BLAS is held at one thread until the last
    job ends (_one_blas_thread), so a job's products run on the thread that
    calls them. A failing job's error is raised once the jobs no thread has
    picked up are cancelled and the others have finished.
    """
    local = threading.local()
    admit = threading.Condition()
    turn = held = 0  # the next job to start; the running jobs' weights

    def run(k):
        nonlocal turn, held
        if weights is None:
            return fn(jobs[k], vars(local).setdefault("ws", Workspace()))
        with admit:
            admit.wait_for(lambda: turn == k and (not held or held + weights[k] <= MAX_TRIAL_ENTRIES))
            turn, held = turn + 1, held + weights[k]
            admit.notify_all()
        try:
            return fn(jobs[k], Workspace())
        finally:
            with admit:
                held -= weights[k]
                admit.notify_all()

    workers = min(_usable_cores(), len(jobs))
    with _one_blas_thread():
        if workers <= 1:
            return [run(k) for k in range(len(jobs))]
        # imported here, not at the top: 7 ms that every run without a pool would pay
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        try:
            return list(pool.map(run, range(len(jobs))))
        finally:
            pool.shutdown(cancel_futures=True)


@functools.cache
def _blas_thread_calls():
    """OpenBLAS's (get_num_threads, set_num_threads) as numpy links it, or None under another BLAS.

    numpy's wheels carry OpenBLAS with a scipy_openblas prefix and a 64_
    suffix on its symbols; a system OpenBLAS has neither. A handle on
    numpy's linalg extension finds the symbols of the libraries it links.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# The BLAS thread count each _one_blas_thread block found on entry, in the
# order the blocks entered; the last block to leave restores the first count
_blas_counts: list[int] = []
_blas_counts_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread until the block ends; without OpenBLAS's setter, do nothing.

    The count is process-wide, so blocks on other threads (two runs at
    once) share one hold: the first sets 1, the last restores the count
    the first found.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_counts_lock:
        _blas_counts.append(get())
        set_(1)
    try:
        yield
    finally:
        with _blas_counts_lock:
            count = _blas_counts.pop()
            if not _blas_counts:
                set_(count)


def effective_relay_count(cfg: NetworkConfig, scheme: Scheme, r_grid, trials: int, seed: int) -> np.ndarray:
    """Average fraction-of-cap power sum E[sum_i p_i / P_i] per distance r.

    Distance r maps to variances gamma_h = 1/r^2 and gamma_g = 1/(1-r)^2,
    which must be positive normal floats; cfg supplies everything else.
    Max power scores exactly M, on-off the mean number of active relays.
    Distance ri draws from channel stream (seed, ri).
    """
    if scheme is Scheme.DIRECT_LINK:
        raise ValueError("effective relay count is undefined for the direct link")
    trials = _count(trials, "trials", 1)
    grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if grid.ndim != 1:
        raise ValueError(f"relay distances must be a 1-d array, got shape {grid.shape}")
    if not np.all((grid > 0.0) & (grid < 1.0)):  # a NaN fails too
        raise ValueError("relay distances must lie strictly inside (0, 1)")
    _check_compat(cfg, scheme)
    gammas = [_distance_variances(r) for r in grid.tolist()]
    label = scheme_label(scheme, cfg.csit_mode)
    counts = np.empty(grid.shape[0])
    ws = Workspace()
    for ri, (gamma_h, gamma_g) in enumerate(gammas):
        cfg_r = dataclasses.replace(cfg, gamma_h=np.full(cfg.M, gamma_h), gamma_g=np.full(cfg.M, gamma_g))
        counts[ri] = _relay_counts(cfg_r, trials, derive_rng(seed, STREAM_CHANNELS, ri), ws, [label])[label]
    return counts
