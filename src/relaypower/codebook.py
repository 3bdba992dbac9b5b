"""Linear-dispersion codebooks for distributed space-time coding.

Relay i applies a fixed unitary T x T matrix A_i to its received block,
so the destination sees the codeword matrix S(s) = [A_1 s, ..., A_M s]
for the BPSK source vector s. This construction needs exactly M = T
dispersion matrices. The diversity-governing constant of a codebook is

    lambda_min = min_{k != l} eigmin((S_k - S_l)^H (S_k - S_l)),

the worst-case pairwise Gram eigenvalue over all 2^T (2^T - 1) / 2
codeword pairs. It is computed lazily, on first read: nothing in the
simulation needs its value (statistical waterfilling runs with eta = 1,
since eta only shifts its objective by a constant). Generation only needs
to know that lambda_min clears a small floor, which a batched Cholesky
test of the same pattern Grams decides (`is_full_diversity`). The last
64 codebooks are cached per (T, seed) within the process, so schemes that
share a seed share one instance.

Both scans split a difference pattern d = 2(h, t) into a head h, its first
T - k entries, and a tail t, its last k = min(T, 4). With b[u, v]_ij =
(A_i^H A_j)[u, v], G(h, t) = Q_H(h) + Q_T(t) + sum_u 2 h_u Y_u(t) and
Y_u(t) = sum_v 2 t_v (b[u, v] + b[v, u]). The h = 0 patterns are Q_T of
the tails with a positive lead. Each block of 12 heads with a positive
lead meets [Y; Q_T] a few tails at a time: per piece of 8 tails, one GEMM
of [2h, 1] against the piece's columns (inner dimension T - k + 1) into
one reused buffer, plus the heads' own quadratic forms Q_H(h). Each piece
is one batched Cholesky (or eigvalsh) of the scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import _finite_array
from .rng import STREAM_CODEBOOK, derive_rng

# Exhaustive ML decoding scans all 2^T codewords, and the generation guard
# checks all (3^T - 1)/2 difference patterns; past this block length both
# are intractable.
MAX_BLOCK = 12

_UNITARY_TOL = 1e-10
_REGEN_ATTEMPTS = 8
# A drawn codebook is kept only if every pattern Gram has lambda_min above this.
_DIVERSITY_FLOOR = 1e-9
# Tail length, heads per block and tails per piece of the Gram scans: ten
# pieces of 8 tails and one of 1 cover the 3^4 tails, up to 12 x 8 = 96 Grams
# per Cholesky. A piece's GEMM (m.n.k = 12 x 2304 x 9 at T = 12) stays on the
# calling thread, as OpenBLAS 0.3.31 splits this shape only above about 0.75 M;
# one GEMM over all 81 tails (2.5 M) wakes a second thread, which then spins
# through the single-threaded Cholesky calls. The 221 KB buffer stays in cache.
# An even count keeps every Gram bit-equal to one GEMM over all 81 tails: with
# an odd one, the one-row last head block at odd T (a GEMV in OpenBLAS)
# rounded some entries differently. At T = 12 (2 vCPUs, numpy 2.4) the guard
# took 0.44-0.72 s of wall and as much CPU, against 0.49-0.66 s of wall and
# 0.96-1.31 s of CPU over all 81 tails at once.
_TAIL = 4
_HEAD_BLOCK = 12
_TAIL_PIECE = 8


def codeword_signs(T: int) -> np.ndarray:
    """All 2^T BPSK vectors, row k holding the signs for codeword index k.

    Bit t of k (most significant first) maps to symbol 1 - 2*bit, so
    index 0 is the all-plus-one vector and the enumeration is
    lexicographic in the symbol sequence.
    """
    if not 1 <= T <= MAX_BLOCK:
        raise ValueError(f"T must be in [1, {MAX_BLOCK}]")
    k = np.arange(2**T)[:, None]
    bits = (k >> np.arange(T - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.float64)


def _sign_grid(k: int) -> np.ndarray:
    """All 3^k rows of {-1,0,1}^k in lexicographic order; the middle one is zero."""
    return np.indices((3,) * k, dtype=np.int8).reshape(k, -1).T - 1


def _difference_patterns(T: int) -> np.ndarray:
    """Nonzero rows of {-1,0,1}^T with positive leading entry.

    Every codeword difference s_k - s_l equals 2e for one such e (up to
    global sign, which leaves the Gram matrix unchanged), so these (3^T - 1)/2
    rows of the sign grid after its zero row cover all codeword pairs exactly.
    """
    return _sign_grid(T)[(3**T + 1) // 2:]


def _check_stack(matrices) -> np.ndarray:
    """matrices as a finite complex (T, T, T) array with T >= 1; not copied."""
    a = _finite_array(matrices, "dispersion stack", np.complex128)
    if a.ndim != 3 or not 1 <= a.shape[0] == a.shape[1] == a.shape[2]:
        raise ValueError("dispersion stack must have shape (T, T, T) with T >= 1")
    return a


def _quadratic_form(b: np.ndarray):
    """d -> sum_{u,v} d_u d_v b[u, v] over the rows of d, one real GEMM of the pair products."""
    iu, iv = np.triu_indices(b.shape[0])
    coeff = b[iu, iv] + np.where((iu != iv)[:, None, None], b[iv, iu], 0.0)
    # interleaved real/imaginary columns: the GEMM output is a complex view
    coeff = np.ascontiguousarray(coeff.reshape(iu.shape[0], -1)).view(np.float64)
    return lambda d: ((d[:, iu] * d[:, iv]) @ coeff).view(np.complex128).reshape(-1, *b.shape[2:])


def _pattern_grams(matrices: np.ndarray, shift: float):
    """Yield G(d) - shift*I for every difference pattern d, in pieces (module docstring).

    A yielded array is valid only until the next one: the head pieces share one buffer.
    """
    matrices = _check_stack(matrices)
    t = matrices.shape[0]
    k = min(t, _TAIL)
    n_head = t - k
    b = np.einsum("itu,jtv->uvij", matrices.conj(), matrices)
    tails = 2.0 * _sign_grid(k)
    q_tail = _quadratic_form(b[n_head:, n_head:])(tails)
    q_tail.reshape(-1, t * t)[:, ::t + 1] -= shift
    yield q_tail[(3**k + 1) // 2:]  # head zero, tail with a positive lead
    if n_head == 0:
        return
    # rows Y_u(t) for each head coordinate u, then Q_T(t)
    cross = b[:n_head, n_head:] + b[n_head:, :n_head].transpose(1, 0, 2, 3)
    rhs = np.concatenate([np.einsum("nv,uvij->unij", tails, cross), q_tail[None]])
    rhs = rhs.reshape(n_head + 1, -1).view(np.float64)
    q_head = _quadratic_form(b[:n_head, :n_head])
    heads = np.ones(((3**n_head - 1) // 2, n_head + 1))  # rows [2h, 1]
    heads[:, :n_head] = 2.0 * _difference_patterns(n_head)
    width = 2 * t * t  # float64 columns per tail
    buf = np.empty(_HEAD_BLOCK * _TAIL_PIECE * width)
    for lo in range(0, heads.shape[0], _HEAD_BLOCK):
        block = heads[lo:lo + _HEAD_BLOCK]
        q_block = q_head(block[:, :n_head])[:, None]
        for first in range(0, 3**k, _TAIL_PIECE):
            cols = rhs[:, first * width:(first + _TAIL_PIECE) * width]
            out = buf[:block.shape[0] * cols.shape[1]].reshape(block.shape[0], -1)
            grams = np.matmul(block, cols, out=out).view(np.complex128)
            grams = grams.reshape(block.shape[0], -1, t, t)
            grams += q_block
            yield grams.reshape(-1, t, t)


def min_pairwise_eigenvalue(matrices: np.ndarray) -> float:
    """lambda_min of the codebook built from the given dispersion stack."""
    return min(float(np.linalg.eigvalsh(g)[:, 0].min()) for g in _pattern_grams(matrices, 0.0))


def is_full_diversity(matrices: np.ndarray) -> bool:
    """True when min_pairwise_eigenvalue(matrices) exceeds the 1e-9 floor.

    lambda_min(G) > eps exactly when G - eps*I has a Cholesky factor, so
    each head/tail piece of the module docstring, with -eps*I carried in
    Q_T, is one batched Cholesky; the first that fails ends the scan.
    """
    for grams in _pattern_grams(matrices, _DIVERSITY_FLOOR):
        try:
            np.linalg.cholesky(grams)
        except np.linalg.LinAlgError:
            return False
    return True


@dataclass(frozen=True)
class LdCodebook:
    """Unitary dispersion stack; its worst-pair eigenvalue is computed on first read."""

    matrices: np.ndarray

    def __post_init__(self):
        a = _check_stack(self.matrices).copy()
        t = a.shape[0]
        if t > MAX_BLOCK:
            raise ValueError(f"block length {t} exceeds the supported maximum {MAX_BLOCK}")
        eye = np.eye(t)
        for i, mat in enumerate(a):
            if np.max(np.abs(mat.conj().T @ mat - eye)) > _UNITARY_TOL:
                raise ValueError(f"dispersion matrix {i} is not unitary")
        a.setflags(write=False)
        object.__setattr__(self, "matrices", a)

    @cached_property
    def lambda_min(self) -> float:
        return min_pairwise_eigenvalue(self.matrices)

    @property
    def T(self) -> int:
        return self.matrices.shape[1]

    @property
    def M(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_codewords(self) -> int:
        return 2**self.T

    def eta(self, p_s: float, N0: float) -> float:
        """Chernoff exponent scale lambda_min * p_s / (4 N0)."""
        return self.lambda_min * p_s / (4.0 * N0)


def generate_codebook(T: int, seed: int) -> LdCodebook:
    """Draw T Haar-random unitary dispersion matrices.

    Each matrix is the Q factor of a complex Gaussian sample with the R
    diagonal's phases divided out, which makes the distribution exactly
    Haar. A codebook that fails the full-diversity guard is redrawn from
    a fresh derived stream. The result is a pure function of (T, seed)
    and immutable, so the last 64 codebooks are cached and shared.
    """
    if not 1 <= T <= MAX_BLOCK:
        raise ValueError(f"T must be in [1, {MAX_BLOCK}]")
    return _draw_codebook(T, seed)


@lru_cache(maxsize=64)
def _draw_codebook(T: int, seed: int) -> LdCodebook:
    for attempt in range(_REGEN_ATTEMPTS):
        code = LdCodebook(matrices=_haar_stack(T, derive_rng(seed, STREAM_CODEBOOK, attempt)))
        if is_full_diversity(code.matrices):
            return code
    raise RuntimeError("failed to draw a full-diversity codebook")


def _haar_stack(T: int, rng: np.random.Generator) -> np.ndarray:
    mats = np.empty((T, T, T), dtype=np.complex128)
    for i in range(T):
        z = (rng.standard_normal((T, T)) + 1j * rng.standard_normal((T, T))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        mats[i] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return mats
