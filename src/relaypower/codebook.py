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
the tails with a positive lead; each block of 12 heads with a positive
lead is one GEMM of [2h, 1] against [Y; Q_T] over all 3^k tails (inner
dimension T - k + 1), plus its own quadratic forms Q_H(h).
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
# Tail length and heads per block of the Gram scans, 3^4 x 12 = 972 Grams per
# Cholesky: at T = 12 (2 vCPUs, numpy 2.4) the guard's median went from 0.83 s,
# with one GEMM over all 78 pair products per 1024 patterns, to 0.63 s.
_TAIL = 4
_HEAD_BLOCK = 12


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


def _check_stack(matrices: np.ndarray) -> int:
    if matrices.ndim != 3 or not 1 <= matrices.shape[0] == matrices.shape[1] == matrices.shape[2]:
        raise ValueError("dispersion stack must have shape (T, T, T) with T >= 1")
    return matrices.shape[0]


def _quadratic_form(b: np.ndarray):
    """d -> sum_{u,v} d_u d_v b[u, v] over the rows of d, one real GEMM of the pair products."""
    iu, iv = np.triu_indices(b.shape[0])
    coeff = b[iu, iv] + np.where((iu != iv)[:, None, None], b[iv, iu], 0.0)
    # interleaved real/imaginary columns: the GEMM output is a complex view
    coeff = np.ascontiguousarray(coeff.reshape(iu.shape[0], -1)).view(np.float64)
    return lambda d: ((d[:, iu] * d[:, iv]) @ coeff).view(np.complex128).reshape(-1, *b.shape[2:])


def _pattern_grams(matrices: np.ndarray, shift: float):
    """Yield G(d) - shift*I for every difference pattern d, in blocks (module docstring)."""
    t = _check_stack(matrices)
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
    for lo in range(0, heads.shape[0], _HEAD_BLOCK):
        block = heads[lo:lo + _HEAD_BLOCK]
        grams = (block @ rhs).view(np.complex128).reshape(block.shape[0], -1, t, t)
        grams += q_head(block[:, :n_head])[:, None]
        yield grams.reshape(-1, t, t)


def min_pairwise_eigenvalue(matrices: np.ndarray) -> float:
    """lambda_min of the codebook built from the given dispersion stack."""
    return min(float(np.linalg.eigvalsh(g)[:, 0].min()) for g in _pattern_grams(matrices, 0.0))


def is_full_diversity(matrices: np.ndarray) -> bool:
    """True when min_pairwise_eigenvalue(matrices) exceeds the 1e-9 floor.

    lambda_min(G) > eps exactly when G - eps*I has a Cholesky factor, so
    each head/tail block of the module docstring, with -eps*I carried in
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
        a = _finite_array(self.matrices, "dispersion stack", np.complex128).copy()
        t = _check_stack(a)
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


def save_codebook(path, code: LdCodebook) -> None:
    """Write the dispersion stack as plain text for exact replay.

    First line is "T"; each matrix follows as T rows of interleaved
    real/imaginary pairs with 17 significant digits, which round-trips
    IEEE doubles exactly. lambda_min is never stored; a loaded codebook
    computes it on first read.
    """
    lines = [str(code.T)]
    for row in code.matrices.reshape(-1, code.T):
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path) -> LdCodebook:
    """Inverse of save_codebook; a malformed file is a ValueError that starts with the path."""
    with open(path) as fh:
        lines = [ln for ln in (line.strip() for line in fh) if ln]
    try:
        t = int(lines[0])
        if t < 1:
            raise ValueError("block length below 1")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed codebook header") from exc
    expected = 1 + t * t
    if len(lines) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(lines)}")
    mats = np.empty((t * t, t), dtype=np.complex128)
    try:
        for n, line in enumerate(lines[1:]):
            vals = np.array([float(x) for x in line.split()])
            if vals.shape[0] != 2 * t:
                raise ValueError(f"matrix {n // t} row {n % t} has wrong width")
            mats[n].real, mats[n].imag = vals[0::2], vals[1::2]
        return LdCodebook(matrices=mats.reshape(t, t, t))
    except ValueError as exc:  # a non-numeric entry, a wrong width, or a stack LdCodebook rejects
        raise ValueError(f"{path}: {exc}") from exc
