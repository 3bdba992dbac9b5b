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
test of the same pattern Grams decides (`is_full_diversity`). Codebooks
are cached per (T, seed) within the process, so schemes that share a seed
share one instance.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import STREAM_CODEBOOK, derive_rng

# Exhaustive ML decoding scans all 2^T codewords, and the generation guard
# checks all (3^T - 1)/2 difference patterns; past this block length both
# are intractable.
MAX_BLOCK = 12

_UNITARY_TOL = 1e-10
_REGEN_ATTEMPTS = 8
# A drawn codebook is kept only if every pattern Gram has lambda_min above this.
_DIVERSITY_FLOOR = 1e-9
_GUARD_CHUNK = 1024
_CACHE_SIZE = 64
_CACHE: OrderedDict[tuple[int, int], LdCodebook] = OrderedDict()


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


def _difference_patterns(T: int) -> np.ndarray:
    """Nonzero rows of {-1,0,1}^T with positive leading entry.

    Every codeword difference s_k - s_l equals 2e for one such e (up to
    global sign, which leaves the Gram matrix unchanged), so scanning
    these (3^T - 1)/2 patterns covers all codeword pairs exactly.
    """
    blocks = []
    # leading +1 at position `lead`, any tail after it; the blocks run from
    # the last lead to the first so the rows come out in lexicographic order
    for lead in range(T - 1, -1, -1):
        k = T - lead - 1
        block = np.zeros((3**k, T), dtype=np.int8)
        block[:, lead] = 1
        block[:, lead + 1:] = np.indices((3,) * k, dtype=np.int8).reshape(k, 3**k).T - 1
        blocks.append(block)
    return np.concatenate(blocks)


def _check_stack(matrices: np.ndarray) -> int:
    m, t, t2 = matrices.shape
    if t != t2 or m != t:
        raise ValueError("dispersion stack must have shape (T, T, T)")
    return t


def min_pairwise_eigenvalue(matrices: np.ndarray) -> float:
    """lambda_min of the codebook built from the given dispersion stack."""
    t = _check_stack(matrices)
    d = 2.0 * _difference_patterns(t).astype(np.float64)
    smallest = np.inf
    chunk = 8192
    for lo in range(0, d.shape[0], chunk):
        dc = d[lo:lo + chunk]
        # w[i, :, k] = A_i d_k; Gram G_k[i, j] = (A_i d_k)^H (A_j d_k)
        w = matrices @ dc.T.astype(np.complex128)
        gram = np.einsum("itk,jtk->kij", w.conj(), w)
        eigs = np.linalg.eigvalsh(gram)
        smallest = min(smallest, float(eigs[:, 0].min()))
    return smallest


def is_full_diversity(matrices: np.ndarray) -> bool:
    """True when min_pairwise_eigenvalue(matrices) exceeds the 1e-9 floor.

    Decided without eigenvalues: lambda_min(G) > eps exactly when
    G - eps*I is positive definite, i.e. has a Cholesky factor. For a real
    pattern d, G(d)[i, j] = sum_{u,v} d_u d_v (A_i^H A_j)[u, v] is a
    quadratic form in d, so each chunk of pattern Grams is one real GEMM
    of the pair products d_u d_v (u <= v) against the symmetrized
    coefficients.
    """
    t = _check_stack(matrices)
    # b[u, v, i, j] = (A_i^H A_j)[u, v]
    b = np.einsum("itu,jtv->uvij", matrices.conj(), matrices)
    iu, iv = np.triu_indices(t)
    coeff = b[iu, iv] + np.where((iu != iv)[:, None, None], b[iv, iu], 0.0)
    # interleaved real/imaginary columns: the GEMM output is a complex view
    coeff = np.ascontiguousarray(coeff.reshape(iu.shape[0], t * t)).view(np.float64)
    patterns = _difference_patterns(t)
    for lo in range(0, patterns.shape[0], _GUARD_CHUNK):
        dc = 2.0 * patterns[lo:lo + _GUARD_CHUNK].astype(np.float64)
        gram = ((dc[:, iu] * dc[:, iv]) @ coeff).view(np.complex128).reshape(-1, t, t)
        gram.reshape(-1, t * t)[:, ::t + 1] -= _DIVERSITY_FLOOR
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
    return True


@dataclass(frozen=True)
class LdCodebook:
    """Unitary dispersion stack; its worst-pair eigenvalue is computed on first read."""

    matrices: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=np.complex128).copy()
        if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] != a.shape[1]:
            raise ValueError("matrices must be a stack of shape (T, T, T)")
        t = a.shape[1]
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
    and immutable, so the last few codebooks are cached and shared.
    """
    if not 1 <= T <= MAX_BLOCK:
        raise ValueError(f"T must be in [1, {MAX_BLOCK}]")
    key = (T, seed)
    code = _CACHE.get(key)
    if code is None:
        code = _draw_codebook(*key)
        _CACHE[key] = code
        if len(_CACHE) > _CACHE_SIZE:
            _CACHE.popitem(last=False)
    else:
        _CACHE.move_to_end(key)
    return code


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
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        mats[i] = q * phases
    return mats


def save_codebook(path, code: LdCodebook) -> None:
    """Write the dispersion stack as plain text for exact replay.

    First line is "T"; each matrix follows as T rows of interleaved
    real/imaginary pairs with 17 significant digits, which round-trips
    IEEE doubles exactly. lambda_min is never stored; a loaded codebook
    computes it on first read.
    """
    lines = [str(code.T)]
    for mat in code.matrices:
        for row in mat:
            parts = []
            for z in row:
                parts.append(f"{z.real:.17g}")
                parts.append(f"{z.imag:.17g}")
            lines.append(" ".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path) -> LdCodebook:
    """Inverse of save_codebook; validates shape and unitarity."""
    with open(path) as fh:
        lines = [ln for ln in (line.strip() for line in fh) if ln]
    try:
        t = int(lines[0])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed codebook header") from exc
    expected = 1 + t * t
    if len(lines) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(lines)}")
    mats = np.empty((t, t, t), dtype=np.complex128)
    for i in range(t):
        for row in range(t):
            vals = np.array([float(x) for x in lines[1 + i * t + row].split()])
            if vals.shape[0] != 2 * t:
                raise ValueError(f"{path}: matrix {i} row {row} has wrong width")
            mats[i, row] = vals[0::2] + 1j * vals[1::2]
    return LdCodebook(matrices=mats)
