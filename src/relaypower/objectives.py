"""Pairwise-error-probability objectives for the three CSIT regimes.

With perfect CSIT the Chernoff bound on the worst codeword pair is
exp(-eta * f0(p)) with

    f0(p) = sum_i alpha_i p_i / (1 + sum_i beta_i p_i),
    alpha_i = |h_i g_i|^2,  beta_i = |g_i|^2,

where eta folds the code's minimum eigenvalue and the source SNR. With
partial CSIT the bound is averaged over the second hop and tightened by a
saddle-point argument into prod_i (1 + rho_i)^-1; with statistical CSIT
the first hop is averaged too, which brings in the exponential integral.
The waterfilling solver maximizes the concave surrogate

    J(p) = sum_i ln(a_i p_i / (1 + sum_j gamma_gj p_j)),

which drops the +1 inside each log factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import _count, _finite_array, _finite_scalar, _positive_vector
from .rng import derive_rng

_EULER_GAMMA = 0.5772156649015328606

# Fixed chunk size for Monte Carlo accumulation; summation over chunks is
# order-independent, so results do not depend on how work is distributed.
_MC_CHUNK = 10_000
# saddle_point_error's floor on its Monte Carlo draws, for a usable error bar
SADDLE_MIN_TRIALS = 10_000
# largest float whose square is finite
_MAX_SQUARABLE = math.sqrt(sys.float_info.max)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    Power series below x = 1, modified Lentz continued fraction above;
    both are pushed to ~1e-15 relative so downstream bounds keep 1e-12
    absolute accuracy.
    """
    x = _check_e1_arg(x)
    if x <= 1.0:
        return _e1_series(x)
    return exp_integral_e1_scaled(x) * math.exp(-x)


def exp_integral_e1_scaled(x: float) -> float:
    """exp(x) * E1(x) for x > 0, finite where exp(x) alone overflows.

    Same two branches as exp_integral_e1: the series times exp(x) up to
    x = 1, and the continued fraction without its exp(-x) factor above.
    """
    x = _check_e1_arg(x)
    if x <= 1.0:
        return _e1_series(x) * math.exp(x)
    # Lentz evaluation of e^x E1(x) = 1 / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _check_e1_arg(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError("E1 requires x > 0")
    return x


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_k (-1)^{k+1} x^k / (k * k!)
    total = -_EULER_GAMMA - math.log(x)
    term = x
    k = 1
    while abs(term) > 1e-17 * max(abs(total), 1.0):
        total += term
        k += 1
        term *= -x * (k - 1) / (k * k)
    return total


@dataclass(frozen=True)
class PerfectCsitObjective:
    """Coefficients of f0 for one channel realization."""

    alpha: np.ndarray
    beta: np.ndarray
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive_vector(self.alpha, None, "alpha", allow_zero=True))
        object.__setattr__(self, "beta", _positive_vector(self.beta, None, "beta", allow_zero=True))
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha and beta must have equal length")
        _finite_scalar(self.eta, "eta")

    @classmethod
    def from_channels(cls, h, g, eta: float) -> "PerfectCsitObjective":
        g2 = np.abs(np.asarray(g)) ** 2
        return cls(alpha=np.abs(np.asarray(h)) ** 2 * g2, beta=g2, eta=eta)

    @property
    def M(self) -> int:
        return self.alpha.shape[0]


def f0_value(obj: PerfectCsitObjective, p) -> float:
    """Receive-SNR-like ratio maximized by the on-off allocation."""
    p = _positive_vector(p, obj.M, "p", allow_zero=True)
    return float(np.dot(obj.alpha, p) / (1.0 + np.dot(obj.beta, p)))


def f0_gradient(obj: PerfectCsitObjective, p) -> np.ndarray:
    """Gradient of f0; component i is (alpha_i(1+B) - beta_i A) / (1+B)^2.

    A and B are the active sums dot(alpha, p) and dot(beta, p). The i-th
    numerator only involves the other relays' terms, which is what makes
    the sign pattern usable as a stationarity certificate.
    """
    p = _positive_vector(p, obj.M, "p", allow_zero=True)
    a_sum = float(np.dot(obj.alpha, p))
    b_sum = float(np.dot(obj.beta, p))
    denom = 1.0 + b_sum
    return (obj.alpha * denom - obj.beta * a_sum) / (denom * denom)


def pep_bound_perfect(obj: PerfectCsitObjective, p) -> float:
    """Chernoff bound exp(-eta * f0(p)) on the dominant pairwise error."""
    return math.exp(-obj.eta * f0_value(obj, p))


def _validate_rate_coeffs(obj) -> None:
    object.__setattr__(obj, "a", _positive_vector(obj.a, None, "a", allow_zero=True))
    object.__setattr__(obj, "gamma_g", _positive_vector(obj.gamma_g, obj.M, "gamma_g"))


@dataclass(frozen=True)
class PartialCsitObjective:
    """Coefficients a_i = eta * gamma_gi * |h_i|^2 for the averaged bound."""

    a: np.ndarray
    gamma_g: np.ndarray

    def __post_init__(self):
        _validate_rate_coeffs(self)

    @classmethod
    def from_channels(cls, h, gamma_g, eta: float) -> "PartialCsitObjective":
        _finite_scalar(eta, "eta")
        gamma_g = np.asarray(gamma_g, dtype=np.float64)
        return cls(a=eta * gamma_g * np.abs(np.asarray(h)) ** 2, gamma_g=gamma_g)

    @property
    def M(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class StatisticalCsitObjective:
    """Same algebraic shape as the partial objective with a_i = eta*gamma_gi*gamma_hi."""

    a: np.ndarray
    gamma_g: np.ndarray

    def __post_init__(self):
        _validate_rate_coeffs(self)

    @classmethod
    def from_variances(cls, gamma_h, gamma_g, eta: float) -> "StatisticalCsitObjective":
        _finite_scalar(eta, "eta")
        gamma_h = np.asarray(gamma_h, dtype=np.float64)
        gamma_g = np.asarray(gamma_g, dtype=np.float64)
        return cls(a=eta * gamma_g * gamma_h, gamma_g=gamma_g)

    @property
    def M(self) -> int:
        return self.a.shape[0]


def rho_values(obj, p) -> np.ndarray:
    """Per-relay effective SNR terms rho_i = a_i p_i / (1 + sum_j gamma_gj p_j)."""
    p = _positive_vector(p, obj.M, "p", allow_zero=True)
    return obj.a * p / (1.0 + float(np.dot(obj.gamma_g, p)))


def pep_bound_partial(obj: PartialCsitObjective, p) -> float:
    """Second-hop-averaged pairwise error bound prod_i (1 + rho_i)^-1."""
    return float(np.prod(1.0 / (1.0 + rho_values(obj, p))))


def f1_value(obj, p) -> float:
    """Exact log-domain objective sum_i ln(1 + rho_i).

    Equals -ln(pep_bound_partial). Exposed for evaluation and diagnostics
    only: it is neither concave nor convex in p, so the solver maximizes
    the concave surrogate J instead.
    """
    return float(np.sum(np.log1p(rho_values(obj, p))))


def pep_bound_statistical_exact(obj: StatisticalCsitObjective, p) -> float:
    """Fully averaged bound prod_i rho_i^-1 exp(1/rho_i) E1(1/rho_i).

    Requires every rho_i > 0; each factor lies in (0, 1).
    """
    rho = rho_values(obj, p)
    if np.any(rho <= 0.0):
        raise ValueError("statistical bound requires strictly positive rho_i")
    out = 1.0
    for r in rho:
        inv = 1.0 / r
        out *= inv * exp_integral_e1_scaled(inv)
    return out


def pep_bound_statistical_asymptotic(obj: StatisticalCsitObjective, p) -> float:
    """High-SNR approximation prod_i ln(rho_i)/rho_i; NaN when any rho_i <= 1.

    The NaN flags an invalid-domain evaluation (the approximation only
    makes sense once every rho_i exceeds 1) without raising mid-sweep.
    """
    rho = rho_values(obj, p)
    if np.any(rho <= 1.0):
        return math.nan
    return float(np.prod(np.log(rho) / rho))


def log_objective_J(obj, p) -> float:
    """Concave surrogate J(p) = sum_i ln(a_i p_i / (1 + sum_j gamma_gj p_j)).

    Concave in the log-power coordinates p_tilde = ln p, which is the
    domain the waterfilling solver works in. Requires p_i > 0.
    """
    p = _positive_vector(p, obj.M, "p")
    denom = 1.0 + float(np.dot(obj.gamma_g, p))
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(obj.a * p)) - obj.M * math.log(denom))


@dataclass(frozen=True)
class SaddleComparison:
    """Monte Carlo estimate of the averaged PEP kernel vs its product bound."""

    mc_estimate: float
    mc_stderr: float
    bound: float
    rel_error: float

    @property
    def rel_error_stderr(self) -> float:
        """Delta-method standard error of rel_error (bound is deterministic); infinite
        when the estimate's square underflows or the error's own square would overflow."""
        square = self.mc_estimate**2
        value = self.mc_stderr * self.bound / square if square > 0.0 else math.inf
        return value if value <= _MAX_SQUARABLE else math.inf


def saddle_point_error(h, gamma_g, p, eta: float, trials: int, seed: int) -> SaddleComparison:
    """Compare prod_i (1+rho_i)^-1 against direct Monte Carlo averaging.

    Estimates E_g[exp(-eta * sum_i |h_i|^2 p_i |g_i|^2 / (1 + sum_i p_i |g_i|^2))]
    with g_i ~ CN(0, gamma_gi) and returns the relative deviation of the
    saddle-point product bound from that estimate, infinite when every
    sampled kernel underflows to 0. Chunked accumulation with per-chunk
    derived streams keeps the result reproducible.
    """
    h = _finite_array(h, "h", np.complex128)
    if h.ndim != 1:
        raise ValueError(f"h must be a 1-d array, got shape {h.shape}")
    gamma_g = _positive_vector(gamma_g, h.shape[0], "gamma_g")
    p = _positive_vector(p, h.shape[0], "p", allow_zero=True)
    eta = _finite_scalar(eta, "eta", allow_zero=True)
    # fewer trials leave no usable error bar
    trials = _count(trials, "trials", SADDLE_MIN_TRIALS)

    h2 = np.abs(h) ** 2
    denom = 1.0 + float(np.dot(gamma_g, p))
    rho = eta * gamma_g * h2 * p / denom
    bound = float(np.prod(1.0 / (1.0 + rho)))

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_idx = 0
    m = h2.shape[0]
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        rng = derive_rng(seed, chunk_idx)
        g = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * np.sqrt(gamma_g / 2.0)
        g2 = np.abs(g) ** 2
        num = g2 @ (h2 * p)
        den = 1.0 + g2 @ p
        vals = np.exp(-eta * num / den)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += n
        chunk_idx += 1

    mc = total / trials
    var = max(total_sq / trials - mc * mc, 0.0)
    stderr = math.sqrt(var / trials)
    return SaddleComparison(
        mc_estimate=mc,
        mc_stderr=stderr,
        bound=bound,
        # every sample's kernel underflowed: the average cannot resolve the bound
        rel_error=abs(mc - bound) / mc if mc > 0.0 else math.inf,
    )
