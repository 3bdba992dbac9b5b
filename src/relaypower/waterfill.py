"""Waterfilling power allocation for partial and statistical CSIT.

In log-power coordinates the surrogate J is strictly concave, and its KKT
conditions collapse to a single water level mu: every relay transmits at
p_i = min(mu / gamma_gi, P_i). Candidate levels come from assuming the j
smallest P_i*gamma_gi products are capped,

    mu_j = (1 + sum_{i<=j} P_(i) gamma_g(i)) / j,   j = 1..M,

clamping each into the feasible interval [1/M, mu_M] and recomputing the
capped set from the clamped level itself. The best candidate under J is
the optimizer. Every relay ends up strictly positive: silence is never
optimal when only the second hop is uncertain.

The raw levels are V-shaped in j: mu_{j+1} is a weighted mean of mu_j and
the next sorted product, so the sequence falls while that product lies
below mu_j and rises after, and its minimum is the self-consistent level.
The batch solver therefore takes that minimum's clamped level directly,
in O(n M) memory, and scores J over all M candidates only the rare rows
where another level lies within rounding reach of it, so it returns the
same bits as a full scan (tested up to M = 200 and P*gamma_g ~ 1e300).
Its row sort, prefix sums, minimum and near-tie test, and its products
and quotients with a row of per-relay values, go through model's
_row_* helpers and _by_column, which at M <= 2 work one column at a time
over all rows and return numpy's bits.

That kernel is the only code that picks a water level. Partial CSIT runs
it per frame, statistical CSIT on the one row of long-term caps per job,
and the scalar solve_waterfill is a one-row wrapper, so the same (gamma_g, caps) gets the
same allocation bits under every CSIT mode. The level never depends on
the coefficients a_i: sum_i ln(a_i) shifts every candidate's J equally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PowerAllocation,
    _by_column,
    _positive_batch,
    _positive_vector,
    _row_cumsum,
    _row_reduce,
    _row_sort,
)
from .objectives import log_objective_J


@dataclass(frozen=True)
class WaterfillResult:
    """Solved allocation, its water level and J, and the relays held at their caps."""

    allocation: PowerAllocation
    mu_star: float
    J_star: float
    at_cap: np.ndarray


# A full scan can prefer a level other than the least clamped one only when
# rounding outweighs the J gap between them. J is flat to second order
# there, so the level gap of such a flip grows like the square root of the
# rounding in J, which grows with ln(P gamma_g): on constructed near-ties,
# flips reached 8e-7 relative at P gamma_g ~ 1e30, 1.6e-6 at ~ 1e100 and
# 2.1e-6 at ~ 1e300 (M = 40 and 200). This one margin is the whole
# bit-identity argument: a row with no level inside it keeps the least
# level unscored.
_NEAR_TIE_RTOL = 1e-4


def _best_candidate(gamma_g: np.ndarray, caps: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """First-index argmax of J over each row's M candidate levels mu, shape (r, M).

    Builds the (r, M, M) candidate allocations in one buffer, so memory is
    O(r M^2); only the near-tie rows are scored.
    """
    m = caps.shape[1]
    p_cand = mu[:, :, None] / gamma_g[None, None, :]
    np.minimum(p_cand, caps[:, None, :], out=p_cand)
    denom = 1.0 + np.einsum("ijk,k->ij", p_cand, gamma_g)
    ln_p = np.log(p_cand, out=p_cand)
    j_cand = np.sum(ln_p, axis=2) - m * np.log(denom)
    return np.argmax(j_cand, axis=1)


def solve_waterfill_batch(gamma_g: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Vectorized waterfilling over a batch of cap vectors.

    Args:
        gamma_g: second-hop variances, shape (M,), shared by the batch;
            finite and strictly positive.
        caps: amplifier caps, shape (n, M); finite and strictly positive.

    Returns:
        Allocations of shape (n, M). J is scored without its additive
        sum(ln a_i) term, which never affects the argmax, so only gamma_g
        and the caps enter.

    Raises:
        ValueError: for a wrong shape or a non-finite or non-positive entry.

    With s_(1) <= ... <= s_(M) the sorted products P_i*gamma_gi, the raw
    levels mu_j are V-shaped in j: mu_{j+1} = (j mu_j + s_(j+1)) / (j + 1)
    is a weighted mean of mu_j and s_(j+1), so the sequence falls while
    s_(j+1) < mu_j and rises once s_(j+1) > mu_j, and its minimum j* is
    the self-consistent level, the optimizer. Each row takes the clamped
    level mu_j* directly. Rounding can let a full scan (J at every clamped
    level, first-index argmax) prefer another level, but none was ever
    seen more than 2.1e-6 relative from mu_j*. So only rows with a clamped
    level in (mu_j*, mu_j* (1 + _NEAR_TIE_RTOL)] are scored over all M
    candidates, with the full scan's arithmetic; any other row gets the
    full scan's level or one equal to it, and the result equals the full
    scan bit for bit. Memory is O(n M), plus O(r M^2) for the r scored
    rows. The 1e-4 margin is empirical and alone carries the bit-identity
    argument: bit identity is tested for M up to 40 on random and tied
    rows and for M = 200 on near-ties with P*gamma_g up to ~1e300, where
    the widest flip seen was 2.1e-6 relative.
    """
    caps = _positive_batch(caps, "caps")
    gamma_g = _positive_vector(gamma_g, caps.shape[1], "gamma_g")
    # named rather than a temporary: freeing the levels before the division
    # raised asym_m32's peak RSS by 2.6 MB (glibc heap layout, M = 32)
    mu_star = _water_levels(gamma_g, caps)
    return np.minimum(_by_column(np.divide, np.broadcast_to(mu_star, caps.shape), gamma_g), caps)


def _water_levels(gamma_g: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Clamped optimal water level of each row, shape (n, 1), for validated inputs."""
    m = caps.shape[1]
    # one buffer goes from the products to the clamped levels in place; the
    # in-place ufuncs round exactly as their out-of-place forms
    mu = _by_column(np.multiply, caps, gamma_g)
    # only the sorted values are used, and equal floats are interchangeable,
    # so any sort kind gives the same bits; numpy's default one is the faster
    # at large M (6x at M = 32), and at M <= 2 a column sort beats both
    _row_sort(mu)
    _row_cumsum(mu)
    mu += 1.0
    _by_column(np.divide, mu, np.arange(1, m + 1), mu)
    # clamp into [1/M, mu_max]: a raw level is at least 1/j >= 1/M in floats
    # too, so only the upper end binds
    mu_max = mu[:, -1:].copy()
    np.minimum(mu, mu_max, out=mu)
    # the clamp is monotone, so the least clamped level is the clamped
    # level at the argmin of the raw ones, the V-shape's minimum
    mu_star = _row_reduce(np.minimum, mu)[:, None]
    near = (mu > mu_star) & (mu <= mu_star * (1.0 + _NEAR_TIE_RTOL))
    rescore = _row_reduce(np.logical_or, near)
    if np.any(rescore):
        mu_rows = mu[rescore]
        best = _best_candidate(gamma_g, caps[rescore], mu_rows)
        mu_star[rescore] = np.take_along_axis(mu_rows, best[:, None], axis=1)
    return mu_star


def solve_waterfill(obj, caps) -> WaterfillResult:
    """Maximize J over the cap box: one row of solve_waterfill_batch's kernel.

    The returned allocation satisfies the KKT pattern: p_i = P_i exactly
    for relays with P_i*gamma_gi <= mu_star and p_i*gamma_gi = mu_star for
    the rest. Since mu_star >= 1/M > 0, no relay is ever silenced. J_star
    is log_objective_J at that allocation.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    mu_star = float(_water_levels(obj.gamma_g, caps[None])[0, 0])
    p = np.minimum(mu_star / obj.gamma_g, caps)
    return WaterfillResult(
        allocation=PowerAllocation(p=p, caps=caps),
        mu_star=mu_star,
        J_star=log_objective_J(obj, p),
        at_cap=caps * obj.gamma_g <= mu_star,
    )


def waterfill_m2_closed_form(obj, caps) -> PowerAllocation:
    """Two-relay waterfilling without candidate search.

    With s_i = P_i * gamma_gi: when s_2 >= s_1 + 1 relay 1 is capped and
    relay 2 takes p_2 = (1 + s_1)/gamma_g2; the mirrored case swaps roles;
    otherwise both relays are capped. Matches solve_waterfill bit for bit
    away from the branch boundary and exactly on it, at P_2 = (1 + s_1)/gamma_g2
    (0 of 10 000 random draws differ). A cap one ulp from the boundary can
    round into the other branch than the solver's: in 10 000-draw scans,
    480 caps one ulp above and 1193 one ulp below gave allocations that
    differ, by at most 2.2e-16 relative.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    if obj.M != 2:
        raise ValueError("closed form is defined for M = 2")
    g1, g2 = obj.gamma_g
    s1, s2 = caps[0] * g1, caps[1] * g2
    if s2 >= s1 + 1.0:
        p = np.array([caps[0], (1.0 + s1) / g2])
    elif s1 >= s2 + 1.0:
        p = np.array([(1.0 + s2) / g1, caps[1]])
    else:
        p = caps.copy()
    return PowerAllocation(p=p, caps=caps)
