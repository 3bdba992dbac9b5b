"""On-off power allocation under perfect CSIT.

f0 = A / (1 + B) is quasi-linear in each coordinate, so its maximum over
the box [0, P_1] x ... x [0, P_M] sits at a vertex: every relay transmits
at its cap or stays silent. Relay i's gradient has the sign of |h_i|^2 -
f0, with |h_i|^2 = alpha_i / beta_i, and the paper's iteration switches
on exactly {i : |h_i|^2 > f0(current set)} at every update. That is
Dinkelbach's method for max A / (1 + B) (Management Science 1967): in
exact arithmetic f0 rises strictly until it reaches max f0, and the only
fixed point is S* = {i : |h_i|^2 > max f0}, the optimal vertex with the
fewest relays: a relay with |h_i|^2 = max f0 cannot raise f0, so it is off.

S* is the one answer, and solve_onoff_masks is the only code that decides
it: S* is a threshold set on |h|^2, so one sort finds it, and the rows
the kernel cannot certify in floats go to one exact rational scan (see
there). solve_onoff_batch and solve_onoff also run the iteration, for
callers that read its trajectory, and flag a trajectory not ending on S*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PowerAllocation, _positive_batch, _positive_vector, _row_argmax, _row_argsort, _row_cumsum
from .objectives import PerfectCsitObjective, f0_value

MAX_ITERATIONS = 100
# solve_onoff_masks hands a row to the exact scan when some |h_i|^2 lies
# within this relative distance of the row's f0: over 5e4 times the
# update's rounding band at M = 40
CERTIFICATE_MARGIN = 1e-9


@dataclass
class OnOffTrace:
    """Trajectory of one run of the iteration.

    iterates[k] is the allocation after k updates, objective_values its f0.
    used_fallback is True when the trajectory did not end on S*, the answer
    solve_onoff returns: the iteration did not settle in floats, or settled
    on another float fixed point.
    """

    iterates: list = field(default_factory=list)
    objective_values: list = field(default_factory=list)
    iterations: int = 0
    used_fallback: bool = False


@dataclass(frozen=True)
class M2Discriminant:
    """Sign certificates for the two-relay closed form.

    delta = alpha_1 beta_2 - beta_1 alpha_2 shares its sign with
    |h_1|^2 - |h_2|^2; xi1_at_cap2 and xi2_at_cap1 are the numerators of
    df0/dp_1 at p_2 = P_2 and df0/dp_2 at p_1 = P_1.
    """

    delta: float
    xi1_at_cap2: float
    xi2_at_cap1: float


def _check_gains(alpha, beta, caps) -> tuple[np.ndarray, np.ndarray]:
    checked = []
    for name, x in (("alpha", alpha), ("beta", beta)):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != caps.shape:
            raise ValueError(f"{name} must have the shape of caps, {caps.shape}")
        # min and max are NaN when any entry is; -0.0 passes
        if x.size and not (x.min() >= 0.0 and x.max() < np.inf):
            raise ValueError(f"{name} must be finite and non-negative")
        checked.append(x)
    return checked[0], checked[1]


def solve_onoff(
    obj: PerfectCsitObjective,
    caps,
    start: np.ndarray | None = None,
) -> tuple[PowerAllocation, OnOffTrace]:
    """Optimal vertex S* of one instance and the iteration's trajectory to it.

    start is the boolean on-mask of the first vertex, all relays on by
    default. Returns (allocation, trace): S* at the caps, from
    solve_onoff_masks, and every vertex the iteration visited with its f0.
    This is solve_onoff_batch on one row.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    if start is not None:
        start = np.asarray(start, dtype=bool)[None]
    masks, iterations, fallback, iterates = solve_onoff_batch(
        obj.alpha[None], obj.beta[None], caps[None], history=MAX_ITERATIONS, start=start
    )
    trace = OnOffTrace(iterations=int(iterations[0]), used_fallback=bool(fallback[0]))
    for mask in iterates[0, : trace.iterations + 1]:
        trace.iterates.append(np.where(mask, caps, 0.0))
        trace.objective_values.append(f0_value(obj, trace.iterates[-1]))
    return PowerAllocation(p=np.where(masks[0], caps, 0.0), caps=caps), trace


def solve_onoff_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    caps: np.ndarray,
    history: int = 0,
    start: np.ndarray | None = None,
):
    """On-off gradient iteration over a batch of instances, answered with S*.

    Args:
        alpha, beta: arrays of shape (n, M), finite and non-negative.
        caps: array of shape (n, M), finite and strictly positive.
        history: if positive, also return the on-patterns at iterates
            0..history-1 (later columns repeat a row's last iterate once
            it stops).
        start: optional (n, M) boolean on-pattern to start from; the
            default starts every row all-on.

    Returns:
        (masks, iterations, fallback, iterates): S* from solve_onoff_masks,
        the updates each row made before it stopped, the rows whose
        trajectory did not end on S*, and an (n, history, M) boolean
        array, or None unless requested.

    Raises:
        ValueError: for mismatched shapes or an entry out of range.

    A row stops when its pattern reproduces itself, at a float fixed point
    that on near-ties can miss S* by relays at f0 within rounding; when its
    float f0 fails to rise, going round in rounding noise (near-ties in
    |h|^2, or 1 + B rounding to B); or after MAX_ITERATIONS updates.
    """
    optimum = solve_onoff_masks(alpha, beta, caps)  # checks the input
    alpha, beta, caps = (np.asarray(x, dtype=np.float64) for x in (alpha, beta, caps))
    n, m = caps.shape
    if start is None:
        masks = np.ones((n, m), dtype=bool)
    else:
        masks = np.array(start, dtype=bool)
        if masks.shape != (n, m):
            raise ValueError("start mask shape must match alpha")
    iterations = np.zeros(n, dtype=np.int64)
    f_prev = np.full(n, -np.inf)
    iterates = np.empty((n, history, m), dtype=bool) if history > 0 else None

    # products past the float range give inf, f0 or the gradient NaN: the row stops
    with np.errstate(over="ignore", invalid="ignore"):
        ac = alpha * caps
        bc = beta * caps
        for step in range(MAX_ITERATIONS):
            if step < history:
                iterates[:, step] = masks
            a_sum = np.sum(np.where(masks, ac, 0.0), axis=1)
            b_sum = np.sum(np.where(masks, bc, 0.0), axis=1)
            # gradient sign: alpha_i (1 + B) - beta_i A > 0
            new_masks = alpha * (1.0 + b_sum)[:, None] - beta * a_sum[:, None] > 0.0
            settled = np.all(new_masks == masks, axis=1)
            # a stopped row keeps its pattern and f0, so it stays stopped; so does a NaN f0
            f = a_sum / (1.0 + b_sum)
            advance = ~settled & (f > f_prev)
            if not np.any(advance):
                break
            masks = np.where(advance[:, None], new_masks, masks)
            iterations += advance
            f_prev = f
    if iterates is not None:
        iterates[:, step + 1 :] = masks[:, None]

    fallback = ~settled | np.any(masks != optimum, axis=1)
    return optimum, iterations, fallback, iterates


def solve_onoff_masks(alpha: np.ndarray, beta: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Exact optimal on-patterns S* from one sort per row, no iteration.

    Args:
        alpha, beta: arrays of shape (n, M), finite and non-negative.
        caps: array of shape (n, M), finite and strictly positive.

    Returns:
        (n, M) boolean masks: on each row the exact fewest-relay maximizer
        S* of f0.

    Raises:
        ValueError: for mismatched shapes or an entry out of range.

    Each row sorts its relays by |h_i|^2 = alpha_i / beta_i, takes prefix
    sums of alpha P and beta P in that order, and picks S, the first
    argmax of f0 = A / (1 + B) over the M + 1 threshold sets (the empty
    set first). With f = f0(S) from the prefix sums, a row is kept only if:

    - cut: S is exactly the relays whose key is at least that of its
      weakest relay (no relay left out has the same key);
    - fixed point: the update alpha_i (1 + B) - beta_i A > 0, from the
      prefix sums of S, reproduces S;
    - margin: no relay has |alpha_i - beta_i f| < CERTIFICATE_MARGIN beta_i f,
      that is no |h_i|^2 within 1e-9 relative of f.

    Why these suffice, barring underflow to subnormal numbers: every sum
    has non-negative terms, so in any order it is within M eps relative
    of the exact one, and the update's sign is the exact sign of |h_i|^2 -
    f0 for every relay outside a band of relative width 2 (M + 2) eps
    around f0 (1.5e-14 at M = 32). The margin is over 5e4 times wider up
    to M = 40, so the two tests prove that S is the exact fixed point of
    the update, which is S* alone; an overflow, or its NaN, fails a test.
    Rows that fail get S* from the exact scan: none of the 713 000 rows of
    the three perfbench workloads, at seed 0 or 17. Tested against an exact
    certificate for M = 1..40 with ties and 1-ulp near-ties at f0(S*),
    heavy and light relays next to it, zero gains, and alpha and beta
    scaled by 1e-150..1e150. Memory is O(n M). The sort, prefix sums and
    argmax go through model's _row_* helpers, which at M <= 2 work one
    column at a time over all rows, with numpy's bits.
    """
    caps = _positive_batch(caps, "caps")
    alpha, beta = _check_gains(alpha, beta, caps)
    n, m = caps.shape
    # keys 1 / |h|^2; alpha = 0 gives inf (beta > 0) or nan (beta = 0),
    # sorted last, after every relay that can raise f0; an overflow fails a test
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        keys = beta / alpha
        rows = np.arange(0, n * m, m)
        order = _row_argsort(keys)
        order += rows[:, None]  # flat indices
        # column k - 1 holds A and 1 + B of the k strongest relays
        a = np.take(alpha * caps, order)
        b = np.take(beta * caps, order)
        _row_cumsum(a)
        _row_cumsum(b)
        b += 1.0
        j = _row_argmax(a / b)
        pick = rows + j
        a_set = np.take(a, pick)
        b_set = np.take(b, pick)
        del a, b, pick
        # the empty set, f0 = 0, comes first and wins ties
        k = np.where(a_set > 0.0, j + 1, 0)
        a_set[k == 0] = 0.0
        b_set[k == 0] = 1.0
        # rows to hand to the exact scan: the cut test first. S is every key up
        # to that of its weakest relay, unless the strongest relay left out has
        # the same key
        weakest = np.take(keys, np.take(order, rows + np.maximum(k - 1, 0)))
        next_out = np.take(keys, np.take(order, rows + np.minimum(k, m - 1)))
        redo = (next_out == weakest) & (k > 0) & (k < m)
        masks = keys <= np.where(k > 0, weakest, -np.inf)[:, None]
        del keys, order

        # fixed-point and margin tests, relay by relay
        grad = alpha * b_set[:, None]
        tmp = beta * a_set[:, None]
        grad -= tmp
        bad = (grad > 0.0) != masks
        np.multiply(beta, (a_set / b_set)[:, None], out=tmp)  # beta_i f
        np.subtract(alpha, tmp, out=grad)
        np.abs(grad, out=grad)
        tmp *= CERTIFICATE_MARGIN
        bad |= ~(grad >= tmp)  # a NaN fails
    redo[np.nonzero(bad.ravel())[0] // m] = True
    if np.any(redo):
        masks[redo] = _exact_optimum(alpha[redo], beta[redo], caps[redo])
    return masks


def _exact_optimum(alpha: np.ndarray, beta: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """S* of each row of (k, M) arrays, from exact Fraction products and sums.

    Relays with alpha = 0 never raise f0 and stay off; the rest go strongest
    |h|^2 = alpha / beta first, beta = 0 leading. Along these prefixes f0
    rises while the next key is above it and never again, and a key equal
    to the maximum leaves it unchanged, so the first strict maximum of
    A / (1 + B) is the fewest-relay optimum S*.
    """
    # imported here, not at the top: 3.6 ms that every run without such rows would pay
    from fractions import Fraction

    masks = np.zeros(alpha.shape, dtype=bool)
    for mask, a_row, b_row, c_row in zip(masks, alpha.tolist(), beta.tolist(), caps.tolist()):
        ac = [Fraction(x) * Fraction(c) for x, c in zip(a_row, c_row)]
        bc = [Fraction(x) * Fraction(c) for x, c in zip(b_row, c_row)]
        order = sorted((i for i in range(len(ac)) if ac[i]), key=lambda i: bc[i] / ac[i])
        a, b, best, k = Fraction(0), Fraction(1), Fraction(0), 0
        for j, i in enumerate(order, 1):
            a += ac[i]
            b += bc[i]
            f = a / b
            if f > best:
                best, k = f, j
        mask[order[:k]] = True
    return masks


def m2_discriminant(obj: PerfectCsitObjective, caps) -> M2Discriminant:
    """Closed-form sign certificates for the two-relay instance."""
    caps = _positive_vector(caps, obj.M, "caps")
    if obj.M != 2:
        raise ValueError("discriminant is defined for M = 2")
    a1, a2 = obj.alpha
    b1, b2 = obj.beta
    delta = a1 * b2 - b1 * a2
    return M2Discriminant(
        delta=delta,
        xi1_at_cap2=a1 + delta * caps[1],
        xi2_at_cap1=a2 - delta * caps[0],
    )


def onoff_m2_closed_form(obj: PerfectCsitObjective, caps) -> PowerAllocation:
    """Two-relay optimum from the discriminant sign pattern, no iteration.

    The better first-hop relay always transmits; the other is silenced
    exactly when its gradient at the full-power corner is non-positive,
    i.e. when delta leaves the band (-alpha_1/P_2, alpha_2/P_1).
    """
    caps = _positive_vector(caps, obj.M, "caps")
    d = m2_discriminant(obj, caps)
    if d.xi2_at_cap1 <= 0.0:
        p = np.array([caps[0], 0.0])
    elif d.xi1_at_cap2 <= 0.0:
        p = np.array([0.0, caps[1]])
    else:
        p = caps.copy()
    return PowerAllocation(p=p, caps=caps)
