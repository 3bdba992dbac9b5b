"""Reference checks for the allocators and the job pool, called by the tests only.

Each computes its answer independently of the kernel it checks:
exhaustive vertex enumeration and the gradient-sign certificate for the
on-off solver, J(mu), dJ/d(ln mu) and a dense water-level grid for
waterfilling, and a record of the jobs that ran together for the pool's
admission rule. Test modules import them with `from oracles import ...`:
pytest puts tests/ on the path and does not collect this file.
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref

import numpy as np

from relaypower.model import PowerAllocation, Workspace, _positive_vector
from relaypower.objectives import PerfectCsitObjective, f0_gradient


# Exhaustive enumeration beyond this many relays is off the table.
MAX_ORACLE_RELAYS = 20


def vertex_enumeration_oracle(obj: PerfectCsitObjective, caps) -> PowerAllocation:
    """Exact argmax of f0 over all 2^M vertices of the cap box.

    Ties go to the vertex with fewer active relays, then to the
    lexicographically smallest on-set. Refuses M > 20.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    m = obj.M
    if m > MAX_ORACLE_RELAYS:
        raise ValueError(f"vertex enumeration is limited to M <= {MAX_ORACLE_RELAYS}")
    ac = obj.alpha * caps
    bc = obj.beta * caps
    # bit i of the row index = relay i active
    masks = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    a_sums = masks @ ac
    b_sums = masks @ bc
    values = a_sums / (1.0 + b_sums)
    tied = np.nonzero(values == values.max())[0]
    winner = min(tied, key=lambda i: (masks[i].sum(), tuple(np.nonzero(masks[i])[0])))
    p = np.where(masks[winner].astype(bool), caps, 0.0)
    return PowerAllocation(p=p, caps=caps)


def verify_stationarity(obj: PerfectCsitObjective, allocation: PowerAllocation) -> bool:
    """Check the vertex optimality certificate from the gradient signs.

    True iff every active relay sees a strictly positive gradient and
    every silent relay a non-positive one. An exactly zero gradient at a
    cap therefore fails the certificate. Raises for non-vertex input.
    """
    caps = _positive_vector(allocation.caps, obj.M, "caps")
    at_cap = allocation.p == caps
    at_zero = allocation.p == 0.0
    if not np.all(at_cap | at_zero):
        raise ValueError("stationarity certificate is defined for vertices only")
    grad = f0_gradient(obj, allocation.p)
    return bool(np.all(grad[at_cap] > 0.0) and np.all(grad[at_zero] <= 0.0))


def _mu_interval(pg: np.ndarray) -> tuple[float, float]:
    # mu_max is the last raw level, summed as the kernel sums it
    m = pg.shape[0]
    return 1.0 / m, float((1.0 + np.cumsum(np.sort(pg))[-1]) / m)



def J_of_mu(obj, mu: float, caps) -> float:
    """Surrogate objective as a function of the water level.

    Levels outside [mu_min, mu_max] are clamped with a warning. With
    C the uncapped set and Cbar its complement,

        J = |C| ln(mu) - sum_C ln(gamma_gi) + sum_Cbar ln(P_i)
            - M ln(1 + |C| mu + sum_Cbar P_i gamma_gi) + sum_i ln(a_i),

    which equals log_objective_J at p_i = min(mu/gamma_gi, P_i). A relay
    with P_i*gamma_gi == mu counts as capped; the two branches agree there.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    pg = caps * obj.gamma_g
    mu_min, mu_max = _mu_interval(pg)
    if mu < mu_min or mu > mu_max:
        warnings.warn(
            f"water level {mu:g} outside [{mu_min:g}, {mu_max:g}]; clamping",
            stacklevel=2,
        )
        mu = min(max(mu, mu_min), mu_max)
    capped = pg <= mu
    n_free = int(obj.M - np.count_nonzero(capped))
    denom = 1.0 + n_free * mu + float(np.sum(pg[capped]))
    with np.errstate(divide="ignore"):
        return float(
            n_free * math.log(mu)
            - np.sum(np.log(obj.gamma_g[~capped]))
            + np.sum(np.log(caps[capped]))
            - obj.M * math.log(denom)
            + np.sum(np.log(obj.a))
        )


def derivative_J_wrt_mu(obj, mu: float, caps) -> float:
    """dJ/d(ln mu) at a fixed membership pattern.

    Equals |C| * (1 - M mu / (1 + |C| mu + sum_Cbar P_i gamma_gi)); zero at
    the interior optimum, positive below it, negative above it.
    """
    caps = _positive_vector(caps, obj.M, "caps")
    pg = caps * obj.gamma_g
    capped = pg <= mu
    n_free = obj.M - int(np.count_nonzero(capped))
    denom = 1.0 + n_free * mu + float(np.sum(pg[capped]))
    return n_free * (1.0 - obj.M * mu / denom)


# levels per chunk of grid_search_oracle: 32 KB float64 temporaries
_ORACLE_CHUNK = 4096


def grid_search_oracle(obj, caps, grid_points: int = 100_000) -> tuple[float, float]:
    """Best water level over a dense uniform grid plus the candidate set.

    Independent check for solve_waterfill: evaluates J directly from the
    definition at p(mu) for grid_points levels spanning [mu_min, mu_max]
    together with the clamped candidates, and returns (mu_best, J_best).
    Raises ValueError when mu_max = (1 + sum_i P_i gamma_gi) / M overflows,
    since no grid spans [mu_min, inf].
    """
    caps = _positive_vector(caps, obj.M, "caps")
    with np.errstate(over="ignore"):
        pg = caps * obj.gamma_g
        mu_min, mu_max = _mu_interval(pg)
    if not math.isfinite(mu_max):
        raise ValueError("mu_max = (1 + sum_i caps_i gamma_gi) / M overflows; the grid needs a finite interval")
    order = np.argsort(pg, kind="stable")
    pg_sorted = pg[order]
    ln_caps_sorted = np.log(caps[order])
    ln_gamma_sorted = np.log(obj.gamma_g[order])
    prefix_pg = np.concatenate([[0.0], np.cumsum(pg_sorted)])
    prefix_ln_caps = np.concatenate([[0.0], np.cumsum(ln_caps_sorted)])
    prefix_ln_gamma = np.concatenate([[0.0], np.cumsum(ln_gamma_sorted)])
    with np.errstate(divide="ignore"):
        sum_ln_a = float(np.sum(np.log(obj.a)))
    # the candidate levels mu_j = (1 + prefix_pg[j]) / j, clamped into [mu_min, mu_max]
    mu_cands = np.clip((1.0 + prefix_pg[1:]) / np.arange(1, obj.M + 1), mu_min, mu_max)
    grid = np.concatenate([np.linspace(mu_min, mu_max, grid_points), mu_cands])

    # J in chunks of _ORACLE_CHUNK levels keeps every temporary small. The
    # first argmax over the chunks' first argmaxes is np.argmax's answer
    # over the whole grid
    picks = []
    for lo in range(0, grid.shape[0], _ORACLE_CHUNK):
        mu = grid[lo : lo + _ORACLE_CHUNK]
        # number of capped relays at each level (ties count as capped)
        idx = np.searchsorted(pg_sorted, mu, side="right")
        n_free = obj.M - idx
        denom = 1.0 + n_free * mu + prefix_pg[idx]
        ln_gamma_free = prefix_ln_gamma[obj.M] - prefix_ln_gamma[idx]
        j_vals = (
            n_free * np.log(mu)
            - ln_gamma_free
            + prefix_ln_caps[idx]
            - obj.M * np.log(denom)
            + sum_ln_a
        )
        k = int(np.argmax(j_vals))
        picks.append((lo + k, j_vals[k]))
    best, j_best = picks[int(np.argmax([j for _, j in picks]))]
    return float(grid[best]), float(j_best)


class JobSpy:
    """Stands in for sim._map_jobs: records each call and the jobs that ran beside each job.

    Each call appends (jobs, weights) to calls and, to starts, a list of
    (k, the indices of the jobs inside their function as job k entered it,
    k included) in the order the jobs entered. The jobs run through the
    wrapped _map_jobs, on stub(job, ws) in place of their function if a
    stub is given. With a probe, probed gets probe() at each job's start and
    end, taken while no other job enters or leaves.
    """

    def __init__(self, map_jobs, stub=None, probe=None):
        self.map_jobs, self.stub, self.probe = map_jobs, stub, probe
        self.calls, self.starts, self.probed = [], [], []

    def __call__(self, fn, jobs, weights=None):
        fn = self.stub or fn
        lock, running, starts = threading.Lock(), set(), []
        self.calls.append((list(jobs), weights))
        self.starts.append(starts)

        def run(indexed, ws):
            k, job = indexed
            with lock:
                running.add(k)
                starts.append((k, frozenset(running)))
                self._take_probe()
            try:
                return fn(job, ws)
            finally:
                with lock:
                    self._take_probe()
                    running.remove(k)

        return self.map_jobs(run, list(enumerate(jobs)), weights)

    def _take_probe(self):
        if self.probe is not None:
            self.probed.append(self.probe())

    def check(self, budget):
        """Every job ran once, beside jobs whose weights fit the budget with its own, or that hold nothing."""
        for (jobs, weights), starts in zip(self.calls, self.starts):
            assert sorted(k for k, _ in starts) == list(range(len(jobs)))
            for k, running in starts:
                held = sum(weights[i] for i in running)
                assert held <= budget or held == weights[k], (k, sorted(running))


class DrawsAlive:
    """Stands in for sim.Workspace as workspace; a call sums the |h|^2 and |g|^2 bytes of every one still alive.

    Each workspace made is kept by weak reference only, so one counts from
    when it is made until nothing holds it, on whatever thread.
    """

    def __init__(self):
        made = self.made = []

        class Tracked(Workspace):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        self.workspace = Tracked

    def __call__(self) -> int:
        alive = [ws for ws in (ref() for ref in list(self.made)) if ws is not None]
        return sum(a.nbytes for ws in alive for a in (ws.get("h2"), ws.get("g2")) if a is not None)
