"""Outside-in spans around relaypower's public functions, and the per-layer
metrics derived from them.

`install` replaces every public function of the measured modules at each
module attribute that holds it, which is the name its callers look up, so
nothing under src/ changes. Each call records one span (id, parent, name,
start, end, plus a few facts read from its arguments and return value) in
memory; `Recorder.dump` writes them out once the run is over.

Transmit and ML decode live inside the private `_relay_batch_tallies`, so
they appear only as the self time of `sim.run_monte_carlo`. `objectives` is
left unwrapped on purpose: its one hot path, `saddle_point_error`, runs on
no workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MEASURED_MODULES = ("cli", "experiments", "sim", "codebook", "model", "onoff", "waterfill", "rng")
SIM_M = (2, 4, 8, 12)


def _run_monte_carlo_facts(a, result):
    points = len(result.snr_db)
    return {"M": a["cfg"].M, "frames": a["frames"] * points,
            "direct": a["scheme"].value == "direct_link"}


def _onoff_facts(a, result):
    _, iterations, fallback, _ = result
    n, m = a["alpha"].shape
    return {"M": m, "n": n, "iterations": int(iterations.sum()), "fallbacks": int(fallback.sum())}


def _waterfill_batch_facts(a, result):
    n, m = result.shape
    return {"M": m, "n": n, "capped": int((result == a["caps"]).sum())}


# span name -> facts(bound arguments, return value), computed after the span ends
_FACTS = {
    "sim.run_monte_carlo": _run_monte_carlo_facts,
    "codebook.generate_codebook": lambda a, r: {"T": a["T"], "seed": a["seed"]},
    "model.sample_channel_batch": lambda a, r: {"M": a["cfg"].M, "n": a["n"]},
    "onoff.solve_onoff_batch": _onoff_facts,
    "waterfill.solve_waterfill_batch": _waterfill_batch_facts,
}


class Recorder:
    """In-memory span list for one child process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        facts = _FACTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "run": self.run_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if facts is not None:
                span.update(facts(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap the measured modules' public functions, once each, at every attribute holding them."""
    modules = [importlib.import_module(f"relaypower.{m}") for m in MEASURED_MODULES]
    wrapped = {}
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            package, _, home = fn.__module__.rpartition(".")
            if package != "relaypower" or home not in MEASURED_MODULES:
                continue
            if fn not in wrapped:
                wrapped[fn] = recorder.wrap(fn, f"{home}.{fn.__name__}")
            setattr(mod, attr, wrapped[fn])


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if "us_per" in metric:
        return "us"
    if "bytes" in metric:
        return "B"
    if metric.endswith(("ratio", "fraction")):
        return "ratio"
    return "count"


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (one thread, so they nest)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ancestor(spans_by_id, span, name):
    parent = span["parent"]
    while parent is not None:
        up = spans_by_id[parent]
        if up["name"] == name:
            return up
        parent = up["parent"]
    return None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer the run never enters reads 0."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def total(name):
        return sum(dur[s["id"]] for s in named[name])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    builds = named["codebook.generate_codebook"]
    out["codebook.generate_codebook.s"] = total("codebook.generate_codebook")
    out["codebook.generate_codebook.calls"] = len(builds)
    out["codebook.lambda_min.s"] = total("codebook.min_pairwise_eigenvalue")
    out["codebook.distinct_ratio"] = ratio(len({(s["T"], s["seed"]) for s in builds}), len(builds))

    relay_sims = [s for s in named["sim.run_monte_carlo"] if not s["direct"]]
    frames = defaultdict(int)
    sim_self = defaultdict(float)
    for s in relay_sims:
        frames[s["M"]] += s["frames"]
        sim_self[s["M"]] += own[s["id"]]
    alloc = defaultdict(float)
    for name in ("onoff.solve_onoff_batch", "waterfill.solve_waterfill_batch", "waterfill.solve_waterfill"):
        for s in named[name]:
            sim = _ancestor(by_id, s, "sim.run_monte_carlo")
            if sim is not None and not sim["direct"]:
                alloc[sim["M"]] += dur[s["id"]]
    draws = defaultdict(float)
    drawn = defaultdict(int)
    for s in named["model.sample_channel_batch"]:
        draws[s["M"]] += dur[s["id"]]
        drawn[s["M"]] += s["n"]
    for m in SIM_M:
        out[f"sim.self_us_per_frame.M{m}"] = 1e6 * ratio(sim_self[m], frames[m])
        # computed, not measured: the (2^T, T) complex128 candidate block of one frame
        out[f"sim.decode_bytes_per_frame.M{m}"] = float(2**m * m * 16) if frames[m] else 0.0
        out[f"alloc.us_per_frame.M{m}"] = 1e6 * ratio(alloc[m], frames[m])
        out[f"model.us_per_frame.M{m}"] = 1e6 * ratio(draws[m], drawn[m])
    out["model.sample_channel_batch.s"] = total("model.sample_channel_batch")

    onoff = named["onoff.solve_onoff_batch"]
    instances = sum(s["n"] for s in onoff)
    out["onoff.solve_onoff_batch.s"] = total("onoff.solve_onoff_batch")
    out["onoff.solve_onoff_batch.us_per_instance"] = 1e6 * ratio(out["onoff.solve_onoff_batch.s"], instances)
    out["onoff.mean_iterations"] = ratio(sum(s["iterations"] for s in onoff), instances)
    out["onoff.fallbacks"] = sum(s["fallbacks"] for s in onoff)

    wf = named["waterfill.solve_waterfill_batch"]
    instances = sum(s["n"] for s in wf)
    out["waterfill.solve_waterfill_batch.s"] = total("waterfill.solve_waterfill_batch")
    out["waterfill.solve_waterfill_batch.us_per_instance"] = 1e6 * ratio(out["waterfill.solve_waterfill_batch.s"], instances)
    out["waterfill.capped_fraction"] = ratio(sum(s["capped"] for s in wf), sum(s["n"] * s["M"] for s in wf))
    out["waterfill.solve_waterfill.calls"] = len(named["waterfill.solve_waterfill"])

    out["experiments.self_s"] = sum(own[s["id"]] for s in named["experiments.run_experiment"])
    out["rng.derive_rng.calls"] = len(named["rng.derive_rng"])
    return out


def self_time_table(spans: list[dict]) -> str:
    """Calls, total and self seconds per span name, largest self time first."""
    own = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s["name"]]
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own[s["id"]]
    whole = sum(own.values())
    lines = [f"{'span':<40} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self_%':>7}"]
    for name, (calls, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<40} {calls:>8} {tot:>10.4f} {slf:>10.4f} {100 * slf / whole:>6.1f}%")
    return "\n".join(lines)
