"""Scenario files and the experiment drivers behind the command line tool.

A scenario is one YAML document selecting an experiment kind, a base
network, and the sweep for that kind. Validation is strict: unknown keys,
missing fields, and out-of-range values are rejected with file:line
anchors. Every run is reproducible from (scenario, seed); the shard count
and the number of cores only partition work and never change any output
byte.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .codebook import MAX_BLOCK
from .model import CsitMode, NetworkConfig, _batch_caps, sample_channel_batch
from .objectives import _MC_CHUNK, SADDLE_MIN_TRIALS, saddle_point_error
from .onoff import MAX_ITERATIONS, solve_onoff_batch
from .rng import STREAM_CHANNELS, STREAM_MISC, derive_rng, derive_seed
from .sim import (
    MAX_TRIAL_ENTRIES,
    MIN_FRAMES,
    Scheme,
    SimResult,
    _db_power,
    _distance_variances,
    _in_linear_range,
    _map_jobs,
    _node_power,
    _power_blocks,
    _relay_counts,
    _run_schemes,
    scheme_label,
)


class ExperimentKind(enum.Enum):
    CONVERGENCE = "convergence"
    BLER_VS_SNR = "bler_vs_snr"
    BER_VS_DISTANCE = "ber_vs_distance"
    POWER_RATIO_VS_DISTANCE = "power_ratio_vs_distance"
    BER_VS_NETWORK_POWER = "ber_vs_network_power"
    ASYMPTOTIC_STUDY = "asymptotic_study"
    SADDLE_STUDY = "saddle_study"


# scenario scheme token -> (simulator scheme, CSIT mode); the mode fixes the caps
SCHEME_NAMES = {
    "onoff": (Scheme.ONOFF, CsitMode.PERFECT),
    "waterfill_partial": (Scheme.WATERFILL, CsitMode.PARTIAL),
    "waterfill_statistical": (Scheme.WATERFILL, CsitMode.STATISTICAL),
    "maxpower": (Scheme.MAX_POWER, CsitMode.PERFECT),
    "direct": (Scheme.DIRECT_LINK, CsitMode.PERFECT),
}

MAX_STUDY_RELAYS = 1024  # largest M of the kinds that only allocate


class SpecError(ValueError):
    """Scenario file rejected; the message carries a file:line anchor."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved scenario: every default filled in."""

    kind: ExperimentKind
    name: str
    seed: int
    M: int | None
    p_s: float | None
    p_r: float | None
    N0: float
    gamma_h: tuple[float, ...] | float
    gamma_g: tuple[float, ...] | float
    schemes: tuple[str, ...] = ()
    snr_db: tuple[float, ...] = ()
    r_grid: tuple[float, ...] = ()
    m_grid: tuple[int, ...] = ()
    network_power_db: float | None = None
    frames: int | None = None
    trials: int | None = None
    instances: int | None = None
    eta: float | None = None
    iterations: int | None = None

    def gammas_for(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Length-m variance vectors: scalars broadcast, lists give prefixes."""
        return _gamma_vector(self.gamma_h, m), _gamma_vector(self.gamma_g, m)

    def run_seed(self, seed: int | None = None) -> int:
        """The seed a run uses: seed when given, else the scenario's; SpecError when seed is negative."""
        if seed is None:
            return self.seed
        if seed < 0:
            raise SpecError("--seed must be non-negative")
        return seed

    def resolved(self) -> dict:
        """Plain mapping of every field, defaults included, for provenance."""
        def plain(keys):
            return {k: list(v) if isinstance(v, tuple) else v for k in keys if (v := getattr(self, k)) is not None}

        network = plain(("N0", "M", "p_s", "p_r", "gamma_h", "gamma_g"))
        return {"kind": self.kind.value, **plain(("name", "seed", *_TOP_FIELDS[self.kind])), "network": network}


def _gamma_vector(spec_value, m: int) -> np.ndarray:
    if isinstance(spec_value, tuple):
        return np.asarray(spec_value[:m], dtype=np.float64)
    return np.full(m, float(spec_value))


_REQUIRED = object()

# Per-kind top-level fields: each maps to _REQUIRED or to its default.
_TOP_FIELDS: dict[ExperimentKind, dict[str, object]] = {
    ExperimentKind.CONVERGENCE: {"m_grid": _REQUIRED, "trials": 10_000, "iterations": 10},
    ExperimentKind.BLER_VS_SNR: {"schemes": _REQUIRED, "snr_db": _REQUIRED, "frames": _REQUIRED},
    ExperimentKind.BER_VS_DISTANCE: {
        "schemes": _REQUIRED, "m_grid": _REQUIRED, "r_grid": _REQUIRED,
        "network_power_db": _REQUIRED, "frames": _REQUIRED,
    },
    ExperimentKind.POWER_RATIO_VS_DISTANCE: {
        "schemes": _REQUIRED, "m_grid": _REQUIRED, "r_grid": _REQUIRED,
        "network_power_db": _REQUIRED, "trials": 10_000,
    },
    ExperimentKind.BER_VS_NETWORK_POWER: {
        "schemes": _REQUIRED, "m_grid": _REQUIRED, "snr_db": _REQUIRED, "frames": _REQUIRED,
    },
    ExperimentKind.ASYMPTOTIC_STUDY: {
        "m_grid": _REQUIRED, "r_grid": _REQUIRED, "network_power_db": _REQUIRED, "trials": 10_000,
    },
    ExperimentKind.SADDLE_STUDY: {
        "m_grid": _REQUIRED, "trials": 100_000, "instances": 8, "eta": 1.0,
    },
}


class _Validator:
    """Walks one parsed scenario document with line anchors for errors."""

    def __init__(self, path: str, data, lines: dict[str, int]):
        self.path = path
        self.data = data
        self.lines = lines
        self.n0: float | None = None  # network.N0 once checked; the dB fields read it

    def fail(self, key: str, message: str):
        line = self.lines.get(key, self.lines.get("<root>", 1))
        raise SpecError(f"{self.path}:{line}: {message}")

    def _scalar(self, mapping, prefix, key, kinds, message):
        value = mapping[key]
        if not isinstance(value, kinds) or isinstance(value, bool):
            self.fail(f"{prefix}{key}", f"{key} {message}")
        return value

    def integer(self, mapping, prefix, key, minimum=None, maximum=None):
        value = self._scalar(mapping, prefix, key, int, "must be an integer")
        if minimum is not None and value < minimum:
            self.fail(f"{prefix}{key}", f"{key} must be at least {minimum}")
        if maximum is not None and value > maximum:
            self.fail(f"{prefix}{key}", f"{key} must be at most {maximum}")
        return value

    def finite(self, key: str, value, message: str) -> float:
        """value as a finite float; a YAML integer may lie beyond the float range."""
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out):
            self.fail(key, message)
        return out

    def number(self, mapping, prefix, key, derive=None):
        value = self._scalar(mapping, prefix, key, (int, float), "must be a number")
        value = self.finite(f"{prefix}{key}", value, f"{key} must be finite")
        return self.derivable(f"{prefix}{key}", value, derive)

    def derivable(self, key: str, value, derive):
        """value, unless derive(value), a map the run applies to it, raises ValueError."""
        if derive is not None:
            try:
                derive(value)
            except ValueError as exc:
                self.fail(key, f"{key}: {exc}")
        return value

    def grid(self, key, *, integer=False, low=None, high=None, derive=None):
        value = self.data[key]
        if not isinstance(value, list) or not value:
            self.fail(key, f"{key} must be a non-empty list")
        out = []
        for i, v in enumerate(value):
            if isinstance(v, bool) or not isinstance(v, (int, float) if not integer else int):
                kind = "integers" if integer else "numbers"
                self.fail(f"{key}[{i}]", f"{key} entries must be {kind}")
            if not integer:
                v = self.finite(f"{key}[{i}]", v, f"{key} entries must be finite")
            if low is not None and v <= low:
                self.fail(f"{key}[{i}]", f"{key} entries must exceed {low}")
            if high is not None and v >= high:
                self.fail(f"{key}[{i}]", f"{key} entries must be below {high}")
            out.append(self.derivable(f"{key}[{i}]", v, derive))
        if any(b <= a for a, b in zip(out, out[1:])):
            self.fail(key, f"{key} must be strictly increasing")
        return tuple(out)


def _linear(x: float) -> float:
    """x, a power, noise level or variance; ValueError outside LINEAR_RANGE."""
    return _in_linear_range(lambda: (x,), f"{x:g}")[0]


def _node_powers(v: _Validator, x: float) -> list[float]:
    """The power of each node at network power x dB, for every M of the checked m_grid."""
    return [_node_power(v.n0, x, m) for m in v.data["m_grid"]]


def _collect_lines(where: str, node, prefix: str, out: dict[str, int]) -> None:
    """The line of every key path under node into out; SpecError at a key that repeats in its mapping."""
    out.setdefault(prefix or "<root>", node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key_node, value_node in node.value:
            key = str(key_node.value)
            path = f"{prefix}.{key}" if prefix else key
            line = key_node.start_mark.line + 1
            if key in seen:
                raise SpecError(f"{where}:{line}: duplicate key {path!r}")
            seen.add(key)
            out[path] = line
            _collect_lines(where, value_node, path, out)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _collect_lines(where, item, f"{prefix}[{i}]", out)


def load_spec(path) -> ExperimentSpec:
    """Parse and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"{path}: cannot read scenario file ({exc})") from exc
    try:
        node = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else 1
        raise SpecError(f"{path}:{line}: not valid YAML ({getattr(exc, 'problem', exc)})") from exc
    if node is None:
        raise SpecError(f"{path}:1: scenario file is empty")
    lines: dict[str, int] = {}
    _collect_lines(str(path), node, "", lines)
    data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise SpecError(f"{path}:1: scenario must be a mapping")
    return _validate(str(path), data, lines)


def _check_schemes(v: _Validator, kind: ExperimentKind) -> tuple[str, ...]:
    raw = v.data["schemes"]
    if not isinstance(raw, list) or not raw:
        v.fail("schemes", "schemes must be a non-empty list")
    seen = []
    for i, token in enumerate(raw):
        if token not in SCHEME_NAMES:
            known = ", ".join(sorted(SCHEME_NAMES))
            v.fail(f"schemes[{i}]", f"unknown scheme {token!r}; expected one of: {known}")
        if token in seen:
            v.fail(f"schemes[{i}]", f"duplicate scheme {token!r}")
        if token == "direct" and kind is ExperimentKind.POWER_RATIO_VS_DISTANCE:
            v.fail(f"schemes[{i}]", "the direct link has no relays to count; remove 'direct'")
        seen.append(token)
    return tuple(seen)


def _check_trials(v: _Validator, kind: ExperimentKind) -> int:
    # the saddle study draws its trials in chunks; every other kind draws
    # all (trials, M) channel entries at once
    if kind is ExperimentKind.SADDLE_STUDY:
        return v.integer(v.data, "", "trials", minimum=SADDLE_MIN_TRIALS, maximum=MAX_TRIAL_ENTRIES)
    trials = v.integer(v.data, "", "trials", minimum=1)
    m = max(v.data["m_grid"])
    trajectory = 0
    if kind is ExperimentKind.CONVERGENCE:
        iterations = _check_iterations(v, kind) if "iterations" in v.data else _TOP_FIELDS[kind]["iterations"]
        trajectory = _convergence_entries(m, iterations) - m
    if trials * (m + trajectory) > MAX_TRIAL_ENTRIES:
        entries = f"(largest M + {trajectory} trajectory entries)" if trajectory else "largest M"
        v.fail("trials", f"trials x {entries} must be at most {MAX_TRIAL_ENTRIES}")
    return trials


def _convergence_entries(m: int, iterations: int) -> int:
    # a convergence trial's M channel entries plus its trajectory (one float and, in a row block, M booleans
    # per iterate), counted as M + 16 B per iterate in 40-byte entries: peak RSS grew by 9, 15 and 29 B per
    # (trial, iterate) at M = 2, 8 and 32 (20 000 trials, 10 against 100 iterations; 2-vCPU host, numpy 2.4)
    return m + math.ceil((iterations + 1) * (m + 16) / 40)


def _check_iterations(v: _Validator, kind: ExperimentKind) -> int:
    # every row settles within MAX_ITERATIONS updates, so later iterates only repeat
    return v.integer(v.data, "", "iterations", minimum=1, maximum=MAX_ITERATIONS)


# Top-level field -> check(validator, kind) of its value, in the order errors are reported.
_FIELD_CHECKS = {
    # a kind with a frame budget decodes every M it sweeps exhaustively
    "m_grid": lambda v, kind: v.grid(
        "m_grid", integer=True, low=0,
        high=(MAX_BLOCK if "frames" in _TOP_FIELDS[kind] else MAX_STUDY_RELAYS) + 1,
    ),
    "schemes": _check_schemes,
    # bler_vs_snr sweeps the power of each node, the other kinds the network power
    "snr_db": lambda v, kind: v.grid("snr_db", derive=lambda x: (
        _db_power(v.n0, x) if kind is ExperimentKind.BLER_VS_SNR else _node_powers(v, x))),
    "r_grid": lambda v, kind: v.grid("r_grid", low=0.0, high=1.0, derive=_distance_variances),
    "network_power_db": lambda v, kind: v.number(v.data, "", "network_power_db", derive=lambda x: _node_powers(v, x)),
    "frames": lambda v, kind: v.integer(v.data, "", "frames", minimum=MIN_FRAMES),
    "trials": _check_trials,
    "instances": lambda v, kind: v.integer(v.data, "", "instances", minimum=1),
    "eta": lambda v, kind: v.number(v.data, "", "eta", derive=_linear),
    "iterations": _check_iterations,
}


def _top_fields(v: _Validator, kind: ExperimentKind, keys) -> dict:
    """Checked values of kind's top-level fields among keys, defaults filled in."""
    table = _TOP_FIELDS[kind]
    return {key: _FIELD_CHECKS[key](v, kind) if key in v.data else table[key] for key in keys if key in table}


def _validate(path: str, data: dict, lines: dict[str, int]) -> ExperimentSpec:
    v = _Validator(path, data, lines)
    if "kind" not in data:
        v.fail("<root>", "missing required field 'kind'")
    kind_token = data["kind"]
    try:
        kind = ExperimentKind(kind_token)
    except ValueError:
        known = ", ".join(k.value for k in ExperimentKind)
        v.fail("kind", f"unknown kind {kind_token!r}; expected one of: {known}")

    allowed = {"kind", "name", "seed", "network"} | set(_TOP_FIELDS[kind])
    for key in data:
        if key not in allowed:
            v.fail(key, f"unknown field {key!r} for kind {kind.value!r}")
    for key, default in _TOP_FIELDS[kind].items():
        if default is _REQUIRED and key not in data:
            v.fail("<root>", f"missing required field {key!r} for kind {kind.value!r}")
    if "network" not in data:
        v.fail("<root>", "missing required field 'network'")
    network = data["network"]
    if not isinstance(network, dict):
        v.fail("network", "network must be a mapping")

    name = data.get("name", kind.value)
    if not isinstance(name, str) or not name or "/" in name or "\0" in name:
        v.fail("name", "name must be a non-empty string without '/' or NUL")
    seed = 0
    if "seed" in data:
        seed = v.integer(data, "", "seed", minimum=0)

    # m_grid before the network block: its gamma lists must cover the largest M
    fields = _top_fields(v, kind, ["m_grid"])
    # a power sweep sets p_s and p_r per point, a distance sweep sets the variances
    swept_power = not {"snr_db", "network_power_db"}.isdisjoint(_TOP_FIELDS[kind])
    swept_distance = "r_grid" in _TOP_FIELDS[kind]

    # --- network block ---
    net_allowed = {"N0", "gamma_h", "gamma_g"}
    if kind is ExperimentKind.BLER_VS_SNR:
        net_allowed |= {"M"}
    if not swept_power:
        net_allowed |= {"p_s", "p_r"}
    for key in network:
        if key in ("csit_mode", "constraint_kind"):
            v.fail(f"network.{key}", f"{key} is derived from each scheme; remove it")
        if key == "T":
            v.fail("network.T", "T is M, one dispersion matrix per relay; remove it")
        if key not in net_allowed:
            v.fail(f"network.{key}", f"unknown or disallowed network field {key!r} for kind {kind.value!r}")

    m = None
    if kind is ExperimentKind.BLER_VS_SNR:
        if "M" not in network:
            v.fail("network", "network.M is required for kind 'bler_vs_snr'")
        m = v.integer(network, "network.", "M", minimum=1, maximum=MAX_BLOCK)

    p_s = p_r = None
    if not swept_power:
        for key in ("p_s", "p_r"):
            if key not in network:
                v.fail("network", f"network.{key} is required for kind {kind.value!r}")
        p_s = v.number(network, "network.", "p_s", derive=_linear)
        p_r = v.number(network, "network.", "p_r", derive=_linear)

    n0 = v.n0 = v.number(network, "network.", "N0", derive=_linear) if "N0" in network else 1.0

    if swept_distance:
        for key in ("gamma_h", "gamma_g"):
            if key in network:
                v.fail(f"network.{key}", f"{key} is derived from the distance sweep; remove it")
        gamma_h = gamma_g = 1.0
    else:
        max_m = max(fields["m_grid"]) if "m_grid" in fields else m
        gamma_h = _validate_gamma(v, network, "gamma_h", max_m)
        gamma_g = _validate_gamma(v, network, "gamma_g", max_m)

    fields |= _top_fields(v, kind, [key for key in _FIELD_CHECKS if key not in fields])
    return ExperimentSpec(
        kind=kind, name=name, seed=seed, M=m, p_s=p_s, p_r=p_r, N0=n0,
        gamma_h=gamma_h, gamma_g=gamma_g, **fields,
    )


def _validate_gamma(v: _Validator, network: dict, key: str, max_m: int | None):
    if key not in network:
        return 1.0
    value = network[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return v.number(network, "network.", key, derive=_linear)
    if isinstance(value, list):
        if not value:
            v.fail(f"network.{key}", f"{key} list must be non-empty")
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)) or item <= 0:
                v.fail(f"network.{key}[{i}]", f"{key} entries must be positive numbers")
            item = v.finite(f"network.{key}[{i}]", item, f"{key} entries must be finite")
            out.append(v.derivable(f"network.{key}[{i}]", item, _linear))
        if max_m is not None and len(value) < max_m:
            v.fail(f"network.{key}", f"{key} lists {len(value)} values but the largest M is {max_m}")
        return tuple(out)
    v.fail(f"network.{key}", f"{key} must be a number or a list of numbers")


def _scheme_config(spec: ExperimentSpec, token: str, m: int,
                   gamma_h: np.ndarray, gamma_g: np.ndarray,
                   p_s: float, p_r: float) -> tuple[NetworkConfig, Scheme]:
    """Network of m relays under token's scheme and CSIT mode; the block length T is m."""
    scheme, mode = SCHEME_NAMES[token]
    cfg = NetworkConfig(M=m, p_s=p_s, p_r=p_r, N0=spec.N0,
                        gamma_h=gamma_h, gamma_g=gamma_g, csit_mode=mode)
    return cfg, scheme


def _fmt(value) -> str:
    return f"{value:.17g}"


class _OutputSet:
    """Makes out_dir and collects the files written by one run, so failures can clean up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        # the directories this run creates, deepest first
        self.created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, header: str, rows: list[str]) -> Path:
        return self.write_text(name, "\n".join([header, *rows]) + "\n")

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.paths.append(path)
        return path

    def discard_all(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)
        for directory in self.created:
            with contextlib.suppress(OSError):  # rmdir refuses a directory that holds anything
                directory.rmdir()


def run_experiment(spec: ExperimentSpec, out_dir, *, seed: int | None = None,
                   shards: int = 1, frames_override: int | None = None) -> list[Path]:
    """Run one scenario, writing CSVs plus a plot script into out_dir.

    Returns the written paths. On any failure every file written so far is
    removed, and so is every directory the run created, so an output
    directory never holds a partial run.
    """
    seed = spec.run_seed(seed)
    frames = spec.frames
    if frames_override is not None:
        if frames is None:
            raise SpecError(f"kind {spec.kind.value!r} takes no frame count; drop --frames-override")
        if frames_override < MIN_FRAMES:
            raise SpecError(f"--frames-override must be at least {MIN_FRAMES}")
        frames = frames_override
    if shards < 1:
        raise SpecError("--shards must be at least 1")

    runner = _RUNNERS[spec.kind]
    outputs = _OutputSet(Path(out_dir))
    start = time.perf_counter()
    try:
        csv_paths = runner(spec, outputs, seed, shards, frames)
        script = emit_plot_script(csv_paths, spec.kind)
        outputs.write_text(f"{spec.name}_plot.py", script)
    except Exception:
        outputs.discard_all()
        raise
    elapsed = time.perf_counter() - start
    budget = frames if frames is not None else spec.trials
    print(f"kind={spec.kind.value} seed={seed} frames={budget} elapsed_s={elapsed:.2f}")
    return outputs.paths


def _run_convergence(spec, outputs, seed, shards, frames):
    """Mean f0 of each on-off iterate over the optimum's, per M, from trials draws of stream (seed, mi).

    Every M has its own stream, so the M cells are one _map_jobs list, each
    weighted by its entries as _check_trials counts them. A cell draws
    |h|^2 and |g|^2 once and solves them in row blocks (_power_blocks): the
    on-off kernels treat rows independently, so a block gives the bits of a
    whole-array solve. Its f0 ratios fill its rows of one (trials,
    iterations + 1) array, whose column means are taken over the whole array.
    """
    def means(cell, ws):
        mi, m = cell
        cfg, _ = _scheme_config(spec, "onoff", m, *spec.gammas_for(m), spec.p_s, spec.p_r)
        ratios = np.empty((spec.trials, spec.iterations + 1))
        for rows, h2, g2, caps in _power_blocks(cfg, spec.trials, derive_rng(seed, STREAM_CHANNELS, mi), ws):
            alpha = h2 * g2
            masks, _, _, iterates = solve_onoff_batch(alpha, g2, caps, history=spec.iterations + 1)
            ac, bc = alpha * caps, g2 * caps
            # f0 at the optimum, then at each iterate over it, one (rows, M) pattern at a time
            f0 = (np.sum(np.where(on, ac, 0.0), axis=1) / (1.0 + np.sum(np.where(on, bc, 0.0), axis=1))
                  for on in [masks, *iterates.swapaxes(0, 1)])
            optimum = next(f0)
            for k, value in enumerate(f0):
                ratios[rows, k] = value / optimum
        return np.mean(ratios, axis=0)

    cells = _map_jobs(means, list(enumerate(spec.m_grid)),
                      [spec.trials * _convergence_entries(m, spec.iterations) for m in spec.m_grid])
    rows = [f"{m},{k},{_fmt(value)}" for m, cell in zip(spec.m_grid, cells) for k, value in enumerate(cell)]
    return [outputs.write(f"{spec.name}.csv", "M,iteration,mean_normalized_objective", rows)]


def _run_bler_vs_snr(spec, outputs, seed, shards, frames):
    runs = [_scheme_config(spec, token, spec.M, *spec.gammas_for(spec.M), 1.0, 1.0) for token in spec.schemes]
    return [outputs.write(f"{spec.name}_{token}.csv", SimResult.CSV_HEADER, res.to_csv_rows())
            for token, res in zip(spec.schemes, _run_schemes(runs, spec.snr_db, frames, seed, shards=shards))]


def _run_ber_vs_distance(spec, outputs, seed, shards, frames):
    def cells(mi, m):
        for ri, r in enumerate(spec.r_grid):
            gammas = (np.full(m, x) for x in _distance_variances(r))
            yield *gammas, [spec.network_power_db], [r], derive_seed(seed, STREAM_MISC, mi, ri)

    return _run_link_sweep(spec, outputs, shards, frames, "r", cells)


def _run_ber_vs_network_power(spec, outputs, seed, shards, frames):
    def cells(mi, m):
        yield *spec.gammas_for(m), spec.snr_db, spec.snr_db, derive_seed(seed, STREAM_MISC, mi)

    return _run_link_sweep(spec, outputs, shards, frames, "snr_db", cells)


def _run_link_sweep(spec, outputs, shards, frames, x_name, cells):
    """One BER CSV per scheme over the M grid at network-power operating points.

    cells(mi, m) yields (gamma_h, gamma_g, snr grid, x values, seed) for
    each cell at relay count m; x fills the column x_name. The schemes of
    a cell run in one call, so the relay schemes share the cell's codebook
    and every batch's draws, and their curves are paired (common random
    numbers). The direct link has no relays: it runs the cells of the
    first M only, which sets its block length, and its M column reads 0.
    A later M with no scheme left, as under schemes [direct], runs nothing.
    """
    header = f"scheme,M,{x_name},frames,block_errors,bit_errors,bler,ber,stderr_bler"
    rows = {token: [] for token in spec.schemes}
    for mi, m in enumerate(spec.m_grid):
        tokens = [token for token in spec.schemes if token != "direct" or mi == 0]
        for gamma_h, gamma_g, grid, x, cell_seed in cells(mi, m) if tokens else ():
            runs = [_scheme_config(spec, token, m, gamma_h, gamma_g, 1.0, 1.0) for token in tokens]
            results = _run_schemes(runs, grid, frames, cell_seed, network_power_sweep=True, shards=shards)
            for token, res in zip(tokens, results):
                rows[token] += res.to_csv_rows([f"{token},{0 if token == 'direct' else m},{_fmt(v)}" for v in x])
    return [outputs.write(f"{spec.name}_{token}.csv", header, rows[token]) for token in spec.schemes]


def _cell_counts(spec, stream, wanted) -> list:
    """(m, r, wanted relay counts) of each (M, r) cell in grid order, cell (mi, ri) drawn from stream(mi, ri).

    The network power is split evenly over the source and the m relays.
    Every cell has its own stream, so the cells are one _map_jobs list, each
    weighted by its trials x m channel entries: asym_m32 took 0.72-0.79 s
    pooled against 1.22-1.26 s on one worker (fresh processes, 2-vCPU host).
    """
    def counts(cell, ws):
        mi, m, ri, r = cell
        p = _node_power(spec.N0, spec.network_power_db, m)
        cfg, _ = _scheme_config(spec, "waterfill_partial", m, *(np.full(m, x) for x in _distance_variances(r)), p, p)
        return m, r, _relay_counts(cfg, spec.trials, stream(mi, ri), ws, wanted)

    cells = [(mi, m, ri, r) for mi, m in enumerate(spec.m_grid) for ri, r in enumerate(spec.r_grid)]
    return _map_jobs(counts, cells, [spec.trials * m for _, m, _, _ in cells])


def _run_power_ratio(spec, outputs, seed, shards, frames):
    header = "scheme,M,r,trials,effective_relay_count"
    labels = {token: scheme_label(*SCHEME_NAMES[token]) for token in spec.schemes}
    cells = _cell_counts(spec, lambda mi, ri: derive_rng(derive_seed(seed, STREAM_MISC, mi), STREAM_CHANNELS, ri),
                         labels.values())
    return [outputs.write(f"{spec.name}_{token}.csv", header,
                          [f"{token},{m},{_fmt(r)},{spec.trials},{_fmt(counts[label])}" for m, r, counts in cells])
            for token, label in labels.items()]


def _run_asymptotic(spec, outputs, seed, shards, frames):
    header = ("M,r,trials,count_onoff,count_waterfill_partial,count_waterfill_statistical,"
              "count_maxpower,equality_fraction,max_water_level_spread")
    labels = ("onoff", "waterfill_partial", "waterfill_statistical", "max_power", "equal")  # the count columns
    cells = _cell_counts(spec, lambda mi, ri: derive_rng(seed, STREAM_CHANNELS, mi, ri), labels)
    # The spread of p_i gamma_gi over the uncapped relays is exactly 0: every
    # relay has the same gamma_g, so every uncapped one gets the same float
    # p = fl(mu / gamma_g) and the same product fl(p gamma_g); a row with no
    # uncapped relay has no spread. So the column is written as 0, not computed.
    rows = [f"{m},{_fmt(r)},{spec.trials},{','.join(_fmt(counts[label]) for label in labels)},{_fmt(0.0)}"
            for m, r, counts in cells]
    return [outputs.write(f"{spec.name}.csv", header, rows)]


def _run_saddle(spec, outputs, seed, shards, frames):
    """One row per M: the saddle-point bound against its Monte Carlo estimate, averaged over the instances.

    Instance j of M index mi draws its channel h from stream (seed, mi, j)
    and its Monte Carlo kernels from its own seed, so the (M, instance)
    pairs are one _map_jobs list. Each job draws its kernels in chunks of at
    most _MC_CHUNK trials, and is weighted by one chunk's channel entries.
    """
    header = "M,instances,trials,mean_mc_estimate,mean_bound,mean_rel_error,stderr"
    cfgs = [_scheme_config(spec, "onoff", m, *spec.gammas_for(m), spec.p_s, spec.p_r)[0] for m in spec.m_grid]

    def compare(job, ws):
        mi, j = job
        cfg = cfgs[mi]
        h = sample_channel_batch(cfg, 1, derive_rng(seed, STREAM_CHANNELS, mi, j))[0][0]
        caps = _batch_caps(cfg, np.abs(h) ** 2, spec.p_s, spec.p_r)
        return saddle_point_error(h, cfg.gamma_g, caps, spec.eta, spec.trials, derive_seed(seed, STREAM_MISC, mi, j))

    jobs = [(mi, j) for mi in range(len(spec.m_grid)) for j in range(spec.instances)]
    comps = _map_jobs(compare, jobs, [min(spec.trials, _MC_CHUNK) * spec.m_grid[mi] for mi, _ in jobs])
    rows = []
    for mi, m in enumerate(spec.m_grid):
        cell = comps[mi * spec.instances:(mi + 1) * spec.instances]
        means = (np.mean([getattr(comp, name) for comp in cell]) for name in ("mc_estimate", "bound", "rel_error"))
        stderr = float(np.sqrt(np.sum([comp.rel_error_stderr**2 for comp in cell])) / spec.instances)
        rows.append(f"{m},{spec.instances},{spec.trials},{','.join(map(_fmt, means))},{_fmt(stderr)}")
    return [outputs.write(f"{spec.name}.csv", header, rows)]


_RUNNERS = {
    ExperimentKind.CONVERGENCE: _run_convergence,
    ExperimentKind.BLER_VS_SNR: _run_bler_vs_snr,
    ExperimentKind.BER_VS_DISTANCE: _run_ber_vs_distance,
    ExperimentKind.POWER_RATIO_VS_DISTANCE: _run_power_ratio,
    ExperimentKind.BER_VS_NETWORK_POWER: _run_ber_vs_network_power,
    ExperimentKind.ASYMPTOTIC_STUDY: _run_asymptotic,
    ExperimentKind.SADDLE_STUDY: _run_saddle,
}

# kind -> (x column, y columns, log-scale y, grouping columns)
_PLOT_LAYOUT = {
    ExperimentKind.CONVERGENCE: ("iteration", ["mean_normalized_objective"], False, ["M"]),
    ExperimentKind.BLER_VS_SNR: ("snr_db", ["bler"], True, ["scheme"]),
    ExperimentKind.BER_VS_DISTANCE: ("r", ["ber"], True, ["scheme", "M"]),
    ExperimentKind.POWER_RATIO_VS_DISTANCE: ("r", ["effective_relay_count"], False, ["scheme", "M"]),
    ExperimentKind.BER_VS_NETWORK_POWER: ("snr_db", ["ber"], True, ["scheme", "M"]),
    ExperimentKind.ASYMPTOTIC_STUDY: (
        "r",
        ["count_onoff", "count_waterfill_partial", "equality_fraction"],
        False,
        ["M"],
    ),
    ExperimentKind.SADDLE_STUDY: ("M", ["mean_rel_error"], False, []),
}

_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot {kind} results. Run from the directory holding the CSV files."""

import csv
from collections import defaultdict

import matplotlib.pyplot as plt

FILES = {files}
X = {x!r}
Y_COLUMNS = {y_columns}
GROUP = {group}

series = defaultdict(list)
for path in FILES:
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for column in Y_COLUMNS:
                label = ", ".join([f"{{g}}={{row[g]}}" for g in GROUP] + ([column] if len(Y_COLUMNS) > 1 else []))
                series[label or column].append((float(row[X]), float(row[column])))

fig, ax = plt.subplots(figsize=(7, 5))
for label in sorted(series):
    points = sorted(series[label])
    ax.plot([p[0] for p in points], [p[1] for p in points], marker="o", label=label)
{logy}ax.set_xlabel(X)
ax.set_ylabel(", ".join(Y_COLUMNS))
ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.savefig({png!r}, dpi=150, bbox_inches="tight")
print("wrote", {png!r})
'''


def emit_plot_script(csv_paths, kind: ExperimentKind) -> str:
    """Standalone matplotlib script text for the given result CSVs."""
    paths = [Path(p) for p in csv_paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise FileNotFoundError("missing result CSVs: " + ", ".join(missing))
    x, y_columns, logy, group = _PLOT_LAYOUT[kind]
    stem = os.path.commonprefix([p.stem for p in paths]).rstrip("_") or paths[0].stem
    return _PLOT_TEMPLATE.format(
        kind=kind.value,
        files=[p.name for p in paths],
        x=x,
        y_columns=y_columns,
        group=group,
        logy='ax.set_yscale("log")\n' if logy else "",
        png=f"{stem}.png",
    )
