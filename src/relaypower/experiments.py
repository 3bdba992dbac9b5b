"""Scenario files and the experiment drivers behind the command line tool.

A scenario is one YAML document selecting an experiment kind, a base
network, and the sweep for that kind. Validation is strict: unknown keys,
missing fields, and out-of-range values are rejected with file:line
anchors. Every run is reproducible from (scenario, seed); the shard count
and the number of cores only partition work and never change any output
byte.
"""

from __future__ import annotations

import enum
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .codebook import MAX_BLOCK
from .model import ChannelBuffers, CsitMode, NetworkConfig, _batch_caps, sample_channel_batch
from .objectives import SADDLE_MIN_TRIALS, saddle_point_error
from .onoff import MAX_ITERATIONS, solve_onoff_batch
from .rng import STREAM_CHANNELS, STREAM_MISC, derive_rng, derive_seed
from .sim import (
    MIN_FRAMES,
    Scheme,
    SimResult,
    _allocate_batch,
    _db_power,
    _distance_variances,
    _in_linear_range,
    _map_jobs,
    _mean_cap_fraction,
    _node_power,
    effective_relay_count,
    run_monte_carlo,
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
# trials x largest M: the channel entries of one (trials, M) draw, about
# 40 bytes each in a worker's buffers (671 MB at the bound). A convergence
# run also holds its trajectory, counted in the same 40-byte entries
MAX_TRIAL_ENTRIES = 2**24


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


def _collect_lines(node, prefix: str, out: dict[str, int]) -> None:
    out.setdefault(prefix or "<root>", node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            key = str(key_node.value)
            path = f"{prefix}.{key}" if prefix else key
            out[path] = key_node.start_mark.line + 1
            _collect_lines(value_node, path, out)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _collect_lines(item, f"{prefix}[{i}]", out)


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
    _collect_lines(node, "", lines)
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
        # the trajectory holds M booleans and two floats per (trial, iterate): peak
        # RSS grew by 18, 24 and 45 B per (trial, iterate) at M = 2, 8 and 32
        # (20 000 trials, 10 against 100 iterations; 2-vCPU host, numpy 2.4)
        iterations = _check_iterations(v, kind) if "iterations" in v.data else _TOP_FIELDS[kind]["iterations"]
        trajectory = math.ceil((iterations + 1) * (m + 16) / 40)
    if trials * (m + trajectory) > MAX_TRIAL_ENTRIES:
        entries = f"(largest M + {trajectory} trajectory entries)" if trajectory else "largest M"
        v.fail("trials", f"trials x {entries} must be at most {MAX_TRIAL_ENTRIES}")
    return trials


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
    if not isinstance(name, str) or not name or "/" in name:
        v.fail("name", "name must be a non-empty string without '/'")
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
    cfg = NetworkConfig(M=m, T=m, p_s=p_s, p_r=p_r, N0=spec.N0,
                        gamma_h=gamma_h, gamma_g=gamma_g, csit_mode=mode)
    return cfg, scheme


def _fmt(value) -> str:
    return f"{value:.17g}"


class _OutputSet:
    """Collects files written by one run so failures can clean up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

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


def run_experiment(spec: ExperimentSpec, out_dir, *, seed: int | None = None,
                   shards: int = 1, frames_override: int | None = None) -> list[Path]:
    """Run one scenario, writing CSVs plus a plot script into out_dir.

    Returns the written paths. On any failure every file written so far is
    removed, so an output directory never holds a partial run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = spec.seed if seed is None else seed
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
    outputs = _OutputSet(out_dir)
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
    header = "M,iteration,mean_normalized_objective"
    rows = []
    for mi, m in enumerate(spec.m_grid):
        gamma_h, gamma_g = spec.gammas_for(m)
        cfg, _ = _scheme_config(spec, "onoff", m, gamma_h, gamma_g, spec.p_s, spec.p_r)
        h, g = sample_channel_batch(cfg, spec.trials, derive_rng(seed, STREAM_CHANNELS, mi))
        h2 = np.abs(h) ** 2
        caps = _batch_caps(cfg, h2, spec.p_s, spec.p_r)
        g2 = np.abs(g) ** 2
        alpha = h2 * g2
        masks, _, _, iterates = solve_onoff_batch(alpha, g2, caps, history=spec.iterations + 1)
        ac, bc = alpha * caps, g2 * caps
        # f0 at each iterate, one (n, M) pattern at a time, then at the optimum
        f0 = np.stack(
            [np.sum(np.where(on, ac, 0.0), axis=1) / (1.0 + np.sum(np.where(on, bc, 0.0), axis=1))
             for on in [*iterates.swapaxes(0, 1), masks]],
            axis=1,
        )
        means = np.mean(f0[:, :-1] / f0[:, -1:], axis=0)
        for k in range(spec.iterations + 1):
            rows.append(f"{m},{k},{_fmt(means[k])}")
    return [outputs.write(f"{spec.name}.csv", header, rows)]


def _run_bler_vs_snr(spec, outputs, seed, shards, frames):
    paths = []
    gamma_h, gamma_g = spec.gammas_for(spec.M)
    for token in spec.schemes:
        cfg, scheme = _scheme_config(spec, token, spec.M, gamma_h, gamma_g, 1.0, 1.0)
        result = run_monte_carlo(cfg, scheme, spec.snr_db, frames, seed, shards=shards)
        paths.append(outputs.write(f"{spec.name}_{token}.csv", SimResult.CSV_HEADER, result.to_csv_rows()))
    return paths


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
    each run_monte_carlo call at relay count m; x fills the column x_name.
    Every scheme of a cell runs back to back, so the relay schemes share
    the cell's codebook while it is cached. The direct link has no relays:
    it runs the cells of the first M only, which sets its block length,
    and its M column reads 0.
    """
    header = f"scheme,M,{x_name},frames,block_errors,bit_errors,bler,ber,stderr_bler"
    rows = {token: [] for token in spec.schemes}
    for mi, m in enumerate(spec.m_grid):
        for gamma_h, gamma_g, grid, x, cell_seed in cells(mi, m):
            for token in spec.schemes:
                direct = token == "direct"
                if direct and mi > 0:
                    continue
                cfg, scheme = _scheme_config(spec, token, m, gamma_h, gamma_g, 1.0, 1.0)
                res = run_monte_carlo(
                    cfg, scheme, grid, frames, cell_seed, network_power_sweep=True, shards=shards
                )
                rows[token] += res.to_csv_rows([f"{token},{0 if direct else m},{_fmt(v)}" for v in x])
    return [outputs.write(f"{spec.name}_{token}.csv", header, rows[token]) for token in spec.schemes]


def _run_power_ratio(spec, outputs, seed, shards, frames):
    header = "scheme,M,r,trials,effective_relay_count"
    paths = []
    for token in spec.schemes:
        rows = []
        for mi, m in enumerate(spec.m_grid):
            p = _node_power(spec.N0, spec.network_power_db, m)
            cfg, scheme = _scheme_config(spec, token, m, np.ones(m), np.ones(m), p, p)
            counts = effective_relay_count(
                cfg, scheme, spec.r_grid, spec.trials, derive_seed(seed, STREAM_MISC, mi)
            )
            for r, count in zip(spec.r_grid, counts):
                rows.append(f"{token},{m},{_fmt(r)},{spec.trials},{_fmt(count)}")
        paths.append(outputs.write(f"{spec.name}_{token}.csv", header, rows))
    return paths


# Entries per row block of an asymptotic cell: a float64 (rows, M) temporary
# stays under 64 KB, and the blocks reuse heap memory. With 12 000 entries
# (96 KB temporaries) glibc trimmed and refaulted the worker heaps on some
# runs: an asym_m32 run took 4 k to 47 k minor faults on a 2-vCPU host,
# against a steady 4 k at 8000
_BLOCK_ENTRIES = 8000


def _run_asymptotic(spec, outputs, seed, shards, frames):
    header = (
        "M,r,trials,count_onoff,count_waterfill_partial,count_waterfill_statistical,"
        "count_maxpower,equality_fraction,max_water_level_spread"
    )
    cells = [(mi, m, ri, r) for mi, m in enumerate(spec.m_grid) for ri, r in enumerate(spec.r_grid)]
    # every cell draws from its own stream and numpy releases the GIL in the
    # heavy loops, so cells run one per core; rows still come out in grid order.
    # The workers' draw buffers together hold at most MAX_TRIAL_ENTRIES entries
    entries = spec.trials * max(spec.m_grid)
    rows = _map_jobs(lambda cell, buffers: _asymptotic_row(spec, seed, *cell, buffers), cells,
                     lambda: ChannelBuffers(entries), max(1, MAX_TRIAL_ENTRIES // entries))
    return [outputs.write(f"{spec.name}.csv", header, rows)]


def _asymptotic_row(spec, seed, mi, m, ri, r, buffers) -> str:
    """CSV row of cell (m, r), drawn from channel stream (seed, mi, ri) into buffers."""
    n = spec.trials
    p = _node_power(spec.N0, spec.network_power_db, m)
    gamma_h, gamma_g = (np.full(m, x) for x in _distance_variances(r))
    cfg, _ = _scheme_config(spec, "onoff", m, gamma_h, gamma_g, p, p)
    cfg_wf, _ = _scheme_config(spec, "waterfill_partial", m, gamma_h, gamma_g, p, p)
    cfg_st, _ = _scheme_config(spec, "waterfill_statistical", m, gamma_h, gamma_g, p, p)
    h, g = sample_channel_batch(cfg, n, derive_rng(seed, STREAM_CHANNELS, mi, ri), buffers)
    # per-row statistics, block by block (both allocators treat rows
    # independently); each mean then sums the full column as one array
    count_on = np.empty(n)
    count_wf = np.empty(n)
    equal = np.empty(n, dtype=bool)
    step = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        h2 = np.abs(h[rows]) ** 2
        caps = _batch_caps(cfg, h2, p, p)
        p_on = _allocate_batch(cfg, Scheme.ONOFF, h2, g[rows], caps)
        p_wf = _allocate_batch(cfg_wf, Scheme.WATERFILL, h2, g[rows], caps)
        count_on[rows] = np.count_nonzero(p_on, axis=1)
        np.sum(p_wf / caps, axis=1, out=count_wf[rows])
        np.all(p_wf == p_on, axis=1, out=equal[rows])
    count_st = _mean_cap_fraction(cfg_st, Scheme.WATERFILL, p, p, n, seed, mi, ri)
    # The spread of p_i gamma_gi over the uncapped relays is exactly 0: every
    # relay has the same gamma_g, so every uncapped one gets the same float
    # p = fl(mu / gamma_g) and the same product fl(p gamma_g); a row with no
    # uncapped relay has no spread. So the column is written, not computed.
    spread = 0.0
    return (
        f"{m},{_fmt(r)},{n},{_fmt(float(np.mean(count_on)))},{_fmt(float(np.mean(count_wf)))},"
        f"{_fmt(count_st)},{_fmt(float(m))},{_fmt(float(np.mean(equal)))},{_fmt(spread)}"
    )


def _run_saddle(spec, outputs, seed, shards, frames):
    header = "M,instances,trials,mean_mc_estimate,mean_bound,mean_rel_error,stderr"
    rows = []
    for mi, m in enumerate(spec.m_grid):
        gamma_h, gamma_g = spec.gammas_for(m)
        cfg, _ = _scheme_config(spec, "onoff", m, gamma_h, gamma_g, spec.p_s, spec.p_r)
        rel_errors = []
        variances = []
        mc_values = []
        bounds = []
        for j in range(spec.instances):
            h = sample_channel_batch(cfg, 1, derive_rng(seed, STREAM_CHANNELS, mi, j))[0][0]
            caps = _batch_caps(cfg, np.abs(h) ** 2, spec.p_s, spec.p_r)
            comp = saddle_point_error(
                h, gamma_g, caps, spec.eta, spec.trials, derive_seed(seed, STREAM_MISC, mi, j)
            )
            rel_errors.append(comp.rel_error)
            variances.append(comp.rel_error_stderr**2)
            mc_values.append(comp.mc_estimate)
            bounds.append(comp.bound)
        stderr = float(np.sqrt(np.sum(variances)) / spec.instances)
        rows.append(
            f"{m},{spec.instances},{spec.trials},{_fmt(np.mean(mc_values))},"
            f"{_fmt(np.mean(bounds))},{_fmt(np.mean(rel_errors))},{_fmt(stderr)}"
        )
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
