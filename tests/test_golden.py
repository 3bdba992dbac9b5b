"""Golden CSVs: one small scenario per experiment kind, pinned byte for byte.

Together the scenarios run every scheme token, heterogeneous variances, the
direct link in both BER sweeps and an asymptotic cell with M > 20, so a
refactor of the channel, cap or allocation path that moves any output bit
fails here. One more power-ratio scenario draws 33 001 trials per cell, so
its relay counts span many row blocks and draw chunks at every M. Each
scenario's CSVs at its seed (0) are stored under golden/<scenario name>/;
a run must write the same files with the same bytes, at the host's usable
cores and at 1 and 4 patched ones, and a mismatch names each moved row with
each numeric field's relative change. To re-pin after a
change that is meant to move outputs, copy the CSVs that
_outputs(tmp_path, name) writes over the scenario's directory.
"""

import math
from pathlib import Path

import pytest
import yaml

from relaypower import sim
from relaypower.experiments import _RUNNERS, SCHEME_NAMES, load_spec, run_experiment

GOLDEN = Path(__file__).parent / "golden"

SCENARIOS = {
    "convergence": """\
kind: convergence
m_grid: [2, 16]
trials: 300
iterations: 6
network:
  p_s: 10.0
  p_r: 10.0
  gamma_h: [0.5, 2.0, 1.0, 3.0, 0.7, 1.5, 0.9, 2.5, 1.1, 0.6, 1.8, 1.3, 0.8, 2.2, 1.6, 0.4]
  gamma_g: [1.5, 0.6, 2.0, 0.9, 1.2, 0.5, 3.0, 1.0, 0.7, 2.4, 1.1, 0.8, 1.9, 1.4, 0.3, 2.1]
""",
    "bler_vs_snr": """\
kind: bler_vs_snr
schemes: [onoff, waterfill_partial, waterfill_statistical, maxpower, direct]
snr_db: [8.0, 14.0]
frames: 1000
network:
  M: 2
  gamma_h: [0.8, 1.6]
  gamma_g: [1.3, 0.5]
""",
    "ber_vs_distance": """\
kind: ber_vs_distance
schemes: [onoff, waterfill_partial, maxpower, direct]
m_grid: [2, 3]
r_grid: [0.3, 0.7]
network_power_db: 15.0
frames: 1000
network: {}
""",
    "power_ratio_vs_distance": """\
kind: power_ratio_vs_distance
schemes: [onoff, waterfill_partial, waterfill_statistical, maxpower]
m_grid: [2, 5]
r_grid: [0.2, 0.5, 0.8]
network_power_db: 15.0
trials: 200
network: {}
""",
    "ber_vs_network_power": """\
kind: ber_vs_network_power
schemes: [onoff, waterfill_statistical, direct]
m_grid: [2, 3]
snr_db: [10.0, 16.0]
frames: 1000
network:
  gamma_h: [1.2, 0.6, 2.0]
  gamma_g: [0.7, 1.9, 1.0]
""",
    "asymptotic_study": """\
kind: asymptotic_study
m_grid: [2, 24]
r_grid: [0.3, 0.7]
network_power_db: 20.0
trials: 200
network: {}
""",
    "saddle_study": """\
kind: saddle_study
m_grid: [2, 3]
trials: 10000
instances: 2
network:
  p_s: 2.0
  p_r: 3.0
  gamma_h: [0.9, 1.7, 0.4]
  gamma_g: [1.4, 0.6, 2.2]
""",
    "power_ratio_multi_block": """\
kind: power_ratio_vs_distance
name: power_ratio_multi_block
schemes: [onoff, waterfill_partial, waterfill_statistical, maxpower]
m_grid: [1, 3, 32]
r_grid: [0.3, 0.6]
network_power_db: 15.0
trials: 33001
network: {}
""",
}


def _outputs(tmp_path, name):
    scenario = tmp_path / f"{name}.yaml"
    scenario.write_text(SCENARIOS[name])
    paths = run_experiment(load_spec(scenario), tmp_path / name)
    return {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}


def _stored(name):
    return {p.name: p.read_bytes() for p in (GOLDEN / name).glob("*.csv")}


def _moved_rows(want: bytes, got: bytes) -> str:
    """One line per line of got that differs from want's: each changed field, with its relative change if numeric."""
    old, new = want.decode().splitlines(), got.decode().splitlines()
    header = old[0].split(",")
    lines = []
    for i, (a, b) in enumerate(zip(old, new)):
        fields = []
        for column, x, y in zip(header, a.split(","), b.split(",")):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                fields.append(f"{column} {x!r} -> {y!r}")
                continue
            change = f"{(fy - fx) / abs(fx):+.3g}" if fx else "from zero"
            fields.append(f"{column} {x} -> {y} (relative change {change})")
        if a != b:
            lines.append(f"line {i + 1}: " + ("; ".join(fields) or f"{a!r} -> {b!r}"))
    lines += [f"line {i + 1} only pinned: {a!r}" for i, a in enumerate(old[len(new):], len(new))]
    lines += [f"line {i + 1} only written: {b!r}" for i, b in enumerate(new[len(old):], len(old))]
    return "\n".join(lines)


def test_every_kind_and_scheme_is_pinned():
    assert {d.name for d in GOLDEN.iterdir()} == set(SCENARIOS)
    assert {k.value for k in _RUNNERS} == {yaml.safe_load(text)["kind"] for text in SCENARIOS.values()}
    assert {k.value for k in _RUNNERS} <= set(SCENARIOS)  # each kind's own scenario keeps the kind's name
    # the scheme each stored file scores, by its name: <scenario>_<scheme>.csv, or <scenario>.csv for all
    files = {name: {f.removeprefix(name).removeprefix("_").removesuffix(".csv") for f in _stored(name)}
             for name in SCENARIOS}
    assert all(files.values())
    for name, text in SCENARIOS.items():
        assert files[name] == set(yaml.safe_load(text).get("schemes", [""]))
    assert set().union(*files.values()) - {""} == set(SCHEME_NAMES)
    assert "direct" in files["ber_vs_distance"] & files["ber_vs_network_power"]
    for kind in ("bler_vs_snr", "power_ratio_vs_distance", "ber_vs_network_power"):
        assert "waterfill_statistical" in files[kind]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_csv_bytes(tmp_path, name):
    got, want = _outputs(tmp_path, name), _stored(name)
    assert sorted(got) == sorted(want)
    moved = {f: _moved_rows(want[f], got[f]) for f in sorted(want) if got[f] != want[f]}
    assert not moved, "\n".join(f"{f}:\n{text}" for f, text in moved.items())


@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_csv_bytes_at_any_core_count(tmp_path, monkeypatch, name, cores):
    # one worker runs every job in the calling thread; four run more workers than this host may have cores
    monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
    test_csv_bytes(tmp_path, name)


def test_a_mismatch_names_each_moved_field():
    want = b"M,r,label,count\n2,0.5,a,1.5\n4,0.5,b,3\n8,0.5,c,0\n"
    got = b"M,r,label,count\n2,0.5,a,1.5\n4,0.5,x,3.0000000000000004\n8,0.5,c,-1e-300\n9,0.5,d,1\n"
    assert _moved_rows(want, got).splitlines() == [
        "line 3: label 'b' -> 'x'; count 3 -> 3.0000000000000004 (relative change +1.48e-16)",
        "line 4: count 0 -> -1e-300 (relative change from zero)",
        "line 5 only written: '9,0.5,d,1'",
    ]
    assert _moved_rows(got, want).splitlines()[-1] == "line 5 only pinned: '9,0.5,d,1'"
