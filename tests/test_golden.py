"""Golden CSV digests: one small scenario per experiment kind, pinned byte for byte.

Together the scenarios run every scheme token, heterogeneous variances, the
direct link in both BER sweeps and an asymptotic cell with M > 20, so a
refactor of the channel, cap or allocation path that moves any output bit
fails here. One more power-ratio scenario draws 33 001 trials per cell, so
its relay counts span many row blocks and draw chunks at every M. To re-pin
after a change that is meant to move outputs, print _digests(tmp_path, name)
for each scenario name and paste the result.
"""

import hashlib

import pytest
import yaml

from relaypower.experiments import _RUNNERS, SCHEME_NAMES, load_spec, run_experiment

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

# SHA-256 of every CSV each scenario writes at its seed (0); the keys of SCENARIOS are scenario names
DIGESTS = {
    "asymptotic_study": {
        "asymptotic_study.csv":
            "1caedab02f7cfe8814a660138377f72e72f88b5731200917cc1fc09b91559c0c",
    },
    "ber_vs_distance": {
        "ber_vs_distance_direct.csv":
            "067384bba794ce8883e090491d6032d6afb7a0b31cfdef118ffbd23549de8599",
        "ber_vs_distance_maxpower.csv":
            "f683680b7cb84aa083637749d7f3c818d8589584b7afdd8ac2da21626c24fdc2",
        "ber_vs_distance_onoff.csv":
            "82031fba274e59ad409d00289ad6245f562da52799abfc341a110508f4355fe8",
        "ber_vs_distance_waterfill_partial.csv":
            "a1e14f57b1c6986ffe6d92c0524b740f0458b7fa697e955e81120a0e79f24b62",
    },
    "ber_vs_network_power": {
        "ber_vs_network_power_direct.csv":
            "7afabafce3f52e8333c92965e6c6569d269a29e0ce5d1b46e49b59017ddec938",
        "ber_vs_network_power_onoff.csv":
            "18ebe60c869270bf1b7fc3075985bd1cf218660b10ecdb39b2d87e8474f9a8f9",
        "ber_vs_network_power_waterfill_statistical.csv":
            "9fbb89098009b19b90a4c731ba9606bfee118740a6fb6116cd0a2effb5bf7932",
    },
    "bler_vs_snr": {
        "bler_vs_snr_direct.csv":
            "c0de74a06a04eadf7d48cce6b5958f283d7c64d429266a2f5009c8680c67bc58",
        "bler_vs_snr_maxpower.csv":
            "259d1a165bfb93301e5f27b26bf383d2fa45d3c2a82fee86b5bb6cfb78441870",
        "bler_vs_snr_onoff.csv":
            "0633a71d11d1a165796952fe14ef49810b2f794966d11881cf208b19f96c4996",
        "bler_vs_snr_waterfill_partial.csv":
            "112a7534c16107fdf8240d2e3f33f4903776104a916d086e4494d1ae19016d7e",
        "bler_vs_snr_waterfill_statistical.csv":
            "0db48c7f40537aba0e96f8fd8808df19b6e7fc93ea0775f38ed279c662013a50",
    },
    "convergence": {
        "convergence.csv":
            "9b60695b5ae8d73512d011cd750fbbd818e823a8849bde91e49c374bbc469366",
    },
    "power_ratio_multi_block": {
        "power_ratio_multi_block_maxpower.csv":
            "a600d82e3dbf06185398e0468fd2331be652c02777f7ca1b48031c3424b3ec9f",
        "power_ratio_multi_block_onoff.csv":
            "ad38ac5d6296333c2de80ee2794bd6c2ee7d276b63f081808c0020e4b3e95389",
        "power_ratio_multi_block_waterfill_partial.csv":
            "aadb045d8a9223d26ae4e1ebf1aa5fafcda183e4c616ba164b0a1af71174f8a6",
        "power_ratio_multi_block_waterfill_statistical.csv":
            "0bce2521502d8229f33b1a50e0809a694a1c73f7092376650d35a1d0e4cd5156",
    },
    "power_ratio_vs_distance": {
        "power_ratio_vs_distance_maxpower.csv":
            "98f88f8957db9e46de3621d0305fad2ed3c04279fcebf97f2a10ed39ec6cc93b",
        "power_ratio_vs_distance_onoff.csv":
            "283ec6be53e4656d4881a4a66d4926e37a31de4dc7c34de343bc8fda74918f0f",
        "power_ratio_vs_distance_waterfill_partial.csv":
            "d6c170a41c8322d087c0655385353a0a772408ab8349319f6de58381e6004fb2",
        "power_ratio_vs_distance_waterfill_statistical.csv":
            "848d03a78e9ad47e98de9eb611a9d2583e0cfb13c328b480bd6173219b382b5b",
    },
    "saddle_study": {
        "saddle_study.csv":
            "965c3ef0f38a295548183549996684503f17d084c4b8e83550e1d11ba0c12b03",
    },
}


def _digests(tmp_path, name):
    scenario = tmp_path / f"{name}.yaml"
    scenario.write_text(SCENARIOS[name])
    paths = run_experiment(load_spec(scenario), tmp_path / name)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.suffix == ".csv"}


def test_every_kind_and_scheme_is_pinned():
    assert set(SCENARIOS) == set(DIGESTS)
    assert {k.value for k in _RUNNERS} == {yaml.safe_load(text)["kind"] for text in SCENARIOS.values()}
    assert {k.value for k in _RUNNERS} <= set(SCENARIOS)  # each kind's own scenario keeps the kind's name
    schemes = {name: set(yaml.safe_load(text).get("schemes", [])) for name, text in SCENARIOS.items()}
    assert set().union(*schemes.values()) == set(SCHEME_NAMES)
    assert "direct" in schemes["ber_vs_distance"] & schemes["ber_vs_network_power"]
    for kind in ("bler_vs_snr", "power_ratio_vs_distance", "ber_vs_network_power"):
        assert "waterfill_statistical" in schemes[kind]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_csv_digests(tmp_path, name):
    assert _digests(tmp_path, name) == DIGESTS[name]
