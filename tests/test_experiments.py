"""Scenario files, experiment runners, and the command-line entry point."""

import concurrent.futures
import hashlib
import re
import sys

import numpy as np
import pytest
import yaml
from oracles import DrawsAlive, JobSpy

from relaypower import experiments, model, sim
from relaypower.cli import main
from relaypower.experiments import (
    MAX_TRIAL_ENTRIES,
    SCHEME_NAMES,
    ExperimentKind,
    SpecError,
    emit_plot_script,
    load_spec,
    run_experiment,
)
from relaypower.model import CsitMode, NetworkConfig, _batch_caps, _sample_channel_powers, sample_channel_batch
from relaypower.objectives import SaddleComparison, saddle_point_error
from relaypower.onoff import solve_onoff_batch
from relaypower.rng import STREAM_CHANNELS, STREAM_MISC, derive_rng, derive_seed
from relaypower.sim import Scheme, _allocate_batch

MINIMAL = {
    "convergence": """\
kind: convergence
m_grid: [2, 4]
trials: 200
iterations: 6
network:
  p_s: 10.0
  p_r: 10.0
""",
    "bler_vs_snr": """\
kind: bler_vs_snr
schemes: [onoff, direct]
snr_db: [8.0, 12.0]
frames: 1000
network:
  M: 2
""",
    "ber_vs_distance": """\
kind: ber_vs_distance
schemes: [onoff, direct]
m_grid: [2]
r_grid: [0.3, 0.7]
network_power_db: 15.0
frames: 1000
network: {}
""",
    "power_ratio_vs_distance": """\
kind: power_ratio_vs_distance
schemes: [onoff, maxpower]
m_grid: [2]
r_grid: [0.2, 0.8]
network_power_db: 15.0
trials: 100
network: {}
""",
    "ber_vs_network_power": """\
kind: ber_vs_network_power
schemes: [onoff]
m_grid: [2]
snr_db: [14.0, 18.0]
frames: 1000
network: {}
""",
    "asymptotic_study": """\
kind: asymptotic_study
m_grid: [2]
r_grid: [0.1, 0.9]
network_power_db: 15.0
trials: 100
network: {}
""",
    "saddle_study": """\
kind: saddle_study
m_grid: [2]
trials: 10000
instances: 2
network:
  p_s: 1.0
  p_r: 1.0
""",
}

EXPECTED_HEADERS = {
    "convergence": "M,iteration,mean_normalized_objective",
    "bler_vs_snr": "scheme,snr_db,frames,block_errors,bit_errors,bler,ber,stderr_bler",
    "ber_vs_distance": "scheme,M,r,frames,block_errors,bit_errors,bler,ber,stderr_bler",
    "power_ratio_vs_distance": "scheme,M,r,trials,effective_relay_count",
    "ber_vs_network_power": "scheme,M,snr_db,frames,block_errors,bit_errors,bler,ber,stderr_bler",
    "asymptotic_study": ("M,r,trials,count_onoff,count_waterfill_partial,"
                         "count_waterfill_statistical,count_maxpower,"
                         "equality_fraction,max_water_level_spread"),
    "saddle_study": "M,instances,trials,mean_mc_estimate,mean_bound,mean_rel_error,stderr",
}


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSpec:
    def test_defaults_filled_in(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        assert spec.kind is ExperimentKind.BLER_VS_SNR
        assert spec.name == "bler_vs_snr"
        assert spec.seed == 0
        assert spec.N0 == 1.0
        assert spec.M == 2 and not hasattr(spec, "T")  # the block length is M
        assert spec.gamma_h == 1.0 and spec.gamma_g == 1.0

    def test_saddle_defaults(self, tmp_path):
        spec = load_spec(_write(tmp_path, "kind: saddle_study\nm_grid: [2]\n"
                                          "network: {p_s: 1.0, p_r: 1.0}\n"))
        assert spec.trials == 100_000
        assert spec.instances == 8
        assert spec.eta == 1.0

    def test_convergence_defaults(self, tmp_path):
        spec = load_spec(_write(tmp_path, "kind: convergence\nm_grid: [2]\n"
                                          "network: {p_s: 10.0, p_r: 10.0}\n"))
        assert spec.trials == 10_000
        assert spec.iterations == 10

    def test_gamma_scalar_broadcast_and_list_prefix(self, tmp_path):
        text = """\
kind: saddle_study
m_grid: [2, 3]
trials: 10000
network:
  p_s: 1.0
  p_r: 1.0
  gamma_g: [0.85, 3.17, 1.50, 1.89]
"""
        spec = load_spec(_write(tmp_path, text))
        gh, gg = spec.gammas_for(3)
        np.testing.assert_array_equal(gh, np.ones(3))
        np.testing.assert_array_equal(gg, [0.85, 3.17, 1.50])

    def test_resolved_round_trips_through_yaml(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["saddle_study"]))
        resolved = yaml.safe_load(yaml.safe_dump(spec.resolved()))
        assert resolved["kind"] == "saddle_study"
        assert resolved["trials"] == 10000
        assert resolved["instances"] == 2
        assert resolved["network"]["p_s"] == 1.0


class TestValidation:
    def _err(self, tmp_path, text):
        with pytest.raises(SpecError) as info:
            load_spec(_write(tmp_path, text))
        return str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "absent.yaml")

    def test_invalid_yaml_carries_line(self, tmp_path):
        msg = self._err(tmp_path, "kind: [unclosed\n")
        assert "scenario.yaml:" in msg and "not valid YAML" in msg

    def test_unknown_kind(self, tmp_path):
        msg = self._err(tmp_path, "kind: nonsense\nnetwork: {}\n")
        assert "unknown kind" in msg and "scenario.yaml:1:" in msg

    def test_unknown_field_anchored_to_its_line(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"] + "bogus: 3\n")
        assert "scenario.yaml:7:" in msg and "bogus" in msg

    def test_missing_required_field(self, tmp_path):
        msg = self._err(tmp_path, "kind: bler_vs_snr\nschemes: [onoff]\n"
                                  "snr_db: [10.0]\nnetwork: {M: 2}\n")
        assert "missing required field 'frames'" in msg

    def test_csit_mode_rejected_as_derived(self, tmp_path):
        text = MINIMAL["bler_vs_snr"].replace("  M: 2", "  M: 2\n  csit_mode: perfect")
        msg = self._err(tmp_path, text)
        assert "derived from each scheme" in msg

    def test_fixed_powers_rejected_for_swept_kinds(self, tmp_path):
        text = MINIMAL["bler_vs_snr"].replace("  M: 2", "  M: 2\n  p_s: 10.0")
        msg = self._err(tmp_path, text)
        assert "p_s" in msg

    def test_unknown_scheme_lists_alternatives(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"].replace("direct", "cooperative"))
        assert "unknown scheme" in msg and "waterfill_partial" in msg

    def test_duplicate_scheme(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"].replace("direct", "onoff"))
        assert "duplicate scheme" in msg

    def test_duplicate_top_level_key_anchored_to_the_second(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["power_ratio_vs_distance"] + "trials: 200\n")
        assert "scenario.yaml:8:" in msg and "duplicate key 'trials'" in msg

    def test_duplicate_network_key_anchored_to_the_second(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"] + "  M: 12\n")
        assert "scenario.yaml:7:" in msg and "duplicate key 'network.M'" in msg

    @pytest.mark.parametrize("name", ["a/b", "a\\0b"])
    def test_name_with_slash_or_nul_anchored_to_its_line(self, tmp_path, name):
        text = MINIMAL["bler_vs_snr"].replace("kind: bler_vs_snr\n", f'kind: bler_vs_snr\nname: "{name}"\n')
        msg = self._err(tmp_path, text)
        assert "scenario.yaml:2:" in msg and "name must be a non-empty string without '/' or NUL" in msg

    def test_direct_rejected_in_power_ratio(self, tmp_path):
        msg = self._err(tmp_path,
                        MINIMAL["power_ratio_vs_distance"].replace("maxpower", "direct"))
        assert "no relays to count" in msg

    def test_distance_kinds_reject_explicit_variances(self, tmp_path):
        text = MINIMAL["ber_vs_distance"].replace("network: {}", "network:\n  gamma_h: 2.0")
        msg = self._err(tmp_path, text)
        assert "derived from the distance sweep" in msg

    def test_gamma_list_shorter_than_largest_m(self, tmp_path):
        text = """\
kind: saddle_study
m_grid: [2, 8]
network:
  p_s: 1.0
  p_r: 1.0
  gamma_h: [1.0, 2.0]
"""
        msg = self._err(tmp_path, text)
        assert "lists 2 values but the largest M is 8" in msg

    def test_grid_must_increase(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"].replace("[8.0, 12.0]", "[12.0, 8.0]"))
        assert "increasing" in msg

    def test_r_grid_bounds(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["ber_vs_distance"].replace("0.7", "1.0"))
        assert "r_grid" in msg

    def test_simulated_relay_count_capped(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"].replace("M: 2", "M: 13"))
        assert "at most 12" in msg

    def test_saddle_trials_floor(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["saddle_study"].replace("trials: 10000", "trials: 9999"))
        assert msg.endswith("scenario.yaml:3: trials must be at least 10000")

    def test_study_relay_count_capped(self, tmp_path):
        text = MINIMAL["asymptotic_study"].replace("m_grid: [2]", "m_grid: [2, 1" + "0" * 30 + "]")
        msg = self._err(tmp_path, text)
        assert msg.endswith("scenario.yaml:2: m_grid entries must be below 1025")
        load_spec(_write(tmp_path, text.replace("1" + "0" * 30, "1024")))

    @pytest.mark.parametrize("kind", ["power_ratio_vs_distance", "asymptotic_study"])
    def test_trials_times_largest_m_capped(self, tmp_path, kind):
        text = re.sub(r"m_grid: \[.*\]", "m_grid: [1, 64]", MINIMAL[kind])
        trials = MAX_TRIAL_ENTRIES // 64
        assert load_spec(_write(tmp_path, re.sub(r"trials: \d+", f"trials: {trials}", text))).trials == trials
        msg = self._err(tmp_path, re.sub(r"trials: \d+", f"trials: {trials + 1}", text))
        assert f"trials x largest M must be at most {MAX_TRIAL_ENTRIES}" in msg

    @pytest.mark.parametrize("iterations,trajectory", [(6, 14), (100, 202)])
    def test_convergence_bound_counts_the_trajectory(self, tmp_path, iterations, trajectory):
        # ceil((iterations + 1) (64 + 16) / 40) entries per trial at M = 64
        text = (re.sub(r"m_grid: \[.*\]", "m_grid: [1, 64]", MINIMAL["convergence"])
                .replace("iterations: 6", f"iterations: {iterations}"))
        trials = MAX_TRIAL_ENTRIES // (64 + trajectory)
        assert load_spec(_write(tmp_path, re.sub(r"trials: \d+", f"trials: {trials}", text))).trials == trials
        msg = self._err(tmp_path, re.sub(r"trials: \d+", f"trials: {trials + 1}", text))
        assert msg.endswith(f"scenario.yaml:3: trials x (largest M + {trajectory} trajectory entries) "
                            f"must be at most {MAX_TRIAL_ENTRIES}")

    def test_iterations_capped_at_the_solver_bound(self, tmp_path, capsys):
        assert load_spec(_write(tmp_path, MINIMAL["convergence"].replace("iterations: 6", "iterations: 100")))
        path = _write(tmp_path, MINIMAL["convergence"].replace("iterations: 6", "iterations: 1000000000"))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{path}:4: iterations must be at most 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_network_t_rejected_at_its_line(self, tmp_path, capsys):
        # the block length is M: one dispersion matrix per relay
        path = _write(tmp_path, MINIMAL["bler_vs_snr"].replace("  M: 2\n", "  M: 2\n  T: 3\n"))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{path}:7: T is M, one dispersion matrix per relay; remove it" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_saddle_trials_capped(self, tmp_path):
        text = MINIMAL["saddle_study"].replace("trials: 10000", f"trials: {MAX_TRIAL_ENTRIES + 1}")
        assert f"trials must be at most {MAX_TRIAL_ENTRIES}" in self._err(tmp_path, text)

    def test_cli_rejects_huge_relay_count_with_exit_two(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL["asymptotic_study"].replace("[2]", "[1" + "0" * 30 + "]"))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{path}:2: m_grid entries must be below 1025" in capsys.readouterr().err

    def test_frames_floor(self, tmp_path):
        msg = self._err(tmp_path, MINIMAL["bler_vs_snr"].replace("frames: 1000", "frames: 10"))
        assert "at least 1000" in msg


    @pytest.mark.parametrize("text,first", [
        # m_grid is checked before the network block, the network block before schemes
        ("kind: ber_vs_network_power\nschemes: [bogus]\nm_grid: [0]\nsnr_db: [1.0]\n"
         "frames: 1000\nnetwork: {p_s: 1.0}\n", "m_grid entries must exceed 0"),
        ("kind: ber_vs_network_power\nschemes: [bogus]\nm_grid: [2]\nsnr_db: [1.0]\n"
         "frames: 1000\nnetwork: {p_s: 1.0}\n", "disallowed network field 'p_s'"),
        ("kind: ber_vs_network_power\nschemes: [bogus]\nm_grid: [2]\nsnr_db: [1.0]\n"
         "frames: 10\nnetwork: {}\n", "unknown scheme 'bogus'"),
        ("kind: saddle_study\nm_grid: [2]\ntrials: 0\ninstances: 0\neta: 0\n"
         "network: {p_s: 1.0, p_r: 1.0}\n", "trials must be at least 1"),
        ("kind: saddle_study\nm_grid: [2]\ninstances: 0\neta: 0\n"
         "network: {p_s: 1.0, p_r: 1.0}\n", "instances must be at least 1"),
        ("kind: convergence\nm_grid: [2]\niterations: 0\ntrials: 0\n"
         "network: {p_s: 1.0, p_r: 1.0}\n", "trials must be at least 1"),
    ])
    def test_first_error_is_reported(self, tmp_path, text, first):
        assert first in self._err(tmp_path, text)


# one float field per scenario, its value BAD
FLOAT_SITES = {
    "network_power_db": "kind: asymptotic_study\nm_grid: [2]\nr_grid: [0.5]\n"
                        "network_power_db: BAD\nnetwork: {}\n",
    "r_grid": "kind: asymptotic_study\nm_grid: [2]\nr_grid: [0.1, BAD]\n"
              "network_power_db: 15.0\nnetwork: {}\n",
    "eta": "kind: saddle_study\nm_grid: [2]\neta: BAD\nnetwork: {p_s: 1.0, p_r: 1.0}\n",
    "p_s": "kind: saddle_study\nm_grid: [2]\nnetwork:\n  p_s: BAD\n  p_r: 1.0\n",
    "p_r": "kind: saddle_study\nm_grid: [2]\nnetwork:\n  p_s: 1.0\n  p_r: BAD\n",
    "N0": "kind: saddle_study\nm_grid: [2]\nnetwork:\n  p_s: 1.0\n  p_r: 1.0\n  N0: BAD\n",
    "gamma_h": MINIMAL["bler_vs_snr"] + "  gamma_h: BAD\n",
    "gamma_g": MINIMAL["bler_vs_snr"] + "  gamma_g: [1.0, BAD]\n",
    "snr_db": MINIMAL["bler_vs_snr"].replace("[8.0, 12.0]", "[8.0, BAD]"),
}


class TestNonFiniteNumbers:
    """Every float field rejects NaN, infinities and integers beyond float range at its line."""

    def _assert_anchored(self, tmp_path, site, bad):
        text = FLOAT_SITES[site].replace("BAD", bad)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if bad in row)
        path = _write(tmp_path, text)
        with pytest.raises(SpecError, match=rf"^{re.escape(str(path))}:{line}: {site} "):
            load_spec(path)

    @pytest.mark.parametrize("site", sorted(FLOAT_SITES))
    def test_nan(self, tmp_path, site):
        self._assert_anchored(tmp_path, site, ".nan")

    @pytest.mark.parametrize("bad", [".inf", "-.inf", "1.0e400"])
    @pytest.mark.parametrize("site", sorted(FLOAT_SITES))
    def test_infinity(self, tmp_path, site, bad):
        self._assert_anchored(tmp_path, site, bad)

    @pytest.mark.parametrize("site", sorted(FLOAT_SITES))
    def test_integer_beyond_float_range(self, tmp_path, site):
        self._assert_anchored(tmp_path, site, "1" + "0" * 400)

    @pytest.mark.parametrize("bad", [".nan", ".inf", "1" + "0" * 400], ids=["nan", "inf", "401_digits"])
    def test_cli_exits_two(self, tmp_path, capsys, bad):
        path = _write(tmp_path, FLOAT_SITES["network_power_db"].replace("BAD", bad))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{path}:4: network_power_db must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_run_writes_expected_outputs(tmp_path, kind, capsys):
    spec = load_spec(_write(tmp_path, MINIMAL[kind]))
    out = tmp_path / "out"
    paths = run_experiment(spec, out)
    names = sorted(p.name for p in paths)
    assert f"{kind}_plot.py" in names
    csvs = [p for p in paths if p.suffix == ".csv"]
    per_scheme = {"bler_vs_snr", "ber_vs_distance", "power_ratio_vs_distance",
                  "ber_vs_network_power"}
    assert len(csvs) == (len(spec.schemes) if kind in per_scheme else 1)
    for p in csvs:
        assert p.read_text().splitlines()[0] == EXPECTED_HEADERS[kind]
    summary = capsys.readouterr().out
    assert f"kind={kind} seed=0 frames=" in summary and "elapsed_s=" in summary


class TestExtremePowers:
    def test_validator_accepts_300_db_grids(self, tmp_path):
        grid = [-300.0, -100.0, 0.0, 100.0, 300.0]
        for kind in ("bler_vs_snr", "ber_vs_network_power"):
            text = re.sub(r"snr_db: \[.*\]", f"snr_db: {grid}", MINIMAL[kind])
            assert load_spec(_write(tmp_path, text)).snr_db == tuple(grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("power_db", [-300.0, 300.0])
    def test_asymptotic_study_at_300_db_stays_finite(self, tmp_path, power_db):
        text = (MINIMAL["asymptotic_study"].replace("m_grid: [2]", "m_grid: [2, 4]")
                .replace("network_power_db: 15.0", f"network_power_db: {power_db}"))
        spec = load_spec(_write(tmp_path, text))
        assert spec.network_power_db == power_db
        (csv,) = [p for p in run_experiment(spec, tmp_path / "out") if p.suffix == ".csv"]
        values = np.array([row.split(",") for row in csv.read_text().splitlines()[1:]],
                          dtype=np.float64)
        assert values.shape == (4, 9) and np.all(np.isfinite(values))

    @pytest.mark.filterwarnings("error")
    def test_saddle_study_with_underflowing_kernels_reports_infinite_error(self, tmp_path):
        # at eta = 1e6 every sampled kernel of M = 2 underflows to 0
        text = MINIMAL["saddle_study"].replace("instances: 2", "instances: 2\neta: 1.0e+6")
        (csv,) = [p for p in run_experiment(load_spec(_write(tmp_path, text)), tmp_path / "out")
                  if p.suffix == ".csv"]
        assert csv.read_text().splitlines()[1].endswith(",inf,inf")


class TestDerivedValues:
    """A value whose linear power or variance leaves LINEAR_RANGE is rejected at its line."""

    @pytest.mark.parametrize("site,bad", [("N0", "1.0e+51"), ("p_s", "1.0e-51"), ("p_r", "0.0"),
                                          ("eta", "1.0e+300"), ("gamma_h", "5.0e-324"), ("gamma_g", "1.0e+60")])
    def test_given_value_outside_the_range_rejected_at_its_line(self, tmp_path, site, bad):
        text = FLOAT_SITES[site].replace("BAD", bad)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if bad in row)
        key = {"eta": "eta", "gamma_g": "network.gamma_g[1]"}.get(site, f"network.{site}")
        with pytest.raises(SpecError, match=rf"scenario\.yaml:{line}: {re.escape(key)}: \S+ outside "
                                            rf"\[1e-50, 1e\+50\]$"):
            load_spec(_write(tmp_path, text))

    @pytest.mark.parametrize("kind,old,new", [
        ("bler_vs_snr", "[8.0, 12.0]", "[8.0, 4000.0]"),
        ("ber_vs_network_power", "[14.0, 18.0]", "[-4000.0, 18.0]"),
        ("asymptotic_study", "network_power_db: 15.0", "network_power_db: 4000.0"),
        ("asymptotic_study", "[0.1, 0.9]", "[1.0e-200, 0.9]"),
        ("ber_vs_distance", "[0.3, 0.7]", "[1.0e-200, 0.7]"),
        ("asymptotic_study", "[0.1, 0.9]", "[1.0e-160, 0.9]"),
        ("power_ratio_vs_distance", "[0.2, 0.8]", "[1.0e-160, 0.8]"),
        # N0 10^12 leaves the range at N0 = 1e40 (PyYAML needs the exponent sign)
        ("bler_vs_snr", "[8.0, 12.0]\nframes: 1000\nnetwork:\n  M: 2\n",
         "[8.0, 120.0]\nframes: 1000\nnetwork:\n  M: 2\n  N0: 1.0e+40\n"),
        # a normal network power whose share overflowed p_s |h|^2 in the caps
        ("ber_vs_network_power", "[14.0, 18.0]", "[14.0, 3080.0]"),
        ("asymptotic_study", "network_power_db: 15.0", "network_power_db: 3080.0"),
        # a share below the range: 3 dB at N0 = 1e-50 is 2e-50, split over M + 1 = 3
        ("ber_vs_network_power", "[14.0, 18.0]\nframes: 1000\nnetwork: {}",
         "[3.0]\nframes: 1000\nnetwork: {N0: 1.0e-50}"),
    ], ids=["snr_4000", "snr_-4000", "network_power_4000", "r_1e-200", "r_1e-200_ber", "r_1e-160",
            "r_1e-160_power_ratio", "large_N0", "snr_3080", "network_power_3080", "small_share"])
    def test_cli_exits_two_at_the_line(self, tmp_path, capsys, kind, old, new):
        text = MINIMAL[kind].replace(old, new)
        assert text != MINIMAL[kind]
        line = next(i for i, row in enumerate(text.splitlines(), 1) if new.splitlines()[0] in row)
        path = _write(tmp_path, text)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert re.search(rf"^error: {re.escape(str(path))}:{line}: .* outside \[1e-50, 1e\+50\]$",
                         capsys.readouterr().err, re.M)
        assert not (tmp_path / "out").exists()


# the direct link runs the first M only, so the cells at M = 2 have no scheme left
DIRECT_ONLY_SWEEP = """\
kind: ber_vs_distance
name: direct_only
schemes: [direct]
m_grid: [1, 2]
r_grid: [0.3, 0.7]
network_power_db: 12.0
frames: 1000
network: {}
"""


class TestDeterminism:
    def test_direct_only_link_sweep_is_pinned(self, tmp_path):
        paths = run_experiment(load_spec(_write(tmp_path, DIRECT_ONLY_SWEEP)), tmp_path / "out")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.suffix == ".csv"}
        assert digests == {"direct_only_direct.csv": "d23f869a4e85e894410b9606f5a426fae67e9d5e6c71427f91007656b2974995"}

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["ber_vs_distance"]))
        texts = []
        for d in ("a", "b"):
            paths = run_experiment(spec, tmp_path / d)
            texts.append({p.name: p.read_text() for p in paths})
        assert texts[0] == texts[1]

    def test_shard_count_does_not_change_outputs(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        texts = []
        for d, shards in (("a", 1), ("b", 3)):
            paths = run_experiment(spec, tmp_path / d, shards=shards)
            texts.append({p.name: p.read_text() for p in paths})
        assert texts[0] == texts[1]

    def test_seed_override_changes_outputs(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        a = run_experiment(spec, tmp_path / "a")
        b = run_experiment(spec, tmp_path / "b", seed=1)
        a_text = {p.name: p.read_text() for p in a if p.suffix == ".csv"}
        b_text = {p.name: p.read_text() for p in b if p.suffix == ".csv"}
        assert a_text != b_text


class TestRunFailures:
    def test_frames_override_rejected_for_trial_kinds(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["convergence"]))
        with pytest.raises(SpecError, match="no frame count"):
            run_experiment(spec, tmp_path / "out", frames_override=2000)

    def test_frames_override_floor(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        with pytest.raises(SpecError, match="at least 1000"):
            run_experiment(spec, tmp_path / "out", frames_override=10)

    def test_failed_run_leaves_no_partial_files(self, tmp_path, monkeypatch):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        assert len(spec.schemes) > 1
        real = experiments._OutputSet.write

        def failing(outputs, *args):
            if outputs.paths:  # the first scheme's CSV is written by then
                raise ValueError("second scheme failed")
            return real(outputs, *args)

        monkeypatch.setattr(experiments._OutputSet, "write", failing)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="second scheme failed"):
            run_experiment(spec, out)
        assert not out.exists()

    def test_negative_seed_rejected_before_the_run(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        with pytest.raises(SpecError, match="--seed must be non-negative"):
            run_experiment(spec, tmp_path / "out", seed=-1)
        assert not (tmp_path / "out").exists()


ASYMPTOTIC = """\
kind: asymptotic_study
m_grid: {m_grid}
r_grid: [0.1, 0.6]
network_power_db: 20.0
trials: {trials}
network: {{}}
"""

POWER_RATIO = """\
kind: power_ratio_vs_distance
schemes: {schemes}
m_grid: {m_grid}
r_grid: [0.1, 0.6]
network_power_db: 20.0
trials: {trials}
network: {{}}
"""

ALL_COUNTED = "[onoff, waterfill_partial, waterfill_statistical, maxpower]"

# the two (M, r) kinds, each with its m_grid and trials left open
RELAY_COUNT_KINDS = {
    "asymptotic_study": ASYMPTOTIC,
    "power_ratio_vs_distance": POWER_RATIO.replace("{schemes}", ALL_COUNTED),
}


def _cell_setup(spec, m, r, mode):
    """(node power p, network of cell (m, r) under mode)."""
    p = spec.N0 * 10.0 ** (spec.network_power_db / 10.0) / (m + 1)
    gamma_h, gamma_g = np.full(m, 1.0 / r**2), np.full(m, 1.0 / (1.0 - r) ** 2)
    return p, NetworkConfig(M=m, p_s=p, p_r=p, N0=spec.N0, gamma_h=gamma_h, gamma_g=gamma_g, csit_mode=mode)


def _mean_count(cfg, scheme, h2, g2, p):
    """E[sum_i p_i / P_i] of one scheme over all rows of h2 and g2 in one pass."""
    caps = _batch_caps(cfg, h2, p, p)
    return float(np.mean(np.sum(_allocate_batch(cfg, scheme, h2, g2, caps) / caps, axis=1)))


def _asymptotic_rows(spec, seed):
    """Each cell's row from one full-batch pass, with the water-level spread computed."""
    rows = []
    for mi, m in enumerate(spec.m_grid):
        for ri, r in enumerate(spec.r_grid):
            p, cfg = _cell_setup(spec, m, r, CsitMode.PERFECT)
            _, cfg_wf = _cell_setup(spec, m, r, CsitMode.PARTIAL)
            _, cfg_st = _cell_setup(spec, m, r, CsitMode.STATISTICAL)
            h, g = sample_channel_batch(cfg, spec.trials, derive_rng(seed, STREAM_CHANNELS, mi, ri))
            h2, g2 = np.abs(h) ** 2, np.abs(g) ** 2
            caps = _batch_caps(cfg, h2, p, p)
            p_on = _allocate_batch(cfg, Scheme.ONOFF, h2, g2, caps)
            p_wf = _allocate_batch(cfg_wf, Scheme.WATERFILL, h2, g2, caps)
            # worst spread of p_i gamma_gi over uncapped relays; rows with none drop out
            levels, free = p_wf * cfg.gamma_g, p_wf != caps
            spread = np.where(free, levels, -np.inf).max(axis=1) - np.where(free, levels, np.inf).min(axis=1)
            spread = spread[np.isfinite(spread)]
            assert spread.size > 0
            values = [
                np.mean(np.count_nonzero(p_on, axis=1)),
                np.mean(np.sum(p_wf / caps, axis=1)),
                # statistical waterfilling from the long-term caps alone, no draw
                _mean_count(cfg_st, Scheme.WATERFILL, cfg.gamma_h[None], None, p),
                float(m),
                np.mean(np.all(p_wf == p_on, axis=1)),
                spread.max(),
            ]
            rows.append(f"{m},{r:.17g},{spec.trials}," + ",".join(f"{float(v):.17g}" for v in values))
    return rows


def _power_ratio_csvs(spec, seed):
    """Each scheme's CSV with a full (trials, M) draw of its own per cell; statistical waterfilling draws none."""
    csvs = {}
    for token in spec.schemes:
        scheme, mode = SCHEME_NAMES[token]
        rows = ["scheme,M,r,trials,effective_relay_count"]
        for mi, m in enumerate(spec.m_grid):
            for ri, r in enumerate(spec.r_grid):
                p, cfg = _cell_setup(spec, m, r, mode)
                if mode is CsitMode.STATISTICAL:
                    h2, g2 = cfg.gamma_h[None], None
                else:
                    rng = derive_rng(derive_seed(seed, STREAM_MISC, mi), STREAM_CHANNELS, ri)
                    h, g = sample_channel_batch(cfg, spec.trials, rng)
                    h2, g2 = np.abs(h) ** 2, np.abs(g) ** 2
                count = _mean_count(cfg, scheme, h2, g2, p)
                rows.append(f"{token},{m},{r:.17g},{spec.trials},{count:.17g}")
        csvs[f"{spec.name}_{token}.csv"] = ("\n".join(rows) + "\n").encode()
    return csvs


class TestRelayCountCells:
    """Both (M, r) kinds run their cells one per core in row blocks; neither may change a byte."""

    # not a multiple of the block rows at any of these M, and over one block at M = 1
    TRIALS = model._BLOCK_ENTRIES + 1

    def _run(self, tmp_path, monkeypatch, kind, m_grid, cores, seed=0, out=None):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        spec = load_spec(_write(tmp_path, RELAY_COUNT_KINDS[kind].format(m_grid=m_grid, trials=self.TRIALS)))
        paths = run_experiment(spec, out or tmp_path / f"out{cores}", seed=seed)
        return spec, {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}

    @pytest.mark.parametrize("kind", RELAY_COUNT_KINDS)
    def test_bytes_identical_for_any_core_count(self, tmp_path, monkeypatch, capsys, kind):
        m_grid = [1, 2, 3, 32]
        assert all(self.TRIALS % (model._BLOCK_ENTRIES // m) for m in m_grid)
        # an M = 32 cell fits beside the cells of M <= 3, but not beside another M = 32 cell
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", self.TRIALS * 40)
        csvs = []
        for cores in (1, 2, 4):
            spy = JobSpy(sim._map_jobs)
            monkeypatch.setattr(experiments, "_map_jobs", spy)
            # more workers than cores, switching threads as often as it can
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                csvs.append(self._run(tmp_path, monkeypatch, kind, m_grid, cores)[1])
            finally:
                sys.setswitchinterval(interval)
            spy.check(sim.MAX_TRIAL_ENTRIES)
        assert len(csvs[0]) == (1 if kind == "asymptotic_study" else 4)
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    @pytest.mark.parametrize("kind", RELAY_COUNT_KINDS)
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_draws_alive_stay_within_the_budget(self, tmp_path, monkeypatch, capsys, kind, cores):
        # an M = 32 cell fits beside the cells of M <= 3, but not beside another M = 32 cell; at
        # each cell's start and end the draws of every workspace alive, cells that ended included,
        # hold at most the budget's 16 B per entry
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", self.TRIALS * 40)
        draws = DrawsAlive()
        monkeypatch.setattr(sim, "Workspace", draws.workspace)
        spy = JobSpy(sim._map_jobs, probe=draws)
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        self._run(tmp_path, monkeypatch, kind, [1, 2, 3, 32], cores)
        spy.check(sim.MAX_TRIAL_ENTRIES)
        assert 16 * self.TRIALS * 32 <= max(spy.probed) <= 16 * sim.MAX_TRIAL_ENTRIES

    def test_rows_match_one_full_batch_pass(self, tmp_path, monkeypatch, capsys):
        spec, csvs = self._run(tmp_path, monkeypatch, "asymptotic_study", [2, 8, 32], 2, seed=3)
        rows = csvs["asymptotic_study.csv"].decode().splitlines()[1:]
        # the water-level spread column is written as 0, and so was it computed
        assert rows == _asymptotic_rows(spec, 3)
        assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}

    def test_power_ratio_matches_one_full_draw_per_scheme(self, tmp_path, monkeypatch, capsys):
        # the schemes now share each cell's one draw, worked in row blocks
        spec, csvs = self._run(tmp_path, monkeypatch, "power_ratio_vs_distance", [1, 2, 3, 32], 2, seed=3)
        assert csvs == _power_ratio_csvs(spec, 3)

    @pytest.mark.parametrize("kind", RELAY_COUNT_KINDS)
    @pytest.mark.parametrize("cores,budget,workers", [
        (1, 10, 1), (64, 10, 8), (64, 3, 8), (64, 1, 8), (2, 10, 2),
        (64, 0.5, 8),  # an M = 32 cell alone is over the budget
    ])
    def test_pool_size(self, tmp_path, monkeypatch, capsys, kind, cores, budget, workers):
        # one worker per core, at most one per cell; each cell weighs its
        # trials x M draws, and the cells running together hold at most
        # budget M = 32 cells' worth, or one cell alone; a single worker runs
        # the cells without a pool, in grid order
        sizes = []
        real_pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda n: sizes.append(n) or real_pool(n))
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", int(budget * self.TRIALS * 32))
        spy = JobSpy(sim._map_jobs)
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        self._run(tmp_path, monkeypatch, kind, [1, 2, 3, 32], cores)
        assert sizes == ([workers] if workers > 1 else [])
        [(cells, weights)] = spy.calls
        assert [(m, r) for _, m, _, r in cells] == [(m, r) for m in [1, 2, 3, 32] for r in [0.1, 0.6]]
        assert weights == [self.TRIALS * m for _, m, _, _ in cells]
        spy.check(sim.MAX_TRIAL_ENTRIES)
        if workers == 1:
            assert [k for k, _ in spy.starts[0]] == list(range(8))

    @pytest.mark.parametrize("kind", RELAY_COUNT_KINDS)
    @pytest.mark.parametrize("out,before", [("out4", []), ("given", ["given"]), ("kept/new/deeper", ["kept"])])
    def test_failing_cell_reaches_the_caller_and_leaves_nothing(self, tmp_path, monkeypatch, capsys, kind, out, before):
        # the run removes the directories it made, and none that was there before
        real = experiments._relay_counts

        def failing(cfg, *args):
            if cfg.M == 3:
                raise ValueError("cell at M = 3 failed")
            return real(cfg, *args)

        for name in before:
            (tmp_path / name).mkdir()
        monkeypatch.setattr(experiments, "_relay_counts", failing)
        with pytest.raises(ValueError, match="cell at M = 3 failed"):
            self._run(tmp_path, monkeypatch, kind, [1, 2, 3, 32], 4, out=tmp_path / out)
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == sorted(["scenario.yaml", *before])


def _whole_array_convergence(spec, seed):
    """The convergence CSV rows from one solve of all trials per M: the reference for the row blocks."""
    rows = []
    for mi, m in enumerate(spec.m_grid):
        gamma_h, gamma_g = spec.gammas_for(m)
        cfg, _ = experiments._scheme_config(spec, "onoff", m, gamma_h, gamma_g, spec.p_s, spec.p_r)
        h2, g2 = _sample_channel_powers(cfg, spec.trials, derive_rng(seed, STREAM_CHANNELS, mi))
        alpha = h2 * g2
        caps = _batch_caps(cfg, h2, spec.p_s, spec.p_r, out=h2)
        masks, _, _, iterates = solve_onoff_batch(alpha, g2, caps, history=spec.iterations + 1)
        ac, bc = alpha * caps, g2 * caps
        f0 = (np.sum(np.where(on, ac, 0.0), axis=1) / (1.0 + np.sum(np.where(on, bc, 0.0), axis=1))
              for on in [masks, *iterates.swapaxes(0, 1)])
        optimum = next(f0)
        ratios = np.empty((spec.trials, spec.iterations + 1))
        for k, value in enumerate(f0):
            ratios[:, k] = value / optimum
        means = np.mean(ratios, axis=0)
        rows += [f"{m},{k},{means[k]:.17g}" for k in range(spec.iterations + 1)]
    return rows


class TestConvergenceBlocks:
    """A convergence run solves each M in row blocks, one M per core; neither may change a byte."""

    def _spec(self, tmp_path, m_grid, trials, iterations=6):
        text = (MINIMAL["convergence"].replace("m_grid: [2, 4]", f"m_grid: {m_grid}")
                .replace("trials: 200", f"trials: {trials}").replace("iterations: 6", f"iterations: {iterations}"))
        return load_spec(_write(tmp_path, text))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_of_one_whole_array_solve(self, tmp_path, monkeypatch, offset):
        # trials one short of, equal to and one past the row block at M = 64; one block at M = 3
        block = model._BLOCK_ENTRIES // 64
        trials = block + offset
        spec = self._spec(tmp_path, [3, 64], trials)
        shapes = []
        real = experiments.solve_onoff_batch
        monkeypatch.setattr(experiments, "solve_onoff_batch", lambda alpha, *a, **k: shapes.append(alpha.shape)
                            or real(alpha, *a, **k))
        [csv_path] = [p for p in run_experiment(spec, tmp_path / "out", seed=2) if p.suffix == ".csv"]
        rows = csv_path.read_text().splitlines()
        assert rows[1:] == _whole_array_convergence(spec, 2)
        assert len(rows) == 1 + 2 * (spec.iterations + 1)
        # no solve takes more than a block's rows, and each M's solves cover its trials once, in order;
        # the M run on pool threads, so only each M's own solves keep their order
        by_m = {m: [n for n, width in shapes if width == m] for m in (3, 64)}
        assert by_m == {3: [trials], 64: [min(block, trials - lo) for lo in range(0, trials, block)]}
        assert len(shapes) == 1 + len(by_m[64])

    def test_bytes_identical_for_any_core_count(self, tmp_path, monkeypatch, capsys):
        # several blocks at every M, the last one short
        spec = self._spec(tmp_path, [1, 2, 3, 64], model._BLOCK_ENTRIES // 64 * 3 + 5)
        # the M = 64 cell (64 + 14 entries per trial at 6 iterations) fits beside the M = 1 cell only
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", spec.trials * 82)
        csvs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
            spy = JobSpy(sim._map_jobs)
            monkeypatch.setattr(experiments, "_map_jobs", spy)
            # more workers than cores, switching threads as often as it can
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                [path] = [p for p in run_experiment(spec, tmp_path / f"out{cores}", seed=5) if p.suffix == ".csv"]
            finally:
                sys.setswitchinterval(interval)
            spy.check(sim.MAX_TRIAL_ENTRIES)
            csvs.append(path.read_bytes())
        assert spy.calls[0][1] == [spec.trials * e for e in (4, 6, 7, 78)]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
        assert csvs[0].decode().splitlines()[1:] == _whole_array_convergence(spec, 5)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_draws_alive_stay_within_the_budget(self, tmp_path, monkeypatch, capsys, cores):
        # the cells weigh 16 + 6 and 32 + 9 entries per trial, so they run one after the other; the
        # M = 16 draws kept beside the M = 32 ones (48 entries per trial) would pass the budget
        spec = self._spec(tmp_path, [16, 32], 3000)
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", spec.trials * 41)
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        draws = DrawsAlive()
        monkeypatch.setattr(sim, "Workspace", draws.workspace)
        spy = JobSpy(sim._map_jobs, probe=draws)
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        run_experiment(spec, tmp_path / "out")
        assert spy.calls[0][1] == [spec.trials * 22, spec.trials * 41]
        spy.check(sim.MAX_TRIAL_ENTRIES)
        assert 16 * spec.trials * 32 <= max(spy.probed) <= 16 * sim.MAX_TRIAL_ENTRIES

    @pytest.mark.parametrize("m_grid,trials,iterations,entries", [
        ([1, 2, 3], 100_000, 1, [2, 3, 4]),  # M + 1 trajectory entry per trial
        ([2, 4], 1000, 10, [7, 10]),         # 2 + 5 and 4 + 6 entries per trial
        ([64], 195_000, 10, [86]),           # 64 + 22 entries: one cell takes most of the bound
        # the trials bound at M = 2 and 100 iterations: the 46 trajectory entries per trial weigh
        # the cell at the bound, where the draws alone (2 entries) would let 24 such cells run at once
        ([2], MAX_TRIAL_ENTRIES // 48, 100, [48]),
    ])
    def test_workers_hold_at_most_the_trial_bound(self, tmp_path, monkeypatch, m_grid, trials, iterations, entries):
        spec = self._spec(tmp_path, m_grid, trials, iterations)
        # only the job list, its weights and its admission are checked: every cell's means read 1
        spy = JobSpy(sim._map_jobs, stub=lambda cell, ws: np.ones(iterations + 1))
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        run_experiment(spec, tmp_path / "out")
        [(cells, weights)] = spy.calls
        assert [m for _, m in cells] == m_grid
        assert weights == [trials * e for e in entries]
        assert max(weights) <= MAX_TRIAL_ENTRIES
        spy.check(MAX_TRIAL_ENTRIES)


class TestOneDrawPerCell:
    """A power-ratio run draws each (M, r) cell's channels once for all its schemes."""

    def _draws(self, tmp_path, monkeypatch, schemes):
        sizes = []
        real = sim._sample_channel_powers
        monkeypatch.setattr(sim, "_sample_channel_powers", lambda cfg, n, *args: sizes.append(n) or real(cfg, n, *args))
        spec = load_spec(_write(tmp_path, POWER_RATIO.format(schemes=schemes, m_grid=[2, 3, 5], trials=300)))
        run_experiment(spec, tmp_path / "out")
        return sizes

    def test_drawn_schemes_share_one_draw(self, tmp_path, monkeypatch, capsys):
        # 3 M x 2 r cells, each drawn once for on-off and partial waterfilling together
        assert self._draws(tmp_path, monkeypatch, "[onoff, waterfill_partial, maxpower]") == [300] * 6

    def test_max_power_and_statistical_waterfill_draw_nothing(self, tmp_path, monkeypatch, capsys):
        assert self._draws(tmp_path, monkeypatch, "[maxpower, waterfill_statistical]") == []


BLER_T2 = """\
kind: bler_vs_snr
schemes: [onoff, waterfill_partial, waterfill_statistical, maxpower, direct]
snr_db: [6.0, 12.0]
frames: 9000
network:
  M: 2
"""


class TestMonteCarloBatches:
    """Full-size T = 2 batches run one per core; that may not change a byte."""

    def _run(self, tmp_path, monkeypatch, cores, shards):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        spec = load_spec(_write(tmp_path, BLER_T2))
        out = tmp_path / f"out{cores}_{shards}"
        paths = run_experiment(spec, out, shards=shards)
        return {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}

    def test_bytes_identical_for_any_worker_and_shard_count(self, tmp_path, monkeypatch, capsys):
        # 9000 frames: two full batches and one of 808 per point
        ref = self._run(tmp_path, monkeypatch, 1, 1)
        assert len(ref) == 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores, shards in [(4, 1), (4, 3), (1, 3)]:
                assert self._run(tmp_path, monkeypatch, cores, shards) == ref
        finally:
            sys.setswitchinterval(interval)

    def test_failing_batch_reaches_the_caller_and_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        real = sim._relay_batch_tallies

        def failing(runs, code, tables, p_s, p_r, batches, ws):
            n = sum(size for size, _ in batches)
            if any(scheme is Scheme.MAX_POWER for _, scheme in runs) and n < 4096:
                raise ValueError(f"max_power batch of {n} frames failed")
            return real(runs, code, tables, p_s, p_r, batches, ws)

        monkeypatch.setattr(sim, "_relay_batch_tallies", failing)
        with pytest.raises(ValueError, match="max_power batch of 808 frames failed"):
            self._run(tmp_path, monkeypatch, 4, 1)
        assert not (tmp_path / "out4_1").exists()


def _one_at_a_time_saddle(spec, seed):
    """The saddle CSV rows from one instance after another: the reference for the job list."""
    rows = []
    for mi, m in enumerate(spec.m_grid):
        gamma_h, gamma_g = spec.gammas_for(m)
        cfg, _ = experiments._scheme_config(spec, "onoff", m, gamma_h, gamma_g, spec.p_s, spec.p_r)
        comps = []
        for j in range(spec.instances):
            h = sample_channel_batch(cfg, 1, derive_rng(seed, STREAM_CHANNELS, mi, j))[0][0]
            caps = _batch_caps(cfg, np.abs(h) ** 2, spec.p_s, spec.p_r)
            comps.append(saddle_point_error(h, gamma_g, caps, spec.eta, spec.trials,
                                            derive_seed(seed, STREAM_MISC, mi, j)))
        stderr = float(np.sqrt(np.sum([c.rel_error_stderr**2 for c in comps])) / spec.instances)
        means = [np.mean([getattr(c, name) for c in comps]) for name in ("mc_estimate", "bound", "rel_error")]
        rows.append(f"{m},{spec.instances},{spec.trials},{','.join(f'{v:.17g}' for v in means)},{stderr:.17g}")
    return rows


class TestSaddleJobs:
    """A saddle study's (M, instance) pairs are one job list; the worker count may not change a byte."""

    def test_bytes_of_one_instance_at_a_time_at_any_core_count(self, tmp_path, monkeypatch, capsys):
        text = (MINIMAL["saddle_study"].replace("m_grid: [2]", "m_grid: [1, 2, 3]")
                .replace("instances: 2", "instances: 3"))
        spec = load_spec(_write(tmp_path, text))
        # instances of 10 000, 20 000 and 30 000 entries at M = 1, 2 and 3: at most one M = 3 at a time
        monkeypatch.setattr(sim, "MAX_TRIAL_ENTRIES", 30_000)
        spy = JobSpy(sim._map_jobs)
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        csvs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
            [path] = [p for p in run_experiment(spec, tmp_path / f"out{cores}", seed=3) if p.suffix == ".csv"]
            csvs.append(path.read_bytes())
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
        assert csvs[0].decode().splitlines()[1:] == _one_at_a_time_saddle(spec, 3)
        assert [jobs for jobs, _ in spy.calls] == [[(mi, j) for mi in range(3) for j in range(3)]] * 3
        spy.check(sim.MAX_TRIAL_ENTRIES)

    @pytest.mark.parametrize("m_grid,trials,chunk_entries", [
        ([1, 2, 3], 10_000, [10_000, 20_000, 30_000]),
        ([2, 1024], 10_000, [20_000, 10_240_000]),  # one (10 000, 1024) chunk takes most of the bound
        ([64], 1_000_000, [640_000]),               # chunks of 10 000 trials, not all the trials at once
    ])
    def test_workers_hold_at_most_the_trial_bound(self, tmp_path, monkeypatch, m_grid, trials, chunk_entries):
        text = (MINIMAL["saddle_study"].replace("m_grid: [2]", f"m_grid: {m_grid}")
                .replace("trials: 10000", f"trials: {trials}"))
        spec = load_spec(_write(tmp_path, text))
        spy = JobSpy(sim._map_jobs)
        monkeypatch.setattr(experiments, "_map_jobs", spy)
        # only the weights and the admission are checked: each comparison is a constant
        monkeypatch.setattr(experiments, "saddle_point_error", lambda *args: SaddleComparison(1.0, 0.0, 1.0, 0.0))
        run_experiment(spec, tmp_path / "out")
        [(_, weights)] = spy.calls
        assert weights == [e for e in chunk_entries for _ in range(spec.instances)]
        spy.check(MAX_TRIAL_ENTRIES)


class TestPlotScript:
    def test_script_references_written_csvs(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        paths = run_experiment(spec, tmp_path / "out")
        script = next(p for p in paths if p.name.endswith("_plot.py"))
        text = script.read_text()
        assert "matplotlib" in text
        for p in paths:
            if p.suffix == ".csv":
                assert p.name in text
        assert "bler_vs_snr.png" in text
        compile(text, str(script), "exec")  # syntactically valid

    def test_missing_csv_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="gone.csv"):
            emit_plot_script([tmp_path / "gone.csv"], ExperimentKind.BLER_VS_SNR)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL["saddle_study"])
        out = tmp_path / "results"
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        assert (out / "saddle_study.csv").exists()
        assert "kind=saddle_study" in capsys.readouterr().out

    def test_print_config_runs_nothing(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL["bler_vs_snr"])
        out = tmp_path / "results"
        code = main(["run", str(path), "--out-dir", str(out), "--print-config",
                     "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert not out.exists()
        resolved = yaml.safe_load(captured.out)
        assert resolved["seed"] == 5
        assert resolved["network"]["M"] == 2

    @pytest.mark.parametrize("print_config", [False, True])
    def test_negative_seed_exits_two(self, tmp_path, capsys, print_config):
        path = _write(tmp_path, MINIMAL["bler_vs_snr"])
        out = tmp_path / "results"
        flags = ["--print-config"] if print_config else []
        assert main(["run", str(path), "--out-dir", str(out), "--seed", "-1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be non-negative\n"
        assert not out.exists()

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "kind: nonsense\nnetwork: {}\n")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.yaml")]) == 2

    def test_frames_override_flows_through(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL["bler_vs_snr"])
        out = tmp_path / "results"
        code = main(["run", str(path), "--out-dir", str(out),
                     "--frames-override", "1500"])
        assert code == 0
        rows = (out / "bler_vs_snr_onoff.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "1500" for row in rows)

    def test_shards_flag(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL["bler_vs_snr"])
        base = tmp_path / "base"
        sharded = tmp_path / "sharded"
        assert main(["run", str(path), "--out-dir", str(base)]) == 0
        assert main(["run", str(path), "--out-dir", str(sharded), "--shards", "4"]) == 0
        assert ((base / "bler_vs_snr_onoff.csv").read_text()
                == (sharded / "bler_vs_snr_onoff.csv").read_text())
