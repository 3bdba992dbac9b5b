"""Scenario files, experiment runners, and the command-line entry point."""

import concurrent.futures
import re
import sys

import numpy as np
import pytest
import yaml

from relaypower import experiments, sim
from relaypower.cli import main
from relaypower.experiments import (
    MAX_TRIAL_ENTRIES,
    ExperimentKind,
    SpecError,
    emit_plot_script,
    load_spec,
    run_experiment,
)
from relaypower.model import CsitMode, NetworkConfig, _batch_caps, sample_channel_batch
from relaypower.rng import STREAM_CHANNELS, derive_rng
from relaypower.sim import Scheme, _allocate_batch, _mean_cap_fraction

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


class TestDeterminism:
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

    def test_failed_run_leaves_no_partial_files(self, tmp_path):
        spec = load_spec(_write(tmp_path, MINIMAL["bler_vs_snr"]))
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            run_experiment(spec, out, seed=-1)  # rejected by the stream derivation
        assert list(out.iterdir()) == []


ASYMPTOTIC = """\
kind: asymptotic_study
m_grid: {m_grid}
r_grid: [0.1, 0.6]
network_power_db: 20.0
trials: {trials}
network: {{}}
"""


def _asymptotic_rows(spec, seed):
    """Each cell's row from one full-batch pass, with the water-level spread computed."""
    rows = []
    for mi, m in enumerate(spec.m_grid):
        p = spec.N0 * 10.0 ** (spec.network_power_db / 10.0) / (m + 1)
        for ri, r in enumerate(spec.r_grid):
            gamma_h, gamma_g = np.full(m, 1.0 / r**2), np.full(m, 1.0 / (1.0 - r) ** 2)
            cfg, cfg_wf, cfg_st = (
                NetworkConfig(M=m, T=m, p_s=p, p_r=p, N0=spec.N0, gamma_h=gamma_h, gamma_g=gamma_g, csit_mode=mode)
                for mode in (CsitMode.PERFECT, CsitMode.PARTIAL, CsitMode.STATISTICAL)
            )
            h, g = sample_channel_batch(cfg, spec.trials, derive_rng(seed, STREAM_CHANNELS, mi, ri))
            h2 = np.abs(h) ** 2
            caps = _batch_caps(cfg, h2, p, p)
            p_on = _allocate_batch(cfg, Scheme.ONOFF, h2, g, caps)
            p_wf = _allocate_batch(cfg_wf, Scheme.WATERFILL, h2, g, caps)
            # worst spread of p_i gamma_gi over uncapped relays; rows with none drop out
            levels, free = p_wf * gamma_g, p_wf != caps
            spread = np.where(free, levels, -np.inf).max(axis=1) - np.where(free, levels, np.inf).min(axis=1)
            spread = spread[np.isfinite(spread)]
            assert spread.size > 0
            values = [
                np.mean(np.count_nonzero(p_on, axis=1)),
                np.mean(np.sum(p_wf / caps, axis=1)),
                _mean_cap_fraction(cfg_st, Scheme.WATERFILL, p, p, spec.trials, seed, mi, ri),
                float(m),
                np.mean(np.all(p_wf == p_on, axis=1)),
                spread.max(),
            ]
            rows.append(f"{m},{r:.17g},{spec.trials}," + ",".join(f"{float(v):.17g}" for v in values))
    return rows


class TestAsymptoticCells:
    """Cells run one per core in row blocks; neither may change a byte."""

    # not a multiple of the block rows at any of these M, and over one block at M = 1
    TRIALS = experiments._BLOCK_ENTRIES + 1

    def _run(self, tmp_path, monkeypatch, m_grid, cores, seed=0):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        spec = load_spec(_write(tmp_path, ASYMPTOTIC.format(m_grid=m_grid, trials=self.TRIALS)))
        out = tmp_path / f"out{cores}"
        run_experiment(spec, out, seed=seed)
        return spec, (out / "asymptotic_study.csv").read_bytes()

    def test_bytes_identical_for_any_core_count(self, tmp_path, monkeypatch, capsys):
        m_grid = [1, 2, 3, 32]
        assert all(self.TRIALS % (experiments._BLOCK_ENTRIES // m) for m in m_grid)
        _, one = self._run(tmp_path, monkeypatch, m_grid, 1)
        # more workers than cores, switching threads as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, four = self._run(tmp_path, monkeypatch, m_grid, 4)
        finally:
            sys.setswitchinterval(interval)
        assert one == four

    def test_rows_match_one_full_batch_pass(self, tmp_path, monkeypatch, capsys):
        spec, data = self._run(tmp_path, monkeypatch, [2, 8, 32], 2, seed=3)
        rows = data.decode().splitlines()[1:]
        # the water-level spread column is written as 0, and so was it computed
        assert rows == _asymptotic_rows(spec, 3)
        assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}

    @pytest.mark.parametrize("cores,budget,workers", [(1, 10, 1), (64, 10, 8), (64, 3, 3), (64, 1, 1), (2, 10, 2)])
    def test_pool_size(self, tmp_path, monkeypatch, capsys, cores, budget, workers):
        # one worker per core, at most one per cell, and draw buffers within
        # budget x one cell's; a single worker runs the cells without a pool
        sizes = []
        real_pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda n: sizes.append(n) or real_pool(n))
        monkeypatch.setattr(experiments, "MAX_TRIAL_ENTRIES", budget * self.TRIALS * 32)
        self._run(tmp_path, monkeypatch, [1, 2, 3, 32], cores)
        assert sizes == ([workers] if workers > 1 else [])

    def test_failing_cell_reaches_the_caller_and_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        real = experiments._mean_cap_fraction

        def failing(cfg, *args):
            if cfg.M == 3:
                raise ValueError("cell at M = 3 failed")
            return real(cfg, *args)

        monkeypatch.setattr(experiments, "_mean_cap_fraction", failing)
        with pytest.raises(ValueError, match="cell at M = 3 failed"):
            self._run(tmp_path, monkeypatch, [1, 2, 3, 32], 4)
        assert list((tmp_path / "out4").iterdir()) == []


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

        def failing(cfg, scheme, code, tables, p_s, p_r, n, rng, ws):
            if scheme is Scheme.MAX_POWER and n < 4096:
                raise ValueError(f"max_power batch of {n} frames failed")
            return real(cfg, scheme, code, tables, p_s, p_r, n, rng, ws)

        monkeypatch.setattr(sim, "_relay_batch_tallies", failing)
        with pytest.raises(ValueError, match="max_power batch of 808 frames failed"):
            self._run(tmp_path, monkeypatch, 4, 1)
        assert list((tmp_path / "out4_1").iterdir()) == []


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
