"""The package's public names and configuration fields, pinned so that
adding or removing one shows up in a diff."""

import dataclasses

import relaypower
from relaypower.experiments import ExperimentSpec

PUBLIC_NAMES = [
    "ChannelRealization",
    "ConstraintKind",
    "CsitMode",
    "LdCodebook",
    "NetworkConfig",
    "PartialCsitObjective",
    "PerfectCsitObjective",
    "PowerAllocation",
    "Scheme",
    "SimResult",
    "StatisticalCsitObjective",
    "WaterfillResult",
    "__version__",
    "amplifier_caps",
    "effective_relay_count",
    "exp_integral_e1",
    "exp_integral_e1_scaled",
    "f0_gradient",
    "f0_value",
    "generate_codebook",
    "is_full_diversity",
    "load_codebook",
    "log_objective_J",
    "ml_decode",
    "onoff_m2_closed_form",
    "overall_noise_variance",
    "pep_bound_partial",
    "pep_bound_perfect",
    "pep_bound_statistical_asymptotic",
    "pep_bound_statistical_exact",
    "run_monte_carlo",
    "saddle_point_error",
    "sample_channels",
    "save_codebook",
    "solve_onoff",
    "solve_waterfill",
    "transmit_frame",
    "verify_stationarity",
    "vertex_enumeration_oracle",
    "waterfill_m2_closed_form",
]

# csit_mode is the one allocation input: it fixes the caps and the allocator
NETWORK_CONFIG_FIELDS = ["M", "T", "p_s", "p_r", "N0", "gamma_h", "gamma_g", "csit_mode"]

EXPERIMENT_SPEC_FIELDS = [
    "kind", "name", "seed", "M", "T", "p_s", "p_r", "N0", "gamma_h", "gamma_g",
    "schemes", "snr_db", "r_grid", "m_grid", "network_power_db",
    "frames", "trials", "instances", "eta", "iterations",
]


def test_public_names_are_pinned():
    assert sorted(relaypower.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in relaypower.__all__:
        assert hasattr(relaypower, name), name


def test_configuration_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(relaypower.NetworkConfig)] == NETWORK_CONFIG_FIELDS
    assert [f.name for f in dataclasses.fields(ExperimentSpec)] == EXPERIMENT_SPEC_FIELDS
