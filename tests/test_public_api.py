"""The package's public names, pinned so that adding or removing one shows up in a diff."""

import relaypower

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


def test_public_names_are_pinned():
    assert sorted(relaypower.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in relaypower.__all__:
        assert hasattr(relaypower, name), name
