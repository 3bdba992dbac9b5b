"""The package's public names and configuration fields, pinned so that
adding or removing one shows up in a diff."""

import dataclasses
import inspect

import pytest

import relaypower
from relaypower import codebook, model, onoff, sim, waterfill
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
    "kind", "name", "seed", "M", "p_s", "p_r", "N0", "gamma_h", "gamma_g",
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


# perfbench/spans.py wraps plain functions only, and reads these arguments of
# each call by name; a wrapper or a renamed argument would silently zero the
# per-layer metrics built from them
TRACED_ARGUMENTS = [
    (codebook, "generate_codebook", ["T", "seed"]),
    (sim, "run_monte_carlo", ["cfg", "scheme", "frames"]),
    (model, "sample_channel_batch", ["cfg", "n"]),
    (onoff, "solve_onoff_batch", ["alpha"]),
    (waterfill, "solve_waterfill_batch", ["caps"]),
]


@pytest.mark.parametrize("module,name,arguments", TRACED_ARGUMENTS,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in TRACED_ARGUMENTS])
def test_traced_functions_keep_their_argument_names(module, name, arguments):
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    parameters = inspect.signature(fn).parameters
    assert [a for a in arguments if a not in parameters] == []
