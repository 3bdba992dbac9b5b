"""Power allocation and Monte Carlo simulation for amplify-and-forward relay networks."""

from .codebook import LdCodebook, generate_codebook, is_full_diversity
from .model import (
    ChannelRealization,
    ConstraintKind,
    CsitMode,
    NetworkConfig,
    PowerAllocation,
    amplifier_caps,
    overall_noise_variance,
    sample_channels,
)
from .objectives import (
    PartialCsitObjective,
    PerfectCsitObjective,
    StatisticalCsitObjective,
    exp_integral_e1,
    exp_integral_e1_scaled,
    f0_gradient,
    f0_value,
    log_objective_J,
    pep_bound_partial,
    pep_bound_perfect,
    pep_bound_statistical_asymptotic,
    pep_bound_statistical_exact,
    saddle_point_error,
)
from .onoff import onoff_m2_closed_form, solve_onoff
from .sim import Scheme, SimResult, effective_relay_count, ml_decode, run_monte_carlo, transmit_frame
from .waterfill import (
    WaterfillResult,
    solve_waterfill,
    waterfill_m2_closed_form,
)

__version__ = "0.1.0"

__all__ = [
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
    "amplifier_caps",
    "effective_relay_count",
    "exp_integral_e1",
    "exp_integral_e1_scaled",
    "f0_gradient",
    "f0_value",
    "generate_codebook",
    "is_full_diversity",
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
    "solve_onoff",
    "solve_waterfill",
    "transmit_frame",
    "waterfill_m2_closed_form",
    "__version__",
]
