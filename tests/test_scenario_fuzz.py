"""Every scenario that load_spec accepts runs to completion.

Documents are drawn near and past each field's bounds, at small sizes: at
most 3 relays, 1000 frames, and trials at 100 or at the saddle study's
floor. Each field is drawn past its bounds about one time in ten, so about
half the documents pass the validator. Every document must either be rejected by
load_spec with a SpecError or run without an exception or a warning (the
suite turns warnings into errors).
"""

import math
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaypower.codebook import MAX_BLOCK
from relaypower.experiments import (
    _REQUIRED,
    _TOP_FIELDS,
    MAX_STUDY_RELAYS,
    SCHEME_NAMES,
    ExperimentKind,
    SpecError,
    load_spec,
    run_experiment,
)
from relaypower.objectives import SADDLE_MIN_TRIALS
from relaypower.onoff import MAX_ITERATIONS
from relaypower.sim import LINEAR_RANGE, MIN_FRAMES

LOW, HIGH = LINEAR_RANGE
# hypothesis starts from the first entry of each list, so typical values
# come first. Powers, noise levels and variances: inside LINEAR_RANGE and its
# edges, then past it, out to the subnormals and the largest float
LINEAR = st.sampled_from([1.0, 0.5, 3.0, LOW, 1e-49, 1e-30, 1e30, 1e49, HIGH])
PAST_LINEAR = st.sampled_from([0.0, -1.0, math.inf, math.nan, "x", 5e-324, sys.float_info.min, 1e-300,
                               LOW / 2, 2 * HIGH, 1e300, sys.float_info.max])
# dB levels (at N0 = 1, LINEAR_RANGE is -500 to 500 dB), then levels whose
# linear power underflows or overflows
DB = st.sampled_from([15.0, 0.0, -20.0, -490.0, -300.0, 300.0, 490.0])
PAST_DB = st.sampled_from([-4000.0, -3080.0, -1000.0, -510.0, 510.0, 1000.0, 3080.0, 4000.0, math.nan])
# relay distances: 1/r^2 reaches the top of LINEAR_RANGE at r = 1e-25
DISTANCE = st.sampled_from([0.5, 0.1, 0.9, 1e-25, 1e-10, 1.0 - 1e-10, math.nextafter(1.0, 0.0)])
PAST_DISTANCE = st.sampled_from([-0.5, 0.0, 1e-200, 1e-160, 1e-30, 1.0, 2.0])
RELAYS = st.sampled_from([1, 2, 3])
# whether a field is drawn past its bounds: one time in ten
PAST = st.sampled_from([False] * 9 + [True])


def _grid(values):
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


def _bad_grid(values, past):
    """Empty, not increasing, or holding one value past the field's bounds."""
    return (st.just([]) | st.lists(values, min_size=2, max_size=3, unique=True).map(sorted).map(lambda g: g[::-1])
            | st.tuples(_grid(values), past).map(lambda t: [*t[0], t[1]]))


def _fields(kind):
    """field -> (strategy near its bounds, strategy past them)."""
    sim_kind = "frames" in _TOP_FIELDS[kind]
    tokens = [t for t in SCHEME_NAMES if not (t == "direct" and kind is ExperimentKind.POWER_RATIO_VS_DISTANCE)]
    past_relays = st.sampled_from([-1, 0, (MAX_BLOCK if sim_kind else MAX_STUDY_RELAYS) + 1])
    return {
        "seed": (st.sampled_from([0, 1, 2**32, 2**64]), st.just(-1)),
        "m_grid": (_grid(RELAYS), _bad_grid(RELAYS, past_relays)),
        "schemes": (st.lists(st.sampled_from(tokens), min_size=1, max_size=5, unique=True),
                    st.sampled_from([[], ["bogus"], ["onoff", "onoff"], ["direct"], "onoff"])),
        "snr_db": (_grid(DB), _bad_grid(DB, PAST_DB)),
        "network_power_db": (DB, PAST_DB),
        "r_grid": (_grid(DISTANCE), _bad_grid(DISTANCE, PAST_DISTANCE)),
        "frames": (st.just(MIN_FRAMES), st.just(MIN_FRAMES - 1)),
        "trials": (st.sampled_from([1, 100, SADDLE_MIN_TRIALS]), st.sampled_from([0, SADDLE_MIN_TRIALS - 1])),
        "instances": (st.sampled_from([1, 2]), st.just(0)),
        "eta": (LINEAR, PAST_LINEAR),
        "iterations": (st.sampled_from([1, 2, MAX_ITERATIONS]), st.sampled_from([0, MAX_ITERATIONS + 1])),
        "network.N0": (LINEAR, PAST_LINEAR),
        "network.M": (RELAYS, past_relays),
        "network.p_s": (LINEAR, PAST_LINEAR),
        "network.p_r": (LINEAR, PAST_LINEAR),
        "network.gamma_h": (LINEAR | st.lists(LINEAR, min_size=3, max_size=4),
                            PAST_LINEAR | st.lists(LINEAR, min_size=0, max_size=2)),
        "network.gamma_g": (LINEAR | st.lists(LINEAR, min_size=3, max_size=4),
                            PAST_LINEAR | st.lists(LINEAR, min_size=0, max_size=2)),
    }


def _network_keys(kind):
    """Network fields the kind reads, and whether each is required."""
    table = _TOP_FIELDS[kind]
    keys = {"network.N0": False}
    if kind is ExperimentKind.BLER_VS_SNR:
        keys["network.M"] = True
    if not {"snr_db", "network_power_db"} & set(table):
        keys |= {"network.p_s": True, "network.p_r": True}
    if "r_grid" not in table:
        keys |= {"network.gamma_h": False, "network.gamma_g": False}
    return keys


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(list(ExperimentKind)))
    fields = _fields(kind)
    # every field the kind reads: required ones present, optional ones half the time
    keys = {"seed": False, **{k: d is _REQUIRED for k, d in _TOP_FIELDS[kind].items()}, **_network_keys(kind)}
    doc = {"kind": kind.value, "network": {}}
    for key, required in keys.items():
        if not required and draw(st.booleans()):
            continue
        near, past = fields[key]
        value = draw(past if draw(PAST) else near)
        if key.startswith("network."):
            doc["network"][key.removeprefix("network.")] = value
        else:
            doc[key] = value
    # now and then a field the kind does not take, or a required one left out
    extra = draw(st.sampled_from([None] * 8 + ["drop", "network.T", "network.csit_mode", "network.p_s", "bogus"]))
    if extra == "drop":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif extra is not None:
        (doc["network"] if extra.startswith("network.") else doc)[extra.removeprefix("network.")] = 2
    return doc


# with LINEAR_RANGE widened to all normal floats, 300 examples find an overflow; 100 did not
@pytest.mark.slow
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_every_accepted_scenario_runs(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        spec = load_spec(path)
    except SpecError:
        return
    run_experiment(spec, tmp / "out")
