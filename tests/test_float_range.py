"""Property: the public stages keep NaN and overflow out of their results.

Every float argument of phase_match, pump_steady_state, diagonalize,
full_moment_table, pair_probability, pair_tail, thermal_occupation and
ThermalEnv.quality, the fields of the records they take and the
orders of pair_probability and pair_tail included, is replaced by edge
floats, a fractional order among them. Each call must return finite
values, a real float from the stages that return one number, or raise
ValueError or PhysicsError.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brisq._record import Record
from brisq.bogoliubov import diagonalize
from brisq.errors import PhysicsError
from brisq.pump import PumpDrive, pump_steady_state
from brisq.squeezing import (
    ThermalEnv,
    full_moment_table,
    pair_probability,
    pair_tail,
    thermal_occupation,
)
from brisq.waveguide import WaveguideParams, phase_match

# 0.25 is a fractional pair order, which makes tanh(r) ** (2 * n) complex at r < 0
EDGES = (0.0, -0.0, 5e-324, 1e-300, 0.25, -1.0, 400.0, 1e308, math.inf, -math.inf,
         math.nan)

# the reference device: a 193 THz carrier, g = u = 1 MHz, a resonant drive
WAVEGUIDE = dict(omega0=193e12, g=1e6, u=1e6, gamma=0.01, vg=7e7, va=8433.0,
                 length=0.01)
K_PUMP = 592980.2391963544
OMEGA_PUMP = 193e12 + 7e7 * K_PUMP


def _waveguide(x):
    return WaveguideParams(**{name: x[name] for name in WAVEGUIDE})


# stage -> (call on a dict of named floats, reference value of each float)
STAGES = {
    "phase_match": (
        lambda x: phase_match(_waveguide(x), x["k_pump"]),
        WAVEGUIDE | {"k_pump": K_PUMP}),
    "pump_steady_state": (
        lambda x: pump_steady_state(_waveguide(x), PumpDrive(x["omega_p"], x["flux_in"]),
                                    x["omega_mode"]),
        WAVEGUIDE | {"omega_p": OMEGA_PUMP, "flux_in": 1e12, "omega_mode": OMEGA_PUMP}),
    "diagonalize": (
        lambda x: diagonalize(x["omega"], x["Omega"], x["f"]),
        {"omega": 1e10, "Omega": 1e10, "f": 1e9}),
    "full_moment_table": (lambda x: full_moment_table(x["r"]), {"r": 0.05}),
    "pair_probability": (lambda x: pair_probability(x["r"], x["n"]), {"r": 0.05, "n": 3}),
    "pair_tail": (lambda x: pair_tail(x["r"], x["n_min"]), {"r": 0.05, "n_min": 3}),
    "thermal_occupation": (
        lambda x: thermal_occupation(ThermalEnv(x["Omega"], x["temperature"], x["Gamma"])),
        {"Omega": 1e10, "temperature": 0.2, "Gamma": 1e6}),
    "ThermalEnv.quality": (
        lambda x: ThermalEnv(x["Omega"], x["temperature"], x["Gamma"]).quality,
        {"Omega": 1e10, "temperature": 0.2, "Gamma": 1e6}),
}


def _numbers(result):
    """Every number a stage returned: a float, or a record's fields,
    with the values of a MomentTable."""
    if not isinstance(result, Record):
        return [result]
    found = []
    for value in vars(result).values():
        found.extend(value if isinstance(value, tuple) else [value])
    return [value for value in found if value is not None]


def check(stage, overrides):
    call, reference = STAGES[stage]
    try:
        result = call(reference | overrides)
    except (ValueError, PhysicsError):
        return
    if not isinstance(result, Record):
        assert type(result) is float, (stage, overrides, result)
    for value in _numbers(result):
        for part in (value.real, value.imag):
            assert math.isfinite(part), (stage, overrides, result)


@st.composite
def cases(draw):
    stage = draw(st.sampled_from(sorted(STAGES)))
    names = sorted(STAGES[stage][1])
    edged = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return stage, {name: draw(st.sampled_from(EDGES)) for name in edged}


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
# u + gamma/2 is tiny, so |amplitude|^2 overflows
@example(case=("pump_steady_state", {"u": 1e-300, "gamma": 0.0}))
@example(case=("pump_steady_state", {"u": 5e-324, "gamma": 0.0}))
# found by random draws: h*Omega/(kB*T) was inf / inf, and the occupation NaN
@example(case=("thermal_occupation", {"Omega": math.inf, "temperature": math.inf}))
# h*Omega/(kB*T) is a subnormal whose inverse overflows
@example(case=("thermal_occupation", {"temperature": 1e308}))
# a negative float to a fractional power is complex
@example(case=("pair_probability", {"r": -1.0, "n": 0.25}))
@example(case=("pair_tail", {"r": -1.0, "n_min": 0.25}))
# an order whose double 2 n does not fit a float
@example(case=("pair_probability", {"n": 10**400}))
@example(case=("pair_tail", {"n_min": 10**400}))
@given(case=cases())
def test_stage_results_stay_in_the_float_range(case):
    check(*case)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_each_float_argument_at_each_edge(stage):
    for name in STAGES[stage][1]:
        for edge in EDGES:
            check(stage, {name: edge})

