"""The benchmark's own closed forms, written apart from brisq.

The generator uses them to place inputs at a chosen coupling ratio
f / omega_bar, and the checks use them to judge the program's outputs.
Nothing here imports brisq: a reference that shares code with the
program would agree with it by construction.

Only the backward geometry with a forward-running pump (k_pump > 0) is
modelled, which is all the benchmark generates.
"""

from __future__ import annotations

import math

# The committed reference device (scenarios/backward_10ghz.json), in Hz.
WAVEGUIDE = {
    "omega0": 193e12,
    "vg": 7.0e7,
    "va": 8433.0,
    "length": 0.01,
    "g": 1e6,
    "u": 1e6,
    "gamma": 0.01,
}
K_PUMP = 592980.2391963544
OMEGA_P = 234508616743744.8
FLUX_IN = 1.0e12
THERMAL = {"Omega": 1e10, "temperature": 0.2, "Gamma": 1e6}

SWEEP_REL_TOL = 1e-9   # relative tolerance on every checked sweep entry


def base_scenario(flux_in: float = FLUX_IN) -> dict:
    """Scenario dict of the reference device at the given drive flux."""
    return {
        "waveguide": dict(WAVEGUIDE),
        "drive": {"omega_p": OMEGA_P, "flux_in": flux_in},
        "geometry": "backward",
        "k_pump": K_PUMP,
    }


def coupling(scenario: dict) -> tuple[float, float]:
    """(f, omega_bar) of a backward-geometry scenario dict.

    Phase matching q = 2 k vg / (vg + va), the classical pump steady
    state f = g sqrt(u flux) / |detuning| and the mean mode frequency
    omega_bar = (omega + Omega) / 2, evaluated in the same operation
    order as the program so that omega_bar agrees to the last bit.
    """
    wg = scenario["waveguide"]
    k = scenario["k_pump"]
    vg, va = wg["vg"], wg["va"]
    q = 2.0 * k * vg / (vg + va)
    omega_pump = wg["omega0"] + vg * k
    omega_signal = wg["omega0"] - vg * (k - q)
    omega_bar = 0.5 * ((omega_pump - omega_signal) + va * abs(q))
    kappa = wg["u"] + 0.5 * wg["gamma"]
    detuning = omega_pump - scenario["drive"]["omega_p"]
    f = (wg["g"] * math.sqrt(wg["u"]) * math.sqrt(scenario["drive"]["flux_in"])
         / math.hypot(detuning, kappa))
    return f, omega_bar


def ratio(scenario: dict) -> float:
    """Coupling ratio f / omega_bar; the squeezed state exists below 1."""
    f, omega_bar = coupling(scenario)
    return f / omega_bar


def with_parameter(scenario: dict, path: str, value: float) -> dict:
    """Copy of a scenario dict with one dotted field replaced."""
    out = {key: dict(val) if isinstance(val, dict) else val
           for key, val in scenario.items()}
    head, _, name = path.partition(".")
    if name:
        out[head][name] = value
    else:
        out[head] = value
    return out


def squeeze_r(x: float) -> float:
    """Squeeze parameter r = atanh(f / omega_bar) / 2."""
    return 0.5 * math.atanh(x)


def _bisect(func, target: float, lo: float, hi: float) -> float:
    """x in [lo, hi] with func(x) = target, func monotone on the bracket."""
    rising = func(hi) > func(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (func(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_parameter(base: dict, path: str, target: float) -> float:
    """Value of the swept field that puts f / omega_bar at `target`.

    Closed forms where f is a power law in the field (flux, g) or a
    Lorentzian in the detuning (omega_p); bisection for u and k_pump.
    The ratio actually reached is recomputed from the returned value
    wherever it matters, so rounding here never misleads a check.
    """
    if path == "drive.flux_in":
        return (target / ratio(with_parameter(base, path, 1.0))) ** 2
    if path == "waveguide.g":
        return target / ratio(with_parameter(base, path, 1.0))
    if path == "drive.omega_p":
        wg = base["waveguide"]
        omega_pump = wg["omega0"] + wg["vg"] * base["k_pump"]
        peak = ratio(with_parameter(base, path, omega_pump))
        kappa = wg["u"] + 0.5 * wg["gamma"]
        return omega_pump - kappa * math.sqrt((peak / target) ** 2 - 1.0)
    if path == "waveguide.u":
        # ratio falls with u once u exceeds gamma / 2; bisect in log u
        return math.exp(_bisect(
            lambda log_u: ratio(with_parameter(base, path, math.exp(log_u))),
            target, math.log(1.0), math.log(1e16)))
    if path == "k_pump":
        wg = base["waveguide"]
        k_res = (base["drive"]["omega_p"] - wg["omega0"]) / wg["vg"]
        return _bisect(lambda k: ratio(with_parameter(base, path, k)),
                       target, k_res, k_res + 1e3)
    raise ValueError(f"no model for sweeping {path!r}")


def close(value: float, expected: float, rel: float = SWEEP_REL_TOL) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def check_sweep_row(row: dict, base: dict, path: str, value: float,
                    with_db: bool) -> str | None:
    """Failure kind of one sweep row, or None when it is right.

    The row may come from JSON (numbers) or CSV (strings). A row is
    right when it is an Unstable error exactly where f >= omega_bar,
    and otherwise an ok row whose f, r, P_0, S_X_c (and dB entry when
    asked for) match the closed forms r = atanh(f / omega_bar) / 2,
    P_0 = 1 / cosh(r)^2, S_X_c = expm1(-2 r) / 2.
    """
    try:
        if row.get("parameter") != path or float(row["value"]) != value:
            return "wrong_value"
        f, omega_bar = coupling(with_parameter(base, path, value))
        if f >= omega_bar:
            if row.get("status") == "error" and row.get("error_type") == "Unstable":
                return None
            return "wrong_value"
        if row.get("status") != "ok":
            return "unexpected_error"
        r = squeeze_r(f / omega_bar)
        s_xc = 0.5 * math.expm1(-2.0 * r)
        checks = [(float(row["f"]), f), (float(row["r"]), r),
                  (float(row["P_0"]), 1.0 / math.cosh(r) ** 2),
                  (float(row["S_X_c"]), s_xc)]
        if with_db:
            checks.append((float(row["db_X_c"]), 10.0 * math.log10(1.0 + 2.0 * s_xc)))
    except (KeyError, TypeError, ValueError):
        return "wrong_value"
    if all(close(got, want) for got, want in checks):
        return None
    return "wrong_value"
