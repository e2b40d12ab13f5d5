"""Acceptance suite: the documented end-to-end guarantees.

Each test covers one guarantee and prints a single
``[acceptance] <name>: PASS|FAIL`` line (visible with ``pytest -v -s``
or in the captured output of a failing run).
"""

import math
import time

import numpy as np

from brisq import (
    BACKWARD,
    FORWARD,
    ThermalEnv,
    Unstable,
    WaveguideParams,
    apply_squeeze_factorized,
    bogoliubov_check,
    diagonalize,
    full_moment_table,
    herald,
    measure_moments,
    pair_probability,
    pair_tail,
    phase_match,
    reference_scenario,
    run,
    squeeze_operator,
    squeezed_vacuum,
    table_deviation,
    thermal_occupation,
    vacuum_state,
)
from brisq.pipeline import OracleConfig

# the reference device with its Fock oracle off: the closed forms alone
ANALYTIC_REFERENCE = reference_scenario().replace(oracle=OracleConfig())

R_GRID = (0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0)


def _finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status}")
    for line in failures:
        print(f"  - {line}")
    assert not failures


def _check(failures, label, value, expected, tolerance, relative=False):
    bound = tolerance * abs(expected) if relative else tolerance
    if not abs(value - expected) <= bound:
        failures.append(f"{label}: got {value!r}, expected {expected!r} "
                        f"within {bound:g}")


def test_acceptance_1_reference_device_numbers():
    failures = []
    started = time.perf_counter()
    report = run(ANALYTIC_REFERENCE)
    elapsed = time.perf_counter() - started
    _check(failures, "coupling f", report.squeeze.f, 1e9, 1e-3, relative=True)
    _check(failures, "cosh^2 r", math.cosh(report.squeeze.r) ** 2, 1.0025, 1e-4)
    _check(failures, "tanh r", math.tanh(report.squeeze.r), 0.05, 1e-3)
    _check(failures, "P_0", report.pair_probabilities[0], 0.9975, 1e-4)
    _check(failures, "P_1", report.pair_probabilities[1], 0.0025, 1e-4)
    _check(failures, "P_2", report.pair_probabilities[2], 6.25e-6, 2e-2,
           relative=True)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s >= 1 s")
    _finish("reference device numbers", failures)


def test_acceptance_2_squeezing_parameters():
    failures = []
    started = time.perf_counter()
    squeezing = run(ANALYTIC_REFERENCE).analytic.squeezing
    elapsed = time.perf_counter() - started
    for quad in ("X_a", "Y_a", "X_b", "Y_b"):
        _check(failures, f"S_{quad}", squeezing[quad], 0.0025, 1e-4)
    for quad in ("X_c", "Y_d"):
        _check(failures, f"S_{quad}", squeezing[quad], -0.0475, 5e-4)
    for quad in ("Y_c", "X_d"):
        _check(failures, f"S_{quad}", squeezing[quad], 0.0525, 5e-4)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s >= 1 s")
    _finish("squeezing parameters", failures)


def test_acceptance_3_thermal_estimate():
    failures = []
    bath = ThermalEnv(Omega=1e10, temperature=0.2, Gamma=1e6)
    if bath.quality != 1e4:
        failures.append(f"quality factor: got {bath.quality!r}, expected "
                        "exactly 10000.0")
    _check(failures, "thermal occupation", thermal_occupation(bath), 0.1,
           5e-2, relative=True)
    _finish("thermal estimate", failures)


def test_acceptance_4_oracle_equivalence():
    failures = []
    started = time.perf_counter()
    cutoff = 60
    for r in R_GRID:
        threshold = max(1e-9, 10.0 * pair_tail(r, cutoff))
        state = squeezed_vacuum(cutoff, r)
        worst = table_deviation(full_moment_table(r), measure_moments(state))
        for n in range(6):
            worst = max(worst, abs(pair_probability(r, n)
                                   - state.probability(n, n)))
        if worst > threshold:
            failures.append(f"r = {r}: deviation {worst:.3e} > "
                            f"threshold {threshold:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    _finish("analytic-vs-oracle moment equivalence", failures)


def test_acceptance_5_operator_identities():
    failures = []
    cutoff = 40

    squeeze = squeeze_operator(cutoff, 0.5)
    low = (np.arange(20)[:, None] * 40 + np.arange(20)[None, :]).reshape(-1)
    gram = (squeeze @ squeeze.T - np.eye(cutoff ** 2))[np.ix_(low, low)]
    unitarity = float(np.max(np.abs(gram)))
    if unitarity >= 1e-10:
        failures.append(f"unitarity residual {unitarity:.3e} >= 1e-10")

    direct = squeezed_vacuum(cutoff, 0.5)
    factorized = apply_squeeze_factorized(vacuum_state(cutoff), 0.5)
    paths = float(np.max(np.abs(direct.amplitudes - factorized.amplitudes)))
    if paths >= 1e-10:
        failures.append(f"exponential-vs-factorized gap {paths:.3e} >= 1e-10")

    residuals = bogoliubov_check(cutoff, 0.3)
    for label, value in (("alpha", residuals.alpha),
                         ("beta", residuals.beta),
                         ("commutator", residuals.commutator)):
        if value >= 1e-8:
            failures.append(f"conjugation residual {label} "
                            f"{value:.3e} >= 1e-8")

    rng = np.random.default_rng(311)
    for _ in range(1000):
        omega = 10.0 ** rng.uniform(6.0, 12.0)
        Omega = 10.0 ** rng.uniform(6.0, 12.0)
        ratio = rng.uniform(0.0, 0.999)
        spec = diagonalize(omega, Omega, ratio * 0.5 * (omega + Omega))
        gap = abs(math.cosh(spec.r) ** 2 - math.sinh(spec.r) ** 2 - 1.0)
        if gap >= 1e-12:
            failures.append(f"symplectic gap {gap:.3e} at r = {spec.r}")
            break
    _finish("operator identities", failures)


def test_acceptance_6_structural_properties():
    failures = []
    for r in (0.0,) + R_GRID + (1.5, 2.0):
        products = full_moment_table(r).products
        for mode in ("c", "d"):
            if abs(products[mode] - 0.5) > 1e-12:
                failures.append(f"mixed product {mode} at r = {r}: "
                                f"{products[mode]!r}")
        expected = 0.5 + math.sinh(r) ** 2
        for mode in ("a", "b"):
            if abs(products[mode] - expected) > 1e-12:
                failures.append(f"independent product {mode} at r = {r}: "
                                f"{products[mode]!r}")

    state = squeezed_vacuum(24, 0.3)
    for n in range(4):
        delta = np.zeros(24)
        delta[n] = 1.0
        if not np.array_equal(herald(state, n).distribution, delta):
            failures.append(f"herald on {n} photons is not an exact "
                            "Kronecker delta")

    omega_bar = 1e10
    for factor, stable in ((1.0 - 1e-12, True), (1.0, False),
                           (1.0 + 1e-12, False)):
        for omega, Omega in ((1e10, 1e10), (1.2e10, 0.8e10)):
            try:
                diagonalize(omega, Omega, factor * omega_bar)
                raised = False
            except Unstable:
                raised = True
            if raised == stable:
                failures.append(
                    f"stability boundary: f/omega_bar = {factor!r} with "
                    f"(omega, Omega) = ({omega:g}, {Omega:g}) "
                    f"{'raised' if raised else 'did not raise'}")
    _finish("structural properties", failures)


def test_acceptance_7_phase_matching_residuals():
    failures = []
    rng = np.random.default_rng(71)
    devices = [WaveguideParams(omega0=float(rng.uniform(1e14, 5e14)),
                               vg=float(rng.uniform(1e7, 3e8)),
                               va=float(rng.uniform(1e3, 2e4)),
                               length=0.01, g=1e6, u=1e6, gamma=0.01)
               for _ in range(200)]
    for params in devices:
        k_pump = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(2.0, 7.0))
        for geometry in (BACKWARD, FORWARD):
            triple = phase_match(params, k_pump, geometry)
            momentum = triple.k_pump - triple.k_signal - triple.q_phonon
            if momentum != 0.0:
                failures.append(f"momentum residual {momentum!r} at "
                                f"k = {k_pump:g} ({geometry})")
            energy = (triple.omega_pump - triple.omega_signal
                      - triple.Omega_phonon)
            if abs(energy) / triple.omega_pump >= 1e-12:
                failures.append(f"energy residual {energy!r} at "
                                f"k = {k_pump:g} ({geometry})")
    _finish("phase matching residuals", failures)
