"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The oracle side never uses any perturbative quantity except to
pick fit windows and tolerances stated by the criteria themselves.
"""

import time

import numpy as np
import pytest

from pointersim import (
    MeasurementSetup,
    build_grid,
    coherence,
    csco_diagonalize,
    decompose_initial,
    discrete_state,
    equilibrium,
    evolve,
    fit_exponential_rate,
    fitted_decay_rate,
    liouville_spectrum,
    pointer_weights,
    premeasure,
    principal_value,
    recompose,
    resonance_center,
)
from .conftest import make_constant_model, random_valid_state

GAMMA_005 = 2 * np.pi * 0.05 ** 2


def report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_golden_rule_decay():
    from pointersim import discretize

    started = time.monotonic()
    model = make_constant_model([1.0], 0.05)
    oracle = discretize(model, build_grid(10.0, 2000))
    fitted = fitted_decay_rate(oracle, 0, t_min=0.1 / GAMMA_005, t_max=2.0 / GAMMA_005)
    elapsed = time.monotonic() - started
    relative = abs(fitted - GAMMA_005) / GAMMA_005
    assert relative < 0.05
    assert elapsed < 30.0
    report(1, f"oracle survival rate {fitted:.6g} vs 2*pi*V^2 = {GAMMA_005:.6g} "
              f"({100 * relative:.2f}% off, {elapsed:.1f} s incl. eigendecomposition)")


def test_criterion_2_coherence_damping_and_sign(oracle_two, spectrum_two):
    mean_rate = GAMMA_005  # both levels share the coupling, so (G1 + G2) / 2 = G
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    times = np.linspace(0.1 / mean_rate, 2.0 / mean_rate, 40)
    envelope = [abs(coherence(oracle_two, 0, 1, amps, t)) for t in times]
    fitted = fit_exponential_rate(times, envelope)
    relative = abs(fitted - mean_rate) / mean_rate
    assert relative < 0.10
    # the alternative combination pi*(V1^2 - V2^2) predicts no damping here;
    # an observed rate this close to the sum rejects it at the same tolerance
    assert abs(fitted - 0.0) > 0.10 * mean_rate

    # the phase: the predicted rho_d[0, 1] pairs with conj(rho_01) of the
    # oracle and turns at the shifted splitting; its error stays below a tenth
    # of what the shifts alone contribute
    amps = np.array([0.6, 0.8j])
    eigen = decompose_initial(premeasure(MeasurementSetup(amps), spectrum_two.grid), spectrum_two)
    worst_phase = 0.0
    for t in (100.0, 200.0, 300.0):
        predicted = recompose(evolve(eigen, spectrum_two, t), spectrum_two).rho_d[0, 1]
        error = abs(np.angle(predicted / np.conj(coherence(oracle_two, 0, 1, amps, t))))
        shift_phase = abs((spectrum_two.shift[0] - spectrum_two.shift[1]) * t)
        assert error < 0.1 * shift_phase
        worst_phase = max(worst_phase, error / shift_phase)
    report(2, f"coherence envelope rate {fitted:.6g} matches (G1+G2)/2 = {mean_rate:.6g} "
              f"({100 * relative:.2f}% off); zero-damping alternative rejected; "
              f"phase error at most {worst_phase:.1e} of the shift phase at t = 100..300")


def test_criterion_3_level_shift(spectrum_single, oracle_single):
    closed_form = 0.05 ** 2 * np.log(9.0)
    shift = spectrum_single.shift[0]
    assert abs(shift - closed_form) < 1e-6

    displacement = 1.0 - resonance_center(oracle_single, 0)
    assert displacement == pytest.approx(shift, rel=0.10)
    report(3, f"PV shift {shift:.8g} vs closed form {closed_form:.8g}; oracle level "
              f"displaced by {displacement:.6g} (agrees within 10%)")


def test_criterion_4_pointer_basis_born_rule(oracle_two):
    amps = np.array([0.6, 0.8j])
    t = 5.0 / GAMMA_005
    assert t < oracle_two.grid.valid_t_max
    weights = pointer_weights(oracle_two, amps, t)
    assert weights[0] == pytest.approx(0.36, abs=0.05)
    assert weights[1] == pytest.approx(0.64, abs=0.05)
    report(4, f"oracle mass per level at t=5/G: ({weights[0]:.4f}, {weights[1]:.4f}) "
              "vs Born weights (0.36, 0.64) within 5% absolute")


def test_criterion_5_exact_bookkeeping(single_level_model, grid_2000, spectrum_single):
    # the general path: recompose(evolve(...)), as `pointersim evolve` writes it
    eigen = decompose_initial(discrete_state(grid_2000, np.diag([1.0])), spectrum_single)

    def split(t):
        state = recompose(evolve(eigen, spectrum_single, t), spectrum_single)
        return state.rho_d[0, 0].real, state.rho_omega_atoms[0]

    times = np.linspace(0.0, 4.0 / GAMMA_005, 100)
    occupied, transferred = np.array([split(t) for t in times]).T
    worst = float(np.max(np.abs(occupied + transferred - 1.0)))
    assert worst < 1e-12
    assert split(0.0) == (1.0, 0.0)
    assert np.all(np.diff(occupied) < 0)
    assert np.all(np.diff(transferred) > 0)

    half_life = np.log(2.0) / spectrum_single.gamma[0]
    occupied, transferred = split(half_life)
    assert abs(occupied - 0.5) < 1e-10
    assert abs(transferred - 0.5) < 1e-10
    report(5, f"occupation + pointer weight conserved to {worst:.2e} over 100 times; "
              "transfer strictly monotone from (1, 0) at t=0; half-life point exact to 1e-10")


def test_criterion_6_conservation_and_structure(grid_2000):
    model = make_constant_model([1.0, 2.0], [0.05, 0.08])
    spectrum = liouville_spectrum(model, grid_2000)
    rng = np.random.default_rng(2026)

    worst_trace = 0.0
    worst_herm = 0.0
    grid_small = build_grid(10.0, 400)
    spectrum_small = liouville_spectrum(model, grid_small)
    for _ in range(5):
        state = random_valid_state(grid_small, spectrum_small, rng)
        eigen = decompose_initial(state, spectrum_small)
        for t in (0.3, 12.0, 400.0):
            evolved = evolve(eigen, spectrum_small, t)
            physical = recompose(evolved, spectrum_small).validate()
            worst_trace = max(worst_trace, abs(physical.trace() - 1.0))
            worst_herm = max(worst_herm, evolved.hermiticity_defect())
    assert worst_trace < 1e-10
    assert worst_herm < 1e-10

    state = random_valid_state(grid_small, spectrum_small, rng)
    eigen = decompose_initial(state, spectrum_small)
    eq0 = equilibrium(eigen, spectrum_small)
    eq_later = equilibrium(evolve(eigen, spectrum_small, 37.0), spectrum_small)
    assert np.array_equal(eq0.rho_omega_regular, eq_later.rho_omega_regular)
    assert np.array_equal(eq0.rho_omega_atoms, eq_later.rho_omega_atoms)

    for i in range(2):
        for j in range(2):
            assert spectrum.lambda_d[j, i] == -np.conj(spectrum.lambda_d[i, j])
            assert spectrum.lambda_d[i, j].imag == (spectrum.gamma[i] + spectrum.gamma[j]) / 2.0

    scaled = liouville_spectrum(
        make_constant_model([1.0, 2.0], [0.05, 0.08], scale=3.0), grid_2000)
    assert np.allclose(scaled.gamma, 9.0 * spectrum.gamma, rtol=1e-10)
    assert np.allclose(scaled.shift, 9.0 * spectrum.shift, rtol=1e-10)
    report(6, f"trace drift {worst_trace:.2e}, hermiticity defect {worst_herm:.2e}; "
              "equilibrium idempotent; pairing and damping identities exact; "
              "rates and shifts scale as c^2")


def test_criterion_7_pv_quadrature_convergence():
    from scipy.special import sici

    si9, ci9 = sici(9.0)
    si1, ci1 = sici(1.0)
    closed = np.cos(1.0) * (si9 + si1) + np.sin(1.0) * (ci9 - ci1)
    errors = []
    for m in (500, 1000, 2000, 4000):
        grid = build_grid(10.0, m)
        errors.append(abs(principal_value(np.sin, 1.0, grid) - closed))
    ratios = [errors[k] / errors[k + 1] for k in range(3)]
    assert all(ratio >= 2.0 for ratio in ratios)
    report(7, "PV error vs closed form at M=500..4000: "
              + ", ".join(f"{e:.2e}" for e in errors)
              + f" (ratios {', '.join(f'{r:.2f}' for r in ratios)}, all >= 2)")


def test_criterion_8_csco_block_diagonalization():
    rng = np.random.default_rng(8)
    worst_trace = 0.0
    worst_unitarity = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 7))
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        block = raw @ raw.conj().T
        (weights, rotation), = csco_diagonalize([block])
        assert np.all(weights >= 0.0)
        worst_trace = max(worst_trace, abs(np.sum(weights) - np.trace(block).real)
                          / np.trace(block).real)
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
            rotation.conj().T @ rotation - np.eye(size)))))
    assert worst_trace < 1e-12
    assert worst_unitarity < 1e-10
    report(8, f"20 random PSD blocks: nonnegative weights, trace drift {worst_trace:.2e}, "
              f"unitarity residual {worst_unitarity:.2e}")
