import numpy as np
import pytest

from pointersim import (
    MeasurementSetup,
    build_grid,
    classical_profile,
    csco_diagonalize,
    equilibrium,
    liouville_spectrum,
    premeasure,
    readout,
)
from pointersim.errors import InvalidState, NonHermitianBlock, NotNormalized
from pointersim.evolution import EquilibriumState
from .conftest import make_constant_model


@pytest.fixture(scope="module")
def grid():
    return build_grid(10.0, 400)


@pytest.fixture(scope="module")
def spectrum(grid):
    return liouville_spectrum(make_constant_model([1.0, 2.0], 0.1), grid)


def test_premeasure_single_outcome(grid):
    state = premeasure(MeasurementSetup([1.0, 0.0]), grid)
    assert np.array_equal(state.rho_d, np.diag([1.0, 0.0]).astype(complex))


def test_premeasure_equal_superposition(grid):
    state = premeasure(MeasurementSetup([1 / np.sqrt(2), 1 / np.sqrt(2)]), grid)
    assert np.allclose(state.rho_d, 0.5 * np.ones((2, 2)))


def test_premeasure_is_pure(grid):
    rng = np.random.default_rng(41)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    state = premeasure(MeasurementSetup(a), grid)
    purity = np.trace(state.rho_d @ state.rho_d).real
    assert purity == pytest.approx(1.0, abs=1e-12)
    assert state.trace() == pytest.approx(1.0, abs=1e-12)


def test_premeasure_rejects_unnormalized(grid):
    with pytest.raises(NotNormalized):
        premeasure(MeasurementSetup([1.0, 1.0]), grid)


def test_readout_single_outcome(spectrum):
    assert readout(MeasurementSetup([1.0, 0.0]), spectrum) == [(1.0, 1.0), (2.0, 0.0)]


def test_readout_equal_superposition(spectrum):
    pointer = readout(MeasurementSetup([1 / np.sqrt(2), 1 / np.sqrt(2)]), spectrum)
    assert pointer[0][1] == pytest.approx(0.5)
    assert pointer[1][1] == pytest.approx(0.5)


def test_readout_born_rule_with_complex_amplitudes(spectrum):
    pointer = readout(MeasurementSetup([0.6, 0.8j]), spectrum)
    assert pointer[0] == (1.0, pytest.approx(0.36))
    assert pointer[1] == (2.0, pytest.approx(0.64))


def test_readout_is_phase_invariant(spectrum):
    rng = np.random.default_rng(43)
    moduli = np.array([0.6, 0.8])
    reference = readout(MeasurementSetup(moduli), spectrum)
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        rotated = readout(MeasurementSetup(moduli * phases), spectrum)
        for (_, p_ref), (_, p_rot) in zip(reference, rotated):
            assert p_rot == pytest.approx(p_ref, abs=1e-12)


def test_readout_equals_equilibrium_atoms(grid, spectrum):
    setup = MeasurementSetup([0.6, 0.8j])
    eq = equilibrium(premeasure(setup, grid), spectrum)
    for level, probability in readout(setup, spectrum):
        assert probability == eq.atoms.weight_at(level)


def test_readout_agrees_with_oracle_mass_attribution(spectrum_two, oracle_two):
    from pointersim import pointer_weights

    amps = np.array([0.6, 0.8j])
    predicted = [p for _, p in readout(MeasurementSetup(amps), spectrum_two)]
    gamma = spectrum_two.gamma[0]
    measured = pointer_weights(oracle_two, amps, 5.0 / gamma)
    assert np.allclose(measured, predicted, atol=0.05)


def test_csco_diagonal_block_is_unchanged():
    block = np.diag([0.7, 0.3])
    (weights, rotation), = csco_diagonalize([block])
    assert weights.tolist() == [0.7, 0.3]
    assert np.allclose(rotation, np.eye(2), atol=1e-14)


def test_csco_mixing_block():
    block = np.array([[0.5, 0.5], [0.5, 0.5]])
    (weights, rotation), = csco_diagonalize([block])
    assert np.allclose(weights, [1.0, 0.0], atol=1e-12)
    # the rotated label basis mixes the two labels equally
    assert np.allclose(np.abs(rotation), np.full((2, 2), 1 / np.sqrt(2)))


def test_csco_rejects_non_hermitian_block():
    with pytest.raises(NonHermitianBlock):
        csco_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NonHermitianBlock):
        csco_diagonalize([np.zeros((2, 3))])


def test_csco_random_psd_blocks_preserve_structure():
    rng = np.random.default_rng(47)
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = raw @ raw.conj().T
        (weights, rotation), = csco_diagonalize([block])
        assert np.all(weights >= -1e-12)
        assert np.sum(weights) == pytest.approx(np.trace(block).real, rel=1e-12)
        assert np.max(np.abs(rotation.conj().T @ rotation - np.eye(4))) < 1e-10


def test_classical_profile_single_atom(grid, spectrum):
    eq = equilibrium(premeasure(MeasurementSetup([1.0, 0.0]), grid), spectrum)
    profile = classical_profile(eq)
    assert profile.atoms() == [(1.0, 1.0, 0)]
    assert profile.total_mass() == pytest.approx(1.0)


def test_classical_profile_matches_equilibrium(grid, spectrum):
    eq = equilibrium(premeasure(MeasurementSetup([0.6, 0.8j]), grid), spectrum)
    profile = classical_profile(eq, labels=("r1", "r2"))
    assert np.array_equal(profile.atom_weights, eq.atoms.weights)
    assert profile.atom_labels == ("r1", "r2")
    assert profile.total_mass() == pytest.approx(1.0)


def test_classical_profile_label_count_checked(grid, spectrum):
    eq = equilibrium(premeasure(MeasurementSetup([0.6, 0.8j]), grid), spectrum)
    with pytest.raises(InvalidState, match="expected 2 labels, got 1"):
        classical_profile(eq, labels=("only-one",))


def test_classical_profile_rejects_negative_components(grid, spectrum):
    eq = equilibrium(premeasure(MeasurementSetup([0.6, 0.8j]), grid), spectrum)
    negative = EquilibriumState(grid=grid, continuous=-np.ones(grid.size), atoms=eq.atoms)
    with pytest.raises(InvalidState, match="components must be >= 0"):
        classical_profile(negative)
