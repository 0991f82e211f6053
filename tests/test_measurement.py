import numpy as np
import pytest

from pointersim import (
    MeasurementSetup,
    build_grid,
    csco_diagonalize,
    equilibrium,
    liouville_spectrum,
    premeasure,
    readout,
)
from pointersim.errors import InvalidState, NonHermitianBlock, NotNormalized
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


def test_premeasure_rejects_unnormalized():
    # the setup refuses itself, before premeasure can see it
    with pytest.raises(NotNormalized):
        MeasurementSetup([1.0, 1.0])


# numpy would read the booleans as (1, 0), a normalized vector
@pytest.mark.parametrize("amplitudes", [[[0.6], [0.8]], [0.6, np.nan], [True, False], ["a", "b"]],
                         ids=["column", "non-finite", "bool", "string"])
def test_setup_refuses_anything_but_a_finite_vector(amplitudes):
    with pytest.raises(InvalidState):
        MeasurementSetup(amplitudes)


def test_readout_separates_levels_just_above_the_atom_tolerance():
    # 1e-10 apart: two levels, each with its own atom
    model = make_constant_model([1.0, 1.0 + 1e-10], 0.05)
    spectrum = liouville_spectrum(model, build_grid(10.0, 400, avoid=model.levels))
    pointer = readout(MeasurementSetup([0.6, 0.8]), spectrum)
    assert [p for _, p in pointer] == pytest.approx([0.36, 0.64], abs=1e-12)


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
    pointer = readout(setup, spectrum)
    assert [level for level, _ in pointer] == spectrum.levels.tolist()
    assert [probability for _, probability in pointer] == eq.rho_omega_atoms.tolist()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, "0.5", True, [0.5]],
                         ids=["nan", "inf", "string", "bool", "ragged"])
def test_csco_refuses_a_non_finite_block(bad):
    # a NaN block would pass the Hermiticity comparison, an inf one warn in
    # it; no string is parsed as a number, no boolean read as 0 or 1
    block = [[0.5, bad], [bad, 0.5]]
    with pytest.raises(NonHermitianBlock, match="block 1 is not finite"):
        csco_diagonalize([np.eye(2), block])


def test_csco_random_psd_blocks_preserve_structure():
    rng = np.random.default_rng(47)
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = raw @ raw.conj().T
        (weights, rotation), = csco_diagonalize([block])
        assert np.all(weights >= -1e-12)
        assert np.sum(weights) == pytest.approx(np.trace(block).real, rel=1e-12)
        assert np.max(np.abs(rotation.conj().T @ rotation - np.eye(4))) < 1e-10
