import numpy as np
import pytest

from pointersim import (
    AtomicMeasure,
    GeneralizedState,
    build_grid,
    continuous_state,
    decompose_initial,
    diagonal_evolution,
    discrete_state,
    equilibrium,
    evolve,
    liouville_spectrum,
    recompose,
    zero_state,
)
from pointersim.errors import InvalidState, NegativeTime, TraceViolation
from .conftest import make_constant_model, normalized_density, random_valid_state


@pytest.fixture(scope="module")
def grid():
    return build_grid(10.0, 400)


@pytest.fixture(scope="module")
def spectrum(grid):
    return liouville_spectrum(make_constant_model([1.0, 2.0], 0.1), grid)


# -- state invariants ----------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    lambda m: {"rho_omega_regular": np.zeros(m + 1)},
    lambda m: {"rho_d": np.zeros((2, 3))},
    lambda m: {"rho_iomega": np.zeros((2, m + 1))},
], ids=["continuum-size", "non-square-discrete", "mixed-shape"])
def test_malformed_sectors_are_invalid_states(grid, overrides):
    m = grid.size
    sectors = dict(grid=grid, rho_omega_regular=np.zeros(m), rho_omega_atoms=AtomicMeasure.empty(),
                   rho_d=np.zeros((2, 2)), rho_iomega=np.zeros((2, m)), rho_omegai=np.zeros((2, m)))
    with pytest.raises(InvalidState):
        GeneralizedState(**(sectors | overrides(m)))


def _break_density(state):
    state.rho_omega_regular[0] = -1.0


def _break_atoms(state):
    state.rho_omega_atoms = AtomicMeasure(locations=[5.0], weights=[-0.1])


def _break_hermiticity(state):
    state.rho_d[0, 1] = 0.1


def _break_occupation(state):
    state.rho_d = np.diag([-0.5, 1.5]).astype(complex)


def _break_pairing(state):
    state.rho_iomega[0, 0] = 0.1


@pytest.mark.parametrize("breaks", [_break_density, _break_atoms, _break_hermiticity,
                                    _break_occupation, _break_pairing],
                         ids=["negative-density", "negative-atom", "non-hermitian",
                              "negative-occupation", "unpaired-mixed"])
def test_broken_invariants_are_invalid_states(grid, breaks):
    state = discrete_state(grid, np.diag([0.5, 0.5]))
    breaks(state)
    with pytest.raises(InvalidState):
        state.validate()


# -- decomposition -------------------------------------------------------------

def test_decompose_pure_discrete_level(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0])).validate()
    eigen = decompose_initial(state, spectrum)
    assert eigen.rho_d[0, 0] == 1.0
    assert eigen.rho_omega_atoms.weight_at(1.0) == pytest.approx(1.0)
    assert eigen.rho_omega_atoms.weight_at(2.0) == 0.0
    assert np.all(eigen.rho_omega_regular == 0.0)


def test_decompose_mixed_diagonal(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.7]))
    eigen = decompose_initial(state, spectrum)
    assert eigen.rho_omega_atoms.weight_at(1.0) == pytest.approx(0.3)
    assert eigen.rho_omega_atoms.weight_at(2.0) == pytest.approx(0.7)
    assert np.real(np.diag(eigen.rho_d)).tolist() == [0.3, 0.7]


def test_decompose_purely_continuous_state_unchanged(grid, spectrum):
    state = continuous_state(grid, normalized_density(grid), n_levels=2)
    eigen = decompose_initial(state, spectrum)
    assert len(eigen.rho_omega_atoms.locations) == 0
    assert np.array_equal(eigen.rho_omega_regular, state.rho_omega_regular)


def test_decompose_rejects_trace_violation(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.3]))
    with pytest.raises(TraceViolation):
        decompose_initial(state, spectrum)


def test_recompose_inverts_decompose(grid, spectrum):
    rng = np.random.default_rng(7)
    state = random_valid_state(grid, spectrum, rng)
    back = recompose(decompose_initial(state, spectrum), spectrum)
    assert back.basis == "free"
    assert np.allclose(back.rho_d, state.rho_d)
    assert back.rho_omega_atoms.weight_at(1.0) == pytest.approx(0.0, abs=1e-15)
    assert back.trace() == pytest.approx(1.0, abs=1e-12)


def test_round_trip_merges_onto_an_atom_at_a_level_energy(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.5]))
    state.rho_omega_atoms = AtomicMeasure(locations=[1.0, 6.5], weights=[0.15, 0.05])
    eigen = decompose_initial(state.validate(), spectrum)
    assert eigen.rho_omega_atoms.locations.tolist() == [1.0, 2.0, 6.5]
    assert eigen.rho_omega_atoms.weight_at(1.0) == pytest.approx(0.45, abs=1e-15)
    back = recompose(eigen, spectrum)
    assert back.rho_omega_atoms.locations.tolist() == [1.0, 2.0, 6.5]
    assert back.rho_omega_atoms.weights == pytest.approx([0.15, 0.0, 0.05], abs=1e-15)
    assert back.trace() == pytest.approx(1.0, abs=1e-12)


# -- time evolution --------------------------------------------------------------

def test_evolve_at_zero_time_is_identity(grid, spectrum):
    rng = np.random.default_rng(11)
    eigen = decompose_initial(random_valid_state(grid, spectrum, rng), spectrum)
    evolved = evolve(eigen, spectrum, 0.0)
    assert np.array_equal(evolved.rho_d, eigen.rho_d)
    assert np.array_equal(evolved.rho_iomega, eigen.rho_iomega)
    assert np.array_equal(evolved.rho_omega_regular, eigen.rho_omega_regular)


def test_continuum_diagonal_sector_is_invariant(grid, spectrum):
    state = continuous_state(grid, normalized_density(grid), n_levels=2)
    eigen = decompose_initial(state, spectrum)
    for t in (0.0, 3.0, 250.0):
        evolved = evolve(eigen, spectrum, t)
        assert np.array_equal(evolved.rho_omega_regular, eigen.rho_omega_regular)
        assert evolved.rho_omega_atoms.total() == eigen.rho_omega_atoms.total()


def test_coherence_modulus_decays_at_mean_rate(grid, spectrum):
    state = discrete_state(grid, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
    eigen = decompose_initial(state, spectrum)
    mean_rate = (spectrum.gamma[0] + spectrum.gamma[1]) / 2.0
    for t in (0.5, 5.0, 42.0):
        evolved = evolve(eigen, spectrum, t)
        assert abs(evolved.rho_d[0, 1]) == pytest.approx(0.5 * np.exp(-mean_rate * t), rel=1e-12)


def test_negative_time_rejected(grid, spectrum):
    eigen = decompose_initial(discrete_state(grid, np.diag([1.0, 0.0])), spectrum)
    with pytest.raises(NegativeTime):
        evolve(eigen, spectrum, -0.1)


def test_evolve_requires_eigen_basis(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve(state, spectrum, 1.0)


def test_trace_preserved_for_random_states(grid, spectrum):
    rng = np.random.default_rng(23)
    for k in range(5):
        state = random_valid_state(grid, spectrum, rng, with_cc=(k == 0))
        eigen = decompose_initial(state, spectrum)
        for t in (0.1, 7.0, 300.0):
            physical = recompose(evolve(eigen, spectrum, t), spectrum)
            assert physical.trace() == pytest.approx(1.0, abs=1e-10)


def test_hermiticity_preserved_under_evolution(grid, spectrum):
    rng = np.random.default_rng(29)
    state = random_valid_state(grid, spectrum, rng, with_cc=True)
    eigen = decompose_initial(state, spectrum)
    for t in (0.5, 20.0):
        evolved = evolve(eigen, spectrum, t)
        assert evolved.hermiticity_defect() < 1e-12


# -- projected diagonal evolution ------------------------------------------------

def test_diagonal_evolution_at_zero_time(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.7]))
    discrete, atoms = diagonal_evolution(state, spectrum, 0.0)
    assert discrete.tolist() == [0.3, 0.7]
    assert atoms.tolist() == [0.0, 0.0]


def test_diagonal_evolution_long_time_limit(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.7]))
    discrete, atoms = diagonal_evolution(state, spectrum, 1e6)
    assert np.allclose(discrete, 0.0, atol=1e-300)
    assert atoms == pytest.approx([0.3, 0.7])


def test_diagonal_evolution_half_life(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    half_life = np.log(2.0) / spectrum.gamma[0]
    discrete, atoms = diagonal_evolution(state, spectrum, half_life)
    assert discrete[0] == pytest.approx(0.5, abs=1e-10)
    assert atoms[0] == pytest.approx(0.5, abs=1e-10)


def test_diagonal_evolution_conserves_each_level(grid, spectrum):
    state = discrete_state(grid, np.diag([0.25, 0.75]))
    for t in np.linspace(0.0, 500.0, 40):
        discrete, atoms = diagonal_evolution(state, spectrum, t)
        assert np.max(np.abs(discrete + atoms - [0.25, 0.75])) < 1e-12


def test_diagonal_evolution_monotone_transfer(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    times = np.linspace(0.0, 100.0, 30)
    occupations = np.array([diagonal_evolution(state, spectrum, t)[0][0] for t in times])
    atom_weights = np.array([diagonal_evolution(state, spectrum, t)[1][0] for t in times])
    assert np.all(np.diff(occupations) < 0)
    assert np.all(np.diff(atom_weights) > 0)


def test_diagonal_evolution_rejects_coherent_input(grid, spectrum):
    state = discrete_state(grid, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
    with pytest.raises(ValueError):
        diagonal_evolution(state, spectrum, 1.0)


# -- equilibrium -----------------------------------------------------------------

def test_equilibrium_of_pure_discrete_state(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    eq = equilibrium(state, spectrum)
    assert eq.atoms.weight_at(1.0) == pytest.approx(1.0)
    assert eq.atoms.weight_at(2.0) == 0.0
    assert np.all(eq.continuous == 0.0)
    assert eq.total_mass() == pytest.approx(1.0)


def test_equilibrium_of_mixed_state(grid, spectrum):
    state = zero_state(grid, 2)
    state.rho_d = np.diag([0.5, 0.2]).astype(complex)
    state.rho_omega_regular = normalized_density(grid, mass=0.3)
    eq = equilibrium(state.validate(), spectrum)
    assert eq.atoms.weight_at(1.0) == pytest.approx(0.5)
    assert eq.atoms.weight_at(2.0) == pytest.approx(0.2)
    assert np.dot(grid.weights, eq.continuous) == pytest.approx(0.3)


def test_equilibrium_drops_coherences(grid, spectrum):
    state = discrete_state(grid, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
    eq = equilibrium(state, spectrum)
    assert eq.atoms.weight_at(1.0) == pytest.approx(0.5)
    assert eq.atoms.weight_at(2.0) == pytest.approx(0.5)
    assert eq.total_mass() == pytest.approx(1.0)


def test_equilibrium_is_idempotent_under_evolution(grid, spectrum):
    rng = np.random.default_rng(31)
    state = random_valid_state(grid, spectrum, rng)
    eigen = decompose_initial(state, spectrum)
    eq0 = equilibrium(eigen, spectrum)
    for t in (1.0, 50.0):
        eq_t = equilibrium(evolve(eigen, spectrum, t), spectrum)
        assert np.array_equal(eq_t.continuous, eq0.continuous)
        assert np.array_equal(eq_t.atoms.weights, eq0.atoms.weights)


def test_equilibrium_components_nonnegative(grid, spectrum):
    rng = np.random.default_rng(37)
    eq = equilibrium(random_valid_state(grid, spectrum, rng), spectrum)
    assert np.all(eq.continuous >= 0.0)
    assert np.all(eq.atoms.weights >= 0.0)
