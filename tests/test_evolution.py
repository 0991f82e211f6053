import functools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointersim import (
    AtomicMeasure,
    GeneralizedState,
    MeasurementSetup,
    build_grid,
    continuous_state,
    decompose_initial,
    diagonal_evolution,
    discrete_state,
    equilibrium,
    evolve,
    liouville_spectrum,
    premeasure,
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

@pytest.mark.parametrize("overrides, match", [
    (lambda m: {"rho_omega_regular": np.zeros(m + 1)}, "grid size"),
    (lambda m: {"rho_d": np.zeros((2, 3))}, "square"),
    (lambda m: {"rho_iomega": np.zeros((2, m + 1))}, "mixed sectors must have shape"),
    (lambda m: {"rho_iomega": None}, "present or absent together"),
    (lambda m: {"rho_omegai": None}, "present or absent together"),
], ids=["continuum-size", "non-square-discrete", "mixed-shape", "only-omegai-present",
        "only-iomega-present"])
def test_malformed_sectors_are_invalid_states(grid, overrides, match):
    m = grid.size
    sectors = dict(grid=grid, rho_omega_regular=np.zeros(m), rho_omega_atoms=AtomicMeasure.empty(),
                   rho_d=np.zeros((2, 2)), rho_iomega=np.zeros((2, m)), rho_omegai=np.zeros((2, m)))
    with pytest.raises(InvalidState, match=match):
        GeneralizedState(**(sectors | overrides(m)))


def _with_entry(array, index, value):
    changed = np.array(array)
    changed[index] = value
    return changed


def _break_density(state):
    return replace(state, rho_omega_regular=_with_entry(state.rho_omega_regular, 0, -1.0))


def _break_atoms(state):
    return replace(state, rho_omega_atoms=AtomicMeasure(locations=[5.0], weights=[-0.1]))


def _break_hermiticity(state):
    return replace(state, rho_d=_with_entry(state.rho_d, (0, 1), 0.1))


def _break_occupation(state):
    return replace(state, rho_d=np.diag([-0.5, 1.5]).astype(complex))


def _break_pairing(state):
    # a discrete state has no mixed sectors; give it zero ones, then unpair them
    zeros = np.zeros((state.n_levels, state.grid.size), complex)
    return replace(state, rho_iomega=_with_entry(zeros, (0, 0), 0.1), rho_omegai=zeros)


@pytest.mark.parametrize("breaks, match", [
    (_break_density, "density must be >= 0"),
    (_break_atoms, "atom weights"),
    (_break_hermiticity, "Hermitian"),
    (_break_occupation, "occupations"),
    (_break_pairing, "mixed sectors must be conjugates"),
], ids=["negative-density", "negative-atom", "non-hermitian", "negative-occupation",
        "unpaired-mixed"])
def test_broken_invariants_are_invalid_states(grid, breaks, match):
    state = breaks(discrete_state(grid, np.diag([0.5, 0.5])))
    with pytest.raises(InvalidState, match=match):
        state.validate()


def _eigen_state(grid, spectrum):
    return decompose_initial(discrete_state(grid, np.diag([1.0, 0.0])), spectrum)


def _negative_eigen_continuum(grid):
    density = _with_entry(normalized_density(grid), 0, -1e-6)
    density /= np.dot(grid.weights, density)
    return replace(zero_state(grid, 2), rho_omega_regular=density, basis="eigen")


@pytest.mark.parametrize("call, match", [
    (lambda g, s: decompose_initial(_eigen_state(g, s), s), "decompose_initial expects"),
    (lambda g, s: recompose(discrete_state(g, np.diag([1.0, 0.0])), s), "recompose expects"),
    (lambda g, s: evolve(discrete_state(g, np.diag([1.0, 0.0])), s, 1.0), "evolve expects"),
    (lambda g, s: diagonal_evolution(_eigen_state(g, s), s, 1.0), "diagonal_evolution expects"),
    (lambda g, s: diagonal_evolution(discrete_state(g, np.full((2, 2), 0.5)), s, 1.0),
     "purely discrete diagonal"),
    (lambda g, s: equilibrium(_negative_eigen_continuum(g), s), "equilibrium components"),
], ids=["decompose-basis", "recompose-basis", "evolve-basis", "diagonal-basis",
        "diagonal-purity", "equilibrium-sign"])
def test_evolution_input_errors_are_invalid_states(grid, spectrum, call, match):
    with pytest.raises(InvalidState, match=match):
        call(grid, spectrum)


@pytest.mark.parametrize("call", [
    lambda g, s, one: decompose_initial(discrete_state(g, np.diag([0.3, 0.7])), one),
    lambda g, s, one: evolve(_eigen_state(g, s), one, 1.0),
    lambda g, s, one: recompose(_eigen_state(g, s), one),
    lambda g, s, one: diagonal_evolution(discrete_state(g, np.diag([0.3, 0.7])), one, 1.0),
], ids=["decompose_initial", "evolve", "recompose", "diagonal_evolution"])
def test_level_count_mismatch_is_an_invalid_state(grid, spectrum, call):
    # a one-level spectrum would hand level 0's rate to level 1 as well
    one_level = liouville_spectrum(make_constant_model([1.0], 0.1), grid)
    with pytest.raises(InvalidState, match="state has 2 levels, spectrum has 1"):
        call(grid, spectrum, one_level)


# -- ownership: states are values ----------------------------------------------

_SECTORS = ("rho_omega_regular", "rho_d", "rho_iomega", "rho_omegai", "rho_omegaomega")


def _sector_arrays(state):
    arrays = [getattr(state, name) for name in _SECTORS if getattr(state, name) is not None]
    return arrays + [state.rho_omega_atoms.locations, state.rho_omega_atoms.weights]


_TRANSFORMS = {
    "decompose_initial": decompose_initial,
    "recompose": lambda state, spectrum: recompose(decompose_initial(state, spectrum), spectrum),
    "evolve": lambda state, spectrum: evolve(decompose_initial(state, spectrum), spectrum, 3.0),
    "equilibrium": equilibrium,
}


@pytest.mark.parametrize("transform", _TRANSFORMS.values(), ids=_TRANSFORMS.keys())
def test_transforms_leave_their_input_unchanged(grid, spectrum, transform):
    state = random_valid_state(grid, spectrum, np.random.default_rng(3), with_cc=True)
    before = [np.array(a) for a in _sector_arrays(state)]
    transform(state, spectrum)
    assert all(np.array_equal(a, b) for a, b in zip(_sector_arrays(state), before, strict=True))


@pytest.mark.parametrize("build", [
    lambda g, s, state: state,
    lambda g, s, state: discrete_state(g, np.diag([1.0, 0.0])),
    lambda g, s, state: continuous_state(g, normalized_density(g), n_levels=2),
    lambda g, s, state: decompose_initial(state, s),
    lambda g, s, state: recompose(decompose_initial(state, s), s),
    lambda g, s, state: evolve(decompose_initial(state, s), s, 3.0),
], ids=["constructor", "discrete_state", "continuous_state", "decompose_initial", "recompose",
        "evolve"])
def test_returned_states_are_read_only(grid, spectrum, build):
    state = build(grid, spectrum, random_valid_state(grid, spectrum, np.random.default_rng(5),
                                                     with_cc=True))
    for array in _sector_arrays(state):
        if array.size:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
    with pytest.raises(FrozenInstanceError):
        state.rho_d = np.eye(2)


def test_state_builders_copy_the_callers_array(grid):
    rho_d = np.diag([1.0, 0.0]).astype(complex)
    density = normalized_density(grid)
    discrete, continuous = discrete_state(grid, rho_d), continuous_state(grid, density)
    rho_d[0, 0] = 0.0
    density[:] = 0.0
    assert discrete.rho_d[0, 0] == 1.0
    assert continuous.trace() == pytest.approx(1.0, abs=1e-12)


def test_evolve_shares_the_invariant_sectors(grid, spectrum):
    eigen = decompose_initial(random_valid_state(grid, spectrum, np.random.default_rng(9)), spectrum)
    evolved = evolve(eigen, spectrum, 3.0)
    assert np.shares_memory(evolved.rho_omega_regular, eigen.rho_omega_regular)
    assert evolved.rho_omega_atoms is eigen.rho_omega_atoms


# -- absent sectors ------------------------------------------------------------

def test_discrete_states_carry_no_mixed_sectors(grid, spectrum):
    premeasured = premeasure(MeasurementSetup(amplitudes=[0.6, 0.8j]), grid)
    for state in (discrete_state(grid, np.diag([0.3, 0.7])), premeasured):
        eigen = decompose_initial(state, spectrum)
        evolved = evolve(eigen, spectrum, 3.0)
        for stage in (state, eigen, evolved, recompose(evolved, spectrum)):
            assert stage.rho_iomega is None and stage.rho_omegai is None


def test_absent_mixed_sectors_evolve_like_zero_ones(grid, spectrum):
    absent = discrete_state(grid, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))
    zeros = np.zeros((2, grid.size), complex)
    explicit = replace(absent, rho_iomega=zeros, rho_omegai=zeros)
    eigen_absent, eigen_explicit = (decompose_initial(s, spectrum) for s in (absent, explicit))
    for t in (0.0, 0.7, 40.0, 300.0):
        a = recompose(evolve(eigen_absent, spectrum, t), spectrum)
        e = recompose(evolve(eigen_explicit, spectrum, t), spectrum)
        assert a.rho_d.tobytes() == e.rho_d.tobytes()
        assert a.rho_omega_atoms.locations.tobytes() == e.rho_omega_atoms.locations.tobytes()
        assert a.rho_omega_atoms.weights.tobytes() == e.rho_omega_atoms.weights.tobytes()
        assert not np.any(e.rho_iomega) and not np.any(e.rho_omegai)


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
    state = replace(discrete_state(grid, np.diag([0.3, 0.5])),
                    rho_omega_atoms=AtomicMeasure(locations=[1.0, 6.5], weights=[0.15, 0.05]))
    eigen = decompose_initial(state.validate(), spectrum)
    assert eigen.rho_omega_atoms.locations.tolist() == [1.0, 2.0, 6.5]
    assert eigen.rho_omega_atoms.weight_at(1.0) == pytest.approx(0.45, abs=1e-15)
    back = recompose(eigen, spectrum)
    assert back.rho_omega_atoms.locations.tolist() == [1.0, 2.0, 6.5]
    assert back.rho_omega_atoms.weights == pytest.approx([0.15, 0.0, 0.05], abs=1e-15)
    assert back.trace() == pytest.approx(1.0, abs=1e-12)


# The sequential fold and the per-location scan that the vectorized
# ``AtomicMeasure.merging`` and ``weights_at`` replaced, kept as references.

def _fold_reference(atoms, levels, rho_d, sign):
    locations, weights = np.array(atoms.locations), np.array(atoms.weights)
    for i, level in enumerate(levels):
        weight = float(np.real(rho_d[i, i]))
        if weight == 0.0:
            continue
        hit = np.abs(locations - level) <= 1e-12
        if np.any(hit):
            weights = weights.copy()
            weights[hit] += sign * weight
        else:
            locations = np.append(locations, level)
            weights = np.append(weights, sign * weight)
            order = np.argsort(locations)
            locations, weights = locations[order], weights[order]
    return locations, weights


def _lookup_reference(atoms, probes):
    return np.array([float(np.sum(atoms.weights[np.abs(atoms.locations - p) <= 1e-9]))
                     for p in probes])


_SIX_AMPLITUDES = [1.0, 1j] @ np.random.default_rng(17).normal(size=(2, 6))


@pytest.mark.parametrize("levels, rho_d, prior", [
    ([1.0, 2.0], np.diag([0.3, 0.7]), ([], [])),
    ([1.0, 2.0], np.diag([0.3, 0.5]), ([1.0, 6.5], [0.15, 0.05])),
    ([1.0, 2.0, 3.0], np.diag([0.4, 0.0, 0.6]), ([], [])),
    ([1.0, 2.0], np.diag([0.3, 0.5]), ([6.5], [0.2])),
    ([1.0], np.eye(1), ([], [])),
    ([1.0, 2.0, 3.0, 4.5, 6.0, 7.5],
     np.outer(_SIX_AMPLITUDES.conj(), _SIX_AMPLITUDES) / np.sum(np.abs(_SIX_AMPLITUDES) ** 2),
     ([], [])),
], ids=["no-prior-atoms", "atom-at-a-level", "zero-occupation", "far-atom", "one-level",
        "six-levels"])
def test_atom_merge_and_lookup_match_the_sequential_references(grid, levels, rho_d, prior):
    spectrum = liouville_spectrum(make_constant_model(levels, 0.1), grid)
    state = replace(discrete_state(grid, rho_d), rho_omega_atoms=AtomicMeasure(*prior))
    eigen = decompose_initial(state, spectrum)
    locations, weights = _fold_reference(state.rho_omega_atoms, levels, state.rho_d, 1.0)
    assert eigen.rho_omega_atoms.locations.tobytes() == locations.tobytes()
    assert eigen.rho_omega_atoms.weights.tobytes() == weights.tobytes()
    probes = np.concatenate([levels, np.add(levels, 5e-10), [0.5, 6.5, 9.0]])
    for t in (0.0, 3.0, 40.0):
        evolved = evolve(eigen, spectrum, t)
        back = recompose(evolved, spectrum).rho_omega_atoms
        locations, weights = _fold_reference(evolved.rho_omega_atoms, levels, evolved.rho_d, -1.0)
        assert back.locations.tobytes() == locations.tobytes()
        assert back.weights.tobytes() == weights.tobytes()
        assert back.weights_at(probes).tobytes() == _lookup_reference(back, probes).tobytes()


# -- time evolution --------------------------------------------------------------

def test_evolve_at_zero_time_is_identity(grid, spectrum):
    rng = np.random.default_rng(11)
    eigen = decompose_initial(random_valid_state(grid, spectrum, rng), spectrum)
    evolved = evolve(eigen, spectrum, 0.0)
    assert np.array_equal(evolved.rho_d, eigen.rho_d)
    assert np.array_equal(evolved.rho_iomega, eigen.rho_iomega)
    assert np.array_equal(evolved.rho_omega_regular, eigen.rho_omega_regular)


def test_evolve_matches_the_per_level_phases(grid, spectrum):
    # the mixed sectors are exponentiated as one block; row by row is the reference
    eigen = decompose_initial(random_valid_state(grid, spectrum, np.random.default_rng(13)), spectrum)
    for t in (0.7, 120.0):
        evolved = evolve(eigen, spectrum, t)
        for i in range(spectrum.n_levels):
            omegai = eigen.rho_omegai[i] * np.exp(
                1j * spectrum.lambda_continuum_discrete(grid.nodes, i) * t)
            iomega = eigen.rho_iomega[i] * np.exp(
                1j * spectrum.lambda_discrete_continuum(i, grid.nodes) * t)
            assert np.array_equal(evolved.rho_omegai[i], omegai)
            assert np.array_equal(evolved.rho_iomega[i], iomega)


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
    state = replace(zero_state(grid, 2), rho_d=np.diag([0.5, 0.2]),
                    rho_omega_regular=normalized_density(grid, mass=0.3))
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


# -- property: evolved discrete states stay physical -----------------------------

_PROPERTY_LEVELS = (1.0, 2.0, 3.0, 4.5)


@functools.cache
def _property_spectrum(n_levels):
    model = make_constant_model(_PROPERTY_LEVELS[:n_levels], 0.1)
    return liouville_spectrum(model, build_grid(10.0, 200))


@st.composite
def _discrete_rho_d(draw):
    """A unit-trace discrete block: rank one from amplitudes, or diagonal."""
    n = draw(st.integers(1, len(_PROPERTY_LEVELS)))
    if draw(st.booleans()):
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
        amplitudes = np.asarray(parts[:n]) + 1j * np.asarray(parts[n:])
        assume(np.linalg.norm(amplitudes) > 1e-3)
        amplitudes /= np.linalg.norm(amplitudes)
        return np.outer(amplitudes.conj(), amplitudes)
    occupations = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(occupations.sum() > 1e-3)
    return np.diag(occupations / occupations.sum())


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(rho_d=_discrete_rho_d(), decay_times=st.floats(0.0, 10.0))
def test_evolved_discrete_states_stay_valid_and_conserve_each_level(rho_d, decay_times):
    spectrum = _property_spectrum(rho_d.shape[0])
    t = decay_times / float(np.min(spectrum.gamma))
    state = decompose_initial(discrete_state(spectrum.grid, rho_d), spectrum)
    physical = recompose(evolve(state, spectrum, t), spectrum).validate()
    atoms = physical.rho_omega_atoms.weights_at(spectrum.levels)
    level_total = np.real(np.diag(physical.rho_d)) + atoms
    assert np.max(np.abs(level_total - np.real(np.diag(rho_d)))) <= 1e-12
