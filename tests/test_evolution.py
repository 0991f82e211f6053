import functools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointersim import (
    GeneralizedState,
    MeasurementSetup,
    build_grid,
    coherence,
    decompose_initial,
    discrete_state,
    equilibrium,
    evolve,
    liouville_spectrum,
    premeasure,
    recompose,
)
from pointersim.errors import InvalidState, NegativeTime, TraceViolation
from pointersim.evolution import _SECTOR_DTYPES, zero_state
from .conftest import (NumpyWithoutMemory, make_constant_model, normalized_density,
                       random_valid_state)


@pytest.fixture(scope="module")
def grid():
    return build_grid(10.0, 400)


@pytest.fixture(scope="module")
def spectrum(grid):
    return liouville_spectrum(make_constant_model([1.0, 2.0], 0.1), grid)


# -- state invariants ----------------------------------------------------------

def _state_with(grid, **overrides):
    m = grid.size
    sectors = dict(grid=grid, rho_omega_regular=np.zeros(m), rho_omega_atoms=np.zeros(2),
                   rho_d=np.zeros((2, 2)), rho_iomega=np.zeros((2, m)))
    return GeneralizedState(**(sectors | overrides))


def _continuum_state(grid):
    return replace(zero_state(grid, 2), rho_omega_regular=normalized_density(grid))


@pytest.mark.parametrize("make, match", [
    (lambda g: _state_with(g, rho_omega_regular=np.zeros(g.size + 1)), "grid size"),
    (lambda g: _state_with(g, rho_d=np.zeros((2, 3))), "square"),
    (lambda g: _state_with(g, rho_d=0.5), "square"),
    (lambda g: discrete_state(g, 0.5), "square"),
    (lambda g: discrete_state(g, [[1.0, 0.0], [0.0]]), "finite numbers, got a ragged sequence"),
    (lambda g: discrete_state(g, [["1", "0"], ["0", "0"]]), r"^rho_d must be finite numbers, got '1'$"),
    (lambda g: discrete_state(g, [[True, False], [False, False]]), "got True"),
    (lambda g: _state_with(g, rho_omega_atoms=np.zeros(3)), "rho_omega_atoms must have shape"),
    (lambda g: _state_with(g, rho_iomega=np.zeros((2, g.size + 1))), "mixed sectors must have shape"),
    (lambda g: _state_with(g, rho_d=np.zeros((3, 2, 2)), rho_omega_atoms=np.zeros((4, 2))),
     "rho_omega_atoms must have shape"),
    (lambda g: _state_with(g, rho_d=np.zeros((3, 2, 2)), rho_omega_atoms=np.zeros((3, 2)),
                           rho_iomega=np.zeros((4, 2, g.size))),
     "mixed sectors must have shape"),
    (lambda g: _state_with(g, rho_omega_atoms=np.zeros((3, 2))), "rho_omega_atoms must have shape"),
    (lambda g: _state_with(g, rho_d=np.zeros((3, 2, 2)), rho_iomega=None),
     r"rho_omega_atoms must have shape \(3, 2\), got \(2,\)"),
    # the constructor reads each sector's dtype kind: numpy would read True
    # as 1.0, parse '1' as 1+0j, fail on an object and drop an imaginary part
    (lambda g: _state_with(g, rho_omega_atoms=[True, False], rho_d=[["1", "0"], ["0", "0"]]),
     r"^rho_omega_atoms must be real numbers, got an array of bool$"),
    (lambda g: _state_with(g, rho_d=[["1", "0"], ["0", "0"]]),
     r"^rho_d must be real or complex numbers, got an array of <U1$"),
    (lambda g: _state_with(g, rho_omega_regular=["0"] * g.size),
     r"^rho_omega_regular must be real numbers, got an array of <U1$"),
    (lambda g: _state_with(g, rho_iomega=np.full((2, g.size), object())),
     r"^rho_iomega must be real or complex numbers, got an array of object$"),
    (lambda g: _state_with(g, rho_omega_atoms=np.array([1.0 + 1.0j, 0.0])),
     r"^rho_omega_atoms must be real numbers, got an array of complex128$"),
    # numpy cannot convert a ragged list at all
    (lambda g: _state_with(g, rho_omega_atoms=[0.0], rho_d=[[1.0], [1.0, 2.0]]),
     r"^rho_d must be real or complex numbers, got a ragged sequence$"),
    (lambda g: _state_with(g, rho_omega_regular=[[0.0], [0.0, 0.0]]),
     r"^rho_omega_regular must be real numbers, got a ragged sequence$"),
], ids=["continuum-size", "non-square-discrete", "scalar-discrete", "scalar-discrete-state",
        "ragged-discrete-state", "string-discrete-state", "bool-discrete-state", "atom-count",
        "mixed-shape", "stacked-atoms-other-times", "stacked-mixed-other-times",
        "stacked-atoms-single-state", "shared-atoms-beside-a-stack", "bool-atoms-string-discrete",
        "string-discrete", "string-continuum", "object-mixed", "complex-atoms",
        "ragged-discrete", "ragged-continuum"])
def test_malformed_sectors_are_invalid_states(grid, make, match):
    with pytest.raises(InvalidState, match=match):
        make(grid)


def test_sectors_of_their_own_dtype_are_viewed_not_copied(grid):
    sectors = dict(rho_omega_regular=np.zeros(grid.size), rho_omega_atoms=np.zeros(2),
                   rho_d=np.zeros((2, 2), complex), rho_iomega=np.zeros((2, grid.size), complex))
    state = GeneralizedState(grid=grid, **sectors)
    for name, array in sectors.items():
        assert np.shares_memory(getattr(state, name), array)
        assert not getattr(state, name).flags.writeable
    # an integer sector is a number too, converted once
    assert GeneralizedState(grid=grid, **(sectors | {"rho_omega_atoms": [1, 0]})).rho_omega_atoms[0] == 1.0


def _with_entry(array, index, value):
    changed = np.array(array)
    changed[index] = value
    return changed


def _break_density(state):
    return replace(state, rho_omega_regular=_with_entry(state.rho_omega_regular, 0, -1.0))


def _break_atoms(state):
    return replace(state, rho_omega_atoms=[0.0, -0.1])


def _break_hermiticity(state):
    return replace(state, rho_d=_with_entry(state.rho_d, (0, 1), 0.1))


def _break_occupation(state):
    return replace(state, rho_d=np.diag([-0.5, 1.5]).astype(complex))


def _nan_coherence(state):
    return replace(state, rho_d=np.array([[0.5, np.nan], [np.nan, 0.5]]))


def _nan_occupation(state):
    return replace(state, rho_d=np.diag([np.nan, 0.5]))


def _inf_density(state):
    return replace(state, rho_omega_regular=_with_entry(state.rho_omega_regular, 0, np.inf))


@pytest.mark.parametrize("breaks, match", [
    (_break_density, "density must be >= 0"),
    (_break_atoms, "atom weights"),
    (_break_hermiticity, "Hermitian"),
    (_break_occupation, "occupations"),
    (_nan_coherence, "rho_d must be finite"),
    (_nan_occupation, "rho_d must be finite"),
    (_inf_density, "rho_omega_regular must be finite"),
], ids=["negative-density", "negative-atom", "non-hermitian", "negative-occupation",
        "nan-coherence", "nan-occupation", "inf-density"])
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


def _nan_eigen_continuum(grid):
    return replace(zero_state(grid, 2), rho_omega_regular=np.full(grid.size, np.nan), basis="eigen")


def _nan_eigen_atom(grid):
    return replace(zero_state(grid, 2), rho_omega_atoms=[np.nan, 0.0], basis="eigen")


@pytest.mark.parametrize("call, match", [
    (lambda g, s: decompose_initial(_eigen_state(g, s), s), "decompose_initial expects"),
    (lambda g, s: recompose(discrete_state(g, np.diag([1.0, 0.0])), s), "recompose expects"),
    (lambda g, s: evolve(discrete_state(g, np.diag([1.0, 0.0])), s, 1.0), "evolve expects"),
    (lambda g, s: equilibrium(_negative_eigen_continuum(g), s), "density must be >= 0"),
    (lambda g, s: equilibrium(_nan_eigen_continuum(g), s), "rho_omega_regular must be finite"),
    (lambda g, s: equilibrium(_nan_eigen_atom(g), s), "rho_omega_atoms must be finite"),
    (lambda g, s: evolve(evolve(_eigen_state(g, s), s, [1.0, 2.0, 3.0]), s, [1.0, 2.0]),
     "many times for a single state"),
], ids=["decompose-basis", "recompose-basis", "evolve-basis", "equilibrium-sign",
        "equilibrium-nan", "equilibrium-nan-atom", "evolve-stack-over-times"])
def test_evolution_input_errors_are_invalid_states(grid, spectrum, call, match):
    with pytest.raises(InvalidState, match=match):
        call(grid, spectrum)


@pytest.mark.parametrize("call", [
    lambda g, s, one: decompose_initial(discrete_state(g, np.diag([0.3, 0.7])), one),
    lambda g, s, one: evolve(_eigen_state(g, s), one, 1.0),
    lambda g, s, one: recompose(_eigen_state(g, s), one),
], ids=["decompose_initial", "evolve", "recompose"])
def test_level_count_mismatch_is_an_invalid_state(grid, spectrum, call):
    # a one-level spectrum would hand level 0's rate to level 1 as well
    one_level = liouville_spectrum(make_constant_model([1.0], 0.1), grid)
    with pytest.raises(InvalidState, match="state has 2 levels, spectrum has 1"):
        call(grid, spectrum, one_level)


# -- ownership: states are values ----------------------------------------------

_SECTORS = tuple(name for name, _ in _SECTOR_DTYPES)


def _sector_arrays(state):
    return [getattr(state, name) for name in _SECTORS if getattr(state, name) is not None]


_TRANSFORMS = {
    "decompose_initial": decompose_initial,
    "recompose": lambda state, spectrum: recompose(decompose_initial(state, spectrum), spectrum),
    "evolve": lambda state, spectrum: evolve(decompose_initial(state, spectrum), spectrum, 3.0),
    "equilibrium": equilibrium,
}


@pytest.mark.parametrize("transform", _TRANSFORMS.values(), ids=_TRANSFORMS.keys())
def test_transforms_leave_their_input_unchanged(grid, spectrum, transform):
    state = random_valid_state(grid, spectrum, np.random.default_rng(3))
    before = [np.array(a) for a in _sector_arrays(state)]
    transform(state, spectrum)
    assert all(np.array_equal(a, b) for a, b in zip(_sector_arrays(state), before, strict=True))


@pytest.mark.parametrize("build", [
    lambda g, s, state: state,
    lambda g, s, state: discrete_state(g, np.diag([1.0, 0.0])),
    lambda g, s, state: decompose_initial(state, s),
    lambda g, s, state: recompose(decompose_initial(state, s), s),
    lambda g, s, state: evolve(decompose_initial(state, s), s, 3.0),
], ids=["constructor", "discrete_state", "decompose_initial", "recompose", "evolve"])
def test_returned_states_are_read_only(grid, spectrum, build):
    state = build(grid, spectrum, random_valid_state(grid, spectrum, np.random.default_rng(5)))
    for array in _sector_arrays(state):
        if array.size:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
    with pytest.raises(FrozenInstanceError):
        state.rho_d = np.eye(2)


def test_state_builders_copy_the_callers_array(grid):
    rho_d = np.diag([1.0, 0.0]).astype(complex)
    discrete = discrete_state(grid, rho_d)
    rho_d[0, 0] = 0.0
    assert discrete.rho_d[0, 0] == 1.0


def test_evolve_shares_the_invariant_sectors(grid, spectrum):
    eigen = decompose_initial(random_valid_state(grid, spectrum, np.random.default_rng(9)), spectrum)
    evolved = evolve(eigen, spectrum, 3.0)
    assert np.shares_memory(evolved.rho_omega_regular, eigen.rho_omega_regular)
    assert np.shares_memory(evolved.rho_omega_atoms, eigen.rho_omega_atoms)


# -- absent sectors ------------------------------------------------------------

def test_discrete_states_carry_no_mixed_sectors(grid, spectrum):
    premeasured = premeasure(MeasurementSetup(amplitudes=[0.6, 0.8j]), grid)
    for state in (discrete_state(grid, np.diag([0.3, 0.7])), premeasured):
        eigen = decompose_initial(state, spectrum)
        evolved = evolve(eigen, spectrum, 3.0)
        for stage in (state, eigen, evolved, recompose(evolved, spectrum)):
            assert stage.rho_iomega is None


def test_absent_mixed_sectors_evolve_like_zero_ones(grid, spectrum):
    absent = discrete_state(grid, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))
    zeros = np.zeros((2, grid.size), complex)
    explicit = replace(absent, rho_iomega=zeros)
    eigen_absent, eigen_explicit = (decompose_initial(s, spectrum) for s in (absent, explicit))
    for t in (0.0, 0.7, 40.0, 300.0):
        a = recompose(evolve(eigen_absent, spectrum, t), spectrum)
        e = recompose(evolve(eigen_explicit, spectrum, t), spectrum)
        assert a.rho_d.tobytes() == e.rho_d.tobytes()
        assert a.rho_omega_atoms.tobytes() == e.rho_omega_atoms.tobytes()
        assert not np.any(e.rho_iomega)


# -- decomposition -------------------------------------------------------------

def test_decompose_pure_discrete_level(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0])).validate()
    eigen = decompose_initial(state, spectrum)
    assert eigen.rho_d[0, 0] == 1.0
    at_one, at_two = eigen.rho_omega_atoms
    assert at_one == pytest.approx(1.0)
    assert at_two == 0.0
    assert np.all(eigen.rho_omega_regular == 0.0)


def test_decompose_mixed_diagonal(grid, spectrum):
    state = discrete_state(grid, np.diag([0.3, 0.7]))
    eigen = decompose_initial(state, spectrum)
    at_one, at_two = eigen.rho_omega_atoms
    assert at_one == pytest.approx(0.3)
    assert at_two == pytest.approx(0.7)
    assert np.real(np.diag(eigen.rho_d)).tolist() == [0.3, 0.7]


def test_decompose_purely_continuous_state_unchanged(grid, spectrum):
    state = _continuum_state(grid)
    eigen = decompose_initial(state, spectrum)
    assert not np.any(eigen.rho_omega_atoms)
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
    assert back.rho_omega_atoms == pytest.approx(state.rho_omega_atoms, abs=1e-15)
    assert back.trace() == pytest.approx(1.0, abs=1e-12)


def test_round_trip_merges_onto_an_atom_at_a_level_energy(grid, spectrum):
    state = replace(discrete_state(grid, np.diag([0.3, 0.5])), rho_omega_atoms=[0.15, 0.05])
    eigen = decompose_initial(state.validate(), spectrum)
    assert eigen.rho_omega_atoms == pytest.approx([0.45, 0.55], abs=1e-15)
    back = recompose(eigen, spectrum)
    assert back.rho_omega_atoms == pytest.approx([0.15, 0.05], abs=1e-15)
    assert back.trace() == pytest.approx(1.0, abs=1e-12)


# The sequential per-level fold that the vectorized ``_shift_level_atoms``
# replaced, kept as a reference: like the location merge before it, it
# leaves the atom of an empty level untouched.

def _fold_reference(atoms, rho_d, sign):
    folded = np.array(atoms)
    for i in range(len(folded)):
        weight = float(np.real(rho_d[i, i]))
        if weight != 0.0:
            folded[i] += sign * weight
    return folded


_SIX_AMPLITUDES = [1.0, 1j] @ np.random.default_rng(17).normal(size=(2, 6))


@pytest.mark.parametrize("levels, rho_d, prior", [
    ([1.0, 2.0], np.diag([0.3, 0.7]), [0.0, 0.0]),
    ([1.0, 2.0], np.diag([0.3, 0.5]), [0.15, 0.05]),
    ([1.0, 2.0, 3.0], np.diag([0.4, 0.0, 0.6]), [0.0, 0.0, 0.0]),
    ([1.0, 2.0, 3.0], np.diag([0.3, 0.0, 0.5]), [0.0, 0.2, 0.0]),
    ([1.0], np.eye(1), [0.0]),
    ([1.0, 2.0, 3.0, 4.5, 6.0, 7.5],
     np.outer(_SIX_AMPLITUDES.conj(), _SIX_AMPLITUDES) / np.sum(np.abs(_SIX_AMPLITUDES) ** 2),
     np.zeros(6)),
], ids=["no-prior-atoms", "atom-at-a-level", "zero-occupation", "far-atom", "one-level",
        "six-levels"])
def test_atom_merge_and_lookup_match_the_sequential_references(grid, levels, rho_d, prior):
    # every atom sits at a level, so the readout is the atom array itself.
    # far-atom: the prior atom sits far from every occupied level, at the one
    # level no occupation folds onto, and must come through untouched
    spectrum = liouville_spectrum(make_constant_model(levels, 0.1), grid)
    state = replace(discrete_state(grid, rho_d), rho_omega_atoms=prior)
    eigen = decompose_initial(state, spectrum)
    assert eigen.rho_omega_atoms.tobytes() == _fold_reference(prior, rho_d, 1.0).tobytes()
    for t in (0.0, 3.0, 40.0):
        evolved = evolve(eigen, spectrum, t)
        back = recompose(evolved, spectrum).rho_omega_atoms
        reference = _fold_reference(evolved.rho_omega_atoms, evolved.rho_d, -1.0)
        assert back.tobytes() == reference.tobytes()


# -- time evolution --------------------------------------------------------------

def test_evolve_at_zero_time_is_identity(grid, spectrum):
    rng = np.random.default_rng(11)
    eigen = decompose_initial(random_valid_state(grid, spectrum, rng), spectrum)
    evolved = evolve(eigen, spectrum, 0.0)
    assert np.array_equal(evolved.rho_d, eigen.rho_d)
    assert np.array_equal(evolved.rho_iomega, eigen.rho_iomega)
    assert np.array_equal(evolved.rho_omega_regular, eigen.rho_omega_regular)


def test_evolve_matches_the_per_level_phases(grid, spectrum):
    # the mixed sector is exponentiated as one block; row by row is the reference
    state = random_valid_state(grid, spectrum, np.random.default_rng(13))
    eigen = decompose_initial(state, spectrum)
    lam = spectrum.lambda_discrete_continuum(grid.nodes)
    for t in (0.7, 120.0):
        evolved = evolve(eigen, spectrum, t)
        for i in range(spectrum.n_levels):
            iomega = eigen.rho_iomega[i] * np.exp(1j * lam[i] * t)
            assert np.array_equal(evolved.rho_iomega[i], iomega)


def test_continuum_diagonal_sector_is_invariant(grid, spectrum):
    state = _continuum_state(grid)
    eigen = decompose_initial(state, spectrum)
    for t in (0.0, 3.0, 250.0):
        evolved = evolve(eigen, spectrum, t)
        assert np.array_equal(evolved.rho_omega_regular, eigen.rho_omega_regular)
        assert np.array_equal(evolved.rho_omega_atoms, eigen.rho_omega_atoms)


def test_coherence_modulus_decays_at_mean_rate(grid, spectrum):
    state = discrete_state(grid, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
    eigen = decompose_initial(state, spectrum)
    mean_rate = (spectrum.gamma[0] + spectrum.gamma[1]) / 2.0
    for t in (0.5, 5.0, 42.0):
        evolved = evolve(eigen, spectrum, t)
        assert abs(evolved.rho_d[0, 1]) == pytest.approx(0.5 * np.exp(-mean_rate * t), rel=1e-12)


def test_negative_time_rejected(grid, spectrum):
    # only integer and float times are times: a string is never parsed as one
    eigen = decompose_initial(discrete_state(grid, np.diag([1.0, 0.0])), spectrum)
    for t, first in ((-0.1, "-0.1"), (np.nan, "nan"), (np.inf, "inf"), ("1.0", "'1.0'"),
                     (None, "None"), (1 + 0j, "(1+0j)"), (True, "True"),
                     ([1.0, True], "True"), ([(0.5, 1.0), [2.0, False]], "False"),
                     (np.array([1.0, np.nan, 2.0]), "nan"),
                     (np.array([[1.0, 2.0], [-3.0, -4.0]]), "-3.0"),
                     # the number rule reads the whole input before the sign
                     ([-0.5, np.nan], "nan"),
                     ([1.0, [2.0]], "a ragged sequence"),
                     # numpy casts these lists to object and to str: the
                     # refusal names the entry itself, not the first one
                     ([1.0, None], "None"), ([2.0, "x"], "'x'")):
        with pytest.raises(NegativeTime, match="finite and >= 0") as refused:
            evolve(eigen, spectrum, t)
        assert str(refused.value).endswith(f"got {first}")


def test_unallocatable_stack_fails_with_one_line(grid, spectrum, monkeypatch):
    eigen = decompose_initial(random_valid_state(grid, spectrum, np.random.default_rng(2)), spectrum)
    monkeypatch.setattr("pointersim.evolution.np", NumpyWithoutMemory())
    times = np.linspace(0.0, 1.0, 1000)
    with pytest.raises(InvalidState, match=rf"\(1000, 2, {grid.size}\) does not fit in memory"):
        evolve(eigen, spectrum, times)
    without_mixed = replace(eigen, rho_iomega=None)
    with pytest.raises(InvalidState, match=r"\(1000, 2, 2\) does not fit in memory"):
        evolve(without_mixed, spectrum, times)


def test_evolved_state_keeps_its_mixed_sectors_conjugate():
    # the (w i| slot is rho_iomega.conj(), so both mixed sectors damp at
    # gamma / 2 together and the recomposed state stays valid
    grid = build_grid(10.0, 400)
    spec = liouville_spectrum(make_constant_model([1.0], 0.1), grid)
    state = random_valid_state(grid, spec, np.random.default_rng(0))
    physical = recompose(evolve(decompose_initial(state, spec), spec, 20.0), spec).validate()
    damping = np.exp(-spec.gamma[0] * 20.0 / 2.0)
    assert np.allclose(np.abs(physical.rho_iomega), damping * np.abs(state.rho_iomega),
                       rtol=1e-12, atol=0.0)


def test_mixed_sectors_follow_the_oracle(unit_model, grid_800, oracle_unit):
    # psi0 = (|level> + |node k>) / sqrt(2): the (i w| slot of the prediction
    # is psi_k conj(psi_0), and its conjugate, the (w i| slot, is psi_0 conj(psi_k).
    # Over [0.1/gamma, 2/gamma] the shift alone turns the phase by up to 0.7 rad
    spectrum = liouville_spectrum(unit_model, grid_800)
    k = int(np.argmin(np.abs(grid_800.nodes - 5.0)))
    psi0 = np.zeros(oracle_unit.size, complex)
    psi0[[0, 1 + k]] = 1 / np.sqrt(2.0)
    density = np.zeros(grid_800.size)
    density[k] = 0.5 / grid_800.weights[k]
    rho_iomega = np.zeros((1, grid_800.size), complex)
    rho_iomega[0, k] = coherence(oracle_unit, 1 + k, 0, psi0, 0.0)
    state = GeneralizedState(grid=grid_800, rho_omega_regular=density,
                             rho_omega_atoms=[0.0], rho_d=[[0.5]],
                             rho_iomega=rho_iomega).validate()
    eigen = decompose_initial(state, spectrum)

    def oracle_ratio(i, j, t):
        return coherence(oracle_unit, i, j, psi0, t) / coherence(oracle_unit, i, j, psi0, 0.0)

    gamma = spectrum.gamma[0]
    for t in np.linspace(0.1 / gamma, 2.0 / gamma, 40):
        ratio = recompose(evolve(eigen, spectrum, t), spectrum).rho_iomega[0, k] / rho_iomega[0, k]
        assert abs(ratio / oracle_ratio(1 + k, 0, t) - 1.0) <= 0.03
        assert abs(np.conj(ratio) / oracle_ratio(0, 1 + k, t) - 1.0) <= 0.03


def test_evolve_requires_eigen_basis(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve(state, spectrum, 1.0)


def test_trace_preserved_for_random_states(grid, spectrum):
    rng = np.random.default_rng(23)
    for _ in range(5):
        state = random_valid_state(grid, spectrum, rng)
        eigen = decompose_initial(state, spectrum)
        for t in (0.1, 7.0, 300.0):
            physical = recompose(evolve(eigen, spectrum, t), spectrum)
            assert physical.trace() == pytest.approx(1.0, abs=1e-10)


def test_hermiticity_preserved_under_evolution(grid, spectrum):
    rng = np.random.default_rng(29)
    state = random_valid_state(grid, spectrum, rng)
    eigen = decompose_initial(state, spectrum)
    for t in (0.5, 20.0):
        evolved = evolve(eigen, spectrum, t)
        assert evolved.hermiticity_defect() < 1e-12


# -- stacks: time as a leading axis -------------------------------------------------

def _stack_with_slice(stack, k, **sectors):
    """``stack`` with slice k of each named sector replaced."""
    changed = {}
    for name, value in sectors.items():
        array = np.array(getattr(stack, name))
        array[k] = value
        changed[name] = array
    return replace(stack, **changed)


def test_stack_checks_act_per_state(grid, spectrum):
    state = discrete_state(grid, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))
    times = np.array([0.0, 5.0, 40.0])
    stack = recompose(evolve(decompose_initial(state, spectrum), spectrum, times), spectrum)
    assert stack.validate().trace().shape == (3,)
    assert stack.trace() == pytest.approx(np.ones(3), abs=1e-12)
    assert stack.hermiticity_defect().shape == (3,)
    # one slice with a negative occupation
    with pytest.raises(InvalidState, match="occupations must be >= 0"):
        _stack_with_slice(stack, 1, rho_d=np.diag([-0.5, 1.5]),
                          rho_omega_atoms=[0.0, 0.0]).validate()
    # traces 0.5, 1.0 and 1.5 average to 1: only a per-state check refuses them
    halves = _stack_with_slice(_stack_with_slice(stack, 0, rho_d=np.diag([0.25, 0.25]),
                                                 rho_omega_atoms=[0.0, 0.0]),
                               2, rho_d=np.diag([0.75, 0.75]), rho_omega_atoms=[0.0, 0.0])
    assert halves.trace().tolist() == pytest.approx([0.5, 1.0, 1.5])
    with pytest.raises(TraceViolation, match="state trace is 0.5,"):
        halves.validate()
    with pytest.raises(InvalidState, match="Hermitian"):
        _stack_with_slice(stack, 2, rho_d=[[0.5, 0.1], [0.0, 0.5]]).validate()


def _stacked(states, t_shape, sector):
    arrays = [getattr(s, sector) for s in states]
    return np.reshape(np.array(arrays), t_shape + getattr(states[0], sector).shape)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(n_levels=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), mixed=st.booleans(),
       t_shape=st.sampled_from([(0,), (), (5,), (2, 3)]), data=st.data())
def test_stacked_evolution_equals_the_per_time_states(n_levels, seed, mixed, t_shape, data):
    spectrum = _property_spectrum(n_levels)
    state = random_valid_state(spectrum.grid, spectrum, np.random.default_rng(seed))
    if not mixed:
        state = replace(state, rho_iomega=None)
    eigen = decompose_initial(state, spectrum)
    decay_times = data.draw(st.lists(st.floats(0.0, 10.0), min_size=int(np.prod(t_shape)),
                                     max_size=int(np.prod(t_shape))))
    t = np.reshape(decay_times, t_shape) / float(np.min(spectrum.gamma))

    evolved = evolve(eigen, spectrum, t)
    physical = recompose(evolved, spectrum)
    per_time = [evolve(eigen, spectrum, float(tk)) for tk in t.ravel()]
    per_time_physical = [recompose(s, spectrum) for s in per_time]
    assert evolved.rho_d.shape == t_shape + (n_levels, n_levels)
    assert physical.rho_omega_atoms.shape == t_shape + (n_levels,)
    assert evolved.rho_omega_atoms.shape == t_shape + (n_levels,)
    # a (0, N) view has no memory to share
    assert np.shares_memory(evolved.rho_omega_atoms, eigen.rho_omega_atoms) or not t.size
    assert np.shares_memory(evolved.rho_omega_regular, eigen.rho_omega_regular)
    stacked = ("rho_d",) + (("rho_iomega",) if mixed else ())
    for stack, states, sectors in ((evolved, per_time, stacked),
                                   (physical, per_time_physical, stacked + ("rho_omega_atoms",))):
        for sector in sectors if states else ():
            assert np.array_equal(getattr(stack, sector), _stacked(states, t_shape, sector))
    assert (physical.rho_iomega is None) == (not mixed)
    trace = physical.validate().trace()
    assert np.shape(trace) == t_shape
    assert np.all(np.abs(np.asarray(trace) - 1.0) <= 1e-10)


# -- equilibrium -----------------------------------------------------------------

def test_equilibrium_of_pure_discrete_state(grid, spectrum):
    state = discrete_state(grid, np.diag([1.0, 0.0]))
    eq = equilibrium(state, spectrum)
    at_one, at_two = eq.rho_omega_atoms
    assert at_one == pytest.approx(1.0)
    assert at_two == 0.0
    assert np.all(eq.rho_omega_regular == 0.0)
    assert eq.trace() == pytest.approx(1.0)


def test_equilibrium_of_mixed_state(grid, spectrum):
    state = replace(zero_state(grid, 2), rho_d=np.diag([0.5, 0.2]),
                    rho_omega_regular=normalized_density(grid, mass=0.3))
    eq = equilibrium(state.validate(), spectrum)
    at_one, at_two = eq.rho_omega_atoms
    assert at_one == pytest.approx(0.5)
    assert at_two == pytest.approx(0.2)
    assert np.dot(grid.weights, eq.rho_omega_regular) == pytest.approx(0.3)


def test_equilibrium_drops_coherences(grid, spectrum):
    state = discrete_state(grid, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
    eq = equilibrium(state, spectrum)
    at_one, at_two = eq.rho_omega_atoms
    assert at_one == pytest.approx(0.5)
    assert at_two == pytest.approx(0.5)
    assert eq.trace() == pytest.approx(1.0)


def test_equilibrium_keeps_only_the_continuum_diagonal(grid, spectrum):
    state = random_valid_state(grid, spectrum, np.random.default_rng(41))
    eigen = decompose_initial(state, spectrum)
    eq = equilibrium(state, spectrum)
    assert eq.basis == "free"
    assert eq.rho_iomega is None
    assert not np.any(eq.rho_d) and eq.rho_d.shape == (2, 2)
    assert np.array_equal(eq.rho_omega_regular, eigen.rho_omega_regular)
    assert np.array_equal(eq.rho_omega_atoms, eigen.rho_omega_atoms)


def test_equilibrium_of_a_stack_is_the_limit_of_each_state(grid, spectrum):
    state = discrete_state(grid, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))
    eigen = decompose_initial(state, spectrum)
    times = np.array([[0.0, 1.0, 5.0], [40.0, 300.0, 0.5]])
    stack = recompose(evolve(eigen, spectrum, times), spectrum)
    eq = equilibrium(stack, spectrum)
    assert eq.basis == "free" and eq.rho_iomega is None
    assert eq.rho_d.shape == (2, 3, 2, 2) and eq.rho_omega_atoms.shape == (2, 3, 2)
    assert eq.validate().trace().shape == (2, 3)
    for k in np.ndindex(times.shape):
        single = recompose(evolve(eigen, spectrum, times[k]), spectrum)
        expected = equilibrium(single, spectrum)
        assert np.array_equal(eq.rho_d[k], expected.rho_d)
        assert np.array_equal(eq.rho_omega_atoms[k], expected.rho_omega_atoms)
        assert np.array_equal(eq.rho_omega_regular, expected.rho_omega_regular)


def test_equilibrium_is_idempotent_under_evolution(grid, spectrum):
    rng = np.random.default_rng(31)
    state = random_valid_state(grid, spectrum, rng)
    eigen = decompose_initial(state, spectrum)
    eq0 = equilibrium(eigen, spectrum)
    for t in (1.0, 50.0):
        eq_t = equilibrium(evolve(eigen, spectrum, t), spectrum)
        assert np.array_equal(eq_t.rho_omega_regular, eq0.rho_omega_regular)
        assert np.array_equal(eq_t.rho_omega_atoms, eq0.rho_omega_atoms)


def test_equilibrium_components_nonnegative(grid, spectrum):
    rng = np.random.default_rng(37)
    eq = equilibrium(random_valid_state(grid, spectrum, rng), spectrum)
    assert np.all(eq.rho_omega_regular >= 0.0)
    assert np.all(eq.rho_omega_atoms >= 0.0)


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
    level_total = np.real(np.diag(physical.rho_d)) + physical.rho_omega_atoms
    assert np.max(np.abs(level_total - np.real(np.diag(rho_d)))) <= 1e-12


@settings(derandomize=True, deadline=None, database=None)
@given(n_levels=st.integers(1, len(_PROPERTY_LEVELS)), seed=st.integers(0, 2 ** 32 - 1),
       decay_times=st.floats(0.0, 10.0))
def test_evolved_states_stay_valid_in_every_sector(n_levels, seed, decay_times):
    spectrum = _property_spectrum(n_levels)
    state = random_valid_state(spectrum.grid, spectrum, np.random.default_rng(seed))
    t = decay_times / float(np.min(spectrum.gamma))
    physical = recompose(evolve(decompose_initial(state, spectrum), spectrum, t), spectrum)
    assert abs(physical.validate().trace() - 1.0) <= 1e-10
