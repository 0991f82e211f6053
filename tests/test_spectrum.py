import numpy as np
import pytest

from pointersim import build_grid, level_shift, liouville_spectrum
from pointersim.spectrum import EigenvectorCorrections, decay_rate
from .conftest import make_constant_model


@pytest.fixture(scope="module")
def grid():
    return build_grid(10.0, 1000)


def test_decay_rate_constant_coupling(grid):
    spec = make_constant_model([1.0], 0.1)
    assert decay_rate(spec, 0) == pytest.approx(2 * np.pi * 0.01)


def test_decay_rate_vanishes_for_decoupled_level(grid):
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    assert decay_rate(spec, 0) == 0.0


def test_level_shift_symmetric_level_vanishes(grid):
    spec = make_constant_model([5.0], 0.1)
    assert level_shift(spec, grid, 0) == pytest.approx(0.0, abs=1e-12)


def test_level_shift_constant_coupling_closed_form(grid):
    spec = make_constant_model([1.0], 0.1)
    assert level_shift(spec, grid, 0) == pytest.approx(0.01 * np.log(9.0), abs=1e-10)


def test_diagonal_eigenvalue_is_pure_damping(grid):
    spec = make_constant_model([1.0], 0.1)
    lam = liouville_spectrum(spec, grid).lambda_d[0, 0]
    assert lam.real == 0.0
    assert lam.imag == pytest.approx(decay_rate(spec, 0))


def test_zero_coupling_reduces_to_level_splitting(grid):
    spec = make_constant_model([1.0, 2.0], 0.1, scale=0.0)
    s = liouville_spectrum(spec, grid)
    assert s.lambda_d[0, 1] == complex(-1.0, 0.0)
    assert s.lambda_d[1, 0] == complex(1.0, 0.0)


def test_two_level_damping_is_sum_of_half_rates(grid):
    spec = make_constant_model([1.0, 2.0], 0.1)
    lam = liouville_spectrum(spec, grid).lambda_d[0, 1]
    assert lam.imag == pytest.approx(np.pi * (0.01 + 0.01))


def test_conjugate_pairing_is_exact(grid):
    spec = make_constant_model([1.0, 2.0, 3.5], [0.1, 0.05, 0.02])
    s = liouville_spectrum(spec, grid)
    for i in range(3):
        for j in range(3):
            assert s.lambda_d[j, i] == -np.conj(s.lambda_d[i, j])


def test_damping_identity_is_exact(grid):
    spec = make_constant_model([1.0, 2.0, 3.5], [0.1, 0.05, 0.02])
    s = liouville_spectrum(spec, grid)
    for i in range(3):
        for j in range(3):
            assert s.lambda_d[i, j].imag == (s.gamma[i] + s.gamma[j]) / 2.0


def test_rates_and_shifts_scale_quadratically(grid):
    base = liouville_spectrum(make_constant_model([1.0, 2.0], 0.05), grid)
    scaled = liouville_spectrum(make_constant_model([1.0, 2.0], 0.05, scale=3.0), grid)
    assert np.allclose(scaled.gamma, 9.0 * base.gamma, rtol=1e-10)
    assert np.allclose(scaled.shift, 9.0 * base.shift, rtol=1e-10)
    # the splitting part of the real component is coupling-independent
    splitting = -1.0
    assert scaled.lambda_d[0, 1].real - splitting == pytest.approx(
        9.0 * (base.lambda_d[0, 1].real - splitting), rel=1e-10)


def test_continuum_discrete_eigenvalue_is_real(grid):
    spec = make_constant_model([1.0], 0.1)
    lam = liouville_spectrum(spec, grid).lambda_continuum_discrete(4.0, 0)
    assert lam.imag == 0.0
    assert lam.real == pytest.approx(3.0)


def test_discrete_continuum_eigenvalue_damps_at_half_rate(grid):
    spec = make_constant_model([1.0], 0.1)
    lam = liouville_spectrum(spec, grid).lambda_discrete_continuum(0, 4.0)
    assert lam.imag == pytest.approx(decay_rate(spec, 0) / 2.0)
    assert lam.real == pytest.approx(1.0 - 4.0 - level_shift(spec, grid, 0))


def test_mixed_eigenvalues_zero_coupling_reduce_to_detuning(grid):
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    s = liouville_spectrum(spec, grid)
    assert s.lambda_continuum_discrete(4.0, 0) == complex(3.0, 0.0)
    assert s.lambda_discrete_continuum(0, 4.0) == complex(-3.0, 0.0)


def test_continuum_continuum_eigenvalue_is_real(grid):
    spec = make_constant_model([1.0], 0.1)
    s = liouville_spectrum(spec, grid)
    u = grid.nodes[::100]
    lam = s.lambda_cc(u[:, None], u[None, :])
    assert np.all(lam.imag == 0.0)


def test_spectrum_container_matches_free_functions(grid):
    spec = make_constant_model([1.0, 2.0], 0.05)
    s = liouville_spectrum(spec, grid)
    assert s.gamma[0] == decay_rate(spec, 0)
    assert s.shift[1] == level_shift(spec, grid, 1)


# -- first-order eigenvector corrections --------------------------------------

def test_corrections_vanish_at_zero_coupling(grid):
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    corr = EigenvectorCorrections(spec)
    assert np.all(corr.mixing_ratio(grid.nodes, 0) == 0.0)
    assert np.all(corr.dressed_diagonal_mixing(0, grid.nodes) == 0.0)


def test_dressed_diagonal_mixing_formula(grid):
    spec = make_constant_model([1.0], 0.1)
    corr = EigenvectorCorrections(spec)
    omega = grid.nodes[137]
    assert corr.dressed_diagonal_mixing(0, omega) == pytest.approx(0.1 / (1.0 - omega))


def test_mixing_is_odd_under_slot_exchange(grid):
    # the same ratio appears with the denominator (u - level) in the continuum
    # families and (level - u) in the dressed diagonal vector
    spec = make_constant_model([1.0, 2.0], [0.1, 0.2])
    corr = EigenvectorCorrections(spec)
    for i in range(2):
        u = grid.nodes[::211]
        assert np.all(corr.dressed_diagonal_mixing(i, u) == -corr.mixing_ratio(u, i))


def test_offdiagonal_mixings_use_their_own_level(grid):
    # the dressed (0, 1) vector carries the mixing of level 0 on its (w, 1)
    # slot and that of level 1 on its (0, w) slot
    spec = make_constant_model([1.0, 2.0], [0.1, 0.2])
    corr = EigenvectorCorrections(spec)
    omega = 4.0
    assert corr.dressed_diagonal_mixing(0, omega) == pytest.approx(0.1 / (1.0 - omega))
    assert corr.dressed_diagonal_mixing(1, omega) == pytest.approx(0.2 / (2.0 - omega))


def test_dual_diagonal_keeps_exact_atom():
    spec = make_constant_model([1.0, 2.0], 0.1)
    corr = EigenvectorCorrections(spec)
    coeff, atoms = corr.dual_diagonal(1)
    assert coeff == 1.0
    assert atoms.locations.tolist() == [2.0]
    assert atoms.weights.tolist() == [-1.0]


def test_biorthogonality_first_order_cancellation(grid):
    # dual of the continuum-discrete family paired against the dressed
    # diagonal vector: the two first-order contributions cancel identically
    spec = make_constant_model([1.0, 2.0], [0.1, 0.2])
    corr = EigenvectorCorrections(spec)
    for i in range(2):
        u = grid.nodes[::97]
        residual = corr.mixing_ratio(u, i) + corr.dressed_diagonal_mixing(i, u)
        assert np.max(np.abs(residual)) == 0.0


def test_biorthogonality_dual_diagonal_against_other_levels():
    # the dual of the dressed (i, i) vector sees another level's dressed
    # vector only through its continuum-diagonal density, which is zero
    spec = make_constant_model([1.0, 2.0], 0.1)
    corr = EigenvectorCorrections(spec)
    coeff, atoms = corr.dual_diagonal(0)
    continuum_diagonal_density_of_dressed_vector = 0.0
    pairing_same = coeff * 1.0 + atoms.weights[0] * continuum_diagonal_density_of_dressed_vector
    pairing_other = coeff * 0.0 + atoms.weights[0] * continuum_diagonal_density_of_dressed_vector
    assert pairing_same == 1.0
    assert pairing_other == 0.0


def test_biorthogonality_residual_is_second_order():
    # pairing of the off-diagonal continuum family's dual with the dressed
    # diagonal vector leaves a product of two first-order mixings
    def residual(amplitude):
        spec = make_constant_model([1.0], amplitude)
        corr = EigenvectorCorrections(spec)
        u, uprime = 4.0, 7.0
        return (corr.mixing_ratio(u, 0) * corr.dressed_diagonal_mixing(0, uprime)
                + corr.mixing_ratio(uprime, 0) * corr.dressed_diagonal_mixing(0, u))

    small, large = residual(0.01), residual(0.1)
    assert large != 0.0
    assert large / small == pytest.approx(100.0, rel=1e-9)
