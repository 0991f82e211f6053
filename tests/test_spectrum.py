import numpy as np
import pytest

from pointersim import build_grid, level_shift, liouville_spectrum
from pointersim.errors import LevelIndexOutOfRange, OutOfSupport
from pointersim.spectrum import decay_rate
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


def test_discrete_continuum_eigenvalue_damps_at_half_rate(grid):
    spec = make_constant_model([1.0], 0.1)
    lam = liouville_spectrum(spec, grid).lambda_discrete_continuum(4.0)[0]
    assert lam.imag == pytest.approx(decay_rate(spec, 0) / 2.0)
    assert lam.real == pytest.approx(1.0 - 4.0 - level_shift(spec, grid, 0))


def test_mixed_eigenvalues_zero_coupling_reduce_to_detuning(grid):
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    s = liouville_spectrum(spec, grid)
    assert s.lambda_discrete_continuum(4.0)[0] == complex(-3.0, 0.0)


def test_discrete_continuum_rows_match_the_per_level_formula():
    # one row per level, with no index to wrap or overrun; each row is
    # (Omega_i - u) - delta_i + i gamma_i / 2 bit for bit
    s = liouville_spectrum(make_constant_model([1.0, 2.0], [0.05, 0.1]), build_grid(10.0, 200))
    for u in (3.0, s.grid.nodes, s.grid.nodes.reshape(8, 25)):
        rows = s.lambda_discrete_continuum(u)
        assert rows.shape == (2,) + np.shape(u)
        for i in range(2):
            expected = (s.levels[i] - np.asarray(u)) - s.shift[i] + 0.5j * s.gamma[i]
            assert rows[i].tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("u, got", [("5.0", "'5.0'"), (True, "True"), ([3.0, np.nan], "nan")],
                         ids=["string", "bool", "nan"])
def test_discrete_continuum_eigenvalues_refuse_energies_that_are_not_finite_numbers(u, got):
    # numpy would parse the string and read the bool as 1.0
    s = liouville_spectrum(make_constant_model([1.0], 0.1), build_grid(10.0, 200))
    with pytest.raises(OutOfSupport) as refused:
        s.lambda_discrete_continuum(u)
    assert str(refused.value) == f"u must be finite real numbers, got {got}"


@pytest.mark.parametrize("i", [-1, 2, True], ids=["minus-one", "count", "bool"])
def test_rate_and_shift_refuse_a_level_index_out_of_range(grid, i):
    # checked before the level energy is read: -1 would wrap to the last
    # level, 2 would fail inside numpy, and numpy reads True as a mask
    spec = make_constant_model([1.0, 2.0], [0.05, 0.1])
    for rate_or_shift in (lambda: decay_rate(spec, i), lambda: level_shift(spec, grid, i)):
        with pytest.raises(LevelIndexOutOfRange, match=rf"integer in \[0, 2\), got {i}$"):
            rate_or_shift()


def test_spectrum_container_matches_free_functions(grid):
    spec = make_constant_model([1.0, 2.0], 0.05)
    s = liouville_spectrum(spec, grid)
    assert s.gamma[0] == decay_rate(spec, 0)
    assert s.shift[1] == level_shift(spec, grid, 1)
