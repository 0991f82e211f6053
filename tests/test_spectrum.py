import numpy as np
import pytest

from pointersim import CouplingProfile, ModelSpec, build_grid, liouville_spectrum, principal_value
from pointersim.errors import OutOfSupport
from pointersim.model import coupling_at
from .conftest import make_constant_model


@pytest.fixture(scope="module")
def grid():
    return build_grid(10.0, 1000)


def test_decay_rate_constant_coupling(grid):
    spec = make_constant_model([1.0], 0.1)
    assert liouville_spectrum(spec, grid).gamma[0] == pytest.approx(2 * np.pi * 0.01)


def test_decay_rate_vanishes_for_decoupled_level(grid):
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    assert liouville_spectrum(spec, grid).gamma[0] == 0.0


def test_level_shift_symmetric_level_vanishes(grid):
    spec = make_constant_model([5.0], 0.1)
    assert liouville_spectrum(spec, grid).shift[0] == pytest.approx(0.0, abs=1e-12)


def test_level_shift_constant_coupling_closed_form(grid):
    spec = make_constant_model([1.0], 0.1)
    assert liouville_spectrum(spec, grid).shift[0] == pytest.approx(0.01 * np.log(9.0), abs=1e-10)


def test_diagonal_eigenvalue_is_pure_damping(grid):
    spec = make_constant_model([1.0], 0.1)
    s = liouville_spectrum(spec, grid)
    lam = s.lambda_d[0, 0]
    assert lam.real == 0.0
    assert lam.imag == pytest.approx(s.gamma[0])


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
    s = liouville_spectrum(spec, grid)
    lam = s.lambda_discrete_continuum(4.0)[0]
    assert lam.imag == pytest.approx(s.gamma[0] / 2.0)
    assert lam.real == pytest.approx(1.0 - 4.0 - s.shift[0])


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


_LEVELS = np.array([1.0, 2.5, 4.0, 7.3])
_PROFILES = {
    "constant": CouplingProfile.constant,
    "gaussian": lambda a: CouplingProfile.gaussian_window(a, 2.0, center=4.0),
    "lorentzian": lambda a: CouplingProfile.lorentzian_window(a, 1.5, center=3.0),
    "tabulated": lambda a: CouplingProfile.tabulated(
        np.linspace(0.0, 10.0, 41), a * (1.0 + 0.3 * np.sin(np.linspace(0.0, 10.0, 41)))),
}


@pytest.mark.parametrize("amplitude", [0.01, 0.02, 0.1])
@pytest.mark.parametrize("kind", sorted(_PROFILES))
def test_rates_and_shifts_are_the_per_level_formulas_bit_for_bit(kind, amplitude):
    # gamma_i = 2.0 * pi * v * v in this product order: squaring v first,
    # 2 * (pi * v^2), moves gamma by an ulp in every case here but constant
    # 0.1; delta_i is one PV per level
    spec = ModelSpec(levels=_LEVELS, omega_max=10.0, coupling=_PROFILES[kind](amplitude))
    grid = build_grid(10.0, 400, avoid=_LEVELS)
    s = liouville_spectrum(spec, grid)
    for i, level in enumerate(_LEVELS):
        v = coupling_at(spec, level, i)
        assert s.gamma[i] == 2.0 * np.pi * v * v
        assert s.shift[i] == principal_value(lambda w: coupling_at(spec, w, i) ** 2, level, grid)


def test_a_level_on_a_grid_node_has_a_finite_shift():
    # a grid built without avoid may put a node on the level: the PV quotient
    # there is 0/0, and its limit must stand in for it
    grid = build_grid(10.0, 2000)
    spec = make_constant_model([grid.nodes[400]], 0.05)
    s = liouville_spectrum(spec, grid)
    assert s.shift[0] == pytest.approx(0.05 ** 2 * np.log((10.0 - grid.nodes[400]) / grid.nodes[400]),
                                       abs=1e-12)
