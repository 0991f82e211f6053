import logging
import warnings

import numpy as np
import pytest
from scipy.special import sici

from pointersim import build_grid, principal_value
from pointersim.continuum import resolvent_boundary
from pointersim.errors import (
    DiscontinuousAtSingularity,
    InvalidGrid,
    InvalidState,
    NonFiniteValue,
    SimulationError,
    SingularityOutsideSupport,
    TooFewNodes,
)
from .conftest import NumpyWithoutMemory


def test_midpoint_grid_shape_and_weights():
    grid = build_grid(10.0, 1000)
    assert grid.size == 1000
    assert np.allclose(grid.weights, 0.01)
    assert np.all(np.diff(grid.nodes) > 0)
    assert abs(np.sum(grid.weights) - 10.0) <= 1e-12 * 10.0


def test_gauss_legendre_grid_weights_sum():
    grid = build_grid(10.0, 1000, scheme="gauss-legendre-composite")
    assert np.all(grid.weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)
    assert abs(np.sum(grid.weights) - 10.0) <= 1e-12 * 10.0


@pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre-composite"])
def test_unallocatable_grid_is_invalid_grid(monkeypatch, scheme):
    monkeypatch.setattr("pointersim.continuum.np", NumpyWithoutMemory())
    with pytest.raises(InvalidGrid, match=r"grid\.m = 100000000000 "):
        build_grid(10.0, 100_000_000_000, scheme)


@pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre-composite"])
@pytest.mark.parametrize("m", [2 ** 62, 10 ** 30])
def test_grid_past_numpys_size_limit_is_invalid_grid(scheme, m):
    # numpy refuses these sizes before it allocates anything
    with pytest.raises(InvalidGrid, match=rf"grid\.m = {m} nodes do not fit in memory"):
        build_grid(10.0, m, scheme)


def test_too_few_nodes_rejected():
    with pytest.raises(TooFewNodes):
        build_grid(10.0, 8)


def test_unknown_scheme_rejected():
    with pytest.raises(InvalidGrid):
        build_grid(10.0, 100, scheme="trapezoid")


@pytest.mark.parametrize("args, kwargs", [
    ((0.0, 100), {}),
    ((float("inf"), 100), {}),
    # uniform nodes 0.5, ..., 15.5: the last node is pushed down onto the
    # one shifted up before it
    ((16.0, 16), {"avoid": [14.5, 15.5]}),
    # no string is parsed as a number, no boolean read as 1, no count truncated
    (("10", 64), {}),
    ((True, 64), {}),
    ((10.0, 64.5), {}),
    ((10.0, "64"), {}),
    ((10.0, True), {}),
    ((10.0, 64), {"avoid": ["x"]}),
    ((10.0, 64), {"avoid": [1.0, [2.0]]}),
    # avoid is a number or a flat sequence of them, never a table
    ((10.0, 64), {"avoid": [[1.0, 2.0]]}),
    ((10.0, 64), {"avoid": np.array([[1.0], [2.0]])}),
], ids=["zero-cutoff", "infinite-cutoff", "colliding-shifts", "string-cutoff", "bool-cutoff",
        "fractional-count", "string-count", "bool-count", "string-avoid", "ragged-avoid",
        "row-avoid", "column-avoid"])
def test_malformed_grid_is_an_invalid_grid(args, kwargs):
    with pytest.raises(InvalidGrid):
        build_grid(*args, **kwargs)


def test_invalid_input_errors_are_simulation_and_value_errors():
    # callers catching the package's base error see them, and so do callers
    # that still catch ValueError
    for error in (InvalidGrid, InvalidState):
        assert issubclass(error, SimulationError) and issubclass(error, ValueError)


def test_node_collision_is_shifted_and_logged(caplog):
    # midpoint nodes of a 20-node grid sit at 0.25 + 0.5 k; 0.75 is one of them
    with caplog.at_level(logging.WARNING, logger="pointersim.continuum"):
        grid = build_grid(10.0, 20, avoid=[0.75])
    assert not np.any(np.isclose(grid.nodes, 0.75, rtol=0.0, atol=1e-12))
    assert np.all(np.diff(grid.nodes) > 0)
    assert any("shifted" in record.message for record in caplog.records)


def test_pv_rejects_non_finite_on_grid():
    grid = build_grid(10.0, 100)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteValue):
        principal_value(lambda w: 1.0 / (np.asarray(w, float) - grid.nodes[0]), 5.0, grid)


@pytest.mark.parametrize("value, culprit", [
    ("1.0", "'1.0'"),
    (True, "True"),
    (None, "None"),
    (1 + 0j, r"\(1\+0j\)"),
    ([1.0], r"an array of shape \(1,\)"),
    (np.ones(200), r"an array of shape \(200,\)"),
], ids=["string", "bool", "none", "complex", "one-entry-list", "wrong-length"])
def test_pv_integrand_values_follow_the_number_rule(value, culprit):
    # no string is parsed as a number and no boolean read as 1; the grid
    # nodes and probes are 207 points, so 200 values are one per node only
    grid = build_grid(10.0, 200)
    with pytest.raises(NonFiniteValue, match=f"got {culprit}$"):
        principal_value(lambda w: value, 5.0, grid)


def test_resolvent_boundary_integrand_values_follow_the_number_rule():
    grid = build_grid(10.0, 200)
    with pytest.raises(NonFiniteValue, match="got '1.0'$"):
        resolvent_boundary(lambda w: "1.0", 5.0, grid)


def test_pv_evaluates_the_integrand_once():
    grid = build_grid(10.0, 200)
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return np.cos(w)

    principal_value(counted, 1.0, grid)
    assert calls == [(grid.size + 7,)]


def test_resolvent_boundary_evaluates_the_integrand_once():
    grid = build_grid(10.0, 200)
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return np.cos(w)

    value = resolvent_boundary(counted, 1.0, grid)
    assert calls == [(grid.size + 7,)]
    assert value == complex(principal_value(np.cos, 1.0, grid), np.pi * np.cos(1.0))


@pytest.mark.parametrize("singularity", [np.nextafter(10.0, 0.0), 5e-324], ids=["top", "bottom"])
def test_pv_refuses_a_singularity_its_probes_round_onto(singularity):
    # within an ulp or two of an end, singularity +- d0/16 rounds back onto
    # the singularity, and the continuity residuals would be 0/0
    grid = build_grid(10.0, 200)
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for boundary in (principal_value, resolvent_boundary):
            with pytest.raises(SingularityOutsideSupport, match="probes round onto it$"):
                boundary(lambda w: calls.append(w) or np.cos(w), singularity, grid)
    assert calls == []


def test_pv_constant_at_midpoint_vanishes():
    grid = build_grid(10.0, 1000)
    value = principal_value(lambda w: np.ones_like(np.asarray(w, float)), 5.0, grid)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_pv_constant_asymmetric_singularity():
    grid = build_grid(10.0, 1000)
    value = principal_value(lambda w: np.ones_like(np.asarray(w, float)), 1.0, grid)
    assert value == pytest.approx(np.log(9.0), abs=1e-8)


def test_pv_linear_integrand():
    grid = build_grid(10.0, 1000)
    value = principal_value(lambda w: np.asarray(w, float), 1.0, grid)
    assert value == pytest.approx(10.0 + np.log(9.0), abs=1e-6)


def test_pv_sine_matches_special_function_identity():
    # PV int_0^10 sin(w)/(w-1) dw via the sine/cosine integral functions
    si9, ci9 = sici(9.0)
    si1, ci1 = sici(1.0)
    closed = np.cos(1.0) * (si9 + si1) + np.sin(1.0) * (ci9 - ci1)
    grid = build_grid(10.0, 2000)
    assert principal_value(np.sin, 1.0, grid) == pytest.approx(closed, abs=1e-6)


def test_pv_singularity_outside_support_rejected():
    grid = build_grid(10.0, 100)
    for bad in (0.0, -1.0, 10.0, 11.0, np.nan, "5.0", True, [5.0]):
        with pytest.raises(SingularityOutsideSupport):
            principal_value(lambda w: np.ones_like(np.asarray(w, float)), bad, grid)


def test_pv_continuity_probe_stays_inside_the_support():
    # a singularity closer to an end than half a node spacing: every probe
    # of the continuity check must still land inside [0, omega_max]
    grid = build_grid(10.0, 200)

    def inside_only(w):
        w = np.asarray(w, float)
        if np.any((w < 0.0) | (w > 10.0)):
            raise AssertionError(f"integrand evaluated outside the support at {w}")
        return np.cos(w)

    for singularity in (9.99, 0.01):
        principal_value(inside_only, singularity, grid)


def test_pv_discontinuous_integrand_rejected():
    grid = build_grid(10.0, 1000)
    step = lambda w: np.where(np.asarray(w) < 1.0, 0.5, 1.5)
    with pytest.raises(DiscontinuousAtSingularity):
        principal_value(step, 1.0, grid)


def test_pv_accepts_steep_but_continuous_integrand():
    grid = build_grid(10.0, 1000)
    steep = lambda w: np.tanh(200.0 * (np.asarray(w, float) - 1.0)) + 2.0
    principal_value(steep, 1.0, grid)  # must not raise


def test_pv_linearity_is_exact():
    grid = build_grid(10.0, 500)
    f = np.sin
    g = np.cos
    a, b = 2.0, -0.5
    combined = principal_value(lambda w: a * f(w) + b * g(w), 1.0, grid)
    separate = a * principal_value(f, 1.0, grid) + b * principal_value(g, 1.0, grid)
    assert combined == pytest.approx(separate, abs=1e-13)


def test_pv_even_integrand_on_symmetric_grid_reduces_to_log_term():
    # grid symmetric about 5.0, integrand even about 5.0: the subtracted part
    # cancels pairwise, leaving f(5) * ln(1) = 0
    grid = build_grid(10.0, 1000)
    even = lambda w: (np.asarray(w, float) - 5.0) ** 2 + 2.0
    assert principal_value(even, 5.0, grid) == pytest.approx(0.0, abs=1e-12)


def test_pv_midpoint_refinement_converges_second_order():
    si9, ci9 = sici(9.0)
    si1, ci1 = sici(1.0)
    closed = np.cos(1.0) * (si9 + si1) + np.sin(1.0) * (ci9 - ci1)
    errors = []
    for m in (250, 500, 1000):
        grid = build_grid(10.0, m)
        errors.append(abs(principal_value(np.sin, 1.0, grid) - closed))
    assert errors[0] / errors[1] >= 2.0
    assert errors[1] / errors[2] >= 2.0


def test_resolvent_boundary_symmetric_point():
    grid = build_grid(10.0, 1000)
    value = resolvent_boundary(lambda w: np.ones_like(np.asarray(w, float)), 5.0, grid)
    assert value.real == pytest.approx(0.0, abs=1e-10)
    assert value.imag == pytest.approx(np.pi)


def test_resolvent_boundary_zero_function():
    grid = build_grid(10.0, 1000)
    value = resolvent_boundary(lambda w: np.zeros_like(np.asarray(w, float)), 5.0, grid)
    assert value == 0.0


def test_resolvent_boundary_asymmetric_point():
    grid = build_grid(10.0, 1000)
    value = resolvent_boundary(lambda w: np.ones_like(np.asarray(w, float)), 1.0, grid)
    assert value.real == pytest.approx(np.log(9.0), abs=1e-8)
    assert value.imag == pytest.approx(np.pi)

