import ast
import inspect
import json
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pointersim.oracle
from pointersim import (
    CouplingProfile,
    ModelSpec,
    build_grid,
    coherence,
    discretize,
    evolve_pure,
    fit_exponential_rate,
    fitted_decay_rate,
    level_shift,
    load_model,
    pointer_weights,
    resonance_center,
    survival_probability,
)
from pointersim.cli import main
from pointersim.errors import (EigensolverFailure, FitFailure, InvalidState,
                               LevelIndexOutOfRange, NegativeTime, RecurrenceWindowExceeded)
from pointersim.model import coupling_at
from .conftest import make_constant_model, modules_loaded_by


@pytest.fixture(scope="module")
def decoupled():
    spec = make_constant_model([1.0, 2.0], 0.1, scale=0.0)
    grid = build_grid(10.0, 64)
    return discretize(spec, grid)


def test_zero_coupling_spectrum_is_union_of_levels_and_nodes(decoupled):
    expected = np.sort(np.concatenate([decoupled.spec.levels, decoupled.grid.nodes]))
    assert np.array_equal(decoupled.eigenvalues, expected)


def test_eigenvector_orthonormality(oracle_unit):
    assert oracle_unit.orthonormality_defect() < 1e-10


def _hamiltonian(spec, grid):
    # discretize never assembles the Hamiltonian, so it is rebuilt here from
    # its definition: levels, then nodes, coupled through V * sqrt(w)
    h = np.diag(np.concatenate([spec.levels, grid.nodes]))
    for i in range(spec.n_levels):
        row = coupling_at(spec, grid.nodes, i) * np.sqrt(grid.weights)
        h[i, spec.n_levels:] = row
        h[spec.n_levels:, i] = row
    return h


@pytest.mark.parametrize("levels, amplitudes, widths",
                         [([1.0], [0.3], [1.0]), ([1.0, 2.5], [0.3, 0.2], [1.0, 2.0])],
                         ids=["one-level", "two-level"])
def test_discretize_decomposes_the_discretized_hamiltonian(levels, amplitudes, widths):
    spec = ModelSpec(levels=levels, omega_max=10.0,
                     coupling=CouplingProfile.gaussian_window(amplitudes, widths))
    grid = build_grid(10.0, 40)
    model = discretize(spec, grid)
    q = model.apply(np.eye(model.size))
    assert np.max(np.abs(q @ np.diag(model.eigenvalues) @ q.T - _hamiltonian(spec, grid))) < 1e-12


def _constant(levels, amplitude):
    return ModelSpec(levels=levels, omega_max=10.0, coupling=CouplingProfile.constant(amplitude))


_CROSS_CHECK_CASES = {
    "constant-uniform": (_constant([1.0], 0.05), 800, "uniform-midpoint"),
    "gauss-legendre": (_constant([1.0], 0.05), 1600, "gauss-legendre-composite"),
    "level-near-zero": (_constant([0.003], 0.05), 800, "uniform-midpoint"),
    "strong-coupling": (_constant([1.0], 0.5), 800, "uniform-midpoint"),
    # the squared tail couplings underflow to zero: those nodes have no pole
    "gaussian-tails": (ModelSpec(levels=[1.0], omega_max=10.0,
                                 coupling=CouplingProfile.gaussian_window(0.1, 0.3)),
                       800, "uniform-midpoint"),
    # the root in the gap around the level sits exactly on the gap's midpoint
    "gaussian-symmetric": (ModelSpec(levels=[1.0], omega_max=10.0,
                                     coupling=CouplingProfile.gaussian_window(0.1, 0.1)),
                           800, "uniform-midpoint"),
    "zero-scale": (ModelSpec(levels=[1.0], omega_max=10.0,
                             coupling=CouplingProfile.constant(0.1), coupling_scale=0.0),
                   800, "uniform-midpoint"),
    "tabulated-zeros": (ModelSpec(levels=[3.0], omega_max=10.0,
                                  coupling=CouplingProfile.tabulated(
                                      [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                                      [0.0, 0.1, 0.0, -0.1, 0.0, 0.0])),
                        800, "uniform-midpoint"),
    "two-level-constant": (_constant([1.0, 2.0], 0.05), 800, "uniform-midpoint"),
    "two-level-gauss-legendre": (_constant([1.0, 2.0], 0.05), 1600, "gauss-legendre-composite"),
    "two-level-strong-coupling": (_constant([1.0, 2.0], 0.5), 800, "uniform-midpoint"),
    "close-levels": (_constant([1.0, 1.01], 0.05), 800, "uniform-midpoint"),
    "near-degenerate-levels": (_constant([1.0, 1.0 + 1e-9], 0.05), 800, "uniform-midpoint"),
    "two-level-gaussian-symmetric": (ModelSpec(levels=[1.0, 2.0], omega_max=10.0,
                                               coupling=CouplingProfile.gaussian_window(0.1, 0.1)),
                                     800, "uniform-midpoint"),
    "three-level-constant": (_constant([1.0, 2.0, 3.0], 0.05), 800, "uniform-midpoint"),
    # each level has its own zeros: nodes deflated for one level couple to the other
    "two-level-tabulated-zeros": (ModelSpec(levels=[3.0, 5.0], omega_max=10.0,
                                            coupling=CouplingProfile.tabulated(
                                                [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                                                [[0.0, 0.0], [0.1, 0.0], [0.0, 0.08],
                                                 [-0.1, 0.0], [0.0, 0.05], [0.0, 0.0]])),
                                  800, "uniform-midpoint"),
    # the chain of Cauchy passes is six steps deep
    "six-level-constant": (_constant([1.0, 2.0, 3.0, 4.5, 6.0, 7.5], 0.05), 400,
                           "uniform-midpoint"),
    # fewer poles than the start model's near field, each coupling many gaps
    # wide: the model's far field is empty and its window overhangs both ends
    "near-field-wider-than-grid": (ModelSpec(levels=[0.5, 0.75], omega_max=1.0,
                                             coupling=CouplingProfile.constant(-1.0),
                                             coupling_scale=3.0),
                                   16, "uniform-midpoint"),
    "near-field-wider-than-gauss-legendre-grid": (ModelSpec(levels=[0.2, 0.4, 0.9], omega_max=1.0,
                                                            coupling=CouplingProfile.constant(1.5),
                                                            coupling_scale=2.0),
                                                  24, "gauss-legendre-composite"),
}


class _PoisonedNumpy:
    """numpy whose ``empty`` fills with NaN (or the smallest integer), so that
    reading an entry nobody wrote fails every time, not only when the heap
    happens to hold garbage."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        dtype = np.dtype(dtype)
        return np.full(shape, np.nan if dtype.kind == "f" else np.iinfo(dtype).min, dtype)


@pytest.mark.parametrize("case", list(_CROSS_CHECK_CASES))
def test_discretize_matches_dense_eigh(monkeypatch, case):
    spec, m, scheme = _CROSS_CHECK_CASES[case]
    grid = build_grid(spec.omega_max, m, scheme, avoid=spec.levels)
    monkeypatch.setattr(pointersim.oracle, "np", _PoisonedNumpy())
    model = discretize(spec, grid)
    energies, vectors = np.linalg.eigh(_hamiltonian(spec, grid))
    assert np.max(np.abs(model.eigenvalues - energies)) < 1e-12
    # products of level rows are free of each eigenvector's sign, and those
    # of two rows carry the relative phase that coherences read
    q, n = model.eigenvectors, spec.n_levels
    for i in range(n):
        for j in range(i, n):
            assert np.max(np.abs(q[i] * q[j] - vectors[i] * vectors[j])) < 1e-12
    assert model.orthonormality_defect() <= 1e-10


def _materialized_defects(model):
    """max |Q^T Q - I| and max |Q diag(E) Q^T - H| for Q built column by column
    through the Cauchy passes."""
    q = model.apply(np.eye(model.size))
    gram = np.max(np.abs(q.T @ q - np.eye(model.size)))
    h = _hamiltonian(model.spec, model.grid)
    decomposition = np.max(np.abs(q @ np.diag(model.eigenvalues) @ q.T - h))
    return gram, decomposition


def _cross_check_model(case):
    spec, m, scheme = _CROSS_CHECK_CASES[case]
    return discretize(spec, build_grid(spec.omega_max, m, scheme, avoid=spec.levels))


@pytest.mark.parametrize("case", list(_CROSS_CHECK_CASES))
def test_materialized_eigenvectors_are_orthonormal_and_decompose_h(case):
    model = _cross_check_model(case)
    assert model.eigenvectors.shape == (model.n_levels, model.size)
    gram, decomposition = _materialized_defects(model)
    assert gram <= 1e-10
    assert decomposition <= 1e-12
    # the gate bounds the materialized Gram defect, up to the rounding of Q^T Q
    assert gram <= model.orthonormality_defect() + 8 * np.finfo(float).eps


def test_a_huge_coupling_passes_the_gate_without_a_warning():
    # the two-pole start squares a coefficient near 1e200; it is only a
    # start, so an overflow there must neither warn nor reach the roots
    spec = ModelSpec(levels=[5.0], omega_max=10.0, coupling=CouplingProfile.constant(1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = discretize(spec, build_grid(10.0, 64))
    assert model.orthonormality_defect() <= pointersim.oracle._ORTHO_TOL


def _swapped(step, n, names):
    """Copies of the step's per-root entries ``names``, with roots n and n + 1 swapped."""
    changed = {name: getattr(step, name).copy() for name in names}
    for values in changed.values():
        values[[n, n + 1]] = values[[n + 1, n]]
    return changed


def _mutated_last_step(model, mutation):
    """The model with one entry of its last fold step's data broken."""
    step = model.steps[-1]
    # the root where the folded level weighs most, and its own gap between poles
    n = int(np.argmax(step.norms))
    assert 0 < n < len(step.poles)
    if mutation == "nan-norm":
        changed = {"norms": step.norms.copy()}
        changed["norms"][n] = np.nan
    elif mutation == "moved-root":
        changed = {"offset": step.offset.copy()}
        changed["offset"][n] += 1e-6 * (step.poles[n] - step.poles[n - 1])
    elif mutation == "swapped-roots":
        changed = _swapped(step, n, ("anchor", "offset"))
    else:
        # the roots depend on g^2 only: they stay those of the unflipped coupling
        changed = {"coupling": step.coupling.copy()}
        changed["coupling"][n] = -changed["coupling"][n]
    return replace(model, steps=model.steps[:-1] + (replace(step, **changed),))


@pytest.mark.parametrize("mutation", ["nan-norm", "moved-root", "swapped-roots",
                                      "flipped-coupling"])
@pytest.mark.parametrize("case", ["constant-uniform", "two-level-constant"])
def test_broken_fold_data_fails_the_gate_and_the_materialized_check(case, mutation):
    model = _cross_check_model(case)
    mutant = _mutated_last_step(model, mutation)
    # written so that NaN fails each check.  A flipped coupling leaves S
    # orthogonal: the Gram bound and the round trip Q (Q^T x) = x hold, and
    # only the eigen-equation residual H (Q y) = Q (E y) catches it
    assert not mutant.orthonormality_defect() <= 1e-10
    gram, decomposition = _materialized_defects(mutant)
    assert not (gram <= 1e-10 and decomposition <= 1e-12)


def _counted_passes(monkeypatch):
    """A list that gets, for each fold step's secular solve from now on, the
    list of its exact passes' row counts."""
    pole_sum, secular_roots = pointersim.oracle._pole_sum, pointersim.oracle._secular_roots
    rows = []

    def counted_roots(*args):
        rows.append([])
        return secular_roots(*args)

    def counted_sum(poles, g2, origin, offset, *args, **kwargs):
        rows[-1].append(len(offset))
        return pole_sum(poles, g2, origin, offset, *args, **kwargs)

    monkeypatch.setattr(pointersim.oracle, "_secular_roots", counted_roots)
    monkeypatch.setattr(pointersim.oracle, "_pole_sum", counted_sum)
    return rows


@pytest.mark.parametrize("case", ["constant-uniform", "two-level-constant"])
def test_secular_solve_makes_two_full_passes_per_fold_step(monkeypatch, case):
    # the midpoint pass and one Newton pass over every root; the near-field
    # check of each Newton step leaves later passes a few stragglers
    rows = _counted_passes(monkeypatch)
    model = _cross_check_model(case)
    assert len(rows) == model.n_levels
    for step, counts in zip(model.steps, rows):
        roots = len(step.anchor)
        assert counts[:2] == [roots - 2, roots]
        assert sum(count >= roots / 2 for count in counts) <= 2, counts


def test_a_root_on_its_gaps_midpoint_is_accepted_without_bisection(monkeypatch):
    # level 0 sits at the middle of a symmetric grid, so f is exactly 0 at
    # its gap's midpoint: the root's bracket closes there and the first
    # Newton pass accepts it; bisecting toward an open bracket end at the
    # midpoint would take some 44 passes more
    rows = _counted_passes(monkeypatch)
    step = _cross_check_model("near-field-wider-than-grid").steps[0]
    assert len(rows[0]) <= 10, rows[0]
    assert np.any((step.anchor + step.offset == step.level)
                  & (step.offset == 0.5 * np.diff(step.poles)[0]))


def _unchecked(carried_sums):
    """``_carried_sums`` with both error bounds infinite: no root passes the
    near-field check, and every Newton step gets an exact pass."""

    def unchecked(*args):
        sums, slopes, magnitude, _, _ = carried_sums(*args)
        return sums, slopes, magnitude, np.full_like(sums, np.inf), np.full_like(sums, np.inf)

    return unchecked


def _two_pole_start(level, poles, g2, half, at_mid, origin, offset, lo, hi):
    # the first guess as it is, without the near-field model's steps
    return offset


def _midpoint_start(level, poles, g2, half, at_mid, origin, offset, lo, hi):
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("start", [_two_pole_start, _midpoint_start], ids=["two-pole", "midpoint"])
@pytest.mark.parametrize("case", ["constant-uniform", "gaussian-symmetric", "strong-coupling"])
def test_a_poor_start_falls_back_to_the_exact_passes(monkeypatch, case, start):
    # far from the roots the first Newton steps are long, the far field's
    # remainder bound refuses them, and the exact passes take over
    pole_sum = pointersim.oracle._pole_sum
    counts = []

    def counted_sum(poles, g2, origin, offset, *args, **kwargs):
        counts.append(len(offset))
        return pole_sum(poles, g2, origin, offset, *args, **kwargs)

    monkeypatch.setattr(pointersim.oracle, "_near_field_start", start)
    monkeypatch.setattr(pointersim.oracle, "_pole_sum", counted_sum)
    model = _cross_check_model(case)
    roots = len(model.steps[0].anchor)
    assert counts[1] == roots and counts[2] >= roots / 2, counts
    monkeypatch.setattr(pointersim.oracle, "_carried_sums",
                        _unchecked(pointersim.oracle._carried_sums))
    exact = _cross_check_model(case)
    assert np.all(np.abs(model.eigenvalues - exact.eigenvalues)
                  <= 2 * np.spacing(np.abs(exact.eigenvalues)))
    assert np.max(np.abs(model.eigenvectors - exact.eigenvectors)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre-composite"])
@pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 0.5])
def test_carried_far_field_stays_within_its_remainder_bound(scheme, scale):
    # roots a quarter gap off a pole, moved by up to ``scale`` gaps: the
    # carried sums against the exact ones at the new offsets
    grid = build_grid(10.0, 400, scheme)
    poles = grid.nodes
    k = len(poles)
    g2 = (0.05 * (1.0 + np.sin(poles)) ** 2 + 1e-4) * grid.weights
    gaps = np.diff(poles)
    roots = np.arange(k + 1)
    origin = np.clip(roots - 1, 0, k - 1)
    gap = np.concatenate([gaps[:1], gaps, gaps[-1:]])
    start = np.where(roots == 0, -0.25, 0.25) * gap
    offset = start + scale * gap * np.cos(3.0 * roots)
    at_start = pointersim.oracle._pole_sum(poles, g2, origin, start, cubes=True)
    sums, slopes, magnitude, sum_error, slope_error = pointersim.oracle._carried_sums(
        poles, g2, origin, start, offset, at_start)
    exact_sums, exact_slopes, exact_magnitude = pointersim.oracle._pole_sum(poles, g2, origin, offset)
    # the rounding of the exact sums and of the far field's difference
    rounding = 64 * np.finfo(float).eps
    assert np.all(np.abs(sums - exact_sums) <= sum_error + rounding * exact_magnitude)
    assert np.all(np.abs(slopes - exact_slopes) <= slope_error + rounding * exact_slopes)
    assert np.all(magnitude <= exact_magnitude * (1 + rounding))
    # the bounds are finite, and at the larger moves more than rounding
    assert np.all(np.isfinite(sum_error)) and np.all(np.isfinite(slope_error))
    if scale >= 0.1:
        assert np.max(sum_error / exact_magnitude) > 1e3 * rounding


def test_near_check_refuses_a_step_whose_remainder_exceeds_the_rounding():
    # converged roots, checked from starts a move r = 1e-5 of the distance to
    # the nearest far pole away: the carried sums still pass the stopping
    # rule, but the squares' remainder is above the norm's rounding, and so
    # is their actual error, so no root may pass; from the roots themselves,
    # every root passes with its own norm
    spec, m, scheme = _CROSS_CHECK_CASES["strong-coupling"]
    grid = build_grid(spec.omega_max, m, scheme, avoid=spec.levels)
    poles = grid.nodes
    g2 = pointersim.oracle._couplings(spec, grid)[0] ** 2
    anchor, offset, norms = pointersim.oracle._secular_roots(spec.levels[0], poles, g2)
    origin = np.searchsorted(poles, anchor)
    base = anchor - spec.levels[0]
    low, high = np.minimum(0.0, 2 * offset), np.maximum(0.0, 2 * offset)
    distance = (pointersim.oracle._NEAR_POLES + 0.5) * np.median(np.diff(poles))
    eps = np.finfo(float).eps
    for move, passing in ((0.0, True), (1e-5 * distance, False)):
        start = offset - move
        at_start = pointersim.oracle._pole_sum(poles, g2, origin, start, cubes=True)
        checked, own = pointersim.oracle._near_check(
            poles, g2, base, origin, start, offset, low, high, at_start)
        if passing:
            assert np.all(checked)
            assert np.all(np.abs(1.0 / np.sqrt(own) - norms) <= 4 * eps * norms)
            continue
        sums, slopes, magnitude, _, _ = pointersim.oracle._carried_sums(
            poles, g2, origin, start, offset, at_start)
        rule, *_ = pointersim.oracle._newton_step(base, offset, g2[origin], low, high,
                                                  sums, slopes, magnitude)
        exact_slopes = pointersim.oracle._pole_sum(poles, g2, origin, offset)[1]
        own = 1.0 + exact_slopes + g2[origin] / offset ** 2
        assert np.all(rule) and np.max(np.abs(slopes - exact_slopes) / own) > 4 * eps
        assert not np.any(checked)


@pytest.mark.parametrize("case", ["constant-uniform", "two-level-constant"])
def test_roots_out_of_order_make_the_gram_bound_nan(case):
    # the bound on the sums over pairs of roots reads the roots as ascending,
    # so it fails closed on roots that are not, although every column is
    # still a unit eigenvector
    step = _cross_check_model(case).steps[-1]
    swapped = replace(step, **_swapped(step, int(np.argmax(step.norms)), ("anchor", "offset", "norms")))
    probe = np.ones((1 + len(step.active), 1))
    for mutant, finite in ((step, True), (swapped, False)):
        bounds = []
        mutant.forward(probe, bounds)
        assert len(bounds) == 1
        assert (bounds[0] <= 1e-10) == finite and np.isnan(bounds[0]) != finite


def _exact_gap_sums(anchor, offset, weights):
    """sum_{m != n} weights_m / |x_n - x_m| over every pair of roots."""
    distance = np.subtract.outer(anchor, anchor) + np.subtract.outer(offset, offset)
    np.fill_diagonal(distance, np.inf)
    return (1.0 / np.abs(distance)) @ weights


@pytest.mark.parametrize("case", list(_CROSS_CHECK_CASES))
def test_gap_sums_bound_the_exact_pairwise_sums(monkeypatch, case):
    model = _cross_check_model(case)
    gap_sums = pointersim.oracle._gap_sums
    seen = []

    def recording(anchor, offset, weights):
        sums = gap_sums(anchor, offset, weights)
        seen.append((sums, _exact_gap_sums(anchor, offset, weights)))
        return sums

    monkeypatch.setattr(pointersim.oracle, "_gap_sums", recording)
    defect = model.orthonormality_defect()
    assert len(seen) == model.n_levels
    # up to the rounding of the two sums
    for sums, exact in seen:
        assert np.all(sums >= exact * (1 - 1e-13))
    # the gate with the exact sums: the bound can only have grown
    monkeypatch.setattr(pointersim.oracle, "_gap_sums", _exact_gap_sums)
    assert defect >= model.orthonormality_defect() * (1 - 1e-13)


def test_gap_sums_bound_the_exact_ones_on_roots_spread_over_many_scales():
    # Cauchy-spread roots and weights over 100 orders of magnitude: outlying
    # roots and heavy windows take both of each window's bounds
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = np.unique(rng.standard_cauchy(rng.integers(1, 70)) * 10.0 ** rng.integers(-3, 3))
        anchor = np.round(x, 1)
        weights = rng.random((len(x), 2)) ** 4 * 10.0 ** rng.integers(-50, 50, (len(x), 1))
        sums = pointersim.oracle._gap_sums(anchor, x - anchor, weights)
        assert np.all(sums >= _exact_gap_sums(anchor, x - anchor, weights) * (1 - 1e-13))


@pytest.mark.parametrize("case", ["constant-uniform", "two-level-constant"])
def test_gate_walks_the_last_step_once_and_earlier_steps_twice(monkeypatch, case):
    # the probe's transposes through steps 0 .. N-2, then one sweep of the
    # last step that forms u = S^T z and adds S [u, E u] from the same blocks,
    # gathering the Gram bound's pole sums too, then the forward passes
    # through steps N-2 .. 0; no block is as wide as the roots
    model = _cross_check_model(case)
    inverse_distances, chunks = pointersim.oracle._inverse_distances, pointersim.oracle._chunks
    rows, blocks = {}, []

    # rows through the one inverse-distance builder, keyed by the poles they
    # are measured from: each fold step owns its poles array
    def counted_rows(at, anchor, *args):
        rows[id(at)] = rows.get(id(at), 0) + len(anchor)
        return inverse_distances(at, anchor, *args)

    def counted_chunks(span, width, *args, **kwargs):
        blocks.append((len(span), width))
        return chunks(span, width, *args, **kwargs)

    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: 1)
    monkeypatch.setattr(pointersim.oracle, "_inverse_distances", counted_rows)
    monkeypatch.setattr(pointersim.oracle, "_chunks", counted_chunks)
    assert model.orthonormality_defect() <= 1e-10
    last = model.steps[-1]
    assert rows == {id(step.poles): (1 if step is last else 2) * len(step.anchor)
                    for step in model.steps}
    # with one CPU each pass is one walk over every root
    walks = [(len(step.anchor), len(step.poles)) for step in model.steps]
    assert sorted(blocks) == sorted(walks[:-1] * 2 + walks[-1:])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", list(_CROSS_CHECK_CASES))
def test_the_gates_fused_last_step_matches_its_transpose_then_its_forward(monkeypatch, case, cpus):
    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: cpus)
    model = _cross_check_model(case)
    step, energies = model.steps[-1], model.eigenvalues
    probe = np.cos(np.arange(model.size))
    z = model._backward(probe[:, None], model.n_levels - 1)
    u = step.transpose(z)[:, 0]
    assert np.array_equal(u, model.apply_transpose(probe))
    fused_bounds, bounds = [], []
    fused = step.forward(z, fused_bounds, energies)
    two_pass = step.forward(np.column_stack([u, energies * u]), bounds)
    assert np.max(np.abs(fused - two_pass)) <= 1e-13
    # the pole sums come from the same blocks
    assert fused_bounds == bounds


def test_pass_parts_multiply_through_np_dot():
    # with numpy 2.4, `@` and np.matmul hold the GIL for one matrix product,
    # and np.dot makes the same BLAS call without it.  On two CPUs, two
    # threads on 18 x 3500 blocks of a pass ran at 0.78-0.92 times the
    # serial speed with matmul and at 1.27-1.63 times with np.dot
    tree = ast.parse(inspect.getsource(pointersim.oracle))
    functions = {}
    for node in tree.body:
        for inner in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(inner, ast.FunctionDef):
                functions[inner.name if inner is node else f"{node.name}.{inner.name}"] = inner
    products = []
    for name in ("_pole_sum", "_FoldStep.forward", "_FoldStep.transpose"):
        for node in ast.walk(functions[name]):
            if ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
                    or (isinstance(node, ast.Attribute) and node.attr == "matmul")):
                products.append(f"{name}, line {node.lineno}")
    assert products == []


def test_discretize_keeps_level_rows_only(unit_model):
    grid = build_grid(10.0, 3000)
    tracemalloc.start()
    try:
        model = discretize(unit_model, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.eigenvectors.shape == (1, 3001)
    # the (N + M)^2 eigenvector matrix alone would take 72 MB
    assert peak < 16 * 2 ** 20


def test_discretize_loads_no_scipy():
    # the two-level solve runs every fold step; none of them may reach scipy
    code = ("from pointersim import CouplingProfile, ModelSpec, build_grid, discretize\n"
            "spec = ModelSpec(levels=[1.0, 2.0], omega_max=10.0,\n"
            "                 coupling=CouplingProfile.constant(0.05))\n"
            "assert discretize(spec, build_grid(10.0, 64)).size == 66")
    assert modules_loaded_by(code, "scipy") == "[]"


def test_import_and_small_grids_start_no_thread_pool():
    assert modules_loaded_by("import pointersim", "concurrent.futures") == "[]"
    # with two CPUs claimed, an M=64 pass is still one chunk, run inline
    code = ("import threading\n"
            "import pointersim.oracle\n"
            "from pointersim import CouplingProfile, ModelSpec, build_grid, discretize\n"
            "pointersim.oracle._cpu_count = lambda: 2\n"
            "spec = ModelSpec(levels=[1.0, 2.0], omega_max=10.0,\n"
            "                 coupling=CouplingProfile.constant(0.05))\n"
            "discretize(spec, build_grid(10.0, 64))\n"
            "assert threading.active_count() == 1")
    assert modules_loaded_by(code, "concurrent.futures") == "[]"


def test_a_forked_child_runs_its_own_passes():
    # the parent's pool threads do not exist in a forked child; the alarm
    # ends a child that waits for them anyway
    code = ("import os, signal\n"
            "import pointersim.oracle\n"
            "from pointersim import CouplingProfile, ModelSpec, build_grid, discretize\n"
            "pointersim.oracle._cpu_count = lambda: 2\n"
            "spec = ModelSpec(levels=[1.0], omega_max=10.0,\n"
            "                 coupling=CouplingProfile.constant(0.05))\n"
            "grid = build_grid(10.0, 800)\n"
            "parent = discretize(spec, grid).eigenvalues\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    os._exit(0 if (discretize(spec, grid).eigenvalues == parent).all() else 1)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "assert os.waitstatus_to_exitcode(status) == 0, status")
    assert modules_loaded_by(code, "concurrent.futures") != "[]"


_MODEL_FILES = {
    "two-level-tabulated-zeros": {
        "levels": [3.0, 5.0], "omega_max": 10.0,
        "coupling": {"kind": "tabulated", "omega": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                     "values": [[0.0, 0.0], [0.1, 0.0], [0.0, 0.08], [-0.1, 0.0], [0.0, 0.05],
                                [0.0, 0.0]]}},
    "six-level-constant": {
        "levels": [1.0, 2.0, 3.0, 4.5, 6.0, 7.5], "omega_max": 10.0,
        "coupling": {"kind": "constant", "amplitude": 0.05}},
}


@pytest.mark.parametrize("case", list(_MODEL_FILES))
def test_results_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, case):
    (tmp_path / "model.json").write_text(json.dumps(_MODEL_FILES[case]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": "model.json", "grid": {"m": 800, "scheme": "uniform-midpoint"}, "seed": 3,
        "times": {"t_start": 1.0, "t_end": 200.0, "samples": 6, "spacing": "linear"}}))
    spec = load_model(tmp_path / "model.json")
    grid = build_grid(spec.omega_max, 800, avoid=spec.levels)
    # at M=800 a pass has 10 chunks: a part that starts past row 0 is a
    # second part
    starts = []
    chunks = pointersim.oracle._chunks

    def recording(span, *args, **kwargs):
        starts.append(span.start)
        return chunks(span, *args, **kwargs)

    monkeypatch.setattr(pointersim.oracle, "_chunks", recording)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: cpus)
        starts.clear()
        model = discretize(spec, grid)
        out = tmp_path / f"cpus-{cpus}"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
        runs[cpus] = (model, (out / "compare.csv").read_bytes(), max(starts))
    (serial, serial_csv, serial_start), (parted, parted_csv, parted_start) = runs[1], runs[2]
    assert serial_start == 0 and parted_start > 0
    assert np.array_equal(serial.eigenvalues, parted.eigenvalues)
    assert np.array_equal(serial.eigenvectors, parted.eigenvectors)
    assert serial_csv == parted_csv


def test_more_parts_than_cores_write_every_row(monkeypatch, two_level_model, grid_800):
    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: 1)
    serial = discretize(two_level_model, grid_800)
    probe = np.cos(np.arange(serial.size))
    # a pool of its own with eight workers, switching threads as often as it can
    monkeypatch.setattr(pointersim.oracle, "_POOL", None)
    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parted = discretize(two_level_model, grid_800)
        applied = parted.apply(probe)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.eigenvalues, parted.eigenvalues)
    assert np.array_equal(serial.eigenvectors, parted.eigenvectors)
    # the forward pass adds one partial sum per part, in part order
    assert np.max(np.abs(applied - serial.apply(probe))) < 1e-13


def test_parts_keep_the_callers_numpy_error_state(monkeypatch, two_level_model, grid_800):
    # two equal roots are refused by the Gram bound; a root moved onto its
    # pole divides by zero in the probe's forward pass, in one of its parts.
    # The gate ignores the division and fails on the NaN it leads to
    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: 2)
    model = discretize(two_level_model, grid_800)
    step = model.steps[-1]
    equal = {"anchor": step.anchor.copy(), "offset": step.offset.copy()}
    equal["anchor"][401], equal["offset"][401] = equal["anchor"][400], equal["offset"][400]
    on_pole = {"offset": step.offset.copy()}
    on_pole["offset"][401] = 0.0
    for changed in (equal, on_pole):
        mutant = replace(model, steps=model.steps[:-1] + (replace(step, **changed),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mutant.orthonormality_defect() <= 1e-10


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
def test_parts_run_under_a_small_ufunc_buffer(monkeypatch, two_level_model, grid_800, cpus):
    # numpy's default buffer sends a broadcast column over a row of at most
    # 4096 entries through its buffered iterator; each part runs under a
    # small buffer instead, and the caller keeps its own
    in_parts = pointersim.oracle._in_parts
    seen = []

    def recording(count, width, work):
        def part(span):
            seen.append((span.start, threading.get_ident(), np.getbufsize()))
            return work(span)
        return in_parts(count, width, part)

    monkeypatch.setattr(pointersim.oracle, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(pointersim.oracle, "_in_parts", recording)
    buffer = np.setbufsize(16384)
    try:
        discretize(two_level_model, grid_800)
        assert np.getbufsize() == 16384
    finally:
        np.setbufsize(buffer)
    assert {size for _, _, size in seen} == {pointersim.oracle._UFUNC_BUFFER}
    # at M=800 a pass has 10 chunks: two CPUs give it a second part, which
    # runs on a pool thread
    second = {thread for start, thread, _ in seen if start > 0}
    assert bool(second) == (cpus == 2) and threading.get_ident() not in second


def test_secular_iteration_cap_is_an_eigensolver_failure(monkeypatch, unit_model):
    monkeypatch.setattr(pointersim.oracle, "_SECULAR_MAX_ITER", 1)
    with pytest.raises(EigensolverFailure, match="did not converge"):
        discretize(unit_model, build_grid(10.0, 64))


def _poison_last_fold_step(monkeypatch, spec):
    # the poison lands in the last fold step: the only one for one level, the
    # level-1 step for two
    fold = pointersim.oracle._fold
    calls = []

    def poisoned(*args, **kwargs):
        step, eigenvalues = fold(*args, **kwargs)
        calls.append(args)
        if len(calls) == spec.n_levels:
            norms = step.norms.copy()
            norms[3] = np.nan
            step = replace(step, norms=norms)
        return step, eigenvalues

    monkeypatch.setattr(pointersim.oracle, "_fold", poisoned)
    with pytest.raises(EigensolverFailure, match="orthonormality"):
        discretize(spec, build_grid(10.0, 64))
    assert len(calls) == spec.n_levels


def test_nan_eigenvector_fails_the_orthonormality_gate(monkeypatch, two_level_model):
    _poison_last_fold_step(monkeypatch, two_level_model)


def test_nan_arrowhead_eigenvector_fails_the_orthonormality_gate(monkeypatch, unit_model):
    _poison_last_fold_step(monkeypatch, unit_model)


def test_non_finite_hamiltonian_is_an_eigensolver_failure(monkeypatch, unit_model, two_level_model):
    monkeypatch.setattr(pointersim.oracle, "coupling_at",
                        lambda spec, omega, i: np.full_like(omega, np.nan))
    for spec in (unit_model, two_level_model):
        with pytest.raises(EigensolverFailure):
            discretize(spec, build_grid(10.0, 64))


def test_recurrence_time_estimate(oracle_unit):
    assert oracle_unit.grid.recurrence_time == pytest.approx(2 * np.pi / (10.0 / 800), rel=1e-12)


def test_second_order_shift_matches_direct_sum(unit_model, grid_800):
    # the regularized direct sum over nodes is the discrete counterpart of the
    # PV quadrature; both approximate the same displacement, with the exact
    # level pushed down when most continuum weight lies above it
    direct = np.sum(0.1 ** 2 * grid_800.weights / (1.0 - grid_800.nodes))
    shift = level_shift(unit_model, grid_800, 0)
    assert direct == pytest.approx(-shift, rel=0.1)
    assert shift > 0 and direct < 0


def test_evolve_pure_identity_at_zero_time(oracle_unit):
    rng = np.random.default_rng(3)
    psi = rng.normal(size=oracle_unit.size) + 1j * rng.normal(size=oracle_unit.size)
    psi /= np.linalg.norm(psi)
    assert np.allclose(evolve_pure(oracle_unit, psi, 0.0), psi, atol=1e-10)


def test_evolve_pure_matches_complex_spectral_product(oracle_unit, oracle_two):
    rng = np.random.default_rng(11)
    psi = rng.normal(size=oracle_unit.size) + 1j * rng.normal(size=oracle_unit.size)
    psi /= np.linalg.norm(psi)
    cases = [(oracle_unit, psi), (oracle_two, np.array([0.6, 0.8j]))]
    for model, amplitudes in cases:
        q, energies = model.apply(np.eye(model.size)), model.eigenvalues
        full = np.concatenate([amplitudes, np.zeros(model.size - len(amplitudes))])
        for t in (0.0, 0.7, 25.0, 140.0):
            reference = q @ (np.exp(-1j * energies * t) * (q.T @ full))
            assert np.max(np.abs(evolve_pure(model, amplitudes, t) - reference)) < 1e-13


def test_levels_only_evolution_matches_the_full_vector(oracle_unit, oracle_two):
    rng = np.random.default_rng(13)
    psi = rng.normal(size=oracle_two.size) + 1j * rng.normal(size=oracle_two.size)
    psi /= np.linalg.norm(psi)
    cases = [(oracle_unit, np.array([1.0])), (oracle_two, np.array([0.6, 0.8j])), (oracle_two, psi)]
    for model, amplitudes in cases:
        for t in (0.0, 0.7, 25.0, 140.0):
            full = evolve_pure(model, amplitudes, t)
            levels = evolve_pure(model, amplitudes, t, levels_only=True)
            assert levels.shape == (model.n_levels,)
            assert np.max(np.abs(levels - full[: model.n_levels])) <= 1e-14


def test_zero_coupling_evolution_is_a_pure_phase(decoupled):
    psi_t = evolve_pure(decoupled, [1.0, 0.0], 3.7)
    assert psi_t[0] == pytest.approx(np.exp(-1j * 1.0 * 3.7), abs=1e-12)
    assert np.max(np.abs(psi_t[1:])) < 1e-14


def test_unitarity_for_random_states(oracle_unit):
    rng = np.random.default_rng(5)
    psi = rng.normal(size=oracle_unit.size) + 1j * rng.normal(size=oracle_unit.size)
    psi /= np.linalg.norm(psi)
    for t in (0.1, 10.0, 200.0):
        assert np.linalg.norm(evolve_pure(oracle_unit, psi, t)) == pytest.approx(1.0, abs=1e-10)


def test_warning_beyond_recurrence_window(oracle_unit):
    with pytest.warns(RecurrenceWindowExceeded):
        evolve_pure(oracle_unit, [1.0], 0.6 * oracle_unit.grid.recurrence_time)


def test_survival_starts_at_one(oracle_unit):
    assert survival_probability(oracle_unit, 0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_zero_coupling_survival_stays_one(decoupled):
    for t in (0.5, 12.0, 19.0):
        assert survival_probability(decoupled, 0, t) == pytest.approx(1.0, abs=1e-12)


def test_survival_decay_rate_matches_golden_rule(oracle_unit):
    gamma = 2 * np.pi * 0.1 ** 2
    fitted = fitted_decay_rate(oracle_unit, 0)
    assert fitted == pytest.approx(gamma, rel=0.05)


def test_fit_window_from_spectral_width_matches_explicit_window(oracle_unit):
    gamma = 2 * np.pi * 0.1 ** 2
    explicit = fitted_decay_rate(oracle_unit, 0, t_min=0.1 / gamma, t_max=2.0 / gamma)
    automatic = fitted_decay_rate(oracle_unit, 0)
    assert automatic == pytest.approx(explicit, rel=0.02)


def test_grid_refinement_leaves_fitted_rate_stable(unit_model):
    gamma = 2 * np.pi * 0.1 ** 2
    coarse = discretize(unit_model, build_grid(10.0, 400))
    rate_coarse = fitted_decay_rate(coarse, 0, t_min=0.1 / gamma, t_max=2.0 / gamma)
    rate_fine = fitted_decay_rate(
        discretize(unit_model, build_grid(10.0, 800)), 0, t_min=0.1 / gamma, t_max=2.0 / gamma)
    assert abs(rate_coarse - rate_fine) < 0.05 * gamma


def test_coherence_initial_value(oracle_two):
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert coherence(oracle_two, 0, 1, amps, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_zero_coupling_coherence_rotates_without_damping(decoupled):
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for t in (1.0, 17.0):
        rho01 = coherence(decoupled, 0, 1, amps, t)
        assert abs(rho01) == pytest.approx(0.5, abs=1e-12)
        assert rho01 == pytest.approx(0.5 * np.exp(-1j * (1.0 - 2.0) * t), abs=1e-10)


def test_energy_distribution_zero_coupling_empty(decoupled):
    psi = evolve_pure(decoupled, [1.0, 0.0], 5.0)
    density = np.abs(psi[decoupled.n_levels:]) ** 2 / decoupled.grid.weights
    assert np.all(density == 0.0)


def test_energy_distribution_conserves_probability(oracle_unit):
    t = 30.0
    psi = evolve_pure(oracle_unit, [1.0], t)
    density = np.abs(psi[1:]) ** 2 / oracle_unit.grid.weights
    discrete = float(np.abs(psi[0]) ** 2)
    assert discrete + np.dot(oracle_unit.grid.weights, density) == pytest.approx(1.0, abs=1e-10)


def test_late_time_distribution_is_a_lorentzian_line(oracle_unit):
    from scipy.optimize import curve_fit

    gamma = 2 * np.pi * 0.1 ** 2
    delta = 0.1 ** 2 * np.log(9.0)
    t = 5.0 / gamma
    density = np.abs(evolve_pure(oracle_unit, [1.0], t)[1:]) ** 2 / oracle_unit.grid.weights
    nodes = oracle_unit.grid.nodes
    mask = np.abs(nodes - 1.0) < 10 * gamma

    def lorentzian(e, center, half_width, strength):
        return strength / ((e - center) ** 2 + half_width ** 2)

    popt, _ = curve_fit(lorentzian, nodes[mask], density[mask],
                        p0=(1.0, gamma / 2, gamma / (2 * np.pi)))
    center, half_width = popt[0], abs(popt[1])
    assert 1.0 - center == pytest.approx(delta, rel=0.10)
    assert half_width == pytest.approx(gamma / 2, rel=0.30)
    total = np.dot(oracle_unit.grid.weights, density)
    assert total == pytest.approx(1.0 - np.exp(-5.0), abs=0.05)


def test_level_continuum_coherence_damps_at_half_rate(oracle_unit):
    # a superposition of the level and one far-off continuum node: the node
    # amplitude barely moves, so the cross coherence inherits the level's
    # amplitude damping at gamma / 2
    gamma = 2 * np.pi * 0.1 ** 2
    node_index = int(np.argmin(np.abs(oracle_unit.grid.nodes - 5.0)))
    psi0 = np.zeros(oracle_unit.size, complex)
    psi0[0] = 1 / np.sqrt(2.0)
    psi0[1 + node_index] = 1 / np.sqrt(2.0)
    times = np.linspace(0.1 / gamma, 2.0 / gamma, 40)
    mixed = [abs(coherence(oracle_unit, 0, 1 + node_index, psi0, t)) for t in times]
    fitted = fit_exponential_rate(times, mixed)
    assert fitted == pytest.approx(gamma / 2.0, rel=0.10)


def test_pointer_weights_follow_initial_occupations(oracle_two):
    amps = np.array([0.6, 0.8j])
    gamma = 2 * np.pi * 0.05 ** 2
    weights = pointer_weights(oracle_two, amps, 5.0 / gamma)
    assert weights[0] == pytest.approx(0.36, abs=0.05)
    assert weights[1] == pytest.approx(0.64, abs=0.05)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)


def test_resonance_center_sits_below_the_bare_level(oracle_unit):
    delta = 0.1 ** 2 * np.log(9.0)
    displacement = 1.0 - resonance_center(oracle_unit, 0)
    assert displacement == pytest.approx(delta, rel=0.10)


def test_resonance_center_of_decoupled_level_is_its_bare_energy(decoupled):
    # a decoupled level's weight sits on one eigenvalue: no line to fit
    assert resonance_center(decoupled, 0) == 1.0
    assert resonance_center(decoupled, 1) == 2.0


def test_evolve_pure_refuses_a_wrong_length_vector(oracle_two):
    with pytest.raises(InvalidState, match="expected 2 level amplitudes or a full vector"):
        evolve_pure(oracle_two, [1.0, 0.0, 0.0], 1.0)


def _probes(oracle, t):
    amplitudes = [0.6, 0.8]
    return (lambda: evolve_pure(oracle, amplitudes, t),
            lambda: survival_probability(oracle, 0, t),
            lambda: coherence(oracle, 0, 1, amplitudes, t),
            lambda: pointer_weights(oracle, amplitudes, t))


_AMPLITUDE_PROBES = {
    "evolve_pure": lambda oracle, amplitudes: evolve_pure(oracle, amplitudes, 1.0),
    "coherence": lambda oracle, amplitudes: coherence(oracle, 0, 1, amplitudes, 1.0),
    "pointer_weights": lambda oracle, amplitudes: pointer_weights(oracle, amplitudes, 1.0),
}


@pytest.mark.parametrize("amplitudes, got", [
    ([np.nan, 0.8], "nan"),
    ([np.inf, 0.0], "inf"),
    ([1.0, None], "None"),
    (["a", "b"], "'a'"),
    ([True, False], "True"),
    ([0.6, np.bool_(False)], repr(np.bool_(False))),
    ([1.0, [0.0]], "a ragged sequence"),
], ids=["nan", "inf", "none", "strings", "bools", "numpy-bool", "ragged"])
@pytest.mark.parametrize("probe", _AMPLITUDE_PROBES.values(), ids=_AMPLITUDE_PROBES.keys())
def test_probes_refuse_amplitudes_that_are_not_finite_numbers(oracle_two, probe, amplitudes, got):
    # numpy would give NaNs, a RuntimeWarning or a bare ValueError, and read
    # the booleans as (1, 0)
    with pytest.raises(InvalidState) as refused:
        probe(oracle_two, amplitudes)
    assert str(refused.value) == f"amplitudes must be finite numbers, got {got}"


@pytest.mark.parametrize("t", [-0.1, np.nan, np.inf, "1.0", None, 1 + 0j, True, [1.0, [2.0]],
                               [1.0, True]])
def test_probes_refuse_a_time_that_is_negative_or_not_finite(oracle_two, t):
    # only integer and float times are times: a string is never parsed as one
    culprit = {"[1.0, [2.0]]": "a ragged sequence", "[1.0, True]": "True"}.get(repr(t), repr(t))
    message = re.escape(f"evolution time must be real, finite and >= 0, got {culprit}") + "$"
    for probe in _probes(oracle_two, t):
        with pytest.raises(NegativeTime, match=message):
            probe()
    # either end of a fit window; None asks for the default end instead
    for window in ((t, 5.0), (0.5, t)) if t is not None else ():
        with pytest.raises(NegativeTime, match=message):
            fitted_decay_rate(oracle_two, 0, *window)


# each probe on the times, with how far a call with an array of times may
# be from the stack of one-time calls: a product over many columns of the
# level rows may round differently from one over a single column
_TIME_PROBES = {
    "evolve_pure-levels-in": (lambda o, t: evolve_pure(o, [0.6, 0.8j], t), 0.0),
    "evolve_pure-full-in": (
        lambda o, t: evolve_pure(o, np.cos(np.arange(o.size)) / np.sqrt(o.size / 2), t), 0.0),
    "evolve_pure-levels-only": (lambda o, t: evolve_pure(o, [0.6, 0.8j], t, levels_only=True), 1e-14),
    "survival_probability": (lambda o, t: survival_probability(o, 1, t), 0.0),
    "coherence-levels": (lambda o, t: coherence(o, 0, 1, [0.6, 0.8j], t), 1e-14),
    "coherence-node": (lambda o, t: coherence(o, 1, 7, [0.6, 0.8j], t), 1e-14),
    "pointer_weights": (lambda o, t: pointer_weights(o, [0.6, 0.8j], t), 1e-14),
}


@pytest.mark.parametrize("probe, tolerance", _TIME_PROBES.values(), ids=_TIME_PROBES.keys())
def test_probes_take_times_as_evolve_does(oracle_two, probe, tolerance):
    horizon = oracle_two.grid.valid_t_max
    times = np.linspace(0.5, 0.9 * horizon, 4)
    # one time gives a Python number or one time's array, never a numpy scalar
    one_by_one = [probe(oracle_two, t) for t in times.tolist()]
    assert type(one_by_one[0]) in (float, complex, np.ndarray)
    for shape in [(4,), (2, 2)]:
        at_once = probe(oracle_two, times.reshape(shape))
        assert at_once.shape == shape + np.shape(one_by_one[0])
        assert np.max(np.abs(at_once - np.reshape(one_by_one, at_once.shape))) <= tolerance
    # times past the horizon warn once per call, naming the latest
    with pytest.warns(RecurrenceWindowExceeded) as warned:
        probe(oracle_two, np.linspace(0.0, 2.0 * horizon, 9))
    assert len(warned) == 1
    assert str(warned[0].message).startswith(f"t = {2.0 * horizon:g} is beyond")
    # the warning names the caller's line, not one inside the oracle
    assert warned[0].filename == __file__


@pytest.fixture(scope="module")
def two_level_oracle():
    return discretize(make_constant_model([1.0, 2.0], 0.1), build_grid(10.0, 200))


# each probe with the count its index must stay below: the levels, or for
# coherence the levels and then the nodes
_INDEXED_PROBES = {
    "survival_probability": (lambda o, i: survival_probability(o, i, 1.0), "n_levels"),
    "fitted_decay_rate": (fitted_decay_rate, "n_levels"),
    "resonance_center": (resonance_center, "n_levels"),
    "coherence-first": (lambda o, i: coherence(o, i, 0, [0.6, 0.8], 1.0), "size"),
    "coherence-second": (lambda o, i: coherence(o, 0, i, [0.6, 0.8], 1.0), "size"),
}


@pytest.mark.parametrize("bad", ["minus-one", "count", "fraction", "bool"])
@pytest.mark.parametrize("probe, count", _INDEXED_PROBES.values(), ids=_INDEXED_PROBES.keys())
def test_probes_refuse_an_index_out_of_range(two_level_oracle, probe, count, bad):
    # -1 would wrap to the last level, and numpy reads True as a mask; the
    # others would fail inside numpy
    bound = getattr(two_level_oracle, count)
    index = {"minus-one": -1, "count": bound, "fraction": 0.5, "bool": True}[bad]
    with pytest.raises(LevelIndexOutOfRange, match=rf"in \[0, {bound}\), got {index}$") as raised:
        probe(two_level_oracle, index)
    assert isinstance(raised.value, IndexError)


# the oracle has 2 levels and 200 nodes
@pytest.mark.parametrize("entries", [["1"] + ["0"] * 201, [True] + [False] * 201, [1.0] * 201 + [None],
                                     [[1.0], [1.0, 2.0]]],
                         ids=["strings", "bools", "objects", "ragged"])
def test_apply_and_its_transpose_refuse_what_is_not_numbers(two_level_oracle, entries):
    # numpy would parse the strings and read the bools as 1 and 0
    for name, product in (("coefficients", two_level_oracle.apply),
                          ("vectors", two_level_oracle.apply_transpose)):
        with pytest.raises(InvalidState, match=rf"^{name} must be real or complex numbers, got "):
            product(entries)


@pytest.mark.parametrize("values", [np.zeros(5), 1.0, np.zeros((5, 3)), np.zeros((0, 202))],
                         ids=["short", "scalar", "short-columns", "columns-first"])
def test_apply_and_its_transpose_refuse_a_wrong_row_count(two_level_oracle, values):
    # numpy would raise a bare ValueError, IndexError or TypeError
    for name, product in (("coefficients", two_level_oracle.apply),
                          ("vectors", two_level_oracle.apply_transpose)):
        with pytest.raises(InvalidState) as refused:
            product(values)
        assert str(refused.value) == (f"{name} must have N+M = 202 rows, "
                                      f"got shape {np.shape(values)}")


def test_probes_take_numpy_integer_indices(two_level_oracle):
    oracle, last = two_level_oracle, two_level_oracle.size - 1
    survival = survival_probability(oracle, 1, 1.0)
    assert survival_probability(oracle, np.int64(1), 1.0) == survival
    node = coherence(oracle, last, 0, [0.6, 0.8], 1.0)
    assert coherence(oracle, np.int64(last), 0, [0.6, 0.8], 1.0) == node


def test_fit_exponential_rate_recovers_exact_exponential():
    times = np.linspace(1.0, 50.0, 20)
    assert fit_exponential_rate(times, np.exp(-0.03 * times)) == pytest.approx(0.03, rel=1e-10)
    with pytest.raises(FitFailure, match="strictly positive"):
        fit_exponential_rate(times, np.zeros_like(times))


_FIT_TIMES = np.linspace(1.0, 50.0, 20)
_FIT_VALUES = np.exp(-0.03 * _FIT_TIMES)


@pytest.mark.parametrize("times, values, match", [
    (_FIT_TIMES, np.full(20, np.nan), "strictly positive finite values"),
    (_FIT_TIMES, np.where(_FIT_TIMES > 40.0, np.nan, _FIT_VALUES), "strictly positive finite"),
    (_FIT_TIMES, np.where(_FIT_TIMES > 40.0, np.inf, _FIT_VALUES), "strictly positive finite"),
    (np.where(_FIT_TIMES > 40.0, np.nan, _FIT_TIMES), _FIT_VALUES, "finite times"),
    (np.where(_FIT_TIMES > 40.0, np.inf, _FIT_TIMES), _FIT_VALUES, "finite times"),
    (_FIT_TIMES, _FIT_VALUES[:-1], "one value per time"),
    (_FIT_TIMES[:1], _FIT_VALUES[:1], "at least two distinct times"),
    (np.full(20, 3.0), _FIT_VALUES, "at least two distinct times"),
    # no string is parsed as a number, no boolean read as 0 or 1
    ([1.0, [2.0]], [1.0, 0.5], "finite times, got a ragged sequence"),
    (["1", "2"], [1.0, 0.5], r"^exponential fit needs finite times, got '1'$"),
    ([False, True], [1.0, 0.5], "finite times, got False"),
    ([1.0, 2.0], ["1", 0.5], r"^exponential fit needs strictly positive finite values, got '1'$"),
], ids=["nan-values", "one-nan-value", "inf-value", "nan-time", "inf-time", "length-mismatch",
        "one-sample", "one-distinct-time", "ragged-times", "string-times", "bool-times",
        "string-value"])
def test_fit_exponential_rate_refuses_what_it_cannot_fit(times, values, match):
    with pytest.raises(FitFailure, match=match):
        fit_exponential_rate(times, values)


def test_fit_window_of_a_level_without_spread_is_a_fit_failure():
    # a decoupled level below every node holds the lowest eigenvalue alone, so
    # its spectral measure has no interquartile range to set a window from
    spec = make_constant_model([0.01, 2.0], 0.1, scale=0.0)
    model = discretize(spec, build_grid(10.0, 64))
    with pytest.raises(FitFailure, match="level 0 does not decay"):
        fitted_decay_rate(model, 0)
