"""Brute-force ground truth: exact unitary dynamics of the discretized system.

The continuum is replaced by its quadrature nodes, giving a real symmetric
(N + M) x (N + M) Hamiltonian with the levels first, then the nodes.  The
level-node coupling carries a sqrt(weight) factor so the discrete sum of
squared couplings converges to the continuum integral of V^2.  Everything
downstream is spectral decomposition; no perturbative input enters anywhere,
which is what makes this module a legitimate independent check.

A finite grid is quasi-periodic: beyond roughly half the recurrence time
(``ContinuumGrid.recurrence_time``), the nodes rephase and the dynamics stops
mimicking irreversible decay.  Evolution past that horizon triggers a warning
and the corresponding runs must not be tagged valid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import curve_fit

from .continuum import ContinuumGrid
from .errors import EigensolverFailure, RecurrenceWindowExceeded
from .model import ModelSpec, coupling_at

_ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OracleModel:
    """Eigendecomposition of the discretized Hamiltonian.

    The Hamiltonian itself is not kept: it is diagonalized in place.
    """

    spec: ModelSpec
    grid: ContinuumGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    recurrence_time: float

    @property
    def n_levels(self) -> int:
        return self.spec.n_levels

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def orthonormality_defect(self) -> float:
        """max |Q^T Q - I|; NaN when the eigenvectors are not finite."""
        q = self.eigenvectors
        gram = q.T @ q
        gram.flat[:: self.size + 1] -= 1.0
        return float(np.max(np.abs(gram, out=gram)))


def discretize(spec: ModelSpec, grid: ContinuumGrid) -> OracleModel:
    """Assemble and diagonalize the discretized Hamiltonian."""
    n, m = spec.n_levels, grid.size
    h = np.zeros((n + m, n + m))
    h[np.arange(n), np.arange(n)] = spec.levels
    h[np.arange(n, n + m), np.arange(n, n + m)] = grid.nodes
    sqrt_w = np.sqrt(grid.weights)
    for i in range(n):
        row = coupling_at(spec, grid.nodes, i) * sqrt_w
        h[i, n:] = row
        h[n:, i] = row
    try:
        # h is symmetric, so h.T is a Fortran-ordered view of the same buffer
        # and LAPACK's dsyevd overwrites it instead of working on a copy;
        # non-finite entries surface as a ValueError from the finiteness check
        eigenvalues, eigenvectors = eigh(h.T, overwrite_a=True, driver="evd")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(f"eigh failed on a {n + m} x {n + m} Hamiltonian: {exc}") from exc

    model = OracleModel(
        spec=spec,
        grid=grid,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        recurrence_time=grid.recurrence_time,
    )
    defect = model.orthonormality_defect()
    # written so that a NaN defect fails the gate too
    if not defect <= _ORTHO_TOL:
        raise EigensolverFailure(f"eigenvector orthonormality defect {defect:g} above {_ORTHO_TOL}")
    return model


def embed_discrete(model: OracleModel, amplitudes) -> np.ndarray:
    """Pad level amplitudes with an empty continuum into a full vector."""
    amplitudes = np.asarray(amplitudes, complex)
    if amplitudes.shape == (model.size,):
        return amplitudes
    if amplitudes.shape != (model.n_levels,):
        raise ValueError(f"expected {model.n_levels} level amplitudes or a full vector")
    psi = np.zeros(model.size, complex)
    psi[: model.n_levels] = amplitudes
    return psi


def _check_window(model: OracleModel, t: float):
    if t >= 0.5 * model.recurrence_time:
        warnings.warn(
            f"t = {t:g} is beyond half the recurrence time {model.recurrence_time:g}; "
            "the discretized dynamics is no longer a faithful decay",
            RecurrenceWindowExceeded,
            stacklevel=3,
        )


def _real_matvec(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """q @ v for a real matrix q and a complex vector v.

    The real and imaginary parts of v ride as two real columns, so q is read
    once and never upcast to a complex copy.
    """
    columns = np.ascontiguousarray(v, complex).view(float).reshape(-1, 2)
    return (q @ columns).view(complex).ravel()


def evolve_pure(model: OracleModel, amplitudes, t: float) -> np.ndarray:
    """Exact exp(-i H t) applied through the spectral decomposition."""
    _check_window(model, t)
    psi = embed_discrete(model, amplitudes)
    q = model.eigenvectors
    coefficients = _real_matvec(q.T, psi)
    return _real_matvec(q, np.exp(-1j * model.eigenvalues * t) * coefficients)


def survival_probability(model: OracleModel, i: int, t: float) -> float:
    """|<i| exp(-i H t) |i>|^2 for level i."""
    _check_window(model, t)
    c = model.eigenvectors[i, :]
    amplitude = np.sum(c * c * np.exp(-1j * model.eigenvalues * t))
    return float(np.abs(amplitude) ** 2)


def coherence(model: OracleModel, i: int, j: int, amplitudes, t: float) -> complex:
    """Density-matrix element rho_ij(t) of the evolved pure state."""
    psi = evolve_pure(model, amplitudes, t)
    return complex(psi[i] * np.conj(psi[j]))


def energy_distribution(model: OracleModel, initial, t: float) -> np.ndarray:
    """Continuum occupation density |<w_k|psi(t)>|^2 / w_k per node."""
    psi = evolve_pure(model, initial, t)
    return np.abs(psi[model.n_levels:]) ** 2 / model.grid.weights


def pointer_weights(model: OracleModel, amplitudes, t: float) -> np.ndarray:
    """Probability mass attributed to each level at time t.

    The continuum is partitioned at the midpoints between adjacent level
    energies (the simplest unambiguous attribution of a resonance line to
    its level) and each cell's mass is added to the residual occupation of
    the level itself.
    """
    psi = evolve_pure(model, amplitudes, t)
    n = model.n_levels
    discrete = np.abs(psi[:n]) ** 2
    cont = np.abs(psi[n:]) ** 2

    order = np.argsort(model.spec.levels)
    cuts = (model.spec.levels[order][:-1] + model.spec.levels[order][1:]) / 2.0
    cell = np.searchsorted(cuts, model.grid.nodes)
    weights = discrete.copy()
    for rank, level_index in enumerate(order):
        weights[level_index] += float(np.sum(cont[cell == rank]))
    return weights


# -- fits against the exact dynamics ------------------------------------------

def fit_exponential_rate(times, values) -> float:
    """Least-squares decay rate of values ~ exp(-rate * t) on a log scale."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if np.any(values <= 0):
        raise ValueError("exponential fit needs strictly positive values")
    design = np.column_stack([times, np.ones_like(times)])
    slope, _ = np.linalg.lstsq(design, np.log(values), rcond=None)[0]
    return float(-slope)


def _spectral_quartiles(model: OracleModel, i: int):
    """Median and interquartile range of the spectral measure of level i."""
    mass = model.eigenvectors[i, :] ** 2
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    q25, q50, q75 = np.interp([0.25, 0.5, 0.75], cdf, model.eigenvalues)
    return q50, q75 - q25


def fitted_decay_rate(model: OracleModel, i: int, t_min: float | None = None,
                      t_max: float | None = None, samples: int = 40) -> float:
    """Survival decay rate of level i fitted on the exponential window.

    The window defaults to [0.1 / G, 2 / G] with G estimated from the
    interquartile range of the level's own spectral measure: it excludes the
    short-time quadratic region and the long-time power-law tail without any
    perturbative input.
    """
    if t_min is None or t_max is None:
        _, iqr = _spectral_quartiles(model, i)
        if iqr <= 0:
            raise ValueError("level does not decay; no exponential window exists")
        t_min = 0.1 / iqr if t_min is None else t_min
        t_max = 2.0 / iqr if t_max is None else t_max
    times = np.linspace(t_min, t_max, samples)
    values = [survival_probability(model, i, t) for t in times]
    return fit_exponential_rate(times, values)


def resonance_center(model: OracleModel, i: int, window_iqr: float = 20.0) -> float:
    """Position of the level-i resonance line in the exact spectrum.

    Fits a Lorentzian to the level's spectral weight density around its
    weighted median; the window is ``window_iqr`` interquartile ranges wide.
    """
    mass = model.eigenvectors[i, :] ** 2
    center0, iqr = _spectral_quartiles(model, i)
    if iqr <= 0:
        return float(center0)
    energies = model.eigenvalues
    local_spacing = np.gradient(energies)
    mask = np.abs(energies - center0) < window_iqr * iqr
    density = mass[mask] / local_spacing[mask]

    def lorentzian(e, center, half_width, strength):
        return strength / ((e - center) ** 2 + half_width ** 2)

    p0 = (center0, iqr / 2, np.max(density) * (iqr / 2) ** 2)
    popt, _ = curve_fit(lorentzian, energies[mask], density, p0=p0)
    return float(popt[0])
