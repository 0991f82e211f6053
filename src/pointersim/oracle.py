"""Brute-force ground truth: exact unitary dynamics of the discretized system.

The continuum is replaced by its quadrature nodes, giving a real symmetric
(N + M) x (N + M) Hamiltonian with the levels first, then the nodes.  The
level-node coupling carries a sqrt(weight) factor so the discrete sum of
squared couplings converges to the continuum integral of V^2.  Everything
downstream is spectral decomposition; no perturbative input enters anywhere,
which is what makes this module a legitimate independent check.

With one level the Hamiltonian is an arrowhead matrix, and its eigenpairs come
from the roots of a secular equation in O(M^2) time without assembling H;
with two or more levels H is assembled and handed to a dense O((N + M)^3)
``scipy.linalg.eigh``.  Both paths return the same ``OracleModel`` (ascending
eigenvalues, eigenvectors as columns) and pass the same orthonormality gate.

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

from .continuum import ContinuumGrid
from .errors import EigensolverFailure, RecurrenceWindowExceeded
from .model import ModelSpec, coupling_at

_ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OracleModel:
    """Eigendecomposition of the discretized Hamiltonian.

    The Hamiltonian itself is not kept: the dense path diagonalizes it in
    place and the single-level path never assembles it.
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
    """Assemble and diagonalize the discretized Hamiltonian.

    One level makes H an arrowhead matrix, solved through its secular
    equation in O(M^2); more levels go through a dense eigensolve.  Both
    paths pass the same orthonormality gate.
    """
    sqrt_w = np.sqrt(grid.weights)
    couplings = np.array([coupling_at(spec, grid.nodes, i) * sqrt_w
                          for i in range(spec.n_levels)])
    if spec.n_levels == 1:
        eigenvalues, eigenvectors = _arrowhead_eigh(spec.levels[0], grid.nodes, couplings[0])
    else:
        eigenvalues, eigenvectors = _dense_eigh(spec.levels, grid.nodes, couplings)

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


def _dense_eigh(levels, nodes, couplings):
    """Eigenpairs of the full Hamiltonian: levels, then nodes, coupled by rows."""
    n, m = len(levels), len(nodes)
    h = np.zeros((n + m, n + m))
    h[np.arange(n), np.arange(n)] = levels
    h[np.arange(n, n + m), np.arange(n, n + m)] = nodes
    h[:n, n:] = couplings
    h[n:, :n] = couplings.T
    try:
        # h is symmetric, so h.T is a Fortran-ordered view of the same buffer
        # and LAPACK's dsyevd overwrites it instead of working on a copy;
        # non-finite entries surface as a ValueError from the finiteness check
        return eigh(h.T, overwrite_a=True, driver="evd")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(f"eigh failed on a {n + m} x {n + m} Hamiltonian: {exc}") from exc


# -- one level: the arrowhead secular equation --------------------------------
#
# With one level at e coupled by g_k to nodes w_k, H = [[e, g^T], [g, diag(w)]]
# and, once couplings too small to matter are deflated to the exact pairs
# (w_k, e_k), every other eigenvalue is a root of the secular equation
#
#     f(x) = x - e - sum_k g_k^2 / (x - w_k),
#
# which increases between its poles: one root lies below the first node, one
# in each gap and one above the last node (Gu & Eisenstat 1995; Stor,
# Slapnicar & Barlow 2015).  The grid's nodes are strictly increasing, so the
# poles are sorted and distinct.  Dropping a coupling below eps * |H| moves
# H by rounding noise, but a kept one must be a genuine pole: an underflowing
# g_k^2 would leave its gap without a sign change.  A root is kept as an
# offset d from its nearer pole p, so x - w_k = (w_p - w_k) + d stays accurate
# to full relative precision however close x is to w_p, and d solves
# F(d) = d * f(w_p + d), which has no pole at d = 0.  The eigenvector of root
# x is (1, g_k / (x - w_k)) normalized.

_EPS = np.finfo(float).eps
_SECULAR_MAX_ITER = 64
# roots are handled in row chunks of about 64k matrix elements (512 kB), so
# no M x M temporary exists while solving
_CHUNK_ELEMENTS = 1 << 16


def _arrowhead_eigh(level: float, nodes: np.ndarray, coupling: np.ndarray):
    """Ascending eigenvalues and eigenvectors (columns) of the arrowhead H."""
    if not (np.isfinite(level) and np.all(np.isfinite(nodes)) and np.all(np.isfinite(coupling))):
        raise EigensolverFailure("the Hamiltonian has non-finite entries")
    scale = max(abs(level), float(np.max(np.abs(nodes))), float(np.linalg.norm(coupling)))
    negligible = np.abs(coupling) <= _EPS * scale
    active, deflated = np.flatnonzero(~negligible), np.flatnonzero(negligible)
    poles, g = nodes[active], coupling[active]
    anchor, offset = _secular_roots(level, poles, g * g)

    # Q^T with rows (roots, deflated nodes) and columns (level, active nodes,
    # deflated nodes): the roots' vectors fill the leading block and every
    # deflated node keeps its unit vector
    k = len(poles)
    qt = np.zeros((len(nodes) + 1, len(nodes) + 1))
    for rows in _chunks(k + 1, k):
        vectors = qt[rows, : k + 1]
        np.divide(g, _distances(poles, anchor[rows], offset[rows]), out=vectors[:, 1:])
        vectors[:, 0] = 1.0
        vectors /= np.sqrt(np.einsum("ij,ij->i", vectors, vectors))[:, None]
    np.fill_diagonal(qt[k + 1:, k + 1:], 1.0)
    eigenvalues = np.concatenate([anchor + offset, nodes[deflated]])
    if len(deflated):
        # back to ascending eigenvalues and to the level-then-nodes components
        order = np.argsort(eigenvalues, kind="stable")
        components = np.argsort(np.concatenate([[0], 1 + active, 1 + deflated]))
        qt = qt[np.ix_(order, components)]
        eigenvalues = eigenvalues[order]
    return eigenvalues, qt.T


def _chunks(count: int, width: int):
    """Row slices that keep a chunk-by-width temporary near _CHUNK_ELEMENTS."""
    step = max(1, _CHUNK_ELEMENTS // max(width, 1))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _distances(poles, anchor, offset):
    """x_n - w_k = (anchor_n - w_k) + d_n for roots n (rows) and poles k (columns)."""
    return (anchor[:, None] - poles[None, :]) + offset[:, None]


def _secular_roots(level: float, poles: np.ndarray, g2: np.ndarray):
    """Roots of f, ascending, each as its nearer pole plus an offset.

    A vectorized safeguarded Newton iteration on F(d) = d * f(w_p + d): every
    root keeps a bracket on which f changes sign, and a Newton step that
    leaves it is replaced by bisection.  Without poles the one root is the
    level itself.
    """
    k = len(poles)
    if k == 0:
        return np.array([level]), np.zeros(1)
    # every eigenvalue lies within |g| of the diagonal's range
    radius = float(np.sqrt(np.sum(g2)))
    origin = np.empty(k + 1, dtype=np.intp)
    lo = np.empty(k + 1)
    hi = np.empty(k + 1)
    origin[0], lo[0], hi[0] = 0, min(level, poles[0]) - radius - poles[0], 0.0
    origin[k], lo[k], hi[k] = k - 1, 0.0, max(level, poles[-1]) + radius - poles[-1]
    offset = 0.5 * (lo + hi)
    if k > 1:
        # roots 1..k-1 lie between poles n-1 and n; the sign of f at the
        # gap's midpoint says which half holds the root, hence its pole
        half = 0.5 * np.diff(poles)
        left = np.arange(k - 1)
        others, _, _ = _pole_sum(poles, g2, left, half)
        f_mid = (poles[left] + half - level) - (others + g2[left] / half)
        lower_half = f_mid >= 0
        origin[1:k] = np.where(lower_half, left, left + 1)
        lo[1:k] = np.where(lower_half, 0.0, -half)
        hi[1:k] = np.where(lower_half, half, 0.0)
        # first guess: the gap's two poles exact, the rest frozen at the
        # midpoint, c - g_l^2 / (x - w_l) - g_r^2 / (x - w_r) = 0
        c = f_mid + (g2[left] - g2[left + 1]) / half
        guess = np.where(lower_half,
                         _two_pole_root(c, g2[left], g2[left + 1], 2 * half),
                         -_two_pole_root(-c, g2[left + 1], g2[left], 2 * half))
        inside = (guess > lo[1:k]) & (guess < hi[1:k])
        offset[1:k] = np.where(inside, guess, offset[1:k])

    base = poles[origin] - level
    pending = np.arange(k + 1)
    for _ in range(_SECULAR_MAX_ITER):
        d, p, b = offset[pending], origin[pending], base[pending]
        low, high = lo[pending], hi[pending]
        sums, slopes, magnitude = _pole_sum(poles, g2, p, d)
        reduced = b + d - sums                      # f without the pole at w_p
        value = d * reduced - g2[p]                 # F(d)
        slope = reduced + d * (1.0 + slopes)        # F'(d)
        bound = np.abs(d) * (np.abs(b + d) + magnitude) + g2[p]

        # f < 0 where F and d differ in sign: the root lies further up
        up = (value < 0) == (d > 0)
        low = np.where(up, d, low)
        high = np.where(up | (value == 0), high, d)
        newton = d - np.divide(value, slope, out=np.full_like(d, np.nan), where=slope != 0)
        step = np.where((newton > low) & (newton < high), newton, 0.5 * (low + high))
        done = (np.abs(value) <= 4 * _EPS * bound) | (np.abs(step - d) <= 2 * _EPS * np.abs(d))
        offset[pending] = np.where(done, d, step)
        lo[pending], hi[pending] = low, high
        pending = pending[~done]
        if not len(pending):
            return poles[origin], offset
    raise EigensolverFailure(
        f"secular equation: {len(pending)} of {k + 1} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


def _two_pole_root(c, own, far, gap):
    """Distance t in (0, gap) from the own pole to the root of c - own/t - far/(t - gap)."""
    # c t^2 - (c gap + own + far) t + own gap = 0, each root in its stable form
    beta = c * gap + own + far
    root = np.sqrt(np.maximum(beta * beta - 4.0 * c * own * gap, 0.0))
    stable = beta >= 0
    numerator = np.where(stable, 2.0 * own * gap, beta - root)
    denominator = np.where(stable, beta + root, 2.0 * c)
    return np.divide(numerator, denominator, out=np.zeros_like(c), where=denominator != 0)


def _pole_sum(poles, g2, origin, offset):
    """Sums over all poles but each root's own, in row chunks.

    For roots x_n = w_origin(n) + offset_n, returns sum g_k^2 / (x_n - w_k),
    sum g_k^2 / (x_n - w_k)^2 and sum |g_k^2 / (x_n - w_k)| with k != origin(n).
    """
    sums = np.empty(len(offset))
    slopes = np.empty(len(offset))
    magnitude = np.empty(len(offset))
    for rows in _chunks(len(offset), len(poles)):
        distance = _distances(poles, poles[origin[rows]], offset[rows])
        own = (np.arange(distance.shape[0]), origin[rows])
        distance[own] = 1.0
        inverse = np.reciprocal(distance, out=distance)
        inverse[own] = 0.0
        terms = g2 * inverse
        sums[rows] = terms.sum(axis=1)
        slopes[rows] = np.einsum("ij,ij->i", terms, inverse)
        magnitude[rows] = np.abs(terms, out=terms).sum(axis=1)
    return sums, slopes, magnitude


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

    Near a Lorentzian line the inverse spectral weight density is a parabola
    with its vertex at the line centre.  It is fitted with a density-weighted
    quadratic over the eigenvalues within ``window_iqr`` interquartile ranges
    of the level's weighted median.  When fewer than three of them carry
    weight (a decoupled level) there is no line to fit, and the eigenvalue
    carrying the level's largest weight is returned.
    """
    mass = model.eigenvectors[i, :] ** 2
    center0, iqr = _spectral_quartiles(model, i)
    energies = model.eigenvalues
    mask = (np.abs(energies - center0) < window_iqr * iqr) & (mass > 0)
    if np.count_nonzero(mask) < 3:
        return float(energies[np.argmax(mass)])
    density = mass[mask] / np.gradient(energies)[mask]
    a, b, _ = np.polyfit(energies[mask], 1.0 / density, 2, w=density)
    return float(-b / (2.0 * a))
