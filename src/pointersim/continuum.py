"""Quadrature over the truncated continuum and Cauchy principal-value integrals.

The principal value is computed by singularity subtraction:

    PV int_0^W f(w) / (w - W0) dw
        = int_0^W (f(w) - f(W0)) / (w - W0) dw  +  f(W0) * ln((W - W0) / W0)

The subtracted integrand is regular whenever f is continuous at W0, so node
placement near the singularity is uncritical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._inputs import is_integer, read_numbers
from .errors import (
    DiscontinuousAtSingularity,
    InvalidGrid,
    NonFiniteValue,
    SingularityOutsideSupport,
    TooFewNodes,
)

log = logging.getLogger(__name__)

GRID_SCHEMES = ("uniform-midpoint", "gauss-legendre-composite")

_MIN_NODES = 16
_GL_ORDER = 4


@dataclass(frozen=True, eq=False)
class ContinuumGrid:
    """Quadrature nodes and weights on [0, omega_max].

    Nodes are strictly increasing, weights positive, and the weights sum to
    omega_max (the measure of the support).  No node coincides with a level
    energy passed through ``build_grid(avoid=...)``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    omega_max: float

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def recurrence_time(self) -> float:
        """2*pi over the mean node spacing, after which the nodes rephase."""
        spacing = (self.nodes[-1] - self.nodes[0]) / (self.size - 1)
        return 2.0 * np.pi / spacing

    @property
    def valid_t_max(self) -> float:
        """Half the recurrence time: the horizon of faithful finite-grid decay."""
        return 0.5 * self.recurrence_time

    def spacing_near(self, omega: float) -> float:
        """Local node spacing around a point, for probe distances."""
        k = int(np.searchsorted(self.nodes, omega))
        k = min(max(k, 1), self.size - 1)
        return float(self.nodes[k] - self.nodes[k - 1])


def build_grid(omega_max: float, m: int, scheme: str = "uniform-midpoint",
               avoid=()) -> ContinuumGrid:
    """Build a quadrature grid with ``m`` nodes on [0, omega_max].

    Parameters
    ----------
    omega_max : float
        Upper cutoff of the continuum support.
    m : int
        Requested node count, at least 16.  The composite Gauss-Legendre
        scheme snaps to a multiple of its panel order.
    scheme : str
        'uniform-midpoint' (default) or 'gauss-legendre-composite'.
    avoid : sequence of float
        Energies no node may coincide with (the discrete levels).  An
        offending node is shifted by half the local spacing and logged.
    """
    if not is_integer(m):
        raise InvalidGrid(f"m must be an integer, got {m!r}")
    if m < _MIN_NODES:
        raise TooFewNodes(f"need at least {_MIN_NODES} nodes, got {m}")
    cutoff = read_numbers(omega_max)
    if isinstance(cutoff, str) or cutoff.ndim or cutoff <= 0:
        culprit = cutoff if isinstance(cutoff, str) else repr(omega_max)
        raise InvalidGrid(f"omega_max must be a positive finite number, got {culprit}")
    targets = read_numbers(avoid)
    if isinstance(targets, str) or targets.ndim > 1:
        culprit = targets if isinstance(targets, str) else f"an array of shape {targets.shape}"
        raise InvalidGrid(f"avoid must be finite numbers in at most one dimension, got {culprit}")

    if scheme not in GRID_SCHEMES:
        raise InvalidGrid(f"unknown grid scheme '{scheme}'")
    try:
        if scheme == "uniform-midpoint":
            h = omega_max / m
            nodes = (np.arange(m) + 0.5) * h
            weights = np.full(m, h)
        else:
            panels = m // _GL_ORDER
            x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
            edges = np.linspace(0.0, omega_max, panels + 1)
            half = np.diff(edges) / 2
            mid = (edges[:-1] + edges[1:]) / 2
            nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
            weights = (half[:, None] * w[None, :]).ravel()
    # numpy refuses a size past its limit with a ValueError, before allocating
    except (MemoryError, ValueError) as exc:
        raise InvalidGrid(f"grid.m = {m} nodes do not fit in memory") from exc

    for target in np.atleast_1d(targets):
        hit = np.flatnonzero(np.isclose(nodes, target, rtol=0.0, atol=1e-12))
        for k in hit:
            step = weights[k] / 2
            shifted = nodes[k] + step
            upper = nodes[k + 1] if k + 1 < len(nodes) else omega_max
            if shifted >= upper:
                shifted = nodes[k] - step
            log.warning("grid node %d at %.15g coincides with level %.15g; shifted to %.15g",
                        k, nodes[k], target, shifted)
            nodes[k] = shifted

    if np.any(np.diff(nodes) <= 0):
        raise InvalidGrid("grid nodes are not strictly increasing after collision shifts")
    return ContinuumGrid(nodes=nodes, weights=weights, omega_max=float(omega_max))


def _read_integrand(f, points: np.ndarray) -> np.ndarray:
    """``f(points)`` as floats of the shape of ``points``: one finite real
    number per point, or one for all, else ``NonFiniteValue``."""
    values = read_numbers(f(points))
    if isinstance(values, str) or values.shape not in ((), points.shape):
        culprit = values if isinstance(values, str) else f"an array of shape {values.shape}"
        raise NonFiniteValue(
            f"integrand must give one finite real number per point or one for all, got {culprit}")
    return np.broadcast_to(values, points.shape)


def principal_value(f, singularity: float, grid: ContinuumGrid) -> float:
    """Cauchy principal value of int_0^omega_max f(w)/(w - singularity) dw.

    Parameters
    ----------
    f : callable
        Real function, continuous at the singularity.  It is called once, on
        one array: the singularity, six continuity probes at singularity +- d
        for d = d0, d0/4, d0/16, then the grid nodes.  d0 is half the local
        node spacing, or half the distance to the nearer end of the support if
        that is closer, so every probe lies inside it.  ``f`` returns one
        finite real number per point, or one for all; anything else raises
        ``NonFiniteValue``.
    singularity : float
        Pole position, strictly inside (0, omega_max), and far enough from
        its ends that every probe rounds to a point other than it.
    grid : ContinuumGrid

    Returns
    -------
    float
        Subtracted quadrature plus the analytic logarithmic term.  Converges
        at the quadrature order of the underlying scheme as the grid refines.

    For continuous f the subtracted integrand at the probes approaches the
    derivative; a pole-like growth (factor ~4 per factor-4 shrink of the probe
    distance) on either side raises ``DiscontinuousAtSingularity``.
    """
    return _principal_value(f, singularity, grid)[0]


def _principal_value(f, singularity, grid: ContinuumGrid):
    """``principal_value`` and the f(singularity) it read."""
    if not callable(f):
        raise TypeError("principal_value needs a callable integrand")
    at = read_numbers(singularity)
    if isinstance(at, str) or at.ndim or not 0.0 < at < grid.omega_max:
        culprit = at if isinstance(at, str) else repr(singularity)
        raise SingularityOutsideSupport(
            f"singularity must be a number strictly inside (0, {grid.omega_max}), got {culprit}")
    d0 = min(grid.spacing_near(at), at, grid.omega_max - at) / 2
    d = d0 / np.array([1.0, 4.0, 16.0])
    points = np.concatenate(([at], at + d, at - d, grid.nodes))
    if np.any(points[1:7] == at):
        raise SingularityOutsideSupport(
            f"singularity {float(at)!r} is too close to an end of (0, {grid.omega_max}): "
            "its continuity probes round onto it")
    values = _read_integrand(f, points)
    f_at = values[0]

    # per side, farthest probe first: a jump makes each residual ~4x the one before
    residuals = np.abs((values[1:7] - f_at) / (points[1:7] - at)).reshape(2, 3)
    grows = (np.all(residuals[:, 1:] > 2.5 * residuals[:, :-1], axis=1) & (residuals[:, 0] > 0)
             & (residuals[:, 2] * d[2] > 1e-8 * max(abs(f_at), 1e-12)))
    if np.any(grows):
        raise DiscontinuousAtSingularity(
            f"subtracted integrand grows like a pole near {singularity}; "
            "the integrand appears discontinuous there")

    subtracted = (values[7:] - f_at) / (grid.nodes - at)
    log_term = f_at * np.log((grid.omega_max - at) / at)
    return float(np.dot(grid.weights, subtracted) + log_term), float(f_at)


def resolvent_boundary(f, singularity: float, grid: ContinuumGrid) -> complex:
    """Boundary value int f(w)/(w - i0 - singularity) dw = i*pi*f + PV.

    ``f`` is called once, as ``principal_value`` calls it.
    """
    pv, f_at = _principal_value(f, singularity, grid)
    return complex(pv, np.pi * f_at)
