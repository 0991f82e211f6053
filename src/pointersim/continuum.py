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

from .errors import (
    DiscontinuousAtSingularity,
    InvalidGrid,
    InvalidState,
    NegativeTime,
    NonFiniteValue,
    SingularityOutsideSupport,
    TooFewNodes,
)

log = logging.getLogger(__name__)

GRID_SCHEMES = ("uniform-midpoint", "gauss-legendre-composite")

_MIN_NODES = 16
_GL_ORDER = 4


def check_time(t) -> np.ndarray:
    """Evolution times ``t``, a real scalar or an array of any shape, as floats.

    Refuses with ``NegativeTime`` any time that is not an integer or a float
    (bool, complex, str, object and None, and a bool inside a list), before
    any conversion, so that no string is parsed as a time; then any that is
    negative, NaN or infinite.
    The message names the first bad entry.
    """
    try:
        times = np.asarray(t)
    except ValueError as exc:  # numpy refuses a ragged sequence
        raise NegativeTime("evolution time must be real, finite and >= 0, got a ragged "
                           "sequence") from exc
    flag = first_bool(t)
    if flag is not None:
        raise NegativeTime(f"evolution time must be real, finite and >= 0, got {flag!r}")
    if times.dtype.kind in "iuf":
        bad = times[~(np.isfinite(times) & (times >= 0))]
        if not bad.size:
            return np.asarray(times, float)
    else:
        bad = times.ravel()
    first = repr(bad[:1].tolist()[0]) if bad.size else f"an empty {times.dtype} array"
    raise NegativeTime(f"evolution time must be real, finite and >= 0, got {first}")


def check_amplitudes(values) -> np.ndarray:
    """A complex copy of ``values``, which must hold finite integers, floats
    and complex numbers only.

    Anything else raises ``InvalidState`` before any conversion: a boolean
    (a bool inside a list too), a string, None or another object, a ragged
    list, NaN or an infinity.
    """
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # numpy refuses a ragged sequence
        raise InvalidState("amplitudes must be finite numbers, got a ragged sequence") from exc
    flag = first_bool(values)
    if flag is not None or raw.dtype.kind not in "iufc":
        got = repr(flag) if flag is not None else f"{raw.dtype} entries"
        raise InvalidState(f"amplitudes must be finite numbers, got {got}")
    amplitudes = np.array(raw, complex)
    if not np.all(np.isfinite(amplitudes)):
        raise InvalidState("amplitudes must be finite numbers, got NaN or an infinity")
    return amplitudes


def first_bool(value):
    """The first boolean in ``value``, a list or tuple walked entry by entry
    at any depth, or None.

    numpy reads a boolean among numbers as 0 or 1, so every reader of
    numeric input refuses a list that holds one.  Arrays are not walked: a
    numeric array holds no booleans.
    """
    if isinstance(value, (list, tuple)):
        for entry in value:
            flag = first_bool(entry)
            if flag is not None:
                return flag
        return None
    return value if isinstance(value, (bool, np.bool_)) else None


def read_only(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype``; no copy when the dtype matches."""
    view = np.asarray(values, dtype).view()
    view.flags.writeable = False
    return view


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
    if m < _MIN_NODES:
        raise TooFewNodes(f"need at least {_MIN_NODES} nodes, got {m}")
    if omega_max <= 0 or not np.isfinite(omega_max):
        raise InvalidGrid(f"omega_max must be positive and finite, got {omega_max}")

    try:
        if scheme == "uniform-midpoint":
            h = omega_max / m
            nodes = (np.arange(m) + 0.5) * h
            weights = np.full(m, h)
        elif scheme == "gauss-legendre-composite":
            panels = m // _GL_ORDER
            x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
            edges = np.linspace(0.0, omega_max, panels + 1)
            half = np.diff(edges) / 2
            mid = (edges[:-1] + edges[1:]) / 2
            nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
            weights = (half[:, None] * w[None, :]).ravel()
        else:
            raise InvalidGrid(f"unknown grid scheme '{scheme}'")
    except MemoryError as exc:
        raise InvalidGrid(f"grid.m = {m} nodes do not fit in memory") from exc

    for target in np.atleast_1d(np.asarray(avoid, float)):
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


def _check_continuity(f, singularity: float, grid: ContinuumGrid, f_at: float):
    """Probe the subtracted integrand approaching the singularity.

    For continuous f the probes approach the derivative; a pole-like growth
    (factor ~4 per factor-4 shrink of the probe distance) signals a jump.
    The probes start half a node spacing away, or half the distance to the
    nearer end of the support if that is closer, so they stay inside it.
    """
    edge = min(singularity, grid.omega_max - singularity)
    d0 = min(grid.spacing_near(singularity), edge) / 2
    scale = max(abs(f_at), 1e-12)
    for side in (1.0, -1.0):
        residuals = []
        for d in (d0, d0 / 4, d0 / 16):
            x = singularity + side * d
            residuals.append(abs((float(f(x)) - f_at) / (x - singularity)))
        if (residuals[2] > 2.5 * residuals[1] > 0
                and residuals[1] > 2.5 * residuals[0] > 0
                and residuals[2] * d0 / 16 > 1e-8 * scale):
            raise DiscontinuousAtSingularity(
                f"subtracted integrand grows like a pole near {singularity}; "
                "the integrand appears discontinuous there"
            )


def principal_value(f, singularity: float, grid: ContinuumGrid) -> float:
    """Cauchy principal value of int_0^omega_max f(w)/(w - singularity) dw.

    Parameters
    ----------
    f : callable
        Real function, continuous at the singularity; evaluated on grid
        nodes and at probe points next to the singularity.
    singularity : float
        Pole position, strictly inside (0, omega_max).
    grid : ContinuumGrid

    Returns
    -------
    float
        Subtracted quadrature plus the analytic logarithmic term.  Converges
        at the quadrature order of the underlying scheme as the grid refines.
    """
    if not callable(f):
        raise TypeError("principal_value needs a callable integrand")
    if not 0.0 < singularity < grid.omega_max:
        raise SingularityOutsideSupport(
            f"singularity {singularity} not strictly inside (0, {grid.omega_max})"
        )
    f_at = float(f(singularity))
    if not np.isfinite(f_at):
        raise NonFiniteValue("integrand is not finite at the singularity")
    _check_continuity(f, singularity, grid, f_at)

    values = np.broadcast_to(np.asarray(f(grid.nodes), float), grid.nodes.shape)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("integrand is not finite on every grid node")
    subtracted = (values - f_at) / (grid.nodes - singularity)
    log_term = f_at * np.log((grid.omega_max - singularity) / singularity)
    return float(np.dot(grid.weights, subtracted) + log_term)


def resolvent_boundary(f, singularity: float, grid: ContinuumGrid) -> complex:
    """Boundary value int f(w)/(w - i0 - singularity) dw = i*pi*f + PV."""
    pv = principal_value(f, singularity, grid)
    return complex(pv, np.pi * float(f(singularity)))
