"""Second-order complex spectrum of the dissipative generator.

Conventions (hbar = 1, state evolution multiplies each sector coefficient by
exp(i * lambda * t), so Im lambda >= 0 means damping):

    gamma_i   = 2 pi V(Omega_i, i)^2                    per-level decay rate
    delta_i   = PV int V(w, i)^2 / (w - Omega_i) dw     per-level shift
    lambda_d[i, j] = (Omega_i - Omega_j) - (delta_i - delta_j)
                     + i (gamma_i + gamma_j) / 2        discrete block
    lambda(u, i)   = u - Omega_i                        continuum-discrete, real
    lambda(i, u')  = Omega_i - u' - delta_i + i gamma_i / 2
    lambda(u, u')  = u - u'                             continuum-continuum, real

The discrete diagonal is lambda_d[i, i] = i gamma_i, and the continuum
diagonal eigenvalue is identically zero, which is what preserves the trace.
The imaginary part of lambda_d is computed directly as (gamma_i + gamma_j)/2
so the damping-rate identity holds exactly in floating point, and the real
part is assembled antisymmetrically so lambda_d[j, i] == -conj(lambda_d[i, j])
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuum import AtomicMeasure, ContinuumGrid, principal_value
from .errors import ModelInvalid
from .model import ModelSpec, coupling_at


def decay_rate(spec: ModelSpec, i: int) -> float:
    """Golden-rule width gamma_i = 2 pi V(Omega_i, i)^2 of level i."""
    v = coupling_at(spec, spec.levels[i], i)
    return 2.0 * np.pi * v * v


def level_shift(spec: ModelSpec, grid: ContinuumGrid, i: int) -> float:
    """Second-order shift delta_i = PV int V(w, i)^2 / (w - Omega_i) dw."""
    return principal_value(lambda w: coupling_at(spec, w, i) ** 2, spec.levels[i], grid)


@dataclass(frozen=True, eq=False)
class LiouvilleSpectrum:
    """Precomputed second-order spectrum for a validated model on a grid."""

    spec: ModelSpec
    grid: ContinuumGrid
    gamma: np.ndarray        # (N,) decay rates
    shift: np.ndarray        # (N,) PV shifts
    lambda_d: np.ndarray     # (N, N) complex discrete block

    @property
    def levels(self) -> np.ndarray:
        return self.spec.levels

    @property
    def n_levels(self) -> int:
        return self.spec.n_levels

    def lambda_continuum_discrete(self, u, i):
        """Eigenvalue of the (u, i) sector: u - Omega_i, real (i may be an index array)."""
        return np.asarray(u, float) - self.levels[i] + 0.0j

    def lambda_discrete_continuum(self, i, u):
        """Eigenvalue of the (i, u') sector, damped at gamma_i / 2 (i may be an index array)."""
        re = self.levels[i] - np.asarray(u, float) - self.shift[i]
        return re + 0.5j * self.gamma[i]

    def lambda_cc(self, u, uprime):
        """Eigenvalue of the off-diagonal continuum sector: u - u', real."""
        return np.asarray(u, float) - np.asarray(uprime, float) + 0.0j


def liouville_spectrum(spec: ModelSpec, grid: ContinuumGrid) -> LiouvilleSpectrum:
    """Compute rates, shifts and the discrete eigenvalue block.

    Raises ``ModelInvalid`` when a coupling large enough to overflow leaves
    any rate, shift or eigenvalue non-finite.
    """
    n = spec.n_levels
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.array([decay_rate(spec, i) for i in range(n)])
        shift = np.array([level_shift(spec, grid, i) for i in range(n)])
        # both differences are antisymmetric at the ulp level, the sum of rates
        # symmetric, so the pairing lambda_d[j, i] == -conj(lambda_d[i, j]) is exact
        re = (spec.levels[:, None] - spec.levels[None, :]) - (shift[:, None] - shift[None, :])
        im = (gamma[:, None] + gamma[None, :]) / 2.0
    finite = np.all(np.isfinite(re) & np.isfinite(im), axis=1)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ModelInvalid(
            f"the second-order spectrum of level {i} is not finite (gamma {gamma[i]:g}, "
            f"delta {shift[i]:g}); the coupling is too large")
    return LiouvilleSpectrum(spec=spec, grid=grid, gamma=gamma, shift=shift,
                             lambda_d=re + 1j * im)


@dataclass(frozen=True, eq=False)
class EigenvectorCorrections:
    """First-order eigenvector structure as evaluable coefficient rules.

    Every correction is built from the mixing ratio V(u, i) / (u - Omega_i),
    which is odd under exchanging its two energy slots.  Family assembly:

    - dressed diagonal vector of level i: unit (i, i) slot plus
      ``dressed_diagonal_mixing(i, w)`` on both level-continuum cross slots;
    - dressed off-diagonal (i, j) vector: row/col mixings below;
    - dual of the dressed diagonal vector: ``dual_diagonal(i)``;
    - the four continuum families carry ``+mixing_ratio(u, i)`` onto the
      (i, i) slot, ``-mixing_ratio(u, i)`` onto the continuum diagonal, and
      ``u' -> -mixing_ratio(u', i)`` onto the off-diagonal continuum sector.

    All rules vanish identically at zero coupling.
    """

    spec: ModelSpec
    grid: ContinuumGrid

    def mixing_ratio(self, u, i: int):
        """V(u, i) / (u - Omega_i): the universal first-order mixing weight."""
        return coupling_at(self.spec, u, i) / (np.asarray(u, float) - self.spec.levels[i])

    def dressed_diagonal_mixing(self, i: int, omega):
        """Coefficient of both level-continuum cross slots in the dressed
        diagonal vector of level i: V(w, i) / (Omega_i - w)."""
        return -self.mixing_ratio(omega, i)

    def dressed_offdiag_row_mixing(self, i: int, j: int, omega):
        """Coefficient of the (w, j) slot in the dressed (i, j) vector."""
        return -self.mixing_ratio(omega, i)

    def dressed_offdiag_col_mixing(self, i: int, j: int, omega):
        """Coefficient of the (i, w) slot in the dressed (i, j) vector."""
        return -self.mixing_ratio(omega, j)

    def dual_diagonal(self, i: int):
        """Dual functional of the dressed diagonal vector of level i.

        Returns (coefficient on the (i, i) slot, atomic part on the continuum
        diagonal).  The atom sits exactly at Omega_i with weight -1; it is
        kept as a point evaluation, never smeared onto the grid.
        """
        return 1.0, AtomicMeasure(locations=[self.spec.levels[i]], weights=[-1.0])


def eigenvector_corrections(spec: ModelSpec, grid: ContinuumGrid) -> EigenvectorCorrections:
    """First-order eigenvector corrections for a validated model."""
    return EigenvectorCorrections(spec=spec, grid=grid)
