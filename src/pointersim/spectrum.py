"""Second-order complex spectrum of the dissipative generator.

Conventions (hbar = 1, state evolution multiplies each sector coefficient by
exp(i * lambda * t), so Im lambda >= 0 means damping):

    gamma_i   = 2 pi V(Omega_i, i)^2                    per-level decay rate
    delta_i   = PV int V(w, i)^2 / (w - Omega_i) dw     per-level shift
    lambda_d[i, j] = (Omega_i - Omega_j) - (delta_i - delta_j)
                     + i (gamma_i + gamma_j) / 2        discrete block
    lambda(i, u')  = Omega_i - u' - delta_i + i gamma_i / 2   level-continuum
    lambda(u, i)   = -conj(lambda(i, u))                continuum-level, its conjugate

``LiouvilleSpectrum`` evaluates lambda_d and lambda(i, u') only: ``evolve``
stores the (u, i) sector as the conjugate of the (i, u) one.  The
continuum-continuum eigenvalue u - u' is real, and no state stores a (u, u')
sector for it to phase.

The discrete diagonal is lambda_d[i, i] = i gamma_i, and the continuum
diagonal eigenvalue is identically zero, which is what preserves the trace.
The imaginary part of lambda_d is computed directly as (gamma_i + gamma_j)/2
so the damping-rate identity holds exactly in floating point, and the real
part is assembled antisymmetrically so lambda_d[j, i] == -conj(lambda_d[i, j])
exactly.

``liouville_spectrum`` is the one place gamma and delta are computed: it
reads V(Omega_i, i) once per level and forms gamma = 2.0 * pi * v * v in that
product order (squaring v first moves gamma by an ulp for some amplitudes), and
takes each delta_i from one ``principal_value`` call.  Readers use
``LiouvilleSpectrum.gamma`` and ``.shift``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import require_numbers
from .continuum import ContinuumGrid, principal_value
from .errors import ModelInvalid, OutOfSupport
from .model import ModelSpec, coupling_at


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

    def lambda_discrete_continuum(self, u):
        """Eigenvalues of the (i, u') sectors, damped at gamma_i / 2: row i of
        the result, shape (N,) + shape(u), is level i's.

        Energies ``u`` that are not finite real numbers raise ``OutOfSupport``.
        """
        u = require_numbers(u, OutOfSupport, "u must be finite real numbers")
        column = (slice(None),) + (None,) * u.ndim
        re = self.levels[column] - u - self.shift[column]
        return re + 0.5j * self.gamma[column]


def liouville_spectrum(spec: ModelSpec, grid: ContinuumGrid) -> LiouvilleSpectrum:
    """Compute rates, shifts and the discrete eigenvalue block.

    Raises ``ModelInvalid`` when a coupling large enough to overflow leaves
    any rate, shift or eigenvalue non-finite.
    """
    n = spec.n_levels
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.array([coupling_at(spec, spec.levels[i], i) for i in range(n)])
        gamma = 2.0 * np.pi * v * v
        shift = np.array([principal_value(lambda w: coupling_at(spec, w, i) ** 2, spec.levels[i], grid)
                          for i in range(n)])
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
