"""Premeasurement, pointer-basis readout and CSCO blocks.

The readout layer adds no dynamics of its own: correlating the measured
system with the apparatus produces a rank-one discrete state, and the
probabilities attached to the pointer atoms are the atoms of that state's
``equilibrium``, the t -> infinity state of the dissipative evolution.  Its
input, a ``MeasurementSetup``, is normalized by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import check_amplitudes, read_numbers, read_only
from .continuum import ContinuumGrid
from .errors import InvalidState, NonHermitianBlock, NotNormalized
from .evolution import GeneralizedState, discrete_state, equilibrium
from .spectrum import LiouvilleSpectrum

_NORM_TOL = 1e-12
_HERM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """Complex amplitudes of the premeasured superposition: a finite 1-d vector
    (else ``InvalidState``) with sum |a_i|^2 = 1 (else ``NotNormalized``)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = read_only(np.atleast_1d(check_amplitudes(self.amplitudes)), complex)
        if a.ndim != 1:
            raise InvalidState(f"amplitudes must be a 1-d vector, got shape {a.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf: NotNormalized
            total = float(np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > _NORM_TOL:
            raise NotNormalized(f"sum |a_i|^2 = {total!r}, expected 1")
        object.__setattr__(self, "amplitudes", a)


def premeasure(setup: MeasurementSetup, grid: ContinuumGrid) -> GeneralizedState:
    """Rank-one discrete state rho_d[i, j] = conj(a_i) a_j after correlation."""
    rho_d = np.outer(np.conj(setup.amplitudes), setup.amplitudes)
    return discrete_state(grid, rho_d)


def readout(setup: MeasurementSetup, spectrum: LiouvilleSpectrum):
    """Pointer probabilities: (level energy, |a_i|^2) pairs.

    Read literally from ``rho_omega_atoms`` of the premeasured state's
    equilibrium, so any change to the evolution layer propagates here.
    """
    final = equilibrium(premeasure(setup, spectrum.grid), spectrum)
    return list(zip(spectrum.levels.tolist(), final.rho_omega_atoms.tolist()))


def _ordered_eigenpairs(block: np.ndarray):
    """Eigenpairs ordered for readout and fixed in phase.

    A block that is already diagonal keeps its label order (identity
    rotation); genuinely mixing blocks list the dominant weight first.  Each
    eigenvector's largest component is made real and positive so repeated
    runs produce identical rotations.
    """
    weights, rotation = np.linalg.eigh(block)
    order = np.argsort(weights)[::-1]
    weights, rotation = weights[order], rotation[:, order]

    anchor = np.argmax(np.abs(rotation), axis=0)
    if len(set(anchor.tolist())) == len(anchor):
        placed_w = np.empty_like(weights)
        placed_r = np.empty_like(rotation)
        placed_w[anchor] = weights
        placed_r[:, anchor] = rotation
        weights, rotation = placed_w, placed_r

    for k in range(rotation.shape[1]):
        pivot = rotation[np.argmax(np.abs(rotation[:, k])), k]
        if pivot != 0:
            rotation[:, k] *= np.conj(pivot) / abs(pivot)
    return weights, rotation


def csco_diagonalize(blocks):
    """Diagonalize per-energy Hermitian blocks over the extra labels.

    Returns one (eigenweights, rotation) pair per block: the weights are the
    block's eigenvalues in the rotated label basis, and the rotation columns
    are the corresponding orthonormal eigenvectors.
    """
    results = []
    for k, block in enumerate(blocks):
        # finite first, so that a NaN cannot pass the comparison below
        block = read_numbers(block, complex)
        if isinstance(block, str):
            raise NonHermitianBlock(f"block {k} is not finite or not numeric, got {block}")
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise NonHermitianBlock(f"block {k} is not square: shape {block.shape}")
        if np.max(np.abs(block - block.conj().T), initial=0.0) > _HERM_TOL:
            raise NonHermitianBlock(f"block {k} is not Hermitian")
        results.append(_ordered_eigenpairs(block))
    return results
