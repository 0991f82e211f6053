"""Premeasurement, pointer-basis readout, CSCO blocks and classical profiles.

The readout layer adds no dynamics of its own: correlating the measured
system with the apparatus produces a rank-one discrete state, and the
probabilities attached to the pointer atoms are exactly the equilibrium
content of that state under the dissipative evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuum import ContinuumGrid
from .errors import InvalidState, NonHermitianBlock, NotNormalized
from .evolution import EquilibriumState, GeneralizedState, discrete_state, equilibrium
from .spectrum import LiouvilleSpectrum

_NORM_TOL = 1e-12
_HERM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """Complex amplitudes of the premeasured superposition."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.atleast_1d(np.asarray(self.amplitudes, complex)))

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def premeasure(setup: MeasurementSetup, grid: ContinuumGrid) -> GeneralizedState:
    """Rank-one discrete state rho_d[i, j] = conj(a_i) a_j after correlation."""
    if abs(setup.norm_squared() - 1.0) > _NORM_TOL:
        raise NotNormalized(f"sum |a_i|^2 = {setup.norm_squared()!r}, expected 1")
    rho_d = np.outer(np.conj(setup.amplitudes), setup.amplitudes)
    return discrete_state(grid, rho_d)


def readout(setup: MeasurementSetup, spectrum: LiouvilleSpectrum):
    """Pointer probabilities: (level energy, |a_i|^2) pairs.

    Computed literally as the equilibrium atoms of the premeasured state, so
    any change to the evolution layer propagates here.
    """
    state = premeasure(setup, spectrum.grid)
    eq = equilibrium(state, spectrum)
    return list(zip(spectrum.levels.tolist(), eq.atoms.weights_at(spectrum.levels).tolist()))


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
        block = np.asarray(block, complex)
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise NonHermitianBlock(f"block {k} is not square: shape {block.shape}")
        if np.max(np.abs(block - block.conj().T), initial=0.0) > _HERM_TOL:
            raise NonHermitianBlock(f"block {k} is not Hermitian")
        results.append(_ordered_eigenpairs(block))
    return results


@dataclass(frozen=True, eq=False)
class ClassicalProfile:
    """Classical rendering of an equilibrium state.

    Atoms are (energy, weight, label) triples concentrated on the conserved
    quantities; the continuous part is a density on the grid.  The labels are
    carried as metadata only.
    """

    grid: ContinuumGrid
    atom_locations: np.ndarray
    atom_weights: np.ndarray
    atom_labels: tuple
    continuous: np.ndarray

    def atoms(self):
        return list(zip(self.atom_locations.tolist(), self.atom_weights.tolist(), self.atom_labels))

    def total_mass(self) -> float:
        return float(np.dot(self.grid.weights, self.continuous)) + float(np.sum(self.atom_weights))


def classical_profile(eq: EquilibriumState, labels=None) -> ClassicalProfile:
    """Re-express an equilibrium state as weighted classical atoms + density.

    ``labels`` attaches one CSCO label per atom (default 0).  This is a
    representation change only; it shares the weight and density arrays.
    """
    n_atoms = len(eq.atoms.locations)
    labels = (0,) * n_atoms if labels is None else tuple(labels)
    if len(labels) != n_atoms:
        raise InvalidState(f"expected {n_atoms} labels, got {len(labels)}")
    if np.any(eq.atoms.weights < 0) or np.any(eq.continuous < 0):
        raise InvalidState("classical profile components must be >= 0")
    return ClassicalProfile(
        grid=eq.grid,
        atom_locations=eq.atoms.locations,
        atom_weights=eq.atoms.weights,
        atom_labels=labels,
        continuous=eq.continuous,
    )
