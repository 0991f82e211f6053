"""Generalized states, eigenbasis decomposition, time evolution, equilibrium.

A state is a functional over the observable slots

    (i j|   discrete block          rho_d
    (w|     continuum diagonal      rho_omega_regular + rho_omega_atoms
    (i w|   level-continuum         rho_iomega
    (w i|   continuum-level         rho_omegai
    (w w'|  continuum off-diagonal  rho_omegaomega (optional, transient only)

and lives in one of two bases.  ``basis == "free"`` means the components are
physical occupations of the uncoupled observable basis.  ``decompose_initial``
rewrites them as coefficients against the damped eigenbasis duals
(``basis == "eigen"``): the only change is that the continuum diagonal gains
an atom of weight rho_d[i, i] at each level energy, because the dual of the
dressed (i, i) vector is (i i| minus a point evaluation there.  ``evolve``
then multiplies each sector by exp(i * lambda * t); the continuum diagonal has
lambda identically zero, so the trace it carries is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .continuum import AtomicMeasure, ContinuumGrid
from .errors import InvalidState, NegativeTime, TraceViolation
from .spectrum import LiouvilleSpectrum

_TRACE_TOL = 1e-10
_HERM_TOL = 1e-10

BASIS_FREE = "free"
BASIS_EIGEN = "eigen"


@dataclass(eq=False)
class GeneralizedState:
    """Sector components of a generalized state on a fixed grid."""

    grid: ContinuumGrid
    rho_omega_regular: np.ndarray
    rho_omega_atoms: AtomicMeasure
    rho_d: np.ndarray
    rho_iomega: np.ndarray
    rho_omegai: np.ndarray
    rho_omegaomega: np.ndarray | None = None
    basis: str = BASIS_FREE

    def __post_init__(self):
        self.rho_omega_regular = np.asarray(self.rho_omega_regular, float)
        self.rho_d = np.asarray(self.rho_d, complex)
        self.rho_iomega = np.asarray(self.rho_iomega, complex)
        self.rho_omegai = np.asarray(self.rho_omegai, complex)
        if self.rho_omega_regular.shape != self.grid.nodes.shape:
            raise InvalidState("rho_omega_regular must match the grid size")
        n = self.rho_d.shape[0]
        if self.rho_d.shape != (n, n):
            raise InvalidState("rho_d must be square")
        if self.rho_iomega.shape != (n, self.grid.size) or self.rho_omegai.shape != (n, self.grid.size):
            raise InvalidState("mixed sectors must have shape (n_levels, grid size)")

    @property
    def n_levels(self) -> int:
        return self.rho_d.shape[0]

    def trace(self) -> float:
        """Physical trace carried by the state in its current basis.

        In the eigen basis the discrete coefficients pair with traceless
        duals, so only the continuum diagonal contributes.
        """
        cont = float(np.dot(self.grid.weights, self.rho_omega_regular)) + self.rho_omega_atoms.total()
        if self.basis == BASIS_EIGEN:
            return cont
        return cont + float(np.sum(np.real(np.diag(self.rho_d))))

    def hermiticity_defect(self) -> float:
        """Largest deviation from Hermitian pairing across stored sectors."""
        defect = float(np.max(np.abs(self.rho_d - self.rho_d.conj().T), initial=0.0))
        if self.rho_omegaomega is not None:
            defect = max(defect, float(np.max(np.abs(self.rho_omegaomega - self.rho_omegaomega.conj().T))))
        return defect

    def validate(self, tol: float = _TRACE_TOL) -> "GeneralizedState":
        """Check the physical-state invariants (free basis) and return self."""
        if np.any(self.rho_omega_regular < -1e-12):
            raise InvalidState("continuum diagonal density must be >= 0")
        if np.any(self.rho_omega_atoms.weights < -1e-12):
            raise InvalidState("atom weights must be >= 0")
        if self.hermiticity_defect() > _HERM_TOL:
            raise InvalidState("rho_d (and rho_omegaomega) must be Hermitian")
        if np.any(np.real(np.diag(self.rho_d)) < -1e-12):
            raise InvalidState("discrete occupations must be >= 0")
        if np.max(np.abs(self.rho_iomega - self.rho_omegai.conj()), initial=0.0) > _HERM_TOL:
            raise InvalidState("mixed sectors must be conjugates of each other")
        tr = self.trace()
        if abs(tr - 1.0) > tol:
            raise TraceViolation(f"state trace is {tr!r}, expected 1 within {tol}")
        return self

    def copy(self) -> "GeneralizedState":
        return replace(
            self,
            rho_omega_regular=self.rho_omega_regular.copy(),
            rho_omega_atoms=AtomicMeasure(self.rho_omega_atoms.locations.copy(),
                                          self.rho_omega_atoms.weights.copy()),
            rho_d=self.rho_d.copy(),
            rho_iomega=self.rho_iomega.copy(),
            rho_omegai=self.rho_omegai.copy(),
            rho_omegaomega=None if self.rho_omegaomega is None else self.rho_omegaomega.copy(),
        )


def zero_state(grid: ContinuumGrid, n_levels: int) -> GeneralizedState:
    """All-zero state container (not a valid physical state by itself)."""
    m = grid.size
    return GeneralizedState(
        grid=grid,
        rho_omega_regular=np.zeros(m),
        rho_omega_atoms=AtomicMeasure.empty(),
        rho_d=np.zeros((n_levels, n_levels), complex),
        rho_iomega=np.zeros((n_levels, m), complex),
        rho_omegai=np.zeros((n_levels, m), complex),
    )


def discrete_state(grid: ContinuumGrid, rho_d) -> GeneralizedState:
    """State with only the discrete block occupied."""
    rho_d = np.asarray(rho_d, complex)
    state = zero_state(grid, rho_d.shape[0])
    state.rho_d = rho_d.copy()
    return state


def continuous_state(grid: ContinuumGrid, density, n_levels: int = 1) -> GeneralizedState:
    """State with only the regular continuum diagonal occupied."""
    state = zero_state(grid, n_levels)
    state.rho_omega_regular = np.asarray(density, float).copy()
    return state


def _shift_level_atoms(state: GeneralizedState, spectrum: LiouvilleSpectrum,
                       sign: float, basis: str) -> GeneralizedState:
    """Copy of ``state`` in ``basis`` with sign * rho_d[i, i] added to the
    continuum-diagonal atom at each level energy."""
    out = state.copy()
    atoms = out.rho_omega_atoms
    for i in range(spectrum.n_levels):
        weight = float(np.real(state.rho_d[i, i]))
        if weight != 0.0:
            atoms = atoms.adding(float(spectrum.levels[i]), sign * weight)
    out.rho_omega_atoms = atoms
    out.basis = basis
    return out


def decompose_initial(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Rewrite a free-basis state as eigenbasis coefficients.

    The discrete occupations stay in place and the continuum diagonal gains
    an atom of the same weight at each level energy; everything else is
    already diagonal at this order.  Raises ``TraceViolation`` when the input
    does not have unit trace.
    """
    if state.basis != BASIS_FREE:
        raise ValueError("decompose_initial expects a free-basis state")
    state.validate()
    return _shift_level_atoms(state, spectrum, 1.0, BASIS_EIGEN)


def recompose(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Inverse of ``decompose_initial``: back to physical free-basis components."""
    if state.basis != BASIS_EIGEN:
        raise ValueError("recompose expects an eigen-basis state")
    return _shift_level_atoms(state, spectrum, -1.0, BASIS_FREE)


def evolve(state: GeneralizedState, spectrum: LiouvilleSpectrum, t: float) -> GeneralizedState:
    """Multiply every sector coefficient by its exp(i * lambda * t).

    The continuum diagonal (rate zero) is left untouched, so the trace is
    conserved identically for all t.
    """
    if t < 0:
        raise NegativeTime(f"evolution time must be >= 0, got {t}")
    if state.basis != BASIS_EIGEN:
        raise ValueError("evolve expects eigen-basis coefficients; call decompose_initial first")
    out = state.copy()
    out.rho_d = state.rho_d * np.exp(1j * spectrum.lambda_d * t)

    nodes = state.grid.nodes
    for i in range(spectrum.n_levels):
        out.rho_omegai[i, :] = state.rho_omegai[i, :] * np.exp(
            1j * spectrum.lambda_continuum_discrete(nodes, i) * t)
        out.rho_iomega[i, :] = state.rho_iomega[i, :] * np.exp(
            1j * spectrum.lambda_discrete_continuum(i, nodes) * t)
    if state.rho_omegaomega is not None:
        phase = np.exp(1j * nodes * t)
        out.rho_omegaomega = state.rho_omegaomega * np.outer(phase, phase.conj())
    return out


def diagonal_evolution(state: GeneralizedState, spectrum: LiouvilleSpectrum, t: float):
    """Projected evolution of a purely discrete diagonal initial state.

    Returns (discrete weights, pointer-atom weights) at time t:
    p_i * exp(-gamma_i t) and p_i * (1 - exp(-gamma_i t)), whose sum is the
    initial occupation p_i exactly.
    """
    if t < 0:
        raise NegativeTime(f"evolution time must be >= 0, got {t}")
    if state.basis != BASIS_FREE:
        raise ValueError("diagonal_evolution expects the free-basis initial state")
    off_diag = state.rho_d - np.diag(np.diag(state.rho_d))
    if (np.max(np.abs(off_diag), initial=0.0) > 1e-12
            or np.max(np.abs(state.rho_iomega), initial=0.0) > 1e-12
            or np.max(np.abs(state.rho_omegai), initial=0.0) > 1e-12
            or np.max(np.abs(state.rho_omega_regular), initial=0.0) > 1e-12
            or state.rho_omega_atoms.total() > 1e-12):
        raise ValueError("diagonal_evolution needs a purely discrete diagonal state")
    p0 = np.real(np.diag(state.rho_d))
    decay = np.exp(-spectrum.gamma * t)
    return p0 * decay, p0 * (1.0 - decay)


@dataclass(frozen=True, eq=False)
class EquilibriumState:
    """The surviving t -> infinity content: continuum density plus level atoms."""

    grid: ContinuumGrid
    continuous: np.ndarray
    atoms: AtomicMeasure

    def total_mass(self) -> float:
        return float(np.dot(self.grid.weights, self.continuous)) + self.atoms.total()


def equilibrium(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> EquilibriumState:
    """Drop every damped or dephasing sector and keep the invariant one.

    The limit is structural: all sectors except the continuum diagonal carry
    eigenvalues with positive imaginary part or nonzero oscillation frequency,
    so none of them survives.  Large-t numerics never enter.
    """
    if state.basis == BASIS_FREE:
        state = decompose_initial(state, spectrum)
    eq = EquilibriumState(
        grid=state.grid,
        continuous=state.rho_omega_regular.copy(),
        atoms=AtomicMeasure(state.rho_omega_atoms.locations.copy(),
                            state.rho_omega_atoms.weights.copy()),
    )
    if np.any(eq.continuous < -1e-12) or np.any(eq.atoms.weights < -1e-12):
        raise ValueError("equilibrium components must be >= 0")
    if abs(eq.total_mass() - 1.0) > _TRACE_TOL:
        raise TraceViolation(f"equilibrium mass is {eq.total_mass()!r}, expected 1")
    return eq
