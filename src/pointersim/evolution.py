"""Generalized states, eigenbasis decomposition, time evolution, equilibrium.

A state is a functional over the observable slots

    (i j|   discrete block          rho_d
    (w|     continuum diagonal      rho_omega_regular + rho_omega_atoms
    (i w|   level-continuum         rho_iomega      (optional)
    (w i|   continuum-level         rho_omegai      (optional)
    (w w'|  continuum off-diagonal  rho_omegaomega  (optional, transient only)

and lives in one of two bases.  ``basis == "free"`` means the components are
physical occupations of the uncoupled observable basis.  ``decompose_initial``
rewrites them as coefficients against the damped eigenbasis duals
(``basis == "eigen"``): the only change is that the continuum diagonal gains
an atom of weight rho_d[i, i] at each level energy, because the dual of the
dressed (i, i) vector is (i i| minus a point evaluation there.  ``evolve``
then multiplies each sector by exp(i * lambda * t); the continuum diagonal has
lambda identically zero, so the trace it carries is conserved exactly.

An optional sector that is ``None`` is identically zero, and every transform
keeps it ``None``: a zero coefficient stays zero under exp(i * lambda * t), so
evolving an absent sector costs nothing.  The two mixed sectors are present or
absent together.  ``zero_state``, ``discrete_state`` and ``continuous_state``
leave all three optional sectors absent, so the premeasured states of
``measurement`` carry no level-continuum arrays at all.

States are values: a ``GeneralizedState`` never changes after construction.
Its sectors are read-only views, and each state-to-state transform returns a
``dataclasses.replace`` of its input that shares every sector it leaves
unchanged.  The constructor does not copy; ``discrete_state`` and
``continuous_state`` copy the caller's array once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .continuum import AtomicMeasure, ContinuumGrid, read_only
from .errors import InvalidState, NegativeTime, TraceViolation
from .spectrum import LiouvilleSpectrum

_TRACE_TOL = 1e-10
_HERM_TOL = 1e-10

BASIS_FREE = "free"
BASIS_EIGEN = "eigen"

_SECTOR_DTYPES = (("rho_omega_regular", float), ("rho_d", complex), ("rho_iomega", complex),
                  ("rho_omegai", complex), ("rho_omegaomega", complex))


@dataclass(frozen=True, eq=False)
class GeneralizedState:
    """Sector components of a generalized state on a fixed grid; immutable."""

    grid: ContinuumGrid
    rho_omega_regular: np.ndarray
    rho_omega_atoms: AtomicMeasure
    rho_d: np.ndarray
    rho_iomega: np.ndarray | None = None
    rho_omegai: np.ndarray | None = None
    rho_omegaomega: np.ndarray | None = None
    basis: str = BASIS_FREE

    def __post_init__(self):
        for name, dtype in _SECTOR_DTYPES:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(value, dtype))
        if self.rho_omega_regular.shape != self.grid.nodes.shape:
            raise InvalidState("rho_omega_regular must match the grid size")
        n = self.rho_d.shape[0]
        if self.rho_d.shape != (n, n):
            raise InvalidState("rho_d must be square")
        if (self.rho_iomega is None) != (self.rho_omegai is None):
            raise InvalidState("mixed sectors must be present or absent together")
        if self.rho_iomega is not None and not (
                self.rho_iomega.shape == self.rho_omegai.shape == (n, self.grid.size)):
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

    def validate(self) -> "GeneralizedState":
        """Check the physical-state invariants (free basis) and return self."""
        if np.any(self.rho_omega_regular < -1e-12):
            raise InvalidState("continuum diagonal density must be >= 0")
        if np.any(self.rho_omega_atoms.weights < -1e-12):
            raise InvalidState("atom weights must be >= 0")
        if self.hermiticity_defect() > _HERM_TOL:
            raise InvalidState("rho_d (and rho_omegaomega) must be Hermitian")
        if np.any(np.real(np.diag(self.rho_d)) < -1e-12):
            raise InvalidState("discrete occupations must be >= 0")
        if self.rho_iomega is not None and np.max(
                np.abs(self.rho_iomega - self.rho_omegai.conj()), initial=0.0) > _HERM_TOL:
            raise InvalidState("mixed sectors must be conjugates of each other")
        tr = self.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise TraceViolation(f"state trace is {tr!r}, expected 1 within {_TRACE_TOL}")
        return self


def zero_state(grid: ContinuumGrid, n_levels: int) -> GeneralizedState:
    """All-zero state container (not a valid physical state by itself); its
    optional sectors are absent."""
    return GeneralizedState(
        grid=grid,
        rho_omega_regular=np.zeros(grid.size),
        rho_omega_atoms=AtomicMeasure.empty(),
        rho_d=np.zeros((n_levels, n_levels), complex),
    )


def discrete_state(grid: ContinuumGrid, rho_d) -> GeneralizedState:
    """State with only the discrete block occupied (a private copy of rho_d)."""
    rho_d = np.array(rho_d, complex)
    return replace(zero_state(grid, rho_d.shape[0]), rho_d=rho_d)


def continuous_state(grid: ContinuumGrid, density, n_levels: int = 1) -> GeneralizedState:
    """State with only the regular continuum diagonal occupied (a private copy)."""
    return replace(zero_state(grid, n_levels), rho_omega_regular=np.array(density, float))


def _check_input(state: GeneralizedState, spectrum: LiouvilleSpectrum, basis: str, message: str):
    """Refuse a state not in ``basis`` or with another level count than ``spectrum``."""
    if state.basis != basis:
        raise InvalidState(message)
    if state.n_levels != spectrum.n_levels:
        raise InvalidState(f"state has {state.n_levels} levels, spectrum has {spectrum.n_levels}")


def _shift_level_atoms(state: GeneralizedState, spectrum: LiouvilleSpectrum,
                       sign: float, basis: str) -> GeneralizedState:
    """``state`` in ``basis`` with sign * rho_d[i, i] added to the
    continuum-diagonal atom at each level energy."""
    weights = np.real(np.diag(state.rho_d))
    occupied = weights != 0.0
    atoms = state.rho_omega_atoms.merging(spectrum.levels[occupied], sign * weights[occupied])
    return replace(state, rho_omega_atoms=atoms, basis=basis)


def decompose_initial(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Rewrite a free-basis state as eigenbasis coefficients.

    The discrete occupations stay in place and the continuum diagonal gains
    an atom of the same weight at each level energy; everything else is
    already diagonal at this order.  Raises ``TraceViolation`` when the input
    does not have unit trace.
    """
    _check_input(state, spectrum, BASIS_FREE, "decompose_initial expects a free-basis state")
    state.validate()
    return _shift_level_atoms(state, spectrum, 1.0, BASIS_EIGEN)


def recompose(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Inverse of ``decompose_initial``: back to physical free-basis components."""
    _check_input(state, spectrum, BASIS_EIGEN, "recompose expects an eigen-basis state")
    return _shift_level_atoms(state, spectrum, -1.0, BASIS_FREE)


def evolve(state: GeneralizedState, spectrum: LiouvilleSpectrum, t: float) -> GeneralizedState:
    """Multiply every present sector coefficient by its exp(i * lambda * t).

    The continuum diagonal (rate zero) and its atoms are shared with the
    input, so the trace is conserved identically for all t.  Absent sectors
    stay absent.
    """
    if t < 0:
        raise NegativeTime(f"evolution time must be >= 0, got {t}")
    _check_input(state, spectrum, BASIS_EIGEN,
                 "evolve expects eigen-basis coefficients; call decompose_initial first")
    nodes = state.grid.nodes
    rho_iomega, rho_omegai = state.rho_iomega, state.rho_omegai
    rho_omegaomega = state.rho_omegaomega
    if rho_iomega is not None:
        levels = np.arange(spectrum.n_levels)[:, None]
        rho_omegai = rho_omegai * np.exp(1j * spectrum.lambda_continuum_discrete(nodes, levels) * t)
        rho_iomega = rho_iomega * np.exp(1j * spectrum.lambda_discrete_continuum(levels, nodes) * t)
    if rho_omegaomega is not None:
        phase = np.exp(1j * nodes * t)
        rho_omegaomega = rho_omegaomega * np.outer(phase, phase.conj())
    return replace(
        state,
        rho_d=state.rho_d * np.exp(1j * spectrum.lambda_d * t),
        rho_omegai=rho_omegai,
        rho_iomega=rho_iomega,
        rho_omegaomega=rho_omegaomega,
    )


def diagonal_evolution(state: GeneralizedState, spectrum: LiouvilleSpectrum, t: float):
    """Projected evolution of a purely discrete diagonal initial state.

    Returns (discrete weights, pointer-atom weights) at time t:
    p_i * exp(-gamma_i t) and p_i * (1 - exp(-gamma_i t)), whose sum is the
    initial occupation p_i exactly.
    """
    if t < 0:
        raise NegativeTime(f"evolution time must be >= 0, got {t}")
    _check_input(state, spectrum, BASIS_FREE, "diagonal_evolution expects the free-basis initial state")
    off_diag = state.rho_d - np.diag(np.diag(state.rho_d))
    mixed = () if state.rho_iomega is None else (state.rho_iomega, state.rho_omegai)
    if (any(np.max(np.abs(sector), initial=0.0) > 1e-12
            for sector in (off_diag, *mixed, state.rho_omega_regular))
            or state.rho_omega_atoms.total() > 1e-12):
        raise InvalidState("diagonal_evolution needs a purely discrete diagonal state")
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
    eq = EquilibriumState(grid=state.grid, continuous=state.rho_omega_regular,
                          atoms=state.rho_omega_atoms)
    if np.any(eq.continuous < -1e-12) or np.any(eq.atoms.weights < -1e-12):
        raise InvalidState("equilibrium components must be >= 0")
    if abs(eq.total_mass() - 1.0) > _TRACE_TOL:
        raise TraceViolation(f"equilibrium mass is {eq.total_mass()!r}, expected 1")
    return eq
