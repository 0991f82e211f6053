"""Generalized states, eigenbasis decomposition, time evolution, equilibrium.

A state is a functional over the observable slots

    (i j|   discrete block          rho_d
    (w|     continuum diagonal      rho_omega_regular, plus rho_omega_atoms:
                                    one atom per level, at its energy
    (i w|   level-continuum         rho_iomega      (optional)
    (w i|   continuum-level         rho_iomega.conj(), never stored

and lives in one of two bases.  ``basis == "free"`` means the components are
physical occupations of the uncoupled observable basis.  ``decompose_initial``
rewrites them as coefficients against the damped eigenbasis duals
(``basis == "eigen"``): the only change is that the atom at each level energy
gains rho_d[i, i], because the dual of the dressed (i, i) vector is (i i|
minus a point evaluation there.  The continuum diagonal holds no atom
anywhere else, so ``rho_omega_atoms`` is one weight per level.  ``evolve``
then multiplies each sector by exp(i * lambda * t); the continuum diagonal has
lambda identically zero, so the trace it carries is conserved exactly.

The continuum off-diagonal (w w'| has no slot: every state the package builds
has it zero, and it would only rephase as exp(i (w - w') t), so it carries
nothing into the final pointer state.

An optional sector that is ``None`` is identically zero, and every transform
keeps it ``None``: a zero coefficient stays zero under exp(i * lambda * t), so
evolving an absent sector costs nothing.  A physical state is Hermitian, so
its (w i| slot is the conjugate of its (i w| slot in every basis and at every
time; storing ``rho_iomega`` alone keeps the pair conjugate by construction.
``zero_state`` and ``discrete_state`` leave the optional sector absent, so
the premeasured states of ``measurement`` carry no level-continuum array at
all.

Time is an array axis.  ``evolve`` takes a real scalar or an array of times
and puts the time axes in front of every per-state sector: a stack holds
``rho_d`` of shape ``t.shape + (N, N)``, atoms of shape ``t.shape + (N,)``
and ``rho_iomega``, when present, of shape ``t.shape + (N, M)``; only the
continuum density ``rho_omega_regular`` is shared.  A scalar time gives a
single state.  Every check of a ``GeneralizedState`` reads trailing shapes
and acts per state: ``trace()`` and ``hermiticity_defect()`` return one value
per state, and ``validate()`` refuses a stack if any state in it fails.  A
stacked mixed sector costs T * N * M complex values (384 MB at T=1000, N=6,
M=4000), so a caller evolving such a state picks how many times to stack;
the CLI's states carry no mixed sector.

States are values: a ``GeneralizedState`` never changes after construction.
Its sectors are read-only views, and each state-to-state transform returns a
``dataclasses.replace`` of its input that shares every sector it leaves
unchanged.  The constructor does not copy; ``discrete_state`` copies the
caller's array once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._inputs import check_time, read_only, require_numbers
from .continuum import ContinuumGrid
from .errors import InvalidState, TraceViolation
from .spectrum import LiouvilleSpectrum

_TRACE_TOL = 1e-10
_HERM_TOL = 1e-10
_SIGN_TOL = 1e-12  # how far below zero a density, weight or occupation may round

BASIS_FREE = "free"
BASIS_EIGEN = "eigen"

_SECTOR_DTYPES = (("rho_omega_regular", float), ("rho_omega_atoms", float), ("rho_d", complex),
                  ("rho_iomega", complex))


@dataclass(frozen=True, eq=False)
class GeneralizedState:
    """Sector components of a generalized state on a fixed grid; immutable.

    ``rho_omega_atoms[..., i]`` is the weight of the continuum-diagonal atom
    at level i's energy.  The atoms and ``rho_iomega`` have the leading axes
    of ``rho_d``; ``rho_omega_regular`` is one density shared by a stack.
    A sector whose dtype does not hold numbers of its own kind, real for
    the continuum diagonal's density and atoms and real or complex for
    ``rho_d`` and ``rho_iomega``, raises ``InvalidState``
    (``_inputs.check_dtype``).
    """

    grid: ContinuumGrid
    rho_omega_regular: np.ndarray
    rho_omega_atoms: np.ndarray
    rho_d: np.ndarray
    rho_iomega: np.ndarray | None = None
    basis: str = BASIS_FREE

    def __post_init__(self):
        for name, dtype in _SECTOR_DTYPES:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(name, value, dtype))
        if self.rho_omega_regular.shape != self.grid.nodes.shape:
            raise InvalidState("rho_omega_regular must match the grid size")
        if self.rho_d.ndim < 2 or self.rho_d.shape[-2] != self.rho_d.shape[-1]:
            raise InvalidState("rho_d must be square in its last two axes")
        levels = self.rho_d.shape[:-1]
        if self.rho_omega_atoms.shape != levels:
            raise InvalidState(f"rho_omega_atoms must have shape {levels}, "
                               f"got {self.rho_omega_atoms.shape}")
        if self.rho_iomega is not None and self.rho_iomega.shape != levels + (self.grid.size,):
            raise InvalidState(f"mixed sectors must have shape {levels + (self.grid.size,)}, "
                               f"got {self.rho_iomega.shape}")

    @property
    def n_levels(self) -> int:
        return self.rho_d.shape[-1]

    def trace(self) -> float | np.ndarray:
        """Physical trace carried by each state in its current basis: a float
        (numpy's float64), or one value per state of a stack.

        In the eigen basis the discrete coefficients pair with traceless
        duals, so only the continuum diagonal contributes.
        """
        with np.errstate(over="ignore"):  # an overflowing trace is inf: TraceViolation
            total = (float(np.dot(self.grid.weights, self.rho_omega_regular))
                     + np.sum(self.rho_omega_atoms, axis=-1))
            if self.basis != BASIS_EIGEN:
                total = total + np.sum(np.real(_diagonal(self.rho_d)), axis=-1)
        return total

    def hermiticity_defect(self) -> float | np.ndarray:
        """Largest deviation of ``rho_d`` from Hermitian, per state; the mixed
        sectors are a conjugate pair by construction."""
        adjoint = np.swapaxes(self.rho_d, -2, -1).conj()
        return np.max(np.abs(self.rho_d - adjoint), axis=(-2, -1), initial=0.0)

    def validate(self) -> "GeneralizedState":
        """Check the physical-state invariants (free basis) and return self;
        a stack is refused if any state in it fails."""
        # first, so that no NaN slips past a comparison and no inf warns below
        for name, _ in _SECTOR_DTYPES:
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidState(f"{name} must be finite")
        if np.any(self.rho_omega_regular < -_SIGN_TOL):
            raise InvalidState("continuum diagonal density must be >= 0")
        if np.any(self.rho_omega_atoms < -_SIGN_TOL):
            raise InvalidState("atom weights must be >= 0")
        if np.any(self.hermiticity_defect() > _HERM_TOL):
            raise InvalidState("rho_d must be Hermitian")
        if np.any(np.real(_diagonal(self.rho_d)) < -_SIGN_TOL):
            raise InvalidState("discrete occupations must be >= 0")
        tr = np.ravel(self.trace())
        off = np.abs(tr - 1.0) > _TRACE_TOL
        if np.any(off):
            raise TraceViolation(f"state trace is {float(tr[off][0])!r}, "
                                 f"expected 1 within {_TRACE_TOL}")
        return self


def _diagonal(matrices: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix in the last two axes."""
    return np.diagonal(matrices, axis1=-2, axis2=-1)


def zero_state(grid: ContinuumGrid, n_levels: int) -> GeneralizedState:
    """All-zero state container (not a valid physical state by itself); its
    optional sectors are absent."""
    return GeneralizedState(
        grid=grid,
        rho_omega_regular=np.zeros(grid.size),
        rho_omega_atoms=np.zeros(n_levels),
        rho_d=np.zeros((n_levels, n_levels), complex),
    )


def discrete_state(grid: ContinuumGrid, rho_d) -> GeneralizedState:
    """State with only the discrete block occupied (a private copy of rho_d,
    whose entries must be finite numbers)."""
    rho_d = require_numbers(rho_d, InvalidState, "rho_d must be finite numbers", complex)
    return replace(zero_state(grid, 0), rho_omega_atoms=np.zeros(rho_d.shape[:-1]), rho_d=rho_d)


def _check_input(state: GeneralizedState, spectrum: LiouvilleSpectrum, basis: str, message: str):
    """Refuse a state not in ``basis`` or with another level count than ``spectrum``."""
    if state.basis != basis:
        raise InvalidState(message)
    if state.n_levels != spectrum.n_levels:
        raise InvalidState(f"state has {state.n_levels} levels, spectrum has {spectrum.n_levels}")


def _shift_level_atoms(state: GeneralizedState, sign: float, basis: str) -> GeneralizedState:
    """``state`` in ``basis`` with sign * rho_d[i, i] added to the
    continuum-diagonal atom at level i's energy."""
    atoms = state.rho_omega_atoms + sign * np.real(_diagonal(state.rho_d))
    return replace(state, rho_omega_atoms=atoms, basis=basis)


def decompose_initial(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Rewrite a free-basis state as eigenbasis coefficients.

    The discrete occupations stay in place and the atom at each level energy
    gains the same weight; everything else is already diagonal at this
    order.  Raises ``TraceViolation`` when the input does not have unit trace.
    """
    _check_input(state, spectrum, BASIS_FREE, "decompose_initial expects a free-basis state")
    state.validate()
    return _shift_level_atoms(state, 1.0, BASIS_EIGEN)


def recompose(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """Inverse of ``decompose_initial``: back to physical free-basis components."""
    _check_input(state, spectrum, BASIS_EIGEN, "recompose expects an eigen-basis state")
    return _shift_level_atoms(state, -1.0, BASIS_FREE)


def evolve(state: GeneralizedState, spectrum: LiouvilleSpectrum, t) -> GeneralizedState:
    """Multiply every present sector coefficient by its exp(i * lambda * t).

    ``t`` is a real scalar or a real array of times.  Its axes lead every
    evolved sector: ``rho_d`` gets shape ``t.shape + (N, N)`` and
    ``rho_iomega``, when present, ``t.shape + (N, M)``; a scalar gives a
    single state.  The continuum diagonal has rate zero: its density is
    shared with the input and its atoms are a read-only broadcast of the
    input's to ``rho_d.shape[:-1]``, so the trace is conserved identically
    for all t.
    Absent sectors stay absent.  The (w i| slot, ``rho_iomega.conj()``,
    thereby evolves with -conj(lambda(i, w)) and damps at gamma_i / 2 like
    its partner.

    A stacked mixed sector holds T * N * M complex values, 384 MB at
    T=1000, N=6, M=4000.  States without one, as ``discrete_state`` and
    ``premeasure`` build them and the CLI evolves them, cost T * N * N.  The
    caller picks how many times to evolve at once.  A stack that cannot be allocated raises
    ``InvalidState`` naming its shape.
    """
    t = check_time(t)
    _check_input(state, spectrum, BASIS_EIGEN,
                 "evolve expects eigen-basis coefficients; call decompose_initial first")
    if t.ndim and state.rho_d.ndim > 2:
        raise InvalidState("evolve takes many times for a single state, or one time for a stack")
    rho_iomega = state.rho_iomega
    try:
        if rho_iomega is not None:
            lam = spectrum.lambda_discrete_continuum(state.grid.nodes)
            rho_iomega = rho_iomega * np.exp(1j * lam * t[..., None, None])
        rho_d = state.rho_d * np.exp(1j * spectrum.lambda_d * t[..., None, None])
    except MemoryError as exc:
        largest = state.rho_d if state.rho_iomega is None else state.rho_iomega
        raise InvalidState(f"an evolved stack of shape {t.shape + largest.shape[-2:]} "
                           "does not fit in memory") from exc
    atoms = np.broadcast_to(state.rho_omega_atoms, rho_d.shape[:-1])
    return replace(state, rho_omega_atoms=atoms, rho_d=rho_d, rho_iomega=rho_iomega)


def equilibrium(state: GeneralizedState, spectrum: LiouvilleSpectrum) -> GeneralizedState:
    """The t -> infinity limit of each state, as a validated free-basis state
    or stack of the input's shape.

    Every sector but the continuum diagonal carries an eigenvalue with
    positive imaginary part, so the limit keeps the eigen-basis continuum
    density and atoms and nothing else.  With no discrete occupation left,
    the free and eigen bases agree.  The limit is structural: large-t
    numerics never enter.
    """
    if state.basis == BASIS_FREE:
        state = decompose_initial(state, spectrum)
    return replace(state, rho_d=np.zeros_like(state.rho_d), rho_iomega=None,
                   basis=BASIS_FREE).validate()
