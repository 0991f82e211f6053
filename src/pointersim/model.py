"""Physical model: N discrete levels embedded in a continuum [0, omega_max].

Energies, rates and times share one unit system with hbar = 1.  The coupling
V(omega, i) between level i and the continuum mode at omega is real and plays
a symmetric role for emission and absorption.

A ``ModelSpec`` is valid by construction: its constructor converts, checks
and resolves every field, so no unchecked model reaches the physics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._inputs import is_integer, require_numbers
from .errors import (
    DegenerateLevels,
    LevelIndexOutOfRange,
    LevelOutsideContinuum,
    ModelInvalid,
    NegativeScale,
    OutOfSupport,
)

COUPLING_KINDS = ("constant", "lorentzian-window", "gaussian-window", "tabulated")

_SUPPORT_TOL = 1e-12
# levels closer than this are one level: the perturbative formulas and the
# one pointer atom per level need them distinct
LEVEL_SEPARATION = 1e-12


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Real coupling amplitude V(omega, i), defined on all of [0, omega_max].

    A profile records its parameters as given; the ``ModelSpec`` holding it
    checks and resolves them.  ``amplitude``, ``center`` and ``width`` may be
    scalars (shared by every level) or per-level sequences, and are broadcast
    to one value per level.  For the window kinds ``center`` defaults to the
    level energy itself.  Tabulated profiles are linearly interpolated, with
    ``table_values`` of shape (n_samples,) or (n_samples, n_levels).
    """

    kind: str
    amplitude: np.ndarray | None = None
    center: np.ndarray | None = None
    width: np.ndarray | None = None
    table_omega: np.ndarray | None = None
    table_values: np.ndarray | None = None

    @classmethod
    def constant(cls, amplitude) -> "CouplingProfile":
        return cls(kind="constant", amplitude=amplitude)

    @classmethod
    def gaussian_window(cls, amplitude, width, center=None) -> "CouplingProfile":
        return cls(kind="gaussian-window", amplitude=amplitude, width=width, center=center)

    @classmethod
    def lorentzian_window(cls, amplitude, width, center=None) -> "CouplingProfile":
        return cls(kind="lorentzian-window", amplitude=amplitude, width=width, center=center)

    @classmethod
    def tabulated(cls, omega, values) -> "CouplingProfile":
        return cls(kind="tabulated", table_omega=omega, table_values=values)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Discrete levels, continuum cutoff and coupling profile, checked on construction.

    Levels must lie strictly inside (0, omega_max), more than ``LEVEL_SEPARATION``
    apart; nondegenerate perturbation theory underlies every downstream
    formula.  ``coupling_scale`` is a dimensionless global multiplier on V.
    The coupling is stored resolved, so a ``dataclasses.replace`` that moves
    the levels keeps the window centers it had.

    The decay physics is local around each level, so the finite cutoff only
    trims tail contributions to the level shifts.  Pick omega_max with a
    comfortable margin above the highest level (an order of magnitude is a
    good default; a few times the highest level is usually adequate).
    """

    levels: np.ndarray
    omega_max: float
    coupling: CouplingProfile
    coupling_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "levels", np.atleast_1d(_numbers("levels", self.levels, 1)))
        object.__setattr__(self, "omega_max", float(_numbers("omega_max", self.omega_max, 0)))
        object.__setattr__(self, "coupling_scale",
                           float(_numbers("coupling_scale", self.coupling_scale, 0)))
        if self.omega_max <= 0:
            raise ModelInvalid(f"omega_max must be positive and finite, got {self.omega_max}")
        if self.n_levels == 0:
            raise ModelInvalid("at least one discrete level is required")
        for omega_i in self.levels:
            if not (0.0 < omega_i < self.omega_max):
                raise LevelOutsideContinuum(
                    f"level {omega_i} is not strictly inside (0, {self.omega_max})"
                )
        if np.any(np.diff(np.sort(self.levels)) <= LEVEL_SEPARATION):
            raise DegenerateLevels(f"levels must be pairwise distinct, more than "
                                   f"{LEVEL_SEPARATION:g} apart, got {self.levels.tolist()}")
        if self.coupling_scale < 0:
            raise NegativeScale(f"coupling_scale must be >= 0, got {self.coupling_scale}")
        object.__setattr__(self, "coupling", _resolve_profile(self.coupling, self))

        # the rates and shifts square the scaled coupling: probe it across the
        # support, including the level positions
        probe = np.unique(np.concatenate([np.linspace(0.0, self.omega_max, 257), self.levels]))
        for i in range(self.n_levels):
            with np.errstate(all="ignore"):
                v = self.coupling_scale * _profile_values(self.coupling, probe, i)
                finite = np.all(np.isfinite(v * v))
            if not finite:
                raise ModelInvalid(f"coupling for level {i} or its square is non-finite "
                                   "somewhere on [0, omega_max]")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def _numbers(name: str, value, max_ndim: int) -> np.ndarray:
    """A read-only float copy of ``value``, finite floats and 64-bit integers
    only, with at most ``max_ndim`` dimensions; strings and booleans are
    refused, never parsed."""
    arr = require_numbers(value, ModelInvalid, f"'{name}' must be finite floats or 64-bit integers")
    if arr.ndim > max_ndim:
        raise ModelInvalid(f"'{name}' has shape {arr.shape}, expected at most {max_ndim} dimensions")
    arr.flags.writeable = False
    return arr


def _per_level(name: str, value, n: int) -> np.ndarray:
    arr = _numbers(f"coupling.{name}", value, max_ndim=1)
    if arr.size not in (1, n):
        raise ModelInvalid(f"coupling parameter '{name}' has size {arr.size}, expected 1 or {n}")
    return np.broadcast_to(arr, (n,))


def _resolve_profile(profile: CouplingProfile, spec: ModelSpec) -> CouplingProfile:
    n = spec.n_levels
    if profile.kind not in COUPLING_KINDS:
        raise ModelInvalid(f"unknown coupling kind {profile.kind!r}")

    if profile.kind == "constant":
        if profile.amplitude is None:
            raise ModelInvalid("constant coupling requires 'amplitude'")
        return CouplingProfile(kind="constant", amplitude=_per_level("amplitude", profile.amplitude, n))

    if profile.kind in ("gaussian-window", "lorentzian-window"):
        if profile.amplitude is None or profile.width is None:
            raise ModelInvalid(f"{profile.kind} coupling requires 'amplitude' and 'width'")
        center = spec.levels if profile.center is None else profile.center
        width = _per_level("width", profile.width, n)
        if np.any(width <= 0):
            raise ModelInvalid("window widths must be > 0")
        return CouplingProfile(
            kind=profile.kind,
            amplitude=_per_level("amplitude", profile.amplitude, n),
            center=_per_level("center", center, n),
            width=width,
        )

    # tabulated
    if profile.table_omega is None or profile.table_values is None:
        raise ModelInvalid("tabulated coupling requires 'omega' and 'values'")
    om = _numbers("coupling.omega", profile.table_omega, max_ndim=1)
    vals = _numbers("coupling.values", profile.table_values, max_ndim=2)
    if om.ndim != 1 or om.size < 2 or np.any(np.diff(om) <= 0):
        raise ModelInvalid("tabulated 'omega' must be a strictly increasing 1-d array")
    if vals.ndim == 1:
        vals = np.broadcast_to(vals[:, None], (vals.size, n))
    if vals.shape != (om.size, n):
        raise ModelInvalid(
            f"tabulated 'values' has shape {vals.shape}, expected ({om.size},) or ({om.size}, {n})"
        )
    if om[0] > _SUPPORT_TOL or om[-1] < spec.omega_max - _SUPPORT_TOL:
        raise ModelInvalid("tabulated 'omega' must cover [0, omega_max]")
    return CouplingProfile(kind="tabulated", table_omega=om, table_values=vals)


def _profile_values(profile: CouplingProfile, om: np.ndarray, i: int):
    if profile.kind == "constant":
        return np.broadcast_to(profile.amplitude[i], om.shape).copy() if om.ndim else profile.amplitude[i]
    if profile.kind == "gaussian-window":
        x = (om - profile.center[i]) / profile.width[i]
        return profile.amplitude[i] * np.exp(-0.5 * x * x)
    if profile.kind == "lorentzian-window":
        w2 = profile.width[i] ** 2
        return profile.amplitude[i] * w2 / ((om - profile.center[i]) ** 2 + w2)
    return np.interp(om, profile.table_omega, profile.table_values[:, i])


def check_index(i, count: int):
    """Refuse anything but an integer in [0, count): a negative index would
    silently wrap to the end, and any other would fail inside numpy."""
    if not (is_integer(i) and 0 <= i < count):
        raise LevelIndexOutOfRange(f"index must be an integer in [0, {count}), got {i!r}")


def coupling_at(spec: ModelSpec, omega, i: int):
    """Evaluate coupling_scale * V(omega, i); omega may be a scalar or array."""
    check_index(i, spec.n_levels)
    om = require_numbers(omega, OutOfSupport, f"omega must be finite numbers in [0, {spec.omega_max}]",
                         refused=lambda w: (w < -_SUPPORT_TOL) | (w > spec.omega_max + _SUPPORT_TOL))
    value = spec.coupling_scale * _profile_values(spec.coupling, om, i)
    return float(value) if om.ndim == 0 else value


# -- JSON model files --------------------------------------------------------
# Exact field names: levels, omega_max, coupling{kind, ...}, coupling_scale.

def model_from_dict(data: dict) -> ModelSpec:
    """Build a ModelSpec from its JSON dictionary form; raises ``ModelInvalid``."""
    try:
        coupling = data["coupling"]
        profile = CouplingProfile(
            kind=coupling["kind"],
            amplitude=coupling.get("amplitude"),
            center=coupling.get("center"),
            width=coupling.get("width"),
            table_omega=coupling.get("omega"),
            table_values=coupling.get("values"),
        )
        fields = {"levels": data["levels"], "omega_max": data["omega_max"],
                  "coupling_scale": data.get("coupling_scale", 1.0)}
    except KeyError as exc:
        raise ModelInvalid(f"model description missing required field: {exc}") from exc
    except TypeError as exc:
        raise ModelInvalid("model description and its 'coupling' must be JSON objects") from exc
    return ModelSpec(coupling=profile, **fields)


def load_model(path) -> ModelSpec:
    """Load a JSON model file; raises ``ModelInvalid`` when it cannot be read
    or describes no valid model."""
    try:
        with open(Path(path)) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ModelInvalid(f"cannot read model file {str(path)!r}: {exc}") from exc
    return model_from_dict(data)
