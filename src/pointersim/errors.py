"""Exception types shared across the simulator modules."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


# -- model ------------------------------------------------------------------

class ModelInvalid(SimulationError):
    """The model description is malformed or violates an invariant."""


class LevelOutsideContinuum(ModelInvalid):
    """A discrete level does not lie strictly inside (0, omega_max)."""


class DegenerateLevels(ModelInvalid):
    """Two discrete levels lie within ``model.LEVEL_SEPARATION`` (1e-12); the
    perturbative formulas and the one pointer atom per level need them distinct."""


class NegativeScale(ModelInvalid):
    """coupling_scale must be >= 0."""


class OutOfSupport(SimulationError):
    """Requested a coupling value outside [0, omega_max]."""


class LevelIndexOutOfRange(SimulationError, IndexError):
    """A level or state index is not an integer in [0, count); negative ones never wrap."""


# -- continuum --------------------------------------------------------------

class TooFewNodes(SimulationError):
    """Grid size below the minimum needed for the quadrature contracts."""


class InvalidGrid(SimulationError, ValueError):
    """Grid parameters are malformed: cutoff, scheme, or node ordering."""


class NonFiniteValue(SimulationError):
    """Integrand produced a value that is not a finite real number."""


class SingularityOutsideSupport(SimulationError):
    """Principal-value singularity must lie strictly inside (0, omega_max),
    far enough from its ends that the continuity probes round to other points."""


class DiscontinuousAtSingularity(SimulationError):
    """Integrand appears discontinuous at the singularity; the PV does not exist."""


# -- evolution --------------------------------------------------------------

class InvalidState(SimulationError, ValueError):
    """State components have the wrong shape or violate a physical invariant."""


class TraceViolation(SimulationError):
    """State components do not sum to unit trace within tolerance."""


class NegativeTime(SimulationError):
    """Evolution times must be finite and >= 0."""


# -- oracle -----------------------------------------------------------------

class EigensolverFailure(SimulationError):
    """Eigendecomposition of the discretized Hamiltonian failed.

    Raised for non-finite Hamiltonian entries, a secular-equation root that
    does not converge in any level's fold step, and eigenvectors that fail
    the orthonormality gate.
    """


class FitFailure(SimulationError, ValueError):
    """A fit against the exact dynamics has no valid input or window."""


class RecurrenceWindowExceeded(UserWarning):
    """Evolution time beyond half the recurrence time; finite-grid artifacts likely.

    Warning, not an error: the result is still returned, but it must not be
    treated as an approximation of the true irreversible dynamics.
    """


# -- measurement ------------------------------------------------------------

class NotNormalized(SimulationError):
    """Measurement amplitudes must satisfy sum |a_i|^2 = 1."""


class NonHermitianBlock(SimulationError):
    """Block matrices to diagonalize must be Hermitian."""


# -- cli --------------------------------------------------------------------

class ConfigParse(SimulationError):
    """Run configuration file is missing, malformed, or incomplete."""
