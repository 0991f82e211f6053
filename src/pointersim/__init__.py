"""Decay, decoherence and pointer-basis simulator for discrete levels in a continuum.

The package splits into a perturbative side (``spectrum``, ``evolution``,
``measurement``) built on quadrature primitives (``model``, ``continuum``),
and an exact brute-force side (``oracle``) used to validate every
perturbative prediction.  ``cli`` drives batch runs that emit CSV artifacts.
"""

from . import errors
from .continuum import (
    AtomicMeasure,
    ContinuumGrid,
    build_grid,
    integrate,
    principal_value,
    resolvent_boundary,
)
from .evolution import (
    EquilibriumState,
    GeneralizedState,
    continuous_state,
    decompose_initial,
    diagonal_evolution,
    discrete_state,
    equilibrium,
    evolve,
    recompose,
    zero_state,
)
from .measurement import (
    ClassicalProfile,
    MeasurementSetup,
    classical_profile,
    csco_diagonalize,
    premeasure,
    readout,
)
from .model import (
    CouplingProfile,
    ModelSpec,
    coupling_at,
    load_model,
    model_from_dict,
    model_to_dict,
    validate,
)
from .oracle import (
    OracleModel,
    coherence,
    discretize,
    embed_discrete,
    energy_distribution,
    evolve_pure,
    fit_exponential_rate,
    fitted_decay_rate,
    pointer_weights,
    resonance_center,
    survival_probability,
)
from .spectrum import (
    EigenvectorCorrections,
    LiouvilleSpectrum,
    decay_rate,
    eigenvector_corrections,
    level_shift,
    liouville_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ClassicalProfile",
    "ContinuumGrid",
    "CouplingProfile",
    "EigenvectorCorrections",
    "EquilibriumState",
    "GeneralizedState",
    "LiouvilleSpectrum",
    "MeasurementSetup",
    "ModelSpec",
    "OracleModel",
    "build_grid",
    "classical_profile",
    "coherence",
    "continuous_state",
    "coupling_at",
    "csco_diagonalize",
    "decay_rate",
    "decompose_initial",
    "diagonal_evolution",
    "discrete_state",
    "discretize",
    "eigenvector_corrections",
    "embed_discrete",
    "energy_distribution",
    "equilibrium",
    "errors",
    "evolve",
    "evolve_pure",
    "fit_exponential_rate",
    "fitted_decay_rate",
    "integrate",
    "level_shift",
    "liouville_spectrum",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "pointer_weights",
    "premeasure",
    "principal_value",
    "readout",
    "recompose",
    "resolvent_boundary",
    "resonance_center",
    "survival_probability",
    "validate",
    "zero_state",
]
