"""Decay, decoherence and pointer-basis simulator for discrete levels in a continuum.

The package splits into a perturbative side (``spectrum``, ``evolution``,
``measurement``) built on quadrature primitives (``model``, ``continuum``),
and an exact brute-force side (``oracle``) used to validate every
perturbative prediction.  ``cli`` drives batch runs that emit CSV artifacts.
"""

from . import errors
from .continuum import (
    ContinuumGrid,
    build_grid,
    principal_value,
)
from .evolution import (
    GeneralizedState,
    decompose_initial,
    discrete_state,
    equilibrium,
    evolve,
    recompose,
)
from .measurement import (
    MeasurementSetup,
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
)
from .oracle import (
    OracleModel,
    coherence,
    discretize,
    evolve_pure,
    fit_exponential_rate,
    fitted_decay_rate,
    pointer_weights,
    resonance_center,
    survival_probability,
)
from .spectrum import (
    LiouvilleSpectrum,
    liouville_spectrum,
)

__version__ = "0.1.0"

# exported only if README, the CLI, the acceptance suite, the benchmark or
# another module reads it (checked by tests/test_readme.py)
__all__ = [
    "ContinuumGrid",
    "CouplingProfile",
    "GeneralizedState",
    "LiouvilleSpectrum",
    "MeasurementSetup",
    "ModelSpec",
    "OracleModel",
    "build_grid",
    "coherence",
    "coupling_at",
    "csco_diagonalize",
    "decompose_initial",
    "discrete_state",
    "discretize",
    "equilibrium",
    "errors",
    "evolve",
    "evolve_pure",
    "fit_exponential_rate",
    "fitted_decay_rate",
    "liouville_spectrum",
    "load_model",
    "model_from_dict",
    "pointer_weights",
    "premeasure",
    "principal_value",
    "readout",
    "recompose",
    "resonance_center",
    "survival_probability",
]
