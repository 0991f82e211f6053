"""Shared models, grids and oracle decompositions.

The oracles fold in one level at a time: each level is an O(M^2) secular
solve, and each level after the first also needs one chunked Cauchy pass per
other level to carry its level rows and couplings into the new eigenbasis.
The two-level ones at M=2000 are the costliest fixtures.  Every test module
reuses the session-scoped oracles built here.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointersim
from pointersim import (
    CouplingProfile,
    GeneralizedState,
    ModelSpec,
    build_grid,
    discretize,
    liouville_spectrum,
)


def make_constant_model(levels, amplitude, omega_max=10.0, scale=1.0):
    return ModelSpec(
        levels=np.asarray(levels, float),
        omega_max=omega_max,
        coupling=CouplingProfile.constant(amplitude),
        coupling_scale=scale,
    )


def normalized_density(grid, mass=1.0):
    density = np.exp(-((grid.nodes - 4.0) ** 2))
    return density * (mass / np.dot(grid.weights, density))


class NumpyWithoutMemory:
    """numpy whose constructors of grid nodes and time grids, and whose
    ``exp`` of an evolved stack, fail as a huge allocation does, so no test
    has to attempt one."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arange(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    linspace = geomspace = exp = arange


def scipy_modules_loaded_by(code):
    """Sorted names of the scipy modules loaded after ``code`` runs in a fresh
    interpreter that imports this package's sources."""
    src = str(Path(pointersim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    return result.stdout.strip()


def random_valid_state(grid, spectrum, rng):
    """Random state exercising every sector, with unit trace."""
    n = spectrum.n_levels
    m = grid.size
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho_d = raw @ raw.conj().T
    rho_d /= np.trace(rho_d).real / 0.4          # discrete sector carries mass 0.4
    atoms = np.zeros(n)
    atoms[0] = 0.1                               # an atom at level 0's energy
    rho_iomega = 0.01 * (rng.normal(size=(n, m)) - 1j * rng.normal(size=(n, m)))
    return GeneralizedState(
        grid=grid,
        rho_omega_regular=normalized_density(grid, mass=0.5),
        rho_omega_atoms=atoms,
        rho_d=rho_d,
        rho_iomega=rho_iomega,
    ).validate()


@pytest.fixture(scope="session")
def single_level_model():
    """Acceptance-scale model: one level at 1.0, constant V = 0.05 on [0, 10]."""
    return make_constant_model([1.0], 0.05)


@pytest.fixture(scope="session")
def two_level_model():
    """Acceptance-scale model: levels at 1.0 and 2.0, constant V = 0.05."""
    return make_constant_model([1.0, 2.0], 0.05)


@pytest.fixture(scope="session")
def grid_2000():
    return build_grid(10.0, 2000)


@pytest.fixture(scope="session")
def oracle_single(single_level_model, grid_2000):
    return discretize(single_level_model, grid_2000)


@pytest.fixture(scope="session")
def oracle_two(two_level_model, grid_2000):
    return discretize(two_level_model, grid_2000)


@pytest.fixture(scope="session")
def spectrum_single(single_level_model, grid_2000):
    return liouville_spectrum(single_level_model, grid_2000)


@pytest.fixture(scope="session")
def spectrum_two(two_level_model, grid_2000):
    return liouville_spectrum(two_level_model, grid_2000)


@pytest.fixture(scope="session")
def unit_model():
    """Fast unit-test scale: one level, stronger coupling, coarser grid."""
    return make_constant_model([1.0], 0.1)


@pytest.fixture(scope="session")
def grid_800():
    return build_grid(10.0, 800)


@pytest.fixture(scope="session")
def oracle_unit(unit_model, grid_800):
    return discretize(unit_model, grid_800)
