"""The benchmark's workloads: seeded model and run-config files per workload.

Each workload is a list of ``pointersim`` subcommands run against one
generated config.  The package only ever sees the files written here; the
seed enters through them (the ``seed`` field, which ``compare`` uses to draw
its coherence amplitudes, and the amplitude lists of the time-series case).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    levels: tuple[float, ...]
    coupling: dict
    grid_m: int
    times: dict
    omega_max: float = 10.0
    # the time series feeds the same seeded amplitude vector to evolve and measure
    amplitude_inputs: bool = False

    @property
    def n_levels(self) -> int:
        return len(self.levels)


# why each workload exists, and which layer it isolates: README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="oracle-compare",
            commands=("compare",),
            levels=(1.0, 2.0),
            coupling={"kind": "constant", "amplitude": 0.05},
            grid_m=2000,
            times={"t_start": 1.0, "t_end": 120.0, "samples": 40, "spacing": "log"},
        ),
        Workload(
            name="oracle-large-grid",
            commands=("compare",),
            levels=(1.0,),
            coupling={"kind": "constant", "amplitude": 0.05},
            grid_m=3500,
            times={"t_start": 5.0, "t_end": 200.0, "samples": 12, "spacing": "log"},
        ),
        Workload(
            name="perturbative-timeseries",
            commands=("evolve", "measure"),
            levels=(1.0, 2.0, 3.0, 4.5, 6.0, 7.5),
            coupling={"kind": "gaussian-window", "amplitude": 0.05, "width": 1.5},
            grid_m=4000,
            times={"t_start": 0.5, "t_end": 600.0, "samples": 1000, "spacing": "log"},
            amplitude_inputs=True,
        ),
    )
}


def seeded_amplitudes(n: int, seed: int) -> np.ndarray:
    """Normalized complex level amplitudes drawn from ``seed``.

    This is the same draw ``pointersim compare`` makes from its config seed,
    so the compare gate can rebuild the state the oracle propagated.
    """
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


def model_dict(workload: Workload) -> dict:
    """The workload's model in the package's JSON model-file form."""
    return {"levels": list(workload.levels), "omega_max": workload.omega_max,
            "coupling": workload.coupling}


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the model and run config of one workload; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    config = {"model": "model.json",
              "grid": {"m": workload.grid_m, "scheme": "uniform-midpoint"},
              "times": workload.times, "seed": seed}
    if workload.amplitude_inputs:
        pairs = [[float(z.real), float(z.imag)]
                 for z in seeded_amplitudes(workload.n_levels, seed)]
        config["initial"] = {"amplitudes": pairs}
        config["amplitudes"] = pairs
    (directory / "model.json").write_text(json.dumps(model_dict(workload), indent=1))
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def time_values(workload: Workload) -> np.ndarray:
    t = workload.times
    return np.geomspace(t["t_start"], t["t_end"], t["samples"])
