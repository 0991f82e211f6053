"""Batch driver: load a model config, run a subcommand, write CSV artifacts.

Artifacts are deterministic for a fixed config and seed: floats are written
with shortest round-trip repr and every file starts with ``#``-prefixed
metadata lines carrying the config hash, grid parameters and, where time
evolution is involved, the recurrence-window validity horizon.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._inputs import is_integer, read_numbers, require_numbers
from .continuum import GRID_SCHEMES, build_grid
from .errors import ConfigParse, RecurrenceWindowExceeded, SimulationError
from .evolution import decompose_initial, discrete_state, evolve, recompose
from .measurement import MeasurementSetup, premeasure, readout
from .model import ModelSpec, load_model
from .oracle import coherence, discretize, survival_probability
from .spectrum import liouville_spectrum

# discrepancies below the comparator's own floating-point resolution are
# reported as exact zeros in the rel_error column
_FLOAT_NOISE = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)  # times is an array: no field-wise ==
class RunConfig:
    model: ModelSpec
    grid_m: int
    grid_scheme: str
    times: np.ndarray | None
    output_dir: Path
    seed: int
    effective: dict


def _require(data: dict, key: str):
    if key not in data:
        raise ConfigParse(f"config is missing required field '{key}'")
    return data[key]


def _json_int(value, name: str, minimum: int = 0) -> int:
    """A JSON integer >= minimum; fractions are refused, never truncated."""
    if not is_integer(value) or value < minimum:
        raise ConfigParse(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    """A finite JSON number as a float; strings, booleans, null, lists and
    integers beyond 64 bits are refused, never parsed."""
    number = repr(value) if isinstance(value, list) else read_numbers(value)
    if isinstance(number, str):
        raise ConfigParse(f"{name} must be a finite float or a 64-bit integer, got {number}")
    return float(number)


def _parse_times(data) -> np.ndarray:
    """The configured evolution times: ``samples`` of them from ``t_start`` to
    ``t_end``, linear or log spaced."""
    if not isinstance(data, dict):
        raise ConfigParse("'times' block must be a JSON object")
    t_start = _json_float(_require(data, "t_start"), "times.t_start")
    t_end = _json_float(_require(data, "t_end"), "times.t_end")
    samples = _json_int(_require(data, "samples"), "times.samples", minimum=2)
    spacing = str(data.get("spacing", "log"))
    if not 0 <= t_start < t_end:
        raise ConfigParse("times must satisfy t_end > t_start >= 0")
    if spacing not in ("linear", "log"):
        raise ConfigParse(f"unknown times.spacing {spacing!r}")
    if spacing == "log" and t_start <= 0:
        raise ConfigParse("log-spaced times need t_start > 0")
    space = np.linspace if spacing == "linear" else np.geomspace
    try:
        return space(t_start, t_end, samples)
    # numpy refuses a size past its limit with a ValueError, before allocating
    except (MemoryError, ValueError) as exc:
        raise ConfigParse(f"times.samples = {samples} times do not fit in memory") from exc


def _parse_grid(data: dict) -> tuple[int, str]:
    m = _json_int(data.get("m", 2000), "grid.m")
    scheme = str(data.get("scheme", "uniform-midpoint"))
    if scheme not in GRID_SCHEMES:
        raise ConfigParse(f"unknown grid.scheme {scheme!r}; "
                          f"expected one of {', '.join(GRID_SCHEMES)}")
    return m, scheme


def load_config(path, grid_m=None, out=None, seed=None) -> RunConfig:
    """Parse a JSON run config, applying any command-line overrides."""
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigParse(f"cannot read config {str(path)!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigParse("config root must be a JSON object")
    if not isinstance(data.get("grid", {}), dict):
        raise ConfigParse("'grid' block must be a JSON object")

    if grid_m is not None:
        data.setdefault("grid", {})
        data["grid"]["m"] = grid_m
    if out is not None:
        data["output_dir"] = str(out)
    if seed is not None:
        data["seed"] = seed

    grid_m, grid_scheme = _parse_grid(data.get("grid", {}))
    paths = {"model": _require(data, "model"), "output_dir": data.get("output_dir", "out")}
    for key, value in paths.items():
        if not isinstance(value, str):
            raise ConfigParse(f"'{key}' must be a path string, got {value!r}")
    model = load_model(path.parent / paths["model"])

    times = _parse_times(data["times"]) if "times" in data else None
    return RunConfig(
        model=model,
        grid_m=grid_m,
        grid_scheme=grid_scheme,
        times=times,
        output_dir=Path(paths["output_dir"]),
        seed=_json_int(data.get("seed", 0), "seed"),
        effective=data,
    )


def config_hash(command: str, cfg: RunConfig) -> str:
    # the hash identifies the run's physics; where the artifact lands does not
    # change its content, so output_dir stays out of the payload
    hashed = {k: v for k, v in cfg.effective.items() if k != "output_dir"}
    payload = json.dumps({"command": command, "config": hashed},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_csv(path: Path, command: str, cfg: RunConfig, grid, columns, rows):
    # the recurrence horizon is a grid property; quoting it in every artifact
    # marks the window inside which oracle cross-checks are meaningful
    lines = [
        f"# pointersim {command}",
        f"# config_hash: {config_hash(command, cfg)}",
        f"# grid_m: {cfg.grid_m}",
        f"# grid_scheme: {cfg.grid_scheme}",
        f"# coupling_scale: {cfg.model.coupling_scale}",
        f"# seed: {cfg.seed}",
        f"# recurrence_time: {grid.recurrence_time}",
        f"# valid_t_max: {grid.valid_t_max}",
    ]
    lines.append(",".join(columns))
    lines += [",".join(map(str, row)) for row in rows]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except (OSError, ValueError) as exc:
        raise ConfigParse(f"cannot write artifact: {exc}") from exc
    return path


def _level_values(raw, field: str, n_levels: int, pairs: bool = False) -> np.ndarray:
    """One finite number per level from a config list; [re, im] pairs when
    ``pairs``, returned as complex amplitudes."""
    shape = (n_levels, 2) if pairs else (n_levels,)
    arr = require_numbers(raw, ConfigParse, f"'{field}' must be finite floats or 64-bit integers")
    if arr.shape != shape:
        raise ConfigParse(f"'{field}' must have shape {shape}, one row per level; got {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1] if pairs else arr


def _initial_state(cfg: RunConfig, grid):
    initial = cfg.effective.get("initial")
    if initial is None:
        raise ConfigParse("evolve needs an 'initial' block with 'amplitudes' or 'diagonal'")
    if not isinstance(initial, dict):
        raise ConfigParse("'initial' block must be a JSON object")
    n = cfg.model.n_levels
    if "amplitudes" in initial:
        a = _level_values(initial["amplitudes"], "initial.amplitudes", n, pairs=True)
        return premeasure(MeasurementSetup(a), grid)
    if "diagonal" in initial:
        diagonal = _level_values(initial["diagonal"], "initial.diagonal", n)
        if np.any(diagonal < 0):
            raise ConfigParse("'initial.diagonal' occupations must be >= 0")
        return discrete_state(grid, np.diag(diagonal))
    raise ConfigParse("'initial' block must contain 'amplitudes' or 'diagonal'")


def _rel_error(oracle_value: float, predicted: float) -> float:
    diff = abs(oracle_value - predicted)
    if diff <= _FLOAT_NOISE * max(1.0, abs(predicted)):
        return 0.0
    return diff / max(abs(predicted), np.finfo(float).tiny)


# -- subcommands ---------------------------------------------------------------

def run_spectrum(cfg: RunConfig, grid, spec):
    rows = []
    for i in range(spec.n_levels):
        for j in range(spec.n_levels):
            lam = spec.lambda_d[i, j]
            rows.append((i, j, lam.real, lam.imag, spec.gamma[i], spec.shift[i]))
    return [_write_csv(cfg.output_dir / "spectrum.csv", "spectrum", cfg, grid,
                       ["i", "j", "re_lambda", "im_lambda", "gamma_i", "delta_i"], rows)]


def run_evolve(cfg: RunConfig, grid, spec):
    if cfg.times is None:
        raise ConfigParse("evolve needs a 'times' block")
    state0 = decompose_initial(_initial_state(cfg, grid), spec)

    n = spec.n_levels
    iu, ju = np.triu_indices(n, k=1)
    columns = (["t"] + [f"occ_{i}" for i in range(n)] + [f"atom_{i}" for i in range(n)]
               + [f"abs_coh_{i}_{j}" for i, j in zip(iu, ju)])
    states = recompose(evolve(state0, spec, cfg.times), spec)
    occ = np.real(np.diagonal(states.rho_d, axis1=-2, axis2=-1))
    rows = np.column_stack([cfg.times, occ, states.rho_omega_atoms, np.abs(states.rho_d[:, iu, ju])])
    return [_write_csv(cfg.output_dir / "evolve.csv", "evolve", cfg, grid, columns, rows.tolist())]


def run_compare(cfg: RunConfig, grid, spec):
    if cfg.times is None:
        raise ConfigParse("compare needs a 'times' block")
    oracle = discretize(cfg.model, grid)

    n = spec.n_levels
    rng = np.random.default_rng(cfg.seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)

    rows = []
    with warnings.catch_warnings():
        # beyond-horizon rows are computed anyway but flagged invalid below
        warnings.simplefilter("ignore", RecurrenceWindowExceeded)
        for t in cfg.times:
            t = float(t)
            valid = int(t < grid.valid_t_max)
            for i in range(n):
                predicted = float(np.exp(-spec.gamma[i] * t))
                measured = survival_probability(oracle, i, t)
                err = _rel_error(measured, predicted) if valid else float("nan")
                rows.append((t, f"survival_{i}", measured, predicted, err, valid))
            for i in range(n):
                for j in range(i + 1, n):
                    initial = float(np.abs(np.conj(amps[i]) * amps[j]))
                    predicted = initial * float(np.exp(-spec.lambda_d[i, j].imag * t))
                    measured = abs(coherence(oracle, i, j, amps, t))
                    err = _rel_error(measured, predicted) if valid else float("nan")
                    rows.append((t, f"abs_coherence_{i}_{j}", measured, predicted, err, valid))
    return [_write_csv(cfg.output_dir / "compare.csv", "compare", cfg, grid,
                       ["t", "quantity", "oracle", "predicted", "rel_error", "valid"], rows)]


def run_measure(cfg: RunConfig, grid, spec):
    if "amplitudes" not in cfg.effective:
        raise ConfigParse("measure needs an 'amplitudes' list of [re, im] pairs")
    setup = MeasurementSetup(amplitudes=_level_values(
        cfg.effective["amplitudes"], "amplitudes", cfg.model.n_levels, pairs=True))
    pointer = readout(setup, spec)
    rows = [(i, omega, probability) for i, (omega, probability) in enumerate(pointer)]
    tables = [("measure.csv", ["i", "omega", "probability"], rows)]
    if cfg.times is not None:
        state0 = decompose_initial(premeasure(setup, grid), spec)
        columns = ["t"] + [f"atom_{i}" for i in range(spec.n_levels)]
        states = recompose(evolve(state0, spec, cfg.times), spec)
        time_rows = np.column_stack([cfg.times, states.rho_omega_atoms]).tolist()
        tables.append(("measure_timeseries.csv", columns, time_rows))
    # every row exists before the first artifact is written, so a failure leaves none
    return [_write_csv(cfg.output_dir / name, "measure", cfg, grid, header, body)
            for name, header, body in tables]


_RUNNERS = {
    "spectrum": run_spectrum,
    "evolve": run_evolve,
    "compare": run_compare,
    "measure": run_measure,
}


def run(command: str, config: RunConfig):
    """Dispatch a subcommand on the config's grid and spectrum, which every
    subcommand reads; returns the list of written artifact paths."""
    if command not in _RUNNERS:
        raise ConfigParse(f"unknown command '{command}'")
    model = config.model
    grid = build_grid(model.omega_max, config.grid_m, config.grid_scheme, avoid=model.levels)
    return _RUNNERS[command](config, grid, liouville_spectrum(model, grid))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pointersim",
        description="Decay, decoherence and pointer-basis simulator for discrete "
                    "levels coupled to a continuum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--grid-m", type=int, default=None, help="grid size override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, grid_m=args.grid_m, out=args.out, seed=args.seed)
        artifacts = run(args.command, cfg)
    except SimulationError as exc:
        print(f"pointersim {args.command}: error: {exc}", file=sys.stderr)
        return 1
    for artifact in artifacts:
        print(artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
