"""Correctness gates on the artifacts a workload wrote.

Each gate returns a list of problems; an empty list means the artifacts are
correct.  The compare gate does not trust the package's oracle: it assembles
the sparse discretized Hamiltonian from the public model and propagates it
with ``scipy.sparse.linalg.expm_multiply`` at a sample of the compared times,
so a faster oracle that loses accuracy fails here instead of counting as
faster.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from artifacts import read_csv
from pointersim import build_grid, coupling_at, liouville_spectrum, model_from_dict
from workloads import Workload, model_dict, seeded_amplitudes, time_values

# a sampled oracle value may differ from the independent propagation by this
# much; both agree to ~1e-11 on the benchmark's workloads
ORACLE_TOL = 1e-9
# bookkeeping identities are exact up to a few roundings of O(1) numbers
BOOKKEEPING_TOL = 1e-12
# the coherence envelope is one exp() away from the written value
COHERENCE_RTOL = 1e-9
# compared times checked against the independent propagation
ORACLE_SAMPLES = 8


def _columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    data = np.array(rows, float).reshape(len(rows), len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


def _times_problem(name: str, written, workload: Workload) -> list[str]:
    expected = time_values(workload)
    if len(written) != len(expected) or not np.allclose(written, expected, rtol=1e-12, atol=0):
        return [f"{name}: times differ from the configured grid"]
    return []


def _model_and_grid(workload: Workload):
    model = model_from_dict(model_dict(workload))
    return model, build_grid(model.omega_max, workload.grid_m, avoid=model.levels)


def sparse_hamiltonian(model, grid) -> sparse.csr_array:
    """Levels first, then nodes, with sqrt(weight)-scaled level-node couplings."""
    n, m = model.n_levels, grid.size
    border = np.array([coupling_at(model, grid.nodes, i) for i in range(n)]) * np.sqrt(grid.weights)
    rows = np.repeat(np.arange(n), m)
    cols = np.tile(np.arange(n, n + m), n)
    coupling = sparse.coo_array((border.ravel(), (rows, cols)), shape=(n + m, n + m))
    diagonal = sparse.diags_array(np.concatenate([model.levels, grid.nodes]))
    return (diagonal + coupling + coupling.T).tocsr()


def compare_gate(workload: Workload, seed: int, artifacts: Path) -> list[str]:
    """Check sampled ``oracle`` values of compare.csv against expm_multiply."""
    model, grid = _model_and_grid(workload)
    n = model.n_levels
    header, rows = read_csv(artifacts / "compare.csv")
    times = time_values(workload)
    per_time = n + n * (n - 1) // 2
    if header[:3] != ["t", "quantity", "oracle"] or len(rows) != per_time * len(times):
        return [f"compare.csv: expected {per_time * len(times)} rows of t,quantity,oracle,..."]
    problems = _times_problem("compare.csv", [float(r[0]) for r in rows[::per_time]], workload)

    # columns: every level alone (survival), then the seeded superposition
    states = np.zeros((n + grid.size, n + 1), complex)
    states[np.arange(n), np.arange(n)] = 1.0
    amps = seeded_amplitudes(n, seed)
    states[:n, n] = amps
    h = sparse_hamiltonian(model, grid)
    t_prev = 0.0
    for k in np.unique(np.linspace(0, len(times) - 1, ORACLE_SAMPLES).round().astype(int)):
        t = float(times[k])
        states = expm_multiply(-1j * (t - t_prev) * h, states)
        t_prev = t
        exact = {f"survival_{i}": abs(states[i, i]) ** 2 for i in range(n)}
        psi = states[:n, n]
        exact.update({f"abs_coherence_{i}_{j}": abs(psi[i] * np.conj(psi[j]))
                      for i in range(n) for j in range(i + 1, n)})
        for row in rows[k * per_time:(k + 1) * per_time]:
            quantity, value = row[1], float(row[2])
            if quantity not in exact:
                problems.append(f"compare.csv: unexpected quantity {quantity!r} at t={t:g}")
            elif not abs(value - exact[quantity]) <= ORACLE_TOL:
                problems.append(f"compare.csv: {quantity} at t={t:g} is {value!r}, "
                                f"independent propagation gives {exact[quantity]!r}")
    return problems


def timeseries_gate(workload: Workload, seed: int, artifacts: Path) -> list[str]:
    """Population, pointer and coherence bookkeeping of evolve and measure."""
    model, grid = _model_and_grid(workload)
    n = model.n_levels
    gamma = liouville_spectrum(model, grid).gamma
    a = seeded_amplitudes(n, seed)
    p = np.abs(a) ** 2

    evolved = _columns(artifacts / "evolve.csv")
    series = _columns(artifacts / "measure_timeseries.csv")
    pointer = _columns(artifacts / "measure.csv")
    t = evolved["t"]
    problems = (_times_problem("evolve.csv", t, workload)
                + _times_problem("measure_timeseries.csv", series["t"], workload))
    if problems:
        return problems
    for i in range(n):
        total = evolved[f"occ_{i}"] + evolved[f"atom_{i}"]
        if not np.max(np.abs(total - p[i])) <= BOOKKEEPING_TOL:
            problems.append(f"evolve.csv: occ_{i} + atom_{i} departs from |a_{i}|^2")
        if not np.max(np.abs(series[f"atom_{i}"] - evolved[f"atom_{i}"])) <= BOOKKEEPING_TOL:
            problems.append(f"measure_timeseries.csv: atom_{i} differs from evolve.csv")
        for j in range(i + 1, n):
            envelope = np.abs(a[i] * a[j]) * np.exp(-(gamma[i] + gamma[j]) * t / 2)
            if not np.max(np.abs(evolved[f"abs_coh_{i}_{j}"] / envelope - 1)) <= COHERENCE_RTOL:
                problems.append(f"evolve.csv: abs_coh_{i}_{j} departs from its damped envelope")
    if len(pointer["probability"]) != n or not np.max(np.abs(pointer["probability"] - p)) <= BOOKKEEPING_TOL:
        problems.append("measure.csv: pointer probabilities differ from |a_i|^2")
    return problems


def check(workload: Workload, seed: int, artifacts: Path) -> list[str]:
    """Run the gate that fits the workload's subcommands."""
    gate = compare_gate if workload.commands == ("compare",) else timeseries_gate
    try:
        return gate(workload, seed, Path(artifacts))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]


def failed_iterations(iterations: list[dict], problems_by_digest: dict[str, list[str]]) -> int:
    """Iterations that raised, exited non-zero, differ from the first, or fail a gate."""
    reference = iterations[0]["digest"]
    return sum(1 for it in iterations
               if it["error"] or it["digest"] != reference or problems_by_digest.get(it["digest"]))
