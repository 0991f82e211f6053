"""Each gate passes on genuine artifacts and fails on a perturbed one.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
The workloads are shrunk (small grids, few times) so the suite is quick; the
gates do not depend on the size.
"""

import contextlib
import io
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gates
from artifacts import artifact_digest
from pointersim import cli
from tracing import TRACE_POINTS, Tracer, trace_target
from workloads import WORKLOADS, write_inputs

SEED = 7
SMALL_COMPARE = replace(WORKLOADS["oracle-compare"], grid_m=300,
                        times={"t_start": 1.0, "t_end": 60.0, "samples": 6, "spacing": "log"})
SMALL_SERIES = replace(WORKLOADS["perturbative-timeseries"], grid_m=200,
                       times={"t_start": 0.5, "t_end": 60.0, "samples": 20, "spacing": "log"})


def run_cli(workload, directory: Path) -> Path:
    config = write_inputs(workload, SEED, directory / "inputs")
    out = directory / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for command in workload.commands:
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def perturb(path: Path, row: int, column: str, change):
    """Rewrite one numeric cell of a CLI artifact through ``change``."""
    lines = path.read_text().splitlines()
    header_at = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].split(",").index(column)
    cells = lines[header_at + 1 + row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[header_at + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def compare_artifacts(tmp_path_factory):
    return run_cli(SMALL_COMPARE, tmp_path_factory.mktemp("compare"))


@pytest.fixture(scope="module")
def series_artifacts(tmp_path_factory):
    return run_cli(SMALL_SERIES, tmp_path_factory.mktemp("series"))


@pytest.fixture
def compare_copy(compare_artifacts, tmp_path):
    return Path(shutil.copytree(compare_artifacts, tmp_path / "out"))


@pytest.fixture
def series_copy(series_artifacts, tmp_path):
    return Path(shutil.copytree(series_artifacts, tmp_path / "out"))


def test_compare_gate_accepts_genuine_oracle(compare_artifacts):
    assert gates.check(SMALL_COMPARE, SEED, compare_artifacts) == []


@pytest.mark.parametrize("row", [0, 2, 15])  # survival_0 at t0, the coherence at t0, the last time
def test_compare_gate_rejects_inaccurate_oracle_value(compare_copy, row):
    perturb(compare_copy / "compare.csv", row, "oracle", lambda v: v * (1 + 1e-6))
    problems = gates.check(SMALL_COMPARE, SEED, compare_copy)
    assert len(problems) == 1 and "independent propagation" in problems[0]


def test_compare_gate_rejects_amplitudes_from_another_seed(compare_artifacts):
    assert gates.check(SMALL_COMPARE, SEED + 1, compare_artifacts)


def test_timeseries_gate_accepts_genuine_artifacts(series_artifacts):
    assert gates.check(SMALL_SERIES, SEED, series_artifacts) == []


@pytest.mark.parametrize("artifact, column, change, expected", [
    ("evolve.csv", "occ_3", lambda v: v + 1e-9, "occ_3 + atom_3"),
    ("evolve.csv", "abs_coh_1_4", lambda v: v * (1 + 1e-7), "abs_coh_1_4"),
    ("measure_timeseries.csv", "atom_2", lambda v: v + 1e-9, "atom_2 differs"),
    ("measure.csv", "probability", lambda v: v + 1e-9, "pointer probabilities"),
])
def test_timeseries_gate_rejects_perturbed_artifact(series_copy, artifact, column, change, expected):
    perturb(series_copy / artifact, 4, column, change)
    problems = gates.check(SMALL_SERIES, SEED, series_copy)
    assert len(problems) == 1 and expected in problems[0]


def test_timeseries_gate_rejects_missing_artifact(series_copy):
    (series_copy / "measure.csv").unlink()
    assert gates.check(SMALL_SERIES, SEED, series_copy)[0].startswith("artifacts unreadable")


def test_digest_sees_one_changed_byte(series_copy, series_artifacts):
    assert artifact_digest(series_copy) == artifact_digest(series_artifacts)
    perturb(series_copy / "evolve.csv", 0, "t", lambda v: v)  # same value, same bytes
    assert artifact_digest(series_copy) == artifact_digest(series_artifacts)
    path = series_copy / "evolve.csv"
    path.write_bytes(path.read_bytes().replace(b"# seed: 7", b"# seed: 8"))
    assert artifact_digest(series_copy) != artifact_digest(series_artifacts)


def test_determinism_and_errors_count_as_failed_iterations():
    ok = {"digest": "a", "error": None}
    iterations = [ok, ok, {"digest": "b", "error": None}, {"digest": "a", "error": "boom"}]
    assert gates.failed_iterations(iterations, {"a": [], "b": []}) == 2
    assert gates.failed_iterations(iterations, {"a": ["wrong"], "b": []}) == 4


def test_tracer_counts_layers_and_restores_originals(tmp_path):
    originals = [getattr(*trace_target(module, path)) for module, path, _ in TRACE_POINTS]
    tracer = Tracer()
    with tracer.installed(1):
        run_cli(SMALL_COMPARE, tmp_path)
    assert [getattr(*trace_target(module, path)) for module, path, _ in TRACE_POINTS] == originals

    layers = tracer.medians()
    times = SMALL_COMPARE.times["samples"]
    assert layers["oracle.discretize_calls"] == 1
    assert layers["oracle.orthonormality_defect_calls"] == 1
    assert layers["oracle.survival_probability_calls"] == 2 * times
    assert layers["oracle.coherence_calls"] == layers["oracle.evolve_pure_calls"] == times
    assert layers["oracle.hamiltonian_dim"] == 2 + 300
    assert layers["evolution.evolve_calls"] == 0
    # self times exclude children, so they sum to at most the run span's total
    run = next(s for s in tracer.spans if s.name == "cli.run")
    self_total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert 0 < self_total <= run.end - run.start + 1e-9


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = Path(gates.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
