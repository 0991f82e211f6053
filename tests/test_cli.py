import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointersim
from pointersim.cli import main


def write_model(tmp_path, levels=(1.0, 2.0), amplitude=0.05, scale=1.0):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "levels": list(levels),
        "omega_max": 10.0,
        "coupling": {"kind": "constant", "amplitude": amplitude},
        "coupling_scale": scale,
    }))
    return path


def write_config(tmp_path, name="config.json", **extra):
    config = {
        "model": "model.json",
        "grid": {"m": 200, "scheme": "uniform-midpoint"},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_artifact(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            if ": " in line:
                key, value = line[2:].split(": ", 1)
                meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def test_spectrum_artifact_shape(tmp_path, capsys):
    write_model(tmp_path)
    config = write_config(tmp_path)
    assert main(["spectrum", "--config", str(config)]) == 0
    meta, columns, rows = read_artifact(tmp_path / "out" / "spectrum.csv")
    assert columns == ["i", "j", "re_lambda", "im_lambda", "gamma_i", "delta_i"]
    assert len(rows) == 4
    assert "config_hash" in meta
    gamma = 2 * np.pi * 0.05 ** 2
    diag_row = rows[0]
    assert float(diag_row[2]) == 0.0
    assert float(diag_row[3]) == pytest.approx(gamma)


def test_compare_zero_coupling_has_zero_error(tmp_path):
    write_model(tmp_path, scale=0.0)
    config = write_config(tmp_path, times={
        "t_start": 0.5, "t_end": 50.0, "samples": 8, "spacing": "log"})
    assert main(["compare", "--config", str(config)]) == 0
    meta, columns, rows = read_artifact(tmp_path / "out" / "compare.csv")
    assert columns == ["t", "quantity", "oracle", "predicted", "rel_error", "valid"]
    assert "recurrence_time" in meta
    for row in rows:
        assert row[5] == "1"
        assert row[4] == "0.0"


def test_compare_flags_beyond_recurrence_window(tmp_path):
    write_model(tmp_path, levels=(1.0,))
    config = write_config(tmp_path, times={
        "t_start": 1.0, "t_end": 1e5, "samples": 6, "spacing": "log"})
    assert main(["compare", "--config", str(config)]) == 0
    _, _, rows = read_artifact(tmp_path / "out" / "compare.csv")
    flags = [row[5] for row in rows]
    assert "0" in flags and "1" in flags
    invalid_rows = [row for row in rows if row[5] == "0"]
    assert all(row[4] == "nan" for row in invalid_rows)


def test_evolve_artifact_tracks_decay(tmp_path):
    write_model(tmp_path)
    config = write_config(
        tmp_path,
        times={"t_start": 1.0, "t_end": 200.0, "samples": 12, "spacing": "log"},
        initial={"diagonal": [0.3, 0.7]},
    )
    assert main(["evolve", "--config", str(config)]) == 0
    _, columns, rows = read_artifact(tmp_path / "out" / "evolve.csv")
    assert columns == ["t", "occ_0", "occ_1", "atom_0", "atom_1", "abs_coh_0_1"]
    gamma = 2 * np.pi * 0.05 ** 2
    for row in rows:
        t, occ0, atom0 = float(row[0]), float(row[1]), float(row[3])
        assert occ0 == pytest.approx(0.3 * np.exp(-gamma * t), rel=1e-10)
        assert occ0 + atom0 == pytest.approx(0.3, abs=1e-12)


def test_measure_artifact_applies_born_rule(tmp_path):
    write_model(tmp_path)
    config = write_config(tmp_path, amplitudes=[[0.6, 0.0], [0.0, 0.8]])
    assert main(["measure", "--config", str(config)]) == 0
    _, columns, rows = read_artifact(tmp_path / "out" / "measure.csv")
    assert columns == ["i", "omega", "probability"]
    assert float(rows[0][2]) == pytest.approx(0.36)
    assert float(rows[1][2]) == pytest.approx(0.64)


def test_measure_time_resolved_weights(tmp_path):
    write_model(tmp_path)
    config = write_config(
        tmp_path,
        amplitudes=[[0.6, 0.0], [0.0, 0.8]],
        times={"t_start": 1.0, "t_end": 100.0, "samples": 5, "spacing": "log"},
    )
    assert main(["measure", "--config", str(config)]) == 0
    _, columns, rows = read_artifact(tmp_path / "out" / "measure_timeseries.csv")
    assert columns == ["t", "atom_0", "atom_1"]
    gamma = 2 * np.pi * 0.05 ** 2
    last = rows[-1]
    assert float(last[1]) == pytest.approx(0.36 * (1 - np.exp(-gamma * float(last[0]))), rel=1e-10)


def test_artifacts_are_deterministic(tmp_path):
    write_model(tmp_path)
    config = write_config(tmp_path, times={
        "t_start": 0.5, "t_end": 50.0, "samples": 10, "spacing": "log"})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["compare", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["compare", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()


def test_seed_override_changes_hash_and_content(tmp_path):
    write_model(tmp_path)
    config = write_config(tmp_path, times={
        "t_start": 0.5, "t_end": 50.0, "samples": 4, "spacing": "log"})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["compare", "--config", str(config), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["compare", "--config", str(config), "--out", str(out_b), "--seed", "2"]) == 0
    meta_a, _, _ = read_artifact(out_a / "compare.csv")
    meta_b, _, _ = read_artifact(out_b / "compare.csv")
    assert meta_a["config_hash"] != meta_b["config_hash"]
    assert meta_a["seed"] == "1" and meta_b["seed"] == "2"


def test_grid_override_is_recorded(tmp_path):
    write_model(tmp_path)
    config = write_config(tmp_path)
    assert main(["spectrum", "--config", str(config), "--grid-m", "500"]) == 0
    meta, _, _ = read_artifact(tmp_path / "out" / "spectrum.csv")
    assert meta["grid_m"] == "500"


def test_missing_config_fails_cleanly(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_times_rejected(tmp_path, capsys):
    write_model(tmp_path)
    config = write_config(tmp_path, times={"t_start": 5.0, "t_end": 1.0, "samples": 4})
    assert main(["evolve", "--config", str(config)]) == 1
    assert "t_end" in capsys.readouterr().err


def test_unknown_grid_scheme_rejected(tmp_path, capsys):
    write_model(tmp_path)
    config = write_config(tmp_path, grid={"m": 200, "scheme": "foo"})
    assert main(["spectrum", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "scheme" in err and len(err.strip().splitlines()) == 1


def test_malformed_grid_size_rejected(tmp_path, capsys):
    write_model(tmp_path)
    config = write_config(tmp_path, grid={"m": "abc"})
    assert main(["spectrum", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "grid" in err and len(err.strip().splitlines()) == 1


def test_invalid_model_fails_cleanly(tmp_path, capsys):
    write_model(tmp_path, levels=(1.0, 1.0))
    config = write_config(tmp_path)
    assert main(["spectrum", "--config", str(config)]) == 1
    assert "distinct" in capsys.readouterr().err


def test_missing_initial_block_rejected(tmp_path, capsys):
    write_model(tmp_path)
    config = write_config(tmp_path, times={
        "t_start": 0.5, "t_end": 5.0, "samples": 4, "spacing": "log"})
    assert main(["evolve", "--config", str(config)]) == 1
    assert "initial" in capsys.readouterr().err


_TIMES = {"t_start": 0.5, "t_end": 5.0, "samples": 3, "spacing": "log"}


@pytest.mark.parametrize("command, extra", [
    ("evolve", {"times": _TIMES, "initial": {"diagonal": [1.0]}}),
    ("evolve", {"times": _TIMES, "initial": {"amplitudes": [[1.0, 0.0]]}}),
    ("measure", {"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": ["a", "b"]}}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": [-0.5, 1.5]}}),
    ("evolve", {"times": _TIMES, "initial": 5}),
    ("spectrum", {"seed": "abc"}),
    ("spectrum", {"seed": 1.5}),
    ("compare", {"times": _TIMES, "seed": -1}),
], ids=["short-diagonal", "short-initial-amplitudes", "long-amplitudes",
        "non-numeric-diagonal", "negative-diagonal", "initial-not-an-object",
        "string-seed", "fractional-seed", "negative-seed"])
def test_malformed_level_inputs_fail_with_one_line(tmp_path, capsys, command, extra):
    write_model(tmp_path)
    config = write_config(tmp_path, **extra)
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [
    {"grid": {"m": 200.9}},
    {"grid": {"m": True}},
    {"grid": {"m": "200"}},
    {"times": {**_TIMES, "samples": 3.7}},
    {"times": {**_TIMES, "samples": True}},
    {"times": {**_TIMES, "samples": "3"}},
], ids=["fractional-m", "bool-m", "string-m", "fractional-samples", "bool-samples",
        "string-samples"])
def test_non_integer_counts_fail_with_one_line(tmp_path, capsys, extra):
    write_model(tmp_path)
    config = write_config(tmp_path, initial={"diagonal": [0.5, 0.5]}, **{"times": _TIMES, **extra})
    assert main(["evolve", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "integer" in err
    assert not (tmp_path / "out" / "evolve.csv").exists()


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize costs more than the rest of the package import
    code = ("import sys, pointersim; from pointersim import cli; "
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(pointersim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
