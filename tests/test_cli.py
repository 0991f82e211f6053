import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointersim.cli
from pointersim import (MeasurementSetup, build_grid, decompose_initial, evolve,
                        liouville_spectrum, load_model, premeasure, recompose)
from pointersim.cli import main
from pointersim.continuum import GRID_SCHEMES
from pointersim.model import COUPLING_KINDS
from .conftest import NumpyWithoutMemory, modules_loaded_by


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


_AMPLITUDES = [[0.5, 0.1], [0.2, -0.6], [0.3, 0.4]]
_SERIES_TIMES = {"t_start": 0.5, "t_end": 300.0, "samples": 23, "spacing": "log"}


def _series_config(tmp_path):
    write_model(tmp_path, levels=(1.0, 2.5, 4.0))
    pairs = (np.asarray(_AMPLITUDES) / np.linalg.norm(_AMPLITUDES)).tolist()
    return write_config(tmp_path, times=_SERIES_TIMES, initial={"amplitudes": pairs},
                        amplitudes=pairs), pairs


def test_time_series_rows_match_per_time_library_calls(tmp_path):
    # the CLI evolves every time in one stack; each row is rebuilt here from
    # one evolve and one recompose at that time alone
    config, pairs = _series_config(tmp_path)
    assert main(["evolve", "--config", str(config)]) == 0
    assert main(["measure", "--config", str(config)]) == 0
    model = load_model(tmp_path / "model.json")
    grid = build_grid(model.omega_max, 200, avoid=model.levels)
    spec = liouville_spectrum(model, grid)
    amplitudes = np.asarray(pairs) @ [1.0, 1j]
    state0 = decompose_initial(premeasure(MeasurementSetup(amplitudes), grid), spec)
    levels_ij = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    evolve_rows, measure_rows = [], []
    for t in np.geomspace(0.5, 300.0, 23):
        state = recompose(evolve(state0, spec, float(t)), spec)
        atoms = [repr(float(a)) for a in state.rho_omega_atoms]
        occ = [repr(float(np.real(state.rho_d[i, i]))) for i in range(3)]
        coh = [repr(float(np.abs(state.rho_d[i, j]))) for i, j in levels_ij]
        evolve_rows.append([repr(float(t))] + occ + atoms + coh)
        measure_rows.append([repr(float(t))] + atoms)
    assert read_artifact(tmp_path / "out" / "evolve.csv")[2] == evolve_rows
    assert read_artifact(tmp_path / "out" / "measure_timeseries.csv")[2] == measure_rows


def test_time_series_evolve_all_times_in_one_call(tmp_path, monkeypatch):
    calls = {"evolve": 0, "recompose": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(pointersim.cli, name, counting(name, getattr(pointersim.cli, name)))
    config, _ = _series_config(tmp_path)
    for command in ("evolve", "measure"):
        calls.update(evolve=0, recompose=0)
        assert main([command, "--config", str(config)]) == 0
        assert calls == {"evolve": 1, "recompose": 1}, command


def test_artifacts_are_deterministic(tmp_path):
    write_model(tmp_path)
    config = write_config(tmp_path, times={
        "t_start": 0.5, "t_end": 50.0, "samples": 10, "spacing": "log"})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["compare", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["compare", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()


_INTEGER_COLUMNS = {"i", "j", "valid"}


@pytest.mark.parametrize("levels, scheme, times", [
    ((1.0, 2.0), "uniform-midpoint", {"t_start": 0.5, "t_end": 50.0, "samples": 6, "spacing": "log"}),
    ((1.0, 2.0, 3.5), "gauss-legendre-composite",
     {"t_start": 0.0, "t_end": 40.0, "samples": 7, "spacing": "linear"}),
], ids=["two-levels-log", "three-levels-linear"])
def test_float_cells_are_shortest_round_trip_reprs(tmp_path, levels, scheme, times):
    write_model(tmp_path, levels=levels)
    zeros = [[0.0, 0.0]] * (len(levels) - 2)
    config = write_config(tmp_path, grid={"m": 200, "scheme": scheme}, times=times,
                          initial={"amplitudes": [[0.6, 0.0], [0.0, 0.8]] + zeros},
                          amplitudes=[[0.0, 0.8], [0.6, 0.0]] + zeros)
    for command in ("spectrum", "evolve", "compare", "measure"):
        assert main([command, "--config", str(config)]) == 0
    artifacts = sorted((tmp_path / "out").glob("*.csv"))
    assert [a.name for a in artifacts] == ["compare.csv", "evolve.csv", "measure.csv",
                                           "measure_timeseries.csv", "spectrum.csv"]
    for artifact in artifacts:
        meta, columns, rows = read_artifact(artifact)
        for key in ("coupling_scale", "recurrence_time", "valid_t_max"):
            assert repr(float(meta[key])) == meta[key], (artifact.name, key)
        for row in rows:
            for column, cell in zip(columns, row, strict=True):
                if column in _INTEGER_COLUMNS:
                    assert str(int(cell)) == cell, (artifact.name, column, cell)
                elif column != "quantity":
                    assert repr(float(cell)) == cell, (artifact.name, column, cell)


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
    ("measure", {"amplitudes": [[1e200, 0.0], [0.0, 0.0]]}),
    ("evolve", {"times": _TIMES, "initial": {"amplitudes": [[1e200, 0.0], [0.0, 0.0]]}}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": [1e308, 1e308]}}),
    # only JSON numbers count as numbers: no string is parsed, no boolean read as 0 or 1
    ("evolve", {"times": {**_TIMES, "t_start": True}, "initial": {"diagonal": [0.5, 0.5]}}),
    ("evolve", {"times": {**_TIMES, "t_end": "50"}, "initial": {"diagonal": [0.5, 0.5]}}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": ["1.0", False]}}),
    ("measure", {"amplitudes": [["0.6", 0.0], [0.0, 0.8]]}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": [1.0, False]}}),
    ("evolve", {"times": _TIMES, "initial": {"amplitudes": [[0.6, 0.0], [0.8, False]]}}),
    ("measure", {"amplitudes": [[0.0, 0.0], [True, 0.0]]}),
    # an integer literal past 64 bits is no float: it used to raise a bare OverflowError
    ("evolve", {"times": {**_TIMES, "t_end": 10 ** 400}, "initial": {"diagonal": [0.5, 0.5]}}),
    ("evolve", {"times": _TIMES, "initial": {"diagonal": [10 ** 400, 0]}}),
], ids=["short-diagonal", "short-initial-amplitudes", "long-amplitudes",
        "non-numeric-diagonal", "negative-diagonal", "initial-not-an-object",
        "string-seed", "fractional-seed", "negative-seed", "huge-amplitudes",
        "huge-initial-amplitudes", "huge-diagonal", "bool-t-start", "string-t-end",
        "string-and-bool-diagonal", "string-amplitude", "bool-among-diagonal",
        "bool-in-initial-amplitude", "bool-in-amplitude", "huge-integer-t-end",
        "huge-integer-diagonal"])
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


@pytest.mark.parametrize("command, t_end", [
    ("evolve", "Infinity"),
    ("evolve", "1e400"),
    ("compare", "Infinity"),
    ("measure", "Infinity"),
], ids=["evolve-infinity", "evolve-overflow", "compare-infinity", "measure-infinity"])
def test_non_finite_times_fail_with_one_line(tmp_path, capsys, command, t_end):
    write_model(tmp_path)
    config = write_config(tmp_path, times={**_TIMES, "t_end": "T_END"},
                          initial={"diagonal": [0.5, 0.5]}, amplitudes=[[0.6, 0.0], [0.0, 0.8]])
    # raw JSON text: 1e400 overflows to inf only when the config is parsed
    config.write_text(config.read_text().replace('"T_END"', t_end))
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("levels", [[1.0]]),
    ("amplitude", "x"),
    ("amplitude", {"a": 1}),
    ("amplitude", 1e200),
    # only JSON numbers count as numbers: no string is parsed, no boolean read as 0 or 1
    ("levels", ["2.0", True, "3"]),
    ("omega_max", "10"),
    ("amplitude", "0.05"),
    ("coupling_scale", True),
    ("levels", [2.0, True]),
], ids=["nested-levels", "string-amplitude", "object-amplitude", "overflowing-amplitude",
        "string-and-bool-levels", "string-omega-max", "numeric-string-amplitude",
        "bool-coupling-scale", "bool-among-levels"])
def test_malformed_model_fields_fail_with_one_line(tmp_path, capsys, field, value):
    model = write_model(tmp_path)
    data = json.loads(model.read_text())
    if field == "amplitude":
        data["coupling"]["amplitude"] = value
    else:
        data[field] = value
    model.write_text(json.dumps(data))
    assert main(["spectrum", "--config", str(write_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_overflowing_spectrum_fails_with_one_line(tmp_path, capsys):
    # V^2 = 1e308 is finite, but 2 pi V^2 and the shift overflow
    write_model(tmp_path, amplitude=1e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["spectrum", "--config", str(write_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_level_next_to_the_cutoff_gets_a_spectrum(tmp_path):
    # 9.99 lies within half a node spacing (0.05) of omega_max = 10
    write_model(tmp_path, levels=(1.0, 9.99))
    assert main(["spectrum", "--config", str(write_config(tmp_path))]) == 0
    _, _, rows = read_artifact(tmp_path / "out" / "spectrum.csv")
    assert len(rows) == 4 and all(np.isfinite(float(cell)) for row in rows for cell in row[2:])


def test_unallocatable_grid_fails_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pointersim.continuum.np", NumpyWithoutMemory())
    write_model(tmp_path)
    config = write_config(tmp_path, grid={"m": 100_000_000_000})
    assert main(["spectrum", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "grid.m = 100000000000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,spacing", [("evolve", "log"), ("compare", "linear"),
                                             ("measure", "log")])
def test_unallocatable_time_grid_fails_with_one_line(tmp_path, capsys, monkeypatch,
                                                     command, spacing):
    monkeypatch.setattr("pointersim.cli.np", NumpyWithoutMemory())
    write_model(tmp_path)
    config = write_config(tmp_path, initial={"diagonal": [0.3, 0.7]},
                          amplitudes=[[0.6, 0.0], [0.0, 0.8]], times={
        "t_start": 1.0, "t_end": 10.0, "samples": 100_000_000_000, "spacing": spacing})
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "times.samples = 100000000000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "measure"])
def test_unallocatable_stack_fails_with_one_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("pointersim.evolution.np", NumpyWithoutMemory())
    write_model(tmp_path)
    config = write_config(tmp_path, initial={"diagonal": [0.3, 0.7]},
                          amplitudes=[[0.6, 0.0], [0.0, 0.8]], times={
        "t_start": 1.0, "t_end": 10.0, "samples": 700, "spacing": "log"})
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "(700, 2, 2) does not fit in memory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    {"model": 5},
    {"output_dir": 5},
], ids=["numeric-model", "numeric-output-dir"])
def test_non_path_config_fields_fail_with_one_line(tmp_path, capsys, extra):
    write_model(tmp_path)
    assert main(["spectrum", "--config", str(write_config(tmp_path, **extra))]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "path string" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["the-file-itself", "below-the-file"])
def test_output_dir_on_a_regular_file_fails_with_one_line(tmp_path, capsys, below):
    # a regular file where a directory must go; permission bits would not stop root
    write_model(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    config = write_config(tmp_path, output_dir=str(blocker / below),
                          amplitudes=[[0.6, 0.0], [0.0, 0.8]], times=_TIMES)
    assert main(["measure", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "cannot write" in err
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json", "model.json"]


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy costs more than the rest of the package import, and the
    # package never needs it
    assert modules_loaded_by("import pointersim; from pointersim import cli", "scipy") == "[]"


# -- fuzz: model and config dicts, one field at a time gone wrong --------------
#
# Every field is drawn valid, or, for up to two fields per example, as a JSON
# value of another type or shape.  Magnitudes stay modest (zero, or between
# 1e-3 and 1e3 in size; grid.m <= 512): the numeric edges are their own
# concern.  So that no example writes or reads outside its own directory, no
# drawn string holds a "/" and output_dir draws no string at all.

_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(st.characters(exclude_characters="/"), max_size=6),
    st.lists(st.lists(_MAGNITUDES, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=3), _MAGNITUDES, max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


def _per_level(n, values=_MAGNITUDES):
    return st.one_of(values, st.lists(values, min_size=n, max_size=n))


def _amplitude_pairs(n):
    pairs = st.lists(st.tuples(_MAGNITUDES, _MAGNITUDES).map(list), min_size=n, max_size=n)
    normalized = pairs.filter(lambda a: np.linalg.norm(a) > 0).map(
        lambda a: (np.asarray(a) / np.linalg.norm(a)).tolist())
    return st.one_of(normalized, pairs)


@st.composite
def _model_and_config(draw):
    """(model dict, config dict) with up to two fields broken; the valid
    output_dir "OUT" stands for a directory the test provides."""
    n = draw(st.integers(1, 3))
    omega_max = draw(st.floats(1.0, 1e3))
    table = np.linspace(0.0, omega_max, draw(st.integers(2, 5))).tolist()
    valid = {
        "levels": st.lists(st.floats(1e-3, 0.999), min_size=n, max_size=n, unique=True).map(
            lambda fractions: [omega_max * f for f in fractions]),
        "omega_max": st.just(omega_max),
        "coupling_scale": st.floats(0.0, 1e3),
        "kind": st.sampled_from(COUPLING_KINDS),
        "amplitude": _per_level(n),
        "width": _per_level(n, st.floats(1e-3, 1e3)),
        "center": st.one_of(st.none(), _per_level(n)),
        "omega": st.just(table),
        "values": st.one_of(
            st.lists(_MAGNITUDES, min_size=len(table), max_size=len(table)),
            st.lists(st.lists(_MAGNITUDES, min_size=n, max_size=n),
                     min_size=len(table), max_size=len(table))),
        "model": st.just("model.json"),
        "grid": st.just(None),
        "m": st.integers(16, 512),
        "scheme": st.sampled_from(GRID_SCHEMES),
        "times": st.booleans(),
        "t_start": st.floats(1e-3, 10.0),
        "t_end": st.floats(10.0, 1e3),
        "samples": st.integers(2, 64),
        "spacing": st.sampled_from(["linear", "log"]),
        "output_dir": st.just("OUT"),
        "seed": st.integers(0, 1000),
        "initial": st.fixed_dictionaries({"amplitudes": _amplitude_pairs(n)}),
        "amplitudes": _amplitude_pairs(n),
    }
    broken = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    junk = {"output_dir": _JUNK.filter(lambda v: not isinstance(v, str))}
    value = {field: draw(junk.get(field, _JUNK) if field in broken else strategy)
             for field, strategy in valid.items()}

    coupling = {"kind": value["kind"]}
    for field in ("amplitude", "width", "center", "omega", "values"):
        if field in broken or value[field] is not None:
            coupling[field] = value[field]
    model = {"levels": value["levels"], "omega_max": value["omega_max"],
             "coupling": coupling, "coupling_scale": value["coupling_scale"]}
    config = {"model": value["model"], "seed": value["seed"], "initial": value["initial"],
              "amplitudes": value["amplitudes"], "output_dir": value["output_dir"]}
    config["grid"] = value["grid"] if "grid" in broken else {"m": value["m"],
                                                              "scheme": value["scheme"]}
    if "times" in broken:
        config["times"] = value["times"]
    elif value["times"]:
        config["times"] = {"t_start": value["t_start"], "t_end": value["t_end"],
                           "samples": value["samples"], "spacing": value["spacing"]}
    return model, config


def _artifact_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("command", ["spectrum", "evolve", "compare", "measure"])
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(case=_model_and_config())
def test_any_model_or_config_exits_0_or_1_with_one_line(command, case):
    model, config = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if config["output_dir"] == "OUT":
            config["output_dir"] = str(tmp / "out")
        (tmp / "model.json").write_text(json.dumps(model))
        (tmp / "config.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(tmp / "config.json")])
            # a valid config is byte-deterministic: a second run writes the same files
            if code == 0:
                again = main([command, "--config", str(tmp / "config.json"),
                              "--out", str(tmp / "again")])
                assert again == 0
                assert _artifact_bytes(tmp / "again") == _artifact_bytes(tmp / "out")
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"pointersim {command}: error: ")
