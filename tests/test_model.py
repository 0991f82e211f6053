import json
from dataclasses import replace

import numpy as np
import pytest

from pointersim import (
    CouplingProfile,
    ModelSpec,
    coupling_at,
    load_model,
    model_from_dict,
    build_grid,
    liouville_spectrum,
)
from pointersim.errors import (
    DegenerateLevels,
    LevelIndexOutOfRange,
    LevelOutsideContinuum,
    ModelInvalid,
    NegativeScale,
    OutOfSupport,
)
from .conftest import make_constant_model


def test_valid_single_level_accepted():
    spec = make_constant_model([1.0], 0.1)
    assert spec.n_levels == 1
    assert spec.omega_max == 10.0


def test_degenerate_levels_rejected():
    with pytest.raises(DegenerateLevels):
        make_constant_model([1.0, 1.0], 0.1)


def test_level_outside_continuum_rejected():
    with pytest.raises(LevelOutsideContinuum):
        make_constant_model([12.0], 0.1)


def test_level_on_boundary_rejected():
    with pytest.raises(LevelOutsideContinuum):
        make_constant_model([0.0], 0.1)
    with pytest.raises(LevelOutsideContinuum):
        make_constant_model([10.0], 0.1)


def test_negative_scale_rejected():
    with pytest.raises(NegativeScale):
        make_constant_model([1.0], 0.1, scale=-0.5)


def test_constant_coupling_same_everywhere():
    spec = make_constant_model([1.0], 0.1)
    for omega in (0.0, 1.0, 3.7, 10.0):
        assert coupling_at(spec, omega, 0) == 0.1


def test_zero_scale_gives_zero_coupling():
    spec = make_constant_model([1.0], 0.1, scale=0.0)
    assert coupling_at(spec, 4.2, 0) == 0.0


def test_gaussian_window_peaks_at_level():
    spec = ModelSpec(
        levels=[2.0], omega_max=10.0,
        coupling=CouplingProfile.gaussian_window(amplitude=0.3, width=0.5),
    )
    assert coupling_at(spec, 2.0, 0) == pytest.approx(0.3, abs=0.0)
    assert coupling_at(spec, 2.5, 0) == pytest.approx(0.3 * np.exp(-0.5))


def test_lorentzian_window_peaks_at_center():
    spec = ModelSpec(
        levels=[2.0], omega_max=10.0,
        coupling=CouplingProfile.lorentzian_window(amplitude=0.2, width=1.0, center=3.0),
    )
    assert coupling_at(spec, 3.0, 0) == pytest.approx(0.2)
    assert coupling_at(spec, 4.0, 0) == pytest.approx(0.1)


def test_tabulated_profile_interpolates():
    spec = ModelSpec(
        levels=[1.0], omega_max=10.0,
        coupling=CouplingProfile.tabulated(omega=[0.0, 5.0, 10.0], values=[0.0, 0.5, 0.0]),
    )
    assert coupling_at(spec, 2.5, 0) == pytest.approx(0.25)
    assert coupling_at(spec, 5.0, 0) == pytest.approx(0.5)


def test_tabulated_profile_must_cover_support():
    with pytest.raises(ModelInvalid):
        ModelSpec(
            levels=[1.0], omega_max=10.0,
            coupling=CouplingProfile.tabulated(omega=[0.0, 5.0], values=[0.1, 0.1]),
        )


def test_coupling_rescaling_is_exact():
    # powers of two keep the float products exact
    base = make_constant_model([1.0], 0.1, scale=0.5)
    doubled = make_constant_model([1.0], 0.1, scale=1.0)
    for omega in (0.3, 1.0, 7.7):
        assert coupling_at(doubled, omega, 0) == 2.0 * coupling_at(base, omega, 0)


def test_coupling_is_deterministic():
    spec = ModelSpec(
        levels=[1.0, 2.0], omega_max=10.0,
        coupling=CouplingProfile.gaussian_window(amplitude=[0.1, 0.2], width=0.3),
    )
    assert coupling_at(spec, 1.234, 1) == coupling_at(spec, 1.234, 1)


def test_vectorized_evaluation_matches_scalar():
    spec = make_constant_model([1.0], 0.1)
    omegas = np.array([0.0, 2.0, 9.0])
    assert np.array_equal(coupling_at(spec, omegas, 0), [0.1, 0.1, 0.1])


def test_out_of_support_rejected():
    spec = make_constant_model([1.0], 0.1)
    # NaN fails every comparison, so it must not pass as inside the support;
    # a string is never parsed as a frequency, nor a boolean read as 0 or 1.
    # The number rule reads the whole input before the support is checked.
    for omega, culprit in ((-0.5, "-0.5"), (10.5, "10.5"), (np.nan, "nan"),
                           (np.array([1.0, np.nan]), "nan"), ([1.0, [2.0]], "a ragged sequence"),
                           ("5.0", "'5.0'"), (True, "True"), ([1.0, -0.5, 11.0], "-0.5"),
                           ([-0.5, np.nan], "nan")):
        with pytest.raises(OutOfSupport) as refused:
            coupling_at(spec, omega, 0)
        assert str(refused.value) == f"omega must be finite numbers in [0, 10.0], got {culprit}"


def test_bad_level_index_rejected():
    spec = make_constant_model([1.0], 0.1)
    with pytest.raises(IndexError):
        coupling_at(spec, 1.0, 3)


@pytest.mark.parametrize("i", [-1, 2, True], ids=["minus-one", "count", "bool"])
def test_coupling_at_refuses_a_level_index_out_of_range(i):
    # -1 would read the last level's coupling, and True would be a numpy mask
    spec = make_constant_model([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(LevelIndexOutOfRange, match=rf"integer in \[0, 2\), got {i}$"):
        coupling_at(spec, 1.0, i)


def test_json_round_trip(tmp_path):
    data = {
        "levels": [1.0, 2.0],
        "omega_max": 10.0,
        "coupling": {"kind": "constant", "amplitude": [0.05, 0.07]},
        "coupling_scale": 1.5,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    spec = load_model(path)
    assert spec.coupling_scale == 1.5
    assert coupling_at(spec, 3.0, 1) == pytest.approx(1.5 * 0.07)


def test_missing_fields_rejected():
    with pytest.raises(ModelInvalid):
        model_from_dict({"levels": [1.0], "omega_max": 10.0})
    with pytest.raises(ModelInvalid):
        model_from_dict({"levels": [1.0], "omega_max": 10.0, "coupling": {"kind": "constant"}})


def test_unknown_coupling_kind_rejected():
    with pytest.raises(ModelInvalid):
        model_from_dict({
            "levels": [1.0], "omega_max": 10.0,
            "coupling": {"kind": "polka-dot", "amplitude": 0.1},
        })


# -- valid by construction -----------------------------------------------------

def test_window_centers_resolve_on_construction():
    spec = ModelSpec(levels=[1.0, 2.0], omega_max=10.0,
                     coupling=CouplingProfile.gaussian_window(0.05, 1.0))
    assert spec.coupling.center.tolist() == [1.0, 2.0]
    spectrum = liouville_spectrum(spec, build_grid(10.0, 400, avoid=spec.levels))
    assert spectrum.gamma == pytest.approx([2 * np.pi * 0.05 ** 2] * 2, rel=1e-14)


def test_one_element_amplitude_is_broadcast_to_every_level():
    spec = ModelSpec(levels=[1.0, 2.0], omega_max=10.0, coupling=CouplingProfile.constant([0.05]))
    assert spec.coupling.amplitude.tolist() == [0.05, 0.05]
    assert coupling_at(spec, 3.0, 1) == 0.05


def test_replace_checks_the_new_model():
    spec = make_constant_model([1.0, 2.0], 0.05)
    with pytest.raises(DegenerateLevels):
        replace(spec, levels=[1.0, 1.0])


def test_levels_closer_than_the_atom_tolerance_are_degenerate():
    with pytest.raises(DegenerateLevels):
        make_constant_model([1.0, 1.0 + 1e-13], 0.05)


def test_fields_are_read_only_copies():
    levels = np.array([1.0, 2.0])
    spec = make_constant_model(levels, 0.05)
    levels[0] = 3.0
    assert spec.levels.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        spec.levels[0] = 3.0


@pytest.mark.parametrize("field, value, match", [
    ("levels", [[1.0]], "levels"),
    ("levels", "x", "levels"),
    ("levels", [1.0, float("nan")], "levels"),
    ("levels", [1.0, float("inf")], "levels"),
    ("omega_max", {"a": 1}, "omega_max"),
    ("coupling_scale", float("nan"), "coupling_scale"),
    ("amplitude", "x", "amplitude"),
    ("amplitude", {"a": 1}, "amplitude"),
    ("amplitude", [[0.05]], "amplitude"),
    ("amplitude", [0.05, 0.05, 0.05], "amplitude"),
    ("amplitude", 1e200, "non-finite"),
    # numpy would read a boolean among numbers as 0 or 1
    ("levels", [2.0, True], "levels"),
    ("amplitude", [0.05, False], "amplitude"),
], ids=["nested-levels", "string-levels", "nan-level", "inf-level", "object-omega-max",
        "nan-scale", "string-amplitude", "object-amplitude", "nested-amplitude", "long-amplitude",
        "square-overflows", "bool-among-levels", "bool-among-amplitudes"])
def test_malformed_fields_are_model_invalid(recwarn, field, value, match):
    data = {"levels": [1.0, 2.0], "omega_max": 10.0,
            "coupling": {"kind": "constant", "amplitude": 0.05}}
    if field == "amplitude":
        data["coupling"]["amplitude"] = value
    else:
        data[field] = value
    with pytest.raises(ModelInvalid, match=match):
        model_from_dict(data)
    assert not recwarn.list
