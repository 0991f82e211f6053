import dataclasses
import importlib
import re
from pathlib import Path

import pointersim
import pointersim.cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = Path(pointersim.__file__).resolve().parent


def test_readme_quick_start_runs():
    # the README's one python block is the library quick start; run it as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README.md must hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {})


def _readers(defining_module: str) -> str:
    """Text of every place that may justify an export: README outside its
    Layout table, the CLI, the acceptance suite, the benchmark, and the
    package modules other than ``defining_module`` and ``__init__``."""
    readme = "\n".join(line for line in README.read_text().splitlines()
                       if not line.startswith("|"))
    files = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    files += [path for path in sorted(SRC.glob("*.py"))
              if path.stem not in ("__init__", defining_module)]
    return "\n".join([readme] + [path.read_text() for path in files])


def test_public_names_resolve():
    for name in pointersim.__all__:
        assert getattr(pointersim, name) is not None, name
    # every export has a reader besides its own module and its unit tests
    for name in pointersim.__all__:
        value = getattr(pointersim, name)
        module = getattr(value, "__module__", None) or value.__name__
        assert re.search(rf"\b{name}\b", _readers(module.rsplit(".", 1)[-1])), name
    # removed names stay removed: each has one surviving way, or no reader at all
    for gone in ("eigenvector_corrections", "embed_discrete", "integrate", "model_to_dict",
                 "energy_distribution", "classical_profile", "ClassicalProfile",
                 "EigenvectorCorrections", "diagonal_evolution", "EquilibriumState",
                 "AtomicMeasure", "decay_rate", "level_shift", "resolvent_boundary"):
        assert gone not in pointersim.__all__ and not hasattr(pointersim, gone)
    # each level's rate and shift are computed in liouville_spectrum alone, and
    # principal_value returns its float directly
    for module, gone in ((pointersim.spectrum, "decay_rate"), (pointersim.spectrum, "level_shift"),
                         (pointersim.continuum, "resolvent_boundary"),
                         (pointersim.continuum, "_principal_value")):
        assert not hasattr(module, gone), gone
    assert not hasattr(pointersim.spectrum, "EigenvectorCorrections")
    # the t -> infinity limit is a GeneralizedState, and recompose(evolve(...))
    # is the one evolution of a diagonal state
    for gone in ("diagonal_evolution", "EquilibriumState"):
        assert not hasattr(pointersim.evolution, gone), gone
    # the (w i| sector is rho_iomega.conj(), and no (w w'| sector is stored
    for gone in ("lambda_continuum_discrete", "lambda_cc"):
        assert not hasattr(pointersim.LiouvilleSpectrum, gone), gone
    fields = {f.name for f in dataclasses.fields(pointersim.GeneralizedState)}
    assert not fields & {"rho_omegai", "rho_omegaomega"}
    # a continuum-only state is a replace of zero_state, and the recurrence
    # time is read from the grid
    assert not hasattr(pointersim.evolution, "continuous_state")
    assert not hasattr(pointersim.OracleModel, "recurrence_time")
    # the pointer atoms are one weight per level on the state, not a measure;
    # the numeric-input rule lives in one private module, so the continuum
    # module holds grids and integrals only
    for gone in ("AtomicMeasure", "first_bool", "check_time", "check_amplitudes", "read_only"):
        assert not hasattr(pointersim.continuum, gone), gone
    # a run's times are one array
    assert not hasattr(pointersim.cli, "TimeGrid")


def test_layout_names_resolve():
    # every backticked identifier in a Layout row is an attribute of that row's module
    rows = re.findall(r"^\| `(pointersim\.\w+)` *\|(.*)\|$", README.read_text(), re.M)
    assert len(rows) == 7
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+)`", contents):
            assert hasattr(module, name), f"{module_name}.{name}"
