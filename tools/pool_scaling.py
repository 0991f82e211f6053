"""Time the oracle's ``discretize`` in-process at one CPU and at every CPU.

The model has a constant coupling V = 0.05 on [0, 10] and N levels evenly
spaced over [1, 7] (one level sits at 3.0).  Each round runs ``discretize``
once with the pass parts' CPU count patched to 1 and once unpatched, so the
two settings alternate and share the machine's drift; the script prints the
minimum of each over the rounds, and the same for one more call of the
orthonormality gate (``discretize`` already includes one).  It needs only the
standard library and numpy, and imports the package from this checkout's
``src``.

Run it from anywhere, for example

    python tools/pool_scaling.py --levels 1 --m 3500 --repeat 9
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import pointersim.oracle as oracle  # noqa: E402
from pointersim import CouplingProfile, ModelSpec, build_grid, discretize  # noqa: E402


def _timed(call):
    """``call()`` and the seconds it took."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, default=1, help="N, the number of levels")
    parser.add_argument("--m", type=int, default=3500, help="M, the number of grid nodes")
    parser.add_argument("--repeat", type=int, default=9, help="rounds; the minimum is printed")
    args = parser.parse_args(argv)

    levels = [3.0] if args.levels == 1 else list(np.linspace(1.0, 7.0, args.levels))
    spec = ModelSpec(levels=levels, omega_max=10.0, coupling=CouplingProfile.constant(0.05))
    grid = build_grid(spec.omega_max, args.m, avoid=spec.levels)
    all_cpus = oracle._cpu_count
    settings = {1: lambda: 1, all_cpus(): all_cpus}
    times = {cpus: ([], []) for cpus in settings}
    for _ in range(args.repeat):
        for cpus, count in settings.items():
            oracle._cpu_count = count
            try:
                model, build = _timed(lambda: discretize(spec, grid))
                _, gate = _timed(model.orthonormality_defect)
            finally:
                oracle._cpu_count = all_cpus
            times[cpus][0].append(build)
            times[cpus][1].append(gate)
    print(f"N={args.levels} M={args.m}, minimum of {args.repeat}, numpy {np.__version__}")
    for cpus, (build, gate) in times.items():
        print(f"{cpus:3d} CPU(s)  discretize {min(build) * 1e3:8.1f} ms  gate {min(gate) * 1e3:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
