"""One workload's timed iterations, in a fresh process of their own.

An iteration is ``pointersim.cli.main([...])`` for each of the workload's
subcommands, in-process: the user's shell command minus interpreter start and
import.  The first iteration is untimed (the first BLAS calls of a process are
erratic) but is checked like the rest.  With ``--trace 1`` the timed
iterations alternate untraced and traced, so the report carries both the
per-layer figures and the cost of tracing.

Usage: python3 perfbench/worker.py --workload NAME --config PATH --out DIR
       --keep DIR --seconds S --trace 0|1 --report PATH   (src/ on PYTHONPATH)
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import platform
import resource
import shutil
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from artifacts import artifact_digest, read_csv
from pointersim import cli
from tracing import Tracer
from workloads import WORKLOADS


def blas_info() -> dict:
    """BLAS vendor and version as numpy was built, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _artifact_counts(out: Path) -> tuple[int, int]:
    rows = sum(len(read_csv(path)[1]) for path in out.iterdir())
    size = sum(path.stat().st_size for path in out.iterdir())
    return rows, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--config", "--out", "--keep", "--report"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out, keep = Path(args.out), Path(args.keep)
    argvs = [[command, "--config", args.config, "--out", str(out)] for command in workload.commands]
    tracer = Tracer()

    def iteration(number: int, traced: bool, timed: bool) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        error = None
        sink = io.StringIO()  # main prints the artifact paths
        start = time.perf_counter()
        try:
            with redirect_stdout(sink):
                if traced:
                    with tracer.installed(number):
                        codes = [cli.main(argv) for argv in argvs]
                else:
                    codes = [cli.main(argv) for argv in argvs]
            if any(codes):
                error = f"pointersim exited with {codes}"
        except Exception:  # an iteration that raises is counted failed, the run goes on
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        digest = artifact_digest(out)
        if not (keep / digest).exists():
            shutil.copytree(out, keep / digest)
        if traced:
            rows, size = _artifact_counts(out)
            tracer.count(number, "cli.rows", rows)
            tracer.count(number, "cli.artifact_bytes", size)
        return {"seconds": seconds, "timed": timed, "traced": traced,
                "digest": digest, "error": error}

    iterations = [iteration(0, traced=False, timed=False)]
    # at least one timed iteration, and with tracing one traced beside it
    minimum = 3 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(iterations) < minimum:
        number = len(iterations)
        iterations.append(iteration(number, traced=bool(args.trace) and number % 2 == 0, timed=True))

    report = {
        "iterations": iterations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.medians() if args.trace else {},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": blas_info(),
    }
    if args.trace:
        tracer.write(Path(args.report).with_name("spans.jsonl"))
    Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
