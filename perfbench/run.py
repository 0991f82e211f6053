"""pointersim benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-compare --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed.  Set-up time is the median
over fresh interpreters of import, config load and grid build; the timed
iterations run in one more fresh process (``worker.py``), so its peak memory
belongs to this workload alone.  Every artifact set is checked by the gates
in ``gates.py``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones, as named in
``BENCHMARK.json``.  A record of the run, its environment and its gate
findings goes to ``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_RUNS = 5
# a run must end within 180 s, set-up and gates included
WORKER_TIMEOUT_S = 140
PROBE_TIMEOUT_S = 30
# per-layer metrics whose name is not <span>_s / <span>_calls
RENAMED = {"cli.run_s": "cli.run_self_s"}
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


class BenchmarkError(Exception):
    """The benchmark could not run; it prints no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(cmd[:3])} timed out after {timeout} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[:3])} failed:\n{done.stderr[-2000:]}")
    return done


def measure_setup(config: Path, trace: bool) -> dict:
    """Median set-up figures over fresh interpreters."""
    flags = ["-X", "importtime"] if trace else []
    cmd = [sys.executable, *flags, str(HERE / "setup_probe.py"), str(config)]
    samples = []
    for _ in range(SETUP_RUNS):
        done = _run(cmd, PROBE_TIMEOUT_S)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if trace:
            sample["import_scipy_s"] = 1e-6 * sum(
                int(us) for us, module in _IMPORTTIME.findall(done.stderr)
                if module == "scipy" or module.startswith("scipy."))
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]} | {
        "samples": samples}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _unit_value(figures: dict, metric: dict) -> dict:
    name = metric["name"]
    if name not in figures:
        raise BenchmarkError(f"metric {name} was not measured")
    return {"value": float(figures[name]), "unit": metric["unit"]}


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS, write_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pointersim" / "__init__.py").is_file():
        raise BenchmarkError(f"no pointersim source tree under {SRC}; run from the repository root")
    import gates  # needs the package on sys.path

    workload = WORKLOADS[args.workload]
    rundir = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    config = write_inputs(workload, args.seed, rundir / "inputs")
    trace = bool(args.trace)

    setup = measure_setup(config, trace)
    report_path = rundir / "report.json"
    _run([sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
          "--config", str(config), "--out", str(rundir / "out"), "--keep", str(rundir / "keep"),
          "--seconds", str(args.seconds), "--trace", str(args.trace),
          "--report", str(report_path)], WORKER_TIMEOUT_S)
    report = json.loads(report_path.read_text())

    iterations = report["iterations"]
    problems = {digest: gates.check(workload, args.seed, rundir / "keep" / digest)
                for digest in {it["digest"] for it in iterations}}
    failed = gates.failed_iterations(iterations, problems)
    timed = [it["seconds"] for it in iterations if it["timed"] and not it["traced"]]
    traced = [it["seconds"] for it in iterations if it["traced"]]

    if not trace:
        figures = {"setup_s": setup["setup_s"], "run_s": statistics.median(timed),
                   "peak_rss_mb": report["peak_rss_kb"] / 1024}
    else:
        figures = {RENAMED.get(k, k): v for k, v in report["layers"].items()}
        figures.update({"setup.import_s": setup["import_s"],
                        "setup.import_scipy_s": setup["import_scipy_s"],
                        "setup.load_config_s": setup["load_config_s"],
                        "trace.overhead_s": statistics.median(traced) - statistics.median(timed)})
    metrics = {m["name"]: _unit_value(figures, m) for m in declared_metrics(trace)}

    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
              "metrics": metrics}
    record = {
        "result": result, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": commit(),
        "n_levels": workload.n_levels, "grid_m": workload.grid_m,
        "n_times": workload.times["samples"], "nproc": os.cpu_count(),
        "versions": report["versions"], "blas": report["blas"],
        "setup": setup, "iterations": iterations,
        "gate_problems": {d: p for d, p in problems.items() if p},
    }
    (rundir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"(N={workload.n_levels}, M={workload.grid_m}, {workload.times['samples']} times)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'run_s samples':40s} {len(timed)} untraced timed iterations")
    print(f"  {'error_rate':40s} {failed / len(iterations):.6g} ({failed}/{len(iterations)} failed)")
    for digest, found in record["gate_problems"].items():
        for problem in found[:5]:
            print(f"  gate: {problem}")
    for it in iterations:
        if it["error"]:
            print(f"  error: {it['error'].strip().splitlines()[-1]}")
    print(f"  record: {rundir / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
