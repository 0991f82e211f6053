"""Fingerprint the CLI's artifacts on the benchmark's configs.

For each seed given and each workload of ``perfbench/workloads.py``, the
script writes the workload's model and run config with ``write_inputs`` and
runs the four subcommands on them in-process, through ``pointersim.cli.main``.
It prints one line per run: workload, seed, subcommand, exit status, the
SHA-256 of each CSV the run wrote and the SHA-256 of its stderr.  A last
``ALL`` line digests every line before it, so two checkouts that print the
same ``ALL`` line wrote the same artifacts and the same error lines.  Paths
handed to the CLI are relative, so no line depends on where the files go.

It needs only the standard library and numpy, and imports the package from
this checkout's ``src``.  Run it from anywhere, for example

    python tools/artifact_hashes.py 11 12
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pointersim import cli  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

COMMANDS = ("spectrum", "evolve", "compare", "measure")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_lines(workload, seed: int, directory: Path) -> list[str]:
    """One line per subcommand run on ``workload``'s inputs for ``seed``;
    the inputs and each run's artifacts go under ``directory``."""
    write_inputs(workload, seed, directory)
    lines = []
    with contextlib.chdir(directory):
        for command in COMMANDS:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                try:
                    status = cli.main([command, "--config", "config.json", "--out", command])
                # a traceback is a finding, and the other runs go on; its type and
                # message are kept, not its frames, which name this checkout's paths
                except Exception as exc:
                    status = type(exc).__name__
                    print(f"{status}: {exc}", file=sys.stderr)
            csvs = [f"{path.name}={_sha256(path.read_bytes())}"
                    for path in sorted(Path(command).glob("*.csv"))]
            lines.append(" ".join([workload.name, str(seed), command, f"exit={status}", *csvs,
                                   f"stderr={_sha256(stderr.getvalue().encode())}"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="seeds to write the inputs with")
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for workload in WORKLOADS.values():
                for line in command_lines(workload, seed, Path(scratch) / f"{workload.name}-{seed}"):
                    print(line, flush=True)
                    lines.append(line)
    print("ALL", _sha256("\n".join(lines).encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
