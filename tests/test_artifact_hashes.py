"""Smoke test of ``tools/artifact_hashes.py``, the artifact fingerprint tool."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"
_spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
artifact_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_hashes)


def test_one_workload_one_seed(monkeypatch, capsys):
    # oracle-compare has no initial state and no amplitudes: evolve and measure
    # end with exit status 1 and write nothing
    workload = artifact_hashes.WORKLOADS["oracle-compare"]
    monkeypatch.setattr(artifact_hashes, "WORKLOADS", {workload.name: workload})
    assert artifact_hashes.main(["11"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == "ALL " + hashlib.sha256("\n".join(lines).encode()).hexdigest()
    fields = [line.split() for line in lines]
    assert [row[:4] for row in fields] == [["oracle-compare", "11", command, f"exit={status}"]
                                           for command, status in (("spectrum", 0), ("evolve", 1),
                                                                   ("compare", 0), ("measure", 1))]
    assert [[cell.split("=")[0] for cell in row[4:]] for row in fields] == [
        ["spectrum.csv", "stderr"], ["stderr"], ["compare.csv", "stderr"], ["stderr"]]
    # a run without error lines hashes an empty stderr
    assert fields[0][-1] == "stderr=" + hashlib.sha256(b"").hexdigest()


def test_lines_hash_the_bytes_written(tmp_path):
    workload = artifact_hashes.WORKLOADS["oracle-compare"]
    spectrum = artifact_hashes.command_lines(workload, 11, tmp_path)[0].split()
    written = (tmp_path / "spectrum" / "spectrum.csv").read_bytes()
    assert spectrum[4] == "spectrum.csv=" + hashlib.sha256(written).hexdigest()
