"""Reading and fingerprinting the CSV artifacts a CLI run writes."""

from __future__ import annotations

import hashlib
from pathlib import Path


def artifact_digest(directory: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of a CLI artifact, metadata lines skipped."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]
