"""Span tracing of the package's layers, from outside the package.

Public functions are wrapped at the names their callers look them up by
(``pointersim.cli.discretize``, ``pointersim.oracle.evolve_pure``, ...), so
the traced run goes through the real CLI path and no package file changes.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, span name); a span's name is the layer's
# ``<module>.<function>`` whatever namespace the wrapper sits in
TRACE_POINTS = (
    ("pointersim.cli", "run", "cli.run"),
    ("pointersim.cli", "build_grid", "continuum.build_grid"),
    ("pointersim.cli", "liouville_spectrum", "spectrum.liouville_spectrum"),
    ("pointersim.spectrum", "principal_value", "continuum.principal_value"),
    ("pointersim.cli", "discretize", "oracle.discretize"),
    ("pointersim.oracle", "OracleModel.orthonormality_defect", "oracle.orthonormality_defect"),
    ("pointersim.cli", "survival_probability", "oracle.survival_probability"),
    ("pointersim.cli", "coherence", "oracle.coherence"),
    ("pointersim.oracle", "evolve_pure", "oracle.evolve_pure"),
    ("pointersim.cli", "decompose_initial", "evolution.decompose_initial"),
    ("pointersim.cli", "evolve", "evolution.evolve"),
    ("pointersim.cli", "recompose", "evolution.recompose"),
    ("pointersim.cli", "readout", "measurement.readout"),
    ("pointersim.measurement", "equilibrium", "evolution.equilibrium"),
)
SPAN_NAMES = tuple(name for _, _, name in TRACE_POINTS)
# per-iteration counts; a layer a workload never reaches counts zero
COUNTERS = ("oracle.eigenvector_bytes", "oracle.hamiltonian_dim", "cli.rows", "cli.artifact_bytes")


def _oracle_counts(model) -> dict:
    return {"oracle.eigenvector_bytes": model.eigenvectors.nbytes,
            "oracle.hamiltonian_dim": model.size}


# counters read off a layer's return value, at the boundary where the work happens
_OBSERVERS = {"oracle.discretize": _oracle_counts}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


def trace_target(module: str, path: str):
    """The object holding a trace point's attribute, and the attribute name."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and per-iteration counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._next_id = 0
        self._iteration = -1

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self._iteration))
            if observe is not None:
                for key, value in observe(result).items():
                    self.count(self._iteration, key, value)
            return result

        return traced

    @contextmanager
    def installed(self, iteration: int):
        """Wrap every trace point for one iteration, then restore the originals."""
        self._iteration = iteration
        saved = []
        try:
            for module, path, name in TRACE_POINTS:
                owner, attr = trace_target(module, path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self, iteration: int, name: str, value: float):
        self.counters[iteration][name] += value

    def per_iteration(self) -> dict[int, dict[str, float]]:
        """Self seconds and call counts of every layer, per traced iteration."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: dict[int, dict[str, float]] = {}
        for iteration in sorted({s.iteration for s in self.spans} | set(self.counters)):
            row = {f"{name}_{kind}": 0.0 for name in SPAN_NAMES for kind in ("s", "calls")}
            row.update(dict.fromkeys(COUNTERS, 0.0))
            row.update(self.counters.get(iteration, {}))
            table[iteration] = row
        for span in self.spans:
            row = table[span.iteration]
            row[f"{span.name}_s"] += span.end - span.start - child_time[span.id]
            row[f"{span.name}_calls"] += 1
        return table

    def medians(self) -> dict[str, float]:
        """Median over traced iterations of each per-iteration figure."""
        table = list(self.per_iteration().values())
        return {k: statistics.median(row[k] for row in table) for k in table[0]}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
