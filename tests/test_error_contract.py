"""Bad input ends as a ``SimulationError``: every explicit ``raise`` in the
package names a subclass of ``errors.SimulationError``.

The one exception is the ``TypeError`` of ``principal_value`` and
``resolvent_boundary`` for an integrand that is not callable, a programming
error rather than bad input; both raise it from their shared
``_principal_value``.
A bare ``raise`` names nothing and is refused too.

The walk is static: it sees only the package's own ``raise`` statements.
An error that numpy or Python raises inside a call, a broadcast
``ValueError`` or a ``float()`` ``TypeError``, passes it unseen, so each
input check needs its own test with the bad input itself (as in
``test_continuum`` and ``test_measurement``).
"""

import ast
from pathlib import Path

import pointersim
from pointersim import errors

SRC = Path(pointersim.__file__).resolve().parent
_ALLOWED = {("continuum", "_principal_value", "TypeError")}


class _Raises(ast.NodeVisitor):
    """(enclosing function, raised name) for every ``raise`` in a module."""

    def __init__(self):
        self.functions = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        else:
            name = ast.dump(exc) if exc is not None else "bare raise"
        self.found.append((self.functions[-1], name, node.lineno))


def _is_simulation_error(name: str) -> bool:
    value = getattr(errors, name, None)
    return isinstance(value, type) and issubclass(value, errors.SimulationError)


def test_every_raise_names_a_simulation_error():
    offenders, count = [], 0
    for path in sorted(SRC.glob("*.py")):
        raises = _Raises()
        raises.visit(ast.parse(path.read_text(), str(path)))
        for function, name, line in raises.found:
            count += 1
            if not _is_simulation_error(name) and (path.stem, function, name) not in _ALLOWED:
                offenders.append(f"{path.name}:{line} {function} raises {name}")
    assert count > 50  # the walk reached the package's checks
    assert not offenders, offenders
