"""Bad input ends as a ``SimulationError``: every explicit ``raise`` in the
package names a subclass of ``errors.SimulationError``.

The one exception is the ``TypeError`` of ``principal_value`` for an
integrand that is not callable, a programming error rather than bad input.
A bare ``raise`` names nothing and is refused too.

``_inputs.require_numbers`` refuses a number with the error class its
caller passes, so it alone may raise a parameter of its own; every call of
it must pass a ``SimulationError`` subclass, by name, as that ``error``.

The walk is static: it sees only the package's own ``raise`` statements.
An error that numpy or Python raises inside a call, a broadcast
``ValueError`` or a ``float()`` ``TypeError``, passes it unseen, so each
input check needs its own test with the bad input itself (as in
``test_continuum`` and ``test_measurement``).
"""

import ast
from pathlib import Path

import pytest

import pointersim
from pointersim import errors

SRC = Path(pointersim.__file__).resolve().parent
_ALLOWED = {("continuum", "principal_value", "TypeError")}
# the one function that raises the error class it is given
_HELPER = ("_inputs", "require_numbers")


def _name(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ast.dump(node) if node is not None else "nothing"


class _Raises(ast.NodeVisitor):
    """(enclosing function, raised name, whether that name is one of the
    function's parameters) for every ``raise`` in a module, and the
    ``error`` argument of every call of the helper."""

    def __init__(self):
        self.functions = [("<module>", set())]
        self.found = []
        self.calls = []

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        self.functions.append((node.name, {arg.arg for arg in args}))
        self.generic_visit(node)
        self.functions.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = _name(exc) if exc is not None else "bare raise"
        function, parameters = self.functions[-1]
        self.found.append((function, name, isinstance(exc, ast.Name) and name in parameters, node.lineno))

    def visit_Call(self, node):
        if _name(node.func) == _HELPER[1]:
            error = node.args[1] if len(node.args) > 1 else next(
                (keyword.value for keyword in node.keywords if keyword.arg == "error"), None)
            self.calls.append((self.functions[-1][0], error, node.lineno))
        self.generic_visit(node)


def _is_simulation_error(name: str) -> bool:
    value = getattr(errors, name, None)
    return isinstance(value, type) and issubclass(value, errors.SimulationError)


def _offenders(module: str, source: str) -> tuple[list[str], int]:
    """The raises and helper calls of ``module``'s ``source`` that break the
    contract, and the number of raises seen."""
    raises = _Raises()
    raises.visit(ast.parse(source, module))
    offenders = []
    for function, name, parameter, line in raises.found:
        if parameter:
            allowed = (module, function) == _HELPER
        else:
            allowed = _is_simulation_error(name) or (module, function, name) in _ALLOWED
        if not allowed:
            offenders.append(f"{module}.py:{line} {function} raises {name}")
    for function, error, line in raises.calls:
        if not _is_simulation_error(_name(error)):
            offenders.append(f"{module}.py:{line} {function} passes {_name(error)} to {_HELPER[1]}")
    return offenders, len(raises.found)


def test_every_raise_names_a_simulation_error():
    offenders, count = [], 0
    for path in sorted(SRC.glob("*.py")):
        found, seen = _offenders(path.stem, path.read_text())
        offenders += found
        count += seen
    assert count > 50  # the walk reached the package's checks
    assert not offenders, offenders


@pytest.mark.parametrize("module, source, offender", [
    ("model", "def f(v):\n    return require_numbers(v, ValueError, 'x')\n",
     "model.py:2 f passes ValueError to require_numbers"),
    ("model", "def f(self, v):\n    return _inputs.require_numbers(v, error=self.error)\n",
     "model.py:2 f passes error to require_numbers"),
    ("model", "def f(v, error):\n    return require_numbers(v, error, 'x')\n",
     "model.py:2 f passes error to require_numbers"),
    ("model", "def f(v):\n    return require_numbers(v)\n",
     "model.py:2 f passes nothing to require_numbers"),
    ("model", "def f(value, error):\n    raise error(f'x, got {value}')\n", "model.py:2 f raises error"),
    # a parameter that shadows an error class is still the caller's choice
    ("model", "def f(ModelInvalid):\n    raise ModelInvalid('x')\n", "model.py:2 f raises ModelInvalid"),
    ("_inputs", "def require_numbers(value, error):\n    raise ValueError('x')\n",
     "_inputs.py:2 require_numbers raises ValueError"),
], ids=["builtin-error", "error-of-an-object", "error-passed-on", "no-error", "raise-parameter",
        "shadowed-error", "helper-raises-builtin"])
def test_the_walk_refuses_an_error_not_named_as_a_simulation_error(module, source, offender):
    offenders, _ = _offenders(module, source)
    assert offenders == [offender]
