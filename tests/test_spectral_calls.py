"""Every spectral constant goes through ``linalg``: no module of the package
but ``linalg.py`` calls a LAPACK spectral routine (``svd``, ``eigvalsh``,
``eigh``, ``eigvals``) or takes ``norm`` with ``ord=2``, so each one takes
the route ``linalg.operator_norm`` picks by shape.  The modules are parsed,
not imported, and every spelling of such a call is caught: through
``np.linalg``, a name imported from ``numpy.linalg``, or an import alias."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splitmono"
SPECTRAL = {"svd", "eigvalsh", "eigh", "eigvals"}


def _spectral_norm(call: ast.Call) -> bool:
    order = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "ord"), None)
    if isinstance(order, ast.UnaryOp) and isinstance(order.op, ast.USub):
        order = order.operand
    return isinstance(order, ast.Constant) and order.value == 2


def spectral_calls(source: str) -> list[str]:
    """``line: name`` of every spectral routine that ``source`` names or
    imports, and of every ``norm(..., ord=+-2)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SPECTRAL:
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in SPECTRAL]
        elif isinstance(node, ast.Call) and _spectral_norm(node):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "norm":
                found.append(f"{node.lineno}: norm(ord=2)")
    return found


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.svd(A)",
    "import numpy\nnumpy.linalg.eigvalsh(A)[-1]",
    "from numpy.linalg import eigh",
    "from numpy import linalg as la\nla.eigvals(A)",
    "np.linalg.norm(A, 2)",
    "np.linalg.norm(A, ord=2)",
    "np.linalg.norm(A, ord=-2)",
    "from numpy.linalg import norm\nnorm(A, 2)",
])
def test_guard_catches_each_spelling(source):
    assert spectral_calls(source)


@pytest.mark.parametrize("source", [
    "np.linalg.norm(v)", "np.linalg.norm(A, 1)", "np.linalg.norm(a, axis=1)",
    "np.linalg.norm(A, 'fro')", "np.linalg.cholesky(A)", "operator_norm(A)",
])
def test_guard_passes_other_norms(source):
    assert spectral_calls(source) == []


def test_spectral_routines_are_called_from_linalg_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "linalg.py" in modules
    found = {p.name: spectral_calls(p.read_text()) for p in modules if p.name != "linalg.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}
