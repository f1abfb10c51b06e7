"""Which module may import which: the closed forms never reach the numeric
oracle that checks them, file I/O needs neither, and nothing needs scipy.
Only the oracle's pencil reduction factors by Cholesky."""

import ast
from pathlib import Path

import pytest

import specmat
import specmat.mmio
import specmat.oracle
import specmat.spectra

PACKAGE = Path(specmat.__file__).parent


def _imports(tree, module):
    """Every import statement in ``tree``, at any depth, that names ``module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(module in name.split(".") for name in names):
            yield node


def _lines_importing(path, module):
    return [node.lineno for node in _imports(ast.parse(Path(path).read_text(encoding="utf-8")), module)]


def test_spectra_imports_nothing_from_the_oracle():
    lines = _lines_importing(specmat.spectra.__file__, "oracle")
    assert lines == [], f"spectra.py imports the oracle on lines {lines}"


@pytest.mark.parametrize("module", ["spectra", "oracle"])
def test_mmio_imports_neither_closed_forms_nor_oracle(module):
    lines = _lines_importing(specmat.mmio.__file__, module)
    assert lines == [], f"mmio.py imports {module} on lines {lines}"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    lines = _lines_importing(path, "scipy")
    assert lines == [], f"{path.name} imports scipy on lines {lines}"


def test_the_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from .oracle import x\n\ndef g():\n    from . import oracle\n"
                     "\ndef h():\n    import scipy.linalg\n")
    assert [node.lineno for node in _imports(tree, "oracle")] == [2, 5]
    assert [node.lineno for node in _imports(tree, "scipy")] == [8]


def _cholesky_calls(tree):
    """``(function, line)`` of every call of a function named ``cholesky`` in ``tree``."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "cholesky":
                calls.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return calls


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_only_the_pencil_reduction_factors_by_cholesky(path):
    """One route through the oracle: every Cholesky factorization is taken in
    ``oracle._reduce_pencil``, for one pencil or a stack of them, so that no second
    copy of the route grows beside it.  The polynomial route linearizes to a
    companion matrix and factors nothing by Cholesky."""
    calls = _cholesky_calls(ast.parse(path.read_text(encoding="utf-8")))
    allowed = "_reduce_pencil" if path.name == "oracle.py" else None
    stray = [(function, line) for function, line in calls if function != allowed]
    assert stray == [], f"{path.name} calls cholesky outside oracle._reduce_pencil: {stray}"


def test_the_cholesky_check_finds_the_call_and_its_function():
    tree = ast.parse("import numpy as np\n\ndef _reduce_pencil(b):\n    return np.linalg.cholesky(b)\n"
                     "\ndef other(b):\n    from numpy.linalg import cholesky\n    return cholesky(b)\n")
    assert _cholesky_calls(tree) == [("_reduce_pencil", 4), ("other", 8)]
    assert _cholesky_calls(ast.parse(Path(specmat.oracle.__file__).read_text(encoding="utf-8")))
