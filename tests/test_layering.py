"""Which module may import which: the closed forms never reach the numeric
oracle that checks them, file I/O needs neither, and nothing needs scipy."""

import ast
from pathlib import Path

import pytest

import specmat
import specmat.mmio
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
