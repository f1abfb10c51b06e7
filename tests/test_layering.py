"""The closed forms never reach the numeric oracle that checks them."""

import ast
from pathlib import Path

import specmat.spectra


def _oracle_imports(tree):
    """Every import statement in ``tree``, at any depth, that names the oracle module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracle" in name.split(".") for name in names):
            yield node


def test_spectra_imports_nothing_from_the_oracle():
    tree = ast.parse(Path(specmat.spectra.__file__).read_text(encoding="utf-8"))
    lines = [node.lineno for node in _oracle_imports(tree)]
    assert lines == [], f"spectra.py imports the oracle on lines {lines}"


def test_the_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from .oracle import x\n\ndef g():\n    from . import oracle\n")
    assert [node.lineno for node in _oracle_imports(tree)] == [2, 5]
