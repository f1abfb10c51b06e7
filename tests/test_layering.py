"""Which module may import which: the closed forms never reach the numeric
oracle that checks them, nor the oracle the closed forms or their root
finder, file I/O needs neither, and nothing needs scipy.
Only ``families`` reads a band's storage.
Only the oracle's pencil reduction factors by Cholesky, only the CLI's
gate returns the tolerance exit code, and the CLI reaches the oracle
through ``verify`` alone.  In ``spectra`` only the symbol kernel and the
sine table call ``np.sin`` or ``np.cos``."""

import ast
from pathlib import Path

import pytest

import specmat
import specmat.cli
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


def _closed_form_reach(tree):
    """The line of every import in ``tree`` that names ``spectra`` or ``batched_roots``, and of every
    call or attribute that reaches ``batched_roots``."""
    imports = [node.lineno for module in ("spectra", "batched_roots") for node in _imports(tree, module)]
    names = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "batched_roots"]
    return sorted({*imports, *names, *_attribute_reads(tree, "batched_roots")})


def test_oracle_shares_nothing_with_the_closed_forms():
    """The oracle checks the closed forms, so it takes neither their module nor the per-mode root
    finder they solve with: its congruence route finds each index's roots by its own companions."""
    lines = _closed_form_reach(ast.parse(Path(specmat.oracle.__file__).read_text(encoding="utf-8")))
    assert lines == [], f"oracle.py reaches the closed forms on lines {lines}"


def test_the_closed_form_check_finds_a_planted_call():
    tree = ast.parse("import numpy as np\nfrom .linalg import as_square, batched_roots\n\ndef f(c):\n"
                     "    from . import spectra\n    return batched_roots(c), linalg.batched_roots(c)\n"
                     "\ndef g(c):\n    return np.linalg.eigvals(c)\n")
    assert _closed_form_reach(tree) == [2, 5, 6]


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


def _taken_from_oracle(tree):
    """``(line, name)`` of every name an import in ``tree`` takes from the oracle, or of the
    oracle module itself."""
    taken = []
    for node in _imports(tree, "oracle"):
        from_oracle = isinstance(node, ast.ImportFrom) and "oracle" in (node.module or "").split(".")
        taken += [(node.lineno, alias.name) for alias in node.names
                  if from_oracle or "oracle" in alias.name.split(".")]
    return taken


def test_cli_takes_only_verify_from_the_oracle():
    """One verification path: the CLI checks a closed form by ``oracle.verify``, never by
    wiring residuals, dense matrices, solvers and pairing together itself."""
    taken = _taken_from_oracle(ast.parse(Path(specmat.cli.__file__).read_text(encoding="utf-8")))
    stray = [(line, name) for line, name in taken if name != "verify"]
    assert stray == [], f"cli.py imports from the oracle more than verify: {stray}"


def test_the_oracle_import_check_sees_every_name():
    tree = ast.parse("from .oracle import verify\nfrom .oracle import (\n    pair_values,\n    verify as check,\n)\n"
                     "\ndef f():\n    from . import oracle, spectra\n    import specmat.oracle\n"
                     "    from specmat.oracle import pencil_residuals\n")
    assert _taken_from_oracle(tree) == [(1, "verify"), (2, "pair_values"), (2, "verify"), (8, "oracle"),
                                        (9, "specmat.oracle"), (10, "pencil_residuals")]
    assert _taken_from_oracle(ast.parse(Path(specmat.cli.__file__).read_text(encoding="utf-8")))


def _attribute_reads(tree, name):
    """The line of every ``.name`` attribute in ``tree``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == name]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_only_families_reads_band_storage(path):
    """LAPACK's band layout is known to ``families`` alone: the writer takes a
    band's entries from ``SymmetricBand.entries``, not from its ``ab``."""
    if path.name == "families.py":
        return
    lines = _attribute_reads(ast.parse(path.read_text(encoding="utf-8")), "ab")
    assert lines == [], f"{path.name} reads band storage (.ab) on lines {lines}"


def test_the_band_storage_check_sees_every_read():
    tree = ast.parse("def f(band):\n    m = band.ab.shape[0]\n    return band.abc, band.ab[0]\n")
    assert _attribute_reads(tree, "ab") == [2, 3]


def _found_in_functions(tree, matches):
    """``(function, line)`` of every node of ``tree`` that ``matches``, in its innermost function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _is_cholesky_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "cholesky"


def _cholesky_calls(tree):
    """``(function, line)`` of every call of a function named ``cholesky`` in ``tree``."""
    return _found_in_functions(tree, _is_cholesky_call)


def _results(expr):
    """The expressions that ``expr`` may evaluate to, through conditionals and ``and``/``or``."""
    if isinstance(expr, ast.IfExp):
        return _results(expr.body) + _results(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        return [result for value in expr.values for result in _results(value)]
    return [expr]


def _returns_of_3(tree):
    """``(function, line)`` of every ``return`` in ``tree`` that may return the literal 3."""
    return _found_in_functions(tree, lambda node: isinstance(node, ast.Return) and any(
        isinstance(result, ast.Constant) and result.value == 3 for result in _results(node.value)))


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


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_only_the_gate_returns_the_tolerance_exit_code(path):
    """Exit code 3, a tolerance failure, comes from ``cli._gate`` alone, so
    that every command gates and words the failure the same way."""
    returns = _returns_of_3(ast.parse(path.read_text(encoding="utf-8")))
    allowed = "_gate" if path.name == "cli.py" else None
    stray = [(function, line) for function, line in returns if function != allowed]
    assert stray == [], f"{path.name} returns 3 outside cli._gate: {stray}"


def test_the_exit_code_check_finds_each_return_of_3():
    tree = ast.parse("def _gate(ok):\n    return 0 if ok else 3\n\ndef run(ok):\n    if not ok:\n"
                     "        return 3\n    return ok and 3\n\ndef count():\n    return 4, [3]\n")
    assert _returns_of_3(tree) == [("_gate", 2), ("run", 6), ("run", 7)]
    assert _returns_of_3(ast.parse(Path(specmat.cli.__file__).read_text(encoding="utf-8")))


def _is_trig_call(node):
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr in ("sin", "cos")
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))


def _trig_calls(tree):
    """``(function, line)`` of every call of ``np.sin`` or ``np.cos`` in ``tree``."""
    return _found_in_functions(tree, _is_trig_call)


def test_spectra_samples_trigonometry_in_two_places():
    """Every symbol comes from one kernel, ``spectra._symbols``, and every sampled eigenvector
    from the sine table ``spectra._sines``, so no closed form keeps a copy of either."""
    calls = _trig_calls(ast.parse(Path(specmat.spectra.__file__).read_text(encoding="utf-8")))
    stray = [(function, line) for function, line in calls if function not in ("_symbols", "_sines")]
    assert stray == [], f"spectra.py calls np.sin or np.cos outside _symbols and _sines: {stray}"


def test_the_trigonometry_check_finds_a_planted_call():
    tree = ast.parse("import numpy as np\n\ndef _symbols(t):\n    return np.sin(t)\n"
                     "\ndef fold(t):\n    return 4.0 * np.cos(0.5 * t) ** 2 + math.cos(t)\n")
    assert _trig_calls(tree) == [("_symbols", 4), ("fold", 7)]
    assert _trig_calls(ast.parse(Path(specmat.spectra.__file__).read_text(encoding="utf-8")))
