"""Import structure: numpy stays in the Fock oracle, out of the analytic chain,
and the oracle imports it only in the loader that guards the BLAS threads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "brisq"

# dispersion, pump, diagonalization and the closed forms run on math alone
ANALYTIC_CHAIN = ("errors", "waveguide", "pump", "bogoliubov", "squeezing")


def _numpy_imports(tree: ast.AST) -> list[ast.stmt]:
    """Every import of numpy or a numpy submodule under tree, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node)
    return found


def _sibling_imports(tree: ast.Module) -> set[str]:
    """brisq modules that tree imports relatively (from .x import y)."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    return siblings


def test_only_the_oracle_and_the_blas_guard_import_numpy():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SRC.glob("*.py")}
    importers = {name for name, tree in trees.items() if _numpy_imports(tree)}
    assert importers == {"focksim"}

    # every numpy import in focksim sits in its loader, and the loader's
    # first one inside the guard that sets the BLAS thread count, so no
    # import loads numpy before the guard has run
    focksim = trees["focksim"]
    loaders = [node for node in focksim.body if isinstance(node, ast.FunctionDef)
               and "OPENBLAS_NUM_THREADS" in ast.unparse(node)]
    assert len(loaders) == 1
    loader, = loaders
    assert {id(imp) for imp in _numpy_imports(focksim)} == {
        id(imp) for imp in _numpy_imports(loader)}
    guards = [node for node in ast.walk(loader) if isinstance(node, ast.If)
              and "OPENBLAS_NUM_THREADS" in ast.unparse(node.test)]
    guarded = [imp for guard in guards for imp in _numpy_imports(guard)]
    first = min(_numpy_imports(loader), key=lambda node: node.lineno)
    assert guarded and first is guarded[0]

    # nor does the analytic chain reach numpy through a sibling module
    for name in ANALYTIC_CHAIN:
        assert name in trees
        seen, todo = set(), [name]
        while todo:
            module = todo.pop()
            if module in seen or module not in trees:
                continue
            seen.add(module)
            assert not _numpy_imports(trees[module]), (name, module)
            todo.extend(_sibling_imports(trees[module]))


def test_errors_imports_no_sibling_module():
    # every module imports its exceptions and float gates from errors,
    # so errors itself stands on the standard library alone
    errors = SRC / "errors.py"
    assert _sibling_imports(ast.parse(errors.read_text(), str(errors))) == set()
