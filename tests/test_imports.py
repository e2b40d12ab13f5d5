"""Import structure: numpy stays in the Fock oracle, out of the analytic chain."""

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

    # focksim's first numpy import sits inside the guard that sets the
    # BLAS thread count, so no unguarded import loads numpy before it
    focksim = trees["focksim"]
    guards = [node for node in focksim.body if isinstance(node, ast.If)
              and "OPENBLAS_NUM_THREADS" in ast.unparse(node.test)]
    guarded = [imp for guard in guards for imp in _numpy_imports(guard)]
    first = min(_numpy_imports(focksim), key=lambda node: node.lineno)
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
