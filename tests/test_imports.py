"""Every module-level import in ``src/oss_health`` is used.

An import counts as used when its module names it, or when some file
under ``src/``, ``tests/`` or ``perfbench/`` imports that name from the
module (a re-export, such as ``sem.CONVERGED_GRADIENT``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oss_health"


def _parsed(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in directory.rglob("*.py")}


def _imported_names(path, tree):
    """(module, name) for each ``from oss_health.<module> import name`` in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 0 and node.module.startswith("oss_health."):
            module = node.module.removeprefix("oss_health.")
        elif node.level == 1 and path.parent == PACKAGE:
            module = node.module
        else:
            continue
        yield from ((module, alias.name) for alias in node.names)


def _module_level_imports(tree):
    """(name bound, line) for each module-level import but ``__future__``'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_no_unused_module_level_import():
    trees = {}
    for directory in ("src", "tests", "perfbench"):
        trees.update(_parsed(ROOT / directory))
    reexported = {pair for path, tree in trees.items() for pair in _imported_names(path, tree)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _module_level_imports(tree)
            if name not in used and (path.stem, name) not in reexported
        ]
    assert unused == []
