"""Every name a package module imports is used: read in the module, listed
in its ``__all__``, or on an import marked ``# noqa: F401``."""

import ast
from pathlib import Path

import exactmatching

PACKAGE = Path(exactmatching.__file__).resolve().parent


def _exported(tree):
    """The names a module-level ``__all__`` list or tuple literal holds."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """The names ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.add(alias.asname or alias.name.partition(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read - _exported(tree))


def test_every_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.name] = names
    assert unused == {}

