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


def self_calling_closures(source):
    """Dotted names, sorted, of the functions defined inside another
    function that refer to their own name.  Such a closure holds a cell that
    holds the closure, so each call of its outer function leaves a reference
    cycle for the collector."""
    found = []
    stack = [(ast.parse(source), "", False)]
    while stack:
        node, prefix, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, prefix, in_function))
                continue
            name = prefix + child.name
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                    isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)):
                found.append(name)
            stack.append((child, name + ".", in_function or is_function))
    return sorted(found)


def test_self_calling_closure_scan():
    source = (
        "def outer(n):\n"
        "    def count(k):\n"
        "        return 0 if k == 0 else 1 + count(k - 1)\n"
        "    def plain(k):\n"
        "        return k\n"
        "    return count(n) + plain(n)\n"
        "def recurse(k):\n"
        "    return 0 if k == 0 else recurse(k - 1)\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return self.method\n"
    )
    assert self_calling_closures(source) == ["outer.count"]


def test_no_closure_calls_itself():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = self_calling_closures(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}
