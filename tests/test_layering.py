"""The package's modules form one layer order: each imports only modules
before it, and every import sits at module level, where the order can be
read off the top of the file.  No function defined inside another refers
to its own name: such a function holds itself through its closure cell,
a cycle that only the cyclic collector frees."""

import ast
from pathlib import Path

import craig

# the package root first: it holds only its docstring
ORDER = ("__init__", "formulas", "resolution", "sequent", "maehara", "transform", "construct", "cli")
SOURCES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(craig.__file__).parent.glob("*.py"))}


def test_every_module_has_a_layer():
    assert sorted(SOURCES) == sorted(ORDER)


def test_no_import_inside_a_function():
    found = {}
    for name, tree in SOURCES.items():
        for fn in ast.walk(tree):  # outer functions first, so the innermost name stays
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found[name, node.lineno] = fn.name
    assert [f"{name}.py:{line} in {fn}" for (name, line), fn in sorted(found.items())] == []


def package_imports(tree):
    """(line, module) for each module of the package that tree imports,
    relatively or by its absolute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["craig" if node.level else None, node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "craig":
                yield node.lineno, parts[1] if len(parts) > 1 else "__init__"


def test_each_module_imports_only_earlier_layers():
    found = {f"{name}.py:{line} imports {imported}"
             for name, tree in SOURCES.items() for line, imported in package_imports(tree)
             if ORDER.index(imported) >= ORDER.index(name)}
    assert sorted(found) == []


def test_no_nested_function_refers_to_itself():
    found = set()
    for name, tree in SOURCES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(fn):
                if inner is not fn and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    found.add(f"{name}.py:{inner.lineno} {inner.name}")
    assert sorted(found) == []
