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


def test_every_imported_name_is_used():
    """A module reads each name that it imports: an import left behind by a
    removed call is dead code."""
    found = set()
    for name, tree in SOURCES.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                found.update(f"{name}.py:{node.lineno} {bound}" for bound in
                             (alias.asname or alias.name.split(".")[0] for alias in node.names) if bound not in read)
    assert sorted(found) == []


def top_level_names(node) -> set:
    """The names that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.AnnAssign):
        return {node.target.id} if isinstance(node.target, ast.Name) else set()
    targets = node.targets if isinstance(node, ast.Assign) else []
    return {leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)}


def test_every_private_module_level_name_is_referenced():
    """Each private function, class or constant at module level is read
    somewhere in the package outside its own definition: one that only
    removed callers read is dead code."""
    private, read = {}, set()
    for name, tree in SOURCES.items():
        for stmt in tree.body:
            own = top_level_names(stmt)
            private.update((n, f"{name}.py:{stmt.lineno} {n}") for n in own
                           if n.startswith("_") and not n.endswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(where for n, where in private.items() if n not in read) == []
