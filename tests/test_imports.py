"""Every name a library module imports is used in that module, every
private module-level function is referenced somewhere in the package, and
every public one has a reader: the package, its exports or the benchmark's
tracer."""

import ast
import pathlib

import pytest
from test_tracer_targets import tracer_targets

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "galdescent").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def module_functions(private):
    """(module file, name) of each module-level function, private or
    public."""
    return {(path.name, node.name) for path in SOURCES
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private}


def referenced_names(paths):
    """Every name the modules use: as a name, an attribute or an imported
    name."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def test_no_unreferenced_private_helpers():
    """Every module-level ``def _name`` is referenced somewhere in the
    package."""
    referenced = referenced_names(SOURCES)
    assert sorted(h for h in module_functions(private=True) if h[1] not in referenced) == []


# Flat descent of modules (ROADMAP item 5) makes these reachable from the
# CLI; until then only the tests call them.
AWAITING_CALLERS = {("flat.py", "twist_datum"), ("flat.py", "canonical_datum_matrix")}


def test_every_public_function_has_a_reader():
    """Every public module-level function is referenced in another part of
    the package than ``__init__.py``, exported by ``__init__.py``, or
    wrapped by the benchmark's tracer (a ``module:function`` target)."""
    init = [p for p in SOURCES if p.name == "__init__.py"]
    referenced = referenced_names([p for p in SOURCES if p.name != "__init__.py"])
    exported = referenced_names(init)
    traced = {(f"{module}.py", name) for module, name in
              (target.split(":") for target in tracer_targets()) if "." not in name}
    unread = {(module, name) for module, name in module_functions(private=False)
              if name not in referenced and name not in exported
              and (module, name) not in traced}
    assert sorted(unread - AWAITING_CALLERS) == []
    assert AWAITING_CALLERS <= unread


# The only imports made inside a function, each with the cycle of
# module-level imports that a top-level import would close.
DEFERRED_IMPORTS = {
    ("extension", "coords_matrix", "linalg"): ("linalg", "extension"),
}


def package_imports(tree):
    """The modules that ``tree``, a module or a function, imports in its own
    body and not in a function nested in it (package modules by their name
    within the package)."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child)
            elif isinstance(child, ast.ImportFrom):
                if function is tree:
                    yield child.module
            elif isinstance(child, ast.Import):
                if function is tree:
                    yield from (alias.name for alias in child.names)
            else:
                yield from walk(child, function)
    return set(walk(tree, tree))


def test_function_level_imports_only_break_cycles():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    deferred = {(module, node.name, imported) for module, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for imported in package_imports(node)}
    assert deferred == set(DEFERRED_IMPORTS)
    for (module, _, imported), cycle in DEFERRED_IMPORTS.items():
        assert (cycle[0], cycle[-1]) == (imported, module)
        for importer, importee in zip(cycle, cycle[1:]):
            assert importee in package_imports(trees[importer])
