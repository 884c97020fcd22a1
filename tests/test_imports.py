"""Every name a library module imports is used in that module, and every
private module-level function is referenced somewhere in the package."""

import ast
import pathlib

import pytest

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


def test_no_unreferenced_private_helpers():
    """Every module-level ``def _name`` is referenced somewhere in the
    package: as a name, an attribute or an imported name."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    helpers = {(path.name, node.name) for path, tree in zip(SOURCES, trees)
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(h for h in helpers if h[1] not in referenced) == []
