"""The library's public surface is what the program reaches.

Every public module-level function and class of the package must be
referenced, as a name or an attribute, by code of the package or of the
benchmark outside its own definition and the package's __init__. A name
that only tests call is surface with no user: delete it, or move what
the tests need into tests/helpers.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chansounder"


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_public_name_is_reached_outside_its_definition():
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               + sorted((ROOT / "campaignbench").glob("*.py"))
               if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    defined = set()
    referenced = set()
    for path, tree in trees.items():
        own = {id(node): node.name for node in _public_definitions(tree)}
        if path.parent == PACKAGE:
            defined.update((path.stem, name) for name in own.values())
        for node in tree.body:
            # a definition's references to itself do not count
            skip = own.get(id(node))
            referenced.update(name for name in _references(node)
                              if name != skip)
    assert defined, "no public definitions found"
    unreached = sorted(f"{module}.{name}" for module, name in defined
                       if name not in referenced)
    assert unreached == []
