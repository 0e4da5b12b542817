"""The library's public surface is what the program reaches.

Every public module-level function and class of the package must be
referenced, as a name or an attribute, and every public method and
property of a public class as an attribute, by code of the package or of
the benchmark outside its own definition. A name that only tests call is
surface with no user: delete it, or move what the tests need into
tests/helpers.py. The package root holds only its docstring, so that
each public name has one import path, its own module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chansounder"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _public_definitions(body):
    return [node for node in body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def _references(node, own=frozenset()):
    """(is an attribute, name) for each name and attribute name that node
    uses, leaving out each definition's references to its own name."""
    if isinstance(node, DEFINITIONS):
        own = own | {node.name}
    if isinstance(node, ast.Name) and node.id not in own:
        yield False, node.id
    elif isinstance(node, ast.Attribute) and node.attr not in own:
        yield True, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def _surface():
    """The package's public definitions, as dotted names with the name
    that must be referenced, and the names and the attribute names that
    are referenced."""
    sources = (sorted(PACKAGE.glob("*.py"))
               + sorted((ROOT / "campaignbench").glob("*.py")))
    defined = {}
    names, attributes = set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        for is_attribute, name in _references(tree):
            (attributes if is_attribute else names).add(name)
        if path.parent != PACKAGE:
            continue
        for node in _public_definitions(tree.body):
            defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update((f"{path.stem}.{node.name}.{member.name}",
                                member.name)
                               for member in _public_definitions(node.body))
    return defined, names, attributes


def test_every_public_name_is_reached_outside_its_definition():
    defined, names, attributes = _surface()
    modules = [name for name in defined if name.count(".") == 1]
    assert modules, "no public definitions found"
    assert sorted(name for name in modules
                  if defined[name] not in names | attributes) == []


def test_every_public_member_of_a_public_class_is_reached():
    # a local variable of the same name is no reference to a member
    defined, _, attributes = _surface()
    members = [name for name in defined if name.count(".") == 2]
    assert members, "no public methods or properties found"
    assert sorted(name for name in members
                  if defined[name] not in attributes) == []


def test_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def test_no_module_builds_a_strided_view_by_hand():
    # numpy builds and bounds every view the package takes: reshapes,
    # slices and sliding_window_view, never as_strided's raw strides
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "as_strided" in path.read_text()] == []
