"""Every public function, method and class of the package, and every private module-level
function and class, has a caller inside the package, every name a package module
imports is read in that module, every module-level name a module assigns is read in
the package, and every attribute the package stores is read in it.

A public module-level function, or a public non-dunder method of a package
class, that only tests call is a second entry point to a quantity some other
function already computes; it is to be deleted, not kept for its test. A
private helper that nothing references is what a deletion orphans. A
reference is an `ast.Name` or `ast.Attribute` in any module but `__init__.py`
(re-exports do not count, and neither do strings such as the JSON key
"upper_bound"), outside the definition's own body; a method is referenced only
by an `ast.Attribute` load, so a parameter or local variable of its name does
not count. Names are matched, not resolved, so a method counts as called when
any package code reads an attribute of that name. The package has no linter, so the import check stands
in for its unused-import rule, and the layering check for an import-layer rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffk"


def _names(nodes: list[ast.AST]) -> tuple[set[str], set[str]]:
    """(names and attribute names, attribute names in a Load context) referenced anywhere
    in nodes."""
    names, loads = set(), set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            if isinstance(sub.ctx, ast.Load):
                loads.add(sub.attr)
    return names, loads


def _units(package: Path):
    """(qualified name, node, the two sets of `_names`) for each top-level statement of
    every module but __init__.py, with each class split into its header and the
    statements of its body."""
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                header = node.decorator_list + node.bases + node.keywords
                yield f"{path.stem}.{node.name}", node, _names(header)
                for sub in node.body:
                    yield f"{path.stem}.{node.name}.{getattr(sub, 'name', '')}", sub, _names([sub])
            else:
                yield f"{path.stem}.{getattr(node, 'name', '')}", node, _names([node])


def _unreferenced(depth: int, package: Path, private: bool = False,
                  kinds: tuple[type, ...] = (ast.FunctionDef,)) -> list[str]:
    """Qualified names with `depth` dots of public (or private) definitions of `kinds`
    that no unit outside their own references; a method (depth 2) only by an attribute
    load."""
    units = list(_units(package))
    return [
        qual
        for qual, node, _ in units
        if qual.count(".") == depth and isinstance(node, kinds)
        and node.name.startswith("_") == private
        and not any(node.name in (loads if depth == 2 else names)
                    for other, _, (names, loads) in units
                    if other != qual and not other.startswith(qual + "."))
    ]


def unreferenced_public_functions(package: Path = PACKAGE) -> list[str]:
    """module.name of each public module-level function no other package code references."""
    return _unreferenced(1, package)


def unreferenced_public_methods(package: Path = PACKAGE) -> list[str]:
    """module.Class.name of each public non-dunder method no other package code references."""
    return _unreferenced(2, package)


def test_every_public_function_has_a_package_caller():
    assert unreferenced_public_functions() == []


def test_every_public_method_has_a_package_caller():
    assert unreferenced_public_methods() == []


def unreferenced_private_definitions(package: Path = PACKAGE) -> list[str]:
    """module.name of each private module-level function or class no other package code
    references."""
    return _unreferenced(1, package, private=True, kinds=(ast.FunctionDef, ast.ClassDef))


def test_every_private_helper_has_a_package_caller():
    assert unreferenced_private_definitions() == []


def unreferenced_public_classes(package: Path = PACKAGE) -> list[str]:
    """module.Name of each public module-level class no other package code references."""
    return _unreferenced(1, package, kinds=(ast.ClassDef,))


def test_every_public_class_has_a_package_caller():
    assert unreferenced_public_classes() == []


def unread_module_names(package: Path = PACKAGE) -> list[str]:
    """module.name of each name a module-level assignment binds in a module but __init__.py
    that no package module reads as an ast.Name or an ast.Attribute in a Load context: a
    constant or alias that a deletion leaves behind."""
    bound, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [(path.stem, sub.id) for target in targets for sub in ast.walk(target)
                          if isinstance(sub, ast.Name)]
    return [f"{module}.{name}" for module, name in bound if name not in read]


def test_every_module_level_name_is_read():
    assert unread_module_names() == []


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """module.name of each name a top-level import binds in a module but __init__.py that the
    module never reads as an ast.Name; __future__ imports bind no name."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", "") != "__future__"]
        aliases = (alias for node in imports for alias in node.names)
        bound = (alias.asname or alias.name.split(".")[0] for alias in aliases)
        out += [f"{path.stem}.{name}" for name in bound if name not in read]
    return out


def test_every_module_import_is_used():
    assert unused_imports() == []


def unread_attributes(package: Path = PACKAGE) -> list[str]:
    """module:line.name of each attribute a package module stores (an ast.Attribute in a
    Store context) whose name no package module reads as an ast.Attribute in a Load
    context. Names are matched, not resolved, like the checks above; state a deletion
    leaves behind, stored but never read, is what this finds."""
    stored, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append((f"{path.stem}:{node.lineno}", node.attr))
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return [f"{where}.{name}" for where, name in stored if name not in read]


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports at top level: `from . import x` and `from .x import y`."""
    out = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def test_bounds_and_polyarith_sit_below_the_fiber_layers():
    # `ffk bounds` needs only the closed forms and s(p), not the fiber machinery
    for name in ("bounds", "polyarith"):
        assert package_imports(PACKAGE / f"{name}.py") <= {"polyarith", "errors"}, name


def test_fiber_imports_no_package_layer_but_errors():
    # the tree walk reads only the FiberConfig it is given, never model's id layout
    assert package_imports(PACKAGE / "fiber.py") <= {"errors"}
