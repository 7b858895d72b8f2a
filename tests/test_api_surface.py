"""Every public function and method of the package, and every private module-level
function and class, has a caller inside the package, and every name a package module
imports is read in that module.

A public module-level function, or a public non-dunder method of a package
class, that only tests call is a second entry point to a quantity some other
function already computes; it is to be deleted, not kept for its test. A
private helper that nothing references is what a deletion orphans. A
reference is an `ast.Name` or `ast.Attribute` in any module but `__init__.py`
(re-exports do not count, and neither do strings such as the JSON key
"upper_bound"), outside the definition's own body. Names are matched, not
resolved, so a method counts as called when any package code reads an
attribute of that name. The package has no linter, so the import check stands
in for its unused-import rule, and the layering check for an import-layer rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffk"


def _names(node: ast.AST) -> set[str]:
    """Names and attribute names referenced anywhere in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _units(package: Path):
    """(qualified name, node, names it references) for each top-level statement of every
    module but __init__.py, with each class split into its header and the statements of
    its body."""
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                header = node.decorator_list + node.bases + node.keywords
                yield f"{path.stem}.{node.name}", node, set().union(*map(_names, header))
                for sub in node.body:
                    yield f"{path.stem}.{node.name}.{getattr(sub, 'name', '')}", sub, _names(sub)
            else:
                yield f"{path.stem}.{getattr(node, 'name', '')}", node, _names(node)


def _unreferenced(depth: int, package: Path, private: bool = False,
                  kinds: tuple[type, ...] = (ast.FunctionDef,)) -> list[str]:
    """Qualified names with `depth` dots of public (or private) definitions of `kinds`
    that no unit outside their own references."""
    units = list(_units(package))
    return [
        qual
        for qual, node, _ in units
        if qual.count(".") == depth and isinstance(node, kinds)
        and node.name.startswith("_") == private
        and not any(node.name in names for other, _, names in units
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
