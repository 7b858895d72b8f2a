"""Every public function of the package has a caller inside the package.

A public module-level function that only tests call is a second entry point
to a quantity some other function already computes; it is to be deleted, not
kept for its test. A reference is an `ast.Name` or `ast.Attribute` in any
module but `__init__.py` (re-exports do not count, and neither do strings
such as the JSON key "upper_bound"), outside the function's own body.
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


def unreferenced_public_functions(package: Path = PACKAGE) -> list[str]:
    """module.name of each public module-level function no other package code references."""
    tops = [
        (path.stem, node, _names(node))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(), str(path)).body
    ]
    return [
        f"{mod}.{node.name}"
        for mod, node, _ in tops
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in names for _, other, names in tops if other is not node)
    ]


def test_every_public_function_has_a_package_caller():
    assert unreferenced_public_functions() == []
