"""No module imports a name it never uses.

Walks the syntax tree of every module under src/, tests/ and demos/.  A
module-level import counts as used when its bound name is read anywhere
in the module, also inside a string that parses as an expression, such as
a string annotation.  ``__future__`` imports, the re-exports of
``__init__.py`` and names listed in ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except (SyntaxError, ValueError):  # prose, or a null byte
                pass
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree) | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} never uses: {', '.join(unused)}"
