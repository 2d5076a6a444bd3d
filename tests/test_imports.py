import ast
from pathlib import Path

import reciprocity_lab

PACKAGE = Path(reciprocity_lab.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_every_imported_name_is_used():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert _unused_imports(source) == ["os (line 1)", "argv (line 2)"]


def _private_imports(source: str) -> list[str]:
    """Underscore names taken from sibling modules by relative imports."""
    return [f"{'.' * node.level}{node.module or ''} import {alias.name} "
            f"(line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_name_crosses_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    private = {p.name: _private_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in private.items() if names} == {}


def test_the_check_sees_a_private_import():
    source = ("from operator import mul as _mul\n"
              "from .tate import _MARGIN, expand\n"
              "from . import _helpers\n")
    assert _private_imports(source) == [".tate import _MARGIN (line 2)",
                                        ". import _helpers (line 3)"]
