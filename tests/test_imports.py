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


def _named_names(source: str) -> set[str]:
    """Every name a module mentions: imported, loaded or read as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unreached_definitions(sources: dict[str, str],
                           exported: set[str]) -> list[str]:
    """Public module-level functions and classes that `__all__` does not
    export and no module of the package names: surface only tests reach."""
    named = exported.union(*map(_named_names, sources.values()))
    return [f"{module}.{node.name}"
            for module, source in sorted(sources.items())
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in named]


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py defines no __all__")


def test_every_public_definition_is_exported_or_used():
    # __init__.py imports names only to re-export them, so it speaks
    # through __all__ alone
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert sources
    assert _unreached_definitions(sources, _exported_names()) == []


def test_the_check_sees_an_unreached_definition():
    sources = {
        "a": "def used():\n    return inner()\n\ndef inner():\n    pass\n\n"
             "def exported():\n    pass\n\ndef orphan():\n    pass\n\n"
             "class Lonely:\n    pass\n\ndef _private():\n    pass\n",
        "b": "from .a import used\n\ndef helper():\n    return used()\n",
        "c": "from . import b\n\nprint(b.helper())\n",
    }
    assert _unreached_definitions(sources, {"exported"}) == \
        ["a.orphan", "a.Lonely"]


def test_the_lattice_layer_depends_only_on_errors():
    # set algebra on Z: no field, polynomial or function module
    tree = ast.parse((PACKAGE / "lattices.py").read_text())
    siblings = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert siblings == {"errors"}
