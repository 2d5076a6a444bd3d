"""What a process loads: the package imports none of its modules, and each
README command line loads exactly the modules its command calls.

Every check runs in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1, as
a README user without cached bytecode would, so no module another test
imported counts.
"""
import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import reciprocity_lab

ROOT = Path(__file__).resolve().parents[1]

# what every command loads: the fields, polynomials and functions, the
# parser and the report
CORE = {"errors", "fields", "poly", "factor", "residue_field", "funcfield",
        "parsing", "report"}
CURVE = CORE | {"symbols1d"}
TRACES = {"localfield", "lattices", "tate"}
FAMILIES = CURVE | TRACES | {"xsymbol"}
EXPECTED = {
    "tame": CURVE, "weil": CURVE, "sumval": CURVE, "hilbert": CURVE,
    "nu": CURVE | {"surface"}, "horozov": CURVE | {"surface"},
    "parshin": CURVE | {"surface"}, "hk4": CURVE | {"surface"},
    "residue": CORE | TRACES, "restheorem": CURVE | TRACES,
    "sw": CURVE | TRACES | {"segalwilson"},
    "index --place": CORE | {"lattices"}, "index --verify": FAMILIES,
    "xsymbol": FAMILIES,
}
NEVER = ("dataclasses", "inspect")


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# runs argv as `python -m reciprocity_lab.cli` would, then prints the
# package's loaded modules and whether any of NEVER was loaded
_RUN_CLI = """
import contextlib, io, json, runpy, sys
argv, never = sys.argv[1:], {never!r}
sys.argv = ["reciprocity-lab", *argv]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("reciprocity_lab.cli", run_name="__main__",
                         alter_sys=True)
    except SystemExit as exit:
        assert exit.code == 0, (argv, exit.code)
print(json.dumps({{
    "modules": sorted(name.split(".", 1)[1] for name in sys.modules
                      if name.startswith("reciprocity_lab.")),
    "never": sorted(set(never) & set(sys.modules))}}))
""".format(never=NEVER)


def _loaded_by(argv) -> dict:
    return json.loads(_python(_RUN_CLI, *argv))


def _readme_command_lines() -> list[list[str]]:
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line) for line
            in re.findall(r"^\$ reciprocity-lab (.*)$", readme, re.M)]


def _budget_key(argv) -> str:
    if argv[0] == "index":
        return "index --verify" if "--verify" in argv else "index --place"
    return argv[0]


def test_importing_the_package_loads_none_of_its_modules():
    out = _python("import sys, reciprocity_lab\n"
                  "print(sorted(n for n in sys.modules "
                  "if n.startswith('reciprocity_lab.')))")
    assert out == "[]\n"


def _constant_owners() -> dict:
    """Each module-level assignment of an exported name: name -> module."""
    exported = set(reciprocity_lab.__all__)
    return {target.id: path.stem
            for path in sorted((ROOT / "src" / "reciprocity_lab").glob("*.py"))
            if path.name != "__init__.py"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in exported}


def test_every_exported_name_is_the_object_its_module_defines():
    # the lazy lookup reads each name from the module that defines it, not
    # from one that imports it from there, so it loads no more than needed
    out = _python("""
import importlib, json, sys
import reciprocity_lab
constants = json.loads(sys.argv[1])
wrong = []
for name in reciprocity_lab.__all__:
    value = getattr(reciprocity_lab, name)
    owner = getattr(value, "__module__", None) \\
        or f"reciprocity_lab.{constants[name]}"
    if (getattr(importlib.import_module(owner), name) is not value
            or owner != f"reciprocity_lab.{reciprocity_lab._SOURCE_OF[name]}"):
        wrong.append(name)
print(json.dumps(wrong))
""", json.dumps(_constant_owners()))
    assert json.loads(out) == []


def test_star_import_dir_and_unknown_names():
    out = _python("""
import json, reciprocity_lab
space = {}
exec("from reciprocity_lab import *", space)
try:
    reciprocity_lab.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"all": reciprocity_lab.__all__,
                  "bound": sorted(set(space) - {"__builtins__"}),
                  "dir": dir(reciprocity_lab), "unknown": unknown,
                  "poly": reciprocity_lab.poly.__name__}))
""")
    seen = json.loads(out)
    assert len(seen["all"]) == len(set(seen["all"]))
    assert seen["bound"] == sorted(seen["all"])
    assert set(seen["all"]) <= set(seen["dir"])
    assert seen["dir"] == sorted(seen["dir"])
    assert seen["unknown"] == ("module 'reciprocity_lab' has no attribute "
                               "'no_such_name'")
    # a module the package used to import eagerly is still an attribute
    assert seen["poly"] == "reciprocity_lab.poly"


def test_the_readme_covers_every_command_of_the_budget():
    lines = _readme_command_lines()
    assert len(lines) == 16
    assert {_budget_key(argv) for argv in lines} == set(EXPECTED)


@pytest.mark.parametrize("argv", _readme_command_lines(),
                         ids=lambda argv: " ".join(argv))
def test_each_readme_command_loads_only_what_it_calls(argv):
    loaded = _loaded_by(argv)
    # the command itself runs as __main__, so cli is not among them
    assert set(loaded["modules"]) == EXPECTED[_budget_key(argv)]
    assert loaded["never"] == []
