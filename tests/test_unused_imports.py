"""No module of the package or of its tests imports a name it never reads,
and no test module restates what tests/scenarios.py defines.

No linter runs over the source, so this is the check: every name an import
statement binds in a module under src/admitsim/ or tests/ is read somewhere
in that module's syntax tree, as a name or as the base of an attribute. A
name that only a docstring or a comment mentions does not count. An
`__init__.py` is left out: its imports are the public names it re-exports.
A test module imports the shared scenarios, fixtures and digest from
`scenarios`; it binds none of their names at its top level otherwise.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "admitsim")
# (directory, file name): the package's modules, shown by file name, then the
# tests', shown as tests/<file name>.
MODULES = [(directory, name) for directory in (SRC, TESTS) for name in sorted(os.listdir(directory))
           if name.endswith(".py") and name != "__init__.py"]
IDS = [name if directory == SRC else f"tests/{name}" for directory, name in MODULES]


def unused_imports(source: str) -> list[str]:
    """The names the source's import statements bind and nothing reads, in
    the order they are bound."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a; `import a.b as c` binds c.
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def top_level_bindings(source: str) -> list[tuple[str, str | None]]:
    """(name, module) for each name the source's top-level statements bind, in
    order: module is the one an import takes the name from, and None for a
    definition or an assignment."""
    bindings = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.append((node.name, None))
        elif isinstance(node, ast.Import):
            bindings += [(alias.asname or alias.name.partition(".")[0], alias.name)
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bindings += [(alias.asname or alias.name, node.module) for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bindings += [(n.id, None) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
    return bindings


def restated_names(source: str, shared: set) -> list[str]:
    """The names of `shared` that the source binds at its top level other
    than by importing them from `scenarios`."""
    return [name for name, module in top_level_bindings(source)
            if name in shared and module != "scenarios"]


def source_of(directory: str, name: str) -> str:
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return fh.read()


# What tests/scenarios.py defines, not what it imports.
SHARED = {name for name, module in top_level_bindings(source_of(TESTS, "scenarios.py"))
          if module is None}


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_every_imported_name_is_read(module):
    assert unused_imports(source_of(*module)) == []


def test_no_test_module_restates_a_shared_name():
    assert {"SUITE_NOISE", "SCENARIOS", "scenario_config", "log_digest",
            "microwave_grasp"} <= SHARED
    restated = {name: restated_names(source_of(directory, name), SHARED)
                for directory, name in MODULES if directory == TESTS and name != "scenarios.py"}
    assert {name: names for name, names in restated.items() if names} == {}


@pytest.mark.parametrize("source,unused", [
    ("import math\nmath.pi\n", []),
    ("import math\n", ["math"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", ["np"]),
    ("from math import cos, sin\ncos(0.0)\n", ["sin"]),
    ("from math import sqrt as root\n", ["root"]),
    ("from __future__ import annotations\n", []),
    ('from math import tau\n"""tau"""\n', ["tau"]),
    ("from math import tau\ndef f(x: tau): pass\n", []),
    ("def f():\n    from math import e\n    return 1\n", ["e"]),
    ("from math import e\ne = 2\n", ["e"]),
])
def test_the_check_finds_the_unused_names(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("source,restated", [
    ("from scenarios import SUITE_NOISE\nSUITE_NOISE.seed\n", []),
    ("SUITE_NOISE = NoiseSpec(seed=0)\n", ["SUITE_NOISE"]),
    ("from test_golden import microwave\ndef f():\n    SUITE_NOISE = 1\n", ["microwave"]),
    ("class T:\n    SUITE_NOISE = None\n    def microwave(self): pass\n", []),
], ids=["imported", "assigned", "imported-elsewhere", "not-top-level"])
def test_the_check_finds_the_restated_names(source, restated):
    assert restated_names(source, {"SUITE_NOISE", "microwave"}) == restated
