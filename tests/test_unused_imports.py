"""No module of the package or of its tests imports a name it never reads.

No linter runs over the source, so this is the check: every name an import
statement binds in a module under src/admitsim/ or tests/ is read somewhere
in that module's syntax tree, as a name or as the base of an attribute. A
name that only a docstring or a comment mentions does not count. An
`__init__.py` is left out: its imports are the public names it re-exports.
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


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_every_imported_name_is_read(module):
    with open(os.path.join(*module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


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
