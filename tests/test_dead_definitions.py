"""Every function, class, method and class constant the package defines is
read elsewhere in it.

The companion of tests/test_unused_imports.py, over definitions: each
`def` and `class` under src/admitsim/, nested ones included, and each plain
(non-annotated) assignment in a class body, must be read somewhere in
src/admitsim/ outside its own body, as a name (`vec3(v)`, `key=_fmt`) or as
an attribute (`log.metrics`, `self._near(...)`, `env.OVERRIDES`). An
annotated one is a field, which the constructor reads. Names are matched
bare, so a method counts as read wherever an attribute of its name is. A
name that `__init__.py` imports is a public export and counts as read.
Dunders are read by Python itself and are exempt. A definition that only
code outside the package reads passes only by its entry in
`OUTSIDE_READERS`, which names that reader.
"""

import ast
import os
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "admitsim")

# "Class.name" or "function": the reader outside src/ that keeps it.
OUTSIDE_READERS = {
    "Dataset.tuple_count": "perfbench/workloads.py counts the records of each dataset it "
                           "reads back",
}


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in tree: names and attribute names, loaded."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, bare name, node) of each function and class defined
    in tree, nested ones included, and of each name a plain assignment in a
    class body binds: a method or a class constant is Class.name."""
    in_class = isinstance(tree, ast.ClassDef)
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name, node
            yield from definitions(node, prefix + node.name + ".")
        elif in_class and isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield prefix + target.id, target.id, node
        else:
            yield from definitions(node, prefix)


def unread_definitions(sources: dict) -> list[str]:
    """The qualified names of the definitions in sources (file name -> text)
    that nothing reads outside their own body, by file, in source order.
    What `__init__.py` imports counts as read; dunders are skipped."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = sum((reads(tree) for tree in trees.values()), Counter())
    if "__init__.py" in trees:
        read.update(alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                    if isinstance(node, ast.ImportFrom) for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for qualname, bare, node in definitions(tree):
            if bare.startswith("__") and bare.endswith("__"):
                continue
            if read[bare] - reads(node)[bare] <= 0:
                unread.append(f"{name}:{qualname}")
    return unread


def package_sources() -> dict:
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def test_every_definition_is_read():
    unread = unread_definitions(package_sources())
    assert [name for name in unread if name.partition(":")[2] not in OUTSIDE_READERS] == []


def test_each_outside_reader_entry_is_still_needed():
    """An entry whose definition is gone, or is read in the package now, goes."""
    unread = {name.partition(":")[2] for name in unread_definitions(package_sources())}
    assert set(OUTSIDE_READERS) <= unread


@pytest.mark.parametrize("sources,unread", [
    ({"a.py": "def f(): pass\nf()\n"}, []),
    ({"a.py": "def f(): pass\n"}, ["a.py:f"]),
    ({"a.py": "def f(): pass\n", "b.py": "from .a import f\nf()\n"}, []),
    ({"a.py": "def f(): pass\n", "__init__.py": "from .a import f\n"}, []),
    ({"a.py": "def f(): return f()\n"}, ["a.py:f"]),
    ({"a.py": "class C:\n    def m(self): pass\nC().m()\n"}, []),
    ({"a.py": "class C:\n    def m(self): pass\nC()\n"}, ["a.py:C.m"]),
    ({"a.py": "class C:\n    def __len__(self): return 0\nC()\n"}, []),
    ({"a.py": "def f():\n    def g(): pass\n    return 1\nf()\n"}, ["a.py:f.g"]),
    ({"a.py": "def f(): pass\nkey = f\n"}, []),
    ({"a.py": 'def f(): pass\n"""f"""\n'}, ["a.py:f"]),
    ({"a.py": "def f(): pass\nf = 1\n"}, ["a.py:f"]),
    ({"a.py": "class C:\n    def m(self): pass\nC().m = None\n"}, ["a.py:C.m"]),
    ({"a.py": "class C:\n    K = 1\nC.K\n"}, []),
    ({"a.py": "class C:\n    K = 1\nC()\n"}, ["a.py:C.K"]),
    ({"a.py": "class C:\n    A = B = 1\nC().A\n"}, ["a.py:C.B"]),
    ({"a.py": "class C:\n    K = 1\n    L = K\nC.L\n"}, []),
    ({"a.py": "class C:\n    k: int = 1\nC()\n"}, []),
    ({"a.py": "class C:\n    __slots__ = ()\nC()\n"}, []),
    ({"a.py": "class C:\n    def m(self):\n        x = 1\nC().m()\n"}, []),
], ids=["called", "unread", "read-in-another-module", "exported", "only-recursive",
        "method-read", "method-unread", "dunder", "nested-unread", "passed-as-value",
        "only-in-a-docstring", "only-rebound", "method-only-assigned", "constant-read",
        "constant-unread", "constant-chained", "constant-read-in-its-class",
        "annotated-field", "constant-dunder", "method-local"])
def test_the_check_finds_the_unread_definitions(sources, unread):
    assert unread_definitions(sources) == unread
