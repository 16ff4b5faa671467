"""The numerics contract of admitsim.geometry, pinned on random and special inputs.

`dot3` is the one 3-vector dot product: a Python-float sum taken left to
right. A batched engine holding N vectors as an (N, 3) array must reproduce it
bit for bit with the columnwise numpy form, and the per-value transcendentals
(`math.sqrt`, `math.sin`, `math.cos`) must equal the numpy ufuncs it would
call instead. Bits are compared as uint64 patterns, so -0.0 and 0.0 differ and
NaN payloads must match too.

No BLAS or LAPACK call appears under src/admitsim/ at all: `blas_calls`
finds each entry point in a module's syntax tree, and every module must
have none.
"""

from __future__ import annotations

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitsim.geometry import dot3, sq_norm

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "admitsim")
# numpy functions that hand their work to BLAS or LAPACK.
BLAS_FUNCTIONS = {"polyfit", "matmul", "einsum", "inner", "vdot", "tensordot"}

# -0.0, the smallest and largest subnormals, the smallest normal, huge and tiny
# exponents, the largest finite double and the infinities.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, 1e-12, 1.0, -1.0,
           math.inf, -math.inf)

any_float = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
finite_float = st.one_of(st.sampled_from([x for x in SPECIAL if math.isfinite(x)]),
                         st.floats(allow_nan=False, allow_infinity=False))
vec3 = st.tuples(any_float, any_float, any_float)


def patterns(x) -> np.ndarray:
    """The floats of x as their uint64 bit patterns."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def columnwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


@given(st.lists(st.tuples(vec3, vec3), min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_dot3_equals_columnwise_numpy(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    with np.errstate(all="ignore"):
        batch = columnwise(a, b)
    single = [dot3(u, v) for u, v in pairs]
    assert patterns(single).tolist() == patterns(batch).tolist()


@given(vec3)
@settings(max_examples=300, deadline=None)
def test_sq_norm_is_dot3_with_itself(v):
    assert patterns(sq_norm(v)) == patterns(dot3(v, v))


def test_dot3_equals_columnwise_numpy_over_all_exponents():
    """100 k pairs with uniformly drawn exponents, a fifth of them special values."""
    rng = np.random.default_rng(20260)
    shape = (100_000, 3)

    def draw():
        x = np.ldexp(rng.uniform(-1.0, 1.0, shape), rng.integers(-1074, 1024, shape))
        pick = rng.random(shape) < 0.2
        x[pick] = rng.choice(np.array(SPECIAL), int(pick.sum()))
        return x

    a, b = draw(), draw()
    with np.errstate(all="ignore"):
        batch = columnwise(a, b)
    single = [dot3(u, v) for u, v in zip(a.tolist(), b.tolist())]
    assert patterns(single).tolist() == patterns(batch).tolist()


@given(st.lists(finite_float, min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_math_transcendentals_equal_numpy_ufuncs(xs):
    arr = np.array(xs)
    assert patterns([math.sin(x) for x in xs]).tolist() == patterns(np.sin(arr)).tolist()
    assert patterns([math.cos(x) for x in xs]).tolist() == patterns(np.cos(arr)).tolist()
    mags = [abs(x) if x != 0.0 else x for x in xs]  # keeps -0.0
    assert (patterns([math.sqrt(x) for x in mags]).tolist()
            == patterns(np.sqrt(np.array(mags))).tolist())


def _dotted(node) -> str:
    """`a.b.c` for an attribute chain on a name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def blas_calls(source: str) -> list[str]:
    """Each BLAS or LAPACK entry point in source, as `<line>: <what>`: the `@`
    operator, any `.dot`, `np.<f>` for f in BLAS_FUNCTIONS and any
    `np.linalg` name but `np.linalg.norm(..., axis=...)`, numpy spelled `np`
    or `numpy`, and an import of one of them."""
    tree = ast.parse(source)
    axis_norms = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _dotted(node.func) in ("np.linalg.norm", "numpy.linalg.norm")
                  and any(kw.arg == "axis" for kw in node.keywords)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute):
            module, _, name = _dotted(node).rpartition(".")
            if node.attr == "dot":
                found.append(f"{node.lineno}: .dot")
            elif module in ("np", "numpy") and name in BLAS_FUNCTIONS:
                found.append(f"{node.lineno}: {module}.{name}")
            elif module in ("np.linalg", "numpy.linalg") and id(node) not in axis_norms:
                found.append(f"{node.lineno}: {module}.{name}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            found += [f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                      if node.module == "numpy.linalg" or alias.name in BLAS_FUNCTIONS | {"dot"}]
    return sorted(found, key=lambda line: int(line.partition(":")[0]))


# (source, what blas_calls finds in it).
BLAS_SNIPPETS = [
    ("c = a @ b", ["1: @"]),
    ("c @= b", ["1: @"]),
    ("c = a.dot(b)", ["1: .dot"]),
    ("c = np.dot(a, b)", ["1: .dot"]),
    *[(f"c = np.{f}(a, b)", [f"1: np.{f}"]) for f in sorted(BLAS_FUNCTIONS)],
    ("c = numpy.polyfit(t, x, 1)", ["1: numpy.polyfit"]),
    ("c = np.linalg.lstsq(a, b)", ["1: np.linalg.lstsq"]),
    ("c = np.linalg.norm(v)", ["1: np.linalg.norm"]),
    ("c = np.linalg.norm(v, 2)", ["1: np.linalg.norm"]),
    ("from numpy.linalg import norm", ["1: numpy.linalg.norm"]),
    ("from numpy import polyfit, sqrt", ["1: numpy.polyfit"]),
    ("c = np.linalg.norm(x, axis=1)", []),
    ("@dataclass\nclass A:\n    pass", []),
    ("c = np.sqrt(a * b).sum()", []),
]


@pytest.mark.parametrize("source,found", BLAS_SNIPPETS, ids=[src for src, _ in BLAS_SNIPPETS])
def test_each_blas_entry_point_is_found(source, found):
    assert blas_calls(source) == found


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_no_module_calls_blas(name):
    """A BLAS or LAPACK kernel may fuse multiply and add or block its sums by
    the host's CPU, so its last bit is the host's: no module of the package
    calls one (see the `geometry` numerics contract)."""
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert blas_calls(fh.read()) == []
