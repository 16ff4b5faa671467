"""The numerics contract of admitsim.geometry, pinned on random and special inputs.

`dot3` is the one 3-vector dot product: a Python-float sum taken left to
right. A batched engine holding N vectors as an (N, 3) array must reproduce it
bit for bit with the columnwise numpy form, and the per-value transcendentals
(`math.sqrt`, `math.sin`, `math.cos`) must equal the numpy ufuncs it would
call instead. Bits are compared as uint64 patterns, so -0.0 and 0.0 differ and
NaN payloads must match too.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from admitsim.geometry import dot3, sq_norm

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
