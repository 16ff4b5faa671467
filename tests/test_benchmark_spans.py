"""The benchmark's per-layer trace (perfbench/layers.py) wraps public names of
the package, given as (owner, attribute) pairs. A name that a refactor deletes
or renames leaves its layer unmeasured without failing the benchmark; this test
fails instead. It only reads perfbench/: the module is executed from its
source, so no bytecode is written there.
"""

import os
import types

import pytest

LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "layers.py")


def load_spans():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = LAYERS_PY
    with open(LAYERS_PY) as fh:
        exec(compile(fh.read(), LAYERS_PY, "exec"), module.__dict__)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("layer,owner,attr", SPANS,
                         ids=[f"{owner.__name__}.{attr}" for _, owner, attr in SPANS])
def test_traced_name_resolves_to_a_callable(layer, owner, attr):
    # The tracer looks a class attribute up in the class's own __dict__.
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"layer {layer}: {owner.__name__}.{attr} is missing"
