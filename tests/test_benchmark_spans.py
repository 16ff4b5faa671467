"""The benchmark's per-layer trace (perfbench/layers.py) wraps public names of
the package, given as (owner, attribute) pairs. A name that a refactor deletes
or renames leaves its layer unmeasured without failing the benchmark, and a
call site moved away from a traced name leaves its layer at 0 calls; these
tests fail instead, by tracing one disturbed episode per task and the offline
commands (verify, gen-demos, read_dataset). They only read perfbench/: the
module is executed from its source, so no bytecode is written there.

The benchmark's workloads also read package names as `admitsim.<module>.<name>`
(the scripted suite disturbance, the task order, the builders), and attributes
off the package's objects (a read-back dataset and its tuples, an episode's
log and config, the disturbance events); a rename would fail the benchmark
run, so each such name in perfbench's source must resolve.
"""

import importlib
import os
import re
import types

import pytest

from admitsim import cli, datasets, harness
from admitsim.harness import ScenarioConfig, default_disturbance
from admitsim.tasks import TASKS

LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "layers.py")


def load_layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = LAYERS_PY
    with open(LAYERS_PY) as fh:
        exec(compile(fh.read(), LAYERS_PY, "exec"), module.__dict__)
    return module


LAYERS = load_layers()
SPANS = LAYERS.SPANS


@pytest.mark.parametrize("layer,owner,attr", SPANS,
                         ids=[f"{owner.__name__}.{attr}" for _, owner, attr in SPANS])
def test_traced_name_resolves_to_a_callable(layer, owner, attr):
    # The tracer looks a class attribute up in the class's own __dict__.
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"layer {layer}: {owner.__name__}.{attr} is missing"


class _StillClock:
    """The tracer's host clock, with no sampling time to leave out of a span."""

    kernel_s = 0.0


# The layers that one disturbed episode of each task calls.
EPISODE_LAYERS = (
    "harness.episode", "admittance.controller_tick", "environments.wrench.board",
    "environments.wrench.hole", "environments.wrench.door", "environments.door_update",
    "environments.apply_disturbances", "environments.update_ink", "policy.predict",
    "tasks.build_environment", "tasks.generate_demo",
)


def test_every_episode_layer_is_called_in_a_traced_run():
    """A refactor that moves a call site away from the traced name leaves its
    layer at 0 calls, which the benchmark would report without failing."""
    with LAYERS.Tracer(_StillClock()) as tracer:
        for task in TASKS:
            harness.run_episode(ScenarioConfig(task, duration=7.0,
                                               disturbances=default_disturbance(task)))
    assert tracer.unmeasured == []
    idle = [layer for layer in EPISODE_LAYERS if tracer.stats[layer][0] == 0]
    assert idle == []


# The layers that the offline commands call.
OFFLINE_LAYERS = (
    "verify.run", "verify.prop1_grid", "verify.prop2", "verify.equivalence", "config.parse",
    "tasks.build_environment", "tasks.generate_demo", "datasets.write_dataset",
    "datasets.read_dataset",
)


def test_every_offline_layer_is_called_in_a_traced_run(tmp_path):
    """`verify` on a one-point [verify] grid, a one-demo `gen-demos` and
    `read_dataset` of its file, traced: an offline layer at 0 calls fails.
    `run_default_verification` calls the proposition functions through
    their module names, which the `verify.prop1_grid` and `verify.prop2`
    layers trace.
    """
    grid = tmp_path / "grid.ini"
    grid.write_text("[verify]\nm = 1.0\nk_e = 1000\nf_h = 4\n")
    demos = str(tmp_path / "demos.bin")
    with LAYERS.Tracer(_StillClock()) as tracer:
        verified = cli.main(["verify", "--config", str(grid), "--prop3-duration", "0.01",
                             "--out", str(tmp_path / "verify.csv")])
        generated = cli.main(["gen-demos", "--task", "WW", "--count", "1", "--out", demos])
        dataset = datasets.read_dataset(demos)
    assert (verified, generated, len(dataset.episodes)) == (0, 0, 1)
    assert tracer.unmeasured == []
    assert tracer.counts["verify_checks"] == 4
    idle = [layer for layer in OFFLINE_LAYERS if tracer.stats[layer][0] == 0]
    assert idle == []


def read_names():
    """Every (module, name) that perfbench/*.py spells as admitsim.<module>.<name>."""
    names = set()
    folder = os.path.dirname(LAYERS_PY)
    for file in sorted(os.listdir(folder)):
        if file.endswith(".py"):
            with open(os.path.join(folder, file)) as fh:
                names.update(re.findall(r"\badmitsim\.(\w+)\.(\w+)", fh.read()))
    return sorted(names)


NAMES = read_names()


def test_the_benchmark_reads_package_names():
    assert len(NAMES) >= 15


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_package_name_read_by_the_benchmark_resolves(module, name):
    assert hasattr(importlib.import_module(f"admitsim.{module}"), name), \
        f"admitsim.{module}.{name} is missing"


WORKLOADS_PY = os.path.join(os.path.dirname(LAYERS_PY), "workloads.py")

# The names perfbench/workloads.py gives the package objects it reads:
# a read-back dataset, one of its tuples, an episode's log and config, and a
# scripted disturbance event.
OBJECTS = ("ds", "tup", "log", "cfg", "ev")


def read_attributes():
    """Every (object, attribute) that perfbench/workloads.py reads off the
    objects above, and every key it reads from an episode's metrics (`m`)."""
    with open(WORKLOADS_PY) as fh:
        source = fh.read()
    reads = re.findall(rf"\b({'|'.join(OBJECTS)})\.(\w+)", source)
    return sorted(set(reads)), sorted(set(re.findall(r"\bm\['(\w+)'\]", source)))


ATTRIBUTES, METRIC_KEYS = read_attributes()


@pytest.fixture(scope="module")
def package_objects(tmp_path_factory):
    """One real object of each kind: a read-back one-demo dataset and its first
    tuple, and a short disturbed episode's log, config and first event."""
    path = str(tmp_path_factory.mktemp("demos") / "demos.bin")
    assert cli.main(["gen-demos", "--task", "WW", "--count", "1", "--out", path]) == 0
    ds = datasets.read_dataset(path)
    cfg = ScenarioConfig("PH", duration=0.5, disturbances=default_disturbance("PH"))
    return {"ds": ds, "tup": next(iter(ds.episodes[0])), "log": harness.run_episode(cfg),
            "cfg": cfg, "ev": cfg.disturbances[0]}


def test_the_benchmark_reads_package_attributes():
    assert {obj for obj, _ in ATTRIBUTES} == set(OBJECTS)
    assert len(METRIC_KEYS) >= 4


@pytest.mark.parametrize("obj,attr", ATTRIBUTES, ids=[f"{o}.{a}" for o, a in ATTRIBUTES])
def test_attribute_read_by_the_benchmark_resolves(package_objects, obj, attr):
    assert hasattr(package_objects[obj], attr), f"{obj}.{attr} is missing"


@pytest.mark.parametrize("key", METRIC_KEYS)
def test_metric_read_by_the_benchmark_is_logged(package_objects, key):
    assert key in package_objects["log"].metrics
