"""Per-layer tracing from outside the program.

The traced run wraps the public names each caller looks up at call time (for
example ``admitsim.harness.controller_tick``, which ``run_episode`` calls, or
``PlaneBoard.external_wrench``) with a span that counts calls and adds up
nanoseconds. Spans nest: a span's self time is its duration minus the
durations of the spans it directly contains, so the episode span's self time
is the harness loop itself, per-tick logging buffers included.

Memory stays bounded: every layer is a (calls, total ns, self ns) accumulator,
and each episode keeps one small record of its own counts.
"""

from __future__ import annotations

import math
import os
import time

import admitsim.cli
import admitsim.config
import admitsim.datasets
import admitsim.environments
import admitsim.harness
import admitsim.verify

# (layer, owner, attribute): every place a caller looks the layer up.
SPANS = (
    ("harness.episode", admitsim.harness, "run_episode"),
    ("harness.episode", admitsim.cli, "run_episode"),
    ("admittance.controller_tick", admitsim.harness, "controller_tick"),
    ("admittance.controller_tick", admitsim.verify, "controller_tick"),
    ("environments.wrench.board", admitsim.environments.PlaneBoard, "external_wrench"),
    ("environments.wrench.hole", admitsim.environments.HoleFixture, "external_wrench"),
    ("environments.wrench.door", admitsim.environments.HingedDoor, "external_wrench"),
    ("environments.door_update", admitsim.environments.HingedDoor, "update"),
    ("environments.apply_disturbances", admitsim.harness, "apply_disturbances"),
    ("environments.update_ink", admitsim.harness, "update_ink"),
    ("policy.predict", admitsim.harness, "predict"),
    ("tasks.build_environment", admitsim.harness, "build_environment"),
    ("tasks.build_environment", admitsim.cli, "build_environment"),
    ("tasks.generate_demo", admitsim.harness, "generate_demo"),
    ("tasks.generate_demo", admitsim.cli, "generate_demo"),
    ("datasets.write_trace", admitsim.cli, "write_trace"),
    ("datasets.write_dataset", admitsim.cli, "write_dataset"),
    ("datasets.read_dataset", admitsim.datasets, "read_dataset"),
    ("config.parse", admitsim.cli, "parse_scenario"),
    ("config.parse", admitsim.cli, "parse_suite"),
    ("config.parse", admitsim.config, "parse_verify_params"),
    ("verify.run", admitsim.cli, "run_default_verification"),
    ("verify.prop1_grid", admitsim.verify, "verify_prop1_grid"),
    ("verify.prop2", admitsim.verify, "verify_prop2"),
    ("verify.equivalence", admitsim.verify, "equivalence_check"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

# Layers whose time is reported as a share of the traced batch (see README).
SHARE_LAYERS = (
    "admittance.controller_tick", "environments.wrench", "environments.door_update",
    "environments.apply_disturbances", "environments.update_ink", "policy.predict",
    "tasks.build_environment", "tasks.generate_demo", "datasets.write_trace",
    "datasets.write_dataset", "datasets.read_dataset", "config.parse",
    "verify.prop1_grid", "verify.prop2", "verify.equivalence",
)


class Tracer:
    """Installs span wrappers on enter and puts every original back on exit."""

    def __init__(self, clock):
        self.clock = clock    # HostClock: its sampling time is left out of every span
        self.stats = {layer: [0, 0, 0] for layer in LAYERS}  # calls, ns, self ns
        self.counts = {"ink_calls_useful": 0, "ink_cells_wiped": 0,
                       "tangent_active": 0, "demo_tuples": 0, "trace_rows": 0,
                       "dataset_bytes_written": 0, "dataset_bytes_read": 0,
                       "verify_checks": 0, "verify_failed": 0}
        self.episodes = []    # one (ticks, safety_stopped, span ns, self ns) per episode
        self.unmeasured = []  # layers whose public name is gone
        self._stack = []      # child-ns accumulator of each open span
        self._saved = []      # (owner, attribute, original) in install order

    def __enter__(self):
        try:
            for layer, owner, attr in SPANS:
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr)
                else:
                    original = getattr(owner, attr, None)
                if not callable(original):
                    if layer not in self.unmeasured:
                        self.unmeasured.append(layer)
                    continue
                setattr(owner, attr, self._span(layer, original, _OBSERVERS.get(layer)))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _span(self, layer, fn, observe):
        stats = self.stats[layer]
        stack = self._stack
        host = self.clock
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            k0 = host.kernel_s
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - t0 - round((host.kernel_s - k0) * 1e9)
                inner = stack.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
                if stack:
                    stack[-1] += took
            if observe is not None:
                observe(self, result, args, took, took - inner)
            return result

        span.__wrapped__ = fn
        return span

    # ------------------------------------------------------------------

    def metrics(self, wall_s: float, scaled_s: float) -> tuple[dict, dict]:
        """(contract metrics, full report), each metric as {"value", "unit"}.

        ``wall_s`` is the traced batch's wall time, the base of every share;
        ``scaled_s`` is the same at reference host speed (see HostClock). A
        layer that was never called reads 0 in the contract and None in the
        report; the report also has the call counts and the unmeasured layers.
        """
        st, c = self.stats, self.counts
        wall_ns = wall_s * 1e9
        ticks = sum(e[0] for e in self.episodes)
        episode_self_ns = sum(e[3] for e in self.episodes)

        def per_call(layer, scale):
            calls, ns, _ = st[layer]
            return ns / calls / scale if calls else None

        def seconds(layer, field=1):
            return st[layer][field] / 1e9 if st[layer][0] else None

        def rate(amount, layer, scale=1.0):
            return amount / scale / seconds(layer) if st[layer][1] else None

        def ratio(part, whole):
            return part / whole if whole else 0.0

        values = {
            "harness.episodes": len(self.episodes),
            "harness.ticks": ticks,
            "harness.policy_steps": sum(math.ceil(e[0] / admitsim.harness.TICKS_PER_STEP)
                                        for e in self.episodes),
            "harness.safety_stops": sum(e[1] for e in self.episodes),
            "policy.predict.calls": st["policy.predict"][0],
            "environments.wrench.calls": sum(st[k][0] for k in st
                                             if k.startswith("environments.wrench.")),
            "environments.update_ink.cells_wiped": c["ink_cells_wiped"],
            "expert.demo_tuples": c["demo_tuples"],
            "datasets.trace_rows": c["trace_rows"],
            "datasets.dataset_bytes": c["dataset_bytes_written"],
            "verify.checks": c["verify_checks"],
            "verify.checks_failed": c["verify_failed"],
            "admittance.tangent_active_ratio":
                ratio(c["tangent_active"], st["admittance.controller_tick"][0]),
            "environments.update_ink.useful_ratio":
                ratio(c["ink_calls_useful"], st["environments.update_ink"][0]),
            "harness.self.share": episode_self_ns / wall_ns,
        }
        for layer in SHARE_LAYERS:
            values[layer + ".share"] = sum(
                v[1] for k, v in st.items() if k == layer or k.startswith(layer + ".")) / wall_ns
        values.update({
            "verify.prop3.share": st["verify.run"][2] / wall_ns,
            "admittance.controller_tick.us_per_call": per_call("admittance.controller_tick", 1e3),
            "tasks.build_environment.ms_per_call": per_call("tasks.build_environment", 1e6),
            "tasks.generate_demo.ms_per_call": per_call("tasks.generate_demo", 1e6),
            "expert.tuples_per_demo": ratio(c["demo_tuples"], st["tasks.generate_demo"][0]),
            "config.parse_s": per_call("config.parse", 1e9),
            "trace.traced_s": scaled_s,
        })
        contract = {k: {"value": 0.0 if v is None else v, "unit": unit(k)}
                    for k, v in values.items()}
        values.update({
            "harness.self_us_per_tick": episode_self_ns / ticks / 1e3 if ticks else None,
            "environments.wrench.board.us_per_call": per_call("environments.wrench.board", 1e3),
            "environments.wrench.hole.us_per_call": per_call("environments.wrench.hole", 1e3),
            "environments.wrench.door.us_per_call": per_call("environments.wrench.door", 1e3),
            "environments.door_update.us_per_call": per_call("environments.door_update", 1e3),
            "environments.apply_disturbances.us_per_call":
                per_call("environments.apply_disturbances", 1e3),
            "environments.update_ink.us_per_call": per_call("environments.update_ink", 1e3),
            "policy.predict.us_per_call": per_call("policy.predict", 1e3),
            "datasets.write_trace.rows_per_s": rate(c["trace_rows"], "datasets.write_trace"),
            "datasets.write_dataset.MB_per_s":
                rate(c["dataset_bytes_written"], "datasets.write_dataset", 1e6),
            "datasets.read_dataset.MB_per_s":
                rate(c["dataset_bytes_read"], "datasets.read_dataset", 1e6),
            "verify.prop1_grid.s": seconds("verify.prop1_grid"),
            "verify.prop2.s": seconds("verify.prop2"),
            "verify.equivalence.s": seconds("verify.equivalence"),
            "verify.prop3.s": seconds("verify.run", field=2),
        })
        report = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
        report["calls"] = {layer: v[0] for layer, v in st.items()}
        report["unmeasured"] = list(self.unmeasured)
        return contract, report


UNITS = {
    "datasets.dataset_bytes": "B", "admittance.controller_tick.us_per_call": "us",
    "tasks.build_environment.ms_per_call": "ms", "tasks.generate_demo.ms_per_call": "ms",
    "config.parse_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s",
    "harness.self_us_per_tick": "us", "datasets.write_trace.rows_per_s": "1/s",
    "datasets.write_dataset.MB_per_s": "MB/s", "datasets.read_dataset.MB_per_s": "MB/s",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".s"):
        return "s"
    return "count"


# Observers read counts off a span's arguments and result.

def _observe_episode(tracer, log, args, took, self_ns):
    tracer.episodes.append((log.n_ticks, int(log.safety_stopped), took, self_ns))


def _observe_tick(tracer, res, args, took, self_ns):
    eigs = res.stiffness_eigs
    tracer.counts["tangent_active"] += int(eigs[2] != eigs[0])


def _observe_ink(tracer, wiped, args, took, self_ns):
    tracer.counts["ink_calls_useful"] += int(wiped >= 1)
    tracer.counts["ink_cells_wiped"] += wiped


def _observe_demo(tracer, demo, args, took, self_ns):
    tracer.counts["demo_tuples"] += len(demo.tuples)


def _observe_trace(tracer, _, args, took, self_ns):
    tracer.counts["trace_rows"] += args[1].n_ticks


def _observe_write_dataset(tracer, _, args, took, self_ns):
    tracer.counts["dataset_bytes_written"] += os.path.getsize(args[0])


def _observe_read_dataset(tracer, _, args, took, self_ns):
    tracer.counts["dataset_bytes_read"] += os.path.getsize(args[0])


def _observe_verify(tracer, reports, args, took, self_ns):
    tracer.counts["verify_checks"] += len(reports)
    tracer.counts["verify_failed"] += sum(1 for r in reports if not r.passed)


_OBSERVERS = {
    "harness.episode": _observe_episode,
    "admittance.controller_tick": _observe_tick,
    "environments.update_ink": _observe_ink,
    "tasks.generate_demo": _observe_demo,
    "datasets.write_trace": _observe_trace,
    "datasets.write_dataset": _observe_write_dataset,
    "datasets.read_dataset": _observe_read_dataset,
    "verify.run": _observe_verify,
}
