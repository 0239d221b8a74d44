"""Step clock and span tracing, installed on ugatlab from outside the package.

Wrappers replace each name where its caller looks it up: a class attribute
(``TrafficSim.step``, ``DqnAgent.learn``) or the module global a caller binds
(``ugatlab.dqn.forward``, ``ugatlab.experiment.protocols.ground``). A numnet
call made from dqn or grounding therefore lands under its caller's span, and
a layer's self time is its spans' durations minus their child spans.

Spans stay in memory as tuples and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from pathlib import Path

SCENARIOS = ("Default", "V1", "V4")
HEADS = ("edl", "dropout", "ensemble", "logits")


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class StepClock:
    """Always-on hook on ``TrafficSim.step``: one timestamp per step return.

    After each step return it times the machine-speed probe and records
    ``(interval, probe)`` in ``steps``: the interval since the previous
    return in the same episode (0 at an episode's first step), not counting
    the previous probe. It also records each finished episode's violation
    counts and environment, so a workload can digest its final
    ``state_signature()``. ``violations`` restarts with ``restart()``;
    ``totals`` never does.
    """

    def __init__(self, probe):
        self.probe = probe
        self.steps: list[tuple[int, int]] = []
        self.violations: list[tuple[int, int]] = []
        self.totals = [0, 0]  # signal and gap violations of every finished episode
        self.last_env = None
        self._env = None
        self._last = 0

    def install(self, sim_cls) -> None:
        original = self._original = sim_cls.step
        clock = self
        now = time.perf_counter_ns

        @functools.wraps(original)
        def step(env, action):
            out = original(env, action)
            t = now()
            interval = t - clock._last if clock._env is env else 0
            clock.steps.append((interval, clock.probe()))
            clock._env = env
            if out[2]:
                counts = (len(env.signal_violations), len(env.gap_violations))
                clock.violations.append(counts)
                clock.totals[0] += counts[0]
                clock.totals[1] += counts[1]
                clock.last_env = env
                clock._env = None
            clock._last = now()
            return out

        sim_cls.step = step

    def uninstall(self, sim_cls) -> None:
        sim_cls.step = self._original

    def restart(self) -> None:
        self.violations = []
        self.last_env = None
        self._env = None


class Tracer:
    """In-memory spans: (id, parent id, name, label, start ns, end ns, note)."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.current_head = ""
        self._stack = [0]
        self._next = 1
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, label=None, note=None):
        """Span around fn; label(args) tags the span, note(args, result) annotates it."""
        tracer = self
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tag = label(args) if label is not None else ""
            tracer._stack.append(sid)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                tracer._stack.pop()
            tracer.spans.append(
                (sid, parent, name, tag, t0, t1, note(args, result) if note is not None else None)
            )
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, label=None, note=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, label, note))

    def restore(self) -> None:
        """Put back every patched name, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,name,label,start_ns,end_ns,note\n")
            for sid, parent, name, tag, t0, t1, note in self.spans:
                fh.write(f"{sid},{parent},{name},{tag},{t0},{t1},{'' if note is None else note}\n")


def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer where their callers bind them."""
    from ugatlab import cli, dqn, grounding
    from ugatlab.experiment import io, protocols
    from ugatlab.sim import SCENARIOS as PARAMS, TrafficSim

    scenario_of = {id(p): name for name, p in PARAMS.items()}

    def env_scenario(args):
        return scenario_of.get(id(args[0].params), "other")

    def active_vehicles(args, result):
        return float(result[0][:12].sum())

    def batch_kind(args):
        x = args[1]
        return "b1" if x.ndim == 1 or x.shape[0] == 1 else "batch"

    def ground_head(args):
        tracer.current_head = args[3].head
        return tracer.current_head

    def gate_head(args):
        return tracer.current_head

    # sim: class attributes, so every caller (protocols, dqn loop, benchmark) is seen
    tracer.patch(TrafficSim, "step", "sim.step", env_scenario, active_vehicles)
    tracer.patch(TrafficSim, "reset", "sim.reset")
    tracer.patch(TrafficSim, "lane_queue_counts", "sim.lane_queue_counts")
    tracer.patch(TrafficSim, "finalize_metrics", "sim.finalize_metrics")
    tracer.patch(protocols, "generate_demand", "sim.generate_demand")

    tracer.patch(dqn.DqnAgent, "act", "dqn.act")
    tracer.patch(dqn.DqnAgent, "learn", "dqn.learn", note=lambda a, r: int(r is not None))
    tracer.patch(dqn.DqnAgent, "sync_target", "dqn.sync_target")
    tracer.patch(protocols, "train_policy", "dqn.train_policy")

    for module in (dqn, grounding):
        tracer.patch(module, "forward", "numnet.forward", batch_kind)
        tracer.patch(module, "backward", "numnet.backward")
        tracer.patch(module, "adam_step", "numnet.adam_step")

    tracer.patch(protocols.Grounder, "fit", "grounding.fit", lambda a: a[0].cfg.head)
    tracer.patch(protocols, "train_forward", "grounding.train_forward")
    tracer.patch(protocols, "train_inverse", "grounding.train_inverse")
    tracer.patch(protocols, "ground", "grounding.ground", ground_head)
    tracer.patch(protocols, "gate", "grounding.gate", gate_head, note=lambda a, r: int(r[1]))

    tracer.patch(protocols, "train_direct_policy", "experiment.train_direct_policy")
    tracer.patch(protocols, "run_ugat", "experiment.run_ugat")
    tracer.patch(protocols, "rollout", "experiment.rollout")
    tracer.patch(protocols, "evaluate", "experiment.evaluate")
    tracer.patch(cli, "compare_uncertainty_methods", "experiment.compare_uncertainty_methods")
    for attr in ("write_seed_run", "write_gap_reports", "write_summary"):
        tracer.patch(io, attr, f"experiment.io.{attr}")

    tracer.patch(cli, "main", "cli.main")


def layer_metrics(
    spans, passes: int, violations, io_bytes: float, scale: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass, from the spans of the traced passes.

    Counts and seconds are per pass; ``us_p*`` are percentiles of single
    calls; ``dqn.learn.us_*`` cover calls that took a step (buffer warm).
    Times are multiplied by ``scale``, the traced passes' machine-speed factor.
    """
    n = max(passes, 1)
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, _tag, t0, t1, _note in spans:
        child_ns[parent] += t1 - t0
    self_ns: dict[str, float] = defaultdict(float)
    durs: dict[tuple[str, str], list[float]] = defaultdict(list)
    notes: dict[tuple[str, str], list[int | float]] = defaultdict(list)
    for sid, _parent, name, tag, t0, t1, note in spans:
        self_ns[name.split(".", 1)[0]] += (t1 - t0 - child_ns[sid]) * scale
        durs[name, tag].append((t1 - t0) / 1e3 * scale)
        if note is not None:
            notes[name, tag].append(note)

    def calls(name, tag=None):
        if tag is not None:
            return len(durs[name, tag]) / n
        return sum(len(v) for (nm, _t), v in durs.items() if nm == name) / n

    def total_s(prefix, tag=None):
        return sum(
            sum(v) for (nm, t), v in durs.items()
            if nm.startswith(prefix) and (tag is None or t == tag)
        ) / 1e6 / n

    def ratio(key):
        vals = notes[key]
        return sum(vals) / len(vals) if vals else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["sim.step.calls"] = (calls("sim.step"), "count")
    for s in SCENARIOS:
        m[f"sim.step.us_p50.{s}"] = (percentile(durs["sim.step", s], 50), "us")
        m[f"sim.step.us_p99.{s}"] = (percentile(durs["sim.step", s], 99), "us")
        m[f"sim.vehicles_active_mean.{s}"] = (ratio(("sim.step", s)), "vehicles")
    m["sim.self_s"] = (self_ns["sim"] / 1e9 / n, "s")
    m["sim.signal_violations"] = (violations[0] / n, "count")
    m["sim.gap_violations"] = (violations[1] / n, "count")

    learn = durs["dqn.learn", ""]
    ready = notes["dqn.learn", ""]
    learn_ready = [d for d, r in zip(learn, ready) if r]
    m["dqn.act.calls"] = (calls("dqn.act"), "count")
    m["dqn.act.us_p50"] = (percentile(durs["dqn.act", ""], 50), "us")
    m["dqn.learn.calls"] = (calls("dqn.learn"), "count")
    m["dqn.learn.us_p50"] = (percentile(learn_ready, 50), "us")
    m["dqn.learn.us_p99"] = (percentile(learn_ready, 99), "us")
    m["dqn.learn.ready_ratio"] = (ratio(("dqn.learn", "")), "ratio")
    m["dqn.sync_target.calls"] = (calls("dqn.sync_target"), "count")
    m["dqn.self_s"] = (self_ns["dqn"] / 1e9 / n, "s")

    m["numnet.forward.calls"] = (calls("numnet.forward"), "count")
    m["numnet.forward.b1.us_p50"] = (percentile(durs["numnet.forward", "b1"], 50), "us")
    m["numnet.forward.batch.us_p50"] = (percentile(durs["numnet.forward", "batch"], 50), "us")
    m["numnet.backward.us_p50"] = (percentile(durs["numnet.backward", ""], 50), "us")
    m["numnet.adam_step.us_p50"] = (percentile(durs["numnet.adam_step", ""], 50), "us")
    m["numnet.self_s"] = (self_ns["numnet"] / 1e9 / n, "s")

    for h in HEADS:
        m[f"grounding.ground.calls.{h}"] = (calls("grounding.ground", h), "count")
        m[f"grounding.ground.us_p50.{h}"] = (percentile(durs["grounding.ground", h], 50), "us")
        m[f"grounding.fit.s.{h}"] = (total_s("grounding.fit", h), "s")
        m[f"grounding.gate.accept_ratio.{h}"] = (ratio(("grounding.gate", h)), "ratio")
    m["grounding.self_s"] = (self_ns["grounding"] / 1e9 / n, "s")

    m["experiment.rollout.s"] = (total_s("experiment.rollout"), "s")
    m["experiment.evaluate.s"] = (total_s("experiment.evaluate"), "s")
    m["experiment.io.write_s"] = (total_s("experiment.io."), "s")
    m["experiment.io.bytes"] = (io_bytes, "B")
    m["experiment.self_s"] = (self_ns["experiment"] / 1e9 / n, "s")
    m["cli.main.s"] = (total_s("cli.main"), "s")
    m["cli.self_s"] = (self_ns["cli"] / 1e9 / n, "s")
    return m
