"""Spans around graphabm's layer boundaries, recorded from outside.

``Tracer.install`` swaps module attributes of graphabm for timing wrappers
and ``uninstall`` puts the originals back; no file of graphabm changes.
Spans live in memory as dicts and are written out when the run ends. The
transition function itself is too hot for a span per agent: its wrapper
adds its time and call count to the innermost open span instead.

``NullTracer`` is what an untraced run carries: every hook is a no-op, so
the timed code paths are graphabm's own.
"""

from __future__ import annotations

import contextlib
import multiprocessing.context
import statistics
import sys
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

import numpy as np

from graphabm import engine, global_layer, parallel
from graphabm.schema import EdgeTypeInfo
from graphabm.sim import Simulation

TRANSITIONS = ("hk_transition", "emit_visits", "spread", "update_status")
EDGE_TYPES = ("Visit", "Infection")


class NullTracer:
    enabled = False

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def transition(self, fn):
        return fn

    def begin_run(self, phase, transitions_per_step):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.phase = ""
        self.run = 0
        self.finalized = 0
        self.per_step = 1
        self.children_started = 0
        self.pending_edges: list[str] = []  # edge types the last transition wrote
        self.storage: dict = {}
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "phase": self.phase,
            "run": self.run,
            "step": self.finalized // self.per_step,
            "fn_s": 0.0,
            "fn_calls": 0,
            **attrs,
        }
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self.stack.pop()

    def begin_run(self, phase, transitions_per_step):
        """Tag the spans of one model run; steps count from 0."""
        self.phase = phase
        self.run += 1
        self.finalized = 0
        self.per_step = transitions_per_step

    def transition(self, fn):
        """Wrap a transition function to time its calls."""
        spans, stack = self.spans, self.stack

        def traced(view, params, glob):
            t0 = perf_counter()
            ret = fn(view, params, glob)
            rec = spans[stack[-1]]
            rec["fn_s"] += perf_counter() - t0
            rec["fn_calls"] += 1
            return ret

        traced.__name__ = fn.__name__
        return traced

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def install(self):
        tracer = self

        def apply_transition(original):
            written = {}

            def wrapper(sim, fn, spec, **kwargs):
                with tracer.span("engine.apply_transition", transition=fn.__name__):
                    original(sim, fn, spec, **kwargs)
                if id(spec) not in written:
                    written[id(spec)] = [
                        name for name in spec.write_types
                        if isinstance(sim.schema.type_by_name(name), EdgeTypeInfo)
                    ]
                tracer.pending_edges = written[id(spec)]
            return wrapper

        def finalize_step(original):
            def wrapper(sim):
                with tracer.span("engine.finalize_step") as rec:
                    original(sim)
                rec["edges_written"] = {
                    name: sim.edge_container(name).n_stored()
                    for name in tracer.pending_edges
                }
                tracer.finalized += 1
            return wrapper

        def fork_payloads(original):
            def wrapper(*args, **kwargs):
                before = tracer.children_started
                with tracer.span("parallel.fork_payloads") as rec:
                    payloads = original(*args, **kwargs)
                rec["children"] = tracer.children_started - before
                rec["payload_bytes"] = sum(
                    len(ForkingPickler.dumps(p)) for p in payloads[1:]
                )
                return payloads
            return wrapper

        def process_start(original):
            def wrapper(proc):
                tracer.children_started += 1
                return original(proc)
            return wrapper

        self._patch(engine, "apply_transition", apply_transition)
        self._patch(engine, "finalize_step", finalize_step)
        self._patch(engine, "_run_shard", self._spanned("engine.run_shard"))
        self._patch(engine, "build_read_container", self._spanned("storage.build_read_container"))
        self._patch(engine, "validate_endpoints", self._spanned("storage.validate_endpoints"))
        self._patch(parallel, "fork_payloads", fork_payloads)
        self._patch(multiprocessing.context.ForkProcess, "start", process_start)
        self._patch(global_layer, "aggregate", self._spanned("global_layer.aggregate"))
        self._patch(Simulation, "add_agents", self._spanned("sim.add_agents"))
        self._patch(Simulation, "add_edges", self._spanned("sim.add_edges"))
        self._patch(Simulation, "commit_initial", self._spanned("sim.commit_initial"))
        self._patch(Simulation, "state_checksum", self._spanned("sim.state_checksum"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- storage sizes -------------------------------------------------------------

    def record_storage(self, sim):
        """Edges stored, bytes and index entries of every read container.

        Computed from the containers' numpy arrays (``nbytes``) and Python
        containers (``sys.getsizeof`` of the container, its entries and
        their items), not measured from the allocator.
        """
        stored = nbytes = entries = 0
        for info in sim.schema.edge_types:
            container = sim.edge_container(info.name)
            stored += container.n_stored()
            for attr in getattr(type(container), "__slots__", ()):
                if attr == "info":
                    continue
                value = getattr(container, attr, None)
                nbytes += _computed_bytes(value)
                if attr == "index" and value is not None:
                    entries += len(value)
        self.storage = {"edges_stored": stored, "edge_bytes": nbytes,
                        "index_entries": entries}

    # -- per-layer metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values: per build, per step, or per call, as README.md says."""
        spans = self.spans
        children: dict = {}
        for i, rec in enumerate(spans):
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(i)

        def dur(i):
            return spans[i]["end"] - spans[i]["start"]

        def subtree(i):
            todo, out = [i], []
            while todo:
                j = todo.pop()
                out.append(j)
                todo.extend(children.get(j, ()))
            return out

        m: dict = {}

        # set-up: median over builds of each layer's total inside the build
        setup = {"topology.build": [], "sim.add_agents": [], "sim.add_edges": [],
                 "sim.commit_initial": []}
        for i, rec in enumerate(spans):
            if rec["name"] != "setup":
                continue
            inside = subtree(i)
            for name, samples in setup.items():
                samples.append(sum(dur(j) for j in inside if spans[j]["name"] == name))
        for name, samples in setup.items():
            m[name + "_s"] = statistics.median(samples) if samples else 0.0

        # steps at one worker (phase "w1"), warm-up step 0 left out
        top = [i for i, rec in enumerate(spans)
               if rec["parent"] is None and rec["step"] >= 1]
        w1 = [i for i in top if spans[i]["phase"] == "w1"]
        w2 = [i for i in top if spans[i]["phase"] == "w2"]

        def count_steps(ids):
            return len({(spans[i]["run"], spans[i]["step"]) for i in ids
                        if spans[i]["name"] == "engine.finalize_step"}) or 1

        steps1, steps2 = count_steps(w1), count_steps(w2)

        apply_s = dict.fromkeys(TRANSITIONS, 0.0)
        fn_s = dict.fromkeys(TRANSITIONS, 0.0)
        dispatch = finalize = build_rc = validate = 0.0
        agents = 0
        written = dict.fromkeys(EDGE_TYPES, 0)
        for i in w1:
            rec = spans[i]
            if rec["name"] == "engine.finalize_step":
                finalize += dur(i)
                for name, count in rec["edges_written"].items():
                    if name in written:
                        written[name] += count
                continue
            if rec["name"] != "engine.apply_transition":
                continue
            inside = subtree(i)
            t = rec["transition"]
            fn = sum(spans[j]["fn_s"] for j in inside)
            storage = sum(dur(j) for j in inside
                          if spans[j]["name"].startswith("storage."))
            build_rc += sum(dur(j) for j in inside
                            if spans[j]["name"] == "storage.build_read_container")
            validate += sum(dur(j) for j in inside
                            if spans[j]["name"] == "storage.validate_endpoints")
            agents += sum(spans[j]["fn_calls"] for j in inside)
            if t in apply_s:
                apply_s[t] += dur(i)
                fn_s[t] += fn
            dispatch += dur(i) - fn - storage
        for t in TRANSITIONS:
            m[f"engine.apply_transition_s.{t}"] = apply_s[t] / steps1
            m[f"models.transition_s.{t}"] = fn_s[t] / steps1
        m["engine.finalize_step_s"] = finalize / steps1
        m["engine.dispatch_s"] = dispatch / steps1
        m["storage.build_read_container_s"] = build_rc / steps1
        m["storage.validate_endpoints_s"] = validate / steps1
        m["engine.agents_executed"] = agents / steps1
        for name in EDGE_TYPES:
            m[f"storage.edges_written.{name}"] = written[name] / steps1

        # steps at two workers: the fork executor
        fork = wait = 0.0
        payload = started = 0
        for i in w2:
            for j in subtree(i):
                rec = spans[j]
                if rec["name"] != "parallel.fork_payloads":
                    continue
                own = sum(dur(c) for c in children.get(j, ())
                          if spans[c]["name"] == "engine.run_shard")
                fork += dur(j)
                wait += dur(j) - own
                payload += rec["payload_bytes"]
                started += rec["children"]
        m["parallel.fork_payloads_s"] = fork / steps2
        m["parallel.wait_s"] = wait / steps2
        m["parallel.payload_bytes"] = payload / steps2
        m["parallel.children_started"] = started / steps2

        # per-step model metrics and the final checksum of one-worker runs
        agg = [dur(i) for i, rec in enumerate(spans)
               if rec["name"] == "global_layer.aggregate" and rec["phase"] == "w1"]
        all_steps1 = len({(rec["run"], rec["step"]) for rec in spans
                          if rec["phase"] == "w1" and rec["name"] == "engine.finalize_step"}) or 1
        m["global_layer.aggregate_s"] = sum(agg) / all_steps1
        sums = [dur(i) for i, rec in enumerate(spans)
                if rec["name"] == "sim.state_checksum" and rec["phase"] == "w1"]
        m["sim.state_checksum_s"] = statistics.median(sums) if sums else 0.0

        m.update({f"storage.{k}": v for k, v in self.storage.items()})
        return m


def _computed_bytes(value) -> int:
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _computed_bytes(k) + _computed_bytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return sys.getsizeof(value) + sum(_computed_bytes(v) for v in value)
    return sys.getsizeof(value)
