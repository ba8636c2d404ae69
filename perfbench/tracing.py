"""Benchmark-side spans around the calls into each layer of ``repro``.

Nothing here edits the package: :class:`Tracer` replaces a handful of public
callables (generator, engine ``run`` methods, shard front door, selfstab
quiescence loop) with thin wrappers for the length of one benchmark process
and restores them afterwards.  A wrapper only records while ``tracer.on`` is
set, so untraced ops pay one attribute check per layer call.

Spans are plain dicts -- ``name``, ``start``, ``end``, ``parent`` (index of
the enclosing span or None) and ``op`` (the op id, None during set-up) --
kept in memory and written out once, when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

import contextlib
import functools
import inspect
import json
import statistics
import time

__all__ = ["GenerationCounter", "Tracer", "layer_metrics", "median"]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.on = False
        self.op_id = None
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record one span (a no-op while the tracer is off)."""
        if not self.on:
            yield None
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, annotate=None):
        """Route ``owner.attr`` through a span named ``name``.

        ``annotate(record, args, result)`` may add counts to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, result)
                return result

        # Restore the raw class attribute (a classmethod object, say), not
        # the bound method read above.
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else original))
        # A classmethod read off its class is already bound; keep it unbound.
        setattr(owner, attr, staticmethod(traced) if inspect.ismethod(original) else traced)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        from repro import graphgen
        from repro.oocore import engine as oocore_engine
        from repro.oocore import writers
        from repro.runtime import engine, fast_engine
        from repro.runtime.graph import DynamicGraph
        from repro.selfstab.adversary import FaultCampaign
        from repro.selfstab.engine import SelfStabEngine

        def stage_run(record, args, result):
            rows = result.metrics.rounds
            record.update(
                stage=args[1].name,
                rounds=result.rounds_used,
                changed=sum(row.changed_vertices for row in rows),
                n=args[0].graph.n,
            )

        def quiescence(record, args, result):
            record["rounds"] = result

        self.wrap(graphgen, "random_regular", "graphgen.random_regular")
        self.wrap(DynamicGraph, "from_static", "runtime.from_static")
        for cls in (engine.ColoringEngine, fast_engine.BatchColoringEngine, oocore_engine.OocoreColoringEngine):
            self.wrap(cls, "run", "engine.run", annotate=stage_run)
        self.wrap(writers, "ensure_sharded", "oocore.ensure_sharded")
        self.wrap(writers, "write_random_regular", "oocore.write")
        self.wrap(FaultCampaign, "corrupt_random_rams", "selfstab.corrupt")
        self.wrap(SelfStabEngine, "run_to_quiescence", "selfstab.run_to_quiescence", annotate=quiescence)

    def uninstall(self):
        """Put every wrapped callable back (latest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path, origin):
        """Write the spans as JSON, times in seconds since ``origin``."""
        rows = []
        for span in self.spans:
            row = dict(span)
            row["start"] -= origin
            row["end"] -= origin
            rows.append(row)
        with open(path, "w") as handle:
            json.dump(rows, handle)

    def self_time(self, index):
        """Duration of span ``index`` minus that of its direct children."""
        span = self.spans[index]
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)
        return span["end"] - span["start"] - children


class GenerationCounter:
    """Counts graph generations and shard writes, traced or not.

    The runner reads it around every timed op to assert that no input is
    built inside an op that is meant to find its input ready.
    """

    def __init__(self):
        self.count = 0
        self._restore = []

    def install(self):
        """Wrap the in-memory generator and the streaming shard writer."""
        from repro import graphgen
        from repro.oocore import writers

        for owner, attr in ((graphgen, "random_regular"), (writers, "write_random_regular")):
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._counting(original))

    def _counting(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        return counted

    def uninstall(self):
        """Restore the wrapped callables."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- per-layer metrics from the spans --------------------------------------------------

#: Span stage name -> metric prefix, for the three stages of Corollary 3.6.
STAGES = {
    "linial": "linial",
    "additive-group": "core.ag",
    "standard-reduction": "core.reduction",
}


def median(values):
    """Median of ``values``, or 0.0 when there are none (a layer never called)."""
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer metrics read from the spans (0 for a layer never called)."""
    spans = tracer.spans
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)

    def durations(name, where=lambda span: True):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, []) if where(spans[i])]

    ops = by_name.get("op", [])
    out = {
        "graphgen.build_s": median(durations("graphgen.random_regular")),
        "runtime.from_static_s": median(durations("runtime.from_static")),
        "runtime.self_s": median([tracer.self_time(i) for i in ops]),
    }

    # Stage busy time and rounds per op; the batch engine's scalar fallback
    # nests a second engine.run span, which is skipped here.
    per_op = {}
    active = {prefix: [0, 0] for prefix in STAGES.values()}
    for index in by_name.get("engine.run", []):
        span = spans[index]
        parent = span["parent"]
        if span["op"] is None or span.get("stage") not in STAGES:
            continue
        if parent is not None and spans[parent]["name"] == "engine.run":
            continue
        prefix = STAGES[span["stage"]]
        busy, rounds = per_op.setdefault((span["op"], prefix), [0.0, 0])
        per_op[(span["op"], prefix)] = [busy + span["end"] - span["start"], rounds + span["rounds"]]
        active[prefix][0] += span["changed"]
        active[prefix][1] += span["n"] * span["rounds"]
    for prefix in STAGES.values():
        rows = [value for (op, p), value in per_op.items() if p == prefix]
        changed, slots = active[prefix]
        out[prefix + ".busy_s"] = median([busy for busy, _ in rows])
        out[prefix + ".rounds"] = median([rounds for _, rounds in rows])
        out[prefix + ".active_frac"] = changed / slots if slots else 0.0

    def has_write(index):
        return any(s["parent"] == index and s["name"] == "oocore.write" for s in spans)

    shard_calls = by_name.get("oocore.ensure_sharded", [])
    out["oocore.write_s"] = median([spans[i]["end"] - spans[i]["start"] for i in shard_calls if has_write(i)])
    out["oocore.open_s"] = median([spans[i]["end"] - spans[i]["start"] for i in shard_calls if not has_write(i)])

    cold = [spans[i] for i in by_name.get("selfstab.run_to_quiescence", []) if spans[i]["op"] is None]
    out["selfstab.cold_s"] = median([s["end"] - s["start"] for s in cold])
    out["selfstab.cold_rounds"] = median([s["rounds"] for s in cold])
    recoveries = [spans[i] for i in by_name.get("selfstab.run_to_quiescence", []) if spans[i]["op"] is not None]
    out["selfstab.recover_rounds"] = median([s["rounds"] for s in recoveries])
    out["selfstab.round_ms"] = median([1000.0 * (s["end"] - s["start"]) / s["rounds"] for s in recoveries])
    return out
