"""Round-by-round execution tracing.

``trace_run`` executes a locally-iterative stage with history recording and
distills each round into a :class:`RoundTrace`: how many vertices are
finalized, how many conflicts remain, how the palette is shrinking, which
vertices moved.  ``format_trace`` renders the whole run as a compact text
timeline — the fastest way to *see* the AG dynamics (conflict counts
collapse geometrically; the palette suddenly drops at the end, exactly the
"suddenly reduce to Delta+1 in the last few rounds" phenomenon the paper's
introduction describes).

Also exposed through the CLI: ``repro-coloring trace ...``.
"""

from repro.runtime.backends import resolve_backend

__all__ = [
    "RoundTrace",
    "TraceResult",
    "trace_run",
    "format_trace",
    "SelfStabRoundTrace",
    "trace_selfstab",
    "format_selfstab_trace",
    "trace_pipeline",
    "format_pipeline_trace",
]


class RoundTrace:
    """Summary of one round of a traced run."""

    __slots__ = (
        "round_index",
        "changed",
        "finalized",
        "conflicts",
        "distinct_colors",
    )

    def __init__(self, round_index, changed, finalized, conflicts, distinct_colors):
        self.round_index = round_index
        self.changed = changed
        self.finalized = finalized
        self.conflicts = conflicts
        self.distinct_colors = distinct_colors

    def __repr__(self):
        return (
            "RoundTrace(round=%d, changed=%d, finalized=%d, conflicts=%d, "
            "colors=%d)" % (
                self.round_index,
                self.changed,
                self.finalized,
                self.conflicts,
                self.distinct_colors,
            )
        )


class TraceResult:
    """A traced run: the RunResult plus per-round summaries."""

    def __init__(self, run, rounds):
        self.run = run
        self.rounds = rounds

    def __iter__(self):
        return iter(self.rounds)

    def __len__(self):
        return len(self.rounds)


def _second_coordinate_conflicts(graph, colors):
    """AG-style conflicts: same second coordinate across an edge.

    AG-family internal colors are tuples whose *last* coordinate is the one
    a proper coloring must separate (the AG pair ``(a1, a2)``, the tagged
    hybrid states alike); scalar colors are compared wholesale.
    """
    def key(color):
        if isinstance(color, tuple) and len(color) >= 2:
            return color[-1]
        return color

    return sum(1 for u, v in graph.edges if key(colors[u]) == key(colors[v]))


def trace_run(
    graph,
    stage,
    initial_coloring,
    in_palette_size=None,
    visibility=None,
    backend="auto",
):
    """Run ``stage`` with history and return a :class:`TraceResult`.

    ``backend`` selects the engine through
    :func:`repro.runtime.backends.resolve_backend`; because the batch engine
    records bit-for-bit identical histories, traces agree across backends
    (asserted in the test suite).
    """
    kwargs = {"record_history": True}
    if visibility is not None:
        kwargs["visibility"] = visibility
    engine = resolve_backend("engine", backend)(graph, **kwargs)
    run = engine.run(stage, initial_coloring, in_palette_size=in_palette_size)
    rounds = []
    for index, colors in enumerate(run.history):
        finalized = sum(1 for c in colors if stage.is_final(c))
        rounds.append(
            RoundTrace(
                round_index=index,
                changed=(
                    sum(
                        1
                        for v in graph.vertices()
                        if colors[v] != run.history[index - 1][v]
                    )
                    if index
                    else 0
                ),
                finalized=finalized,
                conflicts=_second_coordinate_conflicts(graph, colors),
                distinct_colors=len(set(colors)),
            )
        )
    return TraceResult(run, rounds)


def format_trace(trace, graph, title="trace"):
    """Render a traced run as a text timeline."""
    lines = ["%s (n=%d, m=%d, Delta=%d)" % (title, graph.n, graph.m, graph.max_degree)]
    lines.append(
        "%5s  %8s  %9s  %9s  %7s" % ("round", "changed", "finalized", "conflicts", "colors")
    )
    n = graph.n
    for entry in trace:
        bar = "#" * min(40, entry.conflicts)
        lines.append(
            "%5d  %8d  %6d/%-3d %9d  %7d  %s"
            % (
                entry.round_index,
                entry.changed,
                entry.finalized,
                n,
                entry.conflicts,
                entry.distinct_colors,
                bar,
            )
        )
    lines.append(
        "finished in %d rounds with %d colors"
        % (trace.run.rounds_used, trace.run.num_colors)
    )
    return "\n".join(lines)


class SelfStabRoundTrace:
    """Summary of one self-stabilizing round."""

    __slots__ = ("round_index", "changed", "legal", "level_histogram")

    def __init__(self, round_index, changed, legal, level_histogram):
        self.round_index = round_index
        self.changed = changed
        self.legal = legal
        self.level_histogram = level_histogram

    def __repr__(self):
        return "SelfStabRoundTrace(round=%d, changed=%d, legal=%s, levels=%r)" % (
            self.round_index,
            self.changed,
            self.legal,
            self.level_histogram,
        )


def _level_histogram(engine):
    """Interval occupancy, for algorithms exposing an IntervalPlan."""
    plan = getattr(engine.algorithm, "plan", None)
    if plan is None:
        return {}
    histogram = {}
    for v in engine.graph.vertices():
        ram = engine.rams.get(v)
        color = ram[0] if isinstance(ram, tuple) and len(ram) == 2 else ram
        level = plan.level_of(color) if hasattr(plan, "level_of") else None
        key = "I%d" % level if level is not None else "invalid"
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def trace_selfstab(engine, max_rounds=None):
    """Run a SelfStabEngine to quiescence, recording each round.

    Returns a list of :class:`SelfStabRoundTrace`: watch corrupted vertices
    fall to "invalid", reset into the top interval, and drain level by level
    into the core.
    """
    bound = max_rounds or engine.algorithm.stabilization_bound()
    records = [
        SelfStabRoundTrace(0, 0, engine.is_legal(), _level_histogram(engine))
    ]
    for index in range(1, bound + 2):
        changed = engine.step()
        records.append(
            SelfStabRoundTrace(
                index, len(changed), engine.is_legal(), _level_histogram(engine)
            )
        )
        if not changed and records[-1].legal:
            break
    return records


def format_selfstab_trace(records, title="self-stabilization trace"):
    """Render a self-stabilization trace as a text timeline."""
    lines = [title]
    lines.append("%5s  %8s  %6s  %s" % ("round", "changed", "legal", "interval occupancy"))
    for entry in records:
        occupancy = "  ".join(
            "%s:%d" % (k, v) for k, v in sorted(entry.level_histogram.items())
        )
        lines.append(
            "%5d  %8d  %6s  %s"
            % (entry.round_index, entry.changed, entry.legal, occupancy)
        )
    return "\n".join(lines)


def trace_pipeline(graph, stages, initial_coloring, in_palette_size=None, backend="auto"):
    """Trace a multi-stage pipeline; returns a list of (stage, TraceResult).

    Each stage is traced with full history, and its decoded output feeds the
    next stage — the multi-stage analogue of :func:`trace_run`.  ``backend``
    is forwarded to every stage's :func:`trace_run`.
    """
    colors = list(initial_coloring)
    palette = in_palette_size
    if palette is None:
        palette = (max(colors) + 1) if colors else 1
    traces = []
    for stage in stages:
        trace = trace_run(graph, stage, colors, in_palette_size=palette, backend=backend)
        traces.append((stage, trace))
        colors = trace.run.int_colors
        palette = stage.out_palette_size
    return traces


def format_pipeline_trace(traces, graph):
    """Render every stage's timeline back to back."""
    blocks = [
        format_trace(trace, graph, title="stage: %s" % stage.name)
        for stage, trace in traces
    ]
    return ("\n" + "-" * 60 + "\n").join(blocks)
