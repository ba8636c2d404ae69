"""The synchronous round engine.

One engine instance wraps one :class:`~repro.runtime.graph.StaticGraph` and
executes locally-iterative stages on it, round by round.  All vertices update
simultaneously: the new color of ``v`` is a function of the *current* colors
of its closed neighborhood only.

Visibility modes
----------------
LOCAL:
    ``step`` receives the tuple of neighbor colors (a multiset; order is the
    engine's adjacency order and carries no information an algorithm may use).
SET_LOCAL:
    ``step`` receives a frozenset of neighbor colors — identical messages from
    different neighbors are indistinguishable and multiplicities are lost.
    This is the weak LOCAL model of Hefetz et al. [33] discussed in
    Section 1.2.3; algorithms that run unchanged here inherit the model's
    strong lower bounds as context for their upper bounds.
"""

import enum
import time

from repro.errors import ImproperColoringError, PaletteOverflowError
from repro.obs import core as obs
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.metrics import MetricsLog, RoundMetrics
from repro.runtime.results import Result

__all__ = [
    "Visibility",
    "RunResult",
    "RoundState",
    "ScalarState",
    "ColoringEngine",
    "drive",
]


class Visibility(enum.Enum):
    """What a vertex sees of its neighborhood each round."""

    LOCAL = "local"
    SET_LOCAL = "set-local"


class RunResult:
    """Outcome of running one stage to completion.

    Attributes
    ----------
    colors:
        Final internal colors, indexed by vertex.
    int_colors:
        Final colors decoded to ``range(out_palette_size)``.
    rounds_used:
        Number of rounds actually executed (early stop counts the executed
        rounds only).
    metrics:
        :class:`~repro.runtime.metrics.MetricsLog` for the run.
    history:
        Per-round list of internal colorings (only if recording was enabled);
        ``history[0]`` is the encoded initial coloring.
    int_colors_array:
        ``int_colors`` as an int64 NumPy array when the run came off the
        batch or oocore tier, ``None`` otherwise.  Pipelines use it to keep
        the color vector an ndarray across stage boundaries.

    The batch and oocore tiers build their result with :meth:`from_columns`:
    ``int_colors`` and ``colors`` are then derived on first access, so a run
    that only hands its array on pays for no Python lists, and
    :attr:`final_state` reads the final columns themselves.
    """

    def __init__(self, colors, int_colors, rounds_used, metrics, history):
        self._colors = colors
        self._int_colors = int_colors
        self.rounds_used = rounds_used
        self.metrics = metrics
        self.history = history
        self.int_colors_array = None
        self._final = None
        self._num_colors = None

    @classmethod
    def from_columns(cls, stage, state, decoded, rounds_used, metrics, history=None):
        """A result over the final column ``state`` and its ``decoded`` array.

        ``state`` may be None (the oocore tier drops it at scale); ``colors``
        then raises and :attr:`int_colors_array` is the product.
        """
        result = cls(None, None, rounds_used, metrics, history)
        result.int_colors_array = decoded
        result._final = (stage, state)
        return result

    @property
    def final_state(self):
        """The final column state (a tuple of int64 arrays, one per internal
        color component) of a batch or oocore run; None for a reference run.
        Raises :class:`RuntimeError` where the oocore tier did not keep it."""
        if self._final is None:
            return None
        state = self._final[1]
        if state is None:
            raise RuntimeError(
                "this run did not keep its final state; "
                "use result.int_colors_array"
            )
        return state

    @property
    def colors(self):
        """Final internal colors, indexed by vertex (built on first access)."""
        if self._colors is None:
            from repro.runtime.fast_engine import scalar_colors

            self._colors = scalar_colors(self._final[0], self.final_state)
        return self._colors

    @property
    def int_colors(self):
        """Final decoded colors as plain ints (built on first access)."""
        if self._int_colors is None:
            self._int_colors = self.int_colors_array.tolist()
        return self._int_colors

    @property
    def num_colors(self):
        """Distinct decoded colors in the final coloring (memoized)."""
        if self._num_colors is None:
            if self.int_colors_array is not None:
                from repro.runtime.csr import numpy_or_none

                unique = numpy_or_none().unique(self.int_colors_array)
                self._num_colors = int(unique.shape[0])
            else:
                self._num_colors = len(set(self.int_colors))
        return self._num_colors

    @property
    def rounds(self):
        """Alias of :attr:`rounds_used` (the shared result protocol)."""
        return self.rounds_used

    def to_dict(self, detail=True):
        """JSON-serializable summary (history omitted; colors decoded).

        ``detail`` is forwarded to :meth:`MetricsLog.to_dict`: pass False to
        omit the per-round metric rows.
        """
        return {
            "colors": list(self.int_colors),
            "rounds_used": self.rounds_used,
            "num_colors": self.num_colors,
            "metrics": self.metrics.to_dict(detail=detail),
        }

    def __repr__(self):
        return "RunResult(rounds=%d, colors=%d)" % (self.rounds_used, self.num_colors)


Result.register(RunResult)


class RoundState:
    """One stage run's coloring as a tier holds it; :func:`drive` advances it.

    Each tier subclasses this with its own representation — a list of scalar
    colors (:class:`ScalarState`), int64 columns
    (:class:`~repro.runtime.fast_engine.ColumnState`) or sharded memmap
    planes (:class:`~repro.oocore.engine.ShardState`) — and :func:`drive`
    owns everything the tiers share.  A state lives for one run.
    """

    #: The ``backend`` tag of the run's span and telemetry record.
    backend = None

    def __init__(self, engine):
        self.graph = engine.graph
        self.visibility = engine.visibility

    def encode(self, stage, initial):
        """Encode ``initial`` (a sequence or an int64 array) into the
        configured ``stage``'s internal colors; return how many vertices
        hold a final color."""

    def advance(self, round_index):
        """Run one synchronous round; return ``(changed, finalized)`` counts."""

    def conflicts(self):
        """``(count, first)``: the edges whose endpoints hold equal internal
        colors, and the first of them in sorted order as ``(u, v, color of
        u)`` or None.  Serves the telemetry row and the properness check."""

    def snapshot(self):
        """The coloring as a list of scalar internal colors (history)."""

    def finish(self, palette_size, rounds_used, metrics, history):
        """``(result, overflow)``: the tier's :class:`RunResult`, and the first
        decoded ``(vertex, color)`` outside ``range(palette_size)`` or None."""

    def record(self, tel, stage):
        """Emit the tier's own telemetry counters (none by default)."""


class ScalarState(RoundState):
    """The reference tier: one scalar internal color per vertex, in a list."""

    backend = "reference"

    def encode(self, stage, initial):
        if hasattr(initial, "tolist"):
            # An ndarray handed over by a batch-aware pipeline; the scalar
            # path wants plain Python ints.
            initial = initial.tolist()
        self.stage = stage
        self.colors = [stage.encode_initial(c) for c in initial]
        return self._finalized()

    def advance(self, round_index):
        graph, colors, step = self.graph, self.colors, self.stage.step
        set_local = self.visibility is Visibility.SET_LOCAL
        new_colors = []
        for v in graph.vertices():
            view = tuple(colors[u] for u in graph.neighbors(v))
            new_colors.append(
                step(round_index, colors[v], frozenset(view) if set_local else view)
            )
        self.colors = new_colors
        changed = sum(1 for old, new in zip(colors, new_colors) if old != new)
        return changed, self._finalized()

    def _finalized(self):
        return sum(1 for c in self.colors if self.stage.is_final(c))

    def conflicts(self):
        colors = self.colors
        clashes = [(u, v) for u, v in self.graph.edges if colors[u] == colors[v]]
        if not clashes:
            return 0, None
        u, v = clashes[0]
        return len(clashes), (u, v, colors[u])

    def snapshot(self):
        return list(self.colors)

    def finish(self, palette_size, rounds_used, metrics, history):
        decoded = [self.stage.decode_final(c) for c in self.colors]
        bad = [(v, c) for v, c in enumerate(decoded) if not 0 <= c < palette_size]
        result = RunResult(self.colors, decoded, rounds_used, metrics, history)
        return result, (bad[0] if bad else None)


class ColoringEngine:
    """Runs locally-iterative stages on a fixed topology.

    Parameters
    ----------
    graph:
        The :class:`~repro.runtime.graph.StaticGraph` to run on.
    visibility:
        LOCAL (default) or SET_LOCAL, as the member or its value
        (``"local"`` / ``"set-local"``); anything else raises ValueError.
    check_proper_each_round:
        If True, verify after every round that stages claiming
        ``maintains_proper`` indeed kept the coloring proper, and raise
        :class:`~repro.errors.ImproperColoringError` otherwise.  This is the
        executable form of Lemmas 3.2 / 7.1 / 7.4.
    record_history:
        If True, keep the full per-round coloring history on the result.
    """

    def __init__(
        self,
        graph,
        visibility=Visibility.LOCAL,
        check_proper_each_round=False,
        record_history=False,
    ):
        self.graph = graph
        self.visibility = Visibility(visibility)
        self.check_proper_each_round = check_proper_each_round
        self.record_history = record_history

    def run(
        self,
        stage,
        initial_coloring,
        in_palette_size=None,
        max_rounds=None,
        configure=True,
    ):
        """Execute ``stage`` from the given integer initial coloring.

        Parameters
        ----------
        stage:
            A :class:`~repro.runtime.algorithm.LocallyIterativeColoring`.
        initial_coloring:
            Sequence of input colors (ints), indexed by vertex.
        in_palette_size:
            Size of the input palette; defaults to ``max(initial) + 1``.
        max_rounds:
            Cap on rounds; defaults to ``stage.rounds_bound``.
        configure:
            If True (default) the engine configures the stage with this
            graph's :class:`~repro.runtime.algorithm.NetworkInfo`.

        The stage stops early as soon as every vertex reports
        ``stage.is_final(color)``.
        """
        return drive(
            self, ScalarState(self), stage, initial_coloring, in_palette_size,
            max_rounds, configure,
        )


def drive(engine, state, stage, initial, in_palette_size, max_rounds, configure):
    """The round loop of every coloring engine tier.

    ``engine`` supplies ``graph``, ``check_proper_each_round`` and
    ``record_history``; ``state`` is a fresh :class:`RoundState` of the
    engine's tier.  The parameters and the result are those of
    :meth:`ColoringEngine.run`.  Everything the tiers share happens here,
    once: the input checks, ``configure``, the round bound, the all-final
    stop, the metrics and telemetry rows, the properness check, the uniform
    fixed-point exit, the palette check and the ``engine.run`` record.
    """
    graph = engine.graph
    tel = obs.active()
    # The span wraps the whole run (rounds, decode, telemetry record) so a
    # merged trace shows one engine.run bar per stage execution nested under
    # its pipeline.stage; free when telemetry is disabled.
    with tel.span(
        "engine.run", stage=getattr(stage, "name", "stage"), backend=state.backend
    ):
        if len(initial) != graph.n:
            raise ValueError("initial coloring must assign a color to every vertex")
        if in_palette_size is None:
            in_palette_size = 1
            if graph.n:
                top = initial.max() if hasattr(initial, "max") else max(initial)
                in_palette_size = int(top) + 1
        if configure:
            stage.configure(NetworkInfo(graph.n, graph.max_degree, in_palette_size))

        recording = tel.enabled
        run_start = time.perf_counter() if recording else 0.0
        finalized = state.encode(stage, initial)
        metrics = MetricsLog()
        history = [state.snapshot()] if engine.record_history else None
        round_rows = [] if recording else None
        checking = engine.check_proper_each_round and stage.maintains_proper
        if checking:
            _check_proper(state.conflicts()[1], -1)

        bound = stage.rounds_bound if max_rounds is None else max_rounds
        rounds_used = 0
        for round_index in range(bound):
            if finalized == graph.n:
                break
            round_start = time.perf_counter() if recording else 0.0
            changed, finalized = state.advance(round_index)
            messages = 2 * graph.m
            bits = messages * stage.message_bits(round_index)
            metrics.record(RoundMetrics(round_index, messages, bits, changed))
            rounds_used += 1
            if recording or checking:
                conflicts, first = state.conflicts()
                if checking:
                    _check_proper(first, round_index)
            if recording:
                round_rows.append(
                    {
                        "round": round_index,
                        "messages": messages,
                        "bits": bits,
                        "changed": changed,
                        "finalized": finalized,
                        "conflicts": conflicts,
                        "seconds": time.perf_counter() - round_start,
                    }
                )
            if engine.record_history:
                history.append(state.snapshot())
            if changed == 0 and (
                stage.uniform_step
                or (
                    stage.uniform_after is not None
                    and round_index >= stage.uniform_after
                )
            ):
                # Fixed point of a round-independent rule (or of a stage's
                # declared uniform tail): every later round would repeat
                # this no-op verbatim, so stop.
                break

        out = stage.out_palette_size
        result, overflow = state.finish(out, rounds_used, metrics, history)
        if overflow is not None:
            raise PaletteOverflowError(
                "vertex %d got color %r outside palette of size %d (stage %s)"
                % (overflow[0], overflow[1], out, stage.name)
            )
        if recording:
            wall_seconds = time.perf_counter() - run_start
            tel.event(
                "engine.run",
                stage=stage.name,
                backend=state.backend,
                n=graph.n,
                m=graph.m,
                delta=graph.max_degree,
                in_palette=in_palette_size,
                out_palette=out,
                rounds_used=rounds_used,
                total_messages=metrics.total_messages,
                total_bits=metrics.total_bits,
                rounds=round_rows,
                wall_seconds=wall_seconds,
            )
            tel.counter("engine.runs", stage=stage.name)
            tel.counter("engine.rounds", rounds_used, stage=stage.name)
            tel.histogram("engine.run_seconds", wall_seconds, stage=stage.name)
            state.record(tel, stage)
        return result


def _check_proper(first, round_index):
    """Raise for the first monochromatic edge of a stage that must stay proper."""
    if first is not None:
        u, v, color = first
        raise ImproperColoringError(round_index, (u, v), color)
