"""Run Corollary 3.6 through the metered stages, on the shared round loop.

:func:`delta_plus_one_coloring_low_memory` is the headline recipe with its
three stages swapped for their metered forms from
:mod:`repro.lowmem.stages`: the same initial id coloring, the same schedule
(each stage's own ``configure``) and the reference engine's round loop.  The
report is the pipeline result plus the peak per-vertex memory in bits and in
Theta(log n)-bit words — the executable form of the paper's "O(1) words of
local memory" claim.
"""

from repro.lowmem.stages import (
    MeteredAdditiveGroupColoring,
    MeteredLinialColoring,
    MeteredStandardColorReduction,
)
from repro.lowmem.workspace import Workspace, bits_for_range
from repro.recipes import _initial_id_coloring
from repro.runtime.pipeline import ColoringPipeline, PipelineResult

__all__ = ["LowMemoryReport", "delta_plus_one_coloring_low_memory"]


class LowMemoryReport(PipelineResult):
    """A pipeline result plus the workspace peak of the run."""

    def __init__(self, colors, stage_results, peak_bits, word_bits):
        super().__init__(colors, stage_results)
        self.peak_bits = peak_bits
        self.word_bits = word_bits

    @property
    def peak_words(self):
        """Peak workspace usage in Theta(log n)-bit words."""
        return -(-self.peak_bits // max(1, self.word_bits))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "rounds": self.rounds,
            "peak_bits": self.peak_bits,
            "word_bits": self.word_bits,
            "peak_words": self.peak_words,
        }

    def __repr__(self):
        return "LowMemoryReport(rounds=%d, peak=%d bits = %d words of %d bits)" % (
            self.rounds,
            self.peak_bits,
            self.peak_words,
            self.word_bits,
        )


def delta_plus_one_coloring_low_memory(graph, bit_limit=None):
    """Corollary 3.6 with metered O(1)-word per-vertex memory.

    Returns a :class:`LowMemoryReport`; ``bit_limit`` optionally *enforces*
    a hard workspace budget (a too-small budget raises
    :class:`~repro.lowmem.workspace.WorkspaceOverflowError`, proving the
    meter is live).
    """
    workspace = Workspace(bit_limit=bit_limit)
    pipeline = ColoringPipeline(
        [
            MeteredLinialColoring(workspace),
            MeteredAdditiveGroupColoring(workspace),
            MeteredStandardColorReduction(workspace),
        ]
    )
    result = pipeline.run(graph, _initial_id_coloring(graph), backend="reference")
    return LowMemoryReport(
        result.colors,
        result.stage_results,
        workspace.peak_bits,
        bits_for_range(max(2, graph.n)),
    )
