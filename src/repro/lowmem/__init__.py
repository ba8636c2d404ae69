"""O(1)-words-per-vertex execution (end of Section 3).

The paper argues the whole Corollary 3.6 pipeline runs with O(1) *words* of
local memory per vertex (a word = Theta(log n) bits), given the standard
assumption that each incoming message sits in a re-readable read-only buffer:

* the AG step streams neighbor colors one at a time, keeping only its own
  pair and a conflict flag;
* Linial's step iterates over candidate points ``x``, re-streaming the
  buffers per ``x`` and evaluating one neighbor polynomial at a time —
  a color's polynomial coefficients are just its base-``q`` digits, i.e. as
  many bits as the color itself;
* the standard reduction scans candidate colors ``0..Delta``, re-streaming
  the buffers per candidate, instead of materializing the Delta-sized
  forbidden set.

:class:`Workspace` is an explicit register file that meters the peak live
bits; the metered stages of :mod:`repro.lowmem.stages` run those steps
through one shared workspace, and :func:`delta_plus_one_coloring_low_memory`
runs them as the headline pipeline and reports the per-vertex peak in words.
"""

from repro.lowmem.workspace import Workspace, WorkspaceOverflowError
from repro.lowmem.stages import (
    MeteredAdditiveGroupColoring,
    MeteredLinialColoring,
    MeteredStandardColorReduction,
)
from repro.lowmem.runner import LowMemoryReport, delta_plus_one_coloring_low_memory

__all__ = [
    "Workspace",
    "WorkspaceOverflowError",
    "MeteredLinialColoring",
    "MeteredAdditiveGroupColoring",
    "MeteredStandardColorReduction",
    "LowMemoryReport",
    "delta_plus_one_coloring_low_memory",
]
