"""Fully-dynamic self-stabilizing algorithms (Section 4 and Theorem 7.5).

The model: every vertex has failure-proof ROM (its ID, the bounds ``n`` and
``Delta``, the program) and fault-prone RAM (everything else, e.g. its
color).  An adversary may, between any two rounds, overwrite any RAM
arbitrarily, crash vertices, spawn vertices, and rewire links — subject only
to the ROM bounds.  Once faults stop, the algorithms below re-converge to a
legal state within ``O(Delta + log* n)`` rounds:

* :class:`~repro.selfstab.coloring.SelfStabColoring` — proper
  ``O(Delta)``-coloring (Lemma 4.2): Mod-Linial interval descent into an AG
  core.
* :class:`~repro.selfstab.exact.SelfStabExactColoring` — proper
  ``(Delta+1)``-coloring (Theorems 4.3 / 7.5): the same descent into an
  extended AG(p)/AG(N) high/low hybrid core.  Both extend
  :class:`~repro.selfstab.descent.IntervalDescentColoring`, which holds the
  descent, and keep only their ``I_0`` core.
* :class:`~repro.selfstab.mis.SelfStabMIS` — maximal independent set
  (Theorems 4.5 / 4.6), layered over the coloring.
* :mod:`repro.selfstab.line` — maximal matching and ``(2*Delta-1)``-edge-
  coloring by running the above on a line-graph mirror (Theorem 4.7).

:mod:`repro.selfstab.engine` provides the synchronous engine with the fault
API, quiescence detection, and adjustment-radius measurement;
:mod:`repro.selfstab.fast_engine` the vectorized drop-in engine (construct
either through ``repro.runtime.backends.resolve_backend("selfstab", ...)``);
and :mod:`repro.selfstab.adversary` seeded fault campaigns.
"""

from repro.selfstab.engine import SelfStabAlgorithm, SelfStabEngine
from repro.selfstab.fast_engine import BatchSelfStabEngine, batch_supported
from repro.selfstab.plan import IntervalPlan
from repro.selfstab.coloring import SelfStabColoring
from repro.selfstab.exact import SelfStabExactColoring
from repro.selfstab.lowmem import SelfStabColoringConstantMemory
from repro.selfstab.mis import SelfStabMIS
from repro.selfstab.line import LineGraphMirror, SelfStabEdgeColoring, SelfStabMaximalMatching
from repro.selfstab.adversary import FaultCampaign

__all__ = [
    "SelfStabAlgorithm",
    "SelfStabEngine",
    "BatchSelfStabEngine",
    "batch_supported",
    "IntervalPlan",
    "SelfStabColoring",
    "SelfStabExactColoring",
    "SelfStabColoringConstantMemory",
    "SelfStabMIS",
    "LineGraphMirror",
    "SelfStabEdgeColoring",
    "SelfStabMaximalMatching",
    "FaultCampaign",
]
