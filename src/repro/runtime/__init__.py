"""Synchronous message-passing substrate.

This package is the "distributed network" the paper's algorithms run on:

* :mod:`repro.runtime.graph` — immutable :class:`StaticGraph` topology views
  and the mutable :class:`DynamicGraph` used by the fully-dynamic
  self-stabilizing setting,
* :mod:`repro.runtime.engine` — the synchronous round engine for
  locally-iterative colorings, with LOCAL (multiset of neighbor colors) and
  SET-LOCAL (set of neighbor colors, no multiplicities, no sender identity)
  visibility modes,
* :mod:`repro.runtime.algorithm` — the locally-iterative algorithm interface,
* :mod:`repro.runtime.pipeline` — stage composition (e.g. Linial then AG then
  standard reduction, Corollary 3.6),
* :mod:`repro.runtime.metrics` — rounds / messages / bits accounting used for
  the CONGEST and Bit-Round claims,
* :mod:`repro.runtime.csr` / :mod:`repro.runtime.fast_engine` — the optional
  NumPy acceleration layer: CSR adjacency views and the vectorized
  :class:`BatchColoringEngine`,
* :mod:`repro.runtime.backends` — the one tier choice:
  :func:`~repro.runtime.backends.choose_tier` maps ``(backend, graph)`` to
  the reference, batch or oocore tier, and engines of every kind are
  constructed through ``resolve_backend(kind, backend)(graph, ...)``,
* :mod:`repro.runtime.results` — the shared result protocol (``colors``,
  ``rounds``, ``to_dict()``) every execution result satisfies, so the
  :mod:`repro.parallel` job runner and the CLI serialize results uniformly.

The engine structurally enforces the locally-iterative contract: a vertex's
``step`` receives only its own color and the collection of neighbor colors.
"""

from repro.runtime.graph import StaticGraph, DynamicGraph
from repro.runtime.algorithm import LocallyIterativeColoring, NetworkInfo
from repro.runtime.engine import ColoringEngine, RunResult, Visibility
from repro.runtime.fast_engine import BatchColoringEngine, batch_supported
from repro.runtime.pipeline import ColoringPipeline, PipelineResult
from repro.runtime.metrics import RoundMetrics, MetricsLog
from repro.runtime.backends import backend_names, choose_tier, resolve_backend
from repro.runtime.results import Result, is_result, summarize

__all__ = [
    "StaticGraph",
    "DynamicGraph",
    "LocallyIterativeColoring",
    "NetworkInfo",
    "ColoringEngine",
    "BatchColoringEngine",
    "batch_supported",
    "RunResult",
    "Visibility",
    "ColoringPipeline",
    "PipelineResult",
    "RoundMetrics",
    "MetricsLog",
    "backend_names",
    "choose_tier",
    "resolve_backend",
    "Result",
    "is_result",
    "summarize",
]
