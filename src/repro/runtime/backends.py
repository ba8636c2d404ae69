"""Which tier runs: one rule for every routine with a ``backend`` parameter.

The paper's algorithms run on up to three tiers that agree bit for bit:

* ``"reference"`` — the pure-Python scalar loops;
* ``"batch"`` — the NumPy kernels over an in-memory CSR;
* ``"oocore"`` — the same kernels over memory-mapped CSR shards
  (:class:`~repro.oocore.store.ShardedCSRGraph`).

:func:`choose_tier` maps a backend name and a graph to one of them; the
routine asking says only whether it has an oocore tier.  The rule, for a
routine that has one:

=============  ============  ===============================  ===============
backend        no NumPy      in-memory graph                  sharded graph
=============  ============  ===============================  ===============
``reference``  reference     reference                        reference
``auto``       reference     batch                            oocore
``batch``      RuntimeError  batch                            oocore
``oocore``     RuntimeError  oocore (sharded into scratch)    oocore
=============  ============  ===============================  ===============

A routine without an oocore tier raises :class:`TypeError` wherever the
table says oocore, and for a sharded graph under any backend.  An unknown
backend name raises :class:`ValueError` before the graph is looked at.  A
:class:`~repro.runtime.graph.DynamicGraph` raises :class:`TypeError` under
every backend: the static routines run on its ``snapshot()``, and only the
self-stabilizing engines take it.  These errors are raised here and nowhere
else.

Engines are built through :func:`resolve_backend` by *kind*: ``"engine"``
(:class:`~repro.runtime.engine.ColoringEngine`,
:class:`~repro.runtime.fast_engine.BatchColoringEngine` or
:class:`~repro.oocore.engine.OocoreColoringEngine`) and ``"selfstab"``
(:class:`~repro.selfstab.engine.SelfStabEngine` or
:class:`~repro.selfstab.fast_engine.BatchSelfStabEngine`; no oocore tier)::

    from repro.runtime.backends import resolve_backend

    engine = resolve_backend("engine", "auto")(graph, record_history=True)
    ss = resolve_backend("selfstab", "batch")(dynamic_graph, algorithm)

``selfstab`` under ``auto`` keeps the reference engine for an algorithm
without batch transitions.
"""

import functools
import sys

__all__ = [
    "backend_names",
    "choose_tier",
    "require_numpy",
    "resolve_backend",
]

#: Every backend name, ``auto`` first.
BACKENDS = ("auto", "batch", "oocore", "reference")


def require_numpy(backend="batch"):
    """The ``numpy`` module, or :class:`RuntimeError` when it is missing.

    ``REPRO_DISABLE_NUMPY=1`` counts as missing.  ``backend`` names the
    tier that needed it in the message.
    """
    from repro.runtime.csr import numpy_or_none

    np = numpy_or_none()
    if np is None:
        raise RuntimeError(
            "backend=%r needs NumPy; install it with `pip install repro[fast]` "
            "(or unset REPRO_DISABLE_NUMPY)" % backend
        )
    return np


def choose_tier(backend, graph, oocore=False):
    """The tier that runs ``graph`` under ``backend``: ``"reference"``,
    ``"batch"`` or ``"oocore"``.

    ``oocore`` says whether the asking routine has an out-of-core tier.  See
    the module docstring for the rule and its errors.
    """
    from repro.runtime.graph import DynamicGraph

    if backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (choose from %s)" % (backend, ", ".join(BACKENDS))
        )
    if isinstance(graph, DynamicGraph):
        raise TypeError(
            "this routine runs on a static graph: pass the DynamicGraph's "
            "snapshot() instead"
        )
    return _tier(backend, graph, oocore)


def _tier(backend, graph, oocore):
    """:func:`choose_tier` past its backend-name and graph-kind checks."""
    from repro.runtime.csr import numpy_available

    # A sharded graph exists only once its module is loaded; an in-memory
    # run never pays for importing the out-of-core package.
    store = sys.modules.get("repro.oocore.store")
    sharded = store is not None and isinstance(graph, store.ShardedCSRGraph)
    if not oocore and (sharded or backend == "oocore"):
        raise TypeError(
            "this routine has no out-of-core tier: run it on an in-memory "
            "graph with backend 'auto', 'batch' or 'reference'"
        )
    if backend == "reference" or (backend == "auto" and not numpy_available()):
        return "reference"
    require_numpy(backend)
    return "oocore" if sharded or backend == "oocore" else "batch"


def _coloring_engine(backend, graph, **kwargs):
    tier = choose_tier(backend, graph, oocore=True)
    if tier == "reference":
        from repro.runtime.engine import ColoringEngine

        return ColoringEngine(graph, **kwargs)
    if tier == "batch":
        from repro.runtime.fast_engine import BatchColoringEngine

        return BatchColoringEngine(graph, **kwargs)
    from repro.oocore.engine import OocoreColoringEngine

    return OocoreColoringEngine(graph, **kwargs)


def _selfstab_engine(backend, graph, algorithm, **kwargs):
    from repro.selfstab.engine import SelfStabEngine
    from repro.selfstab.fast_engine import BatchSelfStabEngine, batch_supported

    tier = _tier(backend, graph, oocore=False)
    if tier == "batch" and (backend == "batch" or batch_supported(algorithm)):
        return BatchSelfStabEngine(graph, algorithm, **kwargs)
    return SelfStabEngine(graph, algorithm, **kwargs)


# kind -> (engine builder, backend names)
_KINDS = {
    "engine": (_coloring_engine, BACKENDS),
    "selfstab": (_selfstab_engine, ("auto", "batch", "reference")),
}


def _kind(kind):
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            "unknown backend kind %r (choose from %s)" % (kind, ", ".join(_KINDS))
        )


def backend_names(kind):
    """The backend names of ``kind`` (``auto`` first, then sorted)."""
    return list(_kind(kind)[1])


def resolve_backend(kind, backend="auto"):
    """The engine factory of ``kind`` under ``backend``.

    ``"engine"`` factories take ``(graph, **engine_kwargs)``, ``"selfstab"``
    ones ``(graph, algorithm, **engine_kwargs)``; each builds the engine of
    the tier :func:`choose_tier` picks for the graph.  Unknown kinds and
    backend names raise :class:`ValueError` listing the choices.
    """
    build, names = _kind(kind)
    if backend not in names:
        raise ValueError(
            "unknown backend %r for kind %r (choose from %s)"
            % (backend, kind, ", ".join(names))
        )
    return functools.partial(build, backend)
