"""The unified execution-backend registry.

One registry constructs every execution engine, keyed by *kind*:

* ``"engine"`` — synchronous round engines for locally-iterative stages
  (:class:`~repro.runtime.engine.ColoringEngine` /
  :class:`~repro.runtime.fast_engine.BatchColoringEngine`);
* ``"selfstab"`` — self-stabilization engines
  (:class:`~repro.selfstab.engine.SelfStabEngine` /
  :class:`~repro.selfstab.fast_engine.BatchSelfStabEngine`).

Every kind exposes these backend names:

* ``"auto"`` — the vectorized batch engine when NumPy is available (and,
  when the caller passes the relevant hint, when the workload supports the
  batch protocol); the pure-Python reference engine otherwise;
* ``"batch"`` — force the vectorized engine; raises :class:`RuntimeError`
  when NumPy is missing;
* ``"reference"`` — force the pure-Python reference engine.

The ``"engine"`` kind adds ``"oocore"``, the out-of-core engine over
memory-mapped CSR shards.

Usage::

    from repro.runtime.backends import resolve_backend

    engine = resolve_backend("engine", "auto")(graph, record_history=True)
    ss = resolve_backend("selfstab", "batch")(dynamic_graph, algorithm)

New execution backends (a GPU engine, a distributed shard, ...) plug in via
:func:`register_backend` without touching any dispatch site — the CLI and
the :mod:`repro.parallel` job runner both enumerate :func:`backend_names`
at runtime.
"""

__all__ = [
    "BACKEND_KINDS",
    "backend_names",
    "register_backend",
    "resolve_backend",
]

# (kind, backend-name) -> factory.  Factories share one calling convention
# per kind; see the builtin factories below.
_FACTORIES = {}


def register_backend(kind, name, factory):
    """Register ``factory`` as backend ``name`` of ``kind``.

    The factory must accept the kind's standard construction signature
    (``(graph, **engine_kwargs)`` for ``"engine"``, ``(graph, algorithm,
    **engine_kwargs)`` for ``"selfstab"``) and return a ready engine.
    Registering an existing ``(kind, name)`` pair overwrites it, which is
    how tests stub backends out.
    """
    _FACTORIES[(kind, name)] = factory


def backend_names(kind):
    """Sorted backend names registered for ``kind`` (``auto`` first)."""
    names = sorted(name for k, name in _FACTORIES if k == kind)
    if not names:
        raise ValueError(
            "unknown backend kind %r (choose from %s)"
            % (kind, ", ".join(sorted(BACKEND_KINDS)))
        )
    if "auto" in names:
        names.remove("auto")
        names.insert(0, "auto")
    return names


def resolve_backend(kind, backend="auto"):
    """Return the engine factory registered for ``(kind, backend)``.

    ``kind`` is ``"engine"`` or ``"selfstab"`` (plus anything registered at
    runtime); ``backend`` defaults to ``"auto"``.  Unknown kinds and unknown
    backend names both raise :class:`ValueError` listing the choices.
    """
    factory = _FACTORIES.get((kind, backend))
    if factory is None:
        names = backend_names(kind)  # raises for unknown kind
        raise ValueError(
            "unknown backend %r for kind %r (choose from %s)"
            % (backend, kind, ", ".join(names))
        )
    return factory


# -- builtin backends: the one-shot coloring engine ---------------------------------


def _numpy_missing_error():
    return RuntimeError(
        "backend='batch' needs NumPy; install it with `pip install repro[fast]`"
    )


def _engine_reference(graph, stages=None, **kwargs):
    """The pure-Python reference engine (``stages`` hint ignored)."""
    from repro.runtime.engine import ColoringEngine

    return ColoringEngine(graph, **kwargs)


def _engine_batch(graph, stages=None, **kwargs):
    """The vectorized batch engine; NumPy is mandatory here."""
    from repro.runtime.csr import numpy_available
    from repro.runtime.fast_engine import BatchColoringEngine

    if not numpy_available():
        raise _numpy_missing_error()
    return BatchColoringEngine(graph, **kwargs)


def _engine_auto(graph, stages=None, **kwargs):
    """Batch when NumPy is up and every hinted stage supports it, else
    reference.  The batch engine falls back to the scalar path per-stage, so
    the ``stages`` hint may be omitted."""
    from repro.runtime.csr import numpy_available
    from repro.runtime.fast_engine import BatchColoringEngine, batch_supported

    if numpy_available() and (
        stages is None or all(batch_supported(s) for s in stages)
    ):
        return BatchColoringEngine(graph, **kwargs)
    from repro.runtime.engine import ColoringEngine

    return ColoringEngine(graph, **kwargs)


def _engine_oocore(graph, stages=None, **kwargs):
    """The out-of-core engine over memory-mapped CSR shards.

    Accepts a :class:`~repro.oocore.store.ShardedCSRGraph` directly or any
    CSR-bearing graph (converted into scratch shards).  NumPy is mandatory:
    the out-of-core tier exists purely to scale the batch kernels past RAM
    and has no scalar fallback.
    """
    from repro.runtime.csr import numpy_available

    if not numpy_available():
        raise RuntimeError(
            "backend='oocore' needs NumPy; install it with "
            "`pip install repro[fast]`"
        )
    from repro.oocore.engine import OocoreColoringEngine

    return OocoreColoringEngine(graph, **kwargs)


# -- builtin backends: the self-stabilization engine --------------------------------


def _selfstab_reference(graph, algorithm, **kwargs):
    """The pure-Python reference self-stabilization engine."""
    from repro.selfstab.engine import SelfStabEngine

    return SelfStabEngine(graph, algorithm, **kwargs)


def _selfstab_batch(graph, algorithm, **kwargs):
    """The vectorized self-stabilization engine; NumPy is mandatory here.

    (The batch engine still falls back to the scalar step per-round for
    algorithms without the batch transition protocol.)
    """
    from repro.runtime.csr import numpy_available
    from repro.selfstab.fast_engine import BatchSelfStabEngine

    if not numpy_available():
        raise _numpy_missing_error()
    return BatchSelfStabEngine(graph, algorithm, **kwargs)


def _selfstab_auto(graph, algorithm, **kwargs):
    """Batch when NumPy is up and the algorithm has batch transitions."""
    from repro.runtime.csr import numpy_available
    from repro.selfstab.fast_engine import BatchSelfStabEngine, batch_supported

    if numpy_available() and batch_supported(algorithm):
        return BatchSelfStabEngine(graph, algorithm, **kwargs)
    from repro.selfstab.engine import SelfStabEngine

    return SelfStabEngine(graph, algorithm, **kwargs)


register_backend("engine", "auto", _engine_auto)
register_backend("engine", "batch", _engine_batch)
register_backend("engine", "oocore", _engine_oocore)
register_backend("engine", "reference", _engine_reference)
register_backend("selfstab", "auto", _selfstab_auto)
register_backend("selfstab", "batch", _selfstab_batch)
register_backend("selfstab", "reference", _selfstab_reference)

#: The kinds shipped by the package itself.
BACKEND_KINDS = ("engine", "selfstab")
