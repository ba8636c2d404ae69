"""The versioned public API: everything this project supports, in one module.

``repro.api`` is the v1 contract surface.  Code written against the names
in this module's ``__all__`` keeps working across releases of the same
major version; every other module in the package is an internal layer that
may move without notice (``docs/api.md`` spells out the policy).  The
:mod:`repro` root re-exports this surface, so ``from repro import run`` and
``from repro.api import run`` are the same name.

The v1 surface is the *experiment contract* — specs in, results out:

* **describe** — :class:`JobSpec` (a run by value) and
  :func:`register_algorithm` / :func:`algorithm_names` to extend the
  algorithm registry, :func:`resolve_backend` / :func:`backend_names` for
  the execution engines of each backend;
* **execute** — :func:`run` / :func:`run_many` / :func:`run_sweep` /
  :class:`JobRunner` for in-process execution, :class:`ServiceClient`
  against a ``repro serve`` daemon;
* **inspect** — :class:`JobOutcome`, the structural :class:`Result`
  protocol, :func:`summarize`, and :data:`SCHEMA_VERSION` (the tolerant-
  reader stamp on every serialized spec, summary, and wire body).

Quickstart::

    from repro.api import JobSpec, run

    outcome = run(JobSpec(algorithm="cor36",
                          graph={"family": "regular", "n": 256, "degree": 8},
                          seed=1))
    assert outcome.ok and outcome.num_colors <= 8 + 1

or against a daemon::

    from repro.api import ServiceClient

    client = ServiceClient("unix:svc.sock")
    record = client.submit(JobSpec(algorithm="cor36",
                                   graph={"family": "regular", "n": 256,
                                          "degree": 8}).to_dict(),
                           wait=True)
"""

from repro.parallel.jobs import (
    JobOutcome,
    JobSpec,
    algorithm_names,
    register_algorithm,
)
from repro.parallel.runner import JobRunner, run, run_many, run_sweep
from repro.runtime.backends import backend_names, resolve_backend
from repro.runtime.results import (
    SCHEMA_VERSION,
    Result,
    SchemaVersionWarning,
    summarize,
)
from repro.service.client import ServiceClient, ServiceError

#: Major version of this API surface; bumps only with breaking changes.
API_VERSION = 1

__all__ = [
    "API_VERSION",
    "JobOutcome",
    "JobRunner",
    "JobSpec",
    "Result",
    "SCHEMA_VERSION",
    "SchemaVersionWarning",
    "ServiceClient",
    "ServiceError",
    "algorithm_names",
    "backend_names",
    "register_algorithm",
    "resolve_backend",
    "run",
    "run_many",
    "run_sweep",
    "summarize",
]
