"""Structured telemetry for the reproduction's execution layers.

The paper's claims are quantitative — round counts ``O(Delta + log* n)``,
CONGEST / Bit-Round message and bit budgets (Section 5), stabilization times
(Section 7) — so every engine in this repository can emit machine-readable
evidence per run: spans, counters, gauges, histograms and structured run
records.  Collection is opt-in and free when off: the default collector is a
no-op whose hot-path cost is one attribute check.

Typical use::

    from repro import obs
    from repro.obs.exporters import write_jsonl

    with obs.capture() as tel:
        delta_plus_one_coloring(graph)
    write_jsonl(tel, "run.jsonl")

or process-wide (as the CLI's ``--telemetry out.jsonl`` does)::

    tel = obs.configure()
    ...
    write_jsonl(tel, path)
    obs.disable()

See ``docs/observability.md`` for the event schema and the bench-regression
workflow built on top of these records.  :mod:`repro.obs.flight` adds the
flight-recorder layer on top: Chrome-trace timeline export.
"""

from repro.obs.core import (
    Histogram,
    NullTelemetry,
    Span,
    Telemetry,
    active,
    capture,
    configure,
    counter,
    disable,
    event,
    gauge,
    histogram,
    span,
)
from repro.obs.exporters import (
    JsonlWriter,
    comparable_view,
    prometheus_text,
    read_jsonl,
    summary_table,
    write_jsonl,
)
from repro.obs.flight import chrome_trace, write_chrome_trace
from repro.obs.routing import RoutedTelemetry, route

__all__ = [
    "Histogram",
    "JsonlWriter",
    "NullTelemetry",
    "RoutedTelemetry",
    "Span",
    "Telemetry",
    "active",
    "capture",
    "chrome_trace",
    "comparable_view",
    "configure",
    "counter",
    "disable",
    "event",
    "gauge",
    "histogram",
    "prometheus_text",
    "read_jsonl",
    "route",
    "span",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
]
