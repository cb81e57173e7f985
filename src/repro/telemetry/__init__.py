"""End-to-end causal tracing and metrics for the VStore++ stack.

The telemetry plane has three pieces:

* :mod:`repro.telemetry.spans` — :class:`Telemetry` (attach to a
  simulator), :class:`Span`, :class:`SpanContext`: per-request causal
  span trees across client, XenSocket, overlay, kvstore, decision,
  service, and cloud layers.
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` with
  counters, gauges, and fixed-bucket histograms per (name, node).
* :mod:`repro.telemetry.export` — JSON span dumps, Chrome
  ``trace_event`` export (``chrome://tracing`` / Perfetto), flame-style
  latency attribution, and per-worker trace merging.

The *active* observability layer builds on those (see
docs/OBSERVABILITY.md, "Windows, SLOs, and the flight recorder"):

* :mod:`repro.telemetry.timeseries` — the one sliding-window
  instrument keyed by simulated time, :class:`WindowedHistogram`
  (latency quantiles plus an ok/total success ratio), rolled up per
  (name, node) in the registry.
* :mod:`repro.telemetry.slo` — declarative :class:`SloSpec` objectives
  (``latency`` or ``ratio``) judged by an :class:`SloEngine` with
  firing/resolved hysteresis, emitting typed :class:`AlertEvent`\\ s.
* :mod:`repro.telemetry.health` — per-node :class:`HealthScore` fusion
  on a :class:`HealthBoard`.
* :mod:`repro.telemetry.recorder` — bounded per-node
  :class:`FlightRecorder` rings dumped to schema-validated JSON
  artifacts on alerts and chaos failures.

Telemetry is off by default: layers guard every emit behind
``sim.telemetry is not None`` and add nothing to simulated behaviour
when disabled.  Enable per cluster with ``ClusterConfig(telemetry=True)``
or manually with ``Telemetry(sim).attach()``.
"""

from repro.telemetry.export import (
    attribution_report,
    chrome_trace,
    layer_attribution,
    merge_span_dumps,
    metrics_report,
    span_dump,
    spans_from_dump,
    validate_chrome_trace,
)
from repro.telemetry.health import HealthBoard, HealthScore
from repro.telemetry.memprobe import memory_probe
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import (
    RECORDER_SCHEMA,
    FlightRecorder,
    RecorderHub,
    validate_recorder_dump,
)
from repro.telemetry.slo import (
    AlertEvent,
    SloEngine,
    SloEvaluator,
    SloSpec,
    default_slo_specs,
)
from repro.telemetry.spans import Span, SpanContext, Telemetry
from repro.telemetry.timeseries import (
    WindowedHistogram,
    WindowPolicy,
    merge_window_histograms,
)

__all__ = [
    "Telemetry",
    "Span",
    "SpanContext",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "WindowPolicy",
    "WindowedHistogram",
    "merge_window_histograms",
    "SloSpec",
    "AlertEvent",
    "SloEngine",
    "SloEvaluator",
    "default_slo_specs",
    "HealthScore",
    "HealthBoard",
    "FlightRecorder",
    "RecorderHub",
    "RECORDER_SCHEMA",
    "validate_recorder_dump",
    "span_dump",
    "spans_from_dump",
    "merge_span_dumps",
    "chrome_trace",
    "validate_chrome_trace",
    "attribution_report",
    "layer_attribution",
    "metrics_report",
    "memory_probe",
]
