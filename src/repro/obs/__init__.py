"""Observability: request-lifecycle tracing, telemetry, alerts, decomposition.

The cross-cutting layer the serving stack reports through:

* :mod:`repro.obs.trace` — a slotted, allocation-light :class:`Tracer`
  recording spans/instants on the integer-ps sim timeline, exportable as
  deterministic Chrome trace-event JSON (Perfetto-loadable), written on
  the serve path by the :class:`ServeTrace` observer;
* :mod:`repro.obs.decompose` — per-request stage attribution
  (queue/program/retune/service/blackout) and the empirical-CDF helper
  behind ``ResultSet.cdf``;
* :mod:`repro.obs.monitor` — streaming telemetry: tumbling/sliding
  window reads (goodput, shed rate, p99-over-window, queue slope)
  emitted as a picklable :class:`TelemetryStream` that merges
  deterministically across the fleet process pool;
* :mod:`repro.obs.alerts` — declarative :class:`AlertRule`\\ s
  (threshold / multi-window SLO burn-rate / EWMA z-score) evaluated
  on-stream by an :class:`AlertEngine` with a typed alert log, trace
  export and ground-truth scoring (:func:`score_alerts`);
* :mod:`repro.obs.experiments` — the ``latency_decomposition`` and
  ``alerting`` (detection-quality) cells and the ``python -m repro
  trace`` / ``alerts`` drivers.

:class:`TelemetryMonitor` and :class:`ServeTrace` observe the serve path's
one request-lifecycle funnel (``FabricScheduler.observe``); attached or
not, runs are bit-identical (pinned in ``tests/test_obs.py`` and
``tests/test_alerts.py``).  See ``docs/observability.md`` and
``docs/alerting.md``.
"""

from repro.obs.alerts import (AUTOSCALER_RULES, DEFAULT_RULES, AlertEngine,
                              AlertEvent, AlertRule, score_alerts)
from repro.obs.decompose import (ALL_TENANTS, STAGES, cdf_points,
                                 decompose_rows, request_stages)
from repro.obs.monitor import TelemetryMonitor, TelemetryStream
from repro.obs.trace import Instant, ServeTrace, Span, Tracer

__all__ = [
    "ALL_TENANTS",
    "AUTOSCALER_RULES",
    "DEFAULT_RULES",
    "STAGES",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Instant",
    "ServeTrace",
    "Span",
    "TelemetryMonitor",
    "TelemetryStream",
    "Tracer",
    "cdf_points",
    "decompose_rows",
    "request_stages",
    "score_alerts",
]
