"""``repro.obs`` — observability for every backend, on virtual time.

Three instruments over one clock (the engine scheduler's ``now_ns``):

* :class:`~repro.obs.trace.TraceRecorder` — one row per served
  request (its span family is derived at export) and instant events
  (faults, detector transitions, tail-drops), exported as Chrome
  trace-event JSON (Perfetto-loadable) and TSV;
* :class:`~repro.obs.series.TimeSeries` — the windowed sampler that
  turns an open-loop run into qps/p99/queue-depth/drop time-series
  (window latencies are slices of the run report's list; every
  percentile is :func:`~repro.obs.metrics.interpolate_percentile`);
* :class:`~repro.obs.profiler.KernelProfile` — cycles per FSM state on
  the compiled engine, the hotspot table behind the optimizer's wins.

Two sibling judges sit on top of the instruments:

* :mod:`repro.obs.slo` — declarative :class:`~repro.obs.slo.SloSpec`
  objectives evaluated as a streaming process over the time-series
  windows, with multi-window burn-rate alerting, error-budget
  accounting, and the append-only deterministic
  :class:`~repro.obs.slo.AlertLog`;
* :mod:`repro.obs.analyze` — post-run trace analytics: per-request
  critical-path decomposition, p50-vs-p99 tail attribution (phase +
  server), and the FSM-state flamegraph.

This package is a leaf: it imports nothing above the error hierarchy
and the table renderer, so every layer (engine, targets, cluster,
deploy) can depend on it without cycles.  All instrumentation is
opt-in and zero-cost when disabled — the hot paths carry one ``is
None`` check, gated by ``benchmarks/test_obs_overhead.py``.
"""

from repro.obs.analyze import (RequestRecord, TraceAnalysis,
                               analyze_trace, requests_from_trace)
from repro.obs.metrics import interpolate_percentile
from repro.obs.profiler import KernelProfile, merge_profiles
from repro.obs.series import TimeSeries, Window
from repro.obs.slo import (AlertLog, BurnRule, Objective, SloMonitor,
                           SloSpec)
from repro.obs.trace import TraceRecorder

__all__ = [
    "interpolate_percentile", "KernelProfile", "merge_profiles",
    "TimeSeries", "Window", "TraceRecorder",
    "SloSpec", "SloMonitor", "AlertLog", "BurnRule", "Objective",
    "TraceAnalysis", "RequestRecord", "analyze_trace",
    "requests_from_trace",
]
