"""Post-run trace analytics: critical paths and tail attribution.

A :class:`~repro.obs.trace.TraceRecorder` holds one row per served
request (the span families in its exports are a view of the same
rows); this module turns the rows into the three answers an operator
(or the coming remediation planner) actually asks:

* **critical path** — where does a request's latency go?  Every traced
  request decomposes exactly into its phases (the admit-wait in the
  ingest ``queue``, the ``kernel`` / ``hop:<shard>`` service time, the
  constant-overhead ``reply``), because a row is three timestamps
  from one clock plus that overhead: ``queue + service + reply ==
  request`` — also for a payload the socket path refused before
  dispatch (it waited, it got no service).
* **tail attribution** — *why* is p99 worse than p50?  The completed
  population splits into the body (latency <= p50) and the tail
  (latency >= p99, plus every slower-than-median drop: a request that
  burned a shard timeout and never replied is the worst tail member
  there is); diffing their mean phase decompositions names the phase
  that grew, and ranking servers by contributed excess-over-p50 time
  names the shard or core it grew on.  In the chaos walkthrough this
  is the line that reads "the tail is the timeouts on shard1" — the
  evicted shard.
* **state flamegraph** — an aggregated per-FSM-state cycle view built
  from :class:`~repro.obs.profiler.KernelProfile`, rendered as
  proportional bars (Emu FSMs are flat, so one level is the whole
  flame).

Everything is derived from the recorder's deterministic row list, so
:meth:`TraceAnalysis.to_dict` is seeded-reproducible and CI can assert
on it; :meth:`TraceAnalysis.text` is the human report behind the CLI's
``--analyze`` flag and ``Deployment.analysis()``.
"""

from collections import namedtuple

from repro.errors import ObsError
from repro.harness.report import render_table
from repro.obs.metrics import interpolate_percentile
from repro.obs.trace import decompose

#: Phase keys of the per-request decomposition, in request order.
PHASES = ("queue", "service", "reply")

FLAME_WIDTH = 40


class RequestRecord(namedtuple("RequestRecord", (
        "seq", "track", "server", "start_ns", "latency_ns", "queue_ns",
        "service_ns", "reply_ns", "service_kind", "where", "dropped"))):
    """One traced request, decomposed into phases (all times ns).
    ``service_kind`` is ``kernel`` (device) or ``hop`` (cluster shard);
    ``where`` is the attribution bucket: the hop's shard, the kernel's
    core, or the server track name."""

    __slots__ = ()

    def phase_ns(self, phase):
        return getattr(self, phase + "_ns")

    def __repr__(self):
        return ("RequestRecord(seq=%r, %s, %d ns = %d queue + %d "
                "service + %d reply%s)"
                % (self.seq, self.where, self.latency_ns,
                   self.queue_ns, self.service_ns, self.reply_ns,
                   ", dropped" if self.dropped else ""))


def requests_from_trace(tracer):
    """One :class:`RequestRecord` per row of ``tracer.requests``, in
    completion order — the same :func:`~repro.obs.trace.decompose` the
    exported span family is built from."""
    records = []
    for row in tracer.requests:
        _, track, _, _, _, _, detail, dropped = row
        server = tracer.track_names.get(track, "track%d" % track)
        start, latency, queue, service, reply, kind, where = \
            decompose(row)
        records.append(RequestRecord(
            (detail or {}).get("seq"), track, server, start, latency,
            queue, service, reply or 0, kind,
            server if where is None else where, dropped))
    return records


class TraceAnalysis:
    """Critical-path + tail analytics over one run's trace."""

    def __init__(self, requests, profile=None):
        self.requests = list(requests)
        self.profile = profile
        #: Completed requests (the latency population; drops carry no
        #: reply and therefore no defined latency).
        self.completed = [record for record in self.requests
                          if not record.dropped]
        self._by_latency = sorted(self.completed,
                                  key=lambda record:
                                  (record.latency_ns, record.start_ns))

    # -- critical path -------------------------------------------------------

    def critical_path(self):
        """Mean per-phase decomposition over completed requests:
        ``{phase: {"total_ns", "mean_ns", "share"}}`` (shares sum to
        1.0 — the family covers the request span exactly)."""
        out = {}
        count = len(self.completed)
        grand_total = sum(record.latency_ns
                          for record in self.completed)
        for phase in PHASES:
            total = sum(record.phase_ns(phase)
                        for record in self.completed)
            out[phase] = {
                "total_ns": total,
                "mean_ns": total / count if count else 0.0,
                "share": total / grand_total if grand_total else 0.0,
            }
        return out

    # -- tail attribution ----------------------------------------------------

    def _percentile_ns(self, fraction):
        return interpolate_percentile(
            [record.latency_ns for record in self._by_latency],
            fraction)

    def tail(self, tail_fraction=0.99):
        """Diff the p50 body against the tail population and attribute
        the gap to a phase and a server.

        The body is every completed request at or below the median
        latency.  The tail is every completed request at or above the
        *tail_fraction* percentile (at least one) *plus* every dropped
        request slower than the median — a drop is the worst tail
        member there is (it burned its recorded time and never
        replied; a 50 us shard timeout is tail, not noise).  Servers
        are ranked by the tail time they contribute — the summed
        excess above p50 — so three timeouts on a dead shard outweigh
        a crowd of microsecond stragglers elsewhere; ties break
        lexicographically.  Returns ``None`` with fewer than two
        completed requests.
        """
        if len(self.completed) < 2:
            return None
        p50_ns = self._percentile_ns(0.50)
        tail_cut_ns = self._percentile_ns(tail_fraction)
        body = [record for record in self._by_latency
                if record.latency_ns <= p50_ns]
        tail = [record for record in self._by_latency
                if record.latency_ns >= tail_cut_ns] or \
            [self._by_latency[-1]]
        tail = tail + sorted(
            (record for record in self.requests
             if record.dropped and record.latency_ns > p50_ns),
            key=lambda record: (record.latency_ns, record.start_ns))

        def mean_phases(population):
            return {phase: sum(record.phase_ns(phase)
                               for record in population)
                    / len(population) for phase in PHASES}

        body_means = mean_phases(body)
        tail_means = mean_phases(tail)
        deltas = {phase: tail_means[phase] - body_means[phase]
                  for phase in PHASES}
        # The phase whose growth explains the most of the p50->tail
        # gap; ties break by PHASES order for determinism.
        attributed_phase = max(
            PHASES, key=lambda phase: (deltas[phase],
                                       -PHASES.index(phase)))
        by_server = {}
        for record in tail:
            entry = by_server.setdefault(
                record.where, {"count": 0, "excess_us": 0.0,
                               "dropped": 0})
            entry["count"] += 1
            entry["excess_us"] += (record.latency_ns - p50_ns) / 1000.0
            entry["dropped"] += 1 if record.dropped else 0
        for entry in by_server.values():
            entry["excess_us"] = round(entry["excess_us"], 3)
        attributed_server = max(
            sorted(by_server),
            key=lambda where: (by_server[where]["excess_us"],
                               by_server[where]["count"]))
        return {
            "p50_us": p50_ns / 1000.0,
            "tail_cut_us": tail_cut_ns / 1000.0,
            "tail_fraction": tail_fraction,
            "body_count": len(body),
            "tail_count": len(tail),
            "tail_dropped": sum(1 for record in tail
                                if record.dropped),
            "body_mean_us": {phase: body_means[phase] / 1000.0
                             for phase in PHASES},
            "tail_mean_us": {phase: tail_means[phase] / 1000.0
                             for phase in PHASES},
            "delta_us": {phase: deltas[phase] / 1000.0
                         for phase in PHASES},
            "attributed_phase": attributed_phase,
            "attributed_server": attributed_server,
            "tail_by_server": dict(sorted(by_server.items())),
        }

    # -- flamegraph ----------------------------------------------------------

    def flamegraph(self):
        """Aggregated FSM-state cycle shares from the kernel profile:
        ``[{"state", "label", "cycles", "share"}, ...]`` hottest
        first (``None`` without a profile)."""
        if self.profile is None:
            return None
        total = self.profile.total_cycles
        return [{"state": state.index, "label": state.label or "-",
                 "cycles": state.cycles,
                 "share": state.cycles / total if total else 0.0}
                for state in self.profile.hotspots()]

    def flamegraph_text(self):
        frames = self.flamegraph()
        if not frames:
            return "(no kernel profile; run with .with_profile())"
        lines = ["FSM-state flamegraph: %s at -O%s (%d cycles)"
                 % (self.profile.name, self.profile.opt_level,
                    self.profile.total_cycles)]
        for frame in frames:
            bar = "#" * max(1, round(frame["share"] * FLAME_WIDTH)) \
                if frame["cycles"] else ""
            lines.append("  #%-3d %-12s %6d cyc %5.1f%% |%-*s|"
                         % (frame["state"], frame["label"],
                            frame["cycles"], 100 * frame["share"],
                            FLAME_WIDTH, bar))
        return "\n".join(lines)

    # -- reports -------------------------------------------------------------

    def to_dict(self):
        """The machine-readable report (deterministic for a seeded
        run) — what the remediation planner consumes."""
        return {
            "requests": len(self.requests),
            "completed": len(self.completed),
            "dropped": sum(1 for record in self.requests
                           if record.dropped),
            "critical_path": self.critical_path(),
            "tail": self.tail(),
            "flamegraph": self.flamegraph(),
        }

    def text(self):
        """The aligned human report (CLI ``--analyze``)."""
        path = self.critical_path()
        rows = [[phase, "%.3f" % (path[phase]["mean_ns"] / 1000.0),
                 "%5.1f%%" % (100 * path[phase]["share"])]
                for phase in PHASES]
        out = [render_table(
            ["Phase", "Mean us", "Share"], rows,
            title="Critical path: %d completed request(s), %d "
                  "dropped" % (len(self.completed),
                               len(self.requests)
                               - len(self.completed)))]
        tail = self.tail()
        if tail is not None:
            tail_rows = [[phase,
                          "%.3f" % tail["body_mean_us"][phase],
                          "%.3f" % tail["tail_mean_us"][phase],
                          "%+.3f" % tail["delta_us"][phase]]
                         for phase in PHASES]
            out.append(render_table(
                ["Phase", "p50-body us", "tail us", "delta us"],
                tail_rows,
                title="Tail attribution: p50 %.3f us vs p%.0f %.3f "
                      "us -> %s on %s"
                      % (tail["p50_us"], 100 * tail["tail_fraction"],
                         tail["tail_cut_us"],
                         tail["attributed_phase"],
                         tail["attributed_server"])))
            share_rows = [[where, "%d" % entry["count"],
                           "%d" % entry["dropped"],
                           "%.3f" % entry["excess_us"]]
                          for where, entry
                          in tail["tail_by_server"].items()]
            out.append(render_table(
                ["Server", "Tail requests", "Dropped", "Excess us"],
                share_rows, title="Tail population by server"))
        if self.profile is not None:
            out.append(self.flamegraph_text())
        return "\n\n".join(out)

    def __repr__(self):
        return ("TraceAnalysis(%d requests, %d completed%s)"
                % (len(self.requests), len(self.completed),
                   ", profiled" if self.profile is not None else ""))


def analyze_trace(tracer, profile=None):
    """Build a :class:`TraceAnalysis` from a recorder (+ optional
    :class:`~repro.obs.profiler.KernelProfile`); raises when the trace
    carries no request spans to analyze."""
    records = requests_from_trace(tracer)
    if not records:
        raise ObsError(
            "trace has no request spans to analyze (record an "
            "open-loop run with .with_trace() first)")
    return TraceAnalysis(records, profile=profile)
