"""Virtual-time tracing: spans and instant events on one time axis.

Every deployment runs on virtual time — the engine scheduler's
``now_ns`` — so a trace is not a wall-clock profile but an exact,
seeded-deterministic record of *what the model did when*: per-request
spans (admit → queue → kernel → reply, one track per server engine),
instant events from fault injections, failure-detector transitions, and
ingest tail-drops, all stamped from the same clock.

The recorder is passive and dependency-free: producers call
:meth:`span` / :meth:`instant` (or hand out :meth:`hook` callables to
layers that must not import this package), and nothing here touches the
scheduler beyond reading the bound clock.  Export formats:

* :meth:`to_json` — Chrome trace-event JSON (the ``traceEvents`` array
  format).  Load it at https://ui.perfetto.dev or ``chrome://tracing``;
  spans nest by time containment per track, instants draw as markers.
* :meth:`to_tsv` — one event per line for grep/awk/pandas.

Determinism: events are exported sorted by (timestamp, record order)
with sorted JSON keys, so two runs with the same seed produce
byte-identical files — which is what lets CI diff traces at all.
"""

import itertools
import json

from repro.errors import ObsError

#: Trace-event categories used by the built-in instrumentation
#: (``alert`` marks SLO burn-rate transitions from
#: :mod:`repro.obs.slo`, mirrored onto the same timeline as the
#: fault instants that cause them).
CATEGORIES = ("request", "fault", "health", "queue", "cluster",
              "alert")


class TraceRecorder:
    """Collects spans + instant events against a virtual-time clock."""

    def __init__(self, process="emu"):
        self.process = process
        self.events = []            # internal dicts, ts/dur in ns
        self._order = itertools.count()
        self._clock = None
        self.track_names = {}       # tid -> human name

    # -- clock --------------------------------------------------------------

    def bind_clock(self, clock):
        """*clock* is a zero-arg callable returning virtual ns (the
        open-loop layer binds ``lambda: scheduler.now_ns``)."""
        self._clock = clock

    def now_ns(self):
        return self._clock() if self._clock is not None else 0

    # -- recording ----------------------------------------------------------

    def name_track(self, track, name):
        """Label one track (Chrome thread) — e.g. ``shard3``."""
        self.track_names[int(track)] = str(name)

    def span(self, name, start_ns, dur_ns, track=0, cat="request",
             args=None):
        """A complete span (Chrome ``X`` event) on *track*."""
        if dur_ns < 0:
            raise ObsError("span %r has negative duration" % (name,))
        self.events.append({
            "name": name, "cat": cat, "ph": "X",
            "ts": int(start_ns), "dur": int(dur_ns),
            "tid": int(track), "order": next(self._order),
            "args": dict(args) if args else {},
        })

    def request(self, track, arrival_ns, dispatch_ns, done_ns,
                overhead_ns=0, detail=None, dropped=False):
        """One served request's span family on its server's *track*:
        ``request`` (arrival → done + the constant wire *overhead_ns*),
        ``queue`` (waiting), the kernel span (``hop:<shard>`` /
        ``kernel@core<n>`` when *detail* names one) and, for a reply
        with wire overhead, ``reply``."""
        args = detail or {}
        kernel = "kernel"
        if "shard" in args:
            kernel = "hop:%s" % args["shard"]
        elif "core" in args:
            kernel = "kernel@core%s" % args["core"]
        if dropped:
            args = dict(args, dropped=True)
        self.span("request", arrival_ns,
                  done_ns - arrival_ns + overhead_ns, track=track,
                  args=args)
        self.span("queue", arrival_ns, dispatch_ns - arrival_ns,
                  track=track, cat="queue")
        self.span(kernel, dispatch_ns, done_ns - dispatch_ns, track=track)
        if not dropped and overhead_ns > 0:
            self.span("reply", done_ns, int(overhead_ns), track=track)

    def instant(self, name, ts_ns=None, track=0, cat="fault",
                args=None):
        """An instant event (Chrome ``i``, global scope) — fault
        firings, detector transitions, tail-drops."""
        self.events.append({
            "name": name, "cat": cat, "ph": "i",
            "ts": int(self.now_ns() if ts_ns is None else ts_ns),
            "tid": int(track), "order": next(self._order),
            "args": dict(args) if args else {},
        })

    def hook(self, cat="cluster", track=0):
        """A ``callable(label, args=None)`` emitting instant events —
        handed to layers (cluster target, balancer, fault injector)
        that expose a generic ``event_hook`` and must not import the
        observability package."""
        def emit(label, args=None):
            self.instant(label, cat=cat, track=track, args=args)
        return emit

    # -- introspection -------------------------------------------------------

    def __len__(self):
        return len(self.events)

    def find(self, name_prefix="", cat=None):
        """Events whose name starts with *name_prefix* (and category
        matches, when given), in export order — test/assert surface."""
        return [event for event in self._ordered()
                if event["name"].startswith(name_prefix)
                and (cat is None or event["cat"] == cat)]

    def _ordered(self):
        return sorted(self.events,
                      key=lambda event: (event["ts"], event["order"]))

    # -- export --------------------------------------------------------------

    def to_chrome(self):
        """The Chrome trace-event dict (``ts``/``dur`` in microseconds,
        as the format specifies)."""
        out = []
        for track in sorted(self.track_names):
            out.append({"name": "thread_name", "ph": "M", "ts": 0,
                        "pid": 1, "tid": track,
                        "args": {"name": self.track_names[track]}})
        for event in self._ordered():
            chrome = {
                "name": event["name"], "cat": event["cat"],
                "ph": event["ph"], "ts": event["ts"] / 1000.0,
                "pid": 1, "tid": event["tid"], "args": event["args"],
            }
            if event["ph"] == "X":
                chrome["dur"] = event["dur"] / 1000.0
            else:
                chrome["s"] = "g"
            out.append(chrome)
        return {"traceEvents": out,
                "displayTimeUnit": "ns",
                "otherData": {"process": self.process,
                              "clock": "virtual-ns"}}

    def to_json(self):
        """Deterministic Chrome trace JSON (sorted keys, fixed
        separators): same seed → byte-identical text."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write_json(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    def to_tsv(self):
        """``ts_ns  dur_ns  track  cat  kind  name  args`` per line."""
        lines = ["ts_ns\tdur_ns\ttrack\tcat\tkind\tname\targs"]
        for event in self._ordered():
            kind = "span" if event["ph"] == "X" else "instant"
            args = json.dumps(event["args"], sort_keys=True,
                              separators=(",", ":"))
            lines.append("%d\t%d\t%d\t%s\t%s\t%s\t%s" % (
                event["ts"], event.get("dur", 0), event["tid"],
                event["cat"], kind, event["name"], args))
        return "\n".join(lines) + "\n"

    def write_tsv(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_tsv())
        return path

    def __repr__(self):
        spans = sum(1 for event in self.events if event["ph"] == "X")
        return "TraceRecorder(%d spans, %d instants)" % (
            spans, len(self.events) - spans)
