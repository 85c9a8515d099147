"""Virtual-time tracing: spans and instant events on one time axis.

Every deployment runs on virtual time — the engine scheduler's
``now_ns`` — so a trace is not a wall-clock profile but an exact,
seeded-deterministic record of *what the model did when*: per-request
spans (admit → queue → kernel → reply, one track per server engine),
instant events from fault injections, failure-detector transitions, and
ingest tail-drops, all stamped from the same clock.

The recorder is passive and dependency-free: producers call
:meth:`request` / :meth:`span` / :meth:`instant` (or hand out
:meth:`hook` callables to layers that must not import this package),
and nothing here touches the scheduler beyond reading the bound clock.

What is kept per served request is one row — a plain tuple on
:attr:`TraceRecorder.requests` holding its three timestamps, the wire
overhead and the routing detail.  The request/queue/kernel/reply span
family is a *view* of that row (:func:`family`), built when something
reads the trace (:meth:`find` or an exporter); the analyzer
(:mod:`repro.obs.analyze`) reads the rows themselves.  Export formats:

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


def decompose(row):
    """One :attr:`TraceRecorder.requests` row as ``(start, latency,
    queue, service, reply, kind, where)``: its phases in the whole
    nanoseconds its spans export (*reply* is ``None`` for a drop or a
    reply without wire overhead) and the engine that served it —
    ``("hop", <shard>)`` on a cluster shard, ``("kernel",
    "core<n>")`` on a multicore device, else ``("kernel", None)``."""
    _, _, arrival_ns, dispatch_ns, done_ns, overhead_ns, detail, dropped \
        = row
    kind, where = "kernel", None
    if detail and "shard" in detail:
        kind, where = "hop", "%s" % detail["shard"]
    elif detail and "core" in detail:
        where = "core%s" % detail["core"]
    return (int(arrival_ns), int(done_ns - arrival_ns + overhead_ns),
            int(dispatch_ns - arrival_ns), int(done_ns - dispatch_ns),
            None if dropped or overhead_ns <= 0 else int(overhead_ns),
            kind, where)


def family(row):
    """One row as its span family: ``request`` (arrival → done + the
    constant wire overhead, carrying the detail), ``queue`` (waiting),
    the service span (``hop:<shard>`` / ``kernel@core<n>`` /
    ``kernel``) and, when it has one, ``reply``."""
    order, track, _, dispatch_ns, done_ns, _, detail, dropped = row
    start, latency, queue, service, reply, kind, where = decompose(row)
    if where is not None:
        kind += (":" if kind == "hop" else "@") + where
    args = dict(detail or {})
    if dropped:
        args["dropped"] = True
    spans = [("request", "request", start, latency, args),
             ("queue", "queue", start, queue, {}),
             (kind, "request", int(dispatch_ns), service, {})]
    if reply is not None:
        spans.append(("reply", "request", int(done_ns), reply, {}))
    return [{"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "tid": int(track), "order": order + member, "args": args}
            for member, (name, cat, ts, dur, args) in enumerate(spans)]


class TraceRecorder:
    """Collects request rows, spans and instant events against a
    virtual-time clock."""

    def __init__(self, process="emu"):
        self.process = process
        #: Instants and ad-hoc :meth:`span` calls: dicts, ts/dur in ns.
        self.events = []
        #: One ``(order, track, arrival_ns, dispatch_ns, done_ns,
        #: overhead_ns, detail, dropped)`` tuple per served request.
        self.requests = []
        # A row's family takes four consecutive order numbers.
        self._order = itertools.count(step=4)
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
        """One served request on its server's *track*: waiting from
        *arrival_ns* to *dispatch_ns*, in service until *done_ns*, plus
        the constant wire *overhead_ns* of its reply.  *detail* is the
        routing detail (``seq``, ``shard`` / ``core``) and is kept, not
        copied.  Recorded as one row; :func:`family` is its spans."""
        if not arrival_ns <= dispatch_ns <= done_ns or overhead_ns < 0:
            raise ObsError("request on track %r has a negative phase"
                           % (track,))
        self.requests.append((next(self._order), track, arrival_ns,
                              dispatch_ns, done_ns, overhead_ns, detail,
                              dropped))

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
        handed to layers (cluster target, fault injector)
        that expose a generic ``event_hook`` and must not import the
        observability package."""
        def emit(label, args=None):
            self.instant(label, cat=cat, track=track, args=args)
        return emit

    # -- introspection -------------------------------------------------------

    def _counts(self):
        """``(spans, instants)`` as exported, without building them."""
        spans = sum(1 for event in self.events if event["ph"] == "X")
        replies = sum(1 for row in self.requests
                      if decompose(row)[4] is not None)
        return (spans + 3 * len(self.requests) + replies,
                len(self.events) - spans)

    def __len__(self):
        return sum(self._counts())

    def find(self, name_prefix="", cat=None):
        """Events whose name starts with *name_prefix* (and category
        matches, when given), in export order — test/assert surface."""
        return [event for event in self._ordered()
                if event["name"].startswith(name_prefix)
                and (cat is None or event["cat"] == cat)]

    def _ordered(self):
        events = list(self.events)
        for row in self.requests:
            events += family(row)
        events.sort(key=lambda event: (event["ts"], event["order"]))
        return events

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
        return "TraceRecorder(%d spans, %d instants)" % self._counts()
