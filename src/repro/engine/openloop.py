"""Open-loop load generation on the unified scheduler.

The closed-loop harnesses replay one request at a time, so latency is
the closed-form per-request model and queues never form.  This module
drives a deployment *open loop*: arrivals come from a seeded stochastic
process (Poisson by default) regardless of completions, requests wait
in bounded ingest queues in front of the device model's servers, and
the latency distribution is therefore *queueing-derived* — p99 grows
with load, queues fill, and overload produces tail-drops, exactly the
behaviour the closed-loop replay cannot express.

The backend contract (see :class:`repro.deploy.backends.Backend`):

* ``open_loop_servers()`` → ``(count, route)`` — how many parallel
  service engines the backend has (cores, shards) and which one a
  frame occupies;
* ``open_loop_profile_batch(frames)`` → one ``(emitted, service_ns,
  overhead_ns)`` per frame — the functional outcome plus the split of
  the closed-form latency into *occupancy* (serialises on the server)
  and *constant overhead* (wire/PHY time that pipelines perfectly);
* ``burst_native`` (optional) — one server, arrival order, no fault
  surface; it may then execute ahead of their dequeue the requests
  waiting and the arrivals that cannot be refused: with *d* waiting,
  the next ``capacity - d`` find fewer than ``capacity`` queued;
* ``route`` and ``open_loop_trace_detail`` must not write the frame
  they are shown (the caller's: the backend executes copies);
* with a tracer, ``open_loop_server_names()`` (a track name each) and
  ``open_loop_trace_detail(frame)`` (a request's routing detail).

A run is plain events on one :class:`~repro.engine.sched.Scheduler`
heap — ``arrive`` (sample the depth, tail-drop or admit), ``start``
(execute the request at its dequeue) and ``finish`` (account the
completion, hand the server its next request) — next to the fault
plan's events and the time-series tick.  ``start`` is always its own
zero-delay event, which fixes the order inside one nanosecond: every
completion is accounted before any server's next request executes.

Determinism: one seeded ``random.Random`` drives the arrival process,
and the scheduler breaks timestamp ties by insertion order, so a run
is a pure function of (deployment seed, arrival spec, workload).
"""

import random
from collections import deque
from itertools import islice

from repro.errors import EngineError
from repro.engine.batch import LANES
from repro.engine.sched import Scheduler
from repro.obs.metrics import interpolate_percentile

ARRIVAL_PROCESSES = ("poisson", "uniform")
#: Fallback ingest depth for direct engine users.  The deploy layer
#: overrides it with the live NetFPGA ingress FIFO depth
#: (``repro.targets.pipeline.INPUT_QUEUE_DEPTH`` — the engine cannot
#: import the target layer, which sits above it).
DEFAULT_QUEUE_CAPACITY = 64


class ArrivalSpec:
    """An open-loop arrival process: shape, rate, and ingest capacity."""

    def __init__(self, process="poisson", qps=1_000_000.0,
                 capacity=DEFAULT_QUEUE_CAPACITY):
        if process not in ARRIVAL_PROCESSES:
            raise EngineError("unknown arrival process %r (have: %s)"
                              % (process, ", ".join(ARRIVAL_PROCESSES)))
        if qps <= 0:
            raise EngineError("arrival rate must be positive")
        if capacity is not None and capacity < 1:
            raise EngineError("queue capacity must be >= 1 (or None)")
        self.process = process
        self.qps = float(qps)
        self.capacity = capacity

    def times(self, duration_ns, rng):
        """Arrival timestamps (ns) within ``[0, duration_ns)``."""
        gap_ns = 1e9 / self.qps
        times = []
        now = 0.0
        while True:
            if self.process == "poisson":
                now += rng.expovariate(1.0) * gap_ns
            else:
                now += gap_ns
            if now >= duration_ns:
                return times
            times.append(int(now))

    def __repr__(self):
        return "ArrivalSpec(%s @ %.0f qps, capacity=%r)" % (
            self.process, self.qps, self.capacity)


class ServerStats:
    """Per-server queue observations, sampled at each arrival."""

    def __init__(self, index):
        self.index = index
        self.arrivals = 0
        self.depth_samples = 0
        self.max_depth = 0
        self.busy_ns = 0.0

    def sample(self, depth):
        self.arrivals += 1
        self.depth_samples += depth
        if depth > self.max_depth:
            self.max_depth = depth


class OpenLoopReport:
    """What an open-loop run observed — simulated arrivals
    (:func:`run_open_loop`) and served sockets
    (:class:`repro.serve.SocketServer`) account a completion through
    the same :meth:`complete`, into *tracer* too when the run has one."""

    def __init__(self, spec, duration_ns, num_servers, tracer=None):
        self.spec = spec
        self.tracer = tracer
        self.duration_ns = duration_ns
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.replies = 0
        self.queue_drops = 0         # ingest queue full on arrival
        self.service_drops = 0       # processed but produced no reply
        self.latencies_ns = []
        self.servers = [ServerStats(index) for index in range(num_servers)]
        self.finished_ns = 0
        self._sorted_latencies = None     # percentile cache

    def complete(self, index, arrival_ns, dispatch_ns, done_ns, busy_ns,
                 replies, overhead_ns=0, detail=None):
        """Account the request that waited for server *index* from
        *arrival_ns*, left its queue at *dispatch_ns* and was done at
        *done_ns* having occupied the server for *busy_ns*: *replies*
        answers (0 is a service drop, with no latency) that each spend
        a further constant *overhead_ns* on the wire.  *detail* is the
        trace row's routing detail."""
        self.servers[index].busy_ns += busy_ns
        self.completed += 1
        if done_ns > self.finished_ns:
            self.finished_ns = done_ns
        if replies:
            self.replies += replies
            self.latencies_ns.append(done_ns - arrival_ns + overhead_ns)
        else:
            self.service_drops += 1
        if self.tracer is not None:
            self.tracer.request(index, arrival_ns, dispatch_ns, done_ns,
                                overhead_ns, detail, dropped=not replies)

    # -- derived ------------------------------------------------------------

    @property
    def offered_qps(self):
        if not self.duration_ns:
            return 0.0
        return self.offered * 1e9 / self.duration_ns

    @property
    def achieved_qps(self):
        """Completions over the span they actually took."""
        span = max(self.duration_ns, self.finished_ns)
        if not span:
            return 0.0
        return self.completed * 1e9 / span

    @property
    def drop_rate(self):
        if not self.offered:
            return 0.0
        return self.queue_drops / self.offered

    def _percentile_ns(self, fraction):
        # Linear interpolation between neighbouring order statistics —
        # no nearest-rank snapping (see obs.metrics; the Histogram
        # instrument applies the same rule between bucket bounds).
        # The sort is cached: snapshot()/text() ask for four-plus
        # percentiles per report, and latencies_ns is append-only, so
        # a length check is a sufficient invalidation.
        cached = self._sorted_latencies
        if cached is None or len(cached) != len(self.latencies_ns):
            cached = sorted(self.latencies_ns)
            self._sorted_latencies = cached
        return interpolate_percentile(cached, fraction)

    def p50_latency_us(self):
        value = self._percentile_ns(0.50)
        return None if value is None else value / 1000.0

    def p99_latency_us(self):
        value = self._percentile_ns(0.99)
        return None if value is None else value / 1000.0

    def p999_latency_us(self):
        value = self._percentile_ns(0.999)
        return None if value is None else value / 1000.0

    def average_latency_us(self):
        if not self.latencies_ns:
            return None
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1000.0

    def max_queue_depth(self):
        return max((server.max_depth for server in self.servers),
                   default=0)

    def mean_queue_depth(self):
        """Arrival-weighted mean ingest depth across every server."""
        arrivals = sum(server.arrivals for server in self.servers)
        if not arrivals:
            return 0.0
        return sum(server.depth_samples
                   for server in self.servers) / arrivals

    def snapshot(self):
        """A dict with a consistent shape on every backend (the
        README's "Open-loop report shape" section documents it)."""
        return {
            "process": self.spec.process,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "replies": self.replies,
            "queue_drops": self.queue_drops,
            "service_drops": self.service_drops,
            "drop_rate": self.drop_rate,
            "p50_latency_us": self.p50_latency_us(),
            "p99_latency_us": self.p99_latency_us(),
            "p999_latency_us": self.p999_latency_us(),
            "avg_latency_us": self.average_latency_us(),
            "max_queue_depth": self.max_queue_depth(),
            "mean_queue_depth": self.mean_queue_depth(),
            "servers": len(self.servers),
        }

    def text(self):
        """An aligned table of the run (harness/CLI output)."""
        from repro.harness.report import render_table
        rows = []
        for key, value in self.snapshot().items():
            if isinstance(value, float):
                value = "%.3f" % value
            rows.append([key, "n/a" if value is None else str(value)])
        # Socket arrivals have no modelled rate (qps == 0): the offered
        # rate is whatever the external client sent, so omit it.
        rate = " at %.0f qps" % self.spec.qps if self.spec.qps else ""
        return render_table(
            ["Metric", "Value"], rows,
            title="Open loop: %s arrivals%s for %.3f ms"
                  % (self.spec.process, rate, self.duration_ns / 1e6))

    def __repr__(self):
        return ("OpenLoopReport(offered=%d, completed=%d, drops=%d, "
                "p99=%s us)" % (self.offered, self.completed,
                                self.queue_drops + self.service_drops,
                                ("%.3f" % self.p99_latency_us())
                                if self.latencies_ns else "n/a"))


def bind_tracer(tracer, clock, backend):
    """Stamp *tracer* from *clock* and name one track per server;
    returns the backend's per-request trace-detail hook."""
    tracer.bind_clock(clock)
    for index, name in enumerate(backend.open_loop_server_names()):
        tracer.name_track(index, name)
    return backend.open_loop_trace_detail


def run_open_loop(backend, spec, frames, duration_ns, seed=1,
                  tracer=None, series=None, injector=None, batch=LANES):
    """Drive *frames* at *spec*'s arrival process through *backend*.

    *frames* is a frame list or a factory ``count -> frames`` (the
    deployment passes its workload generator, so exactly one frame
    exists per drawn arrival).  Each arrival routes to its server's
    bounded ingest queue (tail-drop when full — a dropped request is
    never processed, like a frame the ingress FIFO rejected); each
    server drains its queue one request at a time, executing a request
    when it dequeues it and occupying itself for the request's
    ``service_ns``; the recorded latency is waiting time + service
    time + the backend's constant overhead.  Returns an
    :class:`OpenLoopReport`.

    On a backend that declares ``burst_native`` a server about to
    execute a request fills the same ``open_loop_profile_batch`` call,
    up to *batch* frames, with the requests waiting behind it and then
    with arrivals still to come, and keeps their outcomes for their
    own dequeues.  Invisible: with *d* waiting, each of the next
    ``capacity - d`` arrivals finds fewer than ``capacity`` queued
    whatever the service times turn out to be, so it is admitted and
    served in arrival order behind the *d* — and on one fault-free
    FIFO server outcomes depend on that order alone.  Every event stays
    at its nanosecond, as on the other backends, which execute each
    request at its dequeue whatever *batch* says.

    Observability (all optional, zero-cost when ``None``):

    * *tracer* — a :class:`~repro.obs.trace.TraceRecorder`; its clock
      is bound to this run's scheduler, every completion records one
      request row on the server's track (exported as the
      request/queue/kernel/reply span family), and tail-drops emit
      instant events.
    * *series* — a :class:`~repro.obs.series.TimeSeries`; a
      self-rescheduling tick flushes a window row every
      ``series.window_ns`` of virtual time (queue depths read live at
      each boundary, latencies from the report's own list).
    * *injector* — a :class:`~repro.netsim.faults.FaultInjector` with
      pending events; they are armed on this scheduler, so plan times
      are virtual nanoseconds on the same axis as the spans.
    """
    if batch < 1:
        raise EngineError("batch must be >= 1")
    scheduler = Scheduler()
    schedule = scheduler.schedule
    num_servers, route = backend.open_loop_servers()
    lookahead = 0
    if getattr(backend, "burst_native", False):
        if num_servers != 1:
            raise EngineError("a burst_native backend has one server; "
                              "%r reports %d" % (backend, num_servers))
        lookahead = batch - 1
    report = OpenLoopReport(spec, duration_ns, num_servers, tracer)
    capacity = spec.capacity
    # Per server: the (arrival_ns, frame, detail) items waiting for it,
    # whether it is occupied, and the outcomes of requests it executed
    # ahead of their dequeue (in the queue's own FIFO order).
    waiting = [deque() for _ in range(num_servers)]
    busy = [False] * num_servers
    ahead = [deque() for _ in range(num_servers)]

    detail_of = None
    if tracer is not None:
        detail_of = bind_tracer(tracer, lambda: scheduler.now_ns, backend)
    if injector is not None and injector.pending:
        if tracer is not None:
            injector.tracer = tracer
        injector.arm(scheduler)

    def arrive(frame):
        report.offered += 1
        index = route(frame)
        queue = waiting[index]
        depth = len(queue)
        report.servers[index].sample(depth)
        if capacity is not None and depth >= capacity:
            report.queue_drops += 1
            if tracer is not None:
                tracer.instant("tail-drop", track=index, cat="queue",
                               args={"seq": report.offered - 1,
                                     "depth": depth})
            return
        detail = None
        if tracer is not None:
            detail = dict(detail_of(frame), seq=report.offered - 1)
        report.admitted += 1
        item = (scheduler.now_ns, frame, detail)
        if busy[index]:
            queue.append(item)
        else:
            busy[index] = True
            schedule(0, lambda: start(index, item))

    def start(index, item):
        outcomes = ahead[index]
        if not outcomes:
            queue = waiting[index]
            burst = [item[1]]
            burst.extend(frame for _, frame, _ in islice(queue, lookahead))
            # frames[report.offered:] are still to arrive; the first
            # capacity - len(queue) of them cannot be refused.
            room = lookahead + 1 - len(burst)
            if capacity is not None:
                room = min(room, capacity - len(queue))
            burst.extend(frames[report.offered:report.offered + room])
            outcomes.extend(backend.open_loop_profile_batch(
                [frame.copy() for frame in burst]))
        outcome = outcomes.popleft()
        dispatch_ns = scheduler.now_ns
        service_ns = outcome[1]
        if service_ns > 0:
            schedule(service_ns,
                     lambda: finish(index, item, dispatch_ns, outcome))
        else:
            finish(index, item, dispatch_ns, outcome)

    def finish(index, item, dispatch_ns, outcome):
        arrival_ns, _, detail = item
        emitted, service_ns, overhead_ns = outcome
        report.complete(index, arrival_ns, dispatch_ns, scheduler.now_ns,
                        service_ns, len(emitted), overhead_ns, detail)
        # The next request leaves the queue now but executes in a
        # zero-delay event: every completion at this nanosecond is
        # accounted before any server's next request runs.
        queue = waiting[index]
        if queue:
            following = queue.popleft()
            schedule(0, lambda: start(index, following))
        else:
            busy[index] = False

    def depths():
        return [len(queue) for queue in waiting]

    rng = random.Random("%s/openloop/%s/%s" % (seed, spec.process,
                                               spec.qps))
    times = spec.times(duration_ns, rng)
    frames = list(frames(len(times))) if callable(frames) \
        else list(frames)
    if len(frames) < len(times):
        times = times[:len(frames)]
    del frames[len(times):]         # what never arrives is never run
    for when, frame in zip(times, frames):
        schedule(when, lambda f=frame: arrive(f))

    if series is not None:
        end_ns = int(duration_ns)

        def tick():
            series.flush(scheduler.now_ns, report, depths())
            if scheduler.now_ns < end_ns:
                schedule(series.window_ns, tick)

        if end_ns > 0:
            schedule(series.window_ns, tick)

    scheduler.run(max_events=max(1_000_000, 32 * len(times)))
    if series is not None:
        series.finish(max(scheduler.now_ns, report.finished_ns),
                      report, depths())
    return report
