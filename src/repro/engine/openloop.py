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
  frame occupies (``None``: none owns it — it waits on server 0 and
  is a service drop at its dequeue, executed nowhere);
* ``open_loop_independent()`` — whether, as things stand, each
  server's outcomes depend on its own admitted sequence alone;
* ``open_loop_profile_batch(frames[, server])`` → one ``(emitted,
  service_ns, overhead_ns)`` per frame — the functional outcome plus
  the split of the closed-form latency into *occupancy* (serialises
  on the server) and *constant overhead* (wire/PHY time that
  pipelines perfectly); *server*, when given, is the index every
  frame was routed to, and without it the backend routes them;
* ``route`` and ``open_loop_trace_detail`` must not write the frame
  they are shown (the caller's: the backend executes copies);
* with a tracer, ``open_loop_server_names()`` (a track name each) and
  ``open_loop_trace_detail(frame)`` (a request's routing detail).

One runtime serves simulated and served time alike: :func:`runtime`
is the only admission path (``arrive``: sample the depth, tail-drop
or admit into the server's queue), parameterised by a clock and an
executor.  A simulated run (:func:`run_open_loop`) is plain events on
one :class:`~repro.engine.sched.Scheduler` heap next to the fault
plan's and the time-series tick: ``arrive``, ``start`` (execute the
request at its dequeue, or ahead of it when routing is fixed) and
``finish`` (account the completion, hand the server its next
request).  ``start`` is always its own zero-delay event: every
completion at one nanosecond is accounted before any server's next
request executes.  A served run (:class:`repro.serve.SocketServer`)
stamps from the wall clock and executes at dequeue in :func:`drain`
ticks.

Determinism: one seeded ``random.Random`` drives the arrival process,
and the scheduler breaks timestamp ties by insertion order, so a run
is a pure function of (deployment seed, arrival spec, workload).
"""

import random
from collections import deque
from itertools import islice, repeat
from operator import itemgetter

from repro.errors import EngineError, ReproError
from repro.engine.batch import LANES
from repro.engine.sched import Scheduler
from repro.obs.metrics import interpolate_percentile

ARRIVAL_PROCESSES = ("poisson", "uniform")
#: Fallback ingest depth for direct engine users.  The deploy layer
#: overrides it with the live NetFPGA ingress FIFO depth
#: (``repro.targets.pipeline.INPUT_QUEUE_DEPTH`` — the engine cannot
#: import the target layer, which sits above it).
DEFAULT_QUEUE_CAPACITY = 64
#: The outcome of a request no server owns: no reply, no occupancy.
_UNROUTABLE = ([], 0.0, 0.0)


def check_capacity(capacity):
    """A queue *capacity* (``None``: unbounded), refused below 1."""
    if capacity is not None and capacity < 1:
        raise EngineError("queue capacity must be >= 1 (or None)")
    return capacity


class ArrivalSpec:
    """An open-loop arrival process: shape, rate, and ingest capacity."""

    def __init__(self, process="poisson", qps=1_000_000.0,
                 capacity=DEFAULT_QUEUE_CAPACITY):
        if process not in ARRIVAL_PROCESSES:
            raise EngineError("unknown arrival process %r (have: %s)"
                              % (process, ", ".join(ARRIVAL_PROCESSES)))
        if qps <= 0:
            raise EngineError("arrival rate must be positive")
        self.process = process
        self.qps = float(qps)
        self.capacity = check_capacity(capacity)

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
    (:class:`repro.serve.SocketServer`, whose report has no *spec*: a
    socket delivers its arrivals, at no modelled rate) account a
    completion through the same :meth:`complete`, into *tracer* too
    when the run has one."""

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
        # no nearest-rank snapping (obs.metrics.interpolate_percentile,
        # the rule every latency reader shares).
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
            "process": "socket" if self.spec is None else self.spec.process,
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
        snapshot = self.snapshot()
        for key, value in snapshot.items():
            if isinstance(value, float):
                value = "%.3f" % value
            rows.append([key, "n/a" if value is None else str(value)])
        # Socket arrivals have no modelled rate: the offered rate is
        # whatever the external client sent, so omit it.
        rate = "" if self.spec is None else " at %.0f qps" % self.spec.qps
        return render_table(
            ["Metric", "Value"], rows,
            title="Open loop: %s arrivals%s for %.3f ms"
                  % (snapshot["process"], rate, self.duration_ns / 1e6))

    def __repr__(self):
        return ("OpenLoopReport(offered=%d, completed=%d, drops=%d, "
                "p99=%s us)" % (self.offered, self.completed,
                                self.queue_drops + self.service_drops,
                                ("%.3f" % self.p99_latency_us())
                                if self.latencies_ns else "n/a"))


def runtime(report, capacity, clock, wake, backend):
    """The one way a request enters an open loop, simulated
    (:func:`run_open_loop`) or served
    (:class:`repro.serve.SocketServer`).

    Returns ``(arrive, waiting, busy)``: a queue and a busy flag per
    server of *report*, and ``arrive(frame, index, extra=None)`` for a
    frame *backend*'s route sent to server *index* (``None``: no
    server owns it; it waits on server 0 and runs nowhere).  It
    samples that queue's depth and tail-drops at *capacity*, or admits
    ``(arrival_ns, job, detail, extra)`` (*job*: the frame, ``None``
    when unowned; *detail*: its trace row's routing detail) behind the
    queue when the server is busy, else to the executor's
    ``wake(index, item)``.  *clock* has ``now_ns``: the run's
    scheduler, or a server's wall clock; a tracer on *report* is
    stamped from it, with one track per server.
    """
    tracer = report.tracer
    if tracer is not None:
        tracer.bind_clock(lambda: clock.now_ns)
        for index, name in enumerate(backend.open_loop_server_names()):
            tracer.name_track(index, name)
        detail_of = backend.open_loop_trace_detail
    waiting = [deque() for _ in report.servers]
    busy = [False] * len(waiting)
    servers = report.servers

    def arrive(frame, index, extra=None):
        report.offered += 1
        job = frame
        if index is None:           # waits on server 0, runs nowhere
            index, job = 0, None
        queue = waiting[index]
        depth = len(queue)
        servers[index].sample(depth)
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
        item = (clock.now_ns, job, detail, extra)
        if busy[index]:
            queue.append(item)
        else:
            busy[index] = True
            wake(index, item)

    return arrive, waiting, busy


def drain(waiting, batch, clock, execute, fault):
    """The executor of a run whose arrivals are not known ahead (a
    served one, which refuses a frame no server owns before it is
    queued): every request in *waiting* runs at its dequeue, at most
    *batch* per ``execute(index, frames)``, which returns one outcome
    per frame.  A group that raises runs again frame by frame: a frame
    that raises a :class:`~repro.errors.ReproError` on its own gets
    ``None``, one that raises anything else gets ``fault()`` (called
    in its ``except``), and nothing propagates, so one bad request
    costs no other.  Returns ``(item, outcome, (index, dispatch_ns,
    done_ns, busy_ns))`` per request, server by server: a group's
    requests share one stamp, its *clock* time split equally among
    them."""
    done = []
    for index, queue in enumerate(waiting):
        items = list(queue)
        queue.clear()
        for base in range(0, len(items), batch):
            group = items[base:base + batch]
            frames = list(map(itemgetter(1), group))
            dispatch_ns = clock.now_ns
            try:
                outcomes = execute(index, frames)
            except Exception:
                outcomes = []
                for frame in frames:
                    try:
                        outcomes.extend(execute(index, [frame]))
                    except ReproError:
                        outcomes.append(None)
                    except Exception:
                        outcomes.append(fault())
            done_ns = clock.now_ns
            done.extend(zip(group, outcomes, repeat((
                index, dispatch_ns, done_ns,
                (done_ns - dispatch_ns) / len(group)))))
    return done


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

    Routing is fixed for the run when no fault event is pending and
    the backend reports its servers independent; each frame is then
    routed once, before the first arrival, and a server about to
    execute a request fills the same ``open_loop_profile_batch`` call
    (with its index, when there are several), up to *batch* frames,
    with the requests waiting behind it and then with arrivals still
    to come that are routed to it, and keeps their outcomes for their
    own dequeues.  Invisible: with *d* waiting, each of that queue's
    next ``capacity - d`` arrivals finds fewer than ``capacity``
    queued whatever the service times turn out to be, so it is
    admitted and served in arrival order behind the *d* — and an
    independent FIFO server's outcomes depend on that order alone.
    Every event stays at its nanosecond, as on every other run, which
    routes each arrival as it comes and executes each request at its
    dequeue whatever *batch* says.

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
    report = OpenLoopReport(spec, duration_ns, num_servers, tracer)
    capacity = spec.capacity
    # Per server: the requests waiting for it, whether it is occupied,
    # and the outcomes of requests it executed ahead of their dequeue
    # (in the queue's own FIFO order).
    arrive, waiting, busy = runtime(
        report, capacity, scheduler,
        lambda index, item: schedule(0, lambda: start(index, item)),
        backend)
    ahead = [deque() for _ in range(num_servers)]

    faulty = injector is not None and injector.pending
    if faulty:
        if tracer is not None:
            injector.tracer = tracer
        injector.arm(scheduler)
    # Routing is fixed when nothing can move a key or couple two
    # servers mid-run; each frame is then routed once, up front.
    fixed = not faulty and backend.open_loop_independent()
    lookahead = batch - 1 if fixed else 0
    # A burst carries its server's index where that says something: the
    # routing is fixed and there is more than one server.
    profile = backend.open_loop_profile_batch
    if not fixed or num_servers == 1:
        profile = lambda frames, _: backend.open_loop_profile_batch(frames)

    def start(index, item):
        outcomes = ahead[index]
        if not outcomes:
            queue = waiting[index]
            burst = [item[1]]
            burst.extend(frame for _, frame, _, _
                         in islice(queue, lookahead))
            # The server's arrivals from seen on are still to come; the
            # first capacity - len(queue) of them cannot be refused.
            room = lookahead + 1 - len(burst)
            if capacity is not None:
                room = min(room, capacity - len(queue))
            if room > 0:
                seen = report.servers[index].arrivals
                burst.extend(map(runnable.__getitem__,
                                 arrivals_of[index][seen:seen + room]))
            # A frame no server owns (None) runs nowhere.
            run = [frame.copy() for frame in burst if frame is not None]
            done = iter(profile(run, index) if run else ())
            outcomes.extend([_UNROUTABLE if frame is None else next(done)
                             for frame in burst])
        outcome = outcomes.popleft()
        dispatch_ns = scheduler.now_ns
        service_ns = outcome[1]
        if service_ns > 0:
            schedule(service_ns,
                     lambda: finish(index, item, dispatch_ns, outcome))
        else:
            finish(index, item, dispatch_ns, outcome)

    def finish(index, item, dispatch_ns, outcome):
        arrival_ns, _, detail, _ = item
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
    if fixed:
        routes = [route(frame) for frame in frames]
        runnable = [None if index is None else frame
                    for frame, index in zip(frames, routes)]
        arrivals_of = [[] for _ in range(num_servers)]
        for position, index in enumerate(routes):
            arrivals_of[index or 0].append(position)
        for when, frame, index in zip(times, frames, routes):
            schedule(when, lambda f=frame, i=index: arrive(f, i))
    else:
        # Each arrival is routed as it comes, on the live membership.
        for when, frame in zip(times, frames):
            schedule(when, lambda f=frame: arrive(f, route(f)))

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
