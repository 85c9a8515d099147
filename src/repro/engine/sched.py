"""The unified discrete-event runtime: one heap of timed callbacks.

One virtual-time scheduler underlies every layer that used to keep its
own ad-hoc clock: the network simulator's :class:`EventLoop
<repro.netsim.sim.EventLoop>` is a subclass, fault plans and health
detectors arm themselves on it, and the open-loop load layer
(:mod:`repro.engine.openloop`) runs its arrivals, request starts,
completions and time-series ticks on it.  All of them speak one idiom,
``schedule(delay_ns, callback)``.

:class:`Scheduler` is a nanosecond-resolution virtual-time heap.
Events at the same timestamp run in scheduling order (a monotonic
sequence number breaks ties), so an event scheduled at delay 0 runs in
the same nanosecond but after everything already queued for it — and
runs are deterministic by construction.
"""

import heapq
import itertools

from repro.errors import EngineError


class Scheduler:
    """Nanosecond-resolution virtual-time event loop.

    Subclasses may override :attr:`error` to raise their own exception
    family (the network simulator raises ``NetSimError``) without
    duplicating the loop.
    """

    #: Exception class raised for scheduling mistakes and livelocks.
    error = EngineError

    def __init__(self):
        self._queue = []
        self._ids = itertools.count()
        self.now_ns = 0
        self.events_run = 0

    def schedule(self, delay_ns, action):
        """Run *action()* after *delay_ns* nanoseconds."""
        if delay_ns < 0:
            raise self.error("cannot schedule into the past")
        heapq.heappush(self._queue,
                       (self.now_ns + int(delay_ns), next(self._ids),
                        action))

    def run(self, until_ns=None, max_events=1_000_000):
        """Process events until the queue drains (or a time/count cap).

        *max_events* caps this call alone; ``events_run`` keeps the
        lifetime total, so repeated ``run()`` calls on one loop never
        trip the cap on old events.
        """
        events_this_call = 0
        while self._queue:
            when, _, action = self._queue[0]
            if until_ns is not None and when > until_ns:
                break
            heapq.heappop(self._queue)
            self.now_ns = when
            action()
            self.events_run += 1
            events_this_call += 1
            if events_this_call > max_events:
                raise self.error("event cap exceeded (livelock?)")
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)

    @property
    def pending(self):
        return len(self._queue)
