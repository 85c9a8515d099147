"""Fault injection for the ``netsim`` and ``cluster`` backends.

Every netsim link is lossless and every shard immortal until this
module says otherwise.  Three pieces:

* :class:`FaultyLink` — a :class:`~repro.netsim.link.Link` with seeded,
  deterministic impairments: packet loss, single-bit corruption,
  latency jitter, and an up/down state (partitions).
* :class:`FaultPlan` — a script of timed fault events (kill shard at t,
  partition a port at t, restore at t').  Events are plain callables
  against a *target* (a :class:`~repro.cluster.target.ClusterTarget`
  for shard verbs, the ``netsim`` backend for port verbs, or anything
  exposing the same verbs).
* :class:`FaultInjector` — applies a plan, either armed on an event
  loop (netsim: fires at simulated nanoseconds) or pumped manually with
  :meth:`FaultInjector.advance_to` (harness chaos runs: "time" is the
  workload window index).

Everything is seeded; a chaos run with a fixed seed is exactly
reproducible, which is what makes its assertions testable.
"""

import random

from repro.errors import NetSimError
from repro.netsim.link import Link


class FaultyLink(Link):
    """A link that can lose, corrupt, delay, or stop carrying frames.

    All randomness comes from one ``random.Random(seed)``, so a given
    (seed, traffic) pair always drops/corrupts the same frames.
    """

    def __init__(self, loop, latency_ns=1000,
                 bandwidth_bps=10_000_000_000, loss_rate=0.0,
                 corrupt_rate=0.0, jitter_ns=0, seed=0):
        for name, rate in (("loss_rate", loss_rate),
                           ("corrupt_rate", corrupt_rate)):
            if not 0.0 <= rate <= 1.0:
                raise NetSimError("%s must be in [0, 1]" % name)
        if jitter_ns < 0:
            raise NetSimError("jitter_ns must be >= 0")
        super().__init__(loop, latency_ns, bandwidth_bps)
        self.loss_rate = loss_rate
        self.corrupt_rate = corrupt_rate
        self.jitter_ns = jitter_ns
        self.up = True
        self._rng = random.Random(seed)
        self.frames_lost = 0
        self.frames_corrupted = 0

    # -- partition scheduling ----------------------------------------------

    def take_down(self):
        """Partition: every frame is lost until :meth:`bring_up`."""
        self.up = False

    def bring_up(self):
        self.up = True

    # -- fault hooks --------------------------------------------------------

    def _prepare(self, frame):
        if not self.up:
            self.frames_lost += 1
            return None
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.frames_lost += 1
            return None
        delivered = frame.copy()
        if self.corrupt_rate and delivered.data and \
                self._rng.random() < self.corrupt_rate:
            bit = self._rng.randrange(len(delivered.data) * 8)
            delivered.data[bit // 8] ^= 1 << (bit % 8)
            self.frames_corrupted += 1
        return delivered

    def _jitter_ns(self):
        if not self.jitter_ns:
            return 0
        return self._rng.randint(0, self.jitter_ns)


class FaultEvent:
    """One scheduled fault: fire *action(target)* at time *at*."""

    __slots__ = ("at", "label", "action")

    def __init__(self, at, label, action):
        self.at = at
        self.label = label
        self.action = action

    def __repr__(self):
        return "FaultEvent(%r @ %s)" % (self.label, self.at)


class FaultPlan:
    """An ordered script of timed fault events.

    Times are whatever unit the driver uses: nanoseconds when armed on
    an event loop, workload-window indices when pumped by a harness.
    Builder methods return ``self`` so plans chain::

        plan = (FaultPlan()
                .kill_shard(3, "shard2")
                .restore_shard(8, "shard2"))
    """

    def __init__(self):
        self.events = []

    def at(self, when, action, label="custom"):
        """Schedule *action(target)* at time *when*."""
        self.events.append(FaultEvent(when, label, action))
        self.events.sort(key=lambda event: event.at)
        return self

    # -- the common chaos verbs --------------------------------------------

    def kill_shard(self, when, shard_id):
        """Crash *shard_id* (stops answering; no graceful drain)."""
        return self.at(when, lambda target: target.kill_shard(shard_id),
                       "kill %s" % shard_id)

    def restore_shard(self, when, shard_id):
        """Bring *shard_id* back after repair (bounded key remap)."""
        return self.at(when,
                       lambda target: target.restore_shard(shard_id),
                       "restore %s" % shard_id)

    def partition(self, when, name):
        """Cut the named port's link (the ``netsim`` backend's verb)."""
        return self.at(when, lambda target: target.partition(name),
                       "partition %s" % name)

    def heal(self, when, name):
        """Undo :meth:`partition` for the named node."""
        return self.at(when, lambda target: target.heal(name),
                       "heal %s" % name)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a target, in time order."""

    def __init__(self, plan, target):
        self.target = target
        self._due = list(plan.events)       # sorted by FaultPlan.at
        self.fired = []                     # [(at, label)]
        #: Optional TraceRecorder (duck-typed; set by the deploy
        #: layer) — each firing emits an instant event at its
        #: scheduled time on the shared virtual-time axis.
        self.tracer = None

    @property
    def pending(self):
        return len(self._due)

    def _fire(self, event):
        self.fired.append((event.at, event.label))
        event.action(self.target)
        if self.tracer is not None:
            self.tracer.instant("fault:%s" % event.label,
                                ts_ns=int(event.at), cat="fault",
                                args={"at": event.at})

    def advance_to(self, now):
        """Fire every event scheduled at or before *now* (manual pump
        for window-based chaos runs); returns the fired labels."""
        labels = []
        while self._due and self._due[0].at <= now:
            event = self._due.pop(0)
            self._fire(event)
            labels.append(event.label)
        return labels

    def arm(self, loop):
        """Schedule the remaining events on a netsim event loop.

        Events whose time is already past fire on the loop's next
        event; times are absolute loop nanoseconds.
        """
        due, self._due = self._due, []
        for event in due:
            delay = max(0, event.at - loop.now_ns)
            loop.schedule(delay, lambda event=event: self._fire(event))
