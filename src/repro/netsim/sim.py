"""The discrete-event core: a time-ordered event queue.

Since the engine refactor this is a veneer over the *unified* runtime
(:class:`repro.engine.sched.Scheduler`) — the network simulator no
longer keeps its own bespoke loop.  The subclass exists to keep the
historical surface: the same class name, and :class:`NetSimError` for
scheduling mistakes and livelocks.
"""

from repro.engine.sched import Scheduler
from repro.errors import NetSimError


class EventLoop(Scheduler):
    """Nanosecond-resolution event loop (the netsim face of the
    engine scheduler)."""

    error = NetSimError
