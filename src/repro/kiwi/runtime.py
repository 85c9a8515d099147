"""Kiwi runtime: pause barriers and dual-semantics threads (§3.4).

Kiwi "reinterprets concurrency primitives": the same program runs with

* **software semantics** — threads are ordinary .NET threads and
  ``Kiwi.Pause()`` is a cooperative no-op; here, generators drained to
  completion (:func:`run_software`);
* **hardware semantics** — parallel threads become parallel circuits
  clocked together; here, each thread is a generator stepped one
  pause-segment per clock by :class:`KiwiScheduler`.

Emu services are written as generator functions that ``yield pause()``
wherever the C# original called ``Kiwi.Pause()``.
"""

from repro.errors import TargetError


class Pause:
    """The scheduling barrier (``Kiwi.Pause()``): ends the clock cycle."""

    def __repr__(self):
        return "Pause()"


_PAUSE = Pause()


def pause():
    """Return the (one) pause marker; services ``yield pause()``."""
    return _PAUSE


def run_software(gen):
    """Software semantics: run a pause-annotated generator to completion.

    Returns the generator's return value (``StopIteration.value``).
    """
    if gen is None:
        return None
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


class HardwareThread:
    """One logical circuit: a generator stepped one segment per cycle."""

    def __init__(self, gen, name="thread"):
        self.gen = gen
        self.name = name
        self.done = False
        self.result = None
        self.cycles = 0

    def clock(self):
        """Advance one clock cycle (one pause-to-pause segment)."""
        if self.done:
            return False
        self.cycles += 1
        try:
            next(self.gen)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
        return True


class KiwiScheduler:
    """Clock a set of hardware threads in lock-step (parallel circuits).

    All threads see the same clock; one call to :meth:`clock` advances
    every live thread by one cycle, exactly like parallel always-blocks.
    ``tick_hooks`` lets IP-block models (hash cores, CAM handshakes)
    share the clock.
    """

    def __init__(self):
        self.threads = []
        self.tick_hooks = []
        self.cycle = 0

    def spawn(self, gen, name=None):
        thread = HardwareThread(gen, name or "thread%d" % len(self.threads))
        self.threads.append(thread)
        return thread

    def add_tick_hook(self, hook):
        """Register a callable invoked once per clock (IP block models)."""
        if not callable(hook):
            raise TargetError("tick hook must be callable")
        self.tick_hooks.append(hook)

    @property
    def idle(self):
        return all(t.done for t in self.threads)

    def clock(self, cycles=1):
        """Advance the shared clock."""
        for _ in range(cycles):
            self.cycle += 1
            for thread in self.threads:
                thread.clock()
            for hook in self.tick_hooks:
                hook()

    def run_to_completion(self, max_cycles=1000000):
        """Clock until every thread finishes; returns cycles consumed."""
        start = self.cycle
        while not self.idle:
            if self.cycle - start >= max_cycles:
                raise TargetError(
                    "threads did not finish within %d cycles" % max_cycles)
            self.clock()
        return self.cycle - start
