"""The cycle model computes what decides a cycle count, and nothing it
needs is dropped.

``tests/cycles_leg.py``'s ``Cycles`` leg runs streams through the
latency-only entry ``BatchedKernel.latencies`` and is checked against
the interpreted netlist on every service kernel at every level: every
job's cycle count and the shared memories after every burst, whatever
the cut.  Three planted liveness bugs are each caught by the leg alone.

Seeded per tests/README: one module SEED, one stream per property.
"""

import pytest

from cycles_leg import Cycles
from repro.engine import compiler
from repro.harness.optimization import SERVICE_KERNELS
from repro.kiwi.analysis import live_effects, walk
from repro.kiwi.builder import VarRef
from repro.kiwi.fsm import Branch
from repro.kiwi.runtime import pause
from repro.verify import Interpreter, check, job_streams

SEED = "cycles-leg-1"
LEVELS = range(4)
CUTS = [(1,), (2,), (64,), (1, 5, 2, 17, 3)]

MEMCACHED = next(case for case in SERVICE_KERNELS
                 if case.name.startswith("memcached"))
DNS = next(case for case in SERVICE_KERNELS if case.name == "DNS")


def carried(frame: "mem[8]x8", seen: "mem[4]x8") -> "u8":
    """A branch on a register the previous request left behind: ``x``
    is assigned last, read only by the next request."""
    if frame[0] == 0x35:
        x = 0
    pause()
    if x & 1:
        seen[0] = frame[2]
        pause()
    pause()
    x = frame[1]
    return 0


@pytest.mark.parametrize("case", list(SERVICE_KERNELS) + [carried],
                         ids=lambda c: getattr(c, "name", None) or c.__name__)
def test_cycles_leg_agrees_with_the_interpreter(case):
    """Cycle counts and shared memories, cold and warm, at every level
    and cut.  The drawn streams change scalars almost every job, so one
    more warm stream keeps its first job's scalars throughout, as the
    cycle model does: there the 64-job cut is one wide lockstep call
    wherever the kernel allows it."""
    streams = job_streams(case, 12, SEED)
    wide = job_streams(case, 48, SEED + "/wide")[-1]
    streams.append([(wide[0][0], memories) for _, memories in wide])
    for level in LEVELS:
        legs = [Interpreter(level)] + [Cycles(level, cuts) for cuts in CUTS]
        report = check(case, legs, streams).require()
        assert report.runs == 72
        counters = report.legs[legs[3].name]
        assert (counters["lockstep_batches"] > 0) != (case is carried)
        assert (counters["fallback_batches"] > 0) == (case is carried)


# -- planted liveness bugs ----------------------------------------------------

def _caught(monkeypatch, plant, subject, level):
    monkeypatch.setattr(compiler, "live_effects", plant)
    leg = Cycles(level, (64,))
    report = check(subject, [Interpreter(level), leg],
                   job_streams(subject, 8, SEED))
    assert not report.ok
    assert {m.leg for m in report.mismatches} == {leg.name}
    return report.mismatches[0]


def test_a_dropped_shared_memory_write_is_caught(monkeypatch):
    """With the warm tables unobserved, a SET's stores are dead."""
    def plant(fsm, observed, latched, loaded):
        return live_effects(fsm, (), latched, loaded)

    found = _caught(monkeypatch, plant, MEMCACHED, 2)
    assert found.what.split("[")[0] in ("ktags", "values", "kvalid", "cost")


def test_a_dropped_branch_input_is_caught(monkeypatch):
    """Every update of a register some branch reads (the DNS name
    walk's ``i`` and ``bad``), dropped: the walk runs out of cycles."""
    def plant(fsm, *args):
        feeds = {node.name for state in fsm.states[1:]      # not idle
                 if isinstance(state.transition, Branch)
                 for node in walk((state.transition.cond,))
                 if isinstance(node, VarRef)}
        return [({name: expr for name, expr in updates.items()
                  if name not in feeds}, writes)
                for updates, writes in live_effects(fsm, *args)]

    assert _caught(monkeypatch, plant, DNS, 2).what in ("cost", "stopped")


def test_a_missing_idle_to_entry_carry_is_caught(monkeypatch):
    """Every register killed at the request boundary: ``x``'s last
    update looks dead, and the next request branches on a stale ``x``."""
    def plant(fsm, observed, latched, loaded):
        registers = {name for state in fsm.states for name in state.updates}
        return live_effects(fsm, observed, registers, loaded)

    for level in LEVELS:
        assert _caught(monkeypatch, plant, carried, level).what == "cost"
