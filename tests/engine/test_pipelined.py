"""Pipelined executor: N requests in flight == sequential -O0.

The -O3 schedule is a *feasibility proof*; the dynamic executor in
:mod:`repro.engine.pipelined` is what demonstrates it holds: a new
request issues every II cycles, hazard stalls only on real shared-
memory dependences, strict in-order retire.  These tests check

* six-kernel differential: every service kernel, pipelined at depth
  >= 4, matches the sequential -O0 engine exactly (per-request
  results, reply bytes, the memory images at every drain) on its
  representative request and warm-ups, mutated;
* crafted hazard kernels forcing II > 1 still match, and the measured
  issue interval equals the static II;
* ragged in-flight shutdown: draining mid-stream and resuming keeps
  parity (the pipelined leg drains on purpose: before every job that
  reloads a shared memory, and once more short of the end);
* infeasible kernels fall back to serial issue and still match.
"""

import pytest

from repro.engine.pipelined import compile_pipelined
from repro.errors import EngineError
from repro.harness.optimization import SERVICE_KERNELS
from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET
from repro.verify import OneLane, Pipelined, check, job_streams

SEED = "engine-pipelined-1"

#: Kernels whose -O3 schedule is feasible (see tests/kiwi/test_pipeline).
OVERLAPPING = {"ICMP echo", "memcached GET", "NAT outbound"}


def _pipelined(subject, depth, requests, seed,
               level_budget=DEFAULT_LEVEL_BUDGET):
    """The -O3 pipelined leg against the sequential -O0 engine; returns
    ``(report, the pipelined leg's counters)``."""
    leg = Pipelined(3, depth, level_budget)
    assert leg.timing is None       # overlap changes latencies: exempt
    report = check(subject, [OneLane(0), leg],
                   job_streams(subject, requests, seed))
    return report, report.legs[leg.name]


# -- crafted hazard kernels (branch diamonds pin the shared-memory
#    read/write to distinct stages; see tests/kiwi/test_pipeline.py) --

def drain_raw3(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
    x = acc[bits(frame[0], 4)]
    if frame[1] > 10:
        pause()
        y = x + 1
    else:
        pause()
        y = x + 2
    pause()
    acc[bits(frame[2], 4)] = bits(y, 8)
    if frame[3] > 10:
        pause()
        z = y + 3
    else:
        pause()
        z = y + 4
    pause()
    return bits(z + frame[4], 8)


def drain_raw2(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
    t = frame[0] + frame[1]
    if frame[1] > 10:
        pause()
        x = acc[bits(frame[0], 4)] + 1
    else:
        pause()
        x = t + 2
    pause()
    acc[bits(frame[2], 4)] = bits(x, 8)
    if frame[3] > 10:
        pause()
        z = x + 3
    else:
        pause()
        z = x + t
    pause()
    return bits(z + frame[4], 8)


class TestServiceKernelDifferential:
    """Acceptance: pipelined == sequential on all six service kernels."""

    @pytest.mark.parametrize(
        "case", SERVICE_KERNELS, ids=lambda c: c.name)
    def test_pipelined_matches_sequential(self, case):
        report, counters = _pipelined(case, 4, 24,
                                      "%s/%s" % (SEED, case.name))
        assert report.require().runs >= 4
        assert report.mismatches == []
        if case.name in OVERLAPPING:
            assert counters["achieved_ii"] is not None
            assert counters["peak_in_flight"] >= 2
        else:
            # Serial fallback: the infeasible kernels never overlap.
            assert counters["achieved_ii"] is None
            assert counters["peak_in_flight"] == 1

    def test_memcached_protocol_stream(self):
        """Real GET/SET traffic (not random bytes) through the
        pipelined memcached kernel, deep — depth 8, 48 requests."""
        case = next(c for c in SERVICE_KERNELS
                    if c.name == "memcached GET")
        report, counters = _pipelined(case, 8, 48,
                                      "%s/memcached-protocol" % SEED)
        report.require()
        assert counters["achieved_ii"] == 1
        assert counters["peak_in_flight"] >= 3


class TestHazardKernels:
    """Forced II > 1: overlap happens, but never past the hazard."""

    @pytest.mark.parametrize("kernel,expected_ii",
                             [(drain_raw3, 3), (drain_raw2, 2)],
                             ids=["raw3", "raw2"])
    def test_hazard_parity_and_interval(self, kernel, expected_ii):
        report, counters = _pipelined(kernel, 8, 40, "%s/hazard" % SEED)
        assert report.require().mismatches == []
        assert counters["achieved_ii"] == expected_ii
        assert counters["peak_in_flight"] >= 2
        # The dynamic executor achieves the static schedule: issues are
        # spaced exactly II cycles apart in steady state.
        assert counters["measured_interval"] == float(expected_ii)


class TestRaggedShutdown:
    """Draining the pipeline mid-stream (the leg splits its job
    stream across several run_stream calls) keeps parity at every
    depth."""

    @pytest.mark.parametrize("depth", [2, 3, 5, 8])
    def test_depths(self, depth):
        report, _ = _pipelined(drain_raw2, depth, 19,
                               "%s/ragged-%d" % (SEED, depth))
        assert report.ok, report.mismatches[:3]
        assert report.runs == 2 * 19    # 19 cold jobs, 19 warm

    def test_explicit_partial_drain(self):
        """run_stream with fewer jobs than the pipeline depth drains
        cleanly and retires in order."""
        kernel = compile_pipelined(drain_raw3, depth=8)
        serial = compile_pipelined(drain_raw3, depth=1)
        jobs = [({}, {"frame": [(7 * i + j) % 251 for j in range(16)]})
                for i in range(3)]

        def images(runner):
            out = runner.run_stream([(dict(s), {k: list(v)
                                                for k, v in m.items()})
                                     for s, m in jobs])
            return [(results, stream) for results, _, stream in out]

        assert images(kernel) == images(serial)
        assert kernel.peak_in_flight <= 3


class TestSerialFallback:
    """Kernels the analysis refuses still run — serially — and match."""

    def test_infeasible_kernel_runs_serial(self):
        case = next(c for c in SERVICE_KERNELS if c.name == "DNS")
        kernel = compile_pipelined(case.kernel, depth=4)
        assert kernel.schedule is not None
        assert not kernel.schedule.feasible
        report, counters = _pipelined(case, 4, 12,
                                      "%s/dns-serial" % SEED)
        assert report.ok
        assert counters["peak_in_flight"] == 1

    def test_tight_budget_falls_back(self):
        """level_budget threads into the pipelined compile: a budget
        too small for pipeline control forces serial issue, parity
        intact."""
        piped = compile_pipelined(drain_raw2, depth=4)
        assert piped.schedule.feasible
        squeezed = compile_pipelined(drain_raw2, depth=4, level_budget=2)
        assert not squeezed.schedule.feasible
        assert "budget" in squeezed.schedule.reason
        report, counters = _pipelined(drain_raw2, 4, 10,
                                      "%s/budget-serial" % SEED,
                                      level_budget=2)
        assert report.ok
        assert counters["achieved_ii"] is None


class TestJobValidation:
    def test_non_stream_memory_rejected(self):
        kernel = compile_pipelined(drain_raw2, depth=2)
        with pytest.raises(EngineError):
            kernel.run_stream([({}, {"frame": [0] * 16,
                                     "acc": [0] * 16})])

    def test_short_stream_image_rejected(self):
        kernel = compile_pipelined(drain_raw2, depth=2)
        with pytest.raises(EngineError):
            kernel.run_stream([({}, {"frame": [0] * 4})])
