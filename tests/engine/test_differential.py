"""Engine/interpreter differential suite.

The compiled execution spine must be *observationally indistinguishable*
from the interpreted netlist simulator:

* same level (engine -On vs interpreter -On): byte-identical results,
  final memory contents, and cycle counts, for every service kernel,
  on its representative request with a few words redrawn (memcached:
  plus crafted GET/SET/DELETE over random tables);
* cross level (engine -O2 vs interpreter -O0): results and final
  memories still match — the engine composes with the optimizer's own
  differential proof;
* warm state: a request sequence on one warm kernel matches the same
  sequence on one warm simulator, step for step.

The legs and streams (cold power-on jobs, then one warm stream) are
:mod:`repro.verify`'s.  Seeded per tests/README: one module SEED, one
stream per property.
"""

import pytest

from repro.engine import compile_design, compile_kernel
from repro.errors import EngineError
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame,
)
from repro.kiwi.compiler import compile_function
from repro.services.memcached import memcached_kernel
from repro.verify import Interpreter, OneLane, check, job_streams

SEED = "engine-differential"

KERNEL_IDS = [case.name for case in SERVICE_KERNELS]
MEMCACHED = SERVICE_KERNELS[KERNEL_IDS.index("memcached GET")]


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=KERNEL_IDS)
def test_engine_matches_interpreter_at_o0(case):
    legs = [Interpreter(0), OneLane(0)]
    report = check(case, legs,
                   job_streams(case, 5, "%s/same-level" % SEED))
    assert report.ok, report.mismatches[:1]
    # Same machine, so cycle counts were compared job by job — and the
    # engine simulated exactly the same cycles in total.
    assert legs[0].timing == legs[1].timing
    assert report.legs["one-lane -O0"]["cycles"] == \
        report.legs["interpreter -O0"]["cycles"] > 0


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=KERNEL_IDS)
def test_engine_o2_matches_interpreter_o0(case):
    """The satellite contract: the engine compiled from the *optimized*
    FSM still reproduces the unoptimized interpreter's observable
    behaviour (results + final memories; cycles differ by design)."""
    legs = [Interpreter(0), OneLane(2)]
    report = check(case, legs,
                   job_streams(case, 5, "%s/cross-level" % SEED))
    assert report.ok, report.mismatches[:1]
    assert legs[0].timing != legs[1].timing


def test_engine_crafted_memcached_requests():
    """Deep GET/SET/DELETE paths (the case's crafted generator is one
    of the stream's bases), at every opt level."""
    for level in (0, 1, 2):
        report = check(
            MEMCACHED, [Interpreter(level), OneLane(level)],
            job_streams(MEMCACHED, 6, "%s/crafted/%d" % (SEED, level)))
        assert report.ok, (level, report.mismatches[:1])


def test_assert_engine_equivalent_returns_report():
    report = check(MEMCACHED, [Interpreter(1), OneLane(1)],
                   job_streams(MEMCACHED, 3, SEED))
    assert report.require() is report
    assert report.runs == 6             # three cold jobs, three warm


def test_warm_state_matches_warm_simulator():
    """SET then GET of the same key: the engine's persistent memories
    and registers must track the warm simulator exactly."""
    key = b"warmkey"[:6]
    set_frame = memcached_binary_frame(1, key, bytes(range(8)))
    get_frame = memcached_binary_frame(0, key)
    design = compile_function(memcached_kernel, opt_level=0)
    sim = design.simulator()
    kernel = compile_design(design)
    for frame in (set_frame, get_frame, get_frame):
        expected = design.run_on(sim, memories={"frame": list(frame)},
                                 my_ip=0x0A000001)
        actual = kernel.run(memories={"frame": list(frame)},
                            my_ip=0x0A000001)
        assert actual[0] == expected[0]
        assert actual[1] == expected[1]
    for mem_name, mem in design.spec.memory_params:
        expected_image = [sim.peek_memory(mem_name, addr)
                          for addr in range(mem.depth)]
        assert kernel.memory_image(mem_name) == expected_image


def test_engine_timeout_raises_engine_error():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    with pytest.raises(EngineError):
        kernel.run(max_cycles=2,
                   memories={"frame": memcached_binary_frame(0, b"abcdef")},
                   my_ip=1)


def test_engine_rejects_unknown_inputs():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    with pytest.raises(EngineError):
        kernel.run(not_a_param=1)
    with pytest.raises(EngineError):
        kernel.run(memories={"not_a_memory": [0]})


def test_reset_restores_power_on_state():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    kernel.run(memories={"frame": memcached_binary_frame(
        1, b"abc123", bytes(range(8)))}, my_ip=7)
    assert any(kernel.memory_image("kvalid"))
    kernel.reset()
    assert not any(kernel.memory_image("kvalid"))
    assert not any(kernel.memory_image("frame"))
