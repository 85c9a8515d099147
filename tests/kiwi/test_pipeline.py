"""-O3 initiation-interval pipelining analysis.

Properties (seeded per tests/README.md conventions):

* every service kernel gets an honest verdict: a feasible schedule has
  ``II >= every memory's recurrence bound``, ``II >= the resource
  bound`` and ``II < latency``; an infeasible one names the gate that
  refused (loop, stale registers, budget, no II below latency);
* crafted hazard-heavy kernels (shared-memory read early, write late)
  force ``II > 1`` and the schedule equals the RAW bound exactly;
* the same holds on *generated* kernels (``strategies.kernels``);
* a tighter ``level_budget`` blocks fusion and pipelining rather than
  mis-reporting timing, and threads through ``with_opt``.
"""

from hypothesis import given, settings

import strategies
from repro.harness.optimization import SERVICE_KERNELS, measure_kernel
from repro.kiwi import compile_function
from repro.kiwi.opt import PIPELINE_CONTROL_LEVELS

SEED = "kiwi-pipeline-1"


def _schedule(kernel, **kwargs):
    design = compile_function(kernel, opt_level=3, **kwargs)
    return design, design.fsm.pipeline_schedule


# -- crafted hazard kernels -------------------------------------------------
# Branch diamonds block state fusion, so the shared-memory read and
# write stay pinned to distinct stages: the RAW recurrence (write as
# late as stage w, next request's read as early as stage r) forces
# II >= w - r + 1 > 1 while the five-stage latency leaves room to
# overlap at that interval.

def hazard_raw3(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
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


def hazard_raw2(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
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


class TestServiceKernelSchedules:
    """Every service kernel gets a schedule, and it is honest."""

    def test_verdicts(self):
        expected = {
            "switch": False,          # 1-state machine: already II=1
            "ICMP echo": True,
            "DNS": False,             # data-dependent name-walk loop
            "memcached GET": True,
            "NAT outbound": True,
            "L3/L4 filter": False,    # 50 levels: control margin fails
        }
        for case in SERVICE_KERNELS:
            design, _, _ = measure_kernel(case, 3)
            schedule = design.fsm.pipeline_schedule
            assert schedule is not None, case.name
            assert schedule.feasible == expected[case.name], \
                "%s: %r" % (case.name, schedule)
            if not schedule.feasible:
                assert schedule.reason, case.name

    def test_feasible_schedules_respect_bounds(self):
        for case in SERVICE_KERNELS:
            design, _, _ = measure_kernel(case, 3)
            schedule = design.fsm.pipeline_schedule
            if not schedule.feasible:
                continue
            ii = schedule.initiation_interval
            assert ii >= schedule.recurrence_ii
            assert ii >= schedule.resource_ii
            for bounds in schedule.memory_bounds.values():
                assert ii >= max(bounds.values()), case.name
            assert ii < schedule.latency_cycles, case.name
            # TimingReport carries the latency-vs-throughput split.
            assert design.timing.achieved_ii == ii
            assert design.timing.throughput_cycles == ii
            assert design.timing.achieved_ii <= \
                design.timing.latency_cycles
            occupancy = design.timing.stage_occupancy()
            assert sum(occupancy.values()) == len(schedule.stages)

    def test_infeasibility_reasons_name_the_gate(self):
        reasons = {}
        for case in SERVICE_KERNELS:
            design, _, _ = measure_kernel(case, 3)
            schedule = design.fsm.pipeline_schedule
            if not schedule.feasible:
                reasons[case.name] = schedule.reason
                assert design.timing.achieved_ii is None
        assert "loop" in reasons["DNS"]
        assert "budget" in reasons["L3/L4 filter"]
        assert "latency" in reasons["switch"]

    def test_below_o3_has_no_schedule(self):
        for level in (0, 1, 2):
            design = compile_function(hazard_raw3, opt_level=level)
            assert getattr(design.fsm, "pipeline_schedule", None) is None
            assert design.timing.achieved_ii is None


class TestHazardKernels:
    """Crafted read-early/write-late kernels must be held to II > 1."""

    def test_raw_recurrence_forces_ii(self):
        for kernel, expected_ii in ((hazard_raw3, 3), (hazard_raw2, 2)):
            _, schedule = _schedule(kernel)
            assert schedule.feasible, schedule
            assert schedule.initiation_interval == expected_ii
            assert schedule.memory_bounds["acc"]["raw"] == expected_ii
            assert schedule.recurrence_ii == expected_ii
            assert schedule.stream_memories == ("frame",)
            assert schedule.speedup() > 1.0

    def test_stage_occupancy_covers_all_states(self):
        _, schedule = _schedule(hazard_raw3)
        occupancy = schedule.stage_occupancy()
        assert sorted(occupancy) == \
            list(range(schedule.initiation_interval))
        assert sum(occupancy.values()) == len(schedule.stages)


class TestRandomKernels:
    """Property: on generated kernels the II analysis never reports an
    interval below any memory's recurrence bound, and a feasible II is
    always below the latency."""

    @settings(strategies.SETTINGS, max_examples=8)
    @given(kernel=strategies.kernels())
    def test_ii_at_least_recurrence_bound(self, kernel):
        _, schedule = _schedule(kernel)
        assert schedule is not None
        if not schedule.feasible:
            assert schedule.reason
            return
        ii = schedule.initiation_interval
        assert ii >= schedule.recurrence_ii
        assert ii >= schedule.resource_ii
        for bounds in schedule.memory_bounds.values():
            assert ii >= max(bounds.values())
        assert ii < schedule.latency_cycles


class TestLevelBudget:
    """A tighter budget blocks fusion and pipelining, never timing."""

    def test_tight_budget_refuses_pipelining(self):
        design, schedule = _schedule(hazard_raw3)
        assert schedule.feasible
        margin_levels = design.timing.max_logic_levels
        tight = margin_levels + PIPELINE_CONTROL_LEVELS - 1
        design_tight, schedule_tight = _schedule(hazard_raw3,
                                                 level_budget=tight)
        assert not schedule_tight.feasible
        assert "budget" in schedule_tight.reason
        assert design_tight.timing.achieved_ii is None

    def test_tight_budget_blocks_fusion_not_timing(self):
        """Fusion under a small budget yields more states/cycles, and
        the timing report stays honest about what was emitted."""
        case = next(c for c in SERVICE_KERNELS
                    if c.name == "memcached GET")
        design, results, cycles = measure_kernel(case, 2)
        design_tight, results_tight, cycles_tight = measure_kernel(
            case, 2, level_budget=12)
        assert results == results_tight
        assert cycles_tight >= cycles
        assert design_tight.state_count >= design.state_count
        # Honest reporting: if the machine cannot fit the 12-level
        # budget (irreducible expression depth), meets_timing says so
        # instead of the report pretending the budget was met.
        if design_tight.timing.max_logic_levels > 12:
            assert not design_tight.timing.meets_timing(12)

    def test_with_opt_threads_level_budget(self):
        from repro.deploy import deploy
        dep = deploy("memcached").on("fpga").with_seed(5) \
            .with_opt(3, level_budget=4).start()
        try:
            target = dep.backend.target
            assert target.core_interval_cycles is None
            schedule = target.cycle_model.design.fsm.pipeline_schedule
            assert not schedule.feasible
            assert "budget" in schedule.reason
            assert target.cycle_model.level_budget == 4
        finally:
            dep.stop()

    def test_with_opt_rejects_bad_budget(self):
        import pytest
        from repro.deploy import deploy
        from repro.errors import TargetError
        with pytest.raises(TargetError):
            deploy("memcached").on("fpga").with_opt(3, level_budget=0)
        with pytest.raises(TargetError):
            deploy("memcached").on("fpga").with_opt(4)
