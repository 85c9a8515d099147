"""Kernel profiler: per-state counts, merging, the -O0/-O2 cross-check."""

import pytest

from repro.engine import compile_design
from repro.errors import ObsError
from repro.kiwi import compile_function
from repro.obs.profiler import KernelProfile, StateCycles, merge_profiles


def three_pause_kernel(x: "u16") -> "u16":
    total = x + 1
    pause()
    total = total + 2
    pause()
    total = total + 3
    pause()
    return total


def _profiled_kernel(opt_level=0):
    design = compile_function(three_pause_kernel, opt_level=opt_level)
    return compile_design(design).enable_profiling()


class TestEnableProfiling:
    def test_disabled_kernel_has_no_counts(self):
        design = compile_function(three_pause_kernel)
        kernel = compile_design(design)
        assert kernel.state_counts is None
        with pytest.raises(ObsError):
            KernelProfile.from_kernel(kernel)

    def test_profiled_run_matches_unprofiled_results(self):
        design = compile_function(three_pause_kernel)
        plain = compile_design(design)
        profiled = compile_design(design).enable_profiling()
        assert plain.run(x=5)[:2] == profiled.run(x=5)[:2]

    def test_counts_accumulate_across_runs(self):
        kernel = _profiled_kernel()
        kernel.run(x=1)
        once = sum(kernel.state_counts)
        kernel.run(x=2)
        assert sum(kernel.state_counts) == 2 * once

    def test_disable_profiling_drops_counts(self):
        kernel = _profiled_kernel()
        kernel.run(x=1)
        kernel.disable_profiling()
        assert kernel.state_counts is None


class TestKernelProfile:
    def test_cycles_account_for_measured_latency(self):
        kernel = _profiled_kernel()
        _, latency, _ = kernel.run(x=1)
        profile = KernelProfile.from_kernel(kernel)
        # Each invocation pays one idle latch cycle on top of its
        # state cycles.
        assert profile.total_cycles + profile.invocations == latency
        assert profile.invocations == 1

    def test_hotspots_sort_by_cycles_then_index(self):
        profile = KernelProfile("k", 0, [
            StateCycles(1, "a", 5), StateCycles(2, "b", 9),
            StateCycles(3, "c", 5)], invocations=1)
        assert [s.index for s in profile.hotspots()] == [2, 1, 3]
        assert [s.index for s in profile.hotspots(top=1)] == [2]

    def test_hotspot_table_renders(self):
        kernel = _profiled_kernel()
        kernel.run(x=1)
        table = KernelProfile.from_kernel(kernel).hotspot_table()
        assert "Kernel profile" in table
        assert "Share" in table


class TestMerge:
    def test_merge_sums_states_and_invocations(self):
        a = _profiled_kernel()
        b = _profiled_kernel()
        a.run(x=1)
        b.run(x=2)
        b.run(x=3)
        merged = merge_profiles([KernelProfile.from_kernel(a),
                                 KernelProfile.from_kernel(b)])
        assert merged.invocations == 3
        assert merged.total_cycles == \
            sum(a.state_counts) + sum(b.state_counts)

    def test_merge_does_not_mutate_inputs(self):
        kernel = _profiled_kernel()
        kernel.run(x=1)
        profile = KernelProfile.from_kernel(kernel)
        before = [state.cycles for state in profile.states]
        merge_profiles([profile, profile])
        assert [state.cycles for state in profile.states] == before

    def test_shape_mismatch_raises(self):
        a = KernelProfile("k", 0, [StateCycles(1, "a", 1)], 1)
        b = KernelProfile("k", 2, [StateCycles(1, "a", 1)], 1)
        with pytest.raises(ObsError):
            a.merge(b)

    def test_merge_empty_list_is_none(self):
        assert merge_profiles([]) is None


class TestOptimizerCrossCheck:
    def test_o2_profile_shows_the_deleted_states(self):
        """The hotspot view of the PR 3 win: -O2 collapses states, so
        the profiled request touches fewer of them and total cycles
        drop, while both levels return the same result."""
        k0 = _profiled_kernel(opt_level=0)
        k2 = _profiled_kernel(opt_level=2)
        r0 = k0.run(x=7)
        r2 = k2.run(x=7)
        assert r0[0] == r2[0]                 # same results
        p0 = KernelProfile.from_kernel(k0)
        p2 = KernelProfile.from_kernel(k2)
        assert p2.total_cycles < p0.total_cycles
        assert len(p2.states) < len(p0.states)
        assert p0.total_cycles + 1 == r0[1]   # latency cross-check
        assert p2.total_cycles + 1 == r2[1]
