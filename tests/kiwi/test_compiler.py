"""The Kiwi compiler: scheduling, semantics, reports."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompileError, ScheduleError
from repro.kiwi import compile_function, compile_threads


# -- kernels used across tests (module level so inspect can find them) ----

def add_mul(a: "u16", b: "u16") -> "u16":
    x = a + b
    y = x * 2
    return bits(y, 16)


def gcd(a: "u16", b: "u16") -> "u16":
    while b != 0:
        pause()
        if a >= b:
            a = a - b
        else:
            t = a
            a = b
            b = t + 0
    return a


def sum_buf(buf: "mem[16]x8", n: "u8") -> "u16":
    total = 0
    i = 0
    while i < n:
        total = total + buf[i]
        i = i + 1
        pause()
    return bits(total, 16)


def swap_mem(buf: "mem[8]x8") -> "u1":
    for i in range(4):
        t = buf[i]
        buf[i] = buf[7 - i]
        buf[7 - i] = t
    return 1


def forwarding(buf: "mem[8]x8") -> "u8":
    buf[0] = 7
    x = buf[0]        # must see the write from this same cycle
    return x


def comb_if(a: "u8", b: "u8") -> "u8":
    out = 0
    if a > b:
        out = a
    else:
        out = b
    return out


def stateful_if(a: "u8") -> "u8":
    out = 0
    if a > 10:
        pause()
        out = 1
    else:
        out = 2
    return out


def early_return(a: "u8") -> "u8":
    if a == 0:
        return 99
    return a


def unrolled(acc: "u16") -> "u16":
    for i in range(5):
        acc = acc + i
    return acc


def multi_result(a: "u8") -> ("u8", "u8"):
    return a + 1, a + 2


def const_plus_mux(a: "u8") -> "u8":
    return 0x80 + (5 if a == 1 else 3)


def equals_wide_const(a: "u8") -> "u1":
    if a == 300:
        return 1
    return 0


def add_wide_const(a: "u4") -> "u8":
    return a + 0x10


def add_minus_one(a: "u8") -> "u8":
    return a + -1


def sub_minus_three(a: "u8") -> "u8":
    return a - -3


def minus_one_and(a: "u8") -> "u8":
    return (-1) & a


def equals_minus_one(a: "u8") -> "u1":
    if a == -1:
        return 1
    return 0


def return_minus_one(a: "u8") -> "u16":
    return -1


def negate(a: "u8") -> "u8":
    return -a


def minus_eight_shl(a: "u8") -> "u8":
    return -8 << a


def minus_eight_shr(a: "u8") -> "u8":
    return -8 >> a


def floordiv_minus_two(a: "u8") -> "u8":
    return a // -2


def mod_minus_three(a: "u8") -> "u8":
    return a % -3


def shl_minus_one(a: "u8") -> "u8":
    return a << -1


class TestSemantics:
    def test_straightline(self):
        (result,), _, _ = compile_function(add_mul).run(a=3, b=4)
        assert result == 14

    def test_gcd_loop(self):
        design = compile_function(gcd)
        assert design.run(a=48, b=36)[0][0] == 12
        assert design.run(a=17, b=17)[0][0] == 17
        assert design.run(a=13, b=7)[0][0] == 1

    def test_memory_loop(self):
        (result,), _, _ = compile_function(sum_buf).run(
            memories={"buf": [2, 4, 6, 8] + [0] * 12}, n=4)
        assert result == 20

    def test_unrolled_for_writes_memory(self):
        _, _, sim = compile_function(swap_mem).run(
            memories={"buf": [1, 2, 3, 4, 5, 6, 7, 8]})
        assert [sim.peek_memory("buf", i) for i in range(8)] == \
            [8, 7, 6, 5, 4, 3, 2, 1]

    def test_store_forwarding_within_cycle(self):
        (result,), _, _ = compile_function(forwarding).run()
        assert result == 7

    def test_if_conversion(self):
        design = compile_function(comb_if)
        assert design.run(a=9, b=4)[0][0] == 9
        assert design.run(a=4, b=9)[0][0] == 9

    def test_stateful_if(self):
        design = compile_function(stateful_if)
        assert design.run(a=20)[0][0] == 1
        assert design.run(a=3)[0][0] == 2

    def test_early_return(self):
        design = compile_function(early_return)
        assert design.run(a=0)[0][0] == 99
        assert design.run(a=5)[0][0] == 5

    def test_static_unroll_accumulates(self):
        assert compile_function(unrolled).run(acc=0)[0][0] == 10

    def test_multiple_results(self):
        results, _, _ = compile_function(multi_result).run(a=10)
        assert results == (11, 12)

    def test_warm_simulator_reuse(self):
        design = compile_function(sum_buf)
        sim = design.simulator()
        (first,), _, _ = design.run_on(
            sim, memories={"buf": [1] * 16}, n=3)
        (second,), _, _ = design.run_on(sim, n=5)
        assert (first, second) == (3, 5)


class TestConstantsWiden:
    """A constant wider than the other operand keeps its bit length and
    widens that side (C#'s promotion), at every level; a constant that
    fits takes the other side's width as before."""

    @pytest.mark.parametrize("level", [0, 2])
    def test_constant_plus_narrow_mux(self, level):
        design = compile_function(const_plus_mux, opt_level=level)
        assert design.run(a=1)[0] == (133,)
        assert design.run(a=2)[0] == (131,)

    @pytest.mark.parametrize("level", [0, 2])
    def test_compare_against_wider_constant(self, level):
        design = compile_function(equals_wide_const, opt_level=level)
        assert [design.run(a=a)[0][0] for a in (44, 255, 0)] == [0, 0, 0]

    @pytest.mark.parametrize("level", [0, 2])
    def test_add_wider_constant(self, level):
        design = compile_function(add_wide_const, opt_level=level)
        assert design.run(a=1)[0] == (17,)
        assert design.run(a=15)[0] == (31,)

    @pytest.mark.parametrize("level", [0, 2])
    def test_dns_reply_sets_qr_on_hit_and_miss(self, level):
        from repro.harness.optimization import SERVICE_KERNELS
        case = next(c for c in SERVICE_KERNELS if c.name == "DNS")
        tag = 0                 # the kernel's tag of the query's name
        for i, c in enumerate(bytes(case.memories["frame"][54:60])):
            tag ^= c << 8 * (i & 3)
        design = compile_function(case.kernel, opt_level=level)
        for hit in (1, 0):
            tables = {"tags": [tag] * 64, "addrs": [0x0A000063] * 64,
                      "tvalid": [hit] * 64}
            (ports,), _, sim = design.run(
                memories={"frame": case.memories["frame"], **tables},
                **case.scalars)
            assert ports == 1
            assert sim.peek_memory("frame", 44) == (0x80 if hit else 0x83)
            assert sim.peek_memory("frame", 49) == hit


class TestNegativeLiterals:
    """A negated literal is a constant in two's complement at the
    joined width, so stored results are Python's; comparing with one
    is refused (kernel values are unsigned); ``-x`` keeps ``x``'s
    width."""

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("kernel, runs", [
        pytest.param(add_minus_one, {5: 4, 0: 255}, id="a + -1"),
        pytest.param(sub_minus_three, {5: 8, 254: 1}, id="a - -3"),
        pytest.param(minus_one_and, {5: 5, 255: 255}, id="(-1) & a"),
        pytest.param(return_minus_one, {5: 0xFFFF}, id="return -1"),
        pytest.param(negate, {1: 255, 0: 0}, id="-a"),
        pytest.param(minus_eight_shl, {0: 248, 1: 240, 3: 192, 7: 0},
                     id="-8 << a"),
    ])
    def test_stored_result_is_pythons(self, kernel, runs, level):
        design = compile_function(kernel, opt_level=level)
        assert {a: design.run(a=a)[0][0] for a in runs} == runs

    def test_compare_with_negative_literal_is_refused(self):
        with pytest.raises(CompileError, match="negative literal"):
            compile_function(equals_minus_one)

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("kernel", [
        # Python stores 252 at a = 1, 251 at a = 9 and 254 at a = 7
        # (unsigned hardware gave 4, 0 and 7), and raises ValueError
        # on a negative shift count.
        pytest.param(minus_eight_shr, id="-8 >> a"),
        pytest.param(floordiv_minus_two, id="a // -2"),
        pytest.param(mod_minus_three, id="a % -3"),
        pytest.param(shl_minus_one, id="a << -1"),
    ])
    def test_signed_shift_division_and_count_are_refused(self, kernel,
                                                         level):
        with pytest.raises(CompileError, match="negative literal"):
            compile_function(kernel, opt_level=level)


class TestScheduling:
    def test_latency_counts_pauses(self):
        def two_pause(a: "u8") -> "u8":
            pause()
            pause()
            return a
        def no_pause(a: "u8") -> "u8":
            return a
        lat2 = compile_function(two_pause).run(a=1)[1]
        lat0 = compile_function(no_pause).run(a=1)[1]
        assert lat2 == lat0 + 2

    def test_pause_free_while_rejected(self):
        def bad(a: "u8") -> "u8":
            while a > 0:
                a = a - 1
            return a
        with pytest.raises(ScheduleError):
            compile_function(bad)

    def test_coarse_schedule_has_more_levels(self):
        from repro.harness.ablations import pause_density_vs_timing
        coarse, fine, _ = pause_density_vs_timing()
        assert coarse.timing.max_logic_levels > \
            fine.timing.max_logic_levels
        assert fine.state_count > coarse.state_count

    def test_timing_report_meets_timing(self):
        design = compile_function(add_mul)
        assert design.timing.meets_timing(max_levels=48)
        assert not design.timing.meets_timing(max_levels=0)


class TestErrors:
    def test_missing_annotation_rejected(self):
        def bad(a) -> "u8":
            return 0
        with pytest.raises(CompileError):
            compile_function(bad)

    def test_unknown_call_rejected(self):
        def bad(a: "u8") -> "u8":
            return helper(a)
        with pytest.raises(CompileError, match="kernels are flat"):
            compile_function(bad)

    def test_dynamic_range_rejected(self):
        def bad(n: "u8") -> "u8":
            total = 0
            for i in range(n):
                total = total + 1
            return total
        with pytest.raises(CompileError, match="statically unrolled"):
            compile_function(bad)

    def test_undefined_variable_rejected(self):
        def bad(a: "u8") -> "u8":
            return a + nowhere
        with pytest.raises(CompileError):
            compile_function(bad)

    def test_bad_annotation_rejected(self):
        def bad(a: "float64") -> "u8":
            return 0
        with pytest.raises(CompileError):
            compile_function(bad)

    def test_return_arity_checked(self):
        def bad(a: "u8") -> ("u8", "u8"):
            return a
        with pytest.raises(CompileError, match="arity"):
            compile_function(bad)


class TestThreads:
    def test_parallel_circuits_resource_sum(self):
        designs, total = compile_threads([add_mul, add_mul])
        single = designs[0].resources()
        assert len(designs) == 2
        # abs=1 absorbs the half-LUT rounding difference between
        # round(2x) and 2*round(x).
        assert total.logic == pytest.approx(2 * single.logic, rel=0.01,
                                            abs=1)


def reference_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 999), st.integers(1, 999))
def test_property_compiled_gcd_matches_python(a, b):
    """Compiled-hardware semantics match the software semantics."""
    design = compile_function(gcd)
    (result,), _, _ = design.run(a=a, b=b, max_cycles=500000)
    assert result == reference_gcd(a, b)
