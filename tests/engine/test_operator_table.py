"""Per-operator semantics of the generated code, pinned to the table.

One tiny kernel per ``BinOp``/``UnOp``/``Slice``/``Concat``/``Mux``/
memory operation: the front-end compiles a two-state template, the
test swaps the result expression (and memory writes) for the node
under test, and every driver — one-lane ``run``, 8-lane ``run_batch``
(per-lane operands, then lane-uniform operands that hoist out of the
lane loop), ``run_stream`` with requests in flight — must reproduce
``repro.rtl.expr.eval_binop``/``eval_unop`` and the interpreted
:class:`~repro.rtl.simulator.Simulator` on edge operands.  Constant
operands (folded at compile time) get their own kernels.
"""

import itertools

import pytest

from repro.engine import BatchedKernel
from repro.engine.pipelined import PipelinedKernel
from repro.kiwi.builder import FsmBuilder, MemReadRef, VarRef, zext
from repro.kiwi.codegen import generate
from repro.kiwi.compiler import CompiledDesign, compute_timing
from repro.kiwi.frontend import parse_function
from repro.kiwi.opt import analyze_pipeline
from repro.rtl.expr import (
    BinOp, Concat, Const, Mux, Slice, UnOp, eval_binop, eval_unop,
)

WIDTH = 16
DEPTH = 5                     # not a power of two: addresses 5..7 miss
A = VarRef("a", WIDTH)
B = VarRef("b", WIDTH)

#: all-zero, one, a shift >= width on either side of it, sign bit,
#: all-ones, and two ordinary values.
EDGES = [0, 1, 15, 16, 17, 0x00FF, 0x8000, 0xFFFF, 0x1234]
PAIRS = list(itertools.product(EDGES, EDGES))

BINOPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%",
          "==", "!=", "<", "<=", ">", ">="]
UNOPS = ["~", "|r", "&r", "^r", "!"]


def _template(frame: "mem[5]x16", table: "mem[5]x16", a: "u16",
              b: "u16") -> "u32":
    x = a + b + frame[0] + table[0]
    pause()
    return x


def _design(result, writes=()):
    """The template with *result* as its return value and *writes*
    (``(memory, addr, data, enable)``) issued one cycle earlier."""
    spec = parse_function(_template)
    builder = FsmBuilder(spec)
    fsm = builder.build()
    entry = fsm.idle.transition.if_true
    (final,) = [s for s in fsm.states if "__result0" in s.updates]
    assert final is not entry
    final.updates["__result0"] = zext(result, 32)
    entry.writes.extend(writes)
    fsm.pipeline_schedule = analyze_pipeline(fsm, builder.var_widths, spec)
    module = generate(spec, fsm, builder.var_widths)
    return CompiledDesign(spec, fsm, module, compute_timing(fsm))


def _job(a, b):
    return ({"a": a, "b": b},
            {"frame": [(a + i) & 0xFFFF for i in range(DEPTH)]})


def _images(runner):
    return {name: runner.memory_image(name) for name in ("frame", "table")}


def _check(design, pairs, expect=None):
    """Every driver agrees with the interpreter (results, latencies,
    final memories) and, when given, with ``expect(a, b)``."""
    jobs = [_job(a, b) for a, b in pairs]
    warm = [3, 0xFFFF, 0, 7, 0x0100]
    sim = design.simulator()
    for addr, value in enumerate(warm):
        sim.poke_memory("table", addr, value)
    reference = []
    for scalars, memories in jobs:
        results, latency, _ = design.run_on(sim, memories=memories,
                                            **scalars)
        reference.append((results, latency))
    sim_images = {name: [sim.peek_memory(name, addr)
                         for addr in range(DEPTH)]
                  for name in ("frame", "table")}
    if expect is not None:
        assert [results for results, _ in reference] == \
            [(expect(a, b),) for a, b in pairs]

    def fresh(kind, **kwargs):
        kernel = kind(design, **kwargs)
        kernel.load_memory("table", warm)
        return kernel

    one = fresh(BatchedKernel)
    assert [one.run(memories=memories, **scalars)[:2]
            for scalars, memories in jobs] == reference
    assert _images(one) == sim_images
    lanes = fresh(BatchedKernel)
    got = []
    for start in range(0, len(jobs), 8):
        got.extend(lanes.run_batch(jobs[start:start + 8]))
    assert got == reference
    assert lanes.lockstep_batches > 0 and lanes.fallback_batches == 0
    assert _images(lanes) == sim_images
    # Lane-uniform operands: eight lanes of the same scalars hoist the
    # whole expression into the block preamble.
    uniform = fresh(BatchedKernel)
    for scalars, memories in jobs[::7]:
        expected = [uniform.run(memories=memories, **scalars)[:2]]
        assert uniform.run_batch([(scalars, memories)] * 8) == expected * 8
    stream = fresh(PipelinedKernel, depth=4)
    assert [results for results, _, _ in stream.run_stream(jobs)] == \
        [results for results, _ in reference]
    assert _images(stream) == sim_images


@pytest.mark.parametrize("op", BINOPS)
def test_binop(op):
    pairs = PAIRS
    if op == "<<":              # keep the shifted integers small
        pairs = [(a, b) for a, b in PAIRS if b <= 17]
    node = BinOp(op, A, B)
    _check(_design(node), pairs,
           lambda a, b: eval_binop(op, a, b, node.width))


@pytest.mark.parametrize("op", BINOPS)
def test_binop_constant_operands(op):
    """A literal on either side (or both: folded at compile time)."""
    for value in (0, 17, 0xFFFF):
        const = Const(value, WIDTH)
        if not (op == "<<" and value == 0xFFFF):
            node = BinOp(op, A, const)
            _check(_design(node), [(a, 0) for a in EDGES],
                   lambda a, b: eval_binop(op, a, value, node.width))
        node = BinOp(op, const, B)
        _check(_design(node),
               [(0, b) for b in EDGES if op != "<<" or b <= 17],
               lambda a, b: eval_binop(op, value, b, node.width))
        for other in (0, 3, 16):
            node = BinOp(op, const, Const(other, WIDTH))
            _check(_design(node), [(1, 2)],
                   lambda a, b: eval_binop(op, value, other, node.width))


@pytest.mark.parametrize("op", UNOPS)
def test_unop(op):
    node = UnOp(op, A)
    _check(_design(node), [(a, 0) for a in EDGES],
           lambda a, b: eval_unop(op, a, WIDTH, node.width))
    for value in (0, 0xFFFF, 0x0180):
        folded = UnOp(op, Const(value, WIDTH))
        _check(_design(folded), [(1, 2)],
               lambda a, b: eval_unop(op, value, WIDTH, folded.width))


@pytest.mark.parametrize("msb,lsb", [(15, 0), (7, 0), (15, 8), (11, 4),
                                     (0, 0), (15, 15)])
def test_slice(msb, lsb):
    _check(_design(Slice(A, msb, lsb)), [(a, 0) for a in EDGES],
           lambda a, b: (a >> lsb) & ((1 << (msb - lsb + 1)) - 1))
    _check(_design(Slice(Const(0xBEEF, WIDTH), msb, lsb)), [(1, 2)],
           lambda a, b: (0xBEEF >> lsb) & ((1 << (msb - lsb + 1)) - 1))


def test_concat():
    node = Concat([Slice(A, 7, 0), B, Const(5, 4)])
    _check(_design(node), PAIRS,
           lambda a, b: ((a & 0xFF) << 20) | (b << 4) | 5)
    folded = Concat([Const(0xAB, 8), Const(0, 3), Const(1, 1)])
    _check(_design(folded), [(1, 2)], lambda a, b: (0xAB << 4) | 1)


def test_mux():
    node = Mux(Slice(A, 0, 0), B, BinOp("/", B, A))
    _check(_design(node), PAIRS,
           lambda a, b: b if a & 1 else eval_binop("/", b, a, WIDTH))
    for sel in (0, 1):          # constant selector: one arm only
        node = Mux(Const(sel, 1), A, B)
        _check(_design(node), PAIRS[::5], lambda a, b: a if sel else b)


@pytest.mark.parametrize("memory", ["frame", "table"])
def test_memory_read_out_of_range_is_zero(memory):
    """*frame* is a per-lane row, *table* a shared list; both through a
    3-bit address (5..7 miss), a 16-bit one, and literal addresses."""
    for addr in (zext(A, 3), A, Const(4, 3), Const(6, 3)):
        node = MemReadRef(memory, addr, WIDTH)
        _check(_design(node), [(a, 0) for a in list(range(9)) + EDGES])


@pytest.mark.parametrize("memory", ["frame", "table"])
def test_memory_write_out_of_range_is_dropped(memory):
    """Write ``memory[a] = b`` when ``b`` is odd, read it back a cycle
    later; the interpreter's final images pin what was (not) stored."""
    pairs = [(a, b) for a in list(range(9)) + [0xFFFF]
             for b in (0x00F1, 0x0002, 0xFFFF)]
    for addr in (zext(A, 3), A, Const(2, 3), Const(7, 3)):
        for enable in (Slice(B, 0, 0), Const(1, 1), Const(0, 1)):
            design = _design(MemReadRef(memory, addr, WIDTH),
                             writes=[(memory, addr, B, enable)])
            _check(design, pairs)
