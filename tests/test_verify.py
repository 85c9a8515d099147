"""The one differential harness (``src/repro/verify.py``) held to its
own claims.

* **reach** — the stream a check feeds its legs is measured, not
  assumed: at tier-1's job count it visits >= 70% of every service
  kernel's ``-O0`` FSM states (seeded noise stops at the ethertype
  reject: 2 states);
* **N-way** — six service kernels x ``-O0``..``-O3`` x every kernel
  leg, cold and warm, against the ``-O0`` interpreter, with lockstep
  asserted engaged and overlap asserted wherever the schedule allows;
* **mutation** — a mis-folding optimizer, a lane that is off by one
  and a reply with one byte flipped are each caught, and the mismatch
  names the legs, the job and the word;
* **shrinking** — with the mis-folding optimizer active, hypothesis
  returns a failing stream of <= 2 jobs and a failing generated
  kernel of <= 4 body lines;
* a serving process imports none of this.

Seeded per tests/README: one module SEED, one stream per property.
"""

import inspect
import subprocess
import sys

import pytest
from hypothesis import find, settings

import strategies
from repro.deploy import conformance
from repro.engine.compiler import CompiledKernel
from repro.harness.optimization import SERVICE_KERNELS
from repro.kiwi.compiler import compile_function
from repro.kiwi.opt import rewrite
from repro.rtl.expr import Const
from repro.verify import (
    MAX_CYCLES, WHOLE, Deployed, Divergence, Interpreter, Lockstep,
    OneLane, Pipelined, check, cut, job_streams,
)

SEED = "verify-1"
#: Tier-1's job count: per shape, so a check runs twice this many jobs.
JOBS = 12
RAGGED = (1, 5, 2, 17, 3)

IDS = [case.name for case in SERVICE_KERNELS]
#: Kernels whose -O3 schedule is feasible (see tests/kiwi/test_pipeline).
OVERLAPPING = {"ICMP echo", "memcached GET", "NAT outbound"}


def _visited(subject, streams):
    """Per non-idle ``-O0`` FSM state: did any job of *streams* run it?"""
    kernel = CompiledKernel(compile_function(
        getattr(subject, "kernel", subject), opt_level=0))
    kernel.enable_profiling()
    for stream in streams:
        kernel.reset()
        for scalars, memories in stream:
            kernel.run(MAX_CYCLES, memories, **scalars)
    return [count > 0 for count in kernel.state_counts[1:]]


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=IDS)
def test_streams_reach_the_kernel(case):
    visited = _visited(case, job_streams(case, JOBS, "%s/reach" % SEED))
    assert sum(visited) >= 0.7 * len(visited), visited
    # What a bare kernel gets — dictionary noise — is the edge of the
    # space: the entry state and the ethertype reject (the four-state
    # switch has no header check to stop at).
    noise = _visited(case.kernel,
                     job_streams(case.kernel, JOBS, "%s/reach" % SEED))
    assert sum(noise) < sum(visited) or case.name == "switch"


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=IDS)
def test_every_leg_at_every_level(case):
    """21 legs, one reference: cells no pairwise check covered
    (lockstep at -O1/-O3, pipelined vs the interpreter, warm
    cross-level streams) are compared, not merely run."""
    legs = [leg for level in range(4) for leg in (
        Interpreter(level), OneLane(level), Lockstep(level, RAGGED),
        Lockstep(level, (8,)), Pipelined(level, 8))]
    legs.append(Pipelined(3, 4))        # below -O3 issue is serial anyway
    report = check(case, legs,
                   job_streams(case, JOBS, "%s/n-way" % SEED)).require()
    assert report.runs == 2 * JOBS and report.skipped == 0
    for name, counters in report.legs.items():
        assert counters["cycles"] > 0, name
        if name.startswith("lockstep"):
            assert counters["lockstep_batches"] > 0, name
        if name.startswith("pipelined"):
            feasible = "-O3" in name and case.name in OVERLAPPING
            assert (counters["achieved_ii"] is not None) == feasible, name
            assert (counters["peak_in_flight"] >= 2) == feasible, name
    for level in range(4):              # same level, same cycles
        assert len({counters["cycles"]
                    for name, counters in report.legs.items()
                    if "-O%d" % level in name
                    and not name.startswith("pipelined")}) == 1


# -- mutation: what the harness must catch -----------------------------------

@pytest.fixture
def misfold(monkeypatch):
    """``0 | x`` folds to ``0`` instead of ``x`` (the optimizer's own
    proof reported ok on five of six service kernels with this in)."""
    fold = rewrite._fold_binop

    def mutant(node):
        if node.op == "|" and rewrite._is_const(node.lhs, 0) \
                and not rewrite._is_const(node.rhs):
            return Const(0, node.width)
        return fold(node)

    monkeypatch.setattr(rewrite, "_fold_binop", mutant)


@pytest.mark.parametrize(
    "case", [case for case in SERVICE_KERNELS if case.name != "DNS"],
    ids=[name for name in IDS if name != "DNS"])
def test_optimizer_leg_pair_catches_a_misfold(case, misfold):
    report = check(case, [Interpreter(0), Interpreter(2)],
                   job_streams(case, JOBS, "%s/misfold" % SEED))
    assert not report.ok
    first = report.mismatches[0]
    assert (first.leg, first.against) == ("interpreter -O2",
                                          "interpreter -O0")
    assert 0 <= first.job < JOBS
    # The word: a result index, or memory name + first differing address.
    name, _, index = first.what.rstrip("]").partition("[")
    assert name == "result" or name in dict(
        compile_function(case.kernel).spec.memory_params), first
    assert index.isdigit() and first.got != first.expected
    with pytest.raises(Divergence, match="leg='interpreter -O2'"):
        report.require()


class _OffByOne(Lockstep):
    """Lane 3 of the first wide burst returns its first result + 1."""

    def run(self, jobs):
        out = super().run(jobs)
        if len(out) > 3:
            results = out[3][0]["result"]
            out[3][0]["result"] = (results[0] + 1,) + results[1:]
        return out


def test_a_wrong_lane_is_pinned_to_its_leg_and_job():
    case = SERVICE_KERNELS[IDS.index("NAT outbound")]
    wrong = _OffByOne(2, (8,))
    legs = [Interpreter(0), OneLane(2), Lockstep(2, RAGGED), wrong,
            Pipelined(3, 4)]
    report = check(case, legs, job_streams(case, JOBS, "%s/lane" % SEED))
    (only,) = report.mismatches         # every other leg is clean
    assert (only.leg, only.against) == (wrong.name, "interpreter -O0")
    # The cold streams are one job long; the warm one is stream JOBS.
    assert (only.stream, only.job, only.what) == (JOBS, 3, "result[0]")
    assert only.got == only.expected + 1


def test_a_flipped_reply_byte_turns_its_matrix_cell(monkeypatch):
    class Flipped(Deployed):
        def run(self, frames):
            out = super().run(frames)
            if self.label == "fpga -O2":
                (port, data), *rest = out[2][0]["result"]
                data = data[:40] + bytes([data[40] ^ 1]) + data[41:]
                out[2][0]["result"] = ((port, data), *rest)
            return out

    monkeypatch.setattr(conformance, "Deployed", Flipped)
    results, text = conformance.run_matrix(count=8,
                                           services=["memcached"])
    row = results["memcached"]
    assert (row["fpga -O2"].job, row["fpga -O2"].what) == (2, "result[0]")
    assert [cell for label, cell in row.items()
            if label != "fpga -O2"] == ["ok"] * 5
    assert text.splitlines()[-1].split() == [
        "memcached", "ok", "ok", "MISMATCH", "ok", "ok", "ok"]


# -- shrinking: counter-examples come back small -----------------------------

def test_a_failing_stream_shrinks_to_two_jobs(misfold):
    case = SERVICE_KERNELS[IDS.index("NAT outbound")]
    legs = [Interpreter(0), Interpreter(2)]
    stream = find(strategies.job_streams_of(case),
                  lambda jobs: not check(case, legs, [jobs]).ok,
                  settings=settings(strategies.SETTINGS, max_examples=200))
    assert len(stream) <= 2


def test_a_failing_generated_kernel_shrinks_to_four_lines(misfold):
    def diverges(kernel):
        return not check(kernel, [Interpreter(0), Interpreter(2)],
                         job_streams(kernel, 2, "%s/shrink" % SEED)).ok

    kernel = find(strategies.kernels(max_statements=2), diverges,
                  settings=settings(strategies.SETTINGS, max_examples=1000))
    body = inspect.getsource(kernel).splitlines()[1:]
    assert len(body) <= 4, body


# -- the harness's own rules -------------------------------------------------

def spin(n: "u32") -> "u32":
    i = 0
    while i < n:
        i = i + 1
        pause()
    return i


def test_a_job_the_reference_cannot_finish_is_skipped():
    """250 000 iterations are over the per-job cycle budget on the
    first leg, so the job is skipped on every leg (and truncates a
    warm stream), not reported as a mismatch."""
    quick, slow = ({"n": 3}, {}), ({"n": 250000}, {})
    report = check(spin, [OneLane(0), OneLane(2), Lockstep(0, WHOLE)],
                   [[quick], [slow], [quick, slow, quick]])
    assert report.ok
    assert (report.runs, report.skipped) == (2, 3)
    assert report.legs["one-lane -O2"]["cycles"] < \
        report.legs["one-lane -O0"]["cycles"] == \
        report.legs["lockstep -O0 whole"]["cycles"]


def test_nothing_compared_is_not_ok():
    report = check(spin, [OneLane(0), OneLane(2)], [])
    assert not report.ok
    with pytest.raises(Divergence, match="no comparable runs"):
        report.require()


def test_cost_is_compared_only_under_equal_timing_keys():
    class Slower(OneLane):
        def run(self, jobs):
            return [(seen, cost + 1) for seen, cost in super().run(jobs)]

    streams = [[({"n": 3}, {})]]
    report = check(spin, [Interpreter(0), Slower(0)], streams)
    (only,) = report.mismatches
    assert (only.what, only.got - only.expected) == ("cost", 1)
    exempt = Slower(0)
    exempt.timing = None
    assert check(spin, [Interpreter(0), exempt], streams).ok


def test_cut_cycles_through_its_sizes():
    assert list(cut(list(range(7)), (1, 3))) == [[0], [1, 2, 3], [4],
                                                  [5, 6]]
    assert list(cut([1, 2, 3], WHOLE)) == [[1, 2, 3]]


# -- a serving process does not import verification code ---------------------

_SERVE = """
import socket, sys
from repro.deploy import deploy
from repro.serve.spec import resolve_binding
dep = deploy("memcached").on("fpga").with_opt(3).start()
server = dep.serve()
binding = resolve_binding(dep.spec, "udp")
payload, expected = binding.probe(7, 0)
with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
    sock.settimeout(5.0)
    sock.connect(server.address)
    sock.send(binding.wrap(payload))
    assert sock.recv(65535) == bytes(binding.wrap_reply(expected))
server.stop()
dep.stop()
print(sorted(name for name in sys.modules
             if name in ("repro.verify", "repro.engine.pipelined",
                         "repro.deploy.conformance", "hypothesis")))
"""


def test_serving_imports_no_verification_code():
    done = subprocess.run([sys.executable, "-c", _SERVE], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
