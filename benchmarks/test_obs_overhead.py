"""Non-gating-in-CI observability overhead benchmark.

The compiled execution spine is the repo's perf floor; the obs layer
must not erode it when switched off.  Profiling costs two things while
on — the kernel runs its untraced layout, and the driver bumps a
counter per executed state — and must cost nothing once off again:
``state_counts`` back to ``None`` puts the kernel back on the traced
layouts it compiled before.

This bench measures that claim honestly: a kernel whose profiling was
enabled and then disabled against one that never had it on, on the
same warm memcached request stream, replies cross-checked.  The gate
is

    median disabled/baseline ratio >= OVERHEAD_FLOOR     (floor 0.95)

i.e. tracing/profiling off costs at most 5%.  The profiled rate is
also recorded (informational — profiling is expected to cost).

Regression note: the gate used to be a *single* ratio of
best-of-``REPEATS`` rates, which flaked — one scheduler stall
stretching across every baseline pass (the modes run back to back,
so a multi-hundred-ms stall can eat one mode's entire set) produced
a ratio far from 1 in either direction.  The deflaked gate layers
four defences:

* ``ROUNDS`` independent rounds, each round the best of ``PASSES``
  interleaved passes per mode — a stall only ever *lowers* a pass's
  rate, so best-of discards stalled passes within a round, and the
  median across rounds discards any round where stalls swallowed one
  mode whole;
* the mode order *rotates* every pass, so periodic interference
  (GC, timer ticks, a neighbour's cron) cannot phase-lock onto one
  mode;
* the collector is paused (and pre-flushed) around each timed pass;
* the assert accepts *either* estimator of the clean-speed ratio —
  the median of per-round ratios or the ratio of overall-best rates.
  A real regression lowers every pass of the disabled mode, so it
  fails both; noise has to corrupt both independently to flake.

Results land in ``BENCH_obs.json`` at the repo root; the CI obs
job uploads it without gating the merge (timing noise on shared
runners), while this test still gates locally.
"""

import gc
import json
import time
from pathlib import Path

from repro.deploy import deploy
from repro.engine import compile_design
from repro.harness.optimization import memcached_binary_frame
from repro.harness.report import render_table
from repro.kiwi.compiler import compile_function
from repro.obs import SloSpec
from repro.services.memcached import memcached_kernel

OVERHEAD_FLOOR = 0.95
REQUESTS = 1000
ROUNDS = 5
PASSES = 5
MY_IP = 0x0A000001
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _request_stream(count):
    key = b"abc123"
    set_frame = memcached_binary_frame(1, key, bytes(range(8)))
    get_frame = memcached_binary_frame(0, key)
    return [set_frame if index % 2 == 0 else get_frame
            for index in range(count)]


def _one_pass(run_one, frames):
    """One timed pass: (requests/s, replies).  The collector is
    flushed before and paused during the timed region so a cycle
    collection cannot land inside one mode's pass."""
    replies = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for frame in frames:
            replies.append(run_one(frame))
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return len(frames) / elapsed, replies


def _measure_rounds(runners, frames):
    """``ROUNDS`` rounds of best-of-``PASSES`` rps per runner, passes
    interleaved round-robin so machine-wide slowdowns hit every mode
    alike, after one untimed warm-up pass each.  The rotation offset
    advances every pass so no mode always runs in the same cycle
    position.  Returns ``(per_round_bests, warmup_replies)`` — gate
    on the median of the per-round ratios, not on any single round."""
    warmup_replies = [_one_pass(run_one, frames)[1]
                      for run_one in runners]
    per_round = []
    offset = 0
    for _ in range(ROUNDS):
        best = [0.0] * len(runners)
        for _ in range(PASSES):
            for step in range(len(runners)):
                index = (offset + step) % len(runners)
                rps, _ = _one_pass(runners[index], frames)
                best[index] = max(best[index], rps)
            offset += 1
        per_round.append(best)
    return per_round, warmup_replies


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _merge_bench_record(update):
    """Read-modify-write ``BENCH_obs.json`` so the two tests in this
    module (kernel-overhead gate, slo-enabled row) can each land their
    keys without clobbering the other's."""
    try:
        record = json.loads(BENCH_PATH.read_text())
    except (OSError, ValueError):
        record = {}
    record.update(update)
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


def test_disabled_observability_keeps_engine_throughput():
    frames = _request_stream(REQUESTS)
    design = compile_function(memcached_kernel, opt_level=0)

    baseline = compile_design(design)
    disabled = compile_design(design).enable_profiling()
    disabled.run(memories={"frame": list(frames[0])}, my_ip=MY_IP)
    disabled.disable_profiling()
    disabled.reset()
    profiled = compile_design(design).enable_profiling()

    per_round, all_replies = _measure_rounds(
        [lambda frame: baseline.run(
            memories={"frame": list(frame)}, my_ip=MY_IP)[:2],
         lambda frame: disabled.run(
            memories={"frame": list(frame)}, my_ip=MY_IP)[:2],
         lambda frame: profiled.run(
            memories={"frame": list(frame)}, my_ip=MY_IP)[:2]],
        frames)
    baseline_replies, disabled_replies, profiled_replies = all_replies

    # The instrumentation must not change behaviour, only speed.
    assert disabled_replies == baseline_replies == profiled_replies

    ratio = _median([disabled_rps / baseline_rps
                     for baseline_rps, disabled_rps, _ in per_round])
    profiled_ratio = _median([profiled_rps / baseline_rps
                              for baseline_rps, _, profiled_rps
                              in per_round])
    baseline_rps = max(best[0] for best in per_round)
    disabled_rps = max(best[1] for best in per_round)
    profiled_rps = max(best[2] for best in per_round)
    best_ratio = disabled_rps / baseline_rps
    record = {
        "kernel": "memcached",
        "requests": REQUESTS,
        "rounds": ROUNDS,
        "passes": PASSES,
        "baseline_rps": round(baseline_rps, 1),
        "disabled_rps": round(disabled_rps, 1),
        "profiled_rps": round(profiled_rps, 1),
        "disabled_ratio": round(ratio, 4),
        "disabled_best_ratio": round(best_ratio, 4),
        "profiled_ratio": round(profiled_ratio, 4),
        "overhead_floor": OVERHEAD_FLOOR,
    }
    _merge_bench_record(record)

    print()
    print(render_table(
        ["Mode", "Best simulated requests/s", "Median vs baseline"],
        [["never profiled", "%.1f" % baseline_rps, "1.000x"],
         ["profiling on, then off", "%.1f" % disabled_rps,
          "%.3fx" % ratio],
         ["obs profiling", "%.1f" % profiled_rps,
          "%.3fx" % profiled_ratio]],
        title="Observability overhead: memcached kernel "
              "(disabled floor >= %.2fx)" % OVERHEAD_FLOOR))

    # Either honest estimator of the clean-speed ratio clears the
    # gate; a real regression lowers every disabled pass and so fails
    # both (see the regression note in the module docstring).
    gate_ratio = max(ratio, best_ratio)
    assert gate_ratio >= OVERHEAD_FLOOR, (
        "disabled observability costs %.1f%% (> %.0f%% budget; "
        "median %.4f, best-of %.4f); see %s"
        % ((1 - gate_ratio) * 100, (1 - OVERHEAD_FLOOR) * 100,
           ratio, best_ratio, BENCH_PATH))


# -- slo-enabled row ---------------------------------------------------------

SLO_SEED = 11
SLO_PASSES = 3
SLO_DURATION_MS = 0.5
SLO_QPS = 1_500_000.0


def _slo_pass(with_slo):
    """One open-loop pass: (report snapshot, windows seen, alert
    events, wall-rate in virtual requests per wall second).  The
    deployment is rebuilt per pass so compile work never leaks into a
    later pass's timed region."""
    dep = (deploy("memcached").on("fpga").with_seed(SLO_SEED)
           .with_arrivals("poisson", qps=SLO_QPS))
    if with_slo:
        dep = dep.with_slo(
            SloSpec("bench", window_us=20.0)
            .latency_p99(50.0).error_ratio(0.02))
    dep.start()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        report = dep.run_open_loop(duration_ms=SLO_DURATION_MS)
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    snapshot = report.snapshot()
    windows = dep.slo.windows_seen if with_slo else 0
    alerts = len(dep.alert_log) if with_slo else 0
    dep.stop()
    return snapshot, windows, alerts, report.completed / elapsed


def test_slo_monitor_is_invisible_to_the_report():
    """The streaming SLO monitor rides the TimeSeries observer hook —
    per window, not per request — so switching it on must leave the
    open-loop report byte-for-byte identical.  That is the gate; the
    measured rate is the informational slo-enabled row in
    ``BENCH_obs.json``."""
    plain = [_slo_pass(False) for _ in range(SLO_PASSES)]
    judged = [_slo_pass(True) for _ in range(SLO_PASSES)]

    # Fidelity gate: the monitor observes, it never perturbs.
    snapshots = {json.dumps(snap, sort_keys=True)
                 for snap, _, _, _ in plain + judged}
    assert len(snapshots) == 1, \
        "SLO monitoring changed the open-loop report"
    windows = judged[0][1]
    assert windows > 0, "monitor saw no windows"

    plain_rps = max(rate for _, _, _, rate in plain)
    slo_rps = max(rate for _, _, _, rate in judged)
    _merge_bench_record({"slo": {
        "kernel": "memcached",
        "seed": SLO_SEED,
        "duration_ms": SLO_DURATION_MS,
        "offered_qps": SLO_QPS,
        "passes": SLO_PASSES,
        "plain_rps": round(plain_rps, 1),
        "slo_rps": round(slo_rps, 1),
        "slo_ratio": round(slo_rps / plain_rps, 4),
        "windows": windows,
        "alerts": judged[0][2],
    }})

    print()
    print(render_table(
        ["Mode", "Best simulated requests/s", "Report"],
        [["plain open loop", "%.1f" % plain_rps, "baseline"],
         ["slo enabled", "%.1f" % slo_rps,
          "identical (%d windows)" % windows]],
        title="SLO monitor overhead: memcached fpga open loop "
              "(report must not change)"))
