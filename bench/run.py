"""The benchmark's one command.

    python3 bench/run.py --seed 12                     # all workloads
    python3 bench/run.py --seed 12 --aa                # two sets, compared
    python3 bench/run.py --workload mc_bin_hot --seed 3 --seconds 20 --trace 0

With ``--workload`` and ``--trace`` it is the contract form: one
workload, either the end-to-end metrics (``--trace 0``, tracing off)
or the per-layer metrics (``--trace 1``), and the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Without them it runs every workload both
ways and prints every metric by name with its unit.  The exit code is
non-zero when any reply failed verification.

``--seconds`` sizes the run in rounds of fixed work (about four
seconds each on the 2-vCPU host the benchmark was sized on), not in
time: see README, "noise".
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import layers, wire                               # noqa: E402
from bench.estimator import lower_decile, lower_quartile, \
    quiet_mean                                                # noqa: E402
from bench.workloads import SLICES, WORKLOADS                  # noqa: E402

#: Host seconds one round of fixed work was sized to take.
ROUND_SECONDS = 4
#: Rounds are skipped only past this multiple of ``--seconds`` (and
#: never below three): a valve against a host several times slower
#: than the one the work was sized on, not a way to fit a budget.
OVERRUN = 1.5


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Tally:
    """Requests attempted and failed, over every phase of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def wire_rounds(workload, stream, seed, rounds, slices, seconds, tally,
                sim_frames=None, extra_setups=0):
    """*rounds* rounds of the socket phases, each followed by a sim
    round over *sim_frames* when given; returns ``(rounds, sim_costs,
    setups)``."""
    began = time.monotonic()
    setups = []
    for _ in range(extra_setups):
        setup_s, failed = wire.setup_only(workload, stream)
        setups.append(setup_s)
        tally.add(1, failed)
    done, sim_costs = [], []
    for index in range(rounds):
        if index >= 3 and time.monotonic() - began > seconds * OVERRUN:
            break
        result = wire.run_round(workload, stream, slices)
        tally.add(result.attempted, result.failed)
        setups.append(result.setup_s)
        done.append(result)
        if sim_frames is not None:
            costs, attempted, failed = layers.sim_round(
                workload, sim_frames, seed)
            tally.add(attempted, failed)
            sim_costs.append(costs)
    return done, sim_costs, setups


def end_to_end(workload, seed, seconds, slices):
    """The metrics a user of the served system sees; tracing off."""
    tally = Tally()
    stream = workload.stream(seed, slices)
    rounds = max(2, seconds // ROUND_SECONDS)
    done, sim_costs, setups = wire_rounds(
        workload, stream, seed, rounds, slices, seconds, tally,
        sim_frames=layers.sim_frames(workload, stream),
        extra_setups=rounds)
    wall_us = quiet_mean([r.capacity_wall_us for r in done])
    metrics = {
        "goodput_rps": 1e6 / wall_us,
        "server_cpu_us_per_req":
            quiet_mean([r.capacity_server_cpu_us for r in done]),
        "rtt_p50_us": quiet_mean([r.rtt_p50_us for r in done]),
        "setup_s": lower_quartile(setups),
        "server_peak_rss_mb": min(r.peak_rss_mb for r in done),
        "sim_us_per_req": quiet_mean(sim_costs),
    }
    return metrics, tally


def per_layer(workload, seed, seconds, slices, spans_out=None):
    """Where the time and the work go, layer by layer; the socket
    phases run with tracing off as above, then the traced replay."""
    tally = Tally()
    stream = workload.stream(seed, slices)
    rounds = max(2, seconds // (2 * ROUND_SECONDS))
    sim_frames = layers.sim_frames(workload, stream)
    done, sim_costs, _ = wire_rounds(
        workload, stream, seed, rounds, slices, seconds, tally,
        sim_frames=sim_frames)
    server_cpu = quiet_mean([r.capacity_server_cpu_us for r in done])
    driver_cpu = quiet_mean([r.capacity_driver_cpu_us for r in done])
    metrics = {}

    ledger, attempted, failed = layers.opcode_ledger(workload, stream)
    tally.add(attempted, failed)
    metrics.update(ledger)

    traced, spans, attempted, failed = layers.traced_replay(workload,
                                                            stream)
    tally.add(attempted, failed)
    metrics.update(traced)
    if spans_out is not None:
        spans_out[workload.name] = spans.to_json()

    metrics.update(layers.kernel_metrics(workload, stream))
    metrics.update(layers.modeled(workload, stream, seed))
    cost, attempted, failed = layers.cpu_backend_cost(workload, stream)
    tally.add(attempted, failed)
    metrics["services.cpu_backend_us_per_req"] = cost
    metrics["engine.openloop_self_us_per_req"] = quiet_mean(sim_costs) \
        - layers.profile_batch_cost(workload, sim_frames)

    quarter = max(1, slices // 4)
    cpu_by_slice = [min(values) for values
                    in zip(*[r.capacity_server_cpu_us for r in done])]
    metrics.update({
        "serve.self_us_per_req":
            server_cpu - metrics["inprocess.us_per_req"],
        "serve.batch_mean": max(r.batch_mean for r in done),
        "serve.batch1_cpu_us_per_req":
            quiet_mean([r.rtt_server_cpu_us for r in done]),
        "serve.rtt_p95_us": quiet_mean([r.rtt_p95_us for r in done]),
        "serve.cost_drift": sum(cpu_by_slice[-quarter:])
            / sum(cpu_by_slice[:quarter]),
        "loadgen.us_per_req": driver_cpu,
        "loadgen.cpu_share": driver_cpu / (driver_cpu + server_cpu),
        "host.calib_ms": lower_decile(
            [value for r in done for value in r.calib_ms]),
    })
    metrics["loadgen.generator_bound"] = \
        int(metrics["loadgen.cpu_share"] > 0.5)

    added = 0.0
    if workload.baseline is not None:
        # The same stream into the same deployment without the
        # observability toggles; what remains is what obs added.
        baseline, _, _ = wire_rounds(
            WORKLOADS[workload.baseline], stream, seed, rounds, slices,
            seconds, tally)
        added = server_cpu - quiet_mean(
            [r.capacity_server_cpu_us for r in baseline])
    metrics["obs.added_us_per_req"] = added
    metrics["obs.added_share"] = added / (server_cpu - added)
    return metrics, tally


def measure(workload_name, seed, seconds, trace, slices=SLICES,
            spans_out=None):
    """One contract-form run; returns the result object."""
    contract = load_contract()
    workload = WORKLOADS[workload_name]
    if trace:
        values, tally = per_layer(workload, seed, seconds, slices,
                                  spans_out)
        declared = contract["per_layer"]
    else:
        values, tally = end_to_end(workload, seed, seconds, slices)
        declared = contract["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# -- all workloads, for people ------------------------------------------------

def full_set(seed, seconds, slices, names, spans_out=None):
    """Every named workload, both ways; returns
    ``{workload: {"end_to_end": result, "per_layer": result}}``."""
    results = {}
    for name in names:
        results[name] = {
            "end_to_end": measure(name, seed, seconds, 0, slices),
            "per_layer": measure(name, seed, seconds, 1, slices,
                                 spans_out),
        }
        print_workload(name, results[name])
    return results


def print_workload(name, result):
    print("== %s: %s" % (name, WORKLOADS[name].why))
    for section, title in (
            ("end_to_end", "end to end (measured on the wire and host)"),
            ("per_layer", "per layer (modeled.* is virtual time)")):
        run = result[section]
        print("-- %s: %d attempted, %d failed, failed_share %.6f%s"
              % (title, run["attempted"], run["failed"],
                 run["failed"] / run["attempted"],
                 "" if run["correct"] else "  ** INCORRECT **"))
        for metric, entry in run["metrics"].items():
            print("%-38s %14.4f %s" % (metric, entry["value"],
                                       entry["unit"]))
    if result["per_layer"]["metrics"]["loadgen.generator_bound"]["value"]:
        print("** generator_bound: the load generator used more CPU "
              "than the server; goodput measures the generator")
    sys.stdout.flush()


def all_correct(results):
    return all(run["correct"] for result in results.values()
               for run in result.values())


def compare_sets(first, second, contract):
    """Print both sets side by side; returns True when every
    end-to-end metric agrees within its bound and every count
    (``ops.*``, ``modeled.*``) agrees exactly."""
    agree = True
    print("== A/A: two sets of the same code")
    print("%-18s %-24s %12s %12s %8s %6s" % (
        "workload", "metric", "first", "second", "diff", "bound"))
    for name in first:
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            a = first[name]["end_to_end"]["metrics"][metric]["value"]
            b = second[name]["end_to_end"]["metrics"][metric]["value"]
            worse = (b - a) / a if entry["better"] == "lower" \
                else (a - b) / a
            verdict = ""
            if abs(worse) > entry["bound"]:
                agree = False
                verdict = "  ** beyond bound **"
            print("%-18s %-24s %12.4f %12.4f %+7.2f%% %5.1f%%%s" % (
                name, metric, a, b, 100 * worse, 100 * entry["bound"],
                verdict))
        for metric, a in first[name]["per_layer"]["metrics"].items():
            if not metric.startswith(("ops.", "modeled.")):
                continue
            b = second[name]["per_layer"]["metrics"][metric]
            if a["value"] != b["value"]:
                agree = False
                print("%-18s %-24s %r != %r  ** must repeat exactly **"
                      % (name, metric, a["value"], b["value"]))
    return agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default="12")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--aa", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--quick", action="store_true",
                        help="two short slices and two rounds: a smoke "
                             "run, not a measurement")
    parser.add_argument("--out", help="write the results as JSON here")
    parser.add_argument("--trace-out",
                        help="write the traced replay's spans here")
    args = parser.parse_args(argv)

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None \
        else (2 * ROUND_SECONDS if args.quick else contract["run_seconds"])
    slices = 2 if args.quick else SLICES
    cpu = wire.pin_to_one_cpu()
    spans = {} if args.trace_out else None

    if args.workload and args.trace is not None and not args.aa:
        report = measure(args.workload, args.seed, seconds, args.trace,
                         slices, spans)
        ok = report["correct"]
        print(json.dumps(report))
    else:
        names = [args.workload] if args.workload else list(WORKLOADS)
        print("seed %s, %d s of rounds per run, pinned to cpu %s, "
              "loopback only" % (args.seed, seconds, cpu))
        report = full_set(args.seed, seconds, slices, names, spans)
        ok = all_correct(report)
        if args.aa:
            second = full_set(args.seed, seconds, slices, names)
            ok = compare_sets(report, second, contract) and ok \
                and all_correct(second)
            report = {"first": report, "second": second}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    if spans is not None:
        with open(args.trace_out, "w") as handle:
            json.dump(spans, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
