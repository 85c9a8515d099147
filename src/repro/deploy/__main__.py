"""CLI demo driver: deploy any registered service on any backend.

    python -m repro.deploy --service memcached --backend fpga \\
        --opt 2 --requests 1000
    python -m repro.deploy --service memcached \\
        --serve 127.0.0.1:11211 --serve-duration 10
    python -m repro.deploy --service dns --backend cluster \\
        --serve 127.0.0.1:0 --loadgen qps=2000,duration=2
    python -m repro.deploy --list
    python -m repro.deploy --matrix --requests 32

Built entirely on :func:`repro.services.catalog` +
:class:`~repro.deploy.builder.Deployment` — the CLI contains no
target-specific code, which is the point.
"""

import argparse
import subprocess
import sys
import time

from repro.deploy.builder import deploy
from repro.errors import ServeError
from repro.harness.report import render_table
from repro.obs.slo import SloSpec
from repro.services.catalog import registry

#: ``--serve`` exit code when the serving bridge itself raised (see
#: ``SocketServer.first_internal_error``) — distinct from argparse's 2
#: and the load generator's 7 / 13 / 17, which win when non-zero.
INTERNAL_ERROR_EXIT_CODE = 23


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.deploy",
        description="Deploy a registered service on any backend and "
                    "drive its default workload through it.")
    parser.add_argument("--service", default="memcached",
                        help="registry name (see --list)")
    parser.add_argument("--backend", default="cpu",
                        help="cpu | fpga | multicore | cluster | netsim")
    parser.add_argument("--opt", type=int, default=None,
                        help="Kiwi opt level for compiled-kernel cycle "
                             "counting (0, 1, 2 or 3; 3 adds "
                             "initiation-interval pipelining, which "
                             "raises modeled max_qps)")
    parser.add_argument("--level-budget", type=int, default=None,
                        help="timing budget in logic levels per cycle "
                             "for -O2 fusion and -O3 pipelining "
                             "(default 48; tighter budgets block "
                             "fusion/pipelining rather than "
                             "mis-reporting timing)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--arrivals", default=None,
                        choices=["poisson", "uniform"],
                        help="drive an open-loop arrival process "
                             "instead of the closed-loop replay")
    parser.add_argument("--qps", type=float, default=1_000_000.0,
                        help="open-loop arrival rate (with --arrivals)")
    parser.add_argument("--duration-ms", type=float, default=1.0,
                        help="open-loop run length in simulated "
                             "milliseconds (with --arrivals)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="per-server ingest queue depth "
                             "(with --arrivals; default: the NetFPGA "
                             "ingress FIFO depth)")
    parser.add_argument("--serve", metavar="HOST:PORT", default=None,
                        help="serve the deployment behind a real "
                             "loopback socket (port 0 picks a free "
                             "one) instead of replaying a workload; "
                             "drive it with python -m "
                             "repro.serve.loadgen or any real client")
    parser.add_argument("--transport", default=None,
                        choices=["udp", "tcp"],
                        help="socket transport (with --serve; "
                             "default: the service's primary one)")
    parser.add_argument("--serve-duration", type=float, default=None,
                        help="serve for this many seconds then stop "
                             "(with --serve; default: until the "
                             "--loadgen run finishes, or until ^C)")
    parser.add_argument("--loadgen", metavar="K=V,...", default=None,
                        help="launch the external load generator as a "
                             "subprocess against the served socket, "
                             "e.g. 'qps=2000,duration=2,"
                             "tsv=/tmp/lat.tsv,json=/tmp/report.json' "
                             "(keys are repro.serve.loadgen flags; "
                             "with --serve); the loadgen verdict "
                             "becomes this command's exit code (a "
                             "clean verdict over a server that hit "
                             "its own bug exits 23)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a virtual-time trace and write "
                             "Chrome trace JSON (Perfetto-loadable) "
                             "to PATH; PATH.tsv gets the flat export")
    parser.add_argument("--timeseries", metavar="PATH", default=None,
                        help="sample an open-loop run into a windowed "
                             "TSV time-series at PATH "
                             "(with --arrivals)")
    parser.add_argument("--window-us", type=float, default=100.0,
                        help="time-series window length "
                             "(with --timeseries)")
    parser.add_argument("--slo", metavar="SPEC", default=None,
                        help="judge the open-loop run against an SLO "
                             "spec: comma-separated objectives "
                             "'p99<=200us,errors<=0.01,"
                             "availability>=0.999' (with --arrivals); "
                             "prints the burn-rate verdict and alert "
                             "timeline")
    parser.add_argument("--slo-rule", metavar="SEV:BURN:FAST/SLOW",
                        action="append", default=None,
                        help="replace the default burn rules, e.g. "
                             "'page:14.4:5/60' (repeatable; "
                             "with --slo)")
    parser.add_argument("--alerts", metavar="PATH", default=None,
                        help="write the run's alert log as "
                             "deterministic JSON to PATH, and TSV to "
                             "PATH.tsv (with --slo)")
    parser.add_argument("--analyze", action="store_true",
                        help="print post-run trace analytics: "
                             "critical-path decomposition and "
                             "p50-vs-p99 tail attribution (implies "
                             "--trace recording; with --arrivals)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute kernel cycles per FSM state "
                             "and print the hotspot table "
                             "(needs --opt)")
    parser.add_argument("--shards", type=int, default=8,
                        help="cluster backend width")
    parser.add_argument("--cores", type=int, default=4,
                        help="multicore backend width")
    parser.add_argument("--list", action="store_true",
                        help="list registered services and exit")
    parser.add_argument("--matrix", action="store_true",
                        help="print the backend-conformance matrix "
                             "and exit")
    return parser


def _list_services():
    specs = registry()
    rows = [[name, ", ".join(spec.backends), spec.description]
            for name, spec in sorted(specs.items())]
    return render_table(["Service", "Backends", "Description"], rows,
                        title="Registered services")


def _parse_slo(text, rule_args, window_us):
    """Build an :class:`SloSpec` from the CLI's declarative strings
    (``p99<=200us,errors<=0.01,availability>=0.999`` plus optional
    ``sev:burn:fast/slow`` rule overrides); raises ``ValueError`` with
    a usable message on malformed input."""
    spec = SloSpec("cli-slo", window_us=window_us)
    for part in text.split(","):
        part = part.strip()
        for separator in ("<=", ">=", "="):
            if separator in part:
                key, _, value = part.partition(separator)
                break
        else:
            raise ValueError("objective %r has no threshold "
                             "(want key<=value)" % (part,))
        key = key.strip().lower()
        value = value.strip().lower()
        if key in ("p99", "latency_p99", "p99_us"):
            if value.endswith("us"):
                value = value[:-2]
            spec.latency_p99(float(value))
        elif key in ("errors", "error_ratio", "drops"):
            spec.error_ratio(float(value))
        elif key in ("availability", "avail"):
            spec.availability(float(value))
        else:
            raise ValueError(
                "unknown objective %r (have: p99, errors, "
                "availability)" % (key,))
    for rule in rule_args or []:
        try:
            severity, burn, windows = rule.split(":")
            fast, slow = windows.split("/")
        except ValueError:
            raise ValueError("rule %r is not SEV:BURN:FAST/SLOW"
                             % (rule,))
        spec.rule(severity.strip(), float(burn), int(fast), int(slow))
    return spec


def _backend_kwargs(args):
    if args.backend == "cluster":
        return {"shards": args.shards}
    if args.backend == "multicore":
        return {"cores": args.cores}
    return {}


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.list:
        print(_list_services())
        return 0
    if args.matrix:
        from repro.deploy.conformance import run_matrix
        count = min(args.requests, 64)
        if count < args.requests:
            print("(--requests clamped to %d for the matrix; every "
                  "cell replays the full trace that many times)"
                  % count)
        _, text = run_matrix(count=count, seed=args.seed)
        print(text)
        return 0

    dep = deploy(args.service).on(args.backend,
                                  **_backend_kwargs(args))
    dep.with_seed(args.seed)
    if args.level_budget is not None and args.opt is None:
        print("--level-budget needs --opt (the budget bounds the "
              "compiled kernel's schedule)", file=sys.stderr)
        return 2
    if args.opt is not None:
        dep.with_opt(args.opt, level_budget=args.level_budget)
    if args.arrivals is not None:
        dep.with_arrivals(args.arrivals, qps=args.qps,
                          capacity=args.capacity)
    if args.trace is not None or args.analyze:
        dep.with_trace()
    if args.serve is not None and args.arrivals is not None:
        print("--serve and --arrivals are exclusive (a served "
              "deployment gets its load from the socket)",
              file=sys.stderr)
        return 2
    for flag, value in (("--loadgen", args.loadgen),
                        ("--transport", args.transport),
                        ("--serve-duration", args.serve_duration)):
        if value is not None and args.serve is None:
            print("%s needs --serve" % flag, file=sys.stderr)
            return 2
    if args.timeseries is not None:
        if args.arrivals is None and args.serve is None:
            print("--timeseries needs --arrivals or --serve (it "
                  "samples a running workload)", file=sys.stderr)
            return 2
        dep.with_timeseries(window_us=args.window_us)
    if args.alerts is not None and args.slo is None:
        print("--alerts needs --slo (it exports the alert log)",
              file=sys.stderr)
        return 2
    if args.analyze and args.arrivals is None:
        print("--analyze needs --arrivals (it decomposes the "
              "open-loop trace)", file=sys.stderr)
        return 2
    if args.slo is not None:
        if args.arrivals is None and args.serve is None:
            print("--slo needs --arrivals or --serve (objectives "
                  "stream over the run's windows)", file=sys.stderr)
            return 2
        try:
            spec = _parse_slo(args.slo, args.slo_rule, args.window_us)
        except ValueError as error:
            print("bad --slo/--slo-rule: %s" % error, file=sys.stderr)
            return 2
        dep.with_slo(spec)
    if args.profile:
        if args.opt is None:
            print("--profile needs --opt (per-state attribution runs "
                  "on the compiled kernel)", file=sys.stderr)
            return 2
        dep.with_profile()
    if args.serve is not None:
        # Fail the capability check BEFORE spinning up a backend, so
        # unservable services get a clear error instead of a hang.
        try:
            from repro.serve.spec import resolve_binding
            resolve_binding(dep.spec, args.transport)
        except ServeError as error:
            print("cannot serve: %s" % error, file=sys.stderr)
            return 2

    dep.start()
    print(dep.describe())
    print()

    if args.serve is not None:
        code = _run_serve(dep, args)
        dep.stop()
        return code

    if args.arrivals is not None:
        report = dep.run_open_loop(duration_ms=args.duration_ms)
        print(report.text())
        if dep.slo is not None:
            print()
            print(dep.slo.text())
        if args.analyze:
            print()
            print(dep.analysis().text())
        _finish_obs(dep, args)
        dep.stop()
        return 0

    dep.run(count=args.requests)
    snapshot = dep.stats()
    rows = [[key, snapshot[key]] for key in sorted(snapshot)
            if snapshot[key] is not None]
    print(render_table(["Metric", "Value"], rows,
                       title="Run: %d request(s) through %r"
                             % (args.requests, dep)))

    probe = dep.spec.client.request(seed=args.seed)
    emitted, latency_ns = dep.send(probe)
    if emitted:
        port, reply = emitted[0]
        line = "probe reply on port %d: %s" \
            % (port, dep.spec.client.summarize(reply))
        if latency_ns is not None:
            line += "  (%.0f ns)" % latency_ns
        print("\n" + line)
    else:
        print("\nprobe produced no reply (dropped)")
    _finish_obs(dep, args)
    dep.stop()
    return 0


def _parse_endpoint(text):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError("%r is not HOST:PORT" % (text,))
    return host, int(port)


def _loadgen_argv(spec_text, service, host, port):
    """Turn the ``--loadgen k=v,...`` shorthand into the external
    generator's command line (keys map 1:1 to its flags)."""
    argv = [sys.executable, "-m", "repro.serve.loadgen",
            "--service", service, "--host", host,
            "--port", str(port)]
    for pair in (spec_text or "").split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, separator, value = pair.partition("=")
        if not separator or not key.strip():
            raise ValueError("loadgen option %r is not key=value"
                             % (pair,))
        argv += ["--%s" % key.strip(), value.strip()]
    return argv


def _run_serve(dep, args):
    """The --serve flow: bind, optionally drive the external load
    generator, report, and propagate the loadgen verdict — or, when
    that is clean, the server's own (``INTERNAL_ERROR_EXIT_CODE`` if
    its bridge raised anything that was not hostile input)."""
    try:
        host, port = _parse_endpoint(args.serve)
    except ValueError as error:
        print("bad --serve: %s" % error, file=sys.stderr)
        return 2
    try:
        server = dep.serve(host, port, transport=args.transport,
                           capacity=args.capacity)
    except (ServeError, OSError) as error:
        print("cannot serve: %s" % error, file=sys.stderr)
        return 2
    code = 0
    try:
        bound_host, bound_port = server.address
        print("serving %s over %s on %s:%d"
              % (dep.spec.name, server.binding.transport,
                 bound_host, bound_port))
        if args.loadgen is not None:
            try:
                argv = _loadgen_argv(args.loadgen, dep.spec.name,
                                     bound_host, bound_port)
            except ValueError as error:
                print("bad --loadgen: %s" % error, file=sys.stderr)
                return 2
            if args.transport is not None:
                argv += ["--transport", args.transport]
            print("loadgen: %s" % " ".join(argv[2:]))
            code = subprocess.call(argv)
        elif args.serve_duration is not None:
            time.sleep(args.serve_duration)
        else:
            print("(^C to stop)")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
    finally:
        server.stop()
    print()
    print(server.report.text())
    if dep.slo is not None:
        print()
        print(dep.slo.text())
    _finish_obs(dep, args)
    if server.first_internal_error is not None:
        print("the serving bridge raised (first traceback):\n%s"
              % server.first_internal_error, file=sys.stderr)
        code = code or INTERNAL_ERROR_EXIT_CODE
    return code


def _finish_obs(dep, args):
    """Export whatever observability the flags turned on."""
    if args.trace is not None and dep.tracer is not None:
        dep.tracer.write_json(args.trace)
        dep.tracer.write_tsv(args.trace + ".tsv")
        print("\ntrace: %d event(s) -> %s (+ .tsv)"
              % (len(dep.tracer), args.trace))
    if args.timeseries is not None and dep.timeseries is not None:
        dep.timeseries.write_tsv(args.timeseries)
        print("time-series: %d window(s) -> %s"
              % (len(dep.timeseries), args.timeseries))
    if args.alerts is not None and dep.alert_log is not None:
        dep.alert_log.write_json(args.alerts)
        dep.alert_log.write_tsv(args.alerts + ".tsv")
        print("alert log: %d event(s) -> %s (+ .tsv)"
              % (len(dep.alert_log), args.alerts))
    if args.profile:
        print()
        print(dep.kernel_profile().hotspot_table())


if __name__ == "__main__":
    sys.exit(main())
