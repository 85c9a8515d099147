"""The reach map: which functions under ``src/repro`` the product runs.

    python tests/reach.py              # rewrite tests/reach_map.tsv

Every entry point the product has (``product_jobs``: the deployment
CLI with each of its options, every service on every backend closed-
and open-loop, ``--serve`` with the external load generator on every
servable service and transport, ``repro.obs.validate`` on what those
runs wrote, every ``examples/*.py``, the four ``bench/`` workloads at
``--trace 0`` and ``--trace 1``, and the paper-table suites in
``benchmarks/``) runs in a child interpreter whose ``sitecustomize``
installs a call-event tracer (``sys.settrace`` and
``threading.settrace``; no ``coverage``).  The tier-1 suites run
alongside, traced the same way.  Each ``def`` under ``src/repro``
becomes one row of ``tests/reach_map.tsv``:

* ``product``   - some product entry point called it;
* ``test-only`` - only the tests called it;
* ``never``     - nothing called it.

A non-product row carries one reason from ``REASONS``, assigned by the
first matching rule of ``RULES``.  A non-product function no rule
covers is an error: delete it, or give it a product caller.
``tests/test_reach.py`` checks the map against the source tree
statically, so a new function fails tier-1 until the map has it.

Three things the tracer has to get right:

* a call made while a ``src/repro`` module body is executing (an
  import) is not reach: ``X = make(...)`` at module level proves only
  that the module was imported;
* ``benchmarks/`` runs with ``--benchmark-disable``: pytest-benchmark
  otherwise runs the measured function outside the tracer's sight;
* every CLI option runs at least once, some only in combination
  (``--analyze`` with ``--profile`` is the only caller of
  ``TraceAnalysis.flamegraph_text``).

The wire benchmark's server (``bench/server_child.py``) sets its own
``PYTHONPATH``, so it runs untraced.  It reaches nothing the in-process
phases of the same workloads do not, so the map does not lose a row to
it.  The load generator launched by ``--serve --loadgen`` inherits the
environment and is traced.

The ``note`` column says ``import`` when the product called the function
only while importing a module (it builds a table some product code
reads, or nothing reads it).  Two children run at a time.  Nothing in
the map depends on wall-clock timing: two runs write the same bytes.
"""

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
MAP_PATH = os.path.join(ROOT, "tests", "reach_map.tsv")
OUT_ENV = "REACH_TRACE_DIR"

CLASSES = ("product", "test-only", "never")

#: Why a function the product does not run stays.
REASONS = {
    "paper-api": "the paper's library and the services' control "
                 "surface: protocol accessors, IP blocks and hand "
                 "netlists, the Kiwi runtime, the store, the bit "
                 "utilities, the iptables verbs",
    "reference": "a reference implementation, or an entry or "
                 "observation point, that tests hold the product "
                 "against",
    "safety": "an error path, guard or protocol case for input the "
              "product's workloads never send",
    "protocol": "declares, overrides or implements a method or "
                "callback that product code calls on some other class",
    "kernel": "a service kernel: the Kiwi frontend compiles its "
              "source and never calls it",
    "roadmap": "a named open ROADMAP item is its caller",
    "repr": "a __repr__, or a builder-level node's text for one",
}

#: ``(path glob, qualname glob, reason)``; the first match wins.  Paths
#: are relative to ``src/repro``.  A rule applies only to functions the
#: product does not run.
RULES = [
    ("*", "*__repr__", "repr"),
    ("kiwi/builder.py", "*._text", "repr"),
    ("services/*", "*_kernel", "kernel"),
    ("harness/ablations.py", "pause_density_vs_timing.<locals>.*",
     "kernel"),
    # The library (paper section 3) and the services' control surface.
    ("ip/*", "*", "paper-api"),
    ("net/*", "*", "paper-api"),
    ("core/*", "*", "paper-api"),
    ("kiwi/runtime.py", "*", "paper-api"),
    ("services/kvcache.py", "*", "paper-api"),
    ("utils/bitutil.py", "*", "paper-api"),
    ("services/iptables_cli.py", "IptablesCli.*", "paper-api"),
    ("services/filter_l3l4.py", "L3L4Filter.delete", "paper-api"),
    ("services/filter_l3l4.py", "L3L4Filter.flush", "paper-api"),
    ("rtl/expr.py", "Expr.*", "paper-api"),       # hand netlists, 3.2 (i)
    ("rtl/expr.py", "reduce_*", "paper-api"),
    ("rtl/expr.py", "eq_any", "paper-api"),
    # References, and the points tests observe the product through.
    ("rtl/simulator.py", "*", "reference"),
    ("engine/pipelined.py", "*", "reference"),
    ("verify.py", "*", "reference"),
    ("harness/optimization.py", "KernelCase.__init__", "reference"),
    ("harness/optimization.py", "_*_frame", "reference"),
    ("harness/optimization.py", "_filter_rule_memories", "reference"),
    ("engine/compiler.py", "compile_kernel", "reference"),
    ("engine/compiler.py", "CompiledKernel.source", "reference"),
    ("engine/compiler.py", "CompiledKernel.*_memory", "reference"),
    ("engine/compiler.py", "CompiledKernel.memory_image", "reference"),
    ("engine/sched.py", "Scheduler.pending", "reference"),
    ("targets/pipeline.py", "NetfpgaPipeline.receive", "reference"),
    ("targets/pipeline.py", "NetfpgaPipeline.arbitrate", "reference"),
    ("targets/pipeline.py", "NetfpgaPipeline.occupancy", "reference"),
    ("targets/fpga.py", "FpgaTimingModel.latency_ns", "reference"),
    ("targets/fpga.py", "FpgaTimingModel.service_time_ns", "reference"),
    ("cluster/ring.py", "HashRing.assignments", "reference"),
    ("cluster/ring.py", "HashRing.load_counts", "reference"),
    ("cluster/ring.py", "HashRing.imbalance", "reference"),
    ("cluster/target.py", "ClusterTarget.live_shards", "reference"),
    ("cluster/target.py", "ClusterTarget.pending_replication",
     "reference"),
    ("kiwi/compiler.py", "TimingReport.latency_cycles", "reference"),
    ("kiwi/opt/pipeline.py", "PipelineSchedule.speedup", "reference"),
    # Error paths and inputs the workloads never send.
    ("errors.py", "*", "safety"),
    ("serve/loadgen.py", "_oldest_pending", "safety"),
    ("serve/server.py", "SocketServer._internal_error", "safety"),
    ("serve/server.py", "SocketServer._refuse", "safety"),
    ("serve/spec.py", "ServeSpec.transports", "safety"),
    ("engine/compiler.py", "CompiledKernel._timeout", "safety"),
    ("kiwi/builder.py", "_is_const_true", "safety"),
    ("deploy/spec.py", "_Undeclared.__bool__", "safety"),
    ("deploy/spec.py", "_no_probe.<locals>.request", "safety"),
    ("services/nat.py", "NatService._translate_icmp", "safety"),
    # Declarations and overrides of what product code calls.
    ("services/base.py", "EmuService.on_frame", "protocol"),
    ("*", "*.reset", "protocol"),     # ClusterTarget.restore_shard
    ("deploy/backends.py", "Backend.*", "protocol"),
    ("deploy/backends.py", "NetsimBackend.attach_faults", "protocol"),
    ("deploy/backends.py", "NetsimBackend.partition", "protocol"),
    ("deploy/backends.py", "NetsimBackend.heal", "protocol"),
    ("netsim/faults.py", "FaultyLink.take_down", "protocol"),
    ("netsim/faults.py", "FaultyLink.bring_up", "protocol"),
    ("netsim/faults.py", "FaultPlan.partition", "protocol"),
    ("netsim/faults.py", "FaultPlan.heal", "protocol"),
    ("kiwi/opt/passes.py", "Pass.run", "protocol"),
    ("netsim/node.py", "Node.receive", "protocol"),
    ("direction/controller.py", "VariableAccessor.write", "protocol"),
    ("direction/controller.py", "Controller._write_var", "protocol"),
    ("rtl/*.py", "*._key", "protocol"),
    # Open ROADMAP items: 4(b) phase spans, 4(d) the trace summary's
    # envelope.
    ("obs/trace.py", "TraceRecorder.span", "roadmap"),
    ("obs/analyze.py", "TraceAnalysis.to_dict", "roadmap"),
]

# -- the source tree ---------------------------------------------------------

def source_defs(package=PACKAGE):
    """``[(path, qualname, line)]`` for every ``def`` under *package*,
    in path then source order.  *qualname* is the function's
    ``__qualname__``, suffixed ``#2``, ``#3`` ... when a module defines
    the same one again (a property's setter); *line* is its code
    object's ``co_firstlineno`` (the first decorator's line)."""
    rows = []
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            filename = os.path.join(directory, name)
            path = os.path.relpath(filename, package).replace(os.sep, "/")
            with open(filename) as handle:
                tree = ast.parse(handle.read(), filename)
            found = []
            _walk(tree, "", found)
            counts = {}
            for qualname, line in sorted(found, key=lambda row: row[1]):
                counts[qualname] = counts.get(qualname, 0) + 1
                if counts[qualname] > 1:
                    qualname = "%s#%d" % (qualname, counts[qualname])
                rows.append((path, qualname, line))
    return rows


def _walk(node, prefix, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            lines = [child.lineno] + [decorator.lineno
                                      for decorator in child.decorator_list]
            found.append((qualname, min(lines)))
            _walk(child, qualname + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, prefix + child.name + ".", found)
        else:
            _walk(child, prefix, found)


def reason_for(path, qualname):
    """The reason ``RULES`` gives a non-product function, or ``None``."""
    for path_glob, name_glob, reason in RULES:
        if fnmatch.fnmatchcase(path, path_glob) and \
                fnmatch.fnmatchcase(qualname.split("#")[0], name_glob):
            return reason
    return None


def read_map(path=MAP_PATH):
    """``[(path, qualname, class, reason, note)]`` from the map."""
    rows = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            rows.append(tuple(fields + [""] * (5 - len(fields))))
    return rows


# -- the tracer (runs in every child) ----------------------------------------

def install(out_dir):
    """Record, until exit, every ``src/repro`` function this process
    calls outside an import; written to *out_dir* as ``<pid>.tsv``."""
    import atexit
    import threading

    package = os.path.realpath(PACKAGE) + os.sep
    seen = {}
    reached = set()
    imported = set()
    in_package = {}

    def inside(code):
        answer = in_package.get(code.co_filename)
        if answer is None:
            answer = os.path.realpath(code.co_filename).startswith(package)
            in_package[code.co_filename] = answer
        return answer

    def importing(frame):
        while frame is not None:
            code = frame.f_code
            if code.co_name == "<module>" and inside(code) and \
                    frame.f_globals.get("__name__") != "__main__":
                return True
            frame = frame.f_back
        return False

    def key(code):
        filename = os.path.realpath(code.co_filename)
        return (os.path.relpath(filename, package).replace(os.sep, "/"),
                code.co_firstlineno)

    def tracer(frame, event, _arg):
        code = frame.f_code
        if id(code) in seen:
            return None
        if not inside(code):
            seen[id(code)] = code
            return None
        if importing(frame.f_back):
            imported.add(key(code))
            return None
        seen[id(code)] = code
        reached.add(key(code))
        return None

    def dump():
        sys.settrace(None)
        with open(os.path.join(out_dir, "%d.tsv" % os.getpid()),
                  "w") as handle:
            for path, line in sorted(reached):
                handle.write("%s\t%d\tcall\n" % (path, line))
            for path, line in sorted(imported - reached):
                handle.write("%s\t%d\timport\n" % (path, line))

    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


_SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_reach_tracer", %r)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.install(os.environ[%r])
"""


# -- the entry points --------------------------------------------------------

def _cli(*args):
    return [sys.executable, "-m", "repro.deploy"] + list(args)


def _validate(*args):
    return [sys.executable, "-m", "repro.obs.validate"] + list(args)


def product_jobs(tmp):
    """``[(name, [(argv, expected exit code)])]``; the commands of one
    job run in order (a validator after the run that wrote its input),
    jobs in parallel."""
    sys.path.insert(0, SRC)
    from repro.services.catalog import registry
    specs = registry()

    def out(name):
        return os.path.join(tmp, name)

    jobs = [("cli-list-matrix", [
        (_cli("--list"), 0),
        (_cli("--matrix", "--requests", "48"), 0),
    ])]
    for name, spec in sorted(specs.items()):
        commands = []
        for backend in spec.backends:
            where = ("--service", name, "--backend", backend)
            traced = out("%s-%s.json" % (name, backend))
            commands += [
                (_cli(*where, "--requests", "64"), 0),
                (_cli(*where, "--arrivals", "poisson", "--qps", "2000000",
                      "--duration-ms", "0.2"), 0),
                (_cli(*where, "--arrivals", "uniform", "--qps", "2000000",
                      "--duration-ms", "0.2", "--trace", traced,
                      "--timeseries", out("%s-%s.tsv" % (name, backend)),
                      "--window-us", "50", "--slo", "p99<=5us,errors<=0.01",
                      "--alerts", out("%s-%s-alerts.json" % (name, backend)),
                      "--analyze"), 0),
                (_validate(traced, "--tsv", traced + ".tsv"), 0),
            ]
            if spec.has_kernel and backend in ("fpga", "multicore",
                                               "cluster"):
                commands += [
                    (_cli(*where, "--opt", "2", "--profile",
                          "--requests", "64"), 0),
                    (_cli(*where, "--opt", "2", "--profile", "--arrivals",
                          "poisson", "--qps", "2000000", "--duration-ms",
                          "0.2", "--analyze"), 0),
                ]
        for level in (0, 1, 2, 3):
            if spec.supports("fpga"):
                commands.append((_cli("--service", name, "--backend",
                                      "fpga", "--opt", str(level),
                                      "--requests", "64"), 0))
        if not spec.serve:
            commands.append((_cli("--service", name,
                                  "--serve", "127.0.0.1:0"), 2))
        jobs.append(("cli-" + name, commands))
    for name, spec in sorted(specs.items()):
        if not spec.serve:
            continue
        commands = []
        for transport in spec.serve.transports:
            tsv, report = out("%s-%s.tsv" % (name, transport)), \
                out("%s-%s.json" % (name, transport))
            commands += [
                (_cli("--service", name, "--serve", "127.0.0.1:0",
                      "--transport", transport, "--loadgen",
                      "qps=400,duration=0.5,process=uniform,tsv=%s,json=%s"
                      % (tsv, report)), 0),
                (_validate("--tsv", tsv, "--report", report), 0),
                (_cli("--service", name, "--serve", "127.0.0.1:0",
                      "--transport", transport, "--loadgen",
                      "mode=closed,requests=40,timeout=1"), 0),
            ]
        jobs.append(("serve-" + name, commands))
    trace, series, alerts = out("t.json"), out("ts.tsv"), out("a.json")
    served_trace, served_alerts = out("st.json"), out("sa.json")
    jobs += [
        ("cli-obs", [
            (_cli("--service", "memcached", "--backend", "cluster",
                  "--shards", "2", "--arrivals", "poisson", "--qps",
                  "2000000", "--duration-ms", "0.5", "--trace", trace,
                  "--timeseries", series, "--window-us", "50", "--slo",
                  "availability>=0.99,p99<=200us,errors<=0.01",
                  "--alerts", alerts, "--analyze"), 0),
            (_validate(trace, "--tsv", trace + ".tsv", "--alerts", alerts,
                       "--summary"), 0),
            (_cli("--service", "memcached", "--backend", "fpga", "--opt",
                  "3", "--arrivals", "poisson", "--qps", "4000000",
                  "--duration-ms", "0.5", "--seed", "7", "--trace",
                  trace, "--timeseries", series, "--analyze", "--slo",
                  "p99<=3us,errors<=0.01", "--slo-rule", "page:14.4:5/60",
                  "--slo-rule", "ticket:6:30/360", "--alerts", alerts,
                  "--profile", "--capacity", "64"), 0),
            (_cli("--service", "memcached", "--backend", "fpga", "--opt",
                  "2", "--level-budget", "24", "--profile",
                  "--requests", "64"), 0),
            (_cli("--service", "memcached", "--backend", "multicore",
                  "--cores", "2", "--arrivals", "uniform", "--qps",
                  "1000000", "--duration-ms", "0.3"), 0),
            (_cli("--service", "memcached", "--serve", "127.0.0.1:0",
                  "--loadgen", "qps=300,duration=0.5", "--trace",
                  served_trace, "--timeseries", out("sts.tsv"),
                  "--window-us", "100000", "--slo",
                  "errors<=0.05,p99<=500000us", "--alerts",
                  served_alerts), 0),
            (_validate(served_trace, "--tsv", served_trace + ".tsv",
                       "--alerts", served_alerts, "--summary"), 0),
            (_cli("--service", "dns", "--serve", "127.0.0.1:0",
                  "--serve-duration", "0.1"), 0),
        ]),
    ]
    examples = sorted(name for name in os.listdir(
        os.path.join(ROOT, "examples")) if name.endswith(".py"))
    jobs.append(("examples", [
        ([sys.executable, os.path.join("examples", name)], 0)
        for name in examples]))
    jobs.append(("bench", [
        ([sys.executable, "bench/run.py", "--workload", workload,
          "--quick", "--seed", "3", "--trace", trace_flag], 0)
        for workload in ("mc_bin_hot", "mc_ascii_wide_set",
                         "dns_tcp_cluster", "mc_bin_hot_obs")
        for trace_flag in ("0", "1")]))
    jobs.append(("benchmarks", [
        ([sys.executable, "-m", "pytest", "benchmarks", "-q",
          "-p", "no:cacheprovider", "--benchmark-disable"], 0)]))
    return jobs


def suite_jobs():
    """The tier-1 suites other than ``benchmarks/`` (which is product)
    and the map's own check (which reads the map this run writes)."""
    return [("tier-1", [
        ([sys.executable, "-m", "pytest", "tests", "bench/tests", "-q",
          "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--ignore", os.path.join("tests", "test_reach.py")], 0)])]


# -- running -----------------------------------------------------------------

def run_jobs(jobs, tmp, site_dir, workers=2):
    """Run ``[(phase, name, commands)]``; returns ``{phase: {"call":
    {(path, line)}, "import": {(path, line)}}}`` and the commands whose
    exit code was not the expected one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([site_dir, SRC])
    logs = os.path.join(tmp, "logs")
    os.mkdir(logs)
    for phase in sorted({job[0] for job in jobs}):
        os.mkdir(os.path.join(tmp, phase))

    def run(job):
        phase, name, commands = job
        child_env = dict(env)
        child_env[OUT_ENV] = os.path.join(tmp, phase)
        problems = []
        for index, (argv, expected) in enumerate(commands):
            log = os.path.join(logs, "%s-%d.log" % (name, index))
            with open(log, "w") as handle:
                code = subprocess.call(argv, cwd=ROOT, env=child_env,
                                       stdin=subprocess.DEVNULL,
                                       stdout=handle, stderr=handle)
            if code != expected:
                with open(log) as handle:
                    tail = handle.read()[-2000:]
                problems.append("%s: exit %d, expected %d: %s\n%s"
                                % (name, code, expected,
                                   " ".join(argv[1:]), tail))
        return problems

    with ThreadPoolExecutor(max_workers=workers) as pool:
        problems = [problem for result in pool.map(run, jobs)
                    for problem in result]
    reached = {}
    for phase in sorted({job[0] for job in jobs}):
        found = reached[phase] = {"call": set(), "import": set()}
        for name in os.listdir(os.path.join(tmp, phase)):
            with open(os.path.join(tmp, phase, name)) as handle:
                for line in handle:
                    path, lineno, how = line.rstrip("\n").split("\t")
                    found[how].add((path, int(lineno)))
    return reached, problems


def build_map(product, tests):
    """Rows ``(path, qualname, class, reason, note)`` and the
    non-product functions no rule covers.  *product* and *tests* map
    ``"call"`` and ``"import"`` to the ``(path, line)`` reached that
    way."""
    rows, uncovered = [], []
    for path, qualname, line in source_defs():
        where = (path, line)
        note = ""
        if where in product["call"]:
            klass = "product"
        elif where in tests["call"]:
            klass = "test-only"
        else:
            klass = "never"
        if klass != "product" and where in product["import"]:
            note = "import"
        reason = ""
        if klass != "product":
            reason = reason_for(path, qualname) or ""
            if not reason:
                uncovered.append("%s::%s (%s)" % (path, qualname, klass))
        rows.append((path, qualname, klass, reason, note))
    return rows, uncovered


def write_map(rows, path=MAP_PATH):
    with open(path, "w") as handle:
        handle.write("# Generated by `python tests/reach.py`; checked by "
                     "tests/test_reach.py.  Do not edit by hand.\n")
        handle.write("# path\tfunction\tclass\treason\tnote\n")
        for row in rows:
            handle.write("\t".join(row).rstrip("\t") + "\n")


def main(argv=None):
    argparse.ArgumentParser(
        description="Regenerate tests/reach_map.tsv.").parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="reach-")
    try:
        site_dir = os.path.join(tmp, "site")
        os.mkdir(site_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w") as handle:
            handle.write(_SITECUSTOMIZE % (os.path.abspath(__file__),
                                           OUT_ENV))
        jobs = [("tests",) + job for job in suite_jobs()] + \
            [("product",) + job for job in product_jobs(tmp)]
        phases, problems = run_jobs(jobs, tmp, site_dir)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            print("an entry point failed; the map is not rewritten",
                  file=sys.stderr)
            return 1
        rows, uncovered = build_map(phases["product"], phases["tests"])
        write_map(rows)
        counts = {klass: sum(1 for row in rows if row[2] == klass)
                  for klass in CLASSES}
        print("%d functions: %s" % (len(rows), ", ".join(
            "%d %s" % (counts[klass], klass) for klass in CLASSES)))
        for name in uncovered:
            print("no reason: %s" % name, file=sys.stderr)
        return 1 if uncovered else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
