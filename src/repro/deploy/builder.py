"""The fluent deployment builder — the package's front door.

    from repro.deploy import deploy

    dep = (deploy("memcached")
           .on("cluster", shards=8, policy=PrimaryReplica(1))
           .with_opt(2)
           .with_seed(7)
           .with_faults(plan)
           .start())
    dep.send_batch(frames)
    print(dep.metrics.snapshot(), dep.describe())

``deploy()`` accepts a registry name, a :class:`ServiceSpec`, or a
bare service factory (wrapped into an ad-hoc spec), so harnesses with
one-off service variants use the same API as registry services.  All
configuration happens before :meth:`Deployment.start`; after it the
deployment is live and ``send``/``send_batch``/``run`` feed a uniform
:class:`~repro.deploy.metrics.Metrics`.
"""

from repro.deploy.backends import resolve_backend
from repro.deploy.metrics import Metrics
from repro.deploy.spec import ServiceSpec
from repro.engine.batch import LANES
from repro.engine.openloop import ArrivalSpec, run_open_loop
from repro.errors import TargetError
from repro.harness.report import render_table
from repro.obs.analyze import analyze_trace
from repro.obs.series import TimeSeries
from repro.obs.slo import SloMonitor, SloSpec
from repro.obs.trace import TraceRecorder

VALID_OPT_LEVELS = (None, 0, 1, 2, 3)


class DeploymentConfig:
    """Resolved configuration handed to the backend adapter."""

    def __init__(self, seed=1, opt_level=None, fault_plan=None,
                 backend_kwargs=None, level_budget=None):
        self.seed = seed
        self.opt_level = opt_level
        self.fault_plan = fault_plan
        self.backend_kwargs = dict(backend_kwargs or {})
        self.level_budget = level_budget

    def get(self, key, default=None):
        return self.backend_kwargs.get(key, default)


class Deployment:
    """One service on one backend, configured fluently."""

    def __init__(self, spec):
        self.spec = spec
        self._backend_name = "cpu"
        self._backend_kwargs = {}
        self._opt_level = None
        self._level_budget = None
        self._batch = LANES
        self._seed = 1
        self._fault_plan = None
        self._arrivals = None
        self._profile = False
        self._series_window_ns = None
        self.backend = None
        self.injector = None
        self.metrics = Metrics()
        #: The last :class:`~repro.engine.openloop.OpenLoopReport`
        #: produced by :meth:`run_open_loop`.
        self.open_loop = None
        #: The :class:`~repro.obs.trace.TraceRecorder` installed by
        #: :meth:`with_trace` (``None`` = tracing off, zero cost).
        self.tracer = None
        #: The :class:`~repro.obs.series.TimeSeries` of the last
        #: :meth:`run_open_loop` when :meth:`with_timeseries` is on.
        self.timeseries = None
        self._slo_spec = None
        #: The :class:`~repro.obs.slo.SloMonitor` of the last
        #: :meth:`run_open_loop` when :meth:`with_slo` is on.
        self.slo = None
        #: The monitor's :class:`~repro.obs.slo.AlertLog` (same run).
        self.alert_log = None
        #: The :class:`~repro.serve.server.SocketServer` of the last
        #: :meth:`serve` call (``None`` until served).
        self.server = None

    # -- fluent configuration ----------------------------------------------

    def _require_not_started(self):
        if self.backend is not None:
            raise TargetError("deployment is already started")

    def on(self, backend_name, **backend_kwargs):
        """Choose the backend (cpu / fpga / multicore / cluster /
        netsim) and its scale knobs (``shards=``, ``cores=``,
        ``ports=``, ``policy=``, ...)."""
        self._require_not_started()
        resolve_backend(backend_name)        # fail fast on typos
        if not self.spec.supports(backend_name):
            raise TargetError(
                "service %r does not support backend %r (supported: %s)"
                % (self.spec.name, backend_name,
                   ", ".join(self.spec.backends)))
        self._backend_name = backend_name
        self._backend_kwargs = dict(backend_kwargs)
        return self

    def with_opt(self, opt_level, level_budget=None):
        """Kiwi middle-end level for compiled-kernel cycle counting.

        ``-O3`` adds the initiation-interval pipelining analysis: the
        backend's ``max_qps`` and open-loop service model then use the
        kernel's achieved II as the sustained service interval.
        *level_budget* overrides the timing budget (logic levels per
        cycle, default 48) that bounds -O2 state fusion and gates -O3
        pipelining — a tighter budget makes the middle-end *refuse*
        those transforms rather than mis-report timing."""
        self._require_not_started()
        if opt_level not in VALID_OPT_LEVELS:
            raise TargetError("opt_level must be one of %r"
                              % (VALID_OPT_LEVELS,))
        if level_budget is not None:
            level_budget = int(level_budget)
            if level_budget < 1:
                raise TargetError("level_budget must be >= 1 (or None)")
        self._opt_level = opt_level
        self._level_budget = level_budget
        return self

    def with_batch(self, batch):
        """Upper bound on how many requests one dispatch hands the
        backend: :meth:`run_open_loop`'s burst (only where routing is
        fixed for the run: what waits, then arrivals that cannot be
        refused) and :meth:`serve`'s drain group.  Default: the
        engine's lane count.  It selects no code path and changes no
        observable — replies, cycle counts, admission, drops and every
        latency are the same at any width."""
        self._require_not_started()
        if not isinstance(batch, int) or batch < 1:
            raise TargetError("batch must be an integer >= 1")
        self._batch = batch
        return self

    def with_seed(self, seed):
        """The single source of randomness, threaded to every adapter
        (arbiter jitter, per-core/per-shard streams, fault links)."""
        self._require_not_started()
        self._seed = int(seed)
        return self

    def with_arrivals(self, process="poisson", qps=1_000_000.0,
                      capacity=None):
        """Open-loop arrival process for :meth:`run_open_loop`:
        ``"poisson"`` (seeded exponential gaps) or ``"uniform"``
        (fixed gaps) at *qps*, with per-server ingest queues of
        *capacity* (default: the NetFPGA pipeline's ingress FIFO
        depth, so model and pipeline agree on where tail-drop
        starts)."""
        self._require_not_started()
        if capacity is None:
            from repro.targets.pipeline import INPUT_QUEUE_DEPTH
            capacity = INPUT_QUEUE_DEPTH
        self._arrivals = ArrivalSpec(process, qps, capacity=capacity)
        return self

    def with_faults(self, plan):
        """A :class:`~repro.netsim.faults.FaultPlan` to wire at start
        (cluster: a window-pumped injector on ``.injector``; netsim:
        armed on the simulator's event loop)."""
        self._require_not_started()
        self._fault_plan = plan
        return self

    def with_trace(self, tracer=None):
        """Record a virtual-time trace: request spans from open-loop
        runs, fault/health/membership instant events from the backend,
        on one :class:`~repro.obs.trace.TraceRecorder` (provided or
        created here; on ``self.tracer``, export with
        ``tracer.write_json(path)``)."""
        self._require_not_started()
        self.tracer = tracer if tracer is not None \
            else TraceRecorder(process=self.spec.name)
        return self

    def with_timeseries(self, window_us=100.0):
        """Sample open-loop runs into a windowed time-series
        (qps, window p50/p99, live queue depths, drops) every
        *window_us* of virtual time; the series of the last run lands
        on ``self.timeseries``."""
        self._require_not_started()
        window_ns = int(window_us * 1000)
        if window_ns <= 0:
            raise TargetError("time-series window must be positive")
        self._series_window_ns = window_ns
        return self

    def with_slo(self, spec):
        """Judge every open-loop run against an
        :class:`~repro.obs.slo.SloSpec`: a streaming
        :class:`~repro.obs.slo.SloMonitor` consumes each closed
        time-series window (one is sampled at ``spec.window_us`` when
        :meth:`with_timeseries` is not already on), burn-rate alerts
        land in ``self.alert_log``, and — when :meth:`with_trace` is
        also on — every alert transition is mirrored as an instant
        event on the trace timeline.  *spec* must be finished: each
        run's monitor reads its rules once, at construction."""
        self._require_not_started()
        if not isinstance(spec, SloSpec):
            raise TargetError("with_slo wants an SloSpec, got %r"
                              % (spec,))
        if not spec.objectives:
            raise TargetError("SLO spec %r declares no objectives"
                              % (spec.name,))
        self._slo_spec = spec
        return self

    def with_profile(self):
        """Attribute kernel cycles per FSM state: every compiled
        kernel the backend builds runs its counting twin, and
        :meth:`kernel_profile` renders the hotspot table.  Requires
        :meth:`with_opt` and a service with a flat kernel (start()
        fails fast otherwise)."""
        self._require_not_started()
        self._profile = True
        return self

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Instantiate the backend; returns the live deployment."""
        self._require_not_started()
        config = DeploymentConfig(seed=self._seed,
                                  opt_level=self._opt_level,
                                  fault_plan=self._fault_plan,
                                  backend_kwargs=self._backend_kwargs,
                                  level_budget=self._level_budget)
        backend_cls = resolve_backend(self._backend_name)
        self.backend = backend_cls(self.spec, config)
        self.backend.start()
        if self._profile:
            self.backend.enable_profiling()
        if self.tracer is not None:
            self.backend.attach_tracer(self.tracer)
        if self._fault_plan is not None:
            self.injector = self.backend.attach_faults(self._fault_plan)
            if self.tracer is not None:
                self.injector.tracer = self.tracer
        return self

    def inject_faults(self, plan):
        """Attach a fault plan to a *live* deployment — the post-start
        twin of :meth:`with_faults`, for plans that need the built
        target first (e.g. picking a victim from the actual shard
        ids).  Returns the injector (also on ``.injector``)."""
        self._require_started()
        self._fault_plan = plan
        self.injector = self.backend.attach_faults(plan)
        if self.tracer is not None:
            self.injector.tracer = self.tracer
        return self.injector

    def stop(self):
        """Release the backend (the deployment can be restarted)."""
        if self.backend is not None:
            self.backend.stop()
            self.backend = None
            self.injector = None

    @property
    def started(self):
        return self.backend is not None

    def _require_started(self):
        if self.backend is None:
            raise TargetError("deployment is not started "
                              "(call .start() first)")

    @property
    def target(self):
        """The underlying target object (for target-specific surface:
        shard membership, ring statistics, pipeline counters)."""
        self._require_started()
        return self.backend.target

    # -- dispatch -----------------------------------------------------------

    def send(self, frame):
        """One request; returns ``(emitted, latency_ns)`` uniformly."""
        self._require_started()
        emitted, latency_ns, core_cycles, _ = self.backend.send(frame)
        self.metrics.record(emitted, latency_ns, core_cycles)
        return emitted, latency_ns

    def send_batch(self, frames):
        """A request list, handed over whole where the target takes one."""
        self._require_started()
        record = self.metrics.record
        results = []
        for emitted, latency_ns, core_cycles, _ in \
                self.backend.send_batch(frames):
            record(emitted, latency_ns, core_cycles)
            results.append((emitted, latency_ns))
        self.metrics.record_batch()
        return results

    def run(self, frames=None, count=256, seed=None, **options):
        """Drive a workload (default: the spec's) through the backend;
        returns the populated :class:`Metrics`."""
        self._require_started()
        if frames is None:
            frames = self.spec.workload(
                count, seed if seed is not None else self._seed,
                **options)
        for frame in frames:
            self.send(frame.copy())
        return self.metrics

    def run_open_loop(self, duration_ms=1.0, frames=None, seed=None,
                      **options):
        """Drive the configured arrival process for *duration_ms* of
        virtual time; returns the
        :class:`~repro.engine.openloop.OpenLoopReport` (also kept on
        ``self.open_loop``).

        Arrivals are independent of completions (open loop), so queues
        form in front of the backend's service engines and the report's
        p50/p99 come from actual waiting — overload shows up as queue
        depth and tail-drops, not as a stretched closed-form average.
        Requests come from the spec's default workload unless *frames*
        is given.
        """
        self._require_started()
        if self._arrivals is None:
            raise TargetError(
                "no arrival process configured; call "
                ".with_arrivals(process, qps=...) before start()")
        duration_ns = int(duration_ms * 1e6)
        if duration_ns <= 0:
            raise TargetError("duration must be positive")
        seed = self._seed if seed is None else seed
        if frames is None:
            frames = (lambda count:
                      self.spec.workload(count, seed, **options)
                      if count else [])
        self.open_loop = run_open_loop(
            self.backend, self._arrivals, frames, duration_ns,
            seed=seed, tracer=self.tracer, series=self._new_series(),
            injector=self.injector, batch=self._batch)
        return self.open_loop

    def _new_series(self):
        """The run's :class:`~repro.obs.series.TimeSeries` (``None``
        when neither :meth:`with_timeseries` nor :meth:`with_slo` is
        on), with a fresh SLO monitor observing its windows."""
        window_ns = self._series_window_ns
        if window_ns is None and self._slo_spec is not None:
            window_ns = int(self._slo_spec.window_us * 1000)
        if window_ns is None:
            return None
        self.timeseries = series = TimeSeries(window_ns=window_ns)
        if self._slo_spec is not None:
            self.slo = SloMonitor(self._slo_spec, tracer=self.tracer)
            self.alert_log = self.slo.alert_log
            series.observers.append(self.slo.on_window)
        return series

    def serve(self, host="127.0.0.1", port=0, transport=None,
              capacity=None):
        """Put the started deployment behind a real loopback socket.

        Binds the service's declared transport (see the registry
        ``serve=`` capability) on *host*:*port* (``port=0`` picks a
        free one) and returns the running
        :class:`~repro.serve.server.SocketServer` — drive it with
        ``python -m repro.serve.loadgen`` or any real client, then
        call ``server.stop()``.  *capacity* bounds each server's
        queue, as :meth:`with_arrivals`' does in a simulated run.
        The observability toggles compose exactly as for
        :meth:`run_open_loop`: :meth:`with_trace` records the same
        admit→queue→dispatch→reply span families,
        :meth:`with_timeseries` / :meth:`with_slo` run windowed
        metrics and burn-rate alerting over the socket traffic.
        """
        self._require_started()
        from repro.serve.server import SocketServer
        server = SocketServer(self, host=host, port=port,
                              transport=transport,
                              series=self._new_series(),
                              capacity=capacity, batch=self._batch)
        server.start()
        self.server = server
        return server

    def kernel_profile(self):
        """The merged per-FSM-state cycle profile across the backend's
        compiled kernels (:meth:`with_profile` must be on)."""
        self._require_started()
        return self.backend.kernel_profile()

    def analysis(self):
        """Post-run trace analytics
        (:class:`~repro.obs.analyze.TraceAnalysis`): per-request
        critical-path decomposition, p50-vs-p99 tail attribution, and
        — when :meth:`with_profile` is on — the FSM-state flamegraph.
        Needs :meth:`with_trace` plus a traced :meth:`run_open_loop`."""
        if self.tracer is None:
            raise TargetError(
                "nothing to analyze: record a trace first "
                "(.with_trace() before start, then run_open_loop)")
        profile = None
        if self._profile and self.backend is not None:
            profile = self.backend.kernel_profile()
        return analyze_trace(self.tracer, profile=profile)

    # -- models -------------------------------------------------------------

    def max_qps(self, read_frame, write_frame=None, write_ratio=0.0):
        """Model-based sustainable throughput for a read/write mix."""
        self._require_started()
        return self.backend.max_qps(read_frame, write_frame, write_ratio)

    def stats(self):
        """Uniform metrics snapshot + backend-specific counters."""
        self._require_started()
        merged = self.metrics.snapshot()
        merged["backend"] = self._backend_name
        merged["service"] = self.spec.name
        merged.update(self.backend.stats())
        return merged

    # -- description --------------------------------------------------------

    def describe(self):
        """An aligned table of what this deployment actually runs —
        harness logs print it so chaos/scaling runs are self-naming."""
        fault_plan = self._fault_plan
        rows = [
            ["service", self.spec.name],
            ["backend", self._backend_name],
            ["scale", self.backend.describe_scale()
             if self.backend else self._static_scale()],
            ["opt level", self._describe_opt()],
            ["seed", str(self._seed)],
            ["fault plan", "%d timed event(s)" % len(fault_plan.events)
             if fault_plan is not None else "none"],
            ["state", "started" if self.started else "configured"],
        ]
        policy = self._backend_kwargs.get("policy")
        if policy is not None:
            rows.insert(3, ["policy", type(policy).__name__])
        if self._arrivals is not None:
            rows.insert(-1, ["arrivals", "%s @ %.0f qps"
                             % (self._arrivals.process,
                                self._arrivals.qps)])
        if self._slo_spec is not None:
            rows.insert(-1, ["slo", "%s (%d objective(s))"
                             % (self._slo_spec.name,
                                len(self._slo_spec.objectives))])
        return render_table(["Parameter", "Value"], rows,
                            title="Deployment: %s on %s"
                                  % (self.spec.name, self._backend_name))

    def _describe_opt(self):
        """What actually runs, not just what was asked for: a started
        backend may not honour the requested level — the service has
        no flat kernel, or the backend (cpu, netsim) has no compiled-
        kernel cycle model at all."""
        if self._opt_level is None:
            return "behavioural"
        if self.backend is not None and self.backend.effective_opt \
                is None:
            return "-O%d (not applied: behavioural)" % self._opt_level
        return "-O%d" % self._opt_level

    def _static_scale(self):
        kwargs = self._backend_kwargs
        for key, unit in (("shards", "shards"), ("cores", "cores"),
                          ("ports", "ports")):
            if key in kwargs:
                return "%d %s" % (kwargs[key], unit)
        return "default"

    def __repr__(self):
        bits = ["%s on %s" % (self.spec.name, self._backend_name)]
        scale = self._static_scale()
        if scale != "default":
            bits.append(scale)
        if self._opt_level is not None:
            bits.append("-O%d" % self._opt_level)
        bits.append("seed=%d" % self._seed)
        if self._fault_plan is not None:
            bits.append("faults=%d" % len(self._fault_plan.events))
        bits.append("started" if self.started else "configured")
        return "<Deployment %s>" % ", ".join(bits)


def deploy(service, name=None):
    """Start building a deployment.

    *service* is a registry name (``"memcached"``), a
    :class:`ServiceSpec`, or a bare service factory (wrapped into an
    ad-hoc spec named *name*).
    """
    if isinstance(service, ServiceSpec):
        return Deployment(service)
    if isinstance(service, str):
        from repro.services import registry
        specs = registry()
        if service not in specs:
            raise TargetError("unknown service %r (registry has: %s)"
                              % (service, ", ".join(sorted(specs))))
        return Deployment(specs[service])
    if callable(service):
        return Deployment(ServiceSpec.adhoc(
            name or getattr(service, "__name__", "service"), service))
    raise TargetError("deploy() wants a registry name, a ServiceSpec, "
                      "or a service factory; got %r" % (service,))
