"""Backend adapters: one ``start/send/send_batch/stop/stats`` protocol
over every execution target.

Each adapter wraps one of the existing target layers — it does not
reimplement them.  The uniform surface is:

* ``start()``                  — build the underlying target(s);
* ``send(frame)``              — one request; returns its *outcome*
  (below);
* ``send_batch(frames)``       — a request list, one outcome per frame
  (backends whose target takes a burst hand it over whole; others
  loop);
* ``stop()``                   — release the target;
* ``stats()``                  — backend-specific counters, merged
  into the deployment's metrics snapshot;
* ``max_qps(read, write, ratio)`` — the model-based throughput
  ceiling, where the target has one;
* ``attach_faults(plan)``      — wire a
  :class:`~repro.netsim.faults.FaultPlan` to whatever fault surface
  the backend has.  The injector's target is backend-specific: the
  ``ClusterTarget`` on the cluster backend (so ``plan.kill_shard``
  etc. work), the backend adapter itself on netsim (its fault verbs
  are ``partition(port)`` / ``heal(port)``).

A request's **outcome** is one plain tuple, ``(emitted, latency_ns,
core_cycles, service_ns)`` — the only record of the request below
:class:`~repro.deploy.builder.Deployment`, whose ``send`` returns its
first two fields and whose ``metrics`` keep the history:

* *emitted* — the ``(port, frame)`` list that left the device;
* *latency_ns* — what the DAG card would time; ``None`` for a drop or
  on a backend without a timing model (cpu);
* *core_cycles* — what the main logical core spent on it: ``0`` for a
  frame refused at ingress, ``None`` where no device core ran (cpu,
  netsim, a cluster timeout);
* *service_ns* — how long the request occupied its server, drops
  included (a rejected frame still held the core; a request a crashed
  shard ate holds its queue for the client's timeout); ``0.0`` without
  a timing model.

The device models (:class:`~repro.targets.fpga.FpgaTarget`,
``MultiCoreTarget``, ``ClusterTarget``) return it and every adapter
passes it up unchanged.

A backend is a :class:`Backend` subclass named in :data:`BACKENDS`; the
:class:`~repro.deploy.builder.Deployment` builder resolves it by name,
so a new execution substrate composes with every registered service
and workload without touching call sites.
"""

from repro.cluster.balancer import flow_key
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.target import ClusterTarget
from repro.errors import TargetError
from repro.netsim import FaultInjector, Network
from repro.targets.cpu import CpuTarget
from repro.targets.fpga import FpgaTarget
from repro.targets.multicore import MultiCoreTarget


def resolve_backend(name):
    try:
        return BACKENDS[name]
    except KeyError:
        raise TargetError("unknown backend %r (have: %s)"
                          % (name, ", ".join(sorted(BACKENDS))))


def _profile(outcome):
    """The open loop's ``(emitted, service_ns, overhead_ns)`` view of
    one outcome."""
    emitted, latency_ns, _, service_ns = outcome
    return (emitted, service_ns, 0.0 if latency_ns is None
            else max(0.0, latency_ns - service_ns))


class Backend:
    """Adapter base: common config handling + default loops."""

    name = "?"

    def __init__(self, spec, config):
        self.spec = spec
        self.config = config
        self.target = None
        #: The opt level the running deployment actually honours;
        #: ``None`` on backends without a compiled-kernel cycle model
        #: (cpu, netsim) or when the service has no flat kernel.
        self.effective_opt = None

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        raise NotImplementedError

    def stop(self):
        self.target = None

    # -- dispatch -----------------------------------------------------------

    def send(self, frame):
        """One request's outcome, as the device model returns it."""
        return self.target.send(frame)

    def send_batch(self, frames):
        """Default: sequential sends (overridden where the target
        takes a burst)."""
        return [self.send(frame) for frame in frames]

    def send_routed(self, frames, server):
        """The outcomes of a burst :meth:`open_loop_servers`' route
        sent, every frame of it, to *server*.  Default: the target
        routes them itself."""
        return self.send_batch(frames)

    # -- observability ------------------------------------------------------

    def _fpga_targets(self):
        """The FpgaTarget instances this backend runs."""
        return []

    def stats(self):
        return {}

    def describe_scale(self):
        """Short human string for the describe() table ("8 shards")."""
        return "1 device"

    def cycle_models(self):
        """The compiled-kernel cycle models this backend runs (empty on
        behavioural / no-timing backends) — the per-FSM-state profiling
        surface."""
        return [target.cycle_model for target in self._fpga_targets()
                if target.cycle_model is not None]

    def enable_profiling(self):
        """Turn on per-FSM-state cycle counting on every compiled
        kernel this backend runs; returns how many kernels are
        profiling (raises when there are none — behavioural counting
        has no states to attribute)."""
        models = self.cycle_models()
        if not models:
            raise TargetError(
                "backend %r has no compiled kernels to profile "
                "(needs with_opt(level) and a service with a flat "
                "kernel)" % (self.name,))
        for model in models:
            model.enable_profiling()
        return len(models)

    def kernel_profile(self):
        """The merged :class:`~repro.obs.profiler.KernelProfile`
        across this backend's kernels (cores / shards run identical
        compiled shapes, so their counts fold)."""
        from repro.obs.profiler import merge_profiles
        models = self.cycle_models()
        if not models:
            raise TargetError(
                "backend %r has no compiled kernels to profile"
                % (self.name,))
        return merge_profiles([model.profile() for model in models])

    def attach_tracer(self, tracer):
        """Hand *tracer*'s instant-event hooks to whatever fault /
        health surfaces this backend has (default: nothing to hook);
        returns the tracer."""
        return tracer

    def open_loop_server_names(self):
        """Human track names for the open-loop tracer, one per
        :meth:`open_loop_servers` server."""
        count, _ = self.open_loop_servers()
        if count == 1:
            return [self.name]
        return ["%s%d" % (self.name, index) for index in range(count)]

    def open_loop_trace_detail(self, frame):
        """Per-request routing detail attached to traced spans
        (cluster: owning shard; multicore: serving core)."""
        return {}

    # -- open-loop load (the engine's queueing model) -----------------------

    def open_loop_servers(self):
        """``(count, route)``: how many parallel service engines this
        backend runs and which one a frame occupies (``None``: no
        server owns it).  Default: one server, everything routes to
        it."""
        return 1, (lambda frame: 0)

    def open_loop_independent(self):
        """Whether, as things stand, each server's outcomes depend on
        the requests routed to it alone, in their order: no server
        writes another and no route can change.  Default: no."""
        return False

    def open_loop_profile_batch(self, frames, server=None):
        """One ``(emitted, service_ns, overhead_ns)`` per frame of a
        burst, in order — the only profile call ``run_open_loop``
        makes; *server* is the index every frame was routed to
        (``None``: route each one here; see :meth:`send_routed`).

        *service_ns* is the time the request occupies its server (the
        queueing resource); *overhead_ns* is the constant wire/PHY time
        that pipelines perfectly and is simply added to the recorded
        latency — whatever of the outcome's latency is not occupancy.
        Backends without a timing model report zero service time (no
        queueing) and their measured latency, if any, as overhead.
        """
        outcomes = self.send_batch(frames) if server is None \
            else self.send_routed(frames, server)
        return [_profile(outcome) for outcome in outcomes]

    # -- models / faults ----------------------------------------------------

    def max_qps(self, read_frame, write_frame=None, write_ratio=0.0):
        raise TargetError("backend %r has no throughput model"
                          % (self.name,))

    def attach_faults(self, plan):
        """Wire a fault plan; returns a FaultInjector or raises."""
        raise TargetError("backend %r has no fault surface"
                          % (self.name,))

    def _effective_opt(self, service):
        """The opt level this service can honour (the table-4 fallback:
        services without a flat kernel keep behavioural counting)."""
        opt_level = self.config.opt_level
        if opt_level is not None and \
                not hasattr(service, "kernel_cycle_model"):
            return None
        return opt_level

    def _effective_opt_for_factory(self):
        """Like :meth:`_effective_opt` for factory-based targets
        (multicore/cluster build their own instances): probes one
        instance for the kernel hook, and only when an opt level was
        actually requested — the common unoptimized path builds
        nothing extra."""
        if self.config.opt_level is None:
            return None
        return self._effective_opt(self.spec.build())

    def _effective_level_budget(self):
        """The timing budget (logic levels per cycle) compiled cycle
        models are built with — only meaningful when an opt level is
        honoured (without one nothing is compiled)."""
        if self.effective_opt is None:
            return None
        return self.config.level_budget


class CpuBackend(Backend):
    """Workflow A: software semantics, no timing model."""

    name = "cpu"

    def start(self):
        self.target = CpuTarget(self.spec.build(),
                                num_ports=self.config.get("ports", 4),
                                seed=self.config.seed)
        return self

    def send(self, frame):
        return self.target.send(frame), None, None, 0.0

    def stats(self):
        return {"frames_processed": self.target.frames_processed}

    def describe_scale(self):
        return "%d ports" % self.config.get("ports", 4)


class FpgaBackend(Backend):
    """One NetFPGA SUME device (cycle/latency/throughput model)."""

    name = "fpga"

    def start(self):
        service = self.spec.build()
        self.effective_opt = self._effective_opt(service)
        self.target = FpgaTarget(service,
                                 num_ports=self.config.get("ports", 4),
                                 seed=self.config.seed,
                                 opt_level=self.effective_opt,
                                 level_budget=self._effective_level_budget())
        return self

    def send_batch(self, frames):
        """The target measures the whole burst's core cycles in one
        lockstep run; per-frame statistics do not depend on how the
        stream is cut (see FpgaTarget.send_batch)."""
        return self.target.send_batch(frames)

    def open_loop_independent(self):
        """One server, and no fault surface (``attach_faults``
        refuses)."""
        return True

    def _fpga_targets(self):
        return [self.target] if self.target else []

    def max_qps(self, read_frame, write_frame=None, write_ratio=0.0):
        read_qps = self.target.max_qps(read_frame.copy())
        if write_frame is None or write_ratio <= 0.0:
            return read_qps
        write_qps = self.target.max_qps(write_frame.copy())
        return 1.0 / (write_ratio / write_qps +
                      (1.0 - write_ratio) / read_qps)

    def stats(self):
        pipeline = self.target.pipeline
        return {"frames_in": pipeline.frames_in,
                "frames_out": pipeline.frames_out,
                "dropped_ingress": pipeline.frames_dropped_ingress,
                "opt_level": self.effective_opt}

    def describe_scale(self):
        return "%d ports" % self.config.get("ports", 4)


class MultiCoreBackend(Backend):
    """N Emu cores, one per port, with write replication (§5.4)."""

    name = "multicore"

    def start(self):
        self.effective_opt = self._effective_opt_for_factory()
        self.target = MultiCoreTarget(
            self.spec.factory,
            num_cores=self.config.get("cores", 4),
            seed=self.config.seed,
            is_write=self.config.get("is_write", self.spec.is_write),
            opt_level=self.effective_opt,
            level_budget=self._effective_level_budget())
        return self

    def open_loop_servers(self):
        return self.target.num_cores, self.target.serving_core

    def open_loop_server_names(self):
        return ["core%d" % index
                for index in range(self.target.num_cores)]

    def open_loop_trace_detail(self, frame):
        return {"core": self.target.serving_core(frame)}

    def _fpga_targets(self):
        return self.target.cores if self.target else []

    def max_qps(self, read_frame, write_frame=None, write_ratio=0.0):
        if write_frame is None:
            write_frame = read_frame
        return self.target.max_qps(read_frame, write_frame, write_ratio)

    def stats(self):
        return {"cores": self.target.num_cores,
                "opt_level": self.effective_opt}

    def describe_scale(self):
        return "%d cores" % self.config.get("cores", 4)


class ClusterBackend(Backend):
    """N sharded devices behind a consistent-hash ring (scale-out)."""

    name = "cluster"

    def start(self):
        self.effective_opt = self._effective_opt_for_factory()
        config = self.config
        self.target = ClusterTarget(
            self.spec.factory,
            num_shards=config.get("shards", 8),
            policy=config.get("policy"),
            is_write=config.get("is_write", self.spec.is_write),
            key_fn=config.get("key_fn", self.spec.key_fn or flow_key),
            vnodes=config.get("vnodes", DEFAULT_VNODES),
            seed=config.seed,
            suspect_after=config.get("suspect_after", 3),
            opt_level=self.effective_opt,
            level_budget=self._effective_level_budget())
        return self

    def send_batch(self, frames):
        return self.target.send_batch(frames)

    def open_loop_servers(self):
        target = self.target
        # Pin shard -> queue index for the whole run: the live order
        # re-sorts on membership changes, which would move a surviving
        # shard onto an evicted one's queue (and trace track) mid-run.
        self._pinned = target.shard_ids
        index_of = {shard_id: index for index, shard_id
                    in enumerate(self._pinned)}

        def route(frame):
            owner = target.owner_of(frame)
            return None if owner is None else index_of.get(owner, 0)
        return target.num_shards, route

    def open_loop_independent(self):
        """No write reaches a second shard, no shard is down (a down
        shard's misses evict it, which moves its keys) and no trace
        hook stamps what a shard does with the time it does it."""
        target = self.target
        return target.event_hook is None and \
            target.policy.replicas_per_write(target.num_shards) == 0 \
            and len(target.live_shards) == target.num_shards

    def send_routed(self, frames, server):
        """The burst runs unrouted on the shard the route pinned to
        *server* (a shard that has since crashed or left re-routes
        each frame, as ``ClusterTarget.send_to`` does).  A shard
        added since has no queue of its own: its keys were queued on
        server 0, so every frame is routed again."""
        target = self.target
        if target.shard_ids != self._pinned:
            return target.send_batch(frames)
        return target.send_to(self._pinned[server], frames)

    def open_loop_server_names(self):
        return self.target.shard_ids

    def open_loop_trace_detail(self, frame):
        owner = self.target.owner_of(frame)
        return {} if owner is None else {"shard": owner}

    def attach_tracer(self, tracer):
        """Cluster membership changes (kills, evictions, rejoins,
        replica applies, timeouts) become instant events on track 0."""
        self.target.event_hook = tracer.hook(cat="cluster")
        return tracer

    def _fpga_targets(self):
        if not self.target:
            return []
        return list(self.target.shards.values())

    def max_qps(self, read_frame, write_frame=None, write_ratio=0.0):
        if write_frame is None:
            write_frame = read_frame
        return self.target.max_qps(read_frame, write_frame, write_ratio)

    def attach_faults(self, plan):
        return FaultInjector(plan, self.target)

    def stats(self):
        target = self.target
        return {"shards": target.num_shards,
                "writes": target.writes,
                "replica_applies": target.replica_applies,
                "failed_requests": target.failed_requests,
                "failovers": target.failovers,
                "load_imbalance": target.load_imbalance()
                if target.requests else None,
                "opt_level": self.effective_opt}

    def describe_scale(self):
        return "%d shards" % self.config.get("shards", 8)


class NetsimBackend(Backend):
    """The Mininet role: the service on a simulated wire.

    The service node gets one simulated host per port (the deploy
    trace's ``src_port`` picks the injecting host), so multi-port
    semantics — NAT's LAN→WAN forwarding, the switch's flooding —
    survive intact: replies come back as ``(port, frame)`` exactly
    like the CPU target's emission list, plus wire latency.
    """

    name = "netsim"

    def start(self):
        config = self.config
        num_ports = config.get("ports", 4)
        self.net = Network()
        service = self.spec.build()
        self.node = self.net.add_service("dut", service,
                                         num_ports=num_ports)
        self.hosts = []
        self.links = []
        for port in range(num_ports):
            host = self.net.add_host("host%d" % port)
            faults = dict(config.get("faults") or {})
            faults.setdefault("seed", config.seed + port)
            self.links.append(self.net.connect(
                host, 0, self.node, port,
                latency_ns=config.get("link_latency_ns", 1000),
                bandwidth_bps=config.get("bandwidth_bps",
                                         10_000_000_000),
                faults=faults))
            self.hosts.append(host)
        self.target = self.node
        return self

    # -- fault verbs (the FaultPlan target on this backend) -----------------

    def partition(self, port):
        """Cut the wire between the simulated host on *port* and the
        service (the ``plan.partition(when, port)`` verb)."""
        self.links[int(port)].take_down()

    def heal(self, port):
        self.links[int(port)].bring_up()

    def send(self, frame):
        if not 0 <= frame.src_port < len(self.hosts):
            raise TargetError("no simulated host on port %d"
                              % frame.src_port)
        start_ns = self.net.now_ns
        self.hosts[frame.src_port].send(frame.copy())
        self.net.run()
        emitted = []
        latest_ns = None
        for port, host in enumerate(self.hosts):
            for reply in host.drain():
                emitted.append((port, reply))
                if latest_ns is None or reply.timestamp_ns > latest_ns:
                    latest_ns = reply.timestamp_ns
        latency_ns = None if latest_ns is None else latest_ns - start_ns
        return emitted, latency_ns, None, 0.0

    def attach_faults(self, plan):
        """Arm *plan* on the simulator's event loop (times are loop
        nanoseconds).  The injector's target is this backend: plans use
        its :meth:`partition` / :meth:`heal` port verbs (there are no
        shards here — shard-verb plans belong on the cluster backend)."""
        injector = FaultInjector(plan, self)
        injector.arm(self.net.loop)
        return injector

    def stats(self):
        return {"frames_handled": self.node.frames_handled,
                "frames_dropped": self.node.frames_dropped,
                "sim_time_ns": self.net.now_ns}

    def describe_scale(self):
        return "%d simulated hosts" % self.config.get("ports", 4)


#: name -> Backend subclass
BACKENDS = {backend.name: backend for backend in (
    CpuBackend, FpgaBackend, MultiCoreBackend, ClusterBackend,
    NetsimBackend)}
