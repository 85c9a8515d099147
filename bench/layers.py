"""The in-process phases: what each layer costs, measured from outside.

Nothing under ``src/`` is edited or subclassed.  Layers are timed by
calling their public entry points on the workload's own requests, and
counted by wrapping those entry points *on the instances of one
started deployment* (spans) or by tracing bytecodes (the ledger).
Everything here runs in the benchmark's process, on fresh deployments,
and verifies replies against the same oracle the socket phases use —
so socket and in-process replies are also checked equal to each other.
"""

import sys
import time

from repro.deploy import deploy
from repro.engine import compile_design
from repro.kiwi.compiler import compile_function
from repro.serve.spec import resolve_binding
from repro.services.catalog import SERVICE_IP

#: Requests per ``send_batch`` in the in-process replays.
REPLAY_BATCH = 32
#: Requests the opcode ledger traces, and the traced/untraced replays
#: cover.
LEDGER_REQUESTS = 256
REPLAY_REQUESTS = 4096
#: Arrivals per sim slice (approximate: arrivals are Poisson over a
#: fixed virtual duration), the frames offered for them (a fifth to
#: spare), and slices per sim round.
SIM_ARRIVALS = 1000
SIM_FRAMES = SIM_ARRIVALS * 6 // 5
SIM_SLICES = 4

#: The packages under ``src/repro`` the ledger reports, most specific
#: first; every other file (standard library, the remaining packages)
#: is ``other``.
LAYERS = ("core.protocols", "utils", "core", "services", "ip", "net",
          "engine", "targets", "cluster", "deploy", "obs", "serve")

_cpu = time.process_time_ns


def started(workload, arrivals_qps=None):
    """A fresh started deployment of *workload* and its socket
    binding."""
    builder = workload.deployment()
    if arrivals_qps is not None:
        builder = builder.with_arrivals("poisson", qps=arrivals_qps)
    dep = builder.start()
    return dep, resolve_binding(dep.spec, workload.transport)


def binding_of(workload):
    """The workload's socket binding, without starting anything."""
    return resolve_binding(workload.deployment().spec, workload.transport)


def encap(binding, stream, start, stop):
    return [binding.encap(payload, start + offset) for offset, payload
            in enumerate(stream.payloads[start:stop])]


def replay(dep, binding, stream, start, stop, spans=None):
    """The serving bridge without a socket: ``encap`` ->
    ``send_batch`` -> ``decap`` -> ``wrap_reply`` over requests
    [start, stop); returns ``(cpu_ns, failed)``."""
    failed = 0
    begin = _cpu()
    for base in range(start, stop, REPLAY_BATCH):
        if spans is not None:
            spans.open("replay.batch", "bench", base // REPLAY_BATCH)
        stop_batch = min(base + REPLAY_BATCH, stop)
        results = dep.send_batch(encap(binding, stream, base, stop_batch))
        for index, (emitted, _) in zip(range(base, stop_batch), results):
            if not emitted or binding.wrap_reply(binding.decap(
                    emitted[0][1])) != stream.replies[index]:
                failed += 1
        if spans is not None:
            spans.close()
    return _cpu() - begin, failed


# -- spans ------------------------------------------------------------------

class Spans:
    """Spans kept in memory: ``[name, layer, start_ns, end_ns, parent,
    batch]`` rows, parent being the row index of the enclosing span
    (None at the root) and batch the replay batch they belong to."""

    def __init__(self):
        self.rows = []
        self._stack = []
        self._batch = None

    def open(self, name, layer, batch=None):
        if batch is not None:
            self._batch = batch
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.rows))
        self.rows.append([name, layer, time.perf_counter_ns(), None,
                          parent, self._batch])

    def close(self):
        self.rows[self._stack.pop()][3] = time.perf_counter_ns()

    def wrap(self, name, layer, function):
        def traced(*args, **kwargs):
            self.open(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.close()
        return traced

    def install(self, dep, binding):
        """Wrap the layer boundaries of this one deployment."""
        for attribute in ("encap", "decap", "wrap_reply"):
            setattr(binding, attribute, self.wrap(
                "binding." + attribute, "serve.bridge",
                getattr(binding, attribute)))
        dep.send_batch = self.wrap(
            "Deployment.send_batch", "deploy", dep.send_batch)
        dep.target.send_batch = self.wrap(
            "target.send_batch", "targets", dep.target.send_batch)
        for model in dep.backend.cycle_models():
            model.cycles_batch = self.wrap(
                "cycle_model.cycles_batch", "engine", model.cycles_batch)

    def self_ns_by_layer(self):
        """Per layer, span time not covered by child spans."""
        own = [row[3] - row[2] for row in self.rows]
        for row in self.rows:
            if row[4] is not None:
                own[row[4]] -= row[3] - row[2]
        totals = {}
        for row, self_ns in zip(self.rows, own):
            totals[row[1]] = totals.get(row[1], 0) + self_ns
        return totals

    def to_json(self):
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "batch")
        return [dict(zip(keys, row)) for row in self.rows]


def traced_replay(workload, stream, count=REPLAY_REQUESTS):
    """Untraced then traced replay on two fresh deployments; returns
    ``(metrics, spans, attempted, failed)``."""
    count = min(count, len(stream))
    dep, binding = started(workload)
    plain_ns, failed = replay(dep, binding, stream, 0, count)
    dep.stop()
    dep, binding = started(workload)
    spans = Spans()
    spans.install(dep, binding)
    traced_ns, traced_failed = replay(dep, binding, stream, 0, count,
                                      spans)
    dep.stop()
    own = spans.self_ns_by_layer()
    metrics = {"span.%s_self_us_per_req" % layer:
               own.get(layer, 0) / 1e3 / count
               for layer in ("serve.bridge", "deploy", "targets", "engine")}
    metrics["span.overhead_share"] = traced_ns / plain_ns - 1.0
    metrics["inprocess.us_per_req"] = plain_ns / 1e3 / count
    return metrics, spans, 2 * count, failed + traced_failed


# -- opcode ledger ----------------------------------------------------------

def _layer_of(filename):
    if filename.startswith("<engine"):       # the engine's generated code
        return "engine"
    if filename == __file__:
        return None                          # the replay loop itself
    marker = filename.rfind("/repro/")
    if marker >= 0:
        module = filename[marker + 7:].replace("/", ".")
        for layer in LAYERS:
            if module.startswith(layer + "."):
                return layer
    return "other"


def opcode_ledger(workload, stream, count=LEDGER_REQUESTS):
    """Bytecodes executed per request, by the layer whose code
    executed them, over one replay of *count* requests (after as many
    untraced ones, so that lazily generated code exists).  A count,
    not a time: it repeats exactly, and it omits what C code costs.
    Returns ``(metrics, attempted, failed)``."""
    dep, binding = started(workload)
    _, warm_failed = replay(dep, binding, stream, 0, count)
    by_file = {}

    def tracer(frame, event, _arg):
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            name = frame.f_code.co_filename
            by_file[name] = by_file.get(name, 0) + 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        _, failed = replay(dep, binding, stream, count, 2 * count)
    finally:
        sys.settrace(previous)
    dep.stop()
    by_layer = dict.fromkeys(LAYERS + ("other",), 0)
    for filename, opcodes in by_file.items():
        layer = _layer_of(filename)
        if layer is not None:
            by_layer[layer] += opcodes
    metrics = {"ops.%s_per_req" % layer: opcodes / count
               for layer, opcodes in by_layer.items()}
    metrics["ops.total_per_req"] = sum(by_layer.values()) / count
    return metrics, 2 * count, warm_failed + failed


# -- sim phase --------------------------------------------------------------

def sim_slices(stream):
    """Sim slices the stream has requests for (all of them, except in
    a ``--quick`` run)."""
    return min(SIM_SLICES, len(stream) // SIM_FRAMES)


def sim_frames(workload, stream):
    """The frames the sim phase offers, one list per slice, built once
    per run."""
    binding = binding_of(workload)
    return [encap(binding, stream, index * SIM_FRAMES,
                  (index + 1) * SIM_FRAMES)
            for index in range(sim_slices(stream))]


def sim_round(workload, slices, seed):
    """One fresh deployment through ``run_open_loop`` once per slice;
    returns ``(host_us_per_completed, attempted, failed)`` with one
    cost per slice.  A request fails when it was offered and not
    answered (dropped at a queue or by the service)."""
    dep, _ = started(workload, arrivals_qps=workload.sim_qps)
    duration_ms = SIM_ARRIVALS / workload.sim_qps * 1e3
    costs = []
    attempted = failed = 0
    for index, frames in enumerate(slices):
        begin = _cpu()
        report = dep.run_open_loop(duration_ms=duration_ms, frames=frames,
                                   seed="%s/%d" % (seed, index))
        spent = _cpu() - begin
        costs.append(spent / 1e3 / max(report.completed, 1))
        attempted += report.offered
        failed += report.offered - len(report.latencies_ns)
    dep.stop()
    return costs, attempted, failed


def modeled(workload, stream, seed):
    """The cycle model's own (virtual-time) figures: open-loop p99 and
    achieved rate over every sim slice's arrivals in one run at the
    frozen offered rate, and the modeled maximum for the workload's
    read/write mix.  Deterministic; never mixed with host time."""
    dep, binding = started(workload, arrivals_qps=workload.sim_qps)
    slices = sim_slices(stream)
    count = SIM_ARRIVALS * slices
    frames = encap(binding, stream, 0, SIM_FRAMES * slices)
    report = dep.run_open_loop(
        duration_ms=count / workload.sim_qps * 1e3, frames=frames,
        seed=seed)
    is_write = dep.spec.is_write or (lambda frame: False)
    read = next(frame for frame in frames if not is_write(frame))
    write = next((frame for frame in frames if is_write(frame)), None)
    maximum = dep.max_qps(read, write, workload.write_ratio)
    dep.stop()
    return {"modeled.p99_us": report.p99_latency_us(),
            "modeled.achieved_kqps": report.achieved_qps / 1e3,
            "modeled.max_kqps": maximum / 1e3}


# -- stand-alone layers -----------------------------------------------------

def profile_batch_cost(workload, slices):
    """``Backend.open_loop_profile_batch`` alone on the sim frames:
    what the sim phase costs without the scheduler, queues and report
    of ``run_open_loop``.  Host us per request."""
    dep, _ = started(workload)
    frames = [frame.copy() for group in slices for frame in group]
    begin = _cpu()
    for base in range(0, len(frames), 64):
        dep.backend.open_loop_profile_batch(frames[base:base + 64])
    spent = _cpu() - begin
    dep.stop()
    return spent / 1e3 / len(frames)


def cpu_backend_cost(workload, stream, count=REPLAY_REQUESTS):
    """The behavioural service and codecs alone (``cpu`` backend: no
    cycle model, no timing); returns ``(host_us_per_request,
    attempted, failed)``."""
    dep = deploy(workload.service).on("cpu").start()
    binding = resolve_binding(dep.spec, workload.transport)
    count = min(count, len(stream))
    spent, failed = replay(dep, binding, stream, 0, count)
    dep.stop()
    return spent / 1e3 / count, count, failed


def kernel_metrics(workload, stream, count=1024):
    """The workload's flat kernel through the compiler and the engine
    alone: cold compile time, FSM size, initiation interval, and the
    scalar and lockstep-batched executors on the workload's frames."""
    begin = time.perf_counter_ns()
    design = compile_function(workload.kernel,
                              opt_level=workload.opt_level)
    compile_ms = (time.perf_counter_ns() - begin) / 1e6
    depth = dict(design.spec.memory_params)["frame"].depth
    images = []
    for frame in encap(binding_of(workload), stream, 0,
                       min(count, len(stream))):
        image = list(frame.data)[:depth]
        images.append(image + [0] * (depth - len(image)))
    scalars = {"my_ip": SERVICE_IP}

    kernel = compile_design(design)
    begin = _cpu()
    for image in images:
        kernel.run(memories={"frame": image}, **scalars)
    scalar_us = (_cpu() - begin) / 1e3 / len(images)

    kernel = compile_design(design, batch=64)
    begin = _cpu()
    for base in range(0, len(images), 64):
        kernel.run_batch([(scalars, {"frame": image})
                          for image in images[base:base + 64]])
    batch_us = (_cpu() - begin) / 1e3 / len(images)
    batches = kernel.lockstep_batches + kernel.fallback_batches
    return {"kiwi.compile_ms": compile_ms,
            "kiwi.states": design.timing.state_count,
            "kiwi.ii": design.timing.achieved_ii or 0,
            "engine.scalar_us_per_req": scalar_us,
            "engine.batch_us_per_req": batch_us,
            "engine.lockstep_share": kernel.lockstep_batches / batches}
