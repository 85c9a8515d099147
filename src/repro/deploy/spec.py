"""``ServiceSpec``: everything a deployment needs to know about a
service, in one declarative object.

The repo's targets all consume the same three ingredients — a way to
build the service, a way to build request frames for it, and a way to
interpret what comes back — but before this package they were scattered
across every harness module as ad-hoc factory/workload tuples.  A spec
bundles them:

* ``factory``     — zero-argument callable returning a fresh service
  instance (each backend instantiates its own copies: one for the CPU
  target, one per core, one per shard);
* ``client``      — a :class:`ProtocolClient`: builds single probe
  requests and summarizes replies (used by the CLI and the tests);
* ``workload``    — ``workload(count, seed, **options)`` returning an
  iterator of request :class:`~repro.net.packet.Frame` objects (the
  service's default benchmark traffic);
* ``trace``       — like ``workload`` but guaranteed *shard-safe*: the
  conformance suite replays it through every backend and demands
  byte-identical replies, so a stateful service's trace must route all
  causally-related frames to one shard (defaults to ``workload``);
* ``is_write``    — classifier for write replication (multicore and
  cluster backends); ``None`` means no frame is a write;
* ``key_fn``      — cluster routing key extractor (defaults to
  :func:`repro.cluster.flow_key`);
* ``host_wrapper``— the Table 4 host-stack baseline, if one exists;
* ``backends``    — which deploy backends can faithfully run the
  service (port-semantics services like the learning switch flood to
  multiple physical ports, which the 1-port-per-core scale-out
  backends cannot represent);
* ``serve``       — the real-socket serving capability (a
  :class:`~repro.serve.spec.ServeSpec` with per-transport bindings,
  ``None`` for services that explicitly cannot sit behind a socket,
  or :data:`UNDECLARED` when the author never considered it — the
  conformance suite requires every registry entry to pick a side).
"""

from repro.errors import TargetError

#: Every backend name the deploy layer registers.
ALL_BACKENDS = ("cpu", "fpga", "multicore", "cluster", "netsim")


class _Undeclared:
    """Sentinel for "this spec never declared its socket capability".

    Distinct from ``None``, which is an *explicit* declaration that the
    service cannot be served over a socket (netsim-only port-semantics
    services).  Falsy so ``if spec.serve:`` reads naturally.
    """

    def __bool__(self):
        return False

    def __repr__(self):
        return "<serve capability undeclared>"


#: The one sentinel instance (see :class:`_Undeclared`).
UNDECLARED = _Undeclared()


class ProtocolClient:
    """Builds request frames and interprets replies for one service.

    *request* is ``request(seed, **options) -> Frame`` (one
    representative probe).  *summarize* is ``summarize(reply_frame) ->
    str`` (a one-line human reading of a reply, e.g. the memcached
    status line); the default shows length and first bytes.
    """

    def __init__(self, name, request, summarize=None):
        self.name = name
        self._request = request
        self._summarize = summarize

    def request(self, seed=1, **options):
        """A single representative request frame."""
        return self._request(seed, **options)

    def summarize(self, reply):
        """One human-readable line about a reply frame."""
        if self._summarize is not None:
            return self._summarize(reply)
        data = bytes(reply.data)
        return "%d bytes: %s..." % (len(data), data[:16].hex())

    def __repr__(self):
        return "ProtocolClient(%r)" % (self.name,)


class ServiceSpec:
    """A deployable service: factory + protocol client + workloads."""

    def __init__(self, name, factory, client=None, workload=None,
                 trace=None, is_write=None, key_fn=None,
                 host_wrapper=None, backends=ALL_BACKENDS, description="",
                 serve=UNDECLARED):
        if not callable(factory):
            raise TargetError("spec %r needs a callable factory" % name)
        self.name = name
        self.factory = factory
        self.client = client or ProtocolClient(name, _no_probe(name))
        self._workload = workload
        self._trace = trace
        self.is_write = is_write
        self.key_fn = key_fn
        self.host_wrapper = host_wrapper
        self.backends = tuple(backends)
        self.description = description
        self.serve = serve

    def build(self):
        """A fresh service instance."""
        return self.factory()

    def workload(self, count, seed=3, **options):
        """The service's default request stream."""
        if self._workload is None:
            raise TargetError("spec %r has no default workload"
                              % (self.name,))
        return self._workload(count, seed, **options)

    def trace(self, count, seed=3, **options):
        """A shard-safe trace for backend-conformance replay."""
        maker = self._trace if self._trace is not None else self._workload
        if maker is None:
            raise TargetError("spec %r has no conformance trace"
                              % (self.name,))
        return maker(count, seed, **options)

    def supports(self, backend_name):
        return backend_name in self.backends

    @property
    def has_kernel(self):
        """Whether the service exposes a compiled-kernel cycle model
        (the probe ``Backend._effective_opt`` makes before honouring
        an opt level)."""
        return hasattr(self.build(), "kernel_cycle_model")

    # -- socket-serving capability (see repro.serve) -------------------------

    @property
    def declares_serve(self):
        """Whether the spec took a position on socket serving at all
        (``serve=None`` counts: it *declares* "not servable")."""
        return self.serve is not UNDECLARED

    @classmethod
    def adhoc(cls, name, factory, **kwargs):
        """A spec for a one-off service (harness-local factories that
        are not worth a registry entry, e.g. a DirectedService wrap)."""
        return cls(name, factory, **kwargs)

    def __repr__(self):
        return "ServiceSpec(%r, backends=%r)" % (self.name,
                                                 self.backends)


def _no_probe(name):
    def request(seed=1, **options):
        raise TargetError("service %r has no protocol client probe"
                          % (name,))
    return request
