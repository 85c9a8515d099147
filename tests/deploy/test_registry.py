"""The service registry: complete, buildable, deployable specs."""

import pytest

from repro.deploy import deploy
from repro.deploy.spec import ALL_BACKENDS, ProtocolClient, ServiceSpec
from repro.errors import TargetError
from repro.services import registry as lazy_registry
from repro.services.catalog import registry

SEED = 5

EXPECTED = {"icmp", "tcp_ping", "dns", "memcached", "nat", "switch",
            "filter"}


class TestRegistryContents:
    def test_expected_services_present(self):
        assert set(registry()) == EXPECTED

    def test_package_level_reexport(self):
        assert set(lazy_registry()) == EXPECTED

    def test_fresh_dict_each_call(self):
        first = registry()
        first.pop("icmp")
        assert "icmp" in registry()

    def test_backends_are_registered_names(self):
        for spec in registry().values():
            for backend in spec.backends:
                assert backend in ALL_BACKENDS

    def test_factories_build_fresh_instances(self):
        for spec in registry().values():
            assert spec.build() is not spec.build()

    def test_table4_services_have_host_baselines(self):
        specs = registry()
        for name in ("icmp", "tcp_ping", "dns", "nat", "memcached"):
            assert specs[name].host_wrapper is not None

    def test_kernel_flags_match_services(self):
        specs = registry()
        for name in ("memcached", "nat", "filter"):
            assert specs[name].has_kernel
            assert hasattr(specs[name].build(), "kernel_cycle_model")
        assert not specs["icmp"].has_kernel

    def test_has_kernel_is_what_the_fpga_backend_honours(self):
        for name, spec in sorted(registry().items()):
            if not spec.supports("fpga"):
                continue
            dep = deploy(name).on("fpga").with_opt(2).start()
            assert spec.has_kernel == \
                (dep.backend.effective_opt is not None), name
            dep.stop()


class TestWorkloadsAndClients:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_workload_yields_frames(self, name):
        frames = list(registry()[name].workload(5, SEED))
        assert len(frames) == 5
        for frame in frames:
            assert len(frame.data) >= 60          # padded ethernet

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_client_probe_gets_a_reply_on_cpu(self, name):
        spec = registry()[name]
        service = spec.build()
        probe = spec.client.request(seed=SEED)
        dataplane = service.process(probe.copy())
        assert dataplane.dst_ports != 0
        assert spec.client.summarize(probe)

    def test_memcached_workload_protocol_option(self):
        spec = registry()["memcached"]
        ascii_frame = next(iter(spec.workload(1, SEED)))
        binary_frame = next(iter(spec.workload(1, SEED,
                                               protocol="binary")))
        assert bytes(ascii_frame.data) != bytes(binary_frame.data)


class TestSpecValidation:
    def test_factory_must_be_callable(self):
        with pytest.raises(TargetError):
            ServiceSpec("bad", factory=None)

    def test_missing_workload_raises(self):
        spec = ServiceSpec("bare", factory=object)
        with pytest.raises(TargetError, match="no default workload"):
            spec.workload(1)
        with pytest.raises(TargetError, match="no conformance trace"):
            spec.trace(1)

    def test_default_client_probe_raises(self):
        spec = ServiceSpec("bare", factory=object)
        with pytest.raises(TargetError, match="no protocol client"):
            spec.client.request()

    def test_default_client_summarize(self):
        from repro.net.packet import Frame
        client = ProtocolClient("x", lambda seed: Frame(b"ab"))
        assert "2 bytes" in client.summarize(Frame(b"ab"))
