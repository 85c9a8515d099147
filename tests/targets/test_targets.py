"""Heterogeneous targets: pipeline, FPGA timing, CPU, multicore."""

import pytest

from repro.core.protocols.icmp import ICMPWrapper, build_icmp_echo_request
from repro.errors import TargetError
from repro.net.packet import Frame, ip_to_int, mac_to_int
from repro.services import IcmpEchoService, LearningSwitch
from repro.targets import CpuTarget, FpgaTarget
from repro.targets.pipeline import NetfpgaPipeline
from repro.targets.fpga import FpgaTimingModel, line_rate_pps

IP_SVC = ip_to_int("10.0.0.1")
IP_CLI = ip_to_int("10.0.0.2")
MAC_SVC = mac_to_int("02:00:00:00:00:01")
MAC_CLI = mac_to_int("02:00:00:00:00:aa")


def echo_frame(src_port=1):
    return Frame(build_icmp_echo_request(MAC_SVC, MAC_CLI, IP_CLI,
                                         IP_SVC), src_port=src_port).pad()


class TestPipeline:
    def test_frame_flows_through(self):
        pipeline = NetfpgaPipeline(IcmpEchoService(my_ip=IP_SVC))
        request = echo_frame(src_port=2)
        emitted, cycles, queued = pipeline.process_frame(request)
        assert queued is request
        assert len(emitted) == 1
        port, frame = emitted[0]
        assert port == 2
        assert ICMPWrapper(frame.data).is_echo_reply
        assert cycles >= 4

    def test_broadcast_fans_out(self):
        pipeline = NetfpgaPipeline(LearningSwitch())
        emitted, _, _ = pipeline.process_frame(echo_frame(src_port=0))
        assert sorted(port for port, _ in emitted) == [1, 2, 3]

    def test_arbiter_round_robin(self):
        pipeline = NetfpgaPipeline(LearningSwitch())
        for port in (3, 1, 2):
            pipeline.receive(echo_frame(src_port=port))
        order = [pipeline.arbitrate().src_port for _ in range(3)]
        assert order == [1, 2, 3]        # round-robin from port 0

    def test_ingress_drop_when_queue_full(self):
        pipeline = NetfpgaPipeline(LearningSwitch())
        for _ in range(100):
            pipeline.receive(echo_frame(src_port=0))
        assert pipeline.frames_dropped_ingress > 0

    def test_admit_is_receive_then_arbitrate(self):
        """Cut through or queued, the core is handed the same frames
        and the arbiter, counters and FIFOs end in the same state."""
        import random
        rng = random.Random("targets/admit")
        folded = NetfpgaPipeline(LearningSwitch())
        stepwise = NetfpgaPipeline(LearningSwitch())
        for step in range(400):
            frame = echo_frame(src_port=rng.randrange(4))
            if rng.random() < 0.3:       # a backlog builds, then drains
                assert folded.receive(frame) == stepwise.receive(frame)
            elif rng.random() < 0.3:
                assert folded.arbitrate() is stepwise.arbitrate()
            else:
                assert folded.admit(frame) is (
                    stepwise.arbitrate() if stepwise.receive(frame)
                    else None)
            assert folded._arbiter_next == stepwise._arbiter_next, step
            assert folded.occupancy() == stepwise.occupancy()
            assert (folded.frames_in, folded.frames_dropped_ingress) == \
                (stepwise.frames_in, stepwise.frames_dropped_ingress)
        assert stepwise.frames_dropped_ingress == 0
        with pytest.raises(TargetError):
            folded.admit(echo_frame(src_port=4))

    def test_admit_tail_drops_at_depth(self):
        pipeline = NetfpgaPipeline(LearningSwitch())
        for _ in range(64):
            assert pipeline.receive(echo_frame(src_port=0))
        assert pipeline.admit(echo_frame(src_port=0)) is None
        assert pipeline.frames_dropped_ingress == 1
        other = echo_frame(src_port=2)
        assert pipeline.admit(other) is not other    # port 0's turn first
        assert pipeline.occupancy()["input"] == [63, 0, 1, 0]

    def test_multi_port_bitmap_and_bits_beyond_the_ports(self):
        from repro.core.dataplane import NetFPGAData
        pipeline = NetfpgaPipeline(LearningSwitch())
        dataplane = NetFPGAData(echo_frame(src_port=1))
        dataplane.dst_ports = 0b110101           # ports 0, 2 (+ 4, 5: none)
        emitted = pipeline.dispatch(dataplane)
        assert [port for port, _ in emitted] == [0, 2]
        assert emitted[0][1] is not emitted[1][1]
        assert all(frame.src_port == 1 and frame.dst_ports == 0b110101
                   for _, frame in emitted)
        assert pipeline.occupancy()["output"] == [1, 0, 1, 0]
        pipeline.drain(emitted)
        assert pipeline.occupancy()["output"] == [0, 0, 0, 0]

    def test_stats(self):
        pipeline = NetfpgaPipeline(IcmpEchoService(my_ip=IP_SVC))
        pipeline.process_frame(echo_frame())
        assert pipeline.frames_in == 1
        assert pipeline.frames_out == 1
        assert pipeline.core_busy_cycles > 0


class TestTimingModel:
    def test_latency_in_microsecond_range(self):
        model = FpgaTimingModel()
        latency = model.latency_ns(60, core_cycles=8, extra_cycles=30)
        assert 800 < latency < 1500

    def test_jitter_bounded_to_arbiter_phase(self):
        model = FpgaTimingModel(seed=9)
        samples = [model.latency_ns(60, 8) for _ in range(200)]
        assert max(samples) - min(samples) <= 3 * 5.0 + 1e-9

    def test_bigger_frames_take_longer(self):
        model = FpgaTimingModel()
        small = model.service_time_ns(60, 8)
        large = model.service_time_ns(1500, 8)
        assert large > small

    def test_cycles_walk_the_bus_once_each_way(self):
        model = FpgaTimingModel()
        # 8 + ceil(60/32) + 7 + 30 + ceil(72/32) + 8
        assert model.cycles(60, 7, 30, 72) == (58, 58)
        assert model.cycles(60, 7, 30) == (57, 57)       # reply as sent
        # Pipelined at II=1: the widest of core, 2+15 in, 3+15 out.
        assert model.cycles(60, 7, 30, 72, 1) == (58, 18)
        assert model.cycles(60, 7, 31, 72, 40) == (59, 40)
        assert model.cycles(64, 7, 0, 33, 1) == (27, 2)
        assert model.service_time_ns(60, 7, 30, 72) == 58 * 5.0

    def test_latency_is_the_cycles_on_the_wire(self):
        import random
        rng = random.Random(9)
        jitter = [rng.randrange(4) for _ in range(3)]
        model = FpgaTimingModel(seed=9)
        assert [model.latency_ns(60, 7, 30, 72),
                model.wire_ns(58, 72),
                model.latency_ns(60, 7, 30)] == [
            640 + (58 + jitter[0]) * 5.0 + 57.6,
            640 + (58 + jitter[1]) * 5.0 + 57.6,
            640 + (57 + jitter[2]) * 5.0 + 48.0]

    def test_line_rate_64b(self):
        assert line_rate_pps(60) == pytest.approx(14_880_952, rel=1e-3)


class TestFpgaTarget:
    def test_send_returns_reply_and_latency(self):
        target = FpgaTarget(IcmpEchoService(my_ip=IP_SVC))
        emitted, latency_ns, cycles, service_ns = target.send(echo_frame())
        assert emitted
        assert 500 < latency_ns < 3000
        assert cycles > 0 and 0 < service_ns < latency_ns

    def test_dropped_frame_has_no_latency(self):
        target = FpgaTarget(IcmpEchoService(my_ip=IP_SVC))
        other = Frame(build_icmp_echo_request(
            MAC_SVC, MAC_CLI, IP_CLI, ip_to_int("10.9.9.9")),
            src_port=0).pad()
        emitted, latency_ns, cycles, service_ns = target.send(other)
        assert emitted == []
        assert latency_ns is None
        assert cycles > 0 and service_ns > 0   # the core still ran it

    def test_deterministic_with_seed(self):
        lat_a = FpgaTarget(IcmpEchoService(my_ip=IP_SVC),
                           seed=5).send(echo_frame())[1]
        lat_b = FpgaTarget(IcmpEchoService(my_ip=IP_SVC),
                           seed=5).send(echo_frame())[1]
        assert lat_a == lat_b

    def test_max_qps_capped_by_line_rate(self):
        target = FpgaTarget(IcmpEchoService(my_ip=IP_SVC))
        qps = target.max_qps(echo_frame())
        assert 0 < qps <= line_rate_pps(60)

    def test_tail_is_tiny(self):
        """The paper's predictability claim, at target level."""
        from repro.net.dag import LatencyCapture
        target = FpgaTarget(IcmpEchoService(my_ip=IP_SVC))
        capture = LatencyCapture()
        for _ in range(500):
            capture.record(target.send(echo_frame())[1])
        assert capture.tail_to_average() < 1.05


def _memcached_dram():
    from repro.services.catalog import SERVICE_IP
    from repro.services.memcached import MemcachedService
    return MemcachedService(my_ip=SERVICE_IP, storage="dram")


class TestBurstPartitionInvariance:
    """How a stream is cut into ``send``/``send_batch`` calls is
    invisible: ``send`` frame by frame, bursts of 1, 2, 3, 64, the
    whole stream at once and a seeded ragged mix leave identical
    replies, latencies and statistics — on a compiled cycle model and
    on the behavioural pause-count."""

    CASES = [
        ("memcached", None, 3, {"protocol": "binary"}),
        ("nat", None, 2, {}),
        # DRAM waits accrue per request on the service object: read
        # them behind that request's own core run, or they land on the
        # wrong frame.
        ("memcached", _memcached_dram, 3, {"protocol": "binary"}),
        ("memcached", _memcached_dram, None, {"protocol": "binary"}),
    ]

    @staticmethod
    def _observe(target, results):
        model = target.cycle_model
        pipeline = target.pipeline
        return (
            [([(port, bytes(reply.data), reply.src_port)
               for port, reply in emitted], latency, cycles, service_ns)
             for emitted, latency, cycles, service_ns in results],
            model and (model.requests, model.total_cycles),
            model and {name: model._runner.memory_image(name)
                       for name, _ in model._runner.spec.memory_params},
            (pipeline.frames_in, pipeline.frames_out,
             pipeline.frames_dropped_ingress, pipeline.core_busy_cycles,
             pipeline.occupancy()))

    def _run(self, bursts, case, sizes, prepare=None, ports=(0,)):
        from repro.services.catalog import registry
        service, build, opt_level, options = case
        spec = registry()[service]
        target = FpgaTarget((build or spec.build)(), seed=11,
                            opt_level=opt_level)
        frames = list(spec.workload(256, seed=5, **options))
        for index, frame in enumerate(frames):
            frame.src_port = ports[index % len(ports)]
        if prepare is not None:
            prepare(target, frames)
        if sizes is None:
            results = [target.send(frame) for frame in frames]
        else:
            results = [outcome for burst in bursts(frames, sizes)
                       for outcome in target.send_batch(burst)]
        assert len(results) == len(frames)
        return self._observe(target, results)

    @pytest.mark.parametrize("case", CASES,
                             ids=["memcached", "nat", "memcached-dram",
                                  "memcached-dram-behavioural"])
    def test_replies_latencies_and_statistics(self, case, bursts):
        import random
        ragged = random.Random("targets/partition/%s" % case[0])
        reference = self._run(bursts, case, None)
        assert any(latency is not None
                   for _, latency, _, _ in reference[0])
        assert all(cycles is not None and service_ns > 0
                   for _, _, cycles, service_ns in reference[0])
        for sizes in ([1], [2], [3], [64], [256],
                      [ragged.choice((1, 1, 2, 3, 5, 17, 64))
                       for _ in range(40)]):
            assert self._run(bursts, case, sizes) == reference, sizes

    def test_a_runt_in_the_stream(self, bursts):
        """A frame the handler cannot parse is one dropped request
        wherever the cut falls, never the end of its burst."""
        def runts(target, frames):
            for index in (3, 64, 65, 200):
                frames[index] = Frame(
                    bytes(12) + b"\x08\x00" + bytes(6), src_port=0)

        case = self.CASES[0]
        reference = self._run(bursts, case, None, runts)
        assert sum(1 for emitted, *_ in reference[0] if not emitted) >= 4
        assert reference[-1][0] == 256           # every frame admitted
        for sizes in ([1], [2], [9], [64], [5, 1, 17, 2, 64, 1, 1, 9]):
            assert self._run(bursts, case, sizes, runts) == reference, sizes

    def test_burst_overflowing_one_ingress_fifo(self, bursts):
        """Port 0's 64-deep ingress FIFO is full when the stream
        starts, so its frames are refused until the arbiter — which
        every admitted port-1 frame turns once — has drained it; the
        core then sees queued frames, not the ones just sent."""
        from repro.targets.pipeline import INPUT_QUEUE_DEPTH

        def prefill(target, frames):
            for frame in frames[:INPUT_QUEUE_DEPTH]:
                assert target.pipeline.receive(frame.copy())

        for case in (self.CASES[0], self.CASES[3]):
            reference = self._run(bursts, case, None, prefill,
                                  ports=(0, 0, 1))
            pipeline_counts = reference[-1]
            assert pipeline_counts[2] > 0        # some refused at ingress
            assert any(pipeline_counts[4]["input"])  # some still queued
            assert any(emitted for emitted, *_ in reference[0])
            for sizes in ([1], [2], [3], [64],
                          [5, 1, 17, 2, 64, 1, 1, 9]):
                assert self._run(bursts, case, sizes, prefill,
                                 ports=(0, 0, 1)) == reference, sizes


class TestCpuTarget:
    def test_send_through_interfaces(self):
        target = CpuTarget(IcmpEchoService(my_ip=IP_SVC))
        emitted = target.send(echo_frame(src_port=1))
        assert emitted and emitted[0][0] == 1
        assert target.interfaces[1].tx_count == 1

    def test_same_service_object_all_targets(self):
        """One codebase: identical reply bytes from CPU and FPGA runs."""
        service = IcmpEchoService(my_ip=IP_SVC)
        cpu_reply = CpuTarget(service).send(echo_frame())[0][1]
        service2 = IcmpEchoService(my_ip=IP_SVC)
        fpga_reply = FpgaTarget(service2).send(echo_frame())[0][0][1]
        assert bytes(cpu_reply.data) == bytes(fpga_reply.data)


class TestMulticore:
    def test_speedup_matches_paper_shape(self):
        from repro.harness.multicore import run_multicore_scaling
        _, _, speedup, _ = run_multicore_scaling()
        assert 3.0 < speedup < 4.0       # paper: 3.7x

    def test_writes_replicated_to_all_cores(self):
        from repro.harness.multicore import functional_replication_check
        assert functional_replication_check() == [1, 1, 1, 1]
