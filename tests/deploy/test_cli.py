"""Smoke tests for the ``python -m repro.deploy`` CLI driver."""

import socket
import time

import pytest

from repro.deploy.__main__ import INTERNAL_ERROR_EXIT_CODE, main
from repro.deploy.builder import Deployment


def test_list_services(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("memcached", "dns", "nat", "switch"):
        assert name in out


@pytest.mark.parametrize("backend,extra", [
    ("cpu", []),
    ("fpga", ["--opt", "1"]),
    ("cluster", ["--shards", "2"]),
    ("multicore", ["--cores", "2"]),
])
def test_deploy_and_run(capsys, backend, extra):
    code = main(["--service", "memcached", "--backend", backend,
                 "--requests", "16", "--seed", "9"] + extra)
    assert code == 0
    out = capsys.readouterr().out
    assert "Deployment: memcached on %s" % backend in out
    assert "requests" in out
    assert "probe reply on port" in out


def test_default_invocation_is_cheap(capsys):
    assert main(["--requests", "4"]) == 0
    out = capsys.readouterr().out
    assert "memcached on cpu" in out


def test_batch_is_not_a_flag(capsys):
    """The drain width is not a user-facing choice: a default ``--opt``
    run gets the lockstep engine, and ``--batch`` is refused."""
    with pytest.raises(SystemExit) as refused:
        main(["--opt", "2", "--batch", "8"])
    assert refused.value.code == 2
    assert "--batch" in capsys.readouterr().err


def test_unknown_service_errors():
    from repro.errors import TargetError
    with pytest.raises(TargetError):
        main(["--service", "nope", "--requests", "1"])


def test_matrix_flag(capsys):
    # Tiny count: the full-depth matrix lives in test_conformance.
    assert main(["--matrix", "--requests", "2"]) == 0
    out = capsys.readouterr().out
    assert "Backend conformance" in out
    assert "MISMATCH" not in out


def test_trace_and_timeseries_flags(capsys, tmp_path):
    import json
    from repro.obs.validate import validate_trace
    trace = str(tmp_path / "trace.json")
    series = str(tmp_path / "series.tsv")
    code = main(["--service", "memcached", "--backend", "fpga",
                 "--arrivals", "poisson", "--qps", "500000",
                 "--duration-ms", "0.1", "--seed", "9",
                 "--trace", trace, "--timeseries", series,
                 "--window-us", "25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "time-series:" in out
    with open(trace) as handle:
        assert validate_trace(json.load(handle)) == []
    with open(series) as handle:
        assert handle.readline().startswith("t_ms\twindow_ms")
    with open(trace + ".tsv") as handle:
        assert handle.readline().startswith("ts_ns\tdur_ns")


def test_profile_flag_prints_hotspots(capsys):
    code = main(["--service", "memcached", "--backend", "fpga",
                 "--opt", "2", "--profile", "--requests", "8",
                 "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Kernel profile" in out
    assert "Share" in out


def test_profile_without_opt_is_an_error(capsys):
    assert main(["--profile", "--requests", "1"]) == 2
    assert "--profile needs --opt" in capsys.readouterr().err


def test_timeseries_without_arrivals_is_an_error(capsys, tmp_path):
    code = main(["--timeseries", str(tmp_path / "x.tsv"),
                 "--requests", "1"])
    assert code == 2
    assert "--timeseries needs --arrivals" in capsys.readouterr().err


def test_validate_cli(capsys, tmp_path):
    from repro.obs.validate import main as validate_main
    trace = str(tmp_path / "trace.json")
    assert main(["--service", "memcached", "--backend", "fpga",
                 "--arrivals", "poisson", "--qps", "500000",
                 "--duration-ms", "0.05", "--seed", "9",
                 "--trace", trace]) == 0
    capsys.readouterr()
    assert validate_main([trace]) == 0
    assert "valid Chrome trace" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": []}')
    assert validate_main([str(bad)]) == 1
    assert validate_main([]) == 2


def test_slo_flag_judges_the_run(capsys, tmp_path):
    import json
    from repro.obs.validate import validate_alert_log
    alerts = str(tmp_path / "alerts.json")
    code = main(["--service", "memcached", "--backend", "cluster",
                 "--shards", "2", "--arrivals", "poisson",
                 "--qps", "1000000", "--duration-ms", "0.2",
                 "--seed", "9", "--window-us", "20",
                 "--slo", "p99<=200us,errors<=0.01,availability>=0.99",
                 "--slo-rule", "page:14.4:5/10",
                 "--alerts", alerts])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO: cli-slo" in out
    assert "Budget spent" in out
    assert "alert log:" in out
    with open(alerts) as handle:
        assert validate_alert_log(json.load(handle)) == []
    with open(alerts + ".tsv") as handle:
        assert handle.readline().startswith("seq\tt_ns\tkind")


def test_analyze_flag_implies_tracing(capsys):
    code = main(["--service", "memcached", "--backend", "multicore",
                 "--cores", "2", "--arrivals", "poisson",
                 "--qps", "1000000", "--duration-ms", "0.1",
                 "--seed", "9", "--analyze"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "Tail attribution" in out


def test_slo_flag_errors(capsys, tmp_path):
    assert main(["--slo", "p99<=200us", "--requests", "1"]) == 2
    assert "--slo needs --arrivals" in capsys.readouterr().err
    assert main(["--alerts", str(tmp_path / "a.json"),
                 "--requests", "1"]) == 2
    assert "--alerts needs --slo" in capsys.readouterr().err
    assert main(["--analyze", "--requests", "1"]) == 2
    assert "--analyze needs --arrivals" in capsys.readouterr().err
    assert main(["--slo", "p99<=200us;bogus", "--arrivals", "poisson",
                 "--requests", "1"]) == 2
    assert "bad --slo" in capsys.readouterr().err
    assert main(["--slo", "p99<=200us", "--slo-rule", "nope",
                 "--arrivals", "poisson", "--requests", "1"]) == 2
    assert "bad --slo" in capsys.readouterr().err


def test_validate_cli_summary(capsys, tmp_path):
    from repro.obs.validate import main as validate_main
    trace = str(tmp_path / "t.json")
    alerts = str(tmp_path / "alerts.json")
    assert main(["--service", "memcached", "--backend", "fpga",
                 "--arrivals", "poisson", "--qps", "500000",
                 "--duration-ms", "0.1", "--seed", "9",
                 "--trace", trace, "--window-us", "20",
                 "--slo", "availability>=0.99",
                 "--alerts", alerts]) == 0
    capsys.readouterr()
    assert validate_main([trace, "--tsv", trace + ".tsv",
                          "--alerts", alerts, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "valid Chrome trace" in out
    assert "valid trace TSV" in out
    assert "valid alert log" in out
    assert "summary: " in out and "alert event(s)" in out


SERVE = ["--service", "memcached", "--backend", "cpu",
         "--serve", "127.0.0.1:0", "--serve-duration", "0.05"]


def test_serve_exits_clean_without_traffic(capsys):
    assert main(SERVE) == 0
    assert capsys.readouterr().err == ""


def test_serve_exits_nonzero_on_the_servers_own_bug(monkeypatch,
                                                    capsys):
    """A non-``ReproError`` out of the bridge is the server's bug, not
    hostile input: with no load generator to fail the run, ``--serve``
    itself must — its own code, the traceback on stderr."""
    real_serve = Deployment.serve

    def faulty_encap(payload, seq):
        raise RuntimeError("injected codec fault")

    def serve_one_faulty_request(self, *args, **kwargs):
        server = real_serve(self, *args, **kwargs)
        server.binding.encap = faulty_encap
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"any payload", server.address)
        deadline = time.monotonic() + 5.0
        while server.report.completed < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return server

    monkeypatch.setattr(Deployment, "serve", serve_one_faulty_request)
    assert main(SERVE) == INTERNAL_ERROR_EXIT_CODE
    assert INTERNAL_ERROR_EXIT_CODE not in (0, 2, 7, 13, 17)
    assert "injected codec fault" in capsys.readouterr().err
