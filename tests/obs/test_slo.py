"""SLO burn-rate math, alert sequencing, and AlertLog determinism.

The property tests drive :class:`SloMonitor` with synthetic windows
(no deployment needed — the observer interface takes any object with
the Window counter surface), seeded ``random.Random`` streams per
test, per the repo seeding rules.
"""

import json
import random

import pytest

from repro.errors import ObsError
from repro.obs.slo import (DEFAULT_RULES, AlertLog, BurnRule,
                           Objective, SloMonitor, SloSpec)
from repro.obs.validate import validate_alert_log

SEED = 11


class FakeWindow:
    """The counter surface Objective.sample reads."""

    def __init__(self, end_ns, offered=100, replies=None,
                 queue_drops=0, service_drops=0):
        self.end_ns = end_ns
        self.offered = offered
        self.replies = offered - queue_drops - service_drops \
            if replies is None else replies
        self.queue_drops = queue_drops
        self.service_drops = service_drops


def drive(monitor, bad_per_window, offered=100, window_ns=1000):
    """Feed a monitor one window per entry of *bad_per_window* (drops
    charged as service drops)."""
    for index, bad in enumerate(bad_per_window):
        window = FakeWindow((index + 1) * window_ns, offered=offered,
                            service_drops=bad)
        monitor.on_window(window, [])


class TestSpec:
    def test_fluent_objectives(self):
        spec = (SloSpec("s").latency_p99(200.0).error_ratio(0.01)
                .availability(0.999))
        assert [objective.key for objective in spec.objectives] == \
            ["p99<=200.000us", "errors<=0.0100", "availability>=0.9990"]

    def test_default_rules_match_sre_pairs(self):
        spec = SloSpec("s").error_ratio(0.01)
        assert [(rule.severity, rule.threshold, rule.fast, rule.slow)
                for rule in spec.rules] == \
            [("ticket", 3.0, 15, 60), ("page", 14.4, 5, 60)]
        assert spec.rules[0].severity == "ticket"   # mildest first

    def test_first_rule_call_replaces_the_defaults(self):
        spec = (SloSpec("s").error_ratio(0.01)
                .rule("page", 2.0, 3, 6))
        assert len(spec.rules) == 1
        assert spec.rules[0].describe() == "2.0x over 3/6 windows"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ObsError):
            SloSpec("s", window_us=0)
        with pytest.raises(ObsError):
            SloSpec("s").latency_p99(-1)
        with pytest.raises(ObsError):
            SloSpec("s").availability(1.5)
        with pytest.raises(ObsError):
            BurnRule("fatal", 1.0, 5, 60)
        with pytest.raises(ObsError):
            BurnRule("page", 1.0, 60, 5)       # fast > slow
        with pytest.raises(ObsError):
            Objective("errors", 0.0, 0.0, "k")  # budget out of range
        with pytest.raises(ObsError):
            SloMonitor(SloSpec("empty"))        # no objectives


class TestObjectiveSampling:
    def test_latency_counts_threshold_breaches(self):
        objective = SloSpec("s").latency_p99(2.0).objectives[0]
        window = FakeWindow(1000)
        bad, total = objective.sample(window, [1000, 2000, 2001, 9000])
        assert (bad, total) == (2, 4)           # strict >2 us

    def test_errors_count_both_drop_kinds(self):
        objective = SloSpec("s").error_ratio(0.01).objectives[0]
        window = FakeWindow(1000, offered=50, queue_drops=2,
                            service_drops=3)
        assert objective.sample(window, []) == (5, 50)

    def test_availability_clamps_reply_lag(self):
        objective = SloSpec("s").availability(0.99).objectives[0]
        # More replies than offers (drain from the previous window):
        # clamp at zero bad, never negative.
        window = FakeWindow(1000, offered=10, replies=14)
        assert objective.sample(window, []) == (0, 10)


class TestBurnRateProperties:
    def test_no_alert_when_budget_untouched(self):
        rng = random.Random("%s/%s" % (SEED, "clean"))
        spec = (SloSpec("clean").error_ratio(0.01)
                .rule("ticket", 1.0, 1, 1))     # hairtrigger rule
        monitor = SloMonitor(spec)
        drive(monitor, [0] * 50,
              offered=rng.randrange(1, 1000))
        assert len(monitor.alert_log) == 0
        assert monitor.verdict() is True
        assert monitor.budget()["errors<=0.0100"]["spent"] == 0.0

    def test_budget_consumption_monotone_in_error_rate(self):
        rng = random.Random("%s/%s" % (SEED, "monotone"))
        spent = []
        for rate in (0, 1, 2, 5, 10, 20):
            spec = SloSpec("m").error_ratio(0.01)
            monitor = SloMonitor(spec)
            bad = [rate for _ in range(20)]
            drive(monitor, bad, offered=100)
            spent.append(monitor.budget()["errors<=0.0100"]["spent"])
        assert spent == sorted(spent)
        assert spent[0] == 0.0 and spent[-1] > 1.0
        # Random interleavings too: more bad events never spend less.
        totals = []
        for _ in range(5):
            bad = [rng.randrange(0, 5) for _ in range(30)]
            spec = SloSpec("m").error_ratio(0.01)
            monitor = SloMonitor(spec)
            drive(monitor, bad, offered=100)
            totals.append((sum(bad),
                           monitor.budget()["errors<=0.0100"]["spent"]))
        for (bad_a, spent_a) in totals:
            for (bad_b, spent_b) in totals:
                if bad_a < bad_b:
                    assert spent_a <= spent_b

    def test_burn_is_bad_fraction_over_budget(self):
        spec = (SloSpec("b").error_ratio(0.01)
                .rule("page", 4.0, 5, 5))
        monitor = SloMonitor(spec)
        # 2% errors sustained = 2x burn: under the 4x rule, no alert.
        drive(monitor, [2] * 20, offered=100)
        assert len(monitor.alert_log) == 0
        # 8% errors = 8x burn: fires.
        drive(monitor, [8] * 5, offered=100)
        fires = monitor.alert_log.find(kind="fire")
        assert len(fires) == 1
        # Fires at the first window whose 5-window lookback crosses
        # 4x (a mix of the 2% and 8% windows).
        assert fires[0]["burn_fast"] >= 4.0

    def test_short_run_burns_over_seen_windows(self):
        # A 60-window lookback on a 3-window run reads all 3 — the
        # monitor judges from the first window on.
        spec = (SloSpec("short").error_ratio(0.01)
                .rule("page", 2.0, 5, 60))
        monitor = SloMonitor(spec)
        drive(monitor, [10, 10, 10], offered=100)
        assert monitor.alert_log.find(kind="fire",
                                      severity="page")

    def test_state_keeps_only_the_longest_lookback(self):
        spec = (SloSpec("bounded").error_ratio(0.01).latency_p99(100.0)
                .rule("ticket", 2.0, 3, 12)
                .rule("page", 10.0, 2, 8))
        monitor = SloMonitor(spec)
        drive(monitor, [1, 0, 3] * 40, offered=100)     # 10x the 12
        for state in monitor._states:
            assert len(state.bad_samples) <= 12
            assert len(state.total_samples) <= 12


class TestAlertSequencing:
    def two_rule_monitor(self, tracer=None):
        spec = (SloSpec("seq").error_ratio(0.01)
                .rule("ticket", 2.0, 2, 4)
                .rule("page", 10.0, 2, 4))
        return SloMonitor(spec, tracer=tracer)

    def test_fire_then_resolve(self):
        monitor = self.two_rule_monitor()
        drive(monitor, [5, 5, 0, 0, 0, 0], offered=100)
        kinds = [(event["kind"], event["severity"])
                 for event in monitor.alert_log.events]
        assert ("fire", "ticket") in kinds
        assert ("resolve", "ticket") in kinds
        assert monitor.active_alerts == []

    def test_page_while_ticket_active_is_escalate(self):
        monitor = self.two_rule_monitor()
        # 5% errors trips the 2x ticket only; then 30% trips the 10x
        # page while the ticket is still active.
        drive(monitor, [5, 5, 30, 30], offered=100)
        pages = monitor.alert_log.find(severity="page")
        assert pages[0]["kind"] == "escalate"
        tickets = monitor.alert_log.find(severity="ticket",
                                         kind="fire")
        assert tickets and tickets[0]["t_ns"] <= pages[0]["t_ns"]

    def test_no_refire_while_active(self):
        monitor = self.two_rule_monitor()
        drive(monitor, [5] * 10, offered=100)
        tickets = monitor.alert_log.find(severity="ticket")
        assert [event["kind"] for event in tickets] == ["fire"]
        assert monitor.verdict() is False       # still alerting

    def test_fast_window_recovery_resolves(self):
        monitor = self.two_rule_monitor()
        drive(monitor, [5, 5], offered=100)     # fire
        drive(monitor, [0, 0], offered=100)     # fast=2 goes quiet
        resolves = monitor.alert_log.find(kind="resolve")
        assert len(resolves) == 1
        assert resolves[0]["burn_fast"] < 2.0

    def test_alerts_mirror_to_tracer_instants(self):
        from repro.obs.trace import TraceRecorder
        tracer = TraceRecorder()
        now = {"ns": 0}
        tracer.bind_clock(lambda: now["ns"])
        monitor = self.two_rule_monitor(tracer=tracer)
        drive(monitor, [5, 5, 0, 0], offered=100)
        instants = [event for event in tracer.events
                    if event.get("cat") == "alert"]
        assert len(instants) == len(monitor.alert_log)
        assert instants[0]["name"].startswith("alert:fire:ticket:")
        assert instants[0]["args"]["burn_fast"] == \
            monitor.alert_log.events[0]["burn_fast"]


class TestAlertLog:
    def build_log(self):
        log = AlertLog("test-slo")
        log.record(1000, "fire", "ticket", "errors<=0.0100",
                   "2.0x over 2/4 windows", 2.5, 2.25, 0.125)
        log.record(2000, "resolve", "ticket", "errors<=0.0100",
                   "2.0x over 2/4 windows", 0.5, 1.75, 0.125)
        return log

    def test_rejects_unknown_kind(self):
        with pytest.raises(ObsError):
            AlertLog().record(0, "oops", "page", "k", "r", 0, 0, 0)

    def test_json_is_deterministic_and_valid(self):
        first, second = self.build_log(), self.build_log()
        assert first.to_json() == second.to_json()
        document = json.loads(first.to_json())
        assert validate_alert_log(document) == []
        assert document["slo"] == "test-slo"
        assert [event["seq"] for event in document["events"]] == [0, 1]

    def test_tsv_round_trips_the_columns(self):
        lines = self.build_log().to_tsv().strip().split("\n")
        assert lines[0].split("\t") == list(AlertLog.COLUMNS)
        row = lines[1].split("\t")
        assert row[:4] == ["0", "1000", "fire", "ticket"]
        assert row[-3:] == ["2.5000", "2.2500", "0.1250"]

    def test_find_filters(self):
        log = self.build_log()
        assert len(log.find(kind="fire")) == 1
        assert len(log.find(severity="ticket")) == 2
        assert log.find(objective="nope") == []

    def test_write_exports(self, tmp_path):
        log = self.build_log()
        json_path = str(tmp_path / "alerts.json")
        tsv_path = str(tmp_path / "alerts.tsv")
        log.write_json(json_path)
        log.write_tsv(tsv_path)
        assert json.load(open(json_path))["slo"] == "test-slo"
        assert open(tsv_path).read() == log.to_tsv()


class TestMonitorDeterminism:
    def test_same_window_stream_gives_identical_json(self):
        def build():
            rng = random.Random("%s/%s" % (SEED, "stream"))
            spec = (SloSpec("det").error_ratio(0.01)
                    .availability(0.99)
                    .rule("ticket", 2.0, 3, 6)
                    .rule("page", 8.0, 3, 6))
            monitor = SloMonitor(spec)
            bad = [rng.randrange(0, 20) for _ in range(40)]
            drive(monitor, bad, offered=100)
            return monitor.alert_log.to_json()
        first, second = build(), build()
        assert first == second
        assert validate_alert_log(json.loads(first)) == []

    def test_default_rules_constant_shape(self):
        # DEFAULT_RULES is part of the exported contract.
        assert DEFAULT_RULES == (("page", 14.4, 5, 60),
                                 ("ticket", 3.0, 15, 60))
