"""Streaming SLO evaluation: burn-rate alerting on virtual time.

PR 6 gave every run a :class:`~repro.obs.series.TimeSeries`; this
module is the *judge* on top of it — the detector half of the coming
autonomous control plane.  An :class:`SloSpec` declares objectives
(``latency_p99 <= X us``, ``error ratio <= Y``, ``availability >= Z``)
and an :class:`SloMonitor` evaluates them as a streaming process: each
closed time-series window feeds per-objective good/bad event counts,
multi-window burn rates (a fast ~5-window lookback paired with a slow
~60-window one, SRE-workbook style) decide when an alert fires, and an
append-only :class:`AlertLog` records every ``fire`` / ``escalate`` /
``resolve`` transition with the burn rates and cumulative error-budget
spend that justified it.

Burn rate is the classic definition: the observed bad-event fraction
over a lookback divided by the objective's budget fraction (a p99
objective budgets 1% of events; ``availability >= 0.999`` budgets
0.1%).  Burning at exactly 1.0x consumes the budget exactly; a rule
fires when *both* its lookbacks burn at or above its threshold (the
slow window proves the problem is sustained, the fast window makes
the alert resolve promptly once the cause clears).

Short virtual-time runs rarely contain 60 closed windows, so a
lookback of ``k`` windows reads the trailing ``min(k, seen)`` — the
monitor judges from the first window on, and a spec tunes its rule
windows to the run length (the chaos example uses 3/10-window pairs
over 20 us windows).

Everything derives from the seeded run: identical seeds produce a
byte-identical :meth:`AlertLog.to_json`, which is what lets CI diff
alert streams.  When a :class:`~repro.obs.trace.TraceRecorder` is
attached, every alert transition is mirrored as an instant event
(category ``alert``) so alerts land on the Perfetto timeline next to
the fault-injector instants that caused them.
"""

import json
from collections import deque
from itertools import islice

from repro.errors import ObsError
from repro.harness.report import render_table

#: Alert severities, mildest first (index = rank).  A higher-severity
#: fire on an objective that already has an active milder alert is an
#: ``escalate`` event.
SEVERITIES = ("ticket", "page")

#: The SRE-practice default rule pair: page on a fast, hot burn
#: (14.4x would exhaust a 30-day budget in ~2 days), ticket on a
#: milder sustained one.  Both use the ~5-window fast / ~60-window
#: slow pairing; override per spec with :meth:`SloSpec.rule`.
DEFAULT_RULES = (("page", 14.4, 5, 60), ("ticket", 3.0, 15, 60))


class Objective:
    """One declared objective: what counts as a bad event, and what
    fraction of bad events the SLO budgets."""

    def __init__(self, kind, threshold, budget_fraction, key):
        if not 0.0 < budget_fraction < 1.0:
            raise ObsError("budget fraction must be in (0, 1), got %r"
                           % (budget_fraction,))
        self.kind = kind
        self.threshold = threshold
        self.budget_fraction = budget_fraction
        #: Stable rendered identity (``p99<=200.000us``) — the alert
        #: log's objective column.
        self.key = key

    def sample(self, window, latencies_ns):
        """``(bad, total)`` event counts for one closed window.

        *latencies_ns* is the window's own (sorted) completion
        latencies — the per-event population a latency objective
        classifies; ratio objectives read the window's counter deltas.
        """
        if self.kind == "latency":
            threshold_ns = self.threshold * 1000.0
            bad = sum(1 for latency in latencies_ns
                      if latency > threshold_ns)
            return bad, len(latencies_ns)
        if self.kind == "errors":
            total = window.offered
            bad = window.queue_drops + window.service_drops
        else:                                   # availability
            total = window.offered
            bad = window.offered - window.replies
        # Replies lag offers across window boundaries (a request
        # offered in window N may reply in N+1), so clamp the
        # per-window approximation into [0, total].
        return max(0, min(bad, total)), total

    def __repr__(self):
        return "Objective(%s)" % self.key


class BurnRule:
    """Fire *severity* when both lookbacks burn at >= *threshold*."""

    def __init__(self, severity, threshold, fast, slow):
        if severity not in SEVERITIES:
            raise ObsError("unknown severity %r (have: %s)"
                           % (severity, ", ".join(SEVERITIES)))
        if threshold <= 0:
            raise ObsError("burn threshold must be positive")
        fast, slow = int(fast), int(slow)
        if not 0 < fast <= slow:
            raise ObsError("rule windows must satisfy 0 < fast <= slow")
        self.severity = severity
        self.threshold = float(threshold)
        self.fast = fast
        self.slow = slow

    @property
    def rank(self):
        return SEVERITIES.index(self.severity)

    def describe(self):
        return "%.1fx over %d/%d windows" % (self.threshold, self.fast,
                                             self.slow)

    def __repr__(self):
        return "BurnRule(%s, %s)" % (self.severity, self.describe())


class SloSpec:
    """A declarative SLO: objectives plus the burn rules that page.

        spec = (SloSpec("memcached-slo")
                .latency_p99(200.0)         # 99% of replies <= 200 us
                .error_ratio(0.001)         # drops <= 0.1% of offered
                .availability(0.999))       # replies >= 99.9% offered

    Rules default to :data:`DEFAULT_RULES`; :meth:`rule` replaces them
    (first call clears the defaults) so short runs can use lookbacks
    that actually fit their window count.
    """

    def __init__(self, name="slo", window_us=100.0):
        if window_us <= 0:
            raise ObsError("slo window must be positive")
        self.name = str(name)
        #: The time-series window the monitor samples on when the
        #: deployment has no explicit ``.with_timeseries`` already.
        self.window_us = float(window_us)
        self.objectives = []
        self._rules = None

    # -- objectives ----------------------------------------------------------

    def latency_p99(self, max_us):
        """99% of completed requests reply within *max_us*."""
        if max_us <= 0:
            raise ObsError("latency threshold must be positive")
        self.objectives.append(Objective(
            "latency", float(max_us), 0.01,
            "p99<=%.3fus" % float(max_us)))
        return self

    def error_ratio(self, max_ratio):
        """Drops (queue + service) stay within *max_ratio* of offered."""
        self.objectives.append(Objective(
            "errors", float(max_ratio), float(max_ratio),
            "errors<=%.4f" % float(max_ratio)))
        return self

    def availability(self, min_fraction):
        """At least *min_fraction* of offered requests get a reply."""
        if not 0.0 < min_fraction < 1.0:
            raise ObsError("availability must be in (0, 1)")
        self.objectives.append(Objective(
            "availability", float(min_fraction), 1.0 - float(min_fraction),
            "availability>=%.4f" % float(min_fraction)))
        return self

    # -- rules ---------------------------------------------------------------

    def rule(self, severity, threshold, fast, slow):
        """Replace the default burn rules (cumulative across calls)."""
        if self._rules is None:
            self._rules = []
        self._rules.append(BurnRule(severity, threshold, fast, slow))
        return self

    @property
    def rules(self):
        """Active rules, mildest severity first (evaluation order —
        a ticket firing in the same window a page fires makes the
        page an escalation)."""
        rules = self._rules if self._rules is not None else \
            [BurnRule(*args) for args in DEFAULT_RULES]
        return sorted(rules, key=lambda rule: rule.rank)

    def __repr__(self):
        return "SloSpec(%s: %d objective(s), %d rule(s))" % (
            self.name, len(self.objectives), len(self.rules))


class AlertLog:
    """Append-only record of alert transitions, export-stable.

    Events are dicts with a fixed key set (``seq``, ``t_ns``,
    ``kind``, ``severity``, ``objective``, ``rule``, ``burn_fast``,
    ``burn_slow``, ``budget_spent``); :meth:`to_json` and
    :meth:`to_tsv` render them deterministically, so same-seed runs
    export byte-identical logs.
    """

    COLUMNS = ("seq", "t_ns", "kind", "severity", "objective", "rule",
               "burn_fast", "burn_slow", "budget_spent")
    KINDS = ("fire", "escalate", "resolve")

    def __init__(self, slo_name="slo"):
        self.slo_name = slo_name
        self.events = []

    def record(self, t_ns, kind, severity, objective, rule, burn_fast,
               burn_slow, budget_spent):
        if kind not in self.KINDS:
            raise ObsError("unknown alert kind %r" % (kind,))
        event = {
            "seq": len(self.events), "t_ns": int(t_ns), "kind": kind,
            "severity": severity, "objective": objective,
            "rule": rule, "burn_fast": round(burn_fast, 4),
            "burn_slow": round(burn_slow, 4),
            "budget_spent": round(budget_spent, 4),
        }
        self.events.append(event)
        return event

    def find(self, kind=None, severity=None, objective=None):
        return [event for event in self.events
                if (kind is None or event["kind"] == kind)
                and (severity is None or event["severity"] == severity)
                and (objective is None
                     or event["objective"] == objective)]

    def __len__(self):
        return len(self.events)

    def to_dict(self):
        return {"slo": self.slo_name, "events": list(self.events)}

    def to_json(self):
        """Deterministic JSON (sorted keys, fixed separators): same
        seed -> byte-identical text."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write_json(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    def to_tsv(self):
        lines = ["\t".join(self.COLUMNS)]
        for event in self.events:
            lines.append("\t".join([
                "%d" % event["seq"], "%d" % event["t_ns"],
                event["kind"], event["severity"], event["objective"],
                event["rule"], "%.4f" % event["burn_fast"],
                "%.4f" % event["burn_slow"],
                "%.4f" % event["budget_spent"]]))
        return "\n".join(lines) + "\n"

    def write_tsv(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_tsv())
        return path

    def __repr__(self):
        return "AlertLog(%s: %d event(s))" % (self.slo_name,
                                              len(self.events))


class _ObjectiveState:
    """Streaming state for one objective: the last *depth* windows'
    samples (the longest lookback any rule reads) plus the cumulative
    error-budget ledger."""

    def __init__(self, objective, depth):
        self.objective = objective
        self.bad_samples = deque(maxlen=depth)   # one of each per window
        self.total_samples = deque(maxlen=depth)
        self.bad = 0
        self.total = 0

    def push(self, bad, total):
        self.bad_samples.append(bad)
        self.total_samples.append(total)
        self.bad += bad
        self.total += total

    def burn(self, lookback):
        """Burn rate over the trailing min(lookback, seen) windows:
        weighted bad fraction / budget fraction (0.0 when the lookback
        saw no events)."""
        skip = max(0, len(self.total_samples) - lookback)
        total = sum(islice(self.total_samples, skip, None))
        if not total:
            return 0.0
        bad = sum(islice(self.bad_samples, skip, None))
        return (bad / total) / self.objective.budget_fraction

    def budget_spent(self):
        """Fraction of the whole error budget consumed so far (1.0 =
        exactly exhausted; can exceed 1.0)."""
        if not self.total:
            return 0.0
        return (self.bad / self.total) / self.objective.budget_fraction


class SloMonitor:
    """Evaluates an :class:`SloSpec` over a stream of closed windows.

    Attach to a time-series (``series.observers.append(monitor
    .on_window)``) or feed :meth:`on_window` directly; alerts land in
    :attr:`alert_log` and, when :attr:`tracer` is set, as instant
    events on the trace timeline.  The spec's rules are read once, at
    construction: hand the monitor a finished spec.
    """

    def __init__(self, spec, tracer=None):
        if not spec.objectives:
            raise ObsError("SLO spec %r declares no objectives"
                           % (spec.name,))
        self.spec = spec
        self.rules = spec.rules         # mildest severity first
        self.tracer = tracer
        self.alert_log = AlertLog(spec.name)
        self.windows_seen = 0
        depth = max(rule.slow for rule in self.rules)
        self._states = [_ObjectiveState(objective, depth)
                        for objective in spec.objectives]
        self._active = {}      # (objective.key, severity) -> fire event

    # -- streaming interface -------------------------------------------------

    def on_window(self, window, latencies_ns):
        """Consume one closed window (the TimeSeries observer hook:
        the :class:`~repro.obs.series.Window` row plus its own sorted
        completion latencies)."""
        self.windows_seen += 1
        for state in self._states:
            state.push(*state.objective.sample(window, latencies_ns))
        for state in self._states:
            self._evaluate(state, window.end_ns)

    def _evaluate(self, state, t_ns):
        objective = state.objective
        for rule in self.rules:
            burn_fast = state.burn(rule.fast)
            burn_slow = state.burn(rule.slow)
            key = (objective.key, rule.severity)
            active = key in self._active
            if not active and burn_fast >= rule.threshold \
                    and burn_slow >= rule.threshold:
                kind = "escalate" if self._milder_active(objective,
                                                         rule) \
                    else "fire"
                self._active[key] = self._record(
                    t_ns, kind, rule, objective, burn_fast, burn_slow,
                    state)
            elif active and burn_fast < rule.threshold:
                # The fast lookback recovering is the resolve signal —
                # that is what the short window of the pair is *for*.
                del self._active[key]
                self._record(t_ns, "resolve", rule, objective,
                             burn_fast, burn_slow, state)

    def _milder_active(self, objective, rule):
        return any(key == objective.key
                   and SEVERITIES.index(severity) < rule.rank
                   for key, severity in self._active)

    def _record(self, t_ns, kind, rule, objective, burn_fast,
                burn_slow, state):
        event = self.alert_log.record(
            t_ns, kind, rule.severity, objective.key, rule.describe(),
            burn_fast, burn_slow, state.budget_spent())
        if self.tracer is not None:
            self.tracer.instant(
                "alert:%s:%s:%s" % (kind, rule.severity, objective.key),
                ts_ns=t_ns, cat="alert",
                args={"burn_fast": event["burn_fast"],
                      "burn_slow": event["burn_slow"],
                      "budget_spent": event["budget_spent"],
                      "rule": event["rule"]})
        return event

    # -- inspection ----------------------------------------------------------

    @property
    def active_alerts(self):
        """Currently-firing ``(objective, severity)`` pairs, sorted."""
        return sorted(self._active)

    def budget(self):
        """Error-budget ledger per objective: ``{key: {"bad", "total",
        "spent"}}`` — ``spent`` is the consumed fraction of the whole
        budget (1.0 = exhausted)."""
        return {state.objective.key: {
                    "bad": state.bad, "total": state.total,
                    "spent": round(state.budget_spent(), 4)}
                for state in self._states}

    def verdict(self):
        """``True`` when every objective still has budget left and no
        alert is active — the one-bit answer "is the SLO met?"."""
        if self._active:
            return False
        return all(state.budget_spent() <= 1.0
                   for state in self._states)

    def text(self):
        budget = self.budget()
        rows = []
        for key in sorted(budget):
            entry = budget[key]
            rows.append([key, "%d/%d" % (entry["bad"], entry["total"]),
                         "%.2f%%" % (100 * entry["spent"]),
                         "yes" if any(active_key == key for active_key,
                                      _ in self._active) else "no"])
        budget_table = render_table(
            ["Objective", "Bad/total", "Budget spent", "Alerting"],
            rows, title="SLO: %s over %d window(s) — %s"
                        % (self.spec.name, self.windows_seen,
                           "met" if self.verdict() else "VIOLATED"))
        if not self.alert_log.events:
            return budget_table + "\n(no alerts)"
        alert_rows = [["%.3f" % (event["t_ns"] / 1e6), event["kind"],
                       event["severity"], event["objective"],
                       "%.1fx/%.1fx" % (event["burn_fast"],
                                        event["burn_slow"])]
                      for event in self.alert_log.events]
        return budget_table + "\n" + render_table(
            ["t_ms", "Kind", "Severity", "Objective", "Burn fast/slow"],
            alert_rows, title="Alert timeline")

    def __repr__(self):
        return ("SloMonitor(%s: %d window(s), %d alert event(s), "
                "%d active)" % (self.spec.name, self.windows_seen,
                                len(self.alert_log),
                                len(self._active)))
