"""Export-format validation for the observability layer (stdlib only).

    python -m repro.obs.validate /tmp/trace.json
    python -m repro.obs.validate /tmp/trace.json --tsv /tmp/trace.tsv \\
        --alerts /tmp/alerts.json --summary
    python -m repro.obs.validate --tsv /tmp/loadgen.tsv \\
        --report /tmp/loadgen.json

Validates, structurally, everything the exporters can produce:

* the Chrome trace-event JSON (Perfetto-loadable ``traceEvents``);
* the flat trace TSV (``--tsv``: header, column counts, numeric
  fields, JSON args, sorted timestamps);
* the SLO alert-log JSON (``--alerts``: event schema, ``fire`` /
  ``escalate`` / ``resolve`` state pairing, monotone timestamps);
* the ``repro.serve.loadgen`` latency TSV (``--tsv`` sniffs the
  header: per-probe rows, dense seq, known statuses, and the
  ``# key<TAB>value`` summary footer with the verification counters);
* OpenLoopReport-shaped JSON (``--report``: the snapshot keys every
  run — simulated or socket-served — must carry).

Exit 0 when every given file is valid; exit 1 with the first
violations otherwise.  ``--summary`` appends one machine-greppable
line — ``summary: S spans, I instants, A alert event(s)`` — which the
CI ``slo-smoke`` job asserts on.
"""

import json
import sys

REQUIRED = {"name", "ph", "ts", "pid", "tid"}
PHASES = {"X", "i", "M"}

TSV_HEADER = "ts_ns\tdur_ns\ttrack\tcat\tkind\tname\targs"
TSV_KINDS = {"span", "instant"}

ALERT_REQUIRED = {"seq", "t_ns", "kind", "severity", "objective",
                  "rule", "burn_fast", "burn_slow", "budget_spent"}
ALERT_KINDS = {"fire", "escalate", "resolve"}
ALERT_SEVERITIES = {"ticket", "page"}

# Keep in sync with repro.serve.loadgen (duplicated on purpose: the
# validator must stay stdlib-importable without pulling the serving
# stack in).
LOADGEN_TSV_HEADER = "seq\tt_send_ms\tlatency_ms\tstatus\tdetail"
LOADGEN_STATUSES = {"ok", "verify_fail", "lost", "error"}
LOADGEN_FOOTER = {"service", "transport", "mode", "sent", "ok",
                  "verify_failures", "lost", "connect_failures",
                  "exit_code"}
LOADGEN_FOOTER_COUNTS = {"sent", "ok", "verify_failures", "lost",
                         "connect_failures", "exit_code"}

#: Every key an OpenLoopReport.snapshot() carries; the loadgen's
#: report JSON adds verification extras on top of the same shape.
REPORT_REQUIRED = {
    "process", "offered_qps", "achieved_qps", "offered", "admitted",
    "completed", "replies", "queue_drops", "service_drops",
    "drop_rate", "p50_latency_us", "p99_latency_us", "p999_latency_us",
    "avg_latency_us", "max_queue_depth", "mean_queue_depth", "servers",
}
REPORT_COUNTS = ("offered", "admitted", "completed", "replies",
                 "queue_drops", "service_drops", "servers")
REPORT_EXTRAS = ("verify_failures", "lost", "connect_failures",
                 "exit_code")


def validate_trace(document):
    """Return a list of violations (empty = valid)."""
    problems = []
    if not isinstance(document, dict):
        return ["top level must be an object with a traceEvents array"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not any(isinstance(event, dict) and event.get("ph") == "X"
               for event in events):
        problems.append("trace has no spans (ph 'X')")
    last_ts = None
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        missing = REQUIRED - set(event)
        if missing:
            problems.append("%s: missing %s"
                            % (where, ", ".join(sorted(missing))))
            continue
        phase = event["ph"]
        if phase not in PHASES:
            problems.append("%s: unknown phase %r" % (where, phase))
            continue
        if phase == "M":
            continue                      # metadata: no timestamp rules
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append("%s: bad ts %r" % (where, ts))
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append("%s: span needs dur >= 0, got %r"
                                % (where, dur))
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append("%s: instant needs scope g/p/t" % where)
        if last_ts is not None and ts < last_ts:
            problems.append("%s: timestamps not sorted (%r < %r)"
                            % (where, ts, last_ts))
        last_ts = ts
    return problems


def validate_tsv(text):
    """Violations in a :meth:`TraceRecorder.to_tsv` export."""
    problems = []
    lines = text.splitlines()
    if not lines:
        return ["TSV is empty"]
    if lines[0] != TSV_HEADER:
        return ["bad header %r (want %r)" % (lines[0], TSV_HEADER)]
    last_ts = None
    for number, line in enumerate(lines[1:], start=2):
        where = "line %d" % number
        cells = line.split("\t")
        if len(cells) != 7:
            problems.append("%s: %d column(s), want 7"
                            % (where, len(cells)))
            continue
        ts, dur, track, _cat, kind, _name, args = cells
        for label, cell in (("ts_ns", ts), ("dur_ns", dur),
                            ("track", track)):
            if not cell.lstrip("-").isdigit():
                problems.append("%s: %s %r is not an integer"
                                % (where, label, cell))
        if kind not in TSV_KINDS:
            problems.append("%s: unknown kind %r" % (where, kind))
        elif kind == "instant" and dur.isdigit() and int(dur) != 0:
            problems.append("%s: instant with nonzero dur %s"
                            % (where, dur))
        try:
            json.loads(args)
        except ValueError:
            problems.append("%s: args is not JSON: %r" % (where, args))
        if ts.lstrip("-").isdigit():
            if last_ts is not None and int(ts) < last_ts:
                problems.append("%s: timestamps not sorted (%s < %d)"
                                % (where, ts, last_ts))
            last_ts = int(ts)
    return problems


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def validate_loadgen_tsv(text):
    """Violations in a ``repro.serve.loadgen`` latency TSV: one row
    per probe in dense seq order, known statuses, numeric latencies on
    verified rows, and the ``# key<TAB>value`` summary footer carrying
    the verification counters."""
    problems = []
    lines = text.splitlines()
    if not lines:
        return ["TSV is empty"]
    if lines[0] != LOADGEN_TSV_HEADER:
        return ["bad header %r (want %r)"
                % (lines[0], LOADGEN_TSV_HEADER)]
    footer = {}
    next_seq = 0
    for number, line in enumerate(lines[1:], start=2):
        where = "line %d" % number
        if line.startswith("#"):
            key, separator, value = line.lstrip("# ").partition("\t")
            if not separator:
                problems.append("%s: footer is not '# key<TAB>value'"
                                % where)
            else:
                footer[key] = value
            continue
        if footer:
            problems.append("%s: probe row after the summary footer"
                            % where)
        cells = line.split("\t")
        if len(cells) != 5:
            problems.append("%s: %d column(s), want 5"
                            % (where, len(cells)))
            continue
        seq, t_send, latency, status, _detail = cells
        if not seq.isdigit() or int(seq) != next_seq:
            problems.append("%s: seq %r breaks dense order (want %d)"
                            % (where, seq, next_seq))
        else:
            next_seq += 1
        if not _is_number(t_send):
            problems.append("%s: t_send_ms %r is not a number"
                            % (where, t_send))
        if status not in LOADGEN_STATUSES:
            problems.append("%s: unknown status %r" % (where, status))
        if status in ("ok", "verify_fail"):
            if not _is_number(latency):
                problems.append("%s: %s row needs a numeric "
                                "latency_ms, got %r"
                                % (where, status, latency))
        elif latency != "n/a" and not _is_number(latency):
            problems.append("%s: latency_ms %r is neither a number "
                            "nor n/a" % (where, latency))
    missing = LOADGEN_FOOTER - set(footer)
    if missing:
        problems.append("summary footer missing %s"
                        % ", ".join(sorted(missing)))
    for key in LOADGEN_FOOTER_COUNTS & set(footer):
        if not footer[key].isdigit():
            problems.append("footer %s=%r is not a non-negative "
                            "integer" % (key, footer[key]))
    return problems


def validate_report(document):
    """Violations in an OpenLoopReport-shaped JSON (the loadgen's
    ``--json`` artifact or any ``report.snapshot()`` dump): all the
    snapshot keys, integer counters, and — when the verification
    extras are present — consistent loadgen accounting."""
    problems = []
    if not isinstance(document, dict):
        return ["top level must be an object"]
    missing = REPORT_REQUIRED - set(document)
    if missing:
        problems.append("missing %s" % ", ".join(sorted(missing)))
    for key in REPORT_COUNTS:
        value = document.get(key)
        if key in document and (not isinstance(value, int)
                                or isinstance(value, bool)
                                or value < 0):
            problems.append("%s=%r is not a non-negative integer"
                            % (key, value))
    for key in ("offered_qps", "achieved_qps", "drop_rate",
                "mean_queue_depth"):
        value = document.get(key)
        if key in document and (not isinstance(value, (int, float))
                                or isinstance(value, bool)
                                or value < 0):
            problems.append("%s=%r is not a non-negative number"
                            % (key, value))
    for key in ("p50_latency_us", "p99_latency_us", "p999_latency_us",
                "avg_latency_us"):
        value = document.get(key)
        if key in document and value is not None \
                and (not isinstance(value, (int, float))
                     or isinstance(value, bool) or value < 0):
            problems.append("%s=%r is neither null nor a "
                            "non-negative number" % (key, value))
    if not isinstance(document.get("process"), str):
        problems.append("process=%r is not a string"
                        % (document.get("process"),))
    has_extras = any(key in document for key in REPORT_EXTRAS)
    if has_extras:
        for key in REPORT_EXTRAS:
            value = document.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                problems.append("%s=%r is not a non-negative integer"
                                % (key, value))
    return problems


def validate_alert_log(document):
    """Violations in an :meth:`AlertLog.to_json` export: per-event
    schema plus the fire/escalate/resolve state machine (an alert
    resolves only while active, never fires twice without resolving,
    and timestamps never go backwards)."""
    problems = []
    if not isinstance(document, dict):
        return ["top level must be an object"]
    if not isinstance(document.get("slo"), str):
        problems.append("missing/invalid 'slo' name")
    events = document.get("events")
    if not isinstance(events, list):
        problems.append("'events' must be a list")
        return problems
    active = set()
    last_ts = None
    for index, event in enumerate(events):
        where = "events[%d]" % index
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        missing = ALERT_REQUIRED - set(event)
        if missing:
            problems.append("%s: missing %s"
                            % (where, ", ".join(sorted(missing))))
            continue
        if event["seq"] != index:
            problems.append("%s: seq %r breaks append-only order"
                            % (where, event["seq"]))
        kind = event["kind"]
        if kind not in ALERT_KINDS:
            problems.append("%s: unknown kind %r" % (where, kind))
            continue
        if event["severity"] not in ALERT_SEVERITIES:
            problems.append("%s: unknown severity %r"
                            % (where, event["severity"]))
        t_ns = event["t_ns"]
        if not isinstance(t_ns, int) or t_ns < 0:
            problems.append("%s: bad t_ns %r" % (where, t_ns))
        elif last_ts is not None and t_ns < last_ts:
            problems.append("%s: timestamps not sorted (%d < %d)"
                            % (where, t_ns, last_ts))
        else:
            last_ts = t_ns
        for field in ("burn_fast", "burn_slow", "budget_spent"):
            if not isinstance(event[field], (int, float)) \
                    or event[field] < 0:
                problems.append("%s: bad %s %r"
                                % (where, field, event[field]))
        key = (event["objective"], event["severity"])
        if kind == "resolve":
            if key not in active:
                problems.append("%s: resolve of inactive alert %r"
                                % (where, key))
            active.discard(key)
        else:
            if key in active:
                problems.append("%s: %s while %r already active"
                                % (where, kind, key))
            active.add(key)
    return problems


def _count_trace(document):
    events = document.get("traceEvents", []) \
        if isinstance(document, dict) else []
    spans = sum(1 for event in events
                if isinstance(event, dict) and event.get("ph") == "X")
    instants = sum(1 for event in events
                   if isinstance(event, dict)
                   and event.get("ph") == "i")
    return spans, instants


def _load_json(path):
    with open(path) as handle:
        try:
            return json.load(handle), []
        except ValueError as error:
            return None, ["not JSON: %s" % error]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    trace_path = None
    tsv_path = None
    alerts_path = None
    report_path = None
    summary = False
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--summary":
            summary = True
        elif arg in ("--tsv", "--alerts", "--report"):
            if index + 1 >= len(argv):
                print("%s needs a path" % arg, file=sys.stderr)
                return 2
            index += 1
            if arg == "--tsv":
                tsv_path = argv[index]
            elif arg == "--alerts":
                alerts_path = argv[index]
            else:
                report_path = argv[index]
        elif arg.startswith("-"):
            print("unknown option %r" % arg, file=sys.stderr)
            return 2
        elif trace_path is None:
            trace_path = arg
        else:
            print("at most one trace.json positional", file=sys.stderr)
            return 2
        index += 1
    if trace_path is None and tsv_path is None \
            and alerts_path is None and report_path is None:
        print("usage: python -m repro.obs.validate [<trace.json>] "
              "[--tsv <trace-or-loadgen.tsv>] "
              "[--alerts <alerts.json>] [--report <report.json>] "
              "[--summary]", file=sys.stderr)
        return 2

    problems = []
    spans = instants = alerts = 0
    document = None
    if trace_path is not None:
        document, load_problems = _load_json(trace_path)
        problems += ["%s: %s" % (trace_path, problem)
                     for problem in (load_problems
                                     or validate_trace(document))]
        if document is not None:
            spans, instants = _count_trace(document)
    tsv_flavor = "trace"
    if tsv_path is not None:
        with open(tsv_path) as handle:
            text = handle.read()
        # Sniff: a loadgen latency TSV and a flat trace TSV share the
        # flag but not the header.
        if text.splitlines() and \
                text.splitlines()[0] == LOADGEN_TSV_HEADER:
            tsv_flavor = "loadgen"
            tsv_problems = validate_loadgen_tsv(text)
        else:
            tsv_problems = validate_tsv(text)
        problems += ["%s: %s" % (tsv_path, problem)
                     for problem in tsv_problems]
    if alerts_path is not None:
        alert_doc, load_problems = _load_json(alerts_path)
        problems += ["%s: %s" % (alerts_path, problem)
                     for problem in (load_problems
                                     or validate_alert_log(alert_doc))]
        if alert_doc is not None and \
                isinstance(alert_doc.get("events"), list):
            alerts = len(alert_doc["events"])
    if report_path is not None:
        report_doc, load_problems = _load_json(report_path)
        problems += ["%s: %s" % (report_path, problem)
                     for problem in (load_problems
                                     or validate_report(report_doc))]

    if problems:
        for problem in problems:
            print("INVALID: %s" % problem, file=sys.stderr)
        return 1
    if trace_path is not None:
        print("valid Chrome trace: %s (%d spans, %d instants)"
              % (trace_path, spans, instants))
    if tsv_path is not None:
        print("valid %s TSV: %s" % (tsv_flavor, tsv_path))
    if alerts_path is not None:
        print("valid alert log: %s (%d event(s))"
              % (alerts_path, alerts))
    if report_path is not None:
        print("valid report JSON: %s" % report_path)
    if summary:
        print("summary: %d spans, %d instants, %d alert event(s)"
              % (spans, instants, alerts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
