"""The direction command language (Table 2).

Commands are parsed from gdb-style text lines:

    print X
    break L [<cond>]
    unbreak L
    backtrace
    watch X [<cond>]
    unwatch X
    count reads X | count writes X | count calls F
    trace start X [<cond>] [<len>] | trace stop X | trace clear X
        | trace print X | trace full X

Conditions are simple comparisons ``<var> <op> <const>`` with ops
``== != < <= > >=`` (the controller language is computationally weak by
design — no recursion, §3.5).
"""

from repro.errors import DirectionError

_COND_OPS = ("==", "!=", "<=", ">=", "<", ">")

COMMAND_TABLE = {
    "print": "Print the value of variable X from the source program.",
    "break": "Activate a (conditional) breakpoint at label L.",
    "unbreak": "Deactivate a breakpoint.",
    "backtrace": 'Print the "function call stack".',
    "watch": "Break when X is updated and satisfies a condition.",
    "unwatch": 'Cancel the effect of the "watch" command.',
    "count": "Count reads/writes of a variable, or calls to a function.",
    "trace": "Trace a variable subject to a condition, up to a length.",
}


class Condition:
    """``<var> <op> <const>`` guard."""

    __slots__ = ("var", "op", "value")

    def __init__(self, var, op, value):
        if op not in _COND_OPS:
            raise DirectionError("unknown condition operator %r" % op)
        self.var = var
        self.op = op
        self.value = value

    def __repr__(self):
        return "%s %s %d" % (self.var, self.op, self.value)


class DirectionCommand:
    """One parsed command."""

    __slots__ = ("verb", "subverb", "target", "condition", "length")

    def __init__(self, verb, target=None, subverb=None, condition=None,
                 length=None):
        self.verb = verb
        self.subverb = subverb
        self.target = target
        self.condition = condition
        self.length = length

    def __repr__(self):
        parts = [self.verb]
        if self.subverb:
            parts.append(self.subverb)
        if self.target:
            parts.append(self.target)
        if self.condition is not None:
            parts.append("if %r" % self.condition)
        if self.length is not None:
            parts.append("len=%d" % self.length)
        return "DirectionCommand(%s)" % " ".join(parts)


def _parse_condition(tokens):
    """Parse a trailing ``<var> <op> <const>``, if present."""
    if len(tokens) >= 3 and tokens[1] in _COND_OPS:
        try:
            value = int(tokens[2], 0)
        except ValueError:
            raise DirectionError("condition constant %r not an integer"
                                 % tokens[2])
        return Condition(tokens[0], tokens[1], value), tokens[3:]
    return None, tokens


def parse_command(line):
    """Parse one direction command line."""
    tokens = line.split()
    if not tokens:
        raise DirectionError("empty direction command")
    verb = tokens[0]
    rest = tokens[1:]

    if verb == "backtrace":
        return DirectionCommand("backtrace")

    if verb in ("print", "unbreak", "unwatch"):
        if len(rest) != 1:
            raise DirectionError("%s takes exactly one operand" % verb)
        return DirectionCommand(verb, target=rest[0])

    if verb in ("break", "watch"):
        if not rest:
            raise DirectionError("%s needs a target" % verb)
        target, rest = rest[0], rest[1:]
        condition, rest = _parse_condition(rest)
        if rest:
            raise DirectionError("trailing tokens %r" % (rest,))
        return DirectionCommand(verb, target=target, condition=condition)

    if verb == "count":
        if len(rest) < 2 or rest[0] not in ("reads", "writes", "calls"):
            raise DirectionError(
                "count needs: reads|writes|calls <target>")
        subverb, target, rest = rest[0], rest[1], rest[2:]
        condition, rest = _parse_condition(rest)
        if rest:
            raise DirectionError("trailing tokens %r" % (rest,))
        return DirectionCommand("count", subverb=subverb, target=target,
                                condition=condition)

    if verb == "trace":
        if len(rest) < 2 or rest[0] not in ("start", "stop", "clear",
                                            "print", "full"):
            raise DirectionError(
                "trace needs: start|stop|clear|print|full <var>")
        subverb, target, rest = rest[0], rest[1], rest[2:]
        condition, length = None, None
        if subverb == "start":
            condition, rest = _parse_condition(rest)
            if rest:
                try:
                    length = int(rest[0], 0)
                except ValueError:
                    raise DirectionError("trace length %r not an integer"
                                         % rest[0])
                rest = rest[1:]
        if rest:
            raise DirectionError("trailing tokens %r" % (rest,))
        return DirectionCommand("trace", subverb=subverb, target=target,
                                condition=condition, length=length)

    raise DirectionError("unknown direction verb %r" % verb)
