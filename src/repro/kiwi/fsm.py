"""FSM intermediate representation produced by the scheduler.

One :class:`State` is one clock cycle's worth of work: register updates,
memory writes, and a transition.  Transitions reference *state objects*;
indices are assigned only when the FSM is sealed, so the builder can
patch branch targets freely.
"""

from repro.errors import ScheduleError


class Transition:
    """Base class for state transitions."""


class Goto(Transition):
    """Unconditional transfer."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target


class Branch(Transition):
    """Two-way conditional transfer on a 1-bit expression."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond, if_true, if_false):
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false


class State:
    """One clock cycle of the schedule.

    *pinned* states represent explicit ``pause()`` cycles (or the entry
    cycle) and are never elided, even when empty — a pause is a real
    clock cycle the programmer asked for.
    """

    def __init__(self, label="", pinned=False):
        self.label = label
        self.pinned = pinned
        self.updates = {}       # var name -> Expr (next value)
        self.writes = []        # (MemSpec-name, addr Expr, data Expr, enable)
        self.transition = None
        self.index = None

    def __repr__(self):
        return "State(%s%s)" % (
            self.label, "" if self.index is None else "#%d" % self.index)


class Fsm:
    """A finite-state machine: the scheduler's output."""

    def __init__(self):
        self.states = []
        self.idle = self.new_state("idle")

    def new_state(self, label="", pinned=False):
        state = State(label, pinned=pinned)
        self.states.append(state)
        return state

    def seal(self):
        """Elide empty pass-through states and assign indices."""
        forward = {}

        def resolve(state):
            seen = set()
            while state in forward:
                if state in seen:
                    break               # cycle of empty states: keep one
                seen.add(state)
                state = forward[state]
            return state

        for state in self.states:
            if (state is not self.idle and not state.pinned
                    and not state.updates and not state.writes
                    and isinstance(state.transition, Goto)
                    and state.transition.target is not state):
                forward[state] = state.transition.target

        kept = []
        for state in self.states:
            if state in forward and resolve(state) is not state:
                continue
            kept.append(state)
        self.states = kept

        for state in self.states:
            transition = state.transition
            if transition is None:
                raise ScheduleError(
                    "state %r has no transition" % state.label)
            if isinstance(transition, Goto):
                transition.target = resolve(transition.target)
            else:
                transition.if_true = resolve(transition.if_true)
                transition.if_false = resolve(transition.if_false)

        for index, state in enumerate(self.states):
            state.index = index
        if self.idle.index != 0:
            raise ScheduleError("idle state must be state 0")
        return self

    @property
    def state_count(self):
        return len(self.states)

    def successors(self, state):
        transition = state.transition
        if isinstance(transition, Goto):
            return [transition.target]
        return [transition.if_true, transition.if_false]
