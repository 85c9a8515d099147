"""The CASP machine: Counters, Arrays, Stored Procedures (§3.5).

"Commands are translated into programs that execute on a simple
controller embedded in the program.  We model the controller as a
counters, arrays, and stored procedures (CASP) machine."

The procedure language is computationally weak by construction:

* a small stack machine with no call instruction (no recursion),
* only *forward* jumps (so every procedure terminates),
* bounded arrays (trace buffers) and counters.

Procedures end with ``CONTINUE`` (return control to the host program)
or ``BREAK`` (stop the program — a breakpoint firing), exactly the two
outcomes in Fig. 7.
"""

from repro.errors import DirectionError


class Op:
    """Opcode names for CASP instructions."""

    PUSH_CONST = "push_const"
    PUSH_VAR = "push_var"           # read program variable (accessor)
    STORE_VAR = "store_var"         # write program variable (accessor)
    PUSH_COUNTER = "push_counter"
    INC_COUNTER = "inc_counter"
    SET_COUNTER = "set_counter"
    APPEND_ARRAY = "append_array"   # bounded; pushes 1 on success, 0 full
    ARRAY_LEN = "array_len"
    CMP = "cmp"                     # (op_string) pops rhs, lhs
    NOT = "not"
    JUMP_IF_FALSE = "jump_if_false"  # forward offset
    DROP = "drop"
    REPLY = "reply"                 # pop a value into the reply buffer
    CONTINUE = "continue"
    BREAK = "break"


_CMP_FNS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class CaspProcedure:
    """A verified-terminating instruction list."""

    def __init__(self, name, instructions):
        self.name = name
        self.instructions = list(instructions)
        self._verify()

    def _verify(self):
        for index, instr in enumerate(self.instructions):
            opcode = instr[0]
            if opcode == Op.JUMP_IF_FALSE:
                offset = instr[1]
                if offset <= 0:
                    raise DirectionError(
                        "backward/zero jump at %d: the controller "
                        "language forbids loops" % index)
                if index + 1 + offset > len(self.instructions):
                    raise DirectionError("jump past end at %d" % index)

    def __len__(self):
        return len(self.instructions)


class CaspMachine:
    """Counters + arrays + an executor for stored procedures."""

    def __init__(self, array_capacity=64):
        self.counters = {}
        self.arrays = {}
        self.array_capacity = array_capacity
        self.replies = []

    def counter(self, name):
        return self.counters.get(name, 0)

    def array(self, name):
        return self.arrays.setdefault(name, [])

    def execute(self, procedure, read_var, write_var):
        """Run one procedure against the program's variables.

        Returns ``Op.CONTINUE`` or ``Op.BREAK``.  *read_var(name)* /
        *write_var(name, value)* are the program-variable accessors the
        extension point provides.
        """
        stack = []
        pc = 0
        instructions = procedure.instructions
        while pc < len(instructions):
            instr = instructions[pc]
            opcode = instr[0]
            if opcode == Op.PUSH_CONST:
                stack.append(instr[1])
            elif opcode == Op.PUSH_VAR:
                stack.append(read_var(instr[1]))
            elif opcode == Op.STORE_VAR:
                write_var(instr[1], stack.pop())
            elif opcode == Op.PUSH_COUNTER:
                stack.append(self.counters.get(instr[1], 0))
            elif opcode == Op.INC_COUNTER:
                self.counters[instr[1]] = \
                    self.counters.get(instr[1], 0) + 1
            elif opcode == Op.SET_COUNTER:
                self.counters[instr[1]] = stack.pop()
            elif opcode == Op.APPEND_ARRAY:
                array = self.array(instr[1])
                if len(array) < self.array_capacity:
                    array.append(stack.pop())
                    stack.append(1)
                else:
                    stack.pop()
                    stack.append(0)
            elif opcode == Op.ARRAY_LEN:
                stack.append(len(self.array(instr[1])))
            elif opcode == Op.CMP:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(1 if _CMP_FNS[instr[1]](lhs, rhs) else 0)
            elif opcode == Op.NOT:
                stack.append(0 if stack.pop() else 1)
            elif opcode == Op.JUMP_IF_FALSE:
                if not stack.pop():
                    pc += instr[1]
            elif opcode == Op.DROP:
                stack.pop()
            elif opcode == Op.REPLY:
                self.replies.append((instr[1], stack.pop()))
            elif opcode == Op.CONTINUE:
                return Op.CONTINUE
            elif opcode == Op.BREAK:
                return Op.BREAK
            else:
                raise DirectionError("unknown CASP opcode %r" % opcode)
            pc += 1
        return Op.CONTINUE

    def drain_replies(self):
        replies, self.replies = self.replies, []
        return replies
