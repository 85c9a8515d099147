"""Hypothesis strategies for the differential suites (tests only —
``src/`` never imports hypothesis).

Both shrink, so a divergence :func:`repro.verify.check` finds comes
back as a small counter-example instead of a seed to replay:

* :func:`job_streams_of` — job streams over a kernel or ``KernelCase``
  drawn by the harness's own generator (its mutations are the draws);
* :func:`kernels` — generated straight-line/branchy Emu-Python kernels.
"""

import itertools
import linecache

from hypothesis import Phase, settings, strategies as st

from repro.kiwi.frontend import parse_function
from repro.verify import draw_job

#: Per tests/README: derandomized (the test name pins the examples),
#: no on-disk database, no per-example deadline — and no explain
#: phase, whose line tracer makes every compile several times slower.
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))


def job_streams_of(subject, max_jobs=6):
    """One warm stream of 1..*max_jobs* jobs over *subject*: a
    full-image job, then stream-buffer-only requests."""
    spec = parse_function(getattr(subject, "kernel", subject))

    @st.composite
    def stream(draw):
        count = draw(st.integers(1, max_jobs))
        rng = draw(st.randoms(use_true_random=False))
        return [draw_job(subject, spec, rng, index == 0)
                for index in range(count)]

    return stream()


_BINOPS = ["+", "-", "*", "&", "|", "^", "%"]
_serial = itertools.count()


@st.composite
def _exprs(draw, names):
    # 0, 1 and all-ones are the operands rewrite identities key on.
    atoms = st.sampled_from(names) | (
        st.sampled_from((0, 1, 255)) | st.integers(0, 255)).map(str)
    text = draw(atoms)
    for _ in range(draw(st.integers(0, 2))):
        text = "(%s %s %s)" % (text, draw(st.sampled_from(_BINOPS)),
                               draw(atoms))
    return text


@st.composite
def kernels(draw, max_statements=12):
    """A kernel over two scalars and a small memory — assignments,
    comb and stateful ifs, memory traffic and pauses, all fodder for
    every pass.  The source is registered with :mod:`linecache` so the
    compiler's ``inspect.getsource`` finds it; it shrinks towards
    ``return bits(a, 16)``."""
    names = ["a", "b"]
    body = []

    def expr():
        return draw(_exprs(list(names)))

    for _ in range(draw(st.integers(0, max_statements))):
        kind = draw(st.sampled_from(
            ("assign", "if", "load", "store", "pause")))
        if kind == "pause":
            body.append("pause()")
        elif kind == "store":
            body.append("buf[bits(%s, 4)] = %s" % (expr(), expr()))
        elif kind == "if":
            target = draw(st.sampled_from(names))
            body.append("if %s > %s:" % (expr(), expr()))
            if draw(st.booleans()):
                body.append("    pause()")      # stateful if
            body.append("    %s = %s" % (target, expr()))
            body.append("else:")
            body.append("    %s = %s" % (target, expr()))
        else:
            name = "v%d" % len(names)
            body.append("%s = %s" % (name, expr() if kind == "assign"
                                     else "buf[bits(%s, 4)]" % expr()))
            names.append(name)
    body.append("return bits(%s, 16)" % expr())
    name = "k%d" % next(_serial)
    source = 'def %s(a: "u16", b: "u16", buf: "mem[16]x8") -> "u16":\n' \
        % name + "".join("    %s\n" % line for line in body)
    filename = "<generated %s>" % name
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]
