"""Timing spans around the public functions of the seqclass modules.

The program has no tracing of its own yet, so the traced benchmark run
swaps each public function of the measured modules for a wrapper that
opens a span, calls the original and closes the span.  Modules import
names directly (``from .simplex import as_dist``), so a function is
replaced under every ``seqclass`` module name that binds it, and put back
afterwards.

Spans are aggregated as they close instead of being stored: a Monte Carlo
run opens millions of them.  A span's self time is its duration minus the
durations of the spans opened directly inside it; the run is single
threaded, so those children never overlap.
"""

import functools
import inspect
import sys
import time
from contextlib import contextmanager

#: modules whose public functions are the per-layer boundaries
LAYERS = ("exponents", "optimizer", "divergence", "simplex", "testbench", "montecarlo")

#: wrapped for a call count only: the call is as cheap as a span would be,
#: so its time stays in the caller's self time
COUNT_ONLY = {"simplex.as_dist"}


class Tracer:
    """Span stack with per-name totals: calls, inclusive and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.incl_s = {}
        self.self_s = {}
        self.counts = {}  # work counters: rows, samples, outcomes
        self.top_s = 0.0  # summed duration of spans opened with no parent
        self._stack = []  # [start, seconds covered by direct children]

    def enter(self):
        self._stack.append([self.clock(), 0.0])

    def exit(self, name):
        start, children = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_s += dur

    @contextmanager
    def span(self, name):
        self.enter()
        try:
            yield
        finally:
            self.exit(name)

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k


def _outcome_counts(tracer, name, out):
    # work counters read off a traced function's result
    if name == "simplex.grid_array":
        tracer.count("simplex.grid_array.rows", out.shape[0])
    elif name == "simplex.sample_iid":
        tracer.count("simplex.sample_iid.samples", out.size)
    elif name == "simplex.empirical":
        # every sample a test looks at passes through one empirical() call
        tracer.count("simplex.empirical.samples", out.n)
    elif name == "testbench.two_phase_test":
        tracer.count("testbench.two_phase_test.early", out.phase == "early")
        tracer.count("testbench.two_phase_test.capped", bool(out.capped))


def _span_wrapper(fn, name, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(name)
        _outcome_counts(tracer, name, out)
        return out

    return wrapper


def _count_wrapper(fn, name, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        return fn(*args, **kwargs)

    return wrapper


def public_functions():
    """{qualified name: function} for the public functions of every layer."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules["seqclass." + layer]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__name__ == attr  # skips module-level lambdas
                and obj.__module__ == mod.__name__
            ):
                found[f"{layer}.{attr}"] = obj
    return found


def bindings():
    """[(module, attribute, original)] for every seqclass name bound to a
    public layer function, the package namespace included."""
    targets = {id(fn): name for name, fn in public_functions().items()}
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "seqclass" or modname.startswith("seqclass.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in targets:
                out.append((mod, attr, obj))
    return out


@contextmanager
def traced(tracer):
    """Route every binding of a public layer function through `tracer`.

    On exit each binding is the original function object again.
    """
    originals = bindings()
    made = {}
    for mod, attr, fn in originals:
        if id(fn) not in made:
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
            wrap = _count_wrapper if name in COUNT_ONLY else _span_wrapper
            made[id(fn)] = wrap(fn, name, tracer)
    try:
        for mod, attr, fn in originals:
            setattr(mod, attr, made[id(fn)])
        yield
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
