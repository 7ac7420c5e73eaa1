"""Span aggregation around the public boundaries of the hypident layers.

Spans are recorded from the benchmark side only: `traced()` swaps each
public function for a wrapper in the module namespace where its callers look
it up, and puts the originals back on exit.  Wrapping the caller's name, not
the defining module's, means a function's calls to itself (the recursion
inside `rogers`) stay inside one span, so each boundary crossing counts once.

Per boundary the tracer keeps a call count, the total time, and the self
time: total minus the time covered by child spans.  Everything stays in
memory until `snapshot()`.
"""

import contextlib
from collections import Counter
from time import perf_counter_ns


def rogers_branch(z):
    """The branch `hypident.dilog.rogers` takes for argument z."""
    if z > 0.5:
        return "euler"
    if z >= -0.5:
        return "series"
    if z >= -1.0:
        return "landen"
    return "inversion"


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counters = Counter()
        self._children = []  # child time covered, one slot per open span

    def wrap(self, name, fn, tally=None):
        """`fn` recording a span `name`; `tally(args, result, counters)` may count."""
        stats = self.spans.setdefault(name, [0, 0, 0])
        children = self._children
        counters = self.counters

        def span(*args, **kwargs):
            children.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                covered = children.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
                if children:
                    children[-1] += elapsed
            if tally is not None:
                tally(args, result, counters)
            return result

        return span

    def snapshot(self):
        return {name: tuple(stats) for name, stats in self.spans.items()}, Counter(self.counters)


def _count_branch(args, _result, counters):
    counters["dilog.rogers.calls." + rogers_branch(args[0])] += 1


def _count_records(_args, result, counters):
    counters["curves.records"] += len(result)


def _boundaries(hy):
    """(module, attribute, span name, tally) for every wrapped lookup."""
    return [
        (hy.identities, "rogers", "dilog.rogers", _count_branch),
        (hy.identities, "lasso", "dilog.lasso", None),
        (hy.identities, "torus_ortho", "pants.torus_ortho", None),
        (hy.identities, "foursphere_ortho", "pants.foursphere_ortho", None),
        (hy, "from_fenchel_nielsen", "torus.from_fenchel_nielsen", None),
        (hy.cli, "from_fenchel_nielsen", "torus.from_fenchel_nielsen", None),
        (hy, "trace_triple", "torus.trace_triple", None),
        (hy.cli, "trace_triple", "torus.trace_triple", None),
        (hy.identities, "enumerate_geodesics", "curves.enumerate", _count_records),
        (hy.cli, "enumerate_geodesics", "curves.enumerate", _count_records),
        (hy.curves, "reduce_to_minimal", "curves.reduce", None),
        (hy, "evaluate", "identities.evaluate", None),
        (hy.cli, "evaluate", "identities.evaluate", None),
        (hy.identities, "identity_term", "identities.term", None),
        (hy.cli, "identity_term", "identities.term", None),
        (hy.cli, "run", "cli.run", None),
    ]


@contextlib.contextmanager
def traced(hy, tracer):
    """Install the span wrappers on the `hypident` package `hy`, then restore."""
    saved = []
    try:
        for module, attr, name, tally in _boundaries(hy):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, tally))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
