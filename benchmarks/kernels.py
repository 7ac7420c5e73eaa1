"""Kernel timings of `hypident.dilog` on fixed seeded argument grids.

Each `rogers` branch gets its own grid, drawn from the interval that routes
an argument through it, so ns/call is reported per branch.  The same grids
are checked against mpmath for the largest absolute error.
"""

import math
import random
import statistics
from time import perf_counter_ns

_BRANCH_GRIDS = {
    "series": lambda rng: rng.uniform(-0.5, 0.5),
    "euler": lambda rng: rng.uniform(0.5, 1.0),
    "landen": lambda rng: rng.uniform(-1.0, -0.5),
    "inversion": lambda rng: -math.exp(rng.uniform(0.0, 20.0)),
}


def _ns_per_call(fn, args, repeats):
    runs = []
    for _ in range(repeats):
        start = perf_counter_ns()
        for a in args:
            fn(*a)
        runs.append((perf_counter_ns() - start) / len(args))
    return statistics.median(runs)


def _rogers_reference(z):
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        return float(mpmath.polylog(2, z) + 0.5 * mpmath.log(abs(z)) * mpmath.log(1 - z))


def kernel_metrics(hy, seed, grid_size, checked, repeats):
    """ns/call per branch and for `lasso`, and the worst error against mpmath.

    `checked` arguments per branch go through mpmath (it costs ~0.7 ms each).
    """
    rng = random.Random(f"dilog-{seed}")
    metrics = {}
    worst = 0.0
    for branch, draw in _BRANCH_GRIDS.items():
        grid = [(draw(rng),) for _ in range(grid_size)]
        metrics[f"dilog.rogers.ns.{branch}"] = _ns_per_call(hy.dilog.rogers, grid, repeats)
        for (z,) in grid[:checked]:
            worst = max(worst, abs(hy.dilog.rogers(z) - _rogers_reference(z)))
    pairs = [(rng.uniform(0.0, 0.999), rng.uniform(0.0, 0.999)) for _ in range(grid_size)]
    metrics["dilog.lasso.ns"] = _ns_per_call(hy.dilog.lasso, pairs, repeats)
    metrics["dilog.rogers.max_abs_err"] = worst
    return metrics
