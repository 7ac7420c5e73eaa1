"""Shared independent oracles for the test suite.

These stay deliberately separate from the library code paths they check:
the dilogarithm oracle uses mpmath at 40 digits, the seam oracle places
explicit hyperbolic matrices and bisects on the resulting boundary trace,
the reference walk visits the Markov tree one node at a time, without
the twist runs and stretches of `curves`, and the exact walk does the same
in Python integers, for integer roots.  `sorted_traces` is no oracle:
it reads the library's own walk, as one sorted trace column.
"""

from collections import deque
from itertools import chain
from math import cosh, exp, sinh

import mpmath

from hypident import trace_chunks

mpmath.mp.dps = 40


def rogers_mp(z):
    """Rogers dilogarithm in mpmath, at the working precision, for z != 0."""
    z = mpmath.mpf(z)
    return mpmath.polylog(2, z) + mpmath.mpf("0.5") * mpmath.log(abs(z)) * mpmath.log(1 - z)


def rogers_oracle(z):
    """High-precision Rogers dilogarithm, returned as float."""
    return 0.0 if z == 0 else float(rogers_mp(z))


def li2_oracle(z):
    """High-precision classical dilogarithm, returned as float."""
    return float(mpmath.polylog(2, mpmath.mpf(z)))


def li2_series_oracle(z, terms=400):
    """Direct power-series summation of the dilogarithm at 40 digits.

    Only trustworthy for |z| <= 0.9 or so; the tail beyond `terms` is
    O(z^terms / terms^2).
    """
    z = mpmath.mpf(z)
    total = mpmath.mpf(0)
    power = z
    for n in range(1, terms + 1):
        total += power / (n * n)
        power *= z
    return float(total)


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_inv(a):
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _third_boundary_trace(l2, l3, delta):
    # X2 translates up the imaginary axis; X3 translates down its own axis,
    # which crosses the perpendicular geodesic (-1, 1) at distance delta.
    x2 = ((exp(0.5 * l2), 0.0), (0.0, exp(-0.5 * l2)))
    shift = ((cosh(0.5 * delta), sinh(0.5 * delta)), (sinh(0.5 * delta), cosh(0.5 * delta)))
    d3 = ((exp(-0.5 * l3), 0.0), (0.0, exp(0.5 * l3)))
    x3 = _mat_mul(_mat_mul(shift, d3), _mat_inv(shift))
    product = _mat_mul(x2, x3)
    return product[0][0] + product[1][1]


def seam_oracle(l1, l2, l3):
    """Distance between the axes of two boundary isometries of a pants.

    Places explicit matrices with translation lengths l2, l3 whose axes sit
    at distance delta, and bisects until the third boundary has length l1.
    Independent of the hexagon closed form.
    """
    target = 2.0 * cosh(0.5 * l1)
    lo, hi = 1e-9, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -_third_boundary_trace(l2, l3, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_walk(root, length_cutoff):
    """(slope, trace) of every node within the cutoff, walked breadth first from `root`.

    One emission per node, with the root marking, the float expressions and
    the prune test that the `curves` module docstring states.
    """
    x, y, z = root.x, root.y, root.z
    cutoff = 2.0 * cosh(0.5 * length_cutoff)
    found = [(slope, t) for slope, t in (((0, 1), x), ((1, 0), y)) if not t > cutoff]
    queue = deque([((0, 1), (1, 0), x, y, z), ((0, 1), (-1, 0), x, y, x * y - z)])
    while queue:
        a, b, ta, tb, t = queue.popleft()
        v = (a[0] + b[0], a[1] + b[1])
        if not t > cutoff:
            found.append((v, t))
        for child in ((a, v, ta, t, ta * t - tb), (v, b, t, tb, t * tb - ta)):
            c, kept = child[4], child[2:4]
            if not (c > cutoff and c >= kept[0] and c >= kept[1]):
                queue.append(child)
    return found


def exact_markoff_traces(root, length_cutoff):
    """Every trace within the cutoff of the tree from the integer triple `root`, exactly.

    The tree of `reference_walk` in Python integers: the flip d = ab - c, and
    the prune at the exact trace bound floor(2 cosh(L/2)) of the float cutoff
    L, formed in mpmath with digits to spare.  Nothing rounds, so the traces
    are those of the surface, not of a float recurrence.
    """
    x, y, z = root
    with mpmath.workdps(30 + int(length_cutoff / 4.6)):  # 2 cosh(L/2) has ~L/4.6 digits
        bound = int(mpmath.floor(2 * mpmath.cosh(mpmath.mpf(length_cutoff) / 2)))
    found = [t for t in (x, y) if t <= bound]
    stack = [(x, y, z), (x, y, x * y - z)]
    while stack:
        ta, tb, t = stack.pop()
        if t <= bound:
            found.append(t)
        for child in ((ta, t, ta * t - tb), (t, tb, t * tb - ta)):
            if not (child[2] > bound and child[2] >= child[0] and child[2] >= child[1]):
                stack.append(child)
    return found


def sorted_traces(triple, length_cutoff, *, max_records=None):
    """The chunks of `trace_chunks`, joined and sorted: the trace column of the spectrum."""
    chunks = trace_chunks(triple, length_cutoff, max_records=max_records)
    return sorted(chain.from_iterable(chunks))
