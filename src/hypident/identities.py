"""Closed-form term functions and series evaluation of the identities.

Each identity states that a sum of dilogarithm brackets over the simple
length spectrum of a small hyperbolic surface equals pi^2/2 (or 1/2 for the
classical horocycle identity).  The term functions:

    simple bracket of the torus with one geodesic boundary k or, at k = 0,
    a cusp; geodesic b, x = e^{-k/2}, s = e^{-b}:
        L((cosh(k/2)+1)/(cosh(k/2)+cosh b))
        + 2 L(cosh(k/4 + b/2) / (cosh(k/4) e^{b/2}))
        - 2 L(2 sinh(b/2) / ((1 + e^{-k/2}) e^{b/2}))
      = L(s(1+x)^2 / ((x+s)(1+xs))) + 2 L((1+xs)/(1+x)) - 2 L((1-s)/(1+x)),
    since cosh(k/2) + cosh b = (x+s)(1+xs)/(2xs); every argument is formed
    from x and s, once.  At k = 0 (x = 1) this is the cusped torus's
        L(sech^2(b/2)) + 2 L((1+e^{-b})/2) - 2 L((1-e^{-b})/2)

    trace-squared form, s = tr^2 > 4 (equivalent to the cusped form):
        L(4/s) + 2 L(s/(s+sqrt(s^2-4s))) - 2 L(sqrt(s^2-4s)/(s+sqrt(s^2-4s)))

    The simple bracket's last two arguments are m + s/2 and m - s/2, with
    1 - m = (2x + s(1-x)) / (2(1+x)), and they cancel like s.  Where x
    rounds to 1 (the cusp, or k below ~1e-16) m is 1/2, and for s <= e^{-1}
    (b >= 1) the pair is summed as 2 D(s), the odd series
    `dilog.rogers_odd_series`, which is accurate relative to its size: the
    bracket takes one `rogers` call instead of three, past b = 17 too.  The
    trace form does the same, reading e^{-b} as 4/(tr^2 (1+u)^2),
    u = sqrt(1 - 4/tr^2) = tanh(b/2), which equals (1-u)/(1+u) but forms
    no 1 - u.

    Otherwise, from b = 17 + k/2 on, the pair is its first-order form
    2 s L'(m), L'(z) = -(log(1-z)/z + log(z)/(1-z))/2 (Zagier 2007), read
    in 1 - m: one `rogers` call, two logs and two exps, with no
    cancellation.  The dropped term s^3 L'''(m)/12 is at most 1.2e-17 of
    the bracket at the switch (k from 1e-3 to 30, against mpmath at 50
    digits; 9.1e-17 at b = 16 + k/2), and falls like e^{-2b} past it.  So
    the bracket is within 4e-15 of mpmath from the switch to b = 700, where
    the three-call form errs by 7.7e-5 at b = 30 and by 100% at b = 60;
    below the switch, the bracket is the three-call form.

    orthogeodesic form of the one-holed torus (seams m, q of the cut pants),
    x = e^{-k/2}, y = tanh^2(m/2); the lasso's own L(y) cancels the 2 L(y):
        L(tanh^2(q/2)) + 2 L(y) - 2 La(x, y)
        = L(tanh^2(q/2)) + 2 L((1-x)/(1-xy)) - 2 L((1-y)/(1-xy)),
    with the guard x < y and all arguments read in 1 - x and 1 - y =
    sech^2(m/2), which stay accurate where x and y round to 1

    With cx = 1 - x, cy = 1 - y and d = 1 - xy = cx + x cy, its pair
    2 L(cx/d) - 2 L(cy/d) has the gap g = (cx - cy)/d, which is e^{-b} at the
    seams of the cut along b, about mid with 1 - mid = (cx - cy + 2 x cy)/(2d).
    Where |g| < x e^{-17} (b > 17 + k/2 in exact arithmetic: the simple
    bracket's switch, stated in the bracket's own arguments) the pair is
    2 g L'(mid), formed by the helper the simple bracket's long-b form uses:
    one `rogers` call and two logs, dropping the same g^3 L'''(mid)/12.  The
    test is on |g| because seam rounding can make g negative, and
    1 - mid = g/2 + x cy/d stays positive there.  The floor of this form's
    accuracy is the seams, not the form: cx - cy is the difference of
    1 - e^{-k/2} and sech^2 of a rounded seam, off by a few ulps of cx in
    either form (within ~4e-15 of mpmath at the same float seams, the
    first-order form no farther than the three-call one), so thm31 and four
    sums over long spectra still drift from thm11, by up to ~1e-12 at
    cutoff 100.  Below the switch the bracket is the three-call form.

    four-holed sphere with boundaries c, interior geodesic of length a:
        the orthogeodesic, simple (in c and a only) and cusped brackets are
        the torus brackets above under k = 2c, a = 2b, the two-to-one
        correspondence of interior geodesics; each delegates to its torus
        form, bit for bit, since doubling and halving are exact

    horocycle term: 1 / (1 + e^b), summing to 1/2 on the cusped torus.

All brackets decay like e^{-b}; dilogarithm arguments are computed in
overflow-free exponential forms, and from b = 700 on (b >= 700, in every
test) a bracket is replaced by its analytic limit 0 (its true value is
below 1e-300 there).

The pants-level functions cover the building blocks of the corresponding
identity on closed surfaces: `pants_sum_term` for an embedded three-holed
sphere (two printed forms, equal through the Euler relation),
`quasi_pants_term` for a quasi-embedded three-holed sphere determined by a
torus boundary k and an interior geodesic b, and
`torus_contribution_partial` for the complementary partial form

    4 pi^2 - sum_b 8 [2 La(e^{-b}, tanh^2(m/2)) + L(sech^2(p/2))].

`evaluate`, `iter_terms` and `identity_term` share one path: check the
kind and the point with `check_point_kind`, the only reader of the kind
table, and hand `_terms` sorted trace columns.  `_terms` forms each
column's lengths itself, lazily, with `torus.lengths_from_traces`, which
checks the whole column first, and is the one cut at length 700: it
bisects the sorted traces there, and the kind's table kernel maps the
columns below it to an iterator of terms, in order, with no limit test of
its own.  Most kernels `map` their scalar bracket, with no Python frame of
their own per term; thm31 and four `starmap` it over the seams of
`pants.torus_seams` and `pants.foursphere_seams`, which form the fixed
boundary's trigonometry once per column; `mcshane` is a chain of `map`s
over `exp`, `add` and `truediv`, with no Python frame per term.  `evaluate` and `iter_terms`
round the exact sum of the terms once, so the result depends on neither
the order of the terms nor the cuts between columns, and both give the
same sum bit for bit.  `evaluate` takes the walk's chunks of at most 4,096
traces from `curves.trace_chunks` as they come and sorts each in place;
one `math.fsum` runs over the terms of the chunks in turn, so `evaluate`
holds one chunk of untracked floats at a time, never the spectrum.
`iter_terms` hands `_terms` the records' traces and yields each record
with its term and the running sum (the CLI's `terms`), kept exactly as an
int in units of 2^-1074 and rounded at each yield.
"""

import enum
import math
from bisect import bisect_left
from functools import partial
from itertools import chain, islice, repeat, starmap
from math import cosh, exp, expm1, log, log1p, pi, sqrt, tanh
from operator import add, mul, truediv
from typing import NamedTuple

from .curves import GeodesicRecord, enumerate_geodesics, trace_chunks
from .dilog import ODD_SERIES_MAX, lasso, rogers, rogers_odd_series
from .errors import DomainError
from .pants import foursphere_ortho  # noqa: F401  looked up here by benchmarks/tracer.py
from .pants import foursphere_seams, pants_geometry, torus_ortho, torus_seams
from .torus import TraceTriple, length_from_trace, lengths_from_traces

__all__ = [
    "IdentityKind",
    "IdentityReport",
    "term_one_holed",
    "term_cusped",
    "term_trace_squared",
    "term_ortho_torus",
    "term_foursphere_ortho",
    "term_foursphere_simple",
    "term_foursphere_cusped",
    "term_mcshane",
    "pants_sum_term",
    "pants_sum_term_via_complement",
    "quasi_pants_term",
    "torus_contribution_partial",
    "identity_term",
    "check_point_kind",
    "iter_terms",
    "evaluate",
    "tail_estimate",
]

PI2_2 = pi * pi / 2.0

# beyond this the brackets underflow; substitute the analytic limit
_LIMIT_LENGTH = 700.0

# the orthogeodesic pair is first order below the gap e^{-k/2} e^{-17}: at the seams
# of the cut along b the gap is e^{-b}, so this is the simple bracket's b >= 17 + k/2
_FIRST_ORDER_GAP = exp(-17.0)


class IdentityKind(enum.Enum):
    """Which identity a report verifies; values are the CLI spellings."""

    THM11 = "thm11"
    THM12 = "thm12"
    THM15 = "thm15"
    THM31 = "thm31"
    FOUR = "four"
    FOUR_SIMPLE = "four-simple"
    FOUR_CUSPED = "four-cusped"
    MCSHANE = "mcshane"


class IdentityReport(NamedTuple):
    """Outcome of one truncated identity evaluation."""

    kind: IdentityKind
    parameters: dict
    cutoff: float
    term_count: int
    partial_sum: float
    target: float
    defect: float
    tail_estimate: float

    def to_dict(self):
        return {**self._asdict(), "parameters": dict(self.parameters), "kind": self.kind.value}


def _bracket(first, second, third):
    return rogers(first) + 2.0 * rogers(second) - 2.0 * rogers(third)


def _first_order_pair(g, om):
    # 2 L(mid + g/2) - 2 L(mid - g/2) to first order in the gap g: 2 g L'(mid), read in
    # om = 1 - mid; both brackets' pairs, each with its own gap and om
    return -g * (log(om) / (1.0 - om) + log1p(-om) / om)


def _sech2_half(x):  # sech^2(x/2), or its limit 0 from x = 700 on, before cosh^2 can overflow
    return 1.0 / cosh(0.5 * x) ** 2 if x < _LIMIT_LENGTH else 0.0


def _check_positive(name, value):
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive length, got {value!r}")


def term_one_holed(k: float, b: float) -> float:
    """Bracket for a geodesic of length b on the torus with boundary k >= 0.

    k = 0 is the cusped torus.  Where e^{-k/2} rounds to 1 and b >= 1 the
    pair is the odd series; from b = 17 + k/2 on, the pair
    2 L(m + s/2) - 2 L(m - s/2), s = e^{-b}, is 2 s L'(m), whose first
    dropped term, s^3 L'''(m)/12, is at most 1.2e-17 of the bracket (the
    module docstring gives the forms).
    """
    if not 0.0 <= k < math.inf:  # also NaN
        raise DomainError(f"k must be a finite length >= 0, got {k!r}")
    _check_positive("b", b)
    if b >= _LIMIT_LENGTH:
        return 0.0
    # s is normal since b < 700; first = (cosh(k/2)+1)/(cosh(k/2)+cosh b),
    # whose denominator is (x + s)(1 + xs)/(2xs)
    x, s = exp(-0.5 * k), exp(-b)
    first = s * (1.0 + x) ** 2 / ((x + s) * (1.0 + x * s))
    if x == 1.0 and s <= ODD_SERIES_MAX:  # the pair at m = 1/2
        return rogers(first) + 2.0 * rogers_odd_series(s)
    if b >= 17.0 + 0.5 * k:  # the pair at gap s about m, read in om = 1 - m
        om = (2.0 * x + s * (1.0 - x)) / (2.0 * (1.0 + x))
        return rogers(first) + _first_order_pair(s, om)
    # first rounds above 1 at some b < 1e-6, where the ratio rounds to 1
    return _bracket(min(first, 1.0), (1.0 + x * s) / (1.0 + x), -expm1(-b) / (1.0 + x))


def term_cusped(b: float) -> float:
    """Bracket for a geodesic of length b on the cusped torus: the holed one at k = 0."""
    return term_one_holed(0.0, b)


def term_trace_squared(trace_squared: float) -> float:
    """Cusped-torus bracket written in s = tr^2 of the class."""
    if not math.isfinite(trace_squared) or trace_squared <= 4.0:
        raise DomainError(f"trace squared must exceed 4, got {trace_squared!r}")
    u = sqrt((trace_squared - 4.0) / trace_squared)  # sqrt(s^2-4s)/s
    first = 4.0 / trace_squared
    e_b = first / ((1.0 + u) * (1.0 + u))  # e^{-b} = (1-u)/(1+u)
    if e_b > ODD_SERIES_MAX:
        return _bracket(first, 1.0 / (1.0 + u), u / (1.0 + u))
    return rogers(first) + 2.0 * rogers_odd_series(e_b)


def term_ortho_torus(k: float, m: float, q: float) -> float:
    """Bracket in the orthogeodesic lengths (m, q) of the cut torus.

    Its pair 2 L(cx/d) - 2 L(cy/d) has gap g = (cx - cy)/d; below the gap
    e^{-k/2} e^{-17} it is 2 g L'(mid), one `rogers` call in place of three
    (the module docstring gives the forms).
    """
    _check_positive("k", k)
    _check_positive("m", m)
    _check_positive("q", q)
    cx = -expm1(-0.5 * k)
    cy = _sech2_half(m)
    # geometric seams approach equality like e^{-b}, to rounding for long b (by
    # at most 20 ulps over 400,000 seeded (k, b) in [1e-9, 30] x [0.01, 700], and
    # 21 for the four-holed-sphere seam at (k/2, 2b)): hence a relative slack of 2^-46.
    # cx = cy = 0 (k below ~1e-323 and m >= 700) leaves d = 0: refused as well
    if not cy < cx * (1.0 + 2.0**-46):
        raise DomainError(
            f"guard e^(-k/2) < tanh^2(m/2) violated (k={k!r}, m={m!r}): non-geometric input"
        )
    x = exp(-0.5 * k)
    d = cx + x * cy  # 1 - e^{-k/2} tanh^2(m/2)
    g = (cx - cy) / d  # e^{-b} at the seams of the cut along b
    # |g|: seam rounding can make g negative, and then om = g/2 + x cy/d stays > 0
    if abs(g) < x * _FIRST_ORDER_GAP:
        om = (cx - cy + 2.0 * x * cy) / (2.0 * d)
        return rogers(tanh(0.5 * q) ** 2) + _first_order_pair(g, om)
    return _bracket(tanh(0.5 * q) ** 2, cx / d, cy / d)


def term_foursphere_ortho(c: float, m: float, p: float) -> float:
    """Bracket in the orthogeodesic lengths (m, p) of the cut four-holed sphere."""
    return term_ortho_torus(2.0 * c, m, p)


def term_foursphere_simple(c: float, a: float) -> float:
    """Bracket in the boundary length c and interior length a alone."""
    return term_one_holed(2.0 * c, 0.5 * a)


def term_foursphere_cusped(a: float) -> float:
    """Bracket for the quadruply-punctured sphere, interior length a."""
    return term_cusped(0.5 * a)


def term_mcshane(b: float) -> float:
    """Horocycle term 1/(1 + e^b); the cusped-torus sum is 1/2."""
    if 0.0 < b < _LIMIT_LENGTH:
        return 1.0 / (1.0 + exp(b))
    _check_positive("b", b)
    return 0.0


def _pants_lasso_sum(lengths, seams):
    acc = 0.0
    for i in range(3):
        for j in range(3):
            if i != j:
                acc += lasso(exp(-lengths[i]), tanh(0.5 * seams[j]) ** 2)
    return acc


def pants_sum_term(l1: float, l2: float, l3: float) -> float:
    """Embedded three-holed-sphere bracket (closed form).

    8 [ sum_i ( L(tanh^2(m_i/2)) - L(sech^2(p_i/2)) )
        - sum_{i != j} La(e^{-l_i}, tanh^2(m_j/2)) ]
    """
    g = pants_geometry(l1, l2, l3)
    seams = (g.m1, g.m2, g.m3)
    perps = (g.d1, g.d2, g.d3)
    core = sum(
        rogers(tanh(0.5 * m) ** 2) - rogers(_sech2_half(d))
        for m, d in zip(seams, perps)
    )
    return 8.0 * (core - _pants_lasso_sum((l1, l2, l3), seams))


def pants_sum_term_via_complement(l1: float, l2: float, l3: float) -> float:
    """The same bracket written as a complement against the total measure.

    4 pi^2 - 8 [ sum_i ( L(sech^2(m_i/2)) + L(sech^2(p_i/2)) )
                 + sum_{i != j} La(e^{-l_i}, tanh^2(m_j/2)) ]
    """
    g = pants_geometry(l1, l2, l3)
    seams = (g.m1, g.m2, g.m3)
    perps = (g.d1, g.d2, g.d3)
    core = sum(
        rogers(_sech2_half(m)) + rogers(_sech2_half(d))
        for m, d in zip(seams, perps)
    )
    return 4.0 * pi * pi - 8.0 * (core + _pants_lasso_sum((l1, l2, l3), seams))


def _lasso_guard(b, m):
    # the seam m of `torus_ortho(k, b)` always has e^(-b) < tanh^2(m/2) in
    # exact arithmetic; for large k the gap falls below float resolution
    y = tanh(0.5 * m) ** 2
    if exp(-b) >= y:
        raise DomainError(
            f"guard e^(-b) < tanh^2(m/2) violated (b={b!r}, m={m!r}):"
            " at this k the seam gap is below float resolution"
        )
    return y


def quasi_pants_term(k: float, b: float) -> float:
    """Quasi-embedded three-holed-sphere bracket.

    Determined by the torus boundary length k and the interior geodesic
    length b, through the orthogeodesic lengths (m, p, q) of the cut pants
    that `torus_ortho(k, b)` gives.
    """
    _check_positive("k", k)
    _check_positive("b", b)
    if b >= _LIMIT_LENGTH:  # before the cut pants, whose cosh can overflow
        return 0.0
    m, p, q = torus_ortho(k, b)
    y = _lasso_guard(b, m)  # before the seam guard of term_ortho_torus
    return 8.0 * (
        term_ortho_torus(k, m, q) - rogers(_sech2_half(p)) - 2.0 * lasso(exp(-b), y)
    )


def torus_contribution_partial(k: float, records) -> float:
    """Partial one-holed-torus contribution, complement form.

    4 pi^2 minus the truncated sum of 8 [2 La(e^{-b}, tanh^2(m/2))
    + L(sech^2(p/2))] over the enumerated records.  Converges to the same
    value as the sum of `quasi_pants_term` over the full spectrum.
    """
    _check_positive("k", k)

    def term(b):
        if b >= _LIMIT_LENGTH:  # as in `quasi_pants_term`
            return 0.0
        m, p, _ = torus_ortho(k, b)
        y = _lasso_guard(b, m)
        return 8.0 * (2.0 * lasso(exp(-b), y) + rogers(_sech2_half(p)))

    return 4.0 * pi * pi - math.fsum(term(record.length) for record in records)


def _simple(k, t, b):  # the simple torus bracket, cusped at k = 0
    return map(term_one_holed, repeat(k), b)


# kind -> (kernel, cusped, target, reports_c).  kernel(k, traces, lengths) maps
# the sorted trace column and its length column, below length 700, to the terms,
# in order, every name inside it read at call time; a cusped kind needs k = 0, the
# others a boundary k > 0; target is the value of the full sum; reports_c adds
# the four-holed-sphere boundary c = k/2 to the parameters
_IDENTITIES = {
    IdentityKind.THM11: (_simple, False, PI2_2, False),
    IdentityKind.THM12: (_simple, True, PI2_2, False),
    IdentityKind.THM15: (
        lambda k, t, b: map(term_trace_squared, map(mul, t, t)), True, PI2_2, False
    ),
    IdentityKind.THM31: (
        lambda k, t, b: starmap(partial(term_ortho_torus, k), torus_seams(k, b)),
        False, PI2_2, False,
    ),
    IdentityKind.FOUR: (
        lambda k, t, b: starmap(
            partial(term_ortho_torus, k), foursphere_seams(0.5 * k, map(mul, repeat(2.0), b))
        ),
        False, PI2_2, True,
    ),
    IdentityKind.FOUR_SIMPLE: (_simple, False, PI2_2, True),
    IdentityKind.FOUR_CUSPED: (_simple, True, PI2_2, True),
    IdentityKind.MCSHANE: (  # `term_mcshane` below length 700
        lambda k, t, b: map(truediv, repeat(1.0), map(add, repeat(1.0), map(exp, b))),
        True, 0.5, False,
    ),
}


def _terms(kernel, k, traces):
    # the kernel's terms of the sorted trace column below length 700, where the
    # traces reach it, and from there on the limit 0.0; the length column is
    # formed lazily, after one check of the whole trace column
    lengths = lengths_from_traces(traces)
    short = bisect_left(traces, _LIMIT_LENGTH, key=length_from_trace)
    terms = kernel(k, traces[:short], islice(lengths, short))
    return chain(terms, repeat(0.0, len(traces) - short))


def check_point_kind(kind: IdentityKind, k: float):
    """The row of `kind`; refuses an unknown kind or a mismatched k (cusped kinds need 0)."""
    try:
        row = _IDENTITIES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise DomainError(f"unknown identity kind {kind!r}") from None
    if row[1]:
        if k != 0.0:
            raise DomainError(f"identity {kind.value} needs a cusped point, got k={k!r}")
    elif k <= 0.0:
        raise DomainError(f"identity {kind.value} needs boundary length k > 0, got k={k!r}")
    return row


def identity_term(kind: IdentityKind, k: float, record: GeodesicRecord) -> float:
    """Contribution of one geodesic record to the identity `kind`.

    The kind and k are checked as `evaluate` checks them, and the record is
    read by its trace alone, as `evaluate` reads the walk: `_terms` runs the
    kind's kernel on the column (trace,).
    """
    return next(_terms(check_point_kind(kind, k)[0], k, (record.trace,)))


def tail_estimate(k: float, cutoff: float) -> float:
    """Heuristic scale C e^{-L} (1 + L) of the truncation defect, C = 4 (cosh(k/2) + 1).

    Reporting aid only, not a bound: measured defects run from 0.04 to 670
    times it (mcshane on the modular torus and on FN(24.8, 0, 0)).
    """
    if not (0.0 <= k < math.inf and 0.0 < cutoff < math.inf):
        raise DomainError(f"tail estimate needs finite k >= 0, cutoff > 0; got {k!r}, {cutoff!r}")
    try:
        return 4.0 * (cosh(0.5 * k) + 1.0) * exp(-cutoff) * (1.0 + cutoff)
    except OverflowError:
        raise DomainError(f"tail estimate overflows at k={k!r}, cutoff={cutoff!r}") from None


def iter_terms(kind: IdentityKind, triple: TraceTriple, cutoff: float):
    """Yield (record, term, partial) over the spectrum of `triple`.

    Records come from `enumerate_geodesics`, under its record cap, in
    ascending (trace, slope) order; `partial` is the correctly rounded sum
    of the terms yielded so far, as `math.fsum` gives it.  The kind, and
    the point against it, are checked before the spectrum is enumerated,
    which happens before the first yield.  The collector runs as the
    caller left it between yields.
    """
    k = triple.k
    kernel = check_point_kind(kind, k)[0]
    records = enumerate_geodesics(triple, cutoff)
    terms = _terms(kernel, k, [r.trace for r in records])
    # the running sum, exactly, in units of 1/scale = 2^-1074, the least subnormal
    exact, scale = 0, 2**1074  # bound once: the compiler does not fold 2**1074
    for record, term in zip(records, terms):
        n, d = term.as_integer_ratio()  # d = 2^e with e <= 1074
        exact += n << (1075 - d.bit_length())
        yield record, term, exact / scale  # int / int rounds correctly


def evaluate(
    kind: IdentityKind,
    triple: TraceTriple,
    cutoff: float,
    *,
    max_records: int | None = None,
) -> IdentityReport:
    """Sum the `kind` terms over the spectrum of `triple` into a report.

    The chunks of `trace_chunks` are summed as the walk yields them.  Each
    is sorted in place, so `_terms` cuts it at length 700 by bisection; its
    lazy length column, `lengths_from_traces`, checks the chunk once, up
    front.
    One `math.fsum` runs over the terms of every chunk and rounds their
    exact sum once, so neither the cuts nor the order moves a bit: the
    count and sum are those of `iter_terms`.  No record, no length list and
    no list of the spectrum is built, and no Python frame is spent per
    trace.  `max_records` goes to `trace_chunks` as it is: None caps the
    walk at `curves.DEFAULT_MAX_RECORDS` as it stands at the call, as for
    `iter_terms`.

    After the kind and the point, refusals come in walk order: a chunk is
    refused or summed before the walk goes on, and the check that no slope
    was walked twice runs after the last one.  So a point refused on two
    counts reports the one met first: a failing term of an earlier chunk
    comes before the record cap or a child trace <= 2 met later in the
    walk, the walk's refusal before any term of the chunk it was filling,
    and within a chunk the shortest failing length.  Either way the
    refusal is typed.

    Four-holed-sphere kinds take the torus point through the two-to-one
    correspondence of interior geodesics: boundary c = k/2 and interior
    length a = 2b for each torus geodesic of length b.
    """
    k = triple.k
    kernel, _, target, reports_c = check_point_kind(kind, k)
    count = 0

    def chunk_terms():
        # one iterator of terms per chunk, sorted in place, so that fsum runs
        # in C from one chunk to the next and no Python frame is resumed per term
        nonlocal count
        for chunk in trace_chunks(triple, cutoff, max_records=max_records):
            chunk.sort()
            count += len(chunk)
            yield _terms(kernel, k, chunk)

    partial = math.fsum(chain.from_iterable(chunk_terms()))
    parameters = triple._asdict()
    if reports_c:
        parameters["c"] = 0.5 * k
    return IdentityReport(
        kind=kind,
        parameters=parameters,
        cutoff=cutoff,
        term_count=count,
        partial_sum=partial,
        target=target,
        defect=target - partial,
        tail_estimate=tail_estimate(k, cutoff),
    )
