"""Closed-form term functions and series evaluation of the identities.

Each identity states that a sum of dilogarithm brackets over the simple
length spectrum of a small hyperbolic surface equals pi^2/2 (or 1/2 for the
classical horocycle identity).  The term functions:

    one-holed torus, boundary k, geodesic b:
        L((cosh(k/2)+1)/(cosh(k/2)+cosh b))
        + 2 L(cosh(k/4 + b/2) / (cosh(k/4) e^{b/2}))
        - 2 L(2 sinh(b/2) / ((1 + e^{-k/2}) e^{b/2}))

    cusped torus, geodesic b:
        L(sech^2(b/2)) + 2 L((1+e^{-b})/2) - 2 L((1-e^{-b})/2)

    trace-squared form, s = tr^2 > 4 (equivalent to the cusped form):
        L(4/s) + 2 L(s/(s+sqrt(s^2-4s))) - 2 L(sqrt(s^2-4s)/(s+sqrt(s^2-4s)))

    orthogeodesic form of the one-holed torus (seams m, q of the cut pants),
    x = e^{-k/2}, y = tanh^2(m/2); the lasso's own L(y) cancels the 2 L(y):
        L(tanh^2(q/2)) + 2 L(y) - 2 La(x, y)
        = L(tanh^2(q/2)) + 2 L((1-x)/(1-xy)) - 2 L((1-y)/(1-xy)),
    with the guard x < y and all arguments read in 1 - x and 1 - y =
    sech^2(m/2), which stay accurate where x and y round to 1

    four-holed sphere with boundaries c, interior geodesic of length a:
        the orthogeodesic, simple (in c and a only) and cusped brackets are
        the torus brackets above under k = 2c, a = 2b, the two-to-one
        correspondence of interior geodesics; each delegates to its torus
        form, bit for bit, since doubling and halving are exact

    horocycle term: 1 / (1 + e^b), summing to 1/2 on the cusped torus.

All brackets decay like e^{-b}; dilogarithm arguments are computed in
overflow-free exponential forms, and beyond b = 700 a bracket is replaced
by its analytic limit 0 (its true value is below 1e-300 there).

The pants-level functions cover the building blocks of the corresponding
identity on closed surfaces: `pants_sum_term` for an embedded three-holed
sphere (two printed forms, equal through the Euler relation),
`quasi_pants_term` for a quasi-embedded three-holed sphere determined by a
torus boundary k and an interior geodesic b, and
`torus_contribution_partial` for the complementary partial form

    4 pi^2 - sum_b 8 [2 La(e^{-b}, tanh^2(m/2)) + L(sech^2(p/2))].

`iter_terms` is the one evaluation path: it enumerates the spectrum and
yields each record with its term and the running sum; `evaluate` and the
CLI consume it.  Summation is compensated (Neumaier) in ascending length
order, so the result is deterministic and order-dependence stays below
1e-14.
"""

import enum
import math
from math import cosh, exp, expm1, pi, sqrt, tanh

from dataclasses import asdict, dataclass

from .curves import DEFAULT_MAX_RECORDS, GeodesicRecord, enumerate_geodesics
from .dilog import lasso, rogers
from .errors import DomainError
from .pants import foursphere_ortho, pants_geometry, torus_ortho
from .torus import TraceTriple

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
    "compensated_sum",
    "RunningSum",
]

PI2_2 = pi * pi / 2.0

# beyond this the brackets underflow; substitute the analytic limit
_LIMIT_LENGTH = 700.0


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


_CUSPED_KINDS = frozenset(
    {IdentityKind.THM12, IdentityKind.THM15, IdentityKind.FOUR_CUSPED, IdentityKind.MCSHANE}
)
_FOUR_KINDS = frozenset(
    {IdentityKind.FOUR, IdentityKind.FOUR_SIMPLE, IdentityKind.FOUR_CUSPED}
)


@dataclass
class IdentityReport:
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
        return {**asdict(self), "kind": self.kind.value}


class RunningSum:
    """Neumaier compensated accumulator with a fixed feed order."""

    __slots__ = ("_sum", "_compensation")

    def __init__(self):
        self._sum = 0.0
        self._compensation = 0.0

    def add(self, value: float) -> float:
        """Feed `value`; returns the compensated running sum."""
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._compensation += (self._sum - total) + value
        else:
            self._compensation += (value - total) + self._sum
        self._sum = total
        return total + self._compensation


def compensated_sum(values) -> float:
    add = RunningSum().add
    total = 0.0
    for v in values:
        total = add(v)
    return total


def _bracket(first, second, third):
    return rogers(first) + 2.0 * rogers(second) - 2.0 * rogers(third)


def _check_positive(name, value):
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive length, got {value!r}")


def term_one_holed(k: float, b: float) -> float:
    """Bracket for a geodesic of length b on the torus with boundary k."""
    _check_positive("k", k)
    _check_positive("b", b)
    if b > _LIMIT_LENGTH:
        return 0.0
    # (cosh(k/2)+1)/(cosh(k/2)+cosh b), scaled by e^{-m} against overflow
    m = max(0.5 * k, b)
    num = exp(0.5 * k - m) + 2.0 * exp(-m) + exp(-0.5 * k - m)
    den = exp(0.5 * k - m) + exp(-0.5 * k - m) + exp(b - m) + exp(-b - m)
    first = num / den
    # cosh(k/4 + b/2)/(cosh(k/4) e^{b/2}) = (1 + e^{-k/2 - b})/(1 + e^{-k/2})
    second = (1.0 + exp(-0.5 * k - b)) / (1.0 + exp(-0.5 * k))
    third = -expm1(-b) / (1.0 + exp(-0.5 * k))
    return _bracket(first, second, third)


def term_cusped(b: float) -> float:
    """Bracket for a geodesic of length b on the cusped torus."""
    _check_positive("b", b)
    if b > _LIMIT_LENGTH:
        return 0.0
    sech_half = 2.0 * exp(-0.5 * b) / (1.0 + exp(-b))
    return _bracket(sech_half * sech_half, 0.5 * (1.0 + exp(-b)), 0.5 * -expm1(-b))


def term_trace_squared(trace_squared: float) -> float:
    """Cusped-torus bracket written in s = tr^2 of the class."""
    if not math.isfinite(trace_squared) or trace_squared <= 4.0:
        raise DomainError(f"trace squared must exceed 4, got {trace_squared!r}")
    u = sqrt((trace_squared - 4.0) / trace_squared)  # sqrt(s^2-4s)/s
    return _bracket(4.0 / trace_squared, 1.0 / (1.0 + u), u / (1.0 + u))


def term_ortho_torus(k: float, m: float, q: float) -> float:
    """Bracket in the orthogeodesic lengths (m, q) of the cut torus."""
    _check_positive("k", k)
    _check_positive("m", m)
    _check_positive("q", q)
    cx = -expm1(-0.5 * k)
    cy = 1.0 / cosh(0.5 * m) ** 2 if m < _LIMIT_LENGTH else 0.0
    # geometric seams approach equality like e^{-b}, to rounding for long b:
    # hence a relative slack of 2^-46 (64 ulps)
    if cy > cx * (1.0 + 2.0**-46):
        raise DomainError(
            f"guard e^(-k/2) < tanh^2(m/2) violated (k={k!r}, m={m!r}): non-geometric input"
        )
    d = cx + exp(-0.5 * k) * cy  # 1 - e^{-k/2} tanh^2(m/2)
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
    return 1.0 / (1.0 + exp(b)) if b < _LIMIT_LENGTH else 0.0


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
        rogers(tanh(0.5 * m) ** 2) - rogers(1.0 / cosh(0.5 * d) ** 2)
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
        rogers(1.0 / cosh(0.5 * m) ** 2) + rogers(1.0 / cosh(0.5 * d) ** 2)
        for m, d in zip(seams, perps)
    )
    return 4.0 * pi * pi - 8.0 * (core + _pants_lasso_sum((l1, l2, l3), seams))


def _lasso_guard(b, m):
    y = tanh(0.5 * m) ** 2
    if exp(-b) >= y:
        raise DomainError(
            f"guard e^(-b) < tanh^2(m/2) violated (b={b!r}, m={m!r}): non-geometric input"
        )
    return y


def quasi_pants_term(k: float, b: float, ortho=None) -> float:
    """Quasi-embedded three-holed-sphere bracket.

    Determined by the torus boundary length k and the interior geodesic
    length b; `ortho` may supply precomputed (m, p, q) orthogeodesic
    lengths of the cut pants.
    """
    _check_positive("k", k)
    _check_positive("b", b)
    m, p, q = ortho if ortho is not None else torus_ortho(k, b)
    y = _lasso_guard(b, m)  # before the seam guard of term_ortho_torus
    return 8.0 * (
        term_ortho_torus(k, m, q) - rogers(1.0 / cosh(0.5 * p) ** 2) - 2.0 * lasso(exp(-b), y)
    )


def torus_contribution_partial(k: float, records) -> float:
    """Partial one-holed-torus contribution, complement form.

    4 pi^2 minus the truncated sum of 8 [2 La(e^{-b}, tanh^2(m/2))
    + L(sech^2(p/2))] over the enumerated records.  Converges to the same
    value as the sum of `quasi_pants_term` over the full spectrum.
    """
    _check_positive("k", k)
    add = RunningSum().add
    total = 0.0
    for record in records:
        b = record.length
        m, p, _ = torus_ortho(k, b)
        y = _lasso_guard(b, m)
        total = add(8.0 * (2.0 * lasso(exp(-b), y) + rogers(1.0 / cosh(0.5 * p) ** 2)))
    return 4.0 * pi * pi - total


def check_point_kind(kind: IdentityKind, k: float) -> None:
    """Reject point/identity mismatches (cusped kinds need k = 0)."""
    if kind in _CUSPED_KINDS:
        if k != 0.0:
            raise DomainError(f"identity {kind.value} needs a cusped point, got k={k!r}")
    elif k <= 0.0:
        raise DomainError(f"identity {kind.value} needs boundary length k > 0, got k={k!r}")


def identity_term(kind: IdentityKind, k: float, record: GeodesicRecord) -> float:
    """Contribution of one geodesic record to the identity `kind`."""
    b = record.length
    if kind is IdentityKind.THM11:
        return term_one_holed(k, b)
    if kind is IdentityKind.THM12:
        return term_cusped(b)
    if kind is IdentityKind.THM15:
        return term_trace_squared(record.trace * record.trace)
    if kind is IdentityKind.THM31:
        ortho = torus_ortho(k, b)
        return term_ortho_torus(k, ortho.m, ortho.q)
    if kind is IdentityKind.FOUR:
        ortho = foursphere_ortho(0.5 * k, 2.0 * b)
        return term_ortho_torus(k, ortho.m, ortho.p)
    if kind is IdentityKind.FOUR_SIMPLE:
        return term_one_holed(k, b)
    if kind is IdentityKind.FOUR_CUSPED:
        return term_cusped(b)
    if kind is IdentityKind.MCSHANE:
        return term_mcshane(b)
    raise DomainError(f"unknown identity kind {kind!r}")


def tail_estimate(k: float, cutoff: float) -> float:
    """Heuristic bound C e^{-L} (1 + L) with C = 4 (cosh(k/2) + 1).

    Reporting aid only: the brackets decay like e^{-b} empirically, but no
    proven tail bound backs this constant.
    """
    return 4.0 * (cosh(0.5 * k) + 1.0) * exp(-cutoff) * (1.0 + cutoff)


def iter_terms(
    kind: IdentityKind,
    triple: TraceTriple,
    cutoff: float,
    *,
    max_records: int = DEFAULT_MAX_RECORDS,
):
    """Yield (record, term, partial) over the spectrum of `triple`.

    Records come in ascending length order; `partial` is the compensated
    sum of the terms yielded so far.  The point is checked against `kind`
    and the spectrum enumerated before the first yield.
    """
    k = triple.k
    check_point_kind(kind, k)
    add = RunningSum().add
    for record in enumerate_geodesics(triple, cutoff, max_records=max_records):
        term = identity_term(kind, k, record)
        yield record, term, add(term)


def evaluate(
    kind: IdentityKind,
    triple: TraceTriple,
    cutoff: float,
    *,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> IdentityReport:
    """Sum the `kind` terms of `iter_terms` into a report.

    Four-holed-sphere kinds take the torus point through the two-to-one
    correspondence of interior geodesics: boundary c = k/2 and interior
    length a = 2b for each torus record of length b.
    """
    term_count, partial = 0, 0.0
    for term_count, (_, _, partial) in enumerate(
        iter_terms(kind, triple, cutoff, max_records=max_records), 1
    ):
        pass
    k = triple.k
    target = 0.5 if kind is IdentityKind.MCSHANE else PI2_2
    parameters = {
        "x": triple.x,
        "y": triple.y,
        "z": triple.z,
        "kappa": triple.kappa,
        "k": k,
    }
    if kind in _FOUR_KINDS:
        parameters["c"] = 0.5 * k
    return IdentityReport(
        kind=kind,
        parameters=parameters,
        cutoff=cutoff,
        term_count=term_count,
        partial_sum=partial,
        target=target,
        defect=target - partial,
        tail_estimate=tail_estimate(k, cutoff),
    )
