"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from math import fsum, gcd, pi

from hypident import (
    FenchelNielsen,
    IdentityKind,
    brute_force_trace,
    enumerate_geodesics,
    evaluate,
    foursphere_ortho,
    from_fenchel_nielsen,
    from_traces,
    identity_term,
    pants_sum_term,
    quasi_pants_term,
    rogers,
    term_foursphere_cusped,
    term_foursphere_ortho,
    term_foursphere_simple,
    torus_contribution_partial,
    trace_triple,
)

PI2_6 = pi * pi / 6.0
PI2_2 = pi * pi / 2.0
MODULAR = trace_triple(3.0, 3.0, 3.0)


def _report(number, label, worst, bound):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"criterion {number:02d} {label}: {status} (worst {worst:.3e}, bound {bound:.0e})")
    assert worst <= bound, f"criterion {number}: {worst} > {bound}"


def test_criterion_01_dilog_exactness():
    worst = max(
        abs(rogers(0.0) - 0.0),
        abs(rogers(0.5) - pi * pi / 12.0),
        abs(rogers(1.0) - PI2_6),
        abs(rogers(-1.0) + pi * pi / 12.0),
    )
    _report(1, "dilog special values", worst, 1e-13)


def test_criterion_02_dilog_functional_equations():
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(1e-9, 1.0)
        worst = max(worst, abs(rogers(x) + rogers(1.0 - x) - PI2_6))
    for _ in range(1000):
        x = rng.uniform(1e-6, 1000.0)
        worst = max(worst, abs(rogers(-x) + rogers(-1.0 / x) + PI2_6))
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0 - 1e-8)
        worst = max(worst, abs(rogers(-x / (1.0 - x)) + rogers(x)))
    for _ in range(1000):
        x, y = rng.random(), rng.random()
        worst = max(
            worst,
            abs(
                rogers(x)
                + rogers(y)
                + rogers((1.0 - x) / (1.0 - x * y))
                + rogers((1.0 - y) / (1.0 - x * y))
                - rogers(x * y)
                - 2.0 * PI2_6
            ),
        )
    _report(2, "dilog functional equations", worst, 1e-11)


def test_criterion_03_cusped_torus_convergence():
    report = evaluate(IdentityKind.THM12, MODULAR, 25.0)
    _report(3, "cusped-torus identity at the modular point", abs(report.defect), 1e-6)


def test_criterion_04_mcshane_cross_check():
    report = evaluate(IdentityKind.MCSHANE, MODULAR, 25.0)
    _report(4, "horocycle identity at the modular point", abs(report.defect), 1e-6)


def test_criterion_05_boundary_torus_convergence():
    rng = random.Random(1005)
    worst = 0.0
    for _ in range(10):
        b = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.0, b)
        k = rng.uniform(0.2, 4.0)
        triple = from_fenchel_nielsen(FenchelNielsen(b, t, k))
        report = evaluate(IdentityKind.THM11, triple, 25.0)
        worst = max(worst, abs(report.defect))
    _report(5, "one-holed torus identity at 10 seeded points", worst, 1e-4)


def test_criterion_06_foursphere_reformulation():
    worst = 0.0
    for c in (0.1, 0.5, 1.0, 2.0, 5.0):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0):
            ortho = foursphere_ortho(c, a)
            worst = max(
                worst,
                abs(
                    term_foursphere_ortho(c, ortho.m, ortho.p)
                    - term_foursphere_simple(c, a)
                ),
            )
    _report(6, "four-holed sphere bracket reformulation", worst, 1e-9)


def test_criterion_07_termwise_equivalences():
    worst_boundary = 0.0
    for seed in (1, 2):
        rng = random.Random(1007 + seed)
        fn = FenchelNielsen(rng.uniform(0.7, 2.5), rng.uniform(0.0, 0.7), rng.uniform(0.3, 3.0))
        triple = from_fenchel_nielsen(fn)
        for record in enumerate_geodesics(triple, 20.0):
            a = identity_term(IdentityKind.THM11, triple.k, record)
            b = identity_term(IdentityKind.THM31, triple.k, record)
            worst_boundary = max(worst_boundary, abs(a - b))
    worst_cusped = 0.0
    for record in enumerate_geodesics(MODULAR, 22.0):
        a = identity_term(IdentityKind.THM12, 0.0, record)
        b = identity_term(IdentityKind.THM15, 0.0, record)
        worst_cusped = max(worst_cusped, abs(a - b))
    _report(7, "orthogeodesic vs length form (boundary)", worst_boundary, 1e-9)
    _report(7, "trace-squared vs length form (cusped)", worst_cusped, 1e-11)


def test_criterion_08_cusp_limits():
    worst_term = 0.0
    for a in (0.5, 1.0, 2.0, 5.0, 10.0):
        worst_term = max(
            worst_term, abs(term_foursphere_simple(1e-6, a) - term_foursphere_cusped(a))
        )
    near_cusp = from_traces(3.0, 3.0, 1e-6)
    sum_gap = abs(
        evaluate(IdentityKind.THM11, near_cusp, 20.0).partial_sum
        - evaluate(IdentityKind.THM12, MODULAR, 20.0).partial_sum
    )
    _report(8, "four-holed sphere cusp limit", worst_term, 1e-4)
    _report(8, "one-holed torus cusp limit", sum_gap, 1e-4)


def test_criterion_09_enumeration_oracle():
    rng = random.Random(1009)
    worst = 0.0
    for _ in range(5):
        # t = 0 keeps the minimal marking aligned with the word construction
        fn = FenchelNielsen(rng.uniform(0.6, 2.8), 0.0, rng.uniform(0.2, 4.0))
        records = enumerate_geodesics(from_fenchel_nielsen(fn), 18.0)
        checked = 0
        for record in records:
            if record.slope.q <= 8 and abs(record.slope.p) <= 50:
                oracle = brute_force_trace(fn, record.slope)
                worst = max(worst, abs(oracle - record.trace) / record.trace)
                checked += 1
        assert checked >= 20
    got = {(r.slope.p, r.slope.q) for r in enumerate_geodesics(MODULAR, 30.0)}
    complete = True
    for n in (3, 5):
        want = {(1, 0)}
        for q in range(1, n + 1):
            for p in range(-n, n + 1):
                if gcd(abs(p), q) == 1:
                    want.add((p, q))
        complete = complete and {s for s in got if max(abs(s[0]), s[1]) <= n} == want
    farey5 = [s for s in got if s[1] >= 1 and 0 <= s[0] <= s[1] and s[1] <= 5]
    complete = complete and len(farey5) == 11
    _report(9, "tree traces vs word oracle (relative)", worst, 1e-9)
    assert complete, "slope completeness does not match totient counts"
    print("criterion 09 slope completeness vs totient counts: PASS")


def test_criterion_10_quasi_pants_reformulation():
    worst_gap = 0.0
    for seed in (1, 2):
        rng = random.Random(1010 + seed)
        fn = FenchelNielsen(rng.uniform(0.8, 2.0), rng.uniform(0.0, 0.5), rng.uniform(0.5, 2.5))
        triple = from_fenchel_nielsen(fn)
        records = enumerate_geodesics(triple, 20.0)
        direct = fsum(quasi_pants_term(triple.k, r.length) for r in records)
        partial = torus_contribution_partial(triple.k, records)
        # direct - partial = -8 defect(thm31) over any truncation
        defect = evaluate(IdentityKind.THM31, triple, 20.0).defect
        worst_gap = max(worst_gap, abs(direct - partial + 8.0 * defect))
    worst_sym = 0.0
    import itertools

    lengths = (0.9, 1.6, 2.4)
    base = pants_sum_term(*lengths)
    for perm in itertools.permutations(lengths):
        worst_sym = max(worst_sym, abs(pants_sum_term(*perm) - base))
    _report(10, "torus contribution vs quasi-pants sum less 8 defects", worst_gap, 1e-13)
    _report(10, "embedded-pants bracket permutation symmetry", worst_sym, 1e-12)
