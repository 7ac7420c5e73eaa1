"""Inputs, batches and correctness checks of the four workloads.

A workload is a fixed batch of operations made from the seed.  The harness
repeats the batch for the measured time; every repetition must give the same
outcomes bit for bit.  An operation is one `evaluate` call (with the
construction of its point) or one CLI launch, and ends in one outcome:

    "ok"       the result is within the workload's tolerance
    "wrong"    it returned, but |defect| > rel_tol * target, or a CLI launch
               exited with an unexpected code or printed other bytes than
               the reference
    <Error>    it raised; the outcome is the exception's type name

Refusals and wrong answers are counted, never filtered out of the inputs.
"""

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# hypident's typed refusals; anything else raised is tallied as "other"
REFUSAL_TYPES = (
    "DomainError",
    "SingularInputError",
    "NonHyperbolicError",
    "NoRealStructureError",
    "ResourceLimitError",
)


@dataclass
class Op:
    outcome: str
    terms: int = 0
    defect: float | None = None
    ns: int = 0


@dataclass
class Batch:
    ops: list
    wall_ns: int
    digest: tuple
    bytes_out: int = 0
    bare_ns: list = field(default_factory=list)


# ---------------------------------------------------------------- evaluate


@dataclass(frozen=True)
class Point:
    """One `evaluate` call: a point given as traces or as (b, t, k)."""

    coords: tuple
    by_traces: bool
    kind: str
    cutoff: float
    max_records: int | None = None


def _cusped_kinds(hy):
    K = hy.IdentityKind
    return (K.THM12, K.THM15, K.FOUR_CUSPED, K.MCSHANE)


def _holed_kinds(hy):
    K = hy.IdentityKind
    return (K.THM11, K.THM31, K.FOUR, K.FOUR_SIMPLE)


def _run_point(hy, point, rel_tol):
    start = perf_counter_ns()
    try:
        if point.by_traces:
            triple = hy.trace_triple(*point.coords)
        else:
            triple = hy.from_fenchel_nielsen(hy.FenchelNielsen(*point.coords))
        kwargs = {} if point.max_records is None else {"max_records": point.max_records}
        report = hy.evaluate(hy.IdentityKind(point.kind), triple, point.cutoff, **kwargs)
    except Exception as exc:  # every raised error is a counted refusal
        name = type(exc).__name__
        outcome = name if name in REFUSAL_TYPES else "other"
        return Op(outcome, ns=perf_counter_ns() - start), (name,)
    ns = perf_counter_ns() - start
    ok = abs(report.defect) <= rel_tol * abs(report.target)
    op = Op("ok" if ok else "wrong", report.term_count, report.defect, ns)
    return op, (report.term_count, report.partial_sum)


class EvaluateWorkload:
    """Workload of in-process `evaluate` calls on a list of points."""

    cli = False

    def __init__(self, points, rel_tol, wrong_is_incorrect):
        self.points = points
        self.rel_tol = rel_tol
        self.wrong_is_incorrect = wrong_is_incorrect

    def batch(self, hy, replay=False):
        ops, digest = [], []
        start = perf_counter_ns()
        for point in self.points:
            op, key = _run_point(hy, point, self.rel_tol)
            ops.append(op)
            digest.append((op.outcome, key))
        return Batch(ops, perf_counter_ns() - start, tuple(digest))


def _strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in a seeded order.

    Drawing each coordinate this way (a Latin hypercube) keeps the mix of
    surfaces, and so the work of a batch, nearly the same from seed to seed.
    """
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _log_scale(u, low, high):
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def thick_terms(hy, seed, smoke):
    """Modular torus at cutoff 45 plus seeded non-thin surfaces at cutoff 35.

    b in [0.5, 3], t in [-b, b]; half the surfaces are cusped, half have
    k in [0.3, 4].  Each surface runs the four identity kinds valid at it.
    """
    rng = random.Random(f"thick-terms-{seed}")
    per_class, cutoff, modular_cutoff = (1, 15.0, 15.0) if smoke else (18, 35.0, 45.0)
    points = [Point((3.0, 3.0, 3.0), True, kind.value, modular_cutoff) for kind in _cusped_kinds(hy)]
    for kinds, k_draws in (
        (_cusped_kinds(hy), [0.0] * per_class),
        (_holed_kinds(hy), [0.3 + 3.7 * u for u in _strata(rng, per_class)]),
    ):
        for u_b, u_t, k in zip(_strata(rng, per_class), _strata(rng, per_class), k_draws):
            b = 0.5 + 2.5 * u_b
            t = b * (2.0 * u_t - 1.0)
            points.extend(Point((b, t, k), False, kind.value, cutoff) for kind in kinds)
    return EvaluateWorkload(points, 1e-3 if smoke else 1e-10, wrong_is_incorrect=True)


# FN (24.8, 0, 0): its shortest geodesic has length ~1.6e-5
THIN_CUSP = (24.8, 0.0, 0.0)


def thin_cusp(hy, seed, smoke):
    """`mcshane` on the thin cusped torus; the point is fixed, not seeded."""
    coords, cutoff = ((8.0, 0.0, 0.0), 20.0) if smoke else (THIN_CUSP, 25.5)
    point = Point(coords, False, hy.IdentityKind.MCSHANE.value, cutoff)
    return EvaluateWorkload([point], 1e-5, wrong_is_incorrect=True)


def domain_sweep(hy, seed, smoke):
    """Log-uniform points over the whole FenchelNielsen domain.

    b log-uniform in [0.01, 30], t uniform in [-3b, 3b]; a quarter of the
    points, at seeded positions, are cusped (k = 0) and the rest have k
    log-uniform in [1e-8, 10].  Each point takes the next identity kind
    valid at it, at cutoff 14.  The thin, large-twist and k -> 0 corners
    stay in: the refusals and wrong surfaces found there are the workload's
    failed operations.
    """
    rng = random.Random(f"domain-sweep-{seed}")
    n = 16 if smoke else 400
    cusped_at = set(rng.sample(range(n), n // 4))
    k_draws = iter(_log_scale(u, 1e-8, 10.0) for u in _strata(rng, n - len(cusped_at)))
    kinds = {True: itertools.cycle(_cusped_kinds(hy)), False: itertools.cycle(_holed_kinds(hy))}
    points = []
    for i, u_b, u_t in zip(range(n), _strata(rng, n), _strata(rng, n)):
        b = _log_scale(u_b, 0.01, 30.0)
        t = 3.0 * b * (2.0 * u_t - 1.0)
        cusped = i in cusped_at
        k = 0.0 if cusped else next(k_draws)
        points.append(Point((b, t, k), False, next(kinds[cusped]).value, 14.0, max_records=50_000))
    # 10% of the target sits above the truncation of honest points at cutoff
    # 14 (at most ~3%, at b ~ 0.01 with k ~ 10)
    return EvaluateWorkload(points, 0.1, wrong_is_incorrect=False)


# --------------------------------------------------------------------- cli


def _cli_commands(smoke):
    if smoke:
        return [
            ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "12", "--tol", "1e-2"],
            ["terms", "--identity", "thm11", "--fn", "1.2,0.4,1.5", "--cutoff", "10", "--format", "csv"],
            ["spectrum", "--traces", "3,3,3", "--cutoff", "10"],
            ["sweep", "--identity", "thm11", "--vary", "k=0.5:2:0.5", "--fn", "1.2,0.3,_", "--cutoff", "10"],
        ]
    return [
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "25"],
        ["terms", "--identity", "thm11", "--fn", "1.2,0.4,1.5", "--cutoff", "30", "--format", "csv"],
        ["spectrum", "--traces", "3,3,3", "--cutoff", "25"],
        ["sweep", "--identity", "thm11", "--vary", "k=0.1:4:0.1", "--fn", "1.2,0.3,_", "--cutoff", "25"],
    ]


def _cli_terms(command, text):
    """(geodesics accounted for, defects) parsed from one command's output."""
    if command == "verify":
        report = json.loads(text)
        return report["term_count"], [report["defect"]]
    if command == "terms":
        return text.count("\n") - 1, []
    if command == "spectrum":
        return len(json.loads(text)), []
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return sum(int(r[3]) for r in rows), [float(r[5]) for r in rows]


def launch(cmd, env):
    """Run `cmd` to completion; (completed process, wall time in ns)."""
    start = perf_counter_ns()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
    return proc, perf_counter_ns() - start


class CliWorkload:
    """Fresh-process launches of `python -m hypident`, each after a bare launch.

    The seed only shuffles the launch order of each round; the commands are
    fixed so that identical launches can be compared byte for byte.
    """

    cli = True
    wrong_is_incorrect = True

    def __init__(self, hy, seed, smoke, env):
        self.commands = _cli_commands(smoke)
        self.rng = random.Random(f"cli-{seed}")
        self.env = env
        self.expected = []  # (exit code, stdout bytes) from an in-process run
        for argv in self.commands:
            out = io.StringIO()
            code = hy.cli.run(list(argv), out=out, err=io.StringIO())
            self.expected.append((code, out.getvalue().encode("utf-8")))

    def _check(self, index, code, data, ns):
        expected_code, expected_bytes = self.expected[index]
        ok = code == expected_code == 0 and data == expected_bytes
        terms, defects = _cli_terms(self.commands[index][0], data.decode("utf-8")) if ok else (0, [])
        defect = max(map(abs, defects)) if defects else None
        return Op("ok" if ok else "wrong", terms, defect, ns)

    def batch(self, hy, replay=False):
        """One round of the mix: launched, or replayed in-process through cli.run."""
        order = list(range(len(self.commands)))
        self.rng.shuffle(order)
        ops = [None] * len(order)
        bare, wall, bytes_out = [], 0, 0
        for index in order:
            argv = list(self.commands[index])
            if replay:
                out = io.StringIO()
                start = perf_counter_ns()
                code = hy.cli.run(argv, out=out, err=io.StringIO())
                ns = perf_counter_ns() - start
                data = out.getvalue().encode("utf-8")
            else:
                bare.append(launch([sys.executable, "-c", "pass"], self.env)[1])
                proc, ns = launch([sys.executable, "-m", "hypident", *argv], self.env)
                code, data = proc.returncode, proc.stdout
            wall += ns
            bytes_out += len(data)
            ops[index] = self._check(index, code, data, ns)
        digest = tuple((op.outcome, op.terms) for op in ops)
        return Batch(ops, wall, digest, bytes_out, bare)


def child_env(src):
    """Environment for fresh interpreters that import hypident from `src`."""
    return dict(os.environ, PYTHONPATH=str(src))


WORKLOADS = ("thick-terms", "thin-cusp", "domain-sweep", "cli")


def make_workload(name, hy, seed, smoke, env):
    if name == "cli":
        return CliWorkload(hy, seed, smoke, env)
    build = {"thick-terms": thick_terms, "thin-cusp": thin_cusp, "domain-sweep": domain_sweep}
    return build[name](hy, seed, smoke)
