"""Command-line front end: verify, spectrum, terms, sweep, selftest.

All output is machine-readable: JSON by default, CSV with --format csv.
CSV uses LF line endings and prints floats with 17 significant digits;
JSON uses the shortest round-trip representation.  Exit codes: 0 success
(for verify: |defect| <= --tol), 1 verification or selftest failure, 2
usage or domain errors with a one-line diagnostic on stderr.
"""

import argparse
import json
import math
import os
import sys
from operator import attrgetter

from .curves import brute_force_trace, enumerate_geodesics
from .dilog import PI2_6, rogers
from .errors import DomainError, ResourceLimitError
from .identities import (
    IdentityKind,
    evaluate,
    identity_term,  # noqa: F401  looked up here by benchmarks/tracer.py
    iter_terms,
    term_foursphere_ortho,
    term_foursphere_simple,
)
from .pants import foursphere_ortho, torus_ortho
from .torus import FenchelNielsen, from_fenchel_nielsen, trace_triple

__all__ = ["run", "main"]

# a sweep grid is built as a list before any point is evaluated
_MAX_SWEEP_POINTS = 10**6

_IDENTITY_NAMES = [kind.value for kind in IdentityKind]

# the `IdentityReport` fields of a sweep row, after the varied parameter
_SWEEP_FIELDS = ("cutoff", "term_count", "partial_sum", "defect", "tail_estimate")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one-line diagnostic on stderr, exit code 2 (via _UsageError)
    def error(self, message):
        raise _UsageError(message)


def _csv_field(value) -> str:
    # ints as ints, floats with 17 significant digits
    return str(value) if isinstance(value, (str, int)) else format(value, ".17g")


def _emit(out, fmt, header, rows):
    """Write `rows` as CSV lines or as one JSON list of header-keyed objects."""
    if fmt == "json":
        out.write(json.dumps([dict(zip(header, row)) for row in rows]) + "\n")
        return
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(map(_csv_field, row)) + "\n")


def _parse_floats(text, count, option):
    parts = text.split(",")
    if len(parts) != count:
        raise _UsageError(f"{option} expects {count} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"malformed number in {option}={text!r}") from None


def _point_from_args(args):
    if (args.traces is None) == (args.fn is None):
        raise _UsageError("exactly one of --traces x,y,z or --fn b,t,k is required")
    if args.traces is not None:
        x, y, z = _parse_floats(args.traces, 3, "--traces")
        return trace_triple(x, y, z)
    b, t, k = _parse_floats(args.fn, 3, "--fn")
    return from_fenchel_nielsen(FenchelNielsen(b, t, k))


def _add_common(parser, with_identity):
    if with_identity:
        parser.add_argument("--identity", required=True, choices=_IDENTITY_NAMES)
    parser.add_argument("--traces", help="trace triple x,y,z")
    parser.add_argument("--fn", help="Fenchel-Nielsen data b,t,k")
    parser.add_argument("--cutoff", type=float, required=True, help="length cutoff")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def _build_parser():
    parser = _Parser(prog="hypident", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate an identity and check its defect")
    _add_common(p, with_identity=True)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("spectrum", help="dump the enumerated simple length spectrum")
    _add_common(p, with_identity=False)

    p = sub.add_parser("terms", help="dump per-geodesic terms and partial sums")
    _add_common(p, with_identity=True)

    p = sub.add_parser("sweep", help="evaluate an identity over a parameter grid")
    p.add_argument("--identity", required=True, choices=_IDENTITY_NAMES)
    p.add_argument("--vary", required=True, help="name=start:stop:step (inclusive of start)")
    p.add_argument("--fn", required=True, help="b,t,k with _ in the varied slot")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_verify(args, out):
    # `abs(defect) <= tol` never holds for a NaN or negative tol
    if not args.tol >= 0.0:
        raise _UsageError(f"--tol must be >= 0, got {args.tol!r}")
    kind = IdentityKind(args.identity)
    triple = _point_from_args(args)
    report = evaluate(kind, triple, args.cutoff)
    fields = report.to_dict()
    if args.format == "json":
        out.write(json.dumps(fields) + "\n")
    else:
        params = fields.pop("parameters")
        row = {"kind": fields.pop("kind")}
        row.update((f"param_{name}", params[name]) for name in sorted(params))
        row.update(fields)
        _emit(out, "csv", list(row), [list(row.values())])
    return 0 if abs(report.defect) <= args.tol else 1


def _cmd_spectrum(args, out):
    triple = _point_from_args(args)
    rows = [
        (r.slope.p, r.slope.q, r.trace, r.length)
        for r in enumerate_geodesics(triple, args.cutoff)
    ]
    _emit(out, args.format, ["p", "q", "trace", "length"], rows)
    return 0


def _cmd_terms(args, out):
    kind = IdentityKind(args.identity)
    triple = _point_from_args(args)
    # materialized first: a term that raises leaves stdout empty
    rows = [
        (r.slope.p, r.slope.q, r.length, term, partial)
        for r, term, partial in iter_terms(kind, triple, args.cutoff)
    ]
    _emit(out, args.format, ["p", "q", "length", "term", "partial_sum"], rows)
    return 0


def _parse_sweep_range(text):
    if "=" not in text:
        raise _UsageError(f"--vary expects name=start:stop:step, got {text!r}")
    name, _, range_text = text.partition("=")
    if name not in ("b", "t", "k"):
        raise _UsageError(f"--vary parameter must be b, t or k, got {name!r}")
    parts = range_text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--vary expects name=start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"malformed number in --vary={text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"--vary range must be finite, got {text!r}")
    if step <= 0.0 or stop < start:
        raise _UsageError(f"--vary range must have step > 0 and stop >= start, got {text!r}")
    # nudge against float rounding so nominal endpoints stay included
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_POINTS:  # also refuses an infinite span
        raise _UsageError(
            f"--vary range must have at most {_MAX_SWEEP_POINTS} points, got {text!r}"
        )
    return name, [start + i * step for i in range(math.floor(span) + 1)]


def _cmd_sweep(args, out):
    kind = IdentityKind(args.identity)
    name, values = _parse_sweep_range(args.vary)
    slots = args.fn.split(",")
    if len(slots) != 3:
        raise _UsageError(f"--fn expects b,t,k with one _ slot, got {args.fn!r}")
    slot_names = ("b", "t", "k")
    if slots.count("_") != 1 or slot_names[slots.index("_")] != name:
        raise _UsageError(f"--fn must hold _ exactly in the {name!r} slot, got {args.fn!r}")
    fixed = {}
    for slot, text in zip(slot_names, slots):
        if text != "_":
            try:
                fixed[slot] = float(text)
            except ValueError:
                raise _UsageError(f"malformed number in --fn={args.fn!r}") from None

    columns = attrgetter(*_SWEEP_FIELDS)
    rows = []
    for value in values:
        params = dict(fixed)
        params[name] = value
        triple = from_fenchel_nielsen(FenchelNielsen(params["b"], params["t"], params["k"]))
        rows.append((name, value, *columns(evaluate(kind, triple, args.cutoff))))
    header = ["param_name", "param_value", *_SWEEP_FIELDS]
    if args.out:
        # opened after the grid is evaluated: a refused point leaves the file as it was
        try:
            handle = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
        with handle:
            _emit(handle, "csv", header, rows)
    else:
        _emit(out, "csv", header, rows)
    return 0


def _selftest_checks(seed):
    import random  # only selftest draws random points
    rng = random.Random(seed)

    def dilog_values():
        worst = max(
            abs(rogers(0.0)),
            abs(rogers(0.5) - PI2_6 / 2.0),
            abs(rogers(1.0) - PI2_6),
            abs(rogers(-1.0) + PI2_6 / 2.0),
        )
        return worst, 1e-13

    def dilog_equations():
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(1e-9, 1.0)
            y = rng.uniform(1e-9, 1.0 - 1e-9)
            worst = max(
                worst,
                abs(rogers(x) + rogers(1.0 - x) - PI2_6),
                abs(rogers(-x) + rogers(-1.0 / x) + PI2_6),
                abs(rogers(-y / (1.0 - y)) + rogers(y)),
                abs(
                    rogers(x) + rogers(y)
                    + rogers((1.0 - x) / (1.0 - x * y))
                    + rogers((1.0 - y) / (1.0 - x * y))
                    - rogers(x * y)
                    - 2.0 * PI2_6
                ),
            )
        return worst, 1e-11

    def foursphere_forms():
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
        return worst, 1e-9

    def covering_correspondence():
        worst = 0.0
        for k in (0.2, 1.0, 2.0, 4.0, 8.0):
            for b in (0.5, 1.0, 2.0, 5.0, 10.0):
                four = foursphere_ortho(0.5 * k, 2.0 * b)
                torus = torus_ortho(k, b)
                worst = max(
                    worst,
                    abs(four.m - torus.m),
                    abs(four.p - torus.q),
                    abs(four.q - torus.p),
                )
        return worst, 1e-10

    def enumeration_oracle():
        worst = 0.0
        for _ in range(3):
            fn = FenchelNielsen(rng.uniform(0.8, 2.5), 0.0, rng.uniform(0.3, 3.0))
            records = enumerate_geodesics(from_fenchel_nielsen(fn), 16.0)
            for record in records:
                if record.slope.q <= 8 and abs(record.slope.p) <= 50:
                    oracle = brute_force_trace(fn, record.slope)
                    worst = max(worst, abs(oracle - record.trace) / record.trace)
        return worst, 1e-9

    return [
        ("dilog special values", dilog_values),
        ("dilog functional equations", dilog_equations),
        ("four-holed sphere bracket forms", foursphere_forms),
        ("covering correspondence", covering_correspondence),
        ("enumeration vs word oracle", enumeration_oracle),
    ]


def _cmd_selftest(args, out):
    failures = 0
    for label, check in _selftest_checks(args.seed):
        worst, bound = check()
        ok = worst <= bound
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        out.write(f"{status} {label}: worst {worst:.3e} (bound {bound:.0e})\n")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "terms": _cmd_terms,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def run(argv, out=None, err=None) -> int:
    """Parse argv (without program name) and execute; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (_UsageError, DomainError, ResourceLimitError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    """Console entry point: `run` on the process arguments, then exit with its code.

    A reader that closes stdout early (`hypident spectrum ... | head -1`) ends
    the run with exit code 1 and no traceback, as the SIGPIPE note of the
    `signal` documentation does it.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # inside the try: the last buffered rows may meet the closed pipe
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
