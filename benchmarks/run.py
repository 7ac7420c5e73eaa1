"""Benchmark of hypident: one workload per run, one JSON result on the last line.

Run from the repository root:

    python3 benchmarks/run.py --workload thick-terms --seed 0 --seconds 25 --trace 0

Workloads: thick-terms, thin-cusp, domain-sweep, cli (see NOTES.md for why
each exists and what it predicts).  The run repeats the workload's fixed
batch for --seconds in one single-threaded closed loop: one client, each call
waits for the previous one.  Between batches it launches fresh processes that
time the import of `hypident` (set-up).  With --trace 0 the last line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
traced batches, measured against untraced batches that alternate with them.
Every line before the last is a readable report of every metric with its
unit, the correctness accounting and the run environment.  --smoke shrinks
every input for a quick self-check of the harness.

The program is imported from src/ of the checkout the script sits in; the
run exits nonzero, printing no result, when that source tree is missing.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from kernels import kernel_metrics  # noqa: E402
from tracer import Tracer, traced  # noqa: E402
from workloads import REFUSAL_TYPES, WORKLOADS, child_env, launch, make_workload  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# printed in the report next to the end-to-end metrics, but not gated
REPORTED = {
    "failed_frac": "frac",
    "defect_max": "abs",
    "bare_python_ms_p50": "ms",
}

_BRANCHES = ("series", "euler", "landen", "inversion")
_SPANS = (
    "dilog.rogers",
    "dilog.lasso",
    "pants.torus_ortho",
    "pants.foursphere_ortho",
    "torus.from_fenchel_nielsen",
    "torus.trace_triple",
    "curves.enumerate",
    "identities.evaluate",
    "identities.term",
    "cli.run",
)

PER_LAYER = {
    **{f"{span}.{stat}": unit for span in _SPANS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"dilog.rogers.calls.{b}": "count" for b in _BRANCHES},
    **{f"dilog.rogers.ns.{b}": "ns" for b in _BRANCHES},
    "dilog.lasso.ns": "ns",
    "dilog.rogers.max_abs_err": "abs",
    "curves.reduce.self_s": "s",
    "curves.records": "count",
    "curves.us_per_record": "us",
    "identities.ns_per_term": "ns",
    **{f"identities.refused.{name}": "count" for name in (*REFUSAL_TYPES, "other")},
    "identities.wrong": "count",
    "cli.bytes_out": "bytes",
    "cli.startup_ms": "ms",
    "trace.overhead_frac": "frac",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hypident, hypident.cli; "
    "print(time.perf_counter() - t)"
)


def _sizes(smoke):
    if smoke:
        return {"setup_launches": 3, "grid": 100, "checked": 3, "repeats": 2}
    return {"setup_launches": 30, "grid": 2000, "checked": 150, "repeats": 5}


class Setup:
    """Fresh-process import times of hypident, with bare interpreter launches (s).

    The launches are spread over the measured time, between batches, not
    bunched before it: the machine's slow phases last seconds, and a bunch
    of launches can fall entirely inside one.  A bare `python -c pass`
    launch precedes every third import launch.
    """

    def __init__(self, env, launches):
        self.env = env
        self.launches = launches
        self.imports, self.import_launches, self.bare = [], [], []
        launch([sys.executable, "-c", _IMPORT_PROBE], env)  # byte-compiles once

    def _probe(self):
        proc, ns = launch([sys.executable, "-c", _IMPORT_PROBE], self.env)
        if proc.returncode != 0:
            raise SystemExit(f"error: importing hypident failed:\n{proc.stderr.decode()}")
        self.imports.append(float(proc.stdout))
        self.import_launches.append(ns / 1e9)

    def catch_up(self, share):
        """Launch until `share` (0 to 1) of the import launches are done."""
        while len(self.imports) < min(self.launches, math.ceil(share * self.launches)):
            if len(self.imports) % 3 == 0:
                self.bare.append(launch([sys.executable, "-c", "pass"], self.env)[1] / 1e9)
            self._probe()


def measure(workload, hy, seconds, setup, tracer=None):
    """Repeated batches until `seconds` have passed, at least one, and the set-up launches.

    A full collection before each batch starts it from the same collector
    state, so every repeat does the same garbage-collection work (on
    `thin-cusp` the count of full collections inside one `evaluate` otherwise
    varies from 6 to 9).  With a `tracer`, each batch is replayed in-process
    and followed by a traced one, so that both see the same drift in the
    machine's speed; the traced batches are returned second.
    """
    batches, traced_batches = [], []
    start = perf_counter()
    while not batches or perf_counter() - start < seconds:
        gc.collect()
        batches.append(workload.batch(hy, replay=tracer is not None))
        if tracer is not None:
            gc.collect()
            with traced(hy, tracer):
                traced_batches.append(workload.batch(hy, replay=True))
        setup.catch_up((perf_counter() - start) / seconds)
    setup.catch_up(1.0)
    return batches, traced_batches


def accounting(workload, reference, batches):
    """(attempted, failed, correct, outcome tally of one batch).

    `attempted` and `failed` count the batch's distinct operations once, not
    once per timed repeat: every repeat must give the same outcomes (else the
    run is not correct), so the counts depend on the seed alone, not on how
    many repeats fit into the measured time.
    """
    failed = sum(op.outcome != "ok" for op in reference.ops)
    tally = {}
    for op in reference.ops:
        tally[op.outcome] = tally.get(op.outcome, 0) + 1
    repeatable = all(batch.digest == reference.digest for batch in batches)
    correct = (
        repeatable
        and "other" not in tally
        and not (workload.wrong_is_incorrect and "wrong" in tally)
    )
    return len(reference.ops), failed, correct, tally


def _slow_times(batches):
    """Each operation's 90th-percentile time over the run's repeats, in seconds.

    The CPU of the machine this was tuned on switches, every few seconds,
    between a fast state and one 1.5 to 1.8 times slower, and the share of
    time spent in each changes from minute to minute.  Nearly every 25 s
    window holds some of the slow state, at a steady level, so the 90th
    percentile of an operation's repeats reads it; the median and the
    fastest repeat follow the changing share.
    """
    per_op = zip(*([op.ns for op in batch.ops] for batch in batches))
    return [_p90(list(times)) / 1e9 for times in per_op]


def end_to_end(workload, batches, imports):
    slow = _slow_times(batches)
    wall = sum(slow)
    op_ms = [seconds * 1e3 for seconds in slow]
    usage = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    return {
        "setup_s": _p90(imports),
        "wall_s": wall,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": _p90(op_ms),
        "terms_per_s": sum(op.terms for op in batches[0].ops) / wall,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(workload, hy, seed, seconds, sizes, setup):
    """Per-layer metrics of a traced run, against untraced batches alternating with it."""
    tracer = Tracer()
    untraced_batches, batches = measure(workload, hy, seconds, setup, tracer)
    spans, counters = tracer.snapshot()
    n = len(batches)

    def span(name):
        return spans.get(name, (0, 0, 0))

    metrics = {}
    for name in _SPANS:
        calls, _, self_ns = span(name)
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_s"] = self_ns / n / 1e9
    for branch in _BRANCHES:
        metrics[f"dilog.rogers.calls.{branch}"] = counters[f"dilog.rogers.calls.{branch}"] / n
    metrics.update(kernel_metrics(hy, seed, sizes["grid"], sizes["checked"], sizes["repeats"]))
    records = counters["curves.records"]
    metrics["curves.reduce.self_s"] = span("curves.reduce")[2] / n / 1e9
    metrics["curves.records"] = records / n
    metrics["curves.us_per_record"] = span("curves.enumerate")[1] / records / 1e3 if records else 0.0
    term_calls, term_ns, _ = span("identities.term")
    metrics["identities.ns_per_term"] = term_ns / term_calls if term_calls else 0.0
    outcomes = [op.outcome for batch in batches for op in batch.ops]
    for name in (*REFUSAL_TYPES, "other", "wrong"):
        key = "identities.wrong" if name == "wrong" else f"identities.refused.{name}"
        metrics[key] = outcomes.count(name) / n
    metrics["cli.bytes_out"] = sum(batch.bytes_out for batch in batches) / n
    metrics["cli.startup_ms"] = (_p90(setup.import_launches) - _p90(setup.bare)) * 1e3
    untraced_wall = sum(_slow_times(untraced_batches))
    metrics["trace.overhead_frac"] = sum(_slow_times(batches)) / untraced_wall - 1.0
    return metrics, untraced_batches + batches


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypident").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _context(args, batches, setup, tally):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "batches": len(batches),
        "ops": sum(len(batch.ops) for batch in batches),
        "setup_launches": len(setup.imports),
        "tally": tally,
    }


def _print_report(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def _import_program():
    if not (SRC / "hypident" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypident source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypident
    import hypident.cli  # noqa: F401

    if SRC.resolve() not in Path(hypident.__file__).resolve().parents:
        raise SystemExit(f"error: imported hypident from {hypident.__file__}, not from {SRC}")
    return hypident


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    hy = _import_program()
    sizes = _sizes(args.smoke)
    env = child_env(SRC)
    setup = Setup(env, sizes["setup_launches"])
    workload = make_workload(args.workload, hy, args.seed, args.smoke, env)

    if args.trace:
        metrics, batches = per_layer(workload, hy, args.seed, args.seconds, sizes, setup)
        units = PER_LAYER
    else:
        batches, _ = measure(workload, hy, args.seconds, setup)
        metrics = end_to_end(workload, batches, setup.imports)
        units = END_TO_END
    reference = batches[0]
    attempted, failed, correct, tally = accounting(workload, reference, batches)

    defects = [abs(op.defect) for op in reference.ops if op.outcome == "ok" and op.defect is not None]
    bare = setup.bare + [ns / 1e9 for batch in batches for ns in batch.bare_ns]
    reported = {
        "failed_frac": failed / attempted,
        "defect_max": max(defects) if defects else float("nan"),
        "bare_python_ms_p50": statistics.median(bare) * 1e3,
    }
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    _print_report(f"{args.workload}: {kind} metrics", metrics, units)
    _print_report(f"{args.workload}: reported, not gated", reported, REPORTED)
    print(f"  outcomes of one batch: {json.dumps(tally, sort_keys=True)}")
    print(f"  failed {failed} of {attempted} attempted; correct={correct}")
    print("context " + json.dumps(_context(args, batches, setup, tally)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
