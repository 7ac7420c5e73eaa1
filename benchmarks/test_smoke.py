"""Smoke test of the benchmark harness: tiny inputs, every metric with its unit.

Run from the repository root with `python -m pytest benchmarks`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hypident.cli  # noqa: E402
from tracer import Tracer, traced  # noqa: E402

# BENCHMARK.json declares the workloads and the gated and per-layer metrics;
# the reported ones and the context are printed only, so they are listed here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REPORTED = {"failed_frac": "frac", "defect_max": "abs", "bare_python_ms_p50": "ms"}
CONTEXT = ("python", "nproc", "git_sha", "src_sha256", "seed", "batches", "ops", "setup_launches")


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in {**expected, **REPORTED}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    assert all(key in context for key in CONTEXT)
    if trace and workload == "thin-cusp":
        assert result["metrics"]["dilog.rogers.calls"]["value"] == 0


def test_rogers_recursion_is_one_span():
    tracer = Tracer()
    with traced(hypident, tracer):
        hypident.identities.rogers(-5.0)  # inversion, then a recursive call
    spans, counters = tracer.snapshot()
    assert spans["dilog.rogers"][0] == 1
    assert counters["dilog.rogers.calls.inversion"] == 1
    assert hypident.identities.rogers is hypident.dilog.rogers  # restored


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "thick-terms", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
