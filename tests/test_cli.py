import io
import json
import subprocess
import sys
from math import pi

from hypident.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_verify_cusped_identity_json():
    code, out, err = invoke(
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "25", "--tol", "1e-5"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["kind"] == "thm12"
    assert payload["target"] == pi * pi / 2.0
    assert abs(payload["defect"]) <= 1e-5
    assert payload["term_count"] == 174


def test_verify_mcshane_target():
    code, out, _ = invoke(
        ["verify", "--identity", "mcshane", "--traces", "3,3,3", "--cutoff", "25", "--tol", "1e-5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 0.5


def test_verify_fails_on_tight_tolerance():
    code, out, _ = invoke(
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "8", "--tol", "1e-12"]
    )
    assert code == 1
    assert json.loads(out)["term_count"] > 0


def test_verify_with_fenchel_nielsen_point():
    code, out, err = invoke(
        ["verify", "--identity", "thm11", "--fn", "1.2,0.4,1.5", "--cutoff", "25",
         "--tol", "1e-4"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload["parameters"]["k"] - 1.5) <= 1e-9


def test_spectrum_csv_rows():
    code, out, _ = invoke(["spectrum", "--traces", "3,3,3", "--cutoff", "4", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,trace,length"
    assert len(lines) == 7  # header + 6 records
    assert all("\r" not in line for line in lines)


def test_spectrum_json_matches_csv():
    _, csv_out, _ = invoke(["spectrum", "--traces", "3,3,3", "--cutoff", "4", "--format", "csv"])
    _, json_out, _ = invoke(["spectrum", "--traces", "3,3,3", "--cutoff", "4"])
    rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    payload = json.loads(json_out)
    assert len(rows) == len(payload)
    for row, entry in zip(rows, payload):
        assert int(row[0]) == entry["p"]
        assert int(row[1]) == entry["q"]
        assert float(row[2]) == entry["trace"]
        assert float(row[3]) == entry["length"]


def test_terms_partial_sum_matches_verify():
    _, terms_out, _ = invoke(
        ["terms", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "12",
         "--format", "csv"]
    )
    lines = terms_out.splitlines()
    assert lines[0] == "p,q,length,term,partial_sum"
    final_partial = float(lines[-1].split(",")[-1])
    _, verify_out, _ = invoke(
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "12",
         "--tol", "1"]
    )
    assert final_partial == json.loads(verify_out)["partial_sum"]


def test_csv_and_json_reports_carry_same_values():
    args = ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "10",
            "--tol", "1"]
    _, json_out, _ = invoke(args)
    _, csv_out, _ = invoke(args + ["--format", "csv"])
    payload = json.loads(json_out)
    header, row = (line.split(",") for line in csv_out.splitlines())
    record = dict(zip(header, row))
    for field in ("cutoff", "partial_sum", "target", "defect", "tail_estimate"):
        assert float(record[field]) == payload[field], field
    assert int(record["term_count"]) == payload["term_count"]
    for name, value in payload["parameters"].items():
        assert float(record[f"param_{name}"]) == value


def test_output_determinism():
    args = ["terms", "--identity", "mcshane", "--traces", "2.9,3.3,4.9", "--cutoff", "14"]
    first = invoke(args)
    second = invoke(args)
    assert first == second


def test_sweep_grid():
    code, out, _ = invoke(
        ["sweep", "--identity", "thm11", "--vary", "k=0.5:1.5:0.25", "--fn", "1.2,0.3,_",
         "--cutoff", "14"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param_name,param_value,cutoff,term_count,partial_sum,defect,tail_estimate"
    assert len(lines) == 1 + 5  # floor((1.5-0.5)/0.25)+1 = 5 values
    assert [line.split(",")[1] for line in lines[1:]] == ["0.5", "0.75", "1", "1.25", "1.5"]


def test_sweep_to_file(tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = invoke(
        ["sweep", "--identity", "mcshane", "--vary", "b=0.8:1.2:0.2", "--fn", "_,0,0",
         "--cutoff", "12", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("param_name")


def test_sweep_slot_mismatch():
    code, _, err = invoke(
        ["sweep", "--identity", "thm11", "--vary", "k=1:2:1", "--fn", "_,0.3,1.0",
         "--cutoff", "10"]
    )
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_selftest_passes():
    code, out, _ = invoke(["selftest"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


def test_selftest_seed_changes_samples_not_outcome():
    code, out, _ = invoke(["selftest", "--seed", "7"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_usage_errors_exit_two():
    for argv in (
        ["verify", "--identity", "thm12", "--traces", "3,3", "--cutoff", "5"],
        ["verify", "--identity", "thm12", "--cutoff", "5"],
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--fn", "1,0,0",
         "--cutoff", "5"],
        ["verify", "--identity", "nope", "--traces", "3,3,3", "--cutoff", "5"],
        ["verify", "--identity", "thm12", "--traces", "3,3,x", "--cutoff", "5"],
        ["spectrum", "--traces", "3,3,3"],
        ["sweep", "--identity", "thm11", "--vary", "q=1:2:1", "--fn", "1,_,1",
         "--cutoff", "5"],
    ):
        code, _, err = invoke(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert err.count("\n") == 1, argv


def test_domain_errors_exit_two():
    # boundary identity at a cusped point
    code, _, err = invoke(
        ["verify", "--identity", "thm11", "--traces", "3,3,3", "--cutoff", "5"]
    )
    assert code == 2
    assert err.startswith("error:")
    # cusped identity at a boundary point, through the terms path
    code, _, err = invoke(
        ["terms", "--identity", "thm12", "--traces", "3,3,4", "--cutoff", "5"]
    )
    assert code == 2
    # non-hyperbolic traces
    code, _, err = invoke(["spectrum", "--traces", "1,2,3", "--cutoff", "5"])
    assert code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hypident", "spectrum", "--traces", "3,3,3",
         "--cutoff", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "p,q,trace,length"


def test_sweep_range_must_be_finite():
    # start, stop and step each NaN or infinite; step=inf is no longer a one-row sweep
    for vary in ("k=nan:1:0.1", "k=0.5:inf:1", "k=0.5:1:nan", "k=0.5:1:inf", "k=-inf:1:0.1"):
        code, out, err = invoke(
            ["sweep", "--identity", "thm11", "--vary", vary, "--fn", "1.2,0.3,_",
             "--cutoff", "5"]
        )
        assert (code, out) == (2, ""), vary
        assert err == f"error: --vary range must be finite, got {vary!r}\n"


def test_out_of_range_traces_exit_two():
    # kappa beyond the float range: typed refusal, not a traceback or a NaN surface
    for argv in (
        ["spectrum", "--traces", "1e200,1e200,1e200", "--cutoff", "14"],
        ["verify", "--identity", "thm12", "--traces", "3,3,1e155", "--cutoff", "5"],
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: x^2+y^2+z^2-xyz overflows"), argv
        assert err.count("\n") == 1, argv


def test_orthogeodesic_kinds_evaluate_near_the_cusp():
    # at m ~ 20 both e^{-k/2} and tanh^2(m/2) round to about 1; this point
    # used to be refused mid-spectrum by the seam guard
    fn = "2.05930102635146,1.1891365866499908,1.540703870360779e-08"
    defects = {}
    for kind in ("thm11", "thm31", "four"):
        code, out, err = invoke(["verify", "--identity", kind, "--fn", fn, "--cutoff", "25"])
        assert (code, err) == (0, ""), kind
        defects[kind] = json.loads(out)["defect"]
    assert abs(defects["thm11"] - 1.0993e-8) <= 1e-12
    for kind in ("thm31", "four"):
        assert abs(defects[kind] - defects["thm11"]) <= 1e-12
