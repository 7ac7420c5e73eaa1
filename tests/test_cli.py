import ast
import io
import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import pytest

from hypident.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_verify_past_the_overflow_of_trace_squared():
    # at cutoff 712 the longest traces square past the float range: thm15
    # takes the limit 0 there, as every other kind does
    code, out, err = invoke(
        ["verify", "--identity", "thm15", "--traces", "3,3,3", "--cutoff", "712"]
    )
    assert code == 0, err
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


def test_sweep_rows_match_verify():
    # both print floats with 17 significant digits, so the strings agree
    code, out, err = invoke(
        ["sweep", "--identity", "thm11", "--vary", "k=0.5:1.5:0.5", "--fn", "1.2,0.3,_",
         "--cutoff", "14"]
    )
    assert code == 0, err
    header, *lines = (line.split(",") for line in out.splitlines())
    assert len(lines) == 3
    fields = ("cutoff", "term_count", "partial_sum", "defect", "tail_estimate")
    for line in lines:
        row = dict(zip(header, line))
        _, verify_out, _ = invoke(
            ["verify", "--identity", "thm11", "--fn", f"1.2,0.3,{row['param_value']}",
             "--cutoff", "14", "--format", "csv", "--tol", "1"]
        )
        verify_header, verify_row = (text.split(",") for text in verify_out.splitlines())
        expected = dict(zip(verify_header, verify_row))
        assert [row[f] for f in fields] == [expected[f] for f in fields], row


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


def test_sweep_to_an_unwritable_path_is_a_usage_error(tmp_path):
    for target in (tmp_path / "missing" / "sweep.csv", tmp_path):
        code, out, err = invoke(
            ["sweep", "--identity", "mcshane", "--vary", "b=0.8:1.2:0.2", "--fn", "_,0,0",
             "--cutoff", "12", "--out", str(target)]
        )
        assert (code, out) == (2, ""), target
        assert err.startswith("error: cannot write --out"), target
        assert err.count("\n") == 1, target


def test_sweep_refusal_leaves_an_existing_out_file_untouched(tmp_path):
    target = tmp_path / "sweep.csv"
    target.write_text("old\n")
    code, out, err = invoke(
        ["sweep", "--identity", "mcshane", "--vary", "b=1:711:710", "--fn", "_,0,0",
         "--cutoff", "12", "--out", str(target)]
    )
    assert (code, out) == (2, "")
    assert "beyond the float range" in err
    assert target.read_text() == "old\n"


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


def test_selftest_reports_a_failing_check(monkeypatch):
    # a wrong dilogarithm fails the two dilogarithm checks; the others still run and pass
    import hypident.cli as cli

    rogers = cli.rogers
    monkeypatch.setattr(cli, "rogers", lambda x: rogers(x) + 1e-6)
    code, out, _ = invoke(["selftest", "--seed", "3"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL dilog special values: worst 1.000e-06")
    assert lines[1].startswith("FAIL dilog functional equations")
    assert len(lines) == 5 and all(line.startswith("PASS") for line in lines[2:])


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
    # 2cosh(L/2) overflows at L = 1500 and is inf at L = 1420.5, which prunes nothing
    for cutoff in ("1500", "1420.5"):
        code, out, err = invoke(["spectrum", "--traces", "3,3,3", "--cutoff", cutoff])
        assert (code, out) == (2, ""), cutoff
        assert err == (
            "error: length cutoff must be <= 1419.0 for a finite trace cutoff,"
            f" got {float(cutoff)!r}\n"
        )
    # an infinite cutoff is too long, not negative
    code, out, err = invoke(
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "inf"]
    )
    assert (code, out) == (2, "")
    assert err == "error: length cutoff must be <= 1419.0 for a finite trace cutoff, got inf\n"
    # the seam ratio of the cut pants rounded below 1 mid-spectrum: a bare
    # ValueError (exit 1), then m = 0 refused (exit 2).  The positive-sum seam
    # is never 0, so each point now reads as thm11 does there
    for argv in (
        ["verify", "--identity", "four", "--fn", "4,0,76.4", "--cutoff", "45"],
        ["verify", "--identity", "thm31", "--fn",
         "3.707208801329932,1.9701994660338507,79.56376562077773", "--cutoff", "45"],
    ):
        code, out, err = invoke([*argv, "--format", "json"])
        thm11_code, thm11_out, _ = invoke([*argv[:2], "thm11", *argv[3:], "--format", "json"])
        assert (code, err) == (thm11_code, ""), argv
        partial, thm11_partial = (json.loads(o)["partial_sum"] for o in (out, thm11_out))
        assert abs(partial - thm11_partial) <= 1e-14, argv


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hypident", "spectrum", "--traces", "3,3,3",
         "--cutoff", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "p,q,trace,length"


@pytest.mark.parametrize(
    "argv",
    [
        ["terms", "--identity", "mcshane", "--fn", "16,0,0", "--cutoff", "17"],
        ["spectrum", "--traces", "3,3,3", "--cutoff", "100"],
    ],
    ids=["terms", "spectrum"],
)
def test_a_closed_pipe_ends_the_run_without_a_traceback(argv):
    # ~200 KB of CSV, past what the pipe buffers: the reader takes one line and
    # closes its end, so a later write of the run meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypident", *argv, "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert header.startswith(b"p,q,") and b"Traceback" not in err, err


def test_sweep_range_must_be_finite():
    # start, stop and step each NaN or infinite; step=inf is no longer a one-row sweep
    finite = "--vary range must be finite"
    # grids of ~inf and ~5e299 points are refused before the list is built
    too_many = "--vary range must have at most 1000000 points"
    for vary, message in (
        ("k=nan:1:0.1", finite),
        ("k=0.5:inf:1", finite),
        ("k=0.5:1:nan", finite),
        ("k=0.5:1:inf", finite),
        ("k=-inf:1:0.1", finite),
        ("k=0:1e308:1e-308", too_many),
        ("k=0.5:1:1e-300", too_many),
    ):
        code, out, err = invoke(
            ["sweep", "--identity", "thm11", "--vary", vary, "--fn", "1.2,0.3,_",
             "--cutoff", "5"]
        )
        assert (code, out) == (2, ""), vary
        assert err == f"error: {message}, got {vary!r}\n"


def test_sweep_usage_errors_name_the_argument():
    shape = "--vary expects name=start:stop:step"
    order = "--vary range must have step > 0 and stop >= start"
    for vary, fn, message in (
        ("k0.5:2:0.5", "1.2,0.3,_", f"{shape}, got 'k0.5:2:0.5'"),
        ("k=0.5:2", "1.2,0.3,_", f"{shape}, got 'k=0.5:2'"),
        ("k=a:2:0.5", "1.2,0.3,_", "malformed number in --vary='k=a:2:0.5'"),
        ("k=2:1:0.5", "1.2,0.3,_", f"{order}, got 'k=2:1:0.5'"),
        ("k=0.5:2:0", "1.2,0.3,_", f"{order}, got 'k=0.5:2:0'"),
        ("k=0.5:2:0.5", "1.2,_", "--fn expects b,t,k with one _ slot, got '1.2,_'"),
        ("k=0.5:2:0.5", "x,0.3,_", "malformed number in --fn='x,0.3,_'"),
    ):
        code, out, err = invoke(
            ["sweep", "--identity", "thm11", "--vary", vary, "--fn", fn, "--cutoff", "5"]
        )
        assert (code, out) == (2, ""), (vary, fn)
        assert err == f"error: {message}\n", (vary, fn)


def test_verify_refuses_nan_or_negative_tol():
    # `abs(defect) <= tol` is false for every defect: refused before evaluating
    for tol in ("nan", "-nan", "-1e-4", "-inf"):
        code, out, err = invoke(
            ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "5",
             f"--tol={tol}"]
        )
        assert (code, out) == (2, ""), tol
        assert err == f"error: --tol must be >= 0, got {float(tol)!r}\n", tol
    code, _, err = invoke(
        ["verify", "--identity", "thm12", "--traces", "3,3,3", "--cutoff", "45",
         "--tol", "0"]
    )
    assert (code, err) == (1, "")  # a zero tolerance is valid, if strict


def test_import_skips_dataclasses():
    # records are named tuples and only selftest imports random: importing
    # the CLI loads none of these modules
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import hypident.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def _imports(tree):
    # (alias line, bound name, imported name, whether from a sibling module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield alias.lineno, name, alias.name, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.lineno, alias.asname or alias.name, alias.name, node.level > 0


def _defined(tree):
    # (line, name) of each module-level function, class and assigned name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))


def _public_names(path):
    """The names of a module's `__all__`, and the siblings it splices in.

    `__all__` is a list of string literals and of `*m.__all__` splices of
    sibling modules, whose lists are read from their sources: importing
    every module would run the CLI of `__main__`.
    """
    names, spliced = [], []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Starred):
                    assert element.value.attr == "__all__", f"{path.name}: splice of a non-__all__"
                    spliced.append(element.value.value.id)
                    names += _public_names(path.with_name(f"{spliced[-1]}.py"))[0]
                else:
                    names.append(ast.literal_eval(element))
    return names, spliced


def test_package_imports_are_public_and_used():
    # no module reaches into a sibling's private names, every imported name
    # is read or re-exported (an alias kept on purpose says `# noqa: F401`),
    # a star import brings in a sibling whose `__all__` is spliced into the
    # importer's, and every private module-level name is read in its own module
    modules = sorted((SRC / "hypident").glob("*.py"))
    assert modules
    for path in modules:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        exported, spliced = _public_names(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
                assert node.level == 1 and node.module in spliced, (
                    f"{path.name}:{node.lineno} star import of a module whose __all__ is not spliced"
                )
        for lineno, name, imported, sibling in _imports(tree):
            where = f"{path.name}:{lineno} {imported}"
            assert not (sibling and imported.startswith("_")), f"{where}: private name of a sibling"
            assert imported == "*" or name in read or name in exported or (
                "# noqa: F401" in lines[lineno - 1]
            ), f"{where}: imported but never read"
        # a module-level `_` function, class or constant serves only its own
        # module: one that is never read there is dead
        for lineno, name in _defined(tree):
            if name.startswith("_") and not name.startswith("__"):
                assert name in read, f"{path.name}:{lineno} {name} is never read"


# the names of `hypident` before its `__all__` became the splice of its modules',
# less `compensated_sum`, which went with the hand-written compensated sum, and
# `spectrum_columns`, whose columns `evaluate` now forms from `trace_chunks`
_PACKAGE_NAMES = """
    DomainError FenchelNielsen GeodesicRecord IdentityKind IdentityReport NoRealStructureError
    NonHyperbolicError Orthogeodesics PantsGeometry ResourceLimitError SingularInputError Slope
    TraceTriple boundary_length brute_force_trace enumerate_geodesics evaluate
    fenchel_nielsen_matrices foursphere_ortho from_fenchel_nielsen from_traces guard_threshold
    identity_term iter_terms lasso length_from_trace li2 markov_child pants_geometry
    pants_sum_term pants_sum_term_via_complement quasi_pants_term reduce_to_minimal rogers
    tail_estimate term_cusped term_foursphere_cusped term_foursphere_ortho
    term_foursphere_simple term_mcshane term_one_holed term_ortho_torus term_trace_squared
    torus_contribution_partial torus_ortho trace_triple
""".split()


def test_package_exports_each_module_all():
    import hypident
    from hypident import curves, dilog, errors, identities, pants, torus

    modules = (curves, dilog, errors, identities, pants, torus)
    assert hypident.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(hypident.__all__)) == len(hypident.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(hypident, name) is getattr(module, name), name
    assert len(_PACKAGE_NAMES) == 46
    assert set(_PACKAGE_NAMES) <= set(hypident.__all__)
    # `__init__` writes no name by hand: its only strings are the docstring and the version
    tree = ast.parse((SRC / "hypident" / "__init__.py").read_text())
    strings = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert strings == [ast.get_docstring(tree, clean=False), hypident.__version__]
    # a module defines each name of its own `__all__`, not only imports it, and
    # each is read somewhere in the package or is one of its names above: a
    # public name that no module reads and that the package never exported is dead
    paths = sorted((SRC / "hypident").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    read = {n.id for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for path, tree in zip(paths, trees):
        names, spliced = _public_names(path)
        if not spliced:
            defined = {name for _, name in _defined(tree)}
            assert set(names) <= defined, f"{path.name}: {sorted(set(names) - defined)}"
            dead = set(names) - read - set(_PACKAGE_NAMES)
            assert not dead, f"{path.name}: {sorted(dead)} never read"


def test_out_of_range_traces_exit_two():
    # kappa or a trace beyond the float range: typed refusal, not a traceback or a NaN surface
    for argv, diagnostic in (
        (["spectrum", "--traces", "1e200,1e200,1e200", "--cutoff", "14"],
         "error: x^2+y^2+z^2-xyz overflows"),
        (["verify", "--identity", "thm12", "--traces", "3,3,1e155", "--cutoff", "5"],
         "error: x^2+y^2+z^2-xyz overflows"),
        (["verify", "--identity", "thm12", "--fn", "711,0,0", "--cutoff", "5"],
         "error: cosh overflows"),
        (["verify", "--identity", "thm12", "--fn", "1,1419.5,0", "--cutoff", "5"],
         "error: cosh overflows"),
        # sinh(b/2) rounds to 0 at a subnormal b
        (["verify", "--identity", "thm11", "--fn", "5e-324,0,1", "--cutoff", "5"],
         "error: cosh overflows"),
        (["sweep", "--vary", "b=5e-324:5e-324:1", "--fn", "_,0,0", "--identity", "mcshane",
          "--cutoff", "5"],
         "error: cosh overflows"),
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(diagnostic), argv
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
