"""End-to-end CLI behavior: exit codes, output determinism, seed handling,
and the design pipeline (exact construction -> verify -> torus -> curvature).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def curve_json(curve, closed=None) -> str:
    """A curve file's JSON text; ``closed`` overrides the curve's own flag."""
    closed = curve.closed if closed is None else closed
    return json.dumps({"vertices": curve.vertices.tolist(), "closed": closed})


def curve_csv(curve) -> str:
    """A curve file's CSV text: a header row, then one vertex per row."""
    rows = [[f"x{i}" for i in range(curve.vertices.shape[1])]]
    rows += [[repr(x) for x in v] for v in curve.vertices.tolist()]
    return "".join(",".join(r) + "\n" for r in rows)


@pytest.fixture
def sphere_spec(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"kind": "round_sphere", "n": 2, "R": 2.0}))
    return str(path)


@pytest.fixture
def square_curve(tmp_path):
    path = tmp_path / "square.json"
    v = [[0, 0], [1, 0], [1, 1], [0, 1]]
    path.write_text(json.dumps({"vertices": v, "closed": True}))
    return str(path)


# ---------------------------------------------------------------------------
# curv

def test_curv_sphere(sphere_spec, capsys):
    code, out, _ = run(capsys, "curv", sphere_spec, "--points", "5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["curv"] - 0.5) < 1e-6
    assert payload["status"] == "OK"
    assert abs(payload["focal_radius"] - 2.0) < 1e-5


def test_curv_bad_json_exits_parse(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "curv", str(bad))
    assert code == cli.EXIT_PARSE
    assert "line 1" in err


def test_curv_missing_file_exits_parse(capsys):
    code, _, err = run(capsys, "curv", "/nonexistent/spec.json")
    assert code == cli.EXIT_PARSE
    assert "no such file" in err


def test_directory_as_input_file_exits_parse(tmp_path, capsys):
    code, out, err = run(capsys, "design", "verify", str(tmp_path))
    assert code == cli.EXIT_PARSE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_curv_unknown_kind_exits_parse(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "mystery", "n": 2}))
    code, _, err = run(capsys, "curv", str(spec))
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("spec", [
    [{"kind": "clifford_torus", "N": 2}],
    {"kind": "clifford_torus", "N": None},
    {"kind": "sphere_product", "factors": 5},
    {"kind": "sphere_product", "factors": [[1]]},
    {"kind": "clifford_torus", "N": True},
    {"kind": "veronese", "m": 2.5},
], ids=["list", "null-N", "factors-int", "short-factor", "bool-N", "fractional-m"])
def test_curv_malformed_spec_exits_parse_with_one_line(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "curv", str(path), "--points", "2")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_curv_clifford_N12_reports_sqrt12(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "clifford_torus", "N": 12}))
    code, out, _ = run(capsys, "curv", str(path), "--no-meta")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["curv"] - math.sqrt(12.0)) < 1e-9
    assert payload["status"] == "OK"


@pytest.mark.parametrize("argv", [
    ("curv", "SPEC", "--points", "0"),
    ("curv", "SPEC", "--points", "-1"),
    ("design", "torus", "SPEC", "--curv", "--points", "-3"),
    ("design", "torus", "SPEC", "--curv", "--points", "0"),
    ("curve", "crofton", "SPEC", "--dirs", "0"),
    ("design", "optimize", "--cardinality", "5", "--n", "0"),
    ("design", "optimize", "--n", "2", "--cardinality", "0"),
    ("design", "optimize", "--n", "2", "--cardinality", "5", "--iters", "0"),
    ("design", "hilbert", "--n", "0"),
    ("design", "hilbert", "--n", "2", "--height-start", "0"),
    ("design", "hilbert", "--n", "2", "--height-max", "-1"),
])
def test_nonpositive_counts_exit_2_with_one_line_error(argv, sphere_spec, capsys):
    argv = [sphere_spec if a == "SPEC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith("must be a positive integer, got "
                                         + argv[-1])


def test_negative_random_count_exits_2_with_one_line_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curve", "arm", "--random", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith("must be a non-negative integer, got -1")
    # 0 still means "no generated instances": the curve files are then required
    assert cli.main(["curve", "arm", "--random", "0"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["curv", "design verify", "curve bow"])
def test_bad_tolerance_exits_2_with_one_line_error(command, tol, sphere_spec, tmp_path,
                                                   capsys):
    from curvlab import curves as cu, designs as dg
    design = tmp_path / "pentagon.json"
    design.write_text(json.dumps(dg.design_to_json(dg.pentagon_design())))
    arc = tmp_path / "arc.csv"
    arc.write_text(curve_csv(cu.circular_arc(R=1.0, arc_length=2.0, n=20)))
    argv = {"curv": ["curv", sphere_spec],
            "design verify": ["design", "verify", str(design)],
            "curve bow": ["curve", "bow", str(arc), "--R", "1.0"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", tol])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("usage: ")
    assert err.splitlines()[-1].endswith(
        "argument --tol: must be a finite non-negative number, got " + tol)
    # the same call with a valid tolerance runs
    assert cli.main(argv + ["--tol", "1e-3", "--no-meta"]) == 0


def _assert_one_line_parse_error(code, out, err):
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "torus"])
@pytest.mark.parametrize("design", [
    [1, 2],
    {"n": 2},
    {"points": [[1.0, 0.0]]},
    {"n": 2, "points": [[1.0, 0.0], [0.0]]},
    {"n": 2, "points": [[1.0, "x"], [0.0, 1.0]]},
    {"n": 2, "points": [[1.0, None], [0.0, 1.0]]},
    {"n": 2, "points": [[1.0 + 1e-9, 0.0], [0.0, 1.0]]},
    {"n": 2, "points": [["3/5", "4/5"], ["1/0", "1"]], "multiplicities": [1, 1]},
    {"n": 2, "points": [["3/5", "4/5"]], "multiplicities": ["one"]},
], ids=["list", "missing-points", "missing-n", "ragged", "string-coordinate",
        "null-coordinate", "off-unit-1e-9", "zero-denominator", "bad-multiplicity"])
def test_malformed_design_file_exits_parse_with_one_line(design, command, tmp_path,
                                                         capsys):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    _assert_one_line_parse_error(*run(capsys, "design", command, str(path)))


@pytest.mark.parametrize("argv", [
    ("curve", "fenchel", "FILE"),
    ("curve", "bow", "FILE", "--R", "1.0"),
    ("curve", "crofton", "FILE"),
])
@pytest.mark.parametrize("curve", [
    [1, 2],
    {"closed": True},
    {"vertices": [[0, 0], [1, 0], [1]]},
    {"vertices": [[0, 0], [1, None], [1, 1]]},
    {"vertices": [[0, 0], [1, 0], [1, 1]], "closed": "false"},
], ids=["list", "missing-vertices", "ragged", "null-coordinate", "string-closed"])
def test_malformed_curve_file_exits_parse_with_one_line(curve, argv, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    argv = [str(path) if a == "FILE" else a for a in argv]
    _assert_one_line_parse_error(*run(capsys, *argv))


def test_non_finite_csv_curve_exits_parse(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("x0,x1\n0,0\n1,nan\n1,1\n")
    _assert_one_line_parse_error(*run(capsys, "curve", "crofton", str(path)))


# Inputs whose edge length, chord, vertex sum, point norm or weight sum overflows
# float64.  Each exits 1 with one error line; a numpy RuntimeWarning would be
# a second stderr line, so warnings are errors here.
@pytest.mark.parametrize("argv, suffix, text", [
    (["curve", "fenchel"], "csv", "0.0,0.0\n0.0,1.3407807929942597e+154\n1.0,0.0\n"),
    (["curve", "arm", "FILE"], "csv", "0.0,0.0\n0.0,1.3407807929942597e+154\n"),
    (["curve", "bow", "--R", "1"], "csv", "0,0\n1e154,0\n2e154,0\n"),
    (["curve", "crofton"], "csv", "1e308,0,0\n1e308,1,0\n1e308,1,1\n1e308,0,1\n"),
    (["curve", "bow", "--R", "1e308"], "csv", "0,0\n1,0\n2,1\n"),
    (["design", "verify"], "json", '{"n": 2, "points": [[1e308, 1e308]]}'),
    (["design", "torus"], "json", '{"n": 2, "points": [[1e308, 1e308]]}'),
    (["design", "verify"], "json",
     '{"n": 2, "points": [[1, 0], [0, 1]], "weights": [1e308, 1e308]}'),
    (["curv"], "json", '{"kind": "round_sphere", "n": 2, "R": 1e160}'),
    (["curv"], "json", '{"kind": "tube", "r": 1e308, "n1": 1, "n2": 1, "rho": 1e307}'),
    (["curv"], "json", '{"kind": "sphere_product", "factors": [[1, 1e-200], [1, 1e200]]}'),
    (["curv"], "json", '{"kind": "torus_linear", "rows": [[1, 0], [0, 1]], "scale": 1e300}'),
], ids=["fenchel-edge", "arm-edge", "bow-chord", "crofton-vertex-sum", "bow-R",
        "verify-norm", "torus-norm", "verify-weight-sum", "curv-sphere-metric",
        "curv-tube-metric", "curv-product-metric", "curv-torus-hessian"])
def test_float64_overflow_exits_parse_with_one_line(argv, suffix, text, tmp_path, capsys):
    path = tmp_path / f"input.{suffix}"
    path.write_text(text)
    argv = [*argv[:2], str(path), *(str(path) if a == "FILE" else a for a in argv[2:])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_one_line_parse_error(*run(capsys, *argv, "--no-meta"))


# The first array of a 10^15-dimensional spec, 20 x 10^15 float64, is larger
# than any 64-bit user address space, so its allocation fails at once.
@pytest.mark.parametrize("spec", [
    {"kind": "clifford_torus", "N": 10**15},
    {"kind": "veronese", "m": 10**15},
    {"kind": "tube", "r": 1.0, "n1": 10**15, "n2": 1, "rho": 0.5},
    {"kind": "sphere_product", "factors": [[10**15, 1.0]]},
], ids=["clifford", "veronese", "tube", "sphere-product"])
def test_out_of_memory_dimension_exits_parse_with_one_line(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "curv", str(path), "--no-meta")
    _assert_one_line_parse_error(code, out, err)
    assert "allocate" in err


def test_design_torus_on_non_design_exits_4(tmp_path, capsys):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps({"n": 2, "points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}))
    code, out, err = run(capsys, "design", "torus", str(path))
    assert code == cli.EXIT_HYPOTHESIS
    assert out == "" and err.startswith("error: input is not a degree-4 design")


# ---------------------------------------------------------------------------
# design pipeline

def test_design_pipeline_hilbert_verify_torus_curv(tmp_path, capsys):
    dfile = tmp_path / "design.json"
    code, out, _ = run(capsys, "design", "hilbert", "--n", "2",
                       "--out", str(dfile), "--no-meta")
    assert code == 0
    payload = json.loads(dfile.read_text())
    assert payload["cardinality"] >= 3

    code, out, _ = run(capsys, "design", "verify", str(dfile))
    assert code == 0
    assert json.loads(out)["exact"] is True
    assert json.loads(out)["residual"] == 0.0

    code, out, _ = run(capsys, "design", "torus", str(dfile), "--curv",
                       "--points", "5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["curv"] - math.sqrt(1.5)) < 1e-6


# sha256 of the --no-meta output, recorded before the exact LP moved from
# Fraction to integer arithmetic (n <= 4), and before its matrix became integer
# columns (n = 5): the same pivots give the same designs
HILBERT_SHA256 = {
    ("--n", "2"): "3078b909a1e9d7224c5bda189191baaed838d2e64079945c80362f71c1b37a59",
    ("--n", "3"): "f2cc4b8b8317348750af90bb833d5f237c23857ced0432f82745c6be232e8a22",
    ("--n", "4", "--height-max", "1"):
        "0599101407e7dc6b083ce6333b4989bc33516ba391e164bae618aa8ccbd50c17",
    ("--n", "5", "--height-max", "1"):
        "56a6dd707cfba5eedf7922fbe12f7e226f61f37135fc49603498891a45b85e20",
}


@pytest.mark.parametrize("args", list(HILBERT_SHA256), ids=" ".join)
def test_hilbert_no_meta_output_is_pinned(args, capsys):
    code, out, _ = run(capsys, "design", "hilbert", *args, "--no-meta")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HILBERT_SHA256[args]


def test_design_optimize_converges(capsys):
    code, out, _ = run(capsys, "design", "optimize", "--n", "2",
                       "--cardinality", "5", "--iters", "10", "--seed", "1")
    assert code == 0
    assert json.loads(out)["status"] == "OK"


def test_design_optimize_infeasible_exits_2(capsys):
    code, out, _ = run(capsys, "design", "optimize", "--n", "3",
                       "--cardinality", "4", "--iters", "4", "--seed", "1")
    assert code == cli.EXIT_NON_CONVERGED
    assert json.loads(out)["status"] == "NON_CONVERGED"


def test_design_hilbert_height_exhausted_exits_3(capsys):
    code, _, err = run(capsys, "design", "hilbert", "--n", "3",
                       "--height-max", "1")
    assert code == cli.EXIT_INFEASIBLE
    assert "HEIGHT_EXHAUSTED" in err


# ---------------------------------------------------------------------------
# curves

def test_curve_fenchel_square(square_curve, capsys):
    code, out, _ = run(capsys, "curve", "fenchel", square_curve)
    assert code == 0
    payload = json.loads(out)
    assert payload["convex_planar"] is True


def test_curve_arm_random_instances(capsys):
    code, out, _ = run(capsys, "curve", "arm", "--random", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] and payload["min_slack"] >= -1e-9


# sha256 of `curve arm --random 200 --ambient A --no-meta` at seed 0xC0FFEE,
# recorded before the random arcs were built in batches
ARM_RANDOM_SHA256 = {
    "2": "71087c8dbd669a3023496353d35146bd2c7766fc5bbcfc6e04bde02dcd818318",
    "3": "90ade14653637112da6a04b8ef66fa101f5af7a84da1f1c8223e4e4fca84ae5e",
    "5": "8468d0ea13b7a096ec367aab4969f36d3542295d616efa0d93a6050900944655",
}


@pytest.mark.parametrize("ambient", list(ARM_RANDOM_SHA256))
def test_curve_arm_random_output_is_pinned(ambient, capsys):
    code, out, _ = run(capsys, "curve", "arm", "--random", "200", "--ambient", ambient,
                       "--seed", "0xC0FFEE", "--no-meta")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ARM_RANDOM_SHA256[ambient]


def test_curve_arm_random_rejects_ambient_1(capsys):
    code, out, err = run(capsys, "curve", "arm", "--random", "3", "--ambient", "1")
    assert code == 1 and out == ""
    assert err == "error: k >= 3 and ambient_n >= 2 required\n"


def test_curve_arm_missing_files_exits_parse(capsys):
    code, _, err = run(capsys, "curve", "arm")
    assert code == cli.EXIT_PARSE


def test_curve_arm_hypothesis_violation_exits_4(tmp_path, capsys):
    from curvlab import curves as cu
    p = cu.convex_arc([1.0, 1.0, 1.0], [0.3, 0.3])
    over = cu.convex_arc([1.0, 1.0, 1.0], [0.6, 0.6])
    pf, qf = tmp_path / "p.json", tmp_path / "q.json"
    pf.write_text(curve_json(p))
    qf.write_text(curve_json(over))
    code, out, _ = run(capsys, "curve", "arm", str(qf), str(pf))
    assert code == cli.EXIT_HYPOTHESIS


def test_curve_bow_ok_and_hypothesis_paths(tmp_path, capsys):
    from curvlab import curves as cu
    arc = cu.circular_arc(R=1.0, arc_length=2.0, n=100)
    f = tmp_path / "arc.csv"
    f.write_text(curve_csv(arc))
    code, out, _ = run(capsys, "curve", "bow", str(f), "--R", "1.0")
    assert code == 0
    code, out, _ = run(capsys, "curve", "bow", str(f), "--R", "3.0")
    assert code == cli.EXIT_HYPOTHESIS


@pytest.mark.parametrize("command", ["bow", "arm"])
def test_curve_bow_and_arm_reject_closed_files(command, tmp_path, capsys):
    from curvlab import curves as cu
    arc = cu.circular_arc(R=1.0, arc_length=2.0, n=20)
    closed, opened = tmp_path / "closed.json", tmp_path / "open.json"
    closed.write_text(curve_json(arc, closed=True))
    opened.write_text(curve_json(arc))
    files = [str(closed)] if command == "bow" else [str(closed), str(opened)]
    extra = ["--R", "1.0"] if command == "bow" else []
    code, out, err = run(capsys, "curve", command, *files, *extra)
    _assert_one_line_parse_error(code, out, err)
    assert err == f"error: {command}_check needs an open curve\n"
    if command == "arm":
        code, out, err = run(capsys, "curve", command, str(opened), str(closed))
        _assert_one_line_parse_error(code, out, err)


@pytest.mark.parametrize("R", ["0", "-1", "nan", "inf"])
def test_curve_bow_rejects_nonpositive_or_nonfinite_radius(R, tmp_path, capsys):
    from curvlab import curves as cu
    f = tmp_path / "arc.csv"
    f.write_text(curve_csv(cu.circular_arc(R=1.0, arc_length=2.0, n=20)))
    _assert_one_line_parse_error(*run(capsys, "curve", "bow", str(f), "--R", R))


def test_curve_crofton_circle(tmp_path, capsys):
    from curvlab import curves as cu
    circ = cu.circle_curve(1.0).polygon(256)
    f = tmp_path / "circle.json"
    f.write_text(curve_json(circ))
    code, out, _ = run(capsys, "curve", "crofton", str(f), "--dirs", "20000")
    assert code == 0
    assert json.loads(out)["rel_err"] < 0.05


# Any text given to a curve command: well-formed curves in R^1..R^4 half the
# time, otherwise JSON documents of any shape, ragged or non-finite CSV rows
# and free text.  Every run exits with a documented code and raises nothing,
# so the console script prints no traceback.
_grid = st.tuples(st.integers(2, 8), st.integers(1, 4)).flatmap(lambda shape: st.lists(
    st.lists(st.floats(-4, 4) | st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
    min_size=shape[0], max_size=shape[0]))
_numbers = st.one_of(st.floats(), st.integers(), st.sampled_from([0, 1, -1, 0.5, 2]))
_rows = st.lists(st.lists(_numbers, min_size=1, max_size=4), max_size=8)
_json_any = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=16)


def _csv(rows):
    return "\n".join(",".join(map(str, r)) for r in rows)


_curve_file = st.one_of(
    st.tuples(st.just("json"), st.fixed_dictionaries(
        {"vertices": _grid}, optional={"closed": st.booleans()}).map(json.dumps)),
    st.tuples(st.just("csv"), _grid.map(_csv)),
    st.tuples(st.just("json"), st.one_of(
        st.fixed_dictionaries({"vertices": _rows | _json_any},
                              optional={"closed": _json_any}).map(json.dumps),
        _json_any.map(json.dumps), st.text(max_size=40))),
    st.tuples(st.just("csv"), _rows.map(_csv) | st.text(max_size=40)))


@settings(max_examples=100, deadline=None, derandomize=True)
@example(command="arm", files=[("csv", "0.0\n1.0"), ("csv", "0.0\n1.0")])  # curves in R^1
@example(command="fenchel", files=[("json", '{"vertices": [[0], [1], [3]]}')] * 2)
@given(command=st.sampled_from(["fenchel", "arm", "bow", "crofton"]),
       files=st.lists(_curve_file, min_size=2, max_size=2))
def test_curve_commands_exit_documented_code_on_any_text(command, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (suffix, text) in enumerate(files):
            path = os.path.join(tmp, f"curve{i}.{suffix}")
            with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
                fh.write(text)
            paths.append(path)
        argv = {"fenchel": paths[:1], "arm": paths, "bow": paths[:1] + ["--R", "1.5"],
                "crofton": paths[:1] + ["--dirs", "64"]}[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["curve", command, *argv, "--no-meta"])
    assert code in range(6)
    if code == cli.EXIT_PARSE:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


def _unit_point(a):
    """Exact rational unit point in Q^(len(a)+1): inverse stereographic projection of a."""
    norm = sum(x * x for x in a)
    return [str(2 * x / (1 + norm)) for x in a] + [str((1 - norm) / (1 + norm))]


_huge = st.integers(-10**40, 10**40)
_ratio = st.builds(lambda p, q: Fraction(p, q), _huge, st.integers(1, 10**40))
_p_over_q = st.builds("{}/{}".format, _huge, st.integers(-2, 10**40))
# exact unit points with numerators and denominators up to ~10^160, and huge
# multiplicities: the integer moment path on large Python ints
_rational_design = st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(
    st.lists(_ratio, min_size=n - 1, max_size=n - 1).map(_unit_point), st.integers(1, 10**30)),
    min_size=1, max_size=6).map(lambda pairs: {"n": n, "points": [p for p, _ in pairs],
                                               "multiplicities": [m for _, m in pairs]}))
_design_file = st.one_of(
    _rational_design.map(json.dumps),
    st.fixed_dictionaries({"n": st.integers(-1, 4) | _json_any,
                           "points": st.lists(st.lists(_p_over_q | _numbers, max_size=4),
                                              max_size=5) | _json_any,
                           "multiplicities": st.lists(st.integers(-2, 10**30) | _numbers,
                                                      max_size=5) | _json_any}).map(json.dumps),
    st.fixed_dictionaries({"n": st.integers(1, 4), "points": _grid},
                          optional={"weights": st.lists(_numbers, max_size=8)}).map(json.dumps),
    _json_any.map(json.dumps), st.text(max_size=40))


# Any text given to design verify|torus: exact rational designs, rational and
# float mode JSON of any shape (huge, non-finite and malformed values) and free
# text.  Every run exits with a documented code, warns nothing and raises
# nothing; exit 1 prints exactly one error line.
@settings(max_examples=100, deadline=None, derandomize=True)
@example(command="verify", text='{"n": 1, "points": [["1e99999999"]], "multiplicities": [1]}')
@example(command="torus", text='{"n": 2, "points": [[1e308, 1e308]]}')
@example(command="torus", text='{"n": 1, "points": [["1"], ["-1"]], "multiplicities": [7, 7]}')
@given(command=st.sampled_from(["verify", "torus"]), text=_design_file)
def test_design_commands_exit_documented_code_on_any_text(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["design", command, path, "--no-meta"])
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_PARSE:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


# Any text given to curv: every kind's keys with numbers that are huge, tiny,
# non-finite or "p/q" strings, malformed fields and free text.  A dimension
# field is 1..4 or at least 10^15, never in between, so no example allocates
# more than a few MB: a 10^15-dimensional spec fails its first allocation.
# Every run exits with a documented code and warns nothing; exit 1 prints
# exactly one error line, and a round sphere that exits 0 has curv = 1/R.
_not_a_count = st.none() | st.booleans() | st.text(max_size=4) | _p_over_q \
    | st.sampled_from([2.5, -0.5, math.nan, math.inf, [1], {"n": 1}])
_dim = st.integers(1, 4) | st.one_of(st.integers(-1, 0), st.integers(10**15, 10**40),
                                     st.sampled_from([1e15, 1e300]), _not_a_count)
_positive = st.one_of(
    st.sampled_from([1, 2, 0.5, 0.3, "1/3", "2/3", "7/5"]), st.floats(1e-320, 1e308),
    st.integers(1, 10**40), st.builds("{}/{}".format, st.integers(1, 10**40),
                                      st.integers(1, 10**40)))
_real = _positive | st.one_of(st.floats(), st.integers(-10**40, 10**40), _p_over_q,
                              st.text(max_size=6), st.none(), st.booleans())
_unit_rows = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1, 1), min_size=n, max_size=n).filter(any).map(
        lambda v: [x / math.hypot(*v) for x in v]),
    min_size=1, max_size=4))
_spec_fields = {
    "round_sphere": ({"n": _dim, "R": _real}, {}),
    "sphere_product": ({"factors": st.lists(st.tuples(_dim, _real).map(list) | _not_a_count,
                                            min_size=1, max_size=2) | _not_a_count}, {}),
    "clifford_torus": ({"N": _dim}, {}),
    "torus_linear": ({"rows": _unit_rows | st.lists(st.lists(_real, max_size=3), max_size=3)
                      | _not_a_count},
                     {"scale": _real, "weights": st.lists(_real, max_size=4) | _not_a_count}),
    "veronese": ({"m": _dim}, {}),
    "tube": ({"r": _real, "n1": _dim, "n2": _dim, "rho": _real}, {}),
}
_spec_file = st.one_of(st.one_of(
    st.fixed_dictionaries({"kind": st.just("round_sphere"), "n": st.integers(1, 4),
                           "R": _positive}),
    *(st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)
      for kind, (required, optional) in _spec_fields.items()),
    st.sampled_from(list(_spec_fields)).flatmap(lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional={**_spec_fields[kind][0], **_spec_fields[kind][1]})),
    _json_any).map(json.dumps), st.text(max_size=40))


@settings(max_examples=100, deadline=None, derandomize=True)
@example(text='{"kind": "round_sphere", "n": 2, "R": 1e150}')  # once reported curv 0
@example(text='{"kind": "round_sphere", "n": 3, "R": "1/3"}')
@example(text='{"kind": "clifford_torus", "N": 1000000000000000}')
@example(text='{"kind": "tube", "r": 1e308, "n1": 1, "n2": 1, "rho": 1e307}')
@example(text='{"kind": "torus_linear", "rows": [[1.3407807929942597e+154]]}')  # once warned
@given(text=_spec_file)
def test_curv_exits_documented_code_on_any_spec_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["curv", path, "--no-meta", "--points", "4"])
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_PARSE:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    spec = json.loads(text) if code == 0 else {}
    if spec.get("kind") == "round_sphere":
        R = float(Fraction(spec["R"])) if isinstance(spec["R"], str) else spec["R"]
        assert math.isclose(json.loads(out.getvalue())["curv"], 1.0 / R, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# bounds / verify

def test_bounds_report_json_and_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "report", "--n-min", "2",
                       "--n-max", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "bounds", "report", "--n-min", "2",
                       "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,ambient,side,label,value,source_tag"


def test_verify_paper_single_group(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "fenchel")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["pass"] for r in records)
    assert "checks passed" in err


def test_verify_paper_unknown_group_exits_parse(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "nonsense")
    assert code == cli.EXIT_PARSE


# ---------------------------------------------------------------------------
# determinism and seeds

def test_no_meta_reruns_are_byte_identical(sphere_spec, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "curv", sphere_spec, "--points", "4", "--no-meta",
        "--out", str(a))
    run(capsys, "curv", sphere_spec, "--points", "4", "--no-meta",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_meta_carries_seed_and_tol(sphere_spec, capsys):
    code, out, _ = run(capsys, "curv", sphere_spec, "--points", "4",
                       "--seed", "0x1234", "--no-meta")
    meta = json.loads(out)["meta"]
    assert meta["seed"] == 0x1234
    assert "timestamp" not in meta


def test_env_seed_override(sphere_spec, capsys, monkeypatch):
    monkeypatch.setenv("CURVLAB_SEED", "0x42")
    code, out, _ = run(capsys, "curv", sphere_spec, "--points", "4",
                       "--no-meta")
    assert json.loads(out)["meta"]["seed"] == 0x42


def test_malformed_env_seed_exits_parse_with_one_line(sphere_spec, capsys, monkeypatch):
    monkeypatch.setenv("CURVLAB_SEED", "zz")
    code, out, err = run(capsys, "verify-paper", "--only", "scope")
    assert code == cli.EXIT_PARSE
    assert not out
    assert err == "error: CURVLAB_SEED must be an integer literal, got 'zz'\n"
    # an explicit --seed wins, and the environment is then not read
    code, out, _ = run(capsys, "curv", sphere_spec, "--points", "4", "--seed", "5",
                       "--no-meta")
    assert code == 0 and json.loads(out)["meta"]["seed"] == 5


# every command that reaches Bessel zeros, the design optimizer, the exact LP,
# the curvature search or the curve checks, in one fresh process
NO_SCIPY_COMMANDS = [
    ["verify-paper"],
    ["bounds", "report"],
    ["design", "optimize", "--n", "3", "--cardinality", "11"],
    ["design", "hilbert", "--n", "2"],
    ["curv", "CLIFFORD", "--points", "4"],
    ["curve", "crofton", "SQUARE"],
]


def test_cli_import_does_not_load_scipy(tmp_path, square_curve):
    clifford = tmp_path / "clifford.json"
    clifford.write_text(json.dumps({"kind": "clifford_torus", "N": 4}))
    files = {"CLIFFORD": str(clifford), "SQUARE": square_curve}
    commands = [[files.get(a, a) for a in argv] for argv in NO_SCIPY_COMMANDS]
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "import curvlab.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not scipy_modules(), ('import', scipy_modules()[:3])\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = curvlab.cli.main(argv + ['--no-meta'])\n"
        "    assert rc == 0, (argv, rc)\n"
        "    assert not scipy_modules(), (argv, scipy_modules()[:3])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_csv_output_format(sphere_spec, capsys):
    code, out, _ = run(capsys, "curv", sphere_spec, "--points", "4",
                       "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("curv,") for line in lines)


# ---------------------------------------------------------------------------
# the parser each call builds

PARSE_CASES = [
    [], ["-h"], ["bogus"], ["--seed", "1"],
    *([cmd, "--help"] for cmd in cli.COMMANDS),
    *([cmd, "--bogus"] for cmd in cli.COMMANDS),
    ["design", "torus", "--help"], ["design", "hilbert", "--n", "0"], ["design", "bogus"],
    ["curve", "arm", "--help"], ["curve", "bow", "x"], ["bounds", "report", "--n-min", "a"],
    ["curv"], ["curv", "x", "--points", "0"], ["curv", "x", "--tol", "-1"],
    ["verify-paper", "--help"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a) or "none")
def test_main_prints_the_full_parsers_help_and_flag_errors(argv):
    # main adds arguments to the invoked sub-command only: what it prints, and
    # its exit code, are those of the parser with every sub-command built
    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_:
            parse()
        return exit_.value.code, out.getvalue(), err.getvalue()
    assert outcome(lambda: cli.main(argv)) == outcome(lambda: cli.build_parser().parse_args(argv))


def test_main_builds_only_the_invoked_subcommand(monkeypatch):
    built = set()
    add_argument = argparse.ArgumentParser.add_argument

    def recorded(self, *args, **kwargs):
        if args[:1] != ("-h",):
            built.add(self.prog)
        return add_argument(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-paper", "--only", "scope"]) == 0
    assert built == {"curvlab verify-paper"}
    built.clear()
    cli.build_parser()
    assert len(built) == 11  # every command and nested sub-command that takes arguments


def test_curv_status_reads_convergence_not_spread(tmp_path, capsys, monkeypatch):
    # the tube's nodes differ by 1.32, and its search converged
    path = tmp_path / "tube.json"
    path.write_text(json.dumps({"kind": "tube", "r": 1.0, "n1": 1, "n2": 1, "rho": 0.65}))
    code, out, _ = run(capsys, "curv", str(path), "--no-meta")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "OK"
    assert payload["curv"] == pytest.approx(1.0 / 0.35, rel=0, abs=1e-12)
    assert payload["per_point_spread"] > 1.0 and payload["n_points"] == 20
    # an ascent given no steps leaves the best candidate direction unpolished
    from curvlab import curvature
    monkeypatch.setattr(curvature, "_MAX_ASCENT_STEPS", 0)
    code, out, _ = run(capsys, "curv", str(path), "--no-meta")
    assert code == cli.EXIT_NON_CONVERGED
    assert json.loads(out)["status"] == "NON_CONVERGED"
