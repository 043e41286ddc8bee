"""curvlab benchmark: three closed-loop workloads through ``curvlab.cli.main``.

    python3 perfbench/run.py --workload curv-specs|design-build|claim-suite \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from ``src/``.
One client runs the workload's fixed operation list pass after pass for
``--seconds`` seconds (default: ``run_seconds`` of BENCHMARK.json),
in-process, with BLAS pinned to one thread.  Every
operation's output is checked against an independent reference and against
its own bytes from the first pass.  Earlier stdout lines are a readable
report and the environment; the last line is the JSON result.  With
``--trace 0`` it holds the end-to-end metrics (times scaled to a reference
speed, see calibration.py), with ``--trace 1`` the
per-layer metrics of traced passes alternated with untraced ones, and the
spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# every process compiles the sources the same way and leaves no bytecode behind
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2  # rounds, whatever --seconds says
CHILD_TIMEOUT_S = 120

import calibration  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import spans  # noqa: E402
import workloads  # noqa: E402


def _import_cli():
    sys.path.insert(0, str(SRC))
    import curvlab
    import curvlab.cli

    if Path(curvlab.__file__).resolve().parent != (SRC / "curvlab").resolve():
        raise ImportError(f"curvlab imported from {curvlab.__file__}, not {SRC}")
    return curvlab.cli


def setup(workload, seed, tmp):
    """Import curvlab, generate the inputs and make one warm-up call."""
    cli = _import_cli()
    ops, warmup = workloads.WORKLOADS[workload](cli, tmp)
    warm_out = os.path.join(tmp, "warmup")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*warmup, "--seed", str(seed), "--no-meta", "--out", warm_out])
    if rc != 0:
        raise RuntimeError(f"warm-up call {warmup} exited {rc}")
    return cli, ops


def setup_sample(workload, seed):
    """Wall time of one fresh process that runs setup()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr.strip()}")
    return dt


def default_seconds():
    """run_seconds from BENCHMARK.json, or None when it cannot be read."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


class Runner:
    """Runs passes over the operation list and checks every output."""

    def __init__(self, cli, ops, seed, tracer=None):
        self.cli, self.ops, self.seed, self.tracer = cli, ops, seed, tracer
        self.first_output = {}
        self.op_times = {op.name: [] for op in ops}
        self.kind_times = []  # per untraced pass: {kind: seconds}
        self.results = {}  # op name -> (rc, ok, err, note) of the latest pass
        self.attempted = self.failed = 0
        self.incorrect = []
        self.op_id = 0
        self.sink = io.StringIO()

    def run_op(self, op):
        argv = [*op.argv, "--seed", str(self.seed if op.seed is None else op.seed),
                "--no-meta", "--out", op.out]
        out_file = op.output_file()
        if os.path.exists(out_file):
            os.remove(out_file)
        self.sink.seek(0)
        self.sink.truncate()
        if self.tracer is not None:
            self.tracer.op = self.op_id
        self.op_id += 1
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                rc = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        data = None
        if os.path.exists(out_file):
            with open(out_file, "rb") as fh:
                data = fh.read()
        return rc, dt, data

    def judge(self, op, rc, data):
        """Count one attempted operation; a silently wrong exit-0 output is incorrect."""
        self.attempted += 1
        ok, err, note = False, None, "no output"
        if data is not None:
            try:
                ok, err, note = op.check(data)
            except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
                note = f"unreadable output: {type(exc).__name__}: {exc}"
            first = self.first_output.setdefault(op.name, data)
            if data != first:
                ok, note = False, note + "; output bytes differ from the first pass"
        if rc != 0 or not ok:
            self.failed += 1
            if rc == 0:
                self.incorrect.append(f"{op.name}: {note}")
        self.results[op.name] = (rc, ok, err, note)

    def run_pass(self, traced=False):
        outputs = []
        if traced:
            self.tracer.install()
        try:
            t0 = perf_counter()
            for op in self.ops:
                outputs.append(self.run_op(op))
            wall = perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        kinds = {}
        for op, (rc, dt, data) in zip(self.ops, outputs):
            self.judge(op, rc, data)
            if not traced:
                self.op_times[op.name].append(dt)
                kinds[op.kind] = kinds.get(op.kind, 0.0) + dt
        if not traced:
            self.kind_times.append(kinds)
        return wall


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def environment(seed):
    import numpy
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "seed": seed, "git_commit": commit}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(pass_times, setup_times, scale):
    """Geometric means of this run, in reference seconds (see calibration.py).

    The host switches between two speeds within seconds; like kernel_s, a mean
    follows the mix, where a median of a few samples jumps between the two.
    """
    return {
        "setup_s": metric(statistics.geometric_mean(setup_times) * scale, "s"),
        "pass_s": metric(statistics.geometric_mean(pass_times) * scale, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# function spans reported per pass: calls and/or self time
SPAN_METRICS = {
    "immersions.jet2": ("calls", "self_s"),
    "immersions.sample_params": ("calls",),
    "curvature.normal_curvature_at": ("calls", "self_s"),
    "curvature.normal_curvature_global": ("calls", "self_s"),
    "curvature.fundamental_data": ("calls", "self_s"),
    "designs.exact_lp_feasible": ("calls", "self_s"),
    "designs.rational_sphere_points": ("self_s",),
    "designs.quartic_moment_tensor": ("calls", "self_s"),
    "designs.is_degree4_design": ("self_s",),
    "designs.hilbert_rational_design": ("self_s",),
    "designs.optimize_design": ("self_s",),
    "designs.torus_immersion_from_design": ("self_s",),
    "curves.random_bounded_curve": ("self_s",),
    "curves.bow_check": ("self_s",),
    "curves.random_arm_instance": ("self_s",),
    "curves.arm_check": ("self_s",),
    "curves.fenchel_check": ("self_s",),
    "curves.crofton_check": ("self_s",),
    "bounds.report": ("self_s",),
    "bounds.bessel_j_zero": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
VERIFY_GROUPS = ("clifford", "formula-star", "design-torus", "hilbert", "veronese", "tube",
                 "gauss-petrunin", "fenchel", "arm", "bow", "crofton", "bessel-bounds", "scope")
SELF_LAYERS = ("immersions", "curvature", "designs", "curves", "bounds", "verify")


def per_layer(runner, tracer, traced_bounds, traced_walls, untraced_walls, cal):
    """Medians over traced passes of the per-layer figures, plus the overhead."""
    rows = []
    for (lo, hi), wall in zip(traced_bounds, traced_walls):
        prof = spans.pass_profile(tracer.names, tracer.spans, lo, hi)
        lp = prof["attrs"].get("designs.exact_lp_feasible", [])
        row = {}
        for span, fields in SPAN_METRICS.items():
            if "calls" in fields:
                row[f"{span}.calls"] = prof["calls"].get(span, 0)
            if "self_s" in fields:
                row[f"{span}.self_s"] = prof["self"].get(span, 0.0)
        named_self = sum(v for k, v in row.items() if k.endswith(".self_s"))
        row["designs.exact_lp_feasible.feasible_ratio"] = (
            sum(a["feasible"] for a in lp) / len(lp) if lp else 0.0)
        row["designs.lp_rows"] = sum(a["rows"] for a in lp)
        row["designs.lp_columns"] = sum(a["cols"] for a in lp)
        for group in VERIFY_GROUPS:
            row[f"verify.{group}.s"] = prof["incl"].get(f"verify.{group}", 0.0)
        for layer in SELF_LAYERS:
            row[f"{layer}.self_s"] = prof["layer_self"].get(layer, 0.0)
        row["trace.spans"] = hi - lo
        row["trace.self_coverage"] = sum(prof["layer_self"].values()) / wall
        row["trace.named_self_coverage"] = named_self / wall
        rows.append(row)
    out = {}
    for name in rows[0]:
        vals = [r[name] for r in rows]
        if isinstance(vals[0], int):
            if len(set(vals)) != 1:
                print(f"# warning: {name} differs between traced passes: {vals}")
            out[name] = metric(vals[0], "count")
        else:
            out[name] = metric(statistics.median(vals),
                               "s" if name.endswith(("_s", ".s")) else "ratio")
    curv_errs = [runner.results[op.name][2] for op in runner.ops
                 if op.kind == "curvature" and runner.results[op.name][2] is not None]
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    out["curvature.max_abs_err"] = metric(max(curv_errs, default=0.0), "curv")
    out["trace.traced_pass_s"] = metric(traced, "s")
    out["trace.untraced_pass_s"] = metric(untraced, "s")
    out["trace.overhead_frac"] = metric(traced / untraced - 1.0, "ratio")
    out["calibration.kernel_s"] = metric(cal.kernel_s(), "s")
    out.update(pass_breakdown(runner))
    return out


def pass_breakdown(runner):
    """op_geomean_s, hilbert_s, optimize_s (untraced passes) and fail_frac."""
    def per_pass(kind):
        return statistics.median(k.get(kind, 0.0) for k in runner.kind_times)
    op_medians = [statistics.median(t) for t in runner.op_times.values()]
    return {"op_geomean_s": metric(math.exp(statistics.fmean(map(math.log, op_medians))), "s"),
            "hilbert_s": metric(per_pass("hilbert"), "s"),
            "optimize_s": metric(per_pass("optimize"), "s"),
            "fail_frac": metric(runner.failed / runner.attempted, "ratio")}


def report(args, runner, pass_times, setup_times, traced_walls, metrics, cal):
    """Readable lines before the JSON result."""
    print(f"# environment {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"# {args.workload}: one closed-loop client, {len(pass_times)} untraced passes"
          + (f", {len(traced_walls)} traced" if traced_walls else ""))
    print(f"calibration: kernel {cal.kernel_s() * 1e3:.3f} ms (geometric mean of "
          f"{len(cal.burst_medians)} burst medians, {len(cal.samples)} calls); setup_s and "
          f"pass_s are geometric means of raw wall times x {cal.scale():.4f}, "
          "every other time is raw")
    print("calibration burst medians " + " ".join(f"{t * 1e3:.3f}" for t in cal.burst_medians)
          + " ms")
    q1, med, q3 = quartiles(pass_times)
    print(f"pass_s raw quartiles {q1:.4f} {med:.4f} {q3:.4f} s over {len(pass_times)} passes: "
          + " ".join(f"{t:.4f}" for t in pass_times))
    if setup_times:
        print("setup_s raw samples " + " ".join(f"{t:.4f}" for t in setup_times)
              + f" s ({len(setup_times)} fresh processes, one after each pass)")
    shown = dict(metrics)
    if not args.trace:
        shown.update(pass_breakdown(runner))
    for name, m in shown.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {runner.attempted}, failed {runner.failed}")
    for op in runner.ops:
        rc, ok, err, note = runner.results[op.name]
        times = runner.op_times[op.name]
        print(f"  op {op.name:18s} median {statistics.median(times):.4f} s (n={len(times)})"
              f"  exit {rc}  {'ok' if ok and rc == 0 else 'FAIL'}  {note}")


def seed_arg(text):
    seed = int(text, 16) if text.lower().startswith("0x") else int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, default=workloads.DEFAULT_SEED)
    seconds = default_seconds()
    ap.add_argument("--seconds", type=float, default=seconds, required=seconds is None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only set up (the fresh process that setup_s times)")
    args = ap.parse_args(argv)
    if not (SRC / "curvlab" / "__init__.py").is_file():
        print(f"error: no curvlab sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        cli, ops = setup(args.workload, args.seed, tmp)
        if args.setup_only:
            return 0
        cal = calibration.Calibration()
        tracer = spans.Tracer() if args.trace else None
        runner = Runner(cli, ops, args.seed, tracer)
        pass_times, setup_times, traced_walls, traced_bounds = [], [], [], []
        t_start = perf_counter()
        # A round is an untraced pass and then, under --trace 1, a traced pass,
        # or else one fresh setup process (setup_s is an end-to-end metric).
        # The setup samples so meet the same host states as the passes and the
        # calibration bursts between them.
        while True:
            if len(pass_times) >= MIN_PASSES:
                per_round = statistics.median(pass_times) + statistics.median(
                    traced_walls if tracer else setup_times)
                if perf_counter() - t_start + per_round > args.seconds:
                    break
            cal.burst()
            pass_times.append(runner.run_pass())
            if tracer is None:
                setup_times.append(setup_sample(args.workload, args.seed))
                continue
            cal.burst()
            lo = len(tracer.spans)
            traced_walls.append(runner.run_pass(traced=True))
            traced_bounds.append((lo, len(tracer.spans)))
        cal.burst()  # so that every pass has a burst on each side
        if args.trace:
            metrics = per_layer(runner, tracer, traced_bounds, traced_walls, pass_times, cal)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}.json")
        else:
            metrics = end_to_end(pass_times, setup_times, cal.scale())
        report(args, runner, pass_times, setup_times, traced_walls, metrics, cal)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in runner.incorrect:
        print(f"# incorrect: {line}")
    print(json.dumps({"correct": not runner.incorrect, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
