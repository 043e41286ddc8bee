"""Command-line interface.

Exit codes: 0 success; 1 input parse error; 2 optimizer non-convergence;
3 infeasible / height-exhausted exact construction; 4 checker hypothesis
violation; 5 verification or consistency failure.  (Flag errors exit 2 via
argparse.)  A missing or malformed input file (spec, design or curve) exits 1
with a one-line ``error:`` message, as does an input outside a routine's
domain, a spec whose forms overflow float64, or one too large for memory.
The default random seed is 0xC0FFEE; the CURVLAB_SEED environment variable
overrides it, and an explicit --seed flag wins over both.
``curv`` searches the orbit space (one node for a homogeneous kind) and its
``status`` is OK when the search converged to ``--tol`` (see curvature).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bounds, curves, designs, immersions, verify
from .curvature import (
    DEFAULT_SEED,
    focal_radius,
    fundamental_data,
    mean_curvature,
    normal_curvature_global,
    petrunin_pi,
    scalar_curvature_gauss,
)
from .immersions import jet2, sample_params

EXIT_PARSE = 1
EXIT_NON_CONVERGED = 2
EXIT_INFEASIBLE = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFY = 5


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what} integer, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive")
_nonnegative_int = _int_at_least(0, "a non-negative")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text}")
    return value


def _env_seed() -> int:
    raw = os.environ.get("CURVLAB_SEED")
    if not raw:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"CURVLAB_SEED must be an integer literal, got {raw!r}") from None


def _meta(args) -> dict:
    meta = {"seed": args.seed, "tol": args.tol}  # every command takes --tol
    if not args.no_meta:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _emit(payload: dict, args) -> None:
    if args.format == "csv":  # every command takes --format
        lines = [f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}"
                 for k, v in sorted(payload.items())]
        _write("\n".join(["key,value", *lines]) + "\n", args)
    else:
        _write(json.dumps({**payload, "meta": _meta(args)}, indent=2, sort_keys=True) + "\n", args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, parse):
    """parse(text) of a file; a missing or malformed file raises a one-line ValueError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from None
    try:
        return parse(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _load_curve(path: str, closed: bool) -> curves.PolyCurve:
    if path.endswith(".csv"):
        return _load(path, lambda text: curves.curve_from_csv(text, closed=closed))

    def parse(text):
        curve = curves.curve_from_json(text)
        return curves.PolyCurve(curve.vertices, closed=True) if closed else curve
    return _load(path, parse)


# ---------------------------------------------------------------------------
# commands

def _curvature_payload(spec, args) -> dict:
    res = normal_curvature_global(spec, n_points=args.points, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    fd = fundamental_data(jet2(spec, sample_params(spec, 1, rng)[0]))
    H = mean_curvature(fd)
    return {
        "curv": res["sup"],
        "per_point_spread": res["per_point_spread"],
        "n_points": res["n_points"],
        "pi": petrunin_pi(fd),
        "mean_curvature_norm": float(np.linalg.norm(H)),
        "scalar_curvature": scalar_curvature_gauss(fd),
        "focal_radius": focal_radius(res["sup"]) if res["sup"] > 0 else None,
        "status": "OK" if res["stationarity"] <= args.tol else "NON_CONVERGED",
    }


def cmd_curv(args) -> int:
    payload = _curvature_payload(_load(args.spec, immersions.spec_from_json), args)
    _emit(payload, args)
    return 0 if payload["status"] == "OK" else EXIT_NON_CONVERGED


def cmd_design(args) -> int:
    if args.design_cmd == "verify":
        d = _load(args.file, designs.design_from_json)
        res = designs.is_degree4_design(d, tol=args.tol)
        _emit({"ok": res["ok"], "residual": float(res["residual"]),
               "exact": isinstance(d, designs.RationalDesign)}, args)
        return 0 if res["ok"] else EXIT_VERIFY
    if args.design_cmd == "optimize":
        res = designs.optimize_design(args.n, args.cardinality,
                                      seed=args.seed, iters=args.iters)
        _emit({**designs.design_to_json(res["design"]), "residual": res["residual"],
               "status": res["status"]}, args)
        return 0 if res["status"] == "OK" else EXIT_NON_CONVERGED
    if args.design_cmd == "hilbert":
        try:
            rd = designs.hilbert_rational_design(args.n, args.height_start,
                                                 args.height_max)
        except designs.HeightExhausted as e:
            print(f"error: HEIGHT_EXHAUSTED: {e} (relaxed residual {e.residual})",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
        _emit({**designs.design_to_json(rd), "cardinality": rd.N}, args)
        return 0
    if args.design_cmd == "torus":
        d = _load(args.file, designs.design_from_json)
        try:
            spec = designs.torus_immersion_from_design(d)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        payload = {"spec": immersions.spec_to_json(spec)}
        if args.curv:
            payload.update(_curvature_payload(spec, args))
        _emit(payload, args)
        return 0
    raise AssertionError(args.design_cmd)


def cmd_curve(args) -> int:
    if args.curve_cmd == "fenchel":
        curve = _load_curve(args.file, closed=True)
        res = curves.fenchel_check(curve)
        _emit(res, args)
        return 0 if res["ok"] else EXIT_VERIFY
    if args.curve_cmd == "arm":
        if args.random:
            rng = np.random.default_rng(args.seed)
            ks = [int(rng.integers(3, 11)) for _ in range(args.random)]
            ok, min_slack = curves._random_arm_summary(
                ks, [args.ambient] * args.random,
                [args.seed + i for i in range(args.random)], tol=args.tol)
            _emit({"instances": args.random, "all_ok": ok, "min_slack": min_slack}, args)
            return 0 if ok else EXIT_VERIFY
        if not args.q or not args.p:
            print("error: arm needs two curve files (q p) or --random K",
                  file=sys.stderr)
            return EXIT_PARSE
        q = _load_curve(args.q, closed=False)
        p = _load_curve(args.p, closed=False)
        res = curves.arm_check(q, p, tol=args.tol)
        _emit(res, args)
        if not res["hypotheses_ok"]:
            return EXIT_HYPOTHESIS
        return 0 if res["inequality_ok"] else EXIT_VERIFY
    if args.curve_cmd == "bow":
        curve = _load_curve(args.file, closed=False)
        res = curves.bow_check(curve, args.R, tol=args.tol)
        _emit(res, args)
        if not res["curv_ok"]:
            return EXIT_HYPOTHESIS
        return 0 if res["chord_ok"] else EXIT_VERIFY
    if args.curve_cmd == "crofton":
        curve = _load_curve(args.file, closed=True)
        res = curves.crofton_check(curve, n_dirs=args.dirs, seed=args.seed)
        _emit(res, args)
        return 0 if res["rel_err"] <= args.tol else EXIT_VERIFY
    raise AssertionError(args.curve_cmd)


def cmd_bounds(args) -> int:
    rep = bounds.report(args.n_min, args.n_max)
    if args.format == "csv":
        _write(bounds.report_to_csv(rep), args)
    else:
        _emit({**rep, "rows": [asdict(e) for e in rep["rows"]]}, args)
    return 0 if rep["ok"] else EXIT_VERIFY


def cmd_verify(args) -> int:
    records = list(verify.run_checks(only=args.only, seed=args.seed))
    lines = [json.dumps(r, sort_keys=True) for r in records]
    for line in lines:
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.jsonl"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    n_fail = sum(not r["pass"] for r in records)
    print(f"{len(records) - n_fail}/{len(records)} checks passed", file=sys.stderr)
    return 0 if n_fail == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing

COMMANDS = ("curv", "design", "curve", "bounds", "verify-paper")


def build_parser() -> argparse.ArgumentParser:
    return _parser(None)


def _parser(command) -> argparse.ArgumentParser:
    """The parser.  Every sub-command is listed, for help and errors, but
    one in ``COMMANDS`` given as ``command`` alone gets its arguments."""
    ap = argparse.ArgumentParser(
        prog="curvlab",
        description="normal-curvature workbench: immersion curvatures, "
                    "spherical designs, curve inequalities, and bound reports",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text, run):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        return p if command in (None, name) else None

    def common(p, tol=1e-3):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                       help="random seed (default: CURVLAB_SEED, else 0xC0FFEE)")
        p.add_argument("--tol", type=_tolerance, default=tol)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--no-meta", action="store_true",
                       help="omit the timestamp for byte-identical reruns")

    points = "orbit-space nodes; a homogeneous kind has one"
    if p := add("curv", "curvature report for an immersion spec", cmd_curv):
        p.add_argument("spec", help="immersion spec JSON file")
        p.add_argument("--points", type=_positive_int, default=20, help=points)
        common(p)

    if p := add("design", "degree-4 spherical design tools", cmd_design):
        dsub = p.add_subparsers(dest="design_cmd", required=True)
        pv = dsub.add_parser("verify", help="check a design file")
        pv.add_argument("file")
        common(pv, tol=1e-10)
        po = dsub.add_parser("optimize", help="search for a floating design")
        po.add_argument("--n", type=_positive_int, required=True)
        po.add_argument("--cardinality", type=_positive_int, required=True)
        po.add_argument("--iters", type=_positive_int, default=40)
        common(po)
        ph = dsub.add_parser("hilbert", help="exact rational design construction")
        ph.add_argument("--n", type=_positive_int, required=True)
        ph.add_argument("--height-start", type=_positive_int, default=1)
        ph.add_argument("--height-max", type=_positive_int, default=8)
        common(ph)
        pt = dsub.add_parser("torus", help="flat-torus immersion from a design")
        pt.add_argument("file")
        pt.add_argument("--curv", action="store_true",
                        help="also run the curvature report on the result")
        pt.add_argument("--points", type=_positive_int, default=20, help=points)
        common(pt)

    if p := add("curve", "discrete-curve inequality checkers", cmd_curve):
        csub = p.add_subparsers(dest="curve_cmd", required=True)
        pf = csub.add_parser("fenchel", help="total curvature of a closed curve")
        pf.add_argument("file")
        common(pf)
        pa = csub.add_parser("arm", help="convex-arc straightening check")
        pa.add_argument("q", nargs="?", help="spatial arc file")
        pa.add_argument("p", nargs="?", help="planar convex comparison arc file")
        pa.add_argument("--random", type=_nonnegative_int, default=0,
                        help="run this many generated instances instead of files "
                             "(0: read the files)")
        pa.add_argument("--ambient", type=int, default=3)
        common(pa, tol=1e-9)
        pb = csub.add_parser("bow", help="chord bound for curvature-bounded curves")
        pb.add_argument("file")
        pb.add_argument("--R", type=float, required=True, help="curvature bound 1/R")
        common(pb, tol=1e-9)
        pc = csub.add_parser("crofton", help="height-function critical point count")
        pc.add_argument("file")
        pc.add_argument("--dirs", type=_positive_int, default=10_000)
        common(pc, tol=0.05)

    if p := add("bounds", "curvature bound tables", cmd_bounds):
        bsub = p.add_subparsers(dest="bounds_cmd", required=True)
        pr = bsub.add_parser("report", help="bound table with consistency checks")
        pr.add_argument("--n-min", type=int, default=1)
        pr.add_argument("--n-max", type=int, default=16)
        common(pr)

    if p := add("verify-paper", "run the full quantitative claim suite", cmd_verify):
        p.add_argument("--only", default=None, help="run a single check group")
        common(p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.run(args)
    except (ValueError, MemoryError) as e:  # malformed, out-of-domain or too-large input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
