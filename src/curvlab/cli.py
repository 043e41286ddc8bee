"""Command-line interface.

Exit codes: 0 success; 1 input parse error; 2 optimizer non-convergence;
3 infeasible / height-exhausted exact construction; 4 checker hypothesis
violation; 5 verification or consistency failure.  A flag error exits 2 via
argparse; every numeric flag (a count, ``--tol``, ``--seed``, ``--R``,
``--ambient``, ``--n-min``, ``--n-max``) ends in ``not <noun>: '<text>'`` or
``must be <rule>, got <text>``; ``curve arm --ambient`` without ``--random``
and ``curve arm`` files with ``--random K`` (K >= 1) are flag errors too.  A
missing or malformed input file (spec, design or curve) exits 1 with a
one-line ``error:`` message, as do an input outside a routine's domain
(``--n-min`` above ``--n-max`` among them), a spec whose forms overflow
float64, or one too large for memory.  The default random seed is 0xC0FFEE;
CURVLAB_SEED overrides it (a bad value exits 1 with ``error: CURVLAB_SEED:``
and one of ``--seed``'s two messages); an explicit --seed wins over both.
``curv`` searches the orbit space (one node for a homogeneous kind, two for
the tube), reads the pointwise invariants at the first node, and its
``status`` is OK when the search converged to ``--tol`` (see curvature).
Only the commands that read ``--tol`` take it, and only their ``meta`` reports
it: ``curv``, ``design verify``, ``design torus`` (under ``--curv``) and
``curve arm``, ``bow`` and ``crofton``.  ``verify-paper`` prints JSON lines
without ``meta``, so it takes no ``--format``.  The parser is built once per
process (``build_parser``); each parse makes a new Namespace, so no state
carries from one ``main`` to the next.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bounds, curves, designs, immersions, verify
from .curvature import DEFAULT_SEED, focal_radius, normal_curvature_global

EXIT_PARSE = 1
EXIT_NON_CONVERGED = 2
EXIT_INFEASIBLE = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFY = 5


def _checked(parse, noun: str, ok, rule: str):
    """An argparse type: parse(text), then ok(value); either failure is one message."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return check


_positive_int = _checked(int, "an integer", lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, "an integer", lambda v: v >= 0, "a non-negative integer")
_tolerance = _checked(float, "a number", lambda v: 0 <= v < math.inf,
                      "a finite non-negative number")
_seed = _checked(lambda t: int(t, 0), "an integer literal", lambda v: v >= 0,
                 "a non-negative integer")
_radius = _checked(float, "a number", lambda v: 0 < v and 2 * math.pi * v < math.inf,
                   "a positive number with 2 pi R finite")
_ambient = _checked(int, "an integer", lambda v: v >= 2, "an integer >= 2")
_dimension = _checked(int, "an integer", lambda v: 1 <= v <= 64, "an integer from 1 to 64")


def _env_seed() -> int:
    raw = os.environ.get("CURVLAB_SEED")
    try:
        return _seed(raw) if raw else DEFAULT_SEED
    except argparse.ArgumentTypeError as e:
        raise ValueError(f"CURVLAB_SEED: {e}") from None


def _meta(args) -> dict:
    meta = {k: getattr(args, k) for k in ("seed", "tol") if k in args}  # tol where it is read
    if not args.no_meta:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _emit(payload: dict, args) -> None:
    if args.format == "csv":  # every command but verify-paper takes --format
        lines = [f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}"
                 for k, v in sorted(payload.items())]
        _write("\n".join(["key,value", *lines]) + "\n", args.out)
    else:
        _write(json.dumps({**payload, "meta": _meta(args)}, indent=2, sort_keys=True) + "\n",
               args.out)


def _write(text: str, path) -> None:
    """text to stdout, or to path; an unwritable path raises a one-line ValueError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}") from None


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
    """A CSV or JSON curve file; closed=True closes it in parse, so its errors name path."""
    def parse(text):
        curve = (curves.curve_from_csv if path.endswith(".csv") else curves.curve_from_json)(text)
        return curves.PolyCurve(curve.vertices, closed=True) if closed else curve
    return _load(path, parse)


# ---------------------------------------------------------------------------
# commands

def _curvature_payload(spec, args) -> dict:
    res = normal_curvature_global(spec, seed=args.seed)
    sup = res["curv"] = res.pop("sup")
    res["focal_radius"] = focal_radius(sup) if sup > 0 else None
    res["status"] = "OK" if res.pop("stationarity") <= args.tol else "NON_CONVERGED"
    return res


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
            rd = designs.hilbert_rational_design(args.n, args.height_max)
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
        else:  # --tol is read only under --curv, so only there does meta report it
            del args.tol
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
            if args.q:  # files the random run would not read
                args.parser.error("argument --random: not allowed with curve files")
            rng = np.random.default_rng(args.seed)
            ambient = 3 if args.ambient is None else args.ambient
            ok, min_slack = curves._random_arm_summary(
                rng.integers(3, 11, size=args.random), [ambient] * args.random, rng,
                tol=args.tol)
            _emit({"instances": args.random, "all_ok": ok, "min_slack": min_slack}, args)
            return 0 if ok else EXIT_VERIFY
        if args.ambient is not None:  # a flag the files would not read
            args.parser.error("argument --ambient: read only with --random")
        if not args.q or not args.p:
            raise ValueError("arm needs two curve files (q p) or --random K")
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
        _write(bounds.report_to_csv(rep), args.out)
    else:
        _emit({**rep, "rows": [asdict(e) for e in rep["rows"]]}, args)
    return 0 if rep["ok"] else EXIT_VERIFY


def cmd_verify(args) -> int:
    if args.out:  # before the checks run, so an unusable directory fails at once
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise ValueError(f"{args.out}: {e.strerror}") from None
    records = list(verify.run_checks(only=args.only, seed=args.seed))
    lines = [json.dumps(r, sort_keys=True) for r in records]
    for line in lines:
        print(line)
    if args.out:
        _write("\n".join(lines) + "\n", os.path.join(args.out, "results.jsonl"))
    n_fail = sum(not r["pass"] for r in records)
    print(f"{len(records) - n_fail}/{len(records)} checks passed", file=sys.stderr)
    return 0 if n_fail == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvlab",
        description="normal-curvature workbench: immersion curvatures, "
                    "spherical designs, curve inequalities, and bound reports",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text, run):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        return p

    def common(p, tol=None, meta=True):
        p.add_argument("--seed", type=_seed, default=None,
                       help="random seed (default: CURVLAB_SEED, else 0xC0FFEE)")
        if tol is not None:  # only the commands that read --tol take it
            p.add_argument("--tol", type=_tolerance, default=tol)
        if meta:  # verify-paper prints JSON lines with no meta
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--no-meta", action="store_true",
                       help="omit the timestamp for byte-identical reruns" if meta else
                       "no effect: verify-paper prints no meta; accepted so that "
                       "one set of flags can be passed to every command")

    p = add("curv", "curvature report for an immersion spec", cmd_curv)
    p.add_argument("spec", help="immersion spec JSON file")
    common(p, tol=1e-3)

    dsub = add("design", "degree-4 spherical design tools",
               cmd_design).add_subparsers(dest="design_cmd", required=True)
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
    ph.add_argument("--height-max", type=_positive_int, default=8)
    common(ph)
    pt = dsub.add_parser("torus", help="flat-torus immersion from a design")
    pt.add_argument("file")
    pt.add_argument("--curv", action="store_true",
                    help="also run the curvature report on the result")
    common(pt, tol=1e-3)

    csub = add("curve", "discrete-curve inequality checkers",
               cmd_curve).add_subparsers(dest="curve_cmd", required=True)
    pf = csub.add_parser("fenchel", help="total curvature of a closed curve")
    pf.add_argument("file")
    common(pf)
    pa = csub.add_parser("arm", help="convex-arc straightening check")
    pa.add_argument("q", nargs="?", help="spatial arc file")
    pa.add_argument("p", nargs="?", help="planar convex comparison arc file")
    pa.add_argument("--random", type=_nonnegative_int, default=0,
                    help="run this many generated instances instead of files "
                         "(0: read the files)")
    pa.add_argument("--ambient", type=_ambient, default=None,
                    help="ambient dimension of the --random instances (default 3)")
    pa.set_defaults(parser=pa)  # for the flag errors, in the subcommand's words
    common(pa, tol=1e-9)
    pb = csub.add_parser("bow", help="chord bound for curvature-bounded curves")
    pb.add_argument("file")
    pb.add_argument("--R", type=_radius, required=True, help="curvature bound 1/R")
    common(pb, tol=1e-9)
    pc = csub.add_parser("crofton", help="height-function critical point count")
    pc.add_argument("file")
    pc.add_argument("--dirs", type=_positive_int, default=10_000)
    common(pc, tol=0.05)

    bsub = add("bounds", "curvature bound tables",
               cmd_bounds).add_subparsers(dest="bounds_cmd", required=True)
    pr = bsub.add_parser("report", help="bound table with consistency checks")
    pr.add_argument("--n-min", type=_dimension, default=1)
    pr.add_argument("--n-max", type=_dimension, default=16)
    common(pr)

    p = add("verify-paper", "run the full quantitative claim suite", cmd_verify)
    p.add_argument("--only", default=None, help="run a single check group")
    common(p, meta=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.run(args)
    except (ValueError, MemoryError) as e:  # malformed, out-of-domain or too-large input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
