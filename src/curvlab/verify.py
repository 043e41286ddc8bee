"""End-to-end claim suite.

Each check measures a quantity with the library and compares it against its
independently known value, returning records of the form
{check_id, expected, got, tol, pass}.  The CLI prints them as JSON lines; the
test suite asserts them.  Aggregate property checks report the worst deviation
as `got` with expected 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, curves, designs, immersions
from .curvature import (
    DEFAULT_SEED,
    curv_dir,
    fundamental_data,
    normal_curvature_at,
    normal_curvature_global,
    petrunin_pi,
    petrunin_pi_mc,
    scalar_curvature_gauss,
    scalar_curvature_petrunin,
    spherical_curvature,
)
from .immersions import Jet2, jet2, sample_params

__all__ = ["CHECKS", "run_checks"]


def _rec(check_id, expected, got, tol, note=None):
    r = {
        "check_id": check_id,
        "expected": expected,
        "got": got,
        "tol": tol,
        "pass": bool(abs(got - expected) <= tol)
        if isinstance(expected, (int, float)) else bool(got == expected),
    }
    if note:
        r["note"] = note
    return r


def check_clifford(seed=DEFAULT_SEED):
    out = []  # one search: the orbit node, and 20 random basepoints to test homogeneity
    for N in (2, 3, 4):
        spec = immersions.clifford_torus(N)
        us = np.vstack([spec.orbit_nodes(1),
                        sample_params(spec, 20, np.random.default_rng(seed))])
        vals = normal_curvature_at(fundamental_data(jet2(spec, us)), seed=seed)
        out.append(_rec(f"clifford-N{N}", math.sqrt(N), float(vals[0]), 1e-6))
        out.append(_rec(f"clifford-N{N}-spread", 0.0, float(vals.max() - vals.min()), 1e-6))
    return out


def check_formula_star(seed=DEFAULT_SEED):
    N = 5
    spec = immersions.clifford_torus(N)
    rng = np.random.default_rng(seed)
    u = sample_params(spec, 1, rng)[0]
    fd = fundamental_data(jet2(spec, u))
    c = rng.standard_normal((1000, N))
    c /= np.sqrt(np.vecdot(c, c))[:, None]  # rounds as the 1-d norm of each row
    # the Clifford N-torus is the torus of the coordinate frame
    frame = designs.Design(n=N, points=np.eye(N), weights=np.full(N, 1.0 / N))
    worst = float(np.max(np.abs(curv_dir(fd, c) - designs.design_ratio(frame, c) ** 2)))
    return [_rec("formula-star", 0.0, worst, 1e-8)]


def check_design_torus(seed=DEFAULT_SEED):
    spec = designs.torus_immersion_from_design(designs.pentagon_design())
    fd = fundamental_data(jet2(spec, sample_params(spec, 50, np.random.default_rng(seed))))
    metric_dev = float(np.max(np.abs(fd.g - np.eye(2))))
    curv_dev = float(np.max(np.abs(normal_curvature_at(fd, seed=seed) - math.sqrt(1.5))))
    return [
        _rec("design-torus-curv", 0.0, curv_dev, 1e-6),
        _rec("design-torus-metric", 0.0, metric_dev, 1e-9),
    ]


def check_hilbert(seed=DEFAULT_SEED):
    out = []
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        rd = designs.hilbert_rational_design(n)
        res = designs.is_degree4_design(rd)
        out.append(_rec(f"hilbert-n{n}-residual", 0.0, float(res["residual"]), 0.0,
                        note=f"cardinality {rd.N} over {len(rd.points)} points"))
        spec = designs.torus_immersion_from_design(rd)
        fd = fundamental_data(jet2(spec, sample_params(spec, 10, rng)))
        dev = float(np.max(np.abs(normal_curvature_at(fd, seed=seed)
                                  - math.sqrt(3.0 * n / (n + 2)))))
        out.append(_rec(f"hilbert-n{n}-torus-curv", 0.0, dev, 1e-6))
    return out


def check_veronese(seed=DEFAULT_SEED):
    out = []
    for m in (2, 3):
        got = normal_curvature_global(immersions.veronese(m), seed=seed)["sup"]
        out.append(_rec(f"veronese-m{m}-curv", math.sqrt(2.0 * m / (m + 1)), got, 1e-4))
        out.append(_rec(f"veronese-m{m}-spherical",
                        math.sqrt((m - 1) / (m + 1)),
                        spherical_curvature(got, 1.0), 1e-4))
        r2 = bounds.veronese_dims(m, 2)["R_s"]
        out.append(_rec(f"veronese-m{m}-radius-reciprocity", 2.0, r2 * got, 1e-3))
    return out


def check_tube(seed=DEFAULT_SEED):
    def sup(r, rho):  # 5 orbit nodes: both extremal circles and 3 between
        return normal_curvature_global(immersions.tube_encircle(r, 1, 1, rho),
                                       n_points=5, seed=seed)["sup"]
    out = [_rec("tube-balanced", 3.0, sup(2.0 / 3.0, 1.0 / 3.0), 1e-6)]
    worst = max(abs(sup(r, f * r) - max(1.0 / (f * r), 1.0 / (r - f * r)))
                for r in np.linspace(0.5, 1.2, 5) for f in (0.2, 0.35, 0.5, 0.65))
    out.append(_rec("tube-grid", 0.0, worst, 1e-6, note="20 (r, rho) pairs"))
    return out


def check_gauss_petrunin(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    spec = immersions.round_sphere(3, 2.0)
    fd = fundamental_data(jet2(spec, sample_params(spec, 1, rng)[0]))
    out = [_rec("gauss-sc-sphere", 1.5, scalar_curvature_gauss(fd), 1e-6)]
    # per form: the Jacobian's 18 normals, then the Hessian's 54
    draws = rng.standard_normal((100, 72))
    H = draws[:, 18:].reshape(100, 6, 3, 3)
    rfd = fundamental_data(Jet2(point=np.zeros((100, 6)), jac=draws[:, :18].reshape(100, 6, 3),
                                hess=0.5 * (H + np.swapaxes(H, -1, -2))))
    worst = float(np.max(np.abs(scalar_curvature_gauss(rfd) - scalar_curvature_petrunin(rfd))))
    out.append(_rec("gauss-petrunin-identity", 0.0, worst, 1e-9))
    s2 = immersions.round_sphere(2, 1.0)
    fd2 = fundamental_data(jet2(s2, sample_params(s2, 1, rng)[0]))
    pi_cf = petrunin_pi(fd2)
    out.append(_rec("pi-round-sphere", 1.0, pi_cf, 1e-9))
    pi_mc = petrunin_pi_mc(fd2, n_samples=200_000, seed=seed)
    out.append(_rec("pi-monte-carlo", 0.0, abs(pi_mc - pi_cf) / pi_cf, 0.01))
    return out


def check_fenchel(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    shapes = {}  # (k, dim) -> vertex blocks, drawn in the one-polygon order
    for _ in range(1000):
        k = int(rng.integers(4, 21))
        dim = int(rng.integers(3, 6))
        shapes.setdefault((k, dim), []).append(rng.standard_normal((k, dim)))
    worst = min(float(curves._fenchel(np.stack(vs))["slack"].min()) for vs in shapes.values())
    out = [_rec("fenchel-random", 0.0, min(worst, 0.0), 1e-9,
                note="worst slack over 1000 random closed polygons, dims 3-5")]
    square = curves.PolyCurve(
        np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]), closed=True)
    sq = curves.fenchel_check(square)
    out.append(_rec("fenchel-square-equality", True,
                    sq["convex_planar"] and abs(sq["slack"]) < 1e-9, 0))
    skew = curves.PolyCurve(
        np.array([[0.0, 0, 0], [1, 0, 0.3], [1, 1, 0], [0, 1, 0.4]]), closed=True)
    out.append(_rec("fenchel-skew-no-equality", False,
                    curves.fenchel_check(skew)["convex_planar"], 0))
    return out


def check_arm(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    ks, ambients = [], []
    for _ in range(1000):
        ks.append(int(rng.integers(3, 11)))
        ambients.append(int(rng.integers(2, 6)))
    all_ok, worst = curves._random_arm_summary(ks, ambients, [seed + i for i in range(1000)])
    out = [_rec("arm-random", True, all_ok, 0,
                note=f"worst slack {worst:.3e} over 1000 instances")]
    p, _ = curves.random_arm_instance(6, 2, seed=seed)
    out.append(_rec("arm-congruent", 0.0, curves.arm_check(p, p)["slack"], 1e-12))
    return out


def check_bow(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    Rs, lengths = [], []
    for _ in range(500):
        R = float(rng.uniform(0.5, 2.0))
        Rs.append(R)
        lengths.append(float(rng.uniform(0.2, 1.0)) * math.pi * R)
    res = curves._bow(curves._bounded_arcs(Rs, lengths, 100, 3, [seed + i for i in range(500)]),
                      np.array(Rs))
    all_ok = bool(np.all(res["curv_ok"] & res["chord_ok"]))
    worst = float(np.min(res["slack"][res["curv_ok"]], initial=math.inf))
    out = [_rec("bow-random", True, all_ok, 0,
                note=f"worst slack {worst:.3e} over 500 curves")]
    arc = curves.circular_arc(1.3, 2.0, n=1024)
    res = curves.bow_check(arc, 1.3)
    out.append(_rec("bow-arc-equality", 0.0, res["slack"], 1e-6))
    return out


def check_crofton(seed=DEFAULT_SEED):
    circle = curves.circle_curve(1.0).polygon(512)
    res = curves.crofton_check(circle, n_dirs=10_000, seed=seed)
    return [_rec("crofton-circle", 8.0 * math.pi, res["mc_estimate"],
                 0.03 * 8.0 * math.pi)]


def check_bessel_bounds(seed=DEFAULT_SEED):
    out = [
        _rec("bessel-j-half", math.pi, bounds.bessel_j_zero(0.5), 1e-10),
        _rec("bessel-j-minus-half", math.pi / 2, bounds.bessel_j_zero(-0.5), 1e-10),
        _rec("bessel-j-zero", 2.404826, bounds.bessel_j_zero(0.0), 1e-6),
    ]
    brackets = [(bounds.bessel_bracket(nu), bounds.bessel_j_zero(nu)) for nu in range(1, 11)]
    bracket_ok = all(lo < j < hi for (lo, hi), j in brackets)
    out.append(_rec("bessel-bracket", True, bracket_ok, 0, note="nu = 1..10"))
    out.append(_rec("focal-exceeds-2.5", True, bounds.lower_focal(8, 1.0) > 2.5, 0,
                    note=f"lower_focal(8,1) = {bounds.lower_focal(8, 1.0):.4f}"))
    rep = bounds.report(1, 16)
    out.append(_rec("bounds-report", 0, len(rep["violations"]), 0,
                    note=f"{len(rep['checks'])} cross-checks, n = 1..16"))
    return out


def check_scope(seed=DEFAULT_SEED):
    note = ("universal lower-bound theorems and constructions needing "
            "astronomically many factors are beyond desk-scale computation; "
            "they are covered indirectly by the property suites and the "
            "bound-consistency report")
    return [_rec("scope-note", True, True, 0, note=note)]


CHECKS = {
    "clifford": check_clifford,
    "formula-star": check_formula_star,
    "design-torus": check_design_torus,
    "hilbert": check_hilbert,
    "veronese": check_veronese,
    "tube": check_tube,
    "gauss-petrunin": check_gauss_petrunin,
    "fenchel": check_fenchel,
    "arm": check_arm,
    "bow": check_bow,
    "crofton": check_crofton,
    "bessel-bounds": check_bessel_bounds,
    "scope": check_scope,
}


def run_checks(only=None, seed=DEFAULT_SEED):
    """Run the claim suite (optionally one named group); yields result records."""
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check group {only!r}; known: {sorted(CHECKS)}")
    for name, fn in CHECKS.items():
        if only is not None and name != only:
            continue
        yield from fn(seed=seed)
