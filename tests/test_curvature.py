"""Curvature engine against closed forms.

Oracles: round spheres (curv = 1/R everywhere), sphere products
(max over factors of 1/R_i), Clifford tori (sqrt(N)), and the algebraic
identities linking II, H, Pi and scalar curvature.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from curvlab import immersions as im
from curvlab import curvature as cv


def fd_at(spec, u):
    return cv.fundamental_data(im.jet2(spec, np.asarray(u, dtype=float)))


def test_sphere_directional_curvature_is_reciprocal_radius():
    fd = fd_at(im.round_sphere(2, 2.0), [1.0, 0.7])
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = rng.standard_normal(2)
        assert math.isclose(cv.curv_dir(fd, tau), 0.5, rel_tol=1e-12)


# the rank test is relative (the metric's eigenvalues are R^2), and the search
# runs on the form over a power of two, so no power of curv overflows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,R", [(1, 1.0), (2, 0.5), (3, 2.0), (2, 1e-100), (3, 1e150),
                                 *((n, R) for R in (1e-9, 1e-12) for n in (1, 2, 3))])
def test_sphere_normal_curvature(n, R):
    res = cv.normal_curvature_global(im.round_sphere(n, R), n_points=5)
    assert math.isclose(res["sup"], 1.0 / R, rel_tol=1e-12)
    assert res["per_point_spread"] < 1e-9
    assert res["stationarity"] < 1e-12  # unit-free: the gradient over curv


def test_sphere_product_curvature_is_max_reciprocal_radius():
    spec = im.sphere_product([(1, 0.5), (2, 2.0)])
    res = cv.normal_curvature_global(spec, n_points=8)
    assert abs(res["sup"] - 2.0) < 1e-9


def test_two_circle_product_matches_clifford():
    r = 1.0 / math.sqrt(2.0)
    prod = cv.normal_curvature_global(im.sphere_product([(1, r), (1, r)]), n_points=5)
    cliff = cv.normal_curvature_global(im.clifford_torus(2), n_points=5)
    assert abs(prod["sup"] - cliff["sup"]) < 1e-9
    assert abs(cliff["sup"] - math.sqrt(2.0)) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 5])
def test_clifford_curvature(N):
    res = cv.normal_curvature_global(im.clifford_torus(N), n_points=6)
    assert abs(res["sup"] - math.sqrt(N)) < 1e-7


def test_clifford_metric_is_euclidean():
    fd = fd_at(im.clifford_torus(3), [0.2, 1.4, 2.7])
    assert np.allclose(fd.g, np.eye(3), atol=1e-12)


def test_curv_dir_quartic_profile_on_clifford():
    # ||II(t,t)|| = sqrt(N) * sum(t^4)^(1/2) in the flat chart
    N = 4
    fd = fd_at(im.clifford_torus(N), [0.3, 0.9, 1.7, 2.5])
    rng = np.random.default_rng(3)
    ts = []
    for _ in range(50):
        t = rng.standard_normal(N)
        t /= np.linalg.norm(t)
        expect = math.sqrt(N) * math.sqrt(float(np.sum(t**4)))
        assert math.isclose(cv.curv_dir(fd, t), expect, rel_tol=1e-10)
        ts.append(t)
    # a (K, n) block of directions gives the K one-direction values
    stacked = cv.curv_dir(fd, np.array(ts))
    assert stacked.shape == (50,)
    np.testing.assert_allclose(stacked, [cv.curv_dir(fd, t) for t in ts], rtol=1e-14, atol=0)


def test_curv_dir_rejects_zero_direction():
    fd = fd_at(im.round_sphere(2, 1.0), [1.0, 0.5])
    with pytest.raises(ValueError):
        cv.curv_dir(fd, [0.0, 0.0])
    with pytest.raises(ValueError):
        cv.curv_dir(fd, [[1.0, 0.0], [0.0, 0.0], [0.3, 0.4]])


def test_normal_curvature_at_zero_form():
    # a great circle chart of S^1(1) inside the plane: II = 0 never happens in
    # the catalog, so synthesize a flat jet directly
    J = np.array([[1.0], [0.0]])
    jet = im.Jet2(point=np.zeros(2), jac=J, hess=np.zeros((2, 1, 1)))
    assert cv.normal_curvature_at(cv.fundamental_data(jet)) == 0.0


def test_mean_curvature_of_sphere():
    # trace convention: ||H|| = n/R
    fd = fd_at(im.round_sphere(3, 2.0), [1.1, 0.8, 2.2])
    assert math.isclose(float(np.linalg.norm(cv.mean_curvature(fd))), 1.5,
                        rel_tol=1e-10)


def test_second_form_l2_of_sphere():
    fd = fd_at(im.round_sphere(3, 2.0), [1.1, 0.8, 2.2])
    assert math.isclose(cv.second_form_l2_sq(fd), 3.0 / 4.0, rel_tol=1e-10)


def test_petrunin_pi_closed_forms():
    assert math.isclose(cv.petrunin_pi(fd_at(im.round_sphere(2, 1.0), [1.0, 0.4])),
                        1.0, rel_tol=1e-12)
    # Clifford: Pi = 3N/(N+2)  (II and H norms both N^2)
    N = 3
    fd = fd_at(im.clifford_torus(N), [0.1, 1.0, 2.0])
    assert math.isclose(cv.petrunin_pi(fd), 3.0 * N / (N + 2), rel_tol=1e-12)


def test_petrunin_pi_monte_carlo_on_asymmetric_point():
    # tube points have direction-dependent curvature, a real MC test
    fd = fd_at(im.tube_encircle(1.0, 1, 1, 0.3), [0.7, 2.0])
    cf = cv.petrunin_pi(fd)
    mc = cv.petrunin_pi_mc(fd, n_samples=400_000, seed=11)
    assert abs(mc - cf) / cf < 0.01


def test_scalar_curvature_gauss_on_spheres():
    # Sc(S^n(R)) = n(n-1)/R^2
    for n, R in [(2, 1.0), (3, 2.0), (2, 0.5)]:
        u = np.full(n, 1.0)
        fd = fd_at(im.round_sphere(n, R), u)
        assert math.isclose(cv.scalar_curvature_gauss(fd), n * (n - 1) / R**2,
                            rel_tol=1e-9)


def test_scalar_curvature_formulas_agree_on_random_data():
    rng = np.random.default_rng(5)
    Js, Hs, fds = [], [], []
    for _ in range(100):
        J = rng.standard_normal((7, 3))
        H = rng.standard_normal((7, 3, 3))
        H = 0.5 * (H + np.swapaxes(H, 1, 2))
        fd = cv.fundamental_data(im.Jet2(point=np.zeros(7), jac=J, hess=H))
        a = cv.scalar_curvature_gauss(fd)
        b = cv.scalar_curvature_petrunin(fd)
        assert type(a) is float and type(b) is float
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))
        Js.append(J)
        Hs.append(H)
        fds.append(fd)
    # the same forms as one (100,) stack give every one-form value
    stack = cv.fundamental_data(im.Jet2(point=np.zeros((100, 7)), jac=np.array(Js),
                                        hess=np.array(Hs)))
    for f in (cv.mean_curvature, cv.second_form_l2_sq, cv.petrunin_pi,
              cv.scalar_curvature_gauss, cv.scalar_curvature_petrunin,
              lambda fd: cv.petrunin_pi_mc(fd, n_samples=500, seed=9)):
        one = np.array([f(fd) for fd in fds])
        np.testing.assert_allclose(f(stack), one, rtol=1e-14, atol=1e-14 * np.abs(one).max())
    taus = rng.standard_normal((100, 3))
    np.testing.assert_allclose(cv.curv_dir(stack, taus),
                               [cv.curv_dir(fd, t) for fd, t in zip(fds, taus)], rtol=1e-14)
    np.testing.assert_allclose(cv.curv_dir(stack, taus[0]),
                               [cv.curv_dir(fd, taus[0]) for fd in fds], rtol=1e-14)


def test_clifford_is_scalar_flat():
    fd = fd_at(im.clifford_torus(2), [0.4, 1.3])
    assert abs(cv.scalar_curvature_gauss(fd)) < 1e-10


def test_focal_radius_reciprocity():
    assert math.isclose(cv.focal_radius(2.0), 0.5)
    with pytest.raises(ValueError):
        cv.focal_radius(0.0)


def test_spherical_curvature():
    # curvature 1 inside the unit sphere means a great sphere: zero intrinsic
    assert cv.spherical_curvature(1.0, 1.0) == 0.0
    assert math.isclose(cv.spherical_curvature(math.sqrt(2.0), 1.0), 1.0,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        cv.spherical_curvature(0.3, 1.0)


def test_gauss_map_tilt_matches_normal_curvature():
    # the tangent-plane tilt rate equals curv on a round sphere
    spec = im.round_sphere(2, 2.0)
    got = cv.gauss_map_diff_norm(spec, [1.2, 0.8], n_dirs=64)
    assert abs(got - 0.5) < 1e-4


def test_global_sup_matches_pointwise_search():
    # the batched search over all basepoints and the one-basepoint search agree;
    # this product's quartic form has two basins (the circle and the 2-sphere)
    spec = im.sphere_product([(1, 0.5), (2, 2.0)])
    us = im.sample_params(spec, 8, np.random.default_rng(cv.DEFAULT_SEED))
    pointwise = [cv.normal_curvature_at(fd_at(spec, u)) for u in us]
    fd = cv.fundamental_data(im.jet2(spec, us))
    stacked, taus = cv.normal_curvature_at(fd, return_direction=True)
    assert stacked.shape == (8,) and taus.shape == (8, 3)
    np.testing.assert_allclose(stacked, pointwise, rtol=0, atol=1e-12)
    for u, tau in zip(us, taus):
        assert np.allclose(cv.normal_curvature_at(fd_at(spec, u), return_direction=True)[1],
                           tau, rtol=0, atol=1e-12)
    res = cv.normal_curvature_global(spec, n_points=8)
    assert res["sup"] == pytest.approx(max(pointwise), abs=1e-12)
    assert res["per_point_spread"] == pytest.approx(
        max(pointwise) - min(pointwise), abs=1e-12)


def test_verify_runs_one_direction_search_per_spec(monkeypatch):
    # every spec's basepoints go through one batched search; the tube group
    # checks 21 specs (one balanced tube, a 5 x 4 grid of (r, rho))
    from curvlab import verify
    calls = []
    search = cv._direction_search

    def counted(M, tol, seed):
        calls.append(len(M))
        return search(M, tol, seed)

    monkeypatch.setattr(cv, "_direction_search", counted)
    want = {"clifford": 3, "design-torus": 1, "hilbert": 2, "veronese": 2, "tube": 21}
    counts = {}
    for group in want:
        calls.clear()
        assert all(r["pass"] for r in verify.run_checks(only=group))
        counts[group] = len(calls)
    assert counts == want


def loop_gauss_petrunin(seed):
    """check_gauss_petrunin with its 100 random forms built one at a time."""
    from curvlab.verify import _rec
    rng = np.random.default_rng(seed)
    spec = im.round_sphere(3, 2.0)
    fd = fd_at(spec, im.sample_params(spec, 1, rng)[0])
    out = [_rec("gauss-sc-sphere", 1.5, cv.scalar_curvature_gauss(fd), 1e-6)]
    worst = 0.0
    for _ in range(100):
        J = rng.standard_normal((6, 3))
        H = rng.standard_normal((6, 3, 3))
        H = 0.5 * (H + np.swapaxes(H, 1, 2))
        rfd = cv.fundamental_data(im.Jet2(point=np.zeros(6), jac=J, hess=H))
        worst = max(worst, abs(cv.scalar_curvature_gauss(rfd)
                               - cv.scalar_curvature_petrunin(rfd)))
    out.append(_rec("gauss-petrunin-identity", 0.0, worst, 1e-9))
    s2 = im.round_sphere(2, 1.0)
    fd2 = fd_at(s2, im.sample_params(s2, 1, rng)[0])
    pi_cf = cv.petrunin_pi(fd2)
    out.append(_rec("pi-round-sphere", 1.0, pi_cf, 1e-9))
    pi_mc = cv.petrunin_pi_mc(fd2, n_samples=200_000, seed=seed)
    out.append(_rec("pi-monte-carlo", 0.0, abs(pi_mc - pi_cf) / pi_cf, 0.01))
    return out


def loop_formula_star(seed):
    """check_formula_star's worst deviation, one direction at a time."""
    N = 5
    spec = im.clifford_torus(N)
    rng = np.random.default_rng(seed)
    fd = fd_at(spec, im.sample_params(spec, 1, rng)[0])
    worst = 0.0
    for _ in range(1000):
        c = rng.standard_normal(N)
        c /= np.linalg.norm(c)
        l4_over_l2 = float(np.mean(c**4)) ** 0.25 / math.sqrt(float(np.mean(c**2)))
        worst = max(worst, abs(cv.curv_dir(fd, c) - l4_over_l2**2))
    return worst


@pytest.mark.parametrize("seed", [cv.DEFAULT_SEED, 7001])
def test_gauss_petrunin_and_formula_star_records_equal_per_form_loop(monkeypatch, seed):
    # gauss-petrunin builds its 100 random forms in one of its 3 fundamental_data
    # calls and formula-star scores its 1000 directions in one curv_dir call;
    # the draws keep the per-form stream order
    from curvlab import verify
    calls = {"fundamental_data": 0, "curv_dir": 0}
    for name in calls:
        def counted(*args, _f=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(verify, name, counted)
    assert verify.check_gauss_petrunin(seed=seed) == loop_gauss_petrunin(seed)
    (star,) = verify.check_formula_star(seed=seed)
    assert calls == {"fundamental_data": 4, "curv_dir": 1}
    # the ratio's vectorized ** 0.25 rounds apart from Python's float pow
    assert star["got"] == pytest.approx(loop_formula_star(seed), rel=0, abs=1e-14)
    assert star["pass"] and star["tol"] == 1e-8


def test_rejects_nonpositive_counts():
    spec = im.round_sphere(2, 1.0)
    with pytest.raises(ValueError):
        cv.normal_curvature_global(spec, n_points=0)


def direction_grid(n, density, rng):
    """Dense reference directions: an even half-circle (n = 2), a Fibonacci
    lattice (n = 3), else uniform random unit vectors."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        ang = np.linspace(0.0, math.pi, density, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        k = np.arange(density)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * (k + 0.5) / density
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = rng.standard_normal((density, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def random_form(rng, n, N):
    """Fundamental data of a random jet in R^N, as in verify.check_gauss_petrunin."""
    J = rng.standard_normal((N, n))
    H = rng.standard_normal((N, n, n))
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    return cv.fundamental_data(im.Jet2(point=np.zeros(N), jac=J, hess=H))


def test_direction_search_is_stationary_on_random_forms():
    # the returned direction beats the best direction of a dense reference
    # grid and is stationary to tol
    rng = np.random.default_rng(cv.DEFAULT_SEED)
    tol = 1e-9
    for trial in range(30):
        n = 2 + trial % 5
        fd = random_form(rng, n, n + 3 + trial % 4)
        curv, tau = cv.normal_curvature_at(fd, tol=tol, return_direction=True)
        M = fd.whitened_form()
        grid = direction_grid(n, 10_000 if n <= 3 else 100_000,
                              np.random.default_rng(cv.DEFAULT_SEED))
        vals = np.einsum("si,cij,sj->sc", grid, M, grid)
        assert curv * curv >= float(np.max(np.einsum("sc,sc->s", vals, vals)))
        w = np.linalg.solve(fd.whitener, tau)
        q = np.einsum("cij,i,j->c", M, w, w)
        G = np.einsum("c,cij,j->i", q, M, w)
        F = float(q @ q)
        assert math.isclose(math.sqrt(F), curv, rel_tol=1e-12)
        assert 2.0 * np.linalg.norm(G - F * w) / math.sqrt(F) <= tol + 1e-14


def test_determinism_same_seed():
    spec = im.clifford_torus(3)
    a = cv.normal_curvature_global(spec, n_points=4, seed=42)
    b = cv.normal_curvature_global(spec, n_points=4, seed=42)
    assert a == b


@pytest.mark.parametrize("N", [7, 8, 12])
def test_clifford_beyond_six_dimensions(N):
    fd = fd_at(im.clifford_torus(N), np.linspace(0.1, 2.0, N))
    assert abs(cv.normal_curvature_at(fd) - math.sqrt(N)) < 1e-9


def many_start_max(M, n_starts, rng):
    """Largest ||II(w,w)|| reached from n_starts random unit starts: 100
    shifted power steps (SS-HOPM, Kolda-Mayo shift) per start find the basins,
    and the ascent then polishes the 16 best."""
    C, n = M.shape[:2]
    Mf = M.reshape(C * n, n).T
    shift = 3.0 * float(np.sum(M * M))
    w = direction_grid(n, n_starts, rng)
    for _ in range(100):
        V = (w @ Mf).reshape(n_starts, C, n)
        q = np.einsum("kci,ki->kc", V, w)
        w = np.einsum("kc,kci->ki", q, V) + shift * w
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    q = np.einsum("kci,ki->kc", (w @ Mf).reshape(n_starts, C, n), w)
    best = np.argsort(np.einsum("kc,kc->k", q, q))[-16:]
    F, _, _ = cv._ascend(M[None], w[best][None], 500, 1e-9)
    return math.sqrt(float(F.max()))


def test_direction_search_matches_many_start_oracle_above_six_dimensions():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = 7 + trial % 4
        fd = random_form(rng, n, n + 2 + trial % 3)
        oracle = many_start_max(fd.whitened_form(), 2000, rng)
        assert cv.normal_curvature_at(fd) >= oracle - 1e-9


def test_largest_principal_angle_matches_scipy():
    import scipy.linalg
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = 1 + trial % 4
        N = n + 1 + trial % 3
        A = rng.standard_normal((N, n))
        # tilts from 1e-4 up to O(1) rad
        B = A + 10.0 ** -(trial % 5) * rng.standard_normal((N, n))
        Qa, Qb = np.linalg.qr(A)[0], np.linalg.qr(B)[0]
        want = float(scipy.linalg.subspace_angles(A, B).max())
        assert cv._largest_principal_angle(Qa, Qb) == pytest.approx(want, rel=1e-9,
                                                                    abs=1e-15)


def test_curv_and_gauss_map_import_no_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "clifford_torus", "N": 3}')
    code = ("import sys\n"
            "from curvlab import cli, curvature as cv, immersions as im\n"
            f"assert cli.main(['curv', {str(spec)!r}, '--points', '2', '--no-meta']) == 0\n"
            "cv.gauss_map_diff_norm(im.clifford_torus(3), [0.1, 0.2, 0.3], n_dirs=4)\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# orbit search, scale and contraction order

HOMOGENEOUS = [im.round_sphere(1, 1.0), im.round_sphere(3, 2.0),
               im.sphere_product([(1, 0.5), (2, 2.0)]), im.clifford_torus(4),
               im.torus_linear([[1.0, 0.0], [0.6, 0.8]]), im.veronese(3)]


@pytest.mark.parametrize("spec", HOMOGENEOUS, ids=lambda s: s.kind)
def test_homogeneous_kinds_search_one_regular_node(spec):
    u = spec.orbit_nodes(20)
    assert u.shape == (1, spec.intrinsic_dim)
    polar = np.zeros(spec.intrinsic_dim, dtype=bool)
    polar[spec.polar_columns] = True
    assert np.all(u[0, polar] == math.pi / 2) and np.all(u[0, ~polar] == 0.0)
    res = cv.normal_curvature_global(spec, n_points=20)
    assert res["n_points"] == 1 and res["per_point_spread"] == 0.0
    # the node's value is the value at random basepoints
    us = im.sample_params(spec, 8, np.random.default_rng(3))
    assert np.allclose(cv.normal_curvature_at(cv.fundamental_data(im.jet2(spec, us))),
                       res["sup"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_points", [1, 2, 3, 20])
def test_tube_nodes_span_phi_from_zero_to_pi(n_points):
    spec = im.tube_encircle(1.0, 2, 2, 0.65)
    u = spec.orbit_nodes(n_points)
    assert u.shape == (max(n_points, 2), 4)
    assert u[0, -1] == 0.0 and u[-1, -1] == math.pi
    assert np.all(np.diff(u[:, -1]) > 0) and np.all(u[:, :-1] == u[0, :-1])
    # the distinguished normal coordinate runs from the outer sphere to the inner one
    point = im.jet2(spec, u).point
    np.testing.assert_allclose(np.linalg.norm(point[:, :3], axis=1),
                               1.0 + 0.65 * np.cos(u[:, -1]), rtol=0, atol=1e-15)
    res = cv.normal_curvature_global(spec, n_points=n_points)
    assert res["n_points"] == max(n_points, 2)
    assert abs(res["sup"] - 1.0 / 0.35) < 1e-6


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_tube_chart_is_regular_at_the_extremal_spheres(n1, n2):
    # the azimuthal normal coordinate keeps phi = 0 and pi off the chart's poles
    spec = im.tube_encircle(1.0, n1, n2, 0.4)
    jet = im.jet2(spec, spec.orbit_nodes(2))
    jet.validate()
    sv = np.linalg.svd(jet.jac, compute_uv=False)
    assert np.all(sv[:, -1] > 0.3)


def test_orbit_search_needs_no_basepoint_draws(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sample_params called")
    monkeypatch.setattr(im, "sample_params", forbidden)
    for spec in HOMOGENEOUS + [im.tube_encircle(1.0, 1, 1, 0.65)]:
        cv.normal_curvature_global(spec)


def test_degenerate_and_underflowing_metrics_are_rejected():
    zero = im.Jet2(point=np.zeros(3), jac=np.zeros((3, 2)), hess=np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="rank-deficient"):
        cv.fundamental_data(zero)
    flat = im.Jet2(point=np.zeros(3), jac=np.array([[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0]]),
                   hess=np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="rank-deficient"):
        cv.fundamental_data(flat)
    # a subnormal metric has lost its digits (R = 1e-160 gave curv off by 1e-5)
    with pytest.raises(ValueError, match="underflows"):
        fd_at(im.round_sphere(2, 1e-160), [1.0, 0.5])


def test_power_of_two_scaling_leaves_the_search_bit_identical():
    rng = np.random.default_rng(5)
    for trial in range(20):
        fd = random_form(rng, 2 + trial % 4, 6 + trial % 3)
        M = fd.whitened_form()[None]
        a = cv._direction_search(M, 1e-9, trial)
        b = cv._direction_search(M * 2.0 ** (trial - 10), 1e-9 * 2.0 ** (trial - 10), trial)
        assert b[0][0] == a[0][0] * 2.0 ** (trial - 10)
        assert np.array_equal(a[1], b[1])


def test_contraction_order_reaches_high_dimension():
    # Q (Q^T H) and W^T II W: two-operand contractions, O(N n^3) per basepoint
    assert abs(cv.normal_curvature_global(im.clifford_torus(48))["sup"]
               - math.sqrt(48.0)) < 1e-12
    assert abs(cv.normal_curvature_global(im.veronese(12))["sup"]
               - math.sqrt(24.0 / 13.0)) < 1e-12

