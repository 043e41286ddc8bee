"""Analytic 2-jets against central finite differences, plus catalog invariants."""

import math

import numpy as np
import pytest

from curvlab import curvature as cv
from curvlab import immersions as im
from curvlab.immersions import ImmersionSpec, Jet2, _check_params, jet2


def jet2_fd(spec: ImmersionSpec, u, h: float = 1e-4) -> Jet2:
    """Central-difference 2-jet; the validation oracle for :func:`jet2`."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    u = _check_params(spec, u)
    # polar angles of any hyperspherical chart must stay away from the poles
    if np.any(np.abs(np.sin(u[spec.polar_columns])) < 10.0 * h):
        raise ValueError("parameter too close to a chart boundary for finite differences")
    n = u.shape[0]
    f0 = jet2(spec, u).point
    N = f0.shape[0]
    jac = np.empty((N, n))
    hess = np.empty((N, n, n))
    def ev(du):
        return jet2(spec, u + du).point
    e = np.eye(n) * h
    for i in range(n):
        fp, fm = ev(e[i]), ev(-e[i])
        jac[:, i] = (fp - fm) / (2 * h)
        hess[:, i, i] = (fp - 2 * f0 + fm) / h**2
        for j in range(i + 1, n):
            fpp = ev(e[i] + e[j])
            fpm = ev(e[i] - e[j])
            fmp = ev(-e[i] + e[j])
            fmm = ev(-e[i] - e[j])
            v = (fpp - fpm - fmp + fmm) / (4 * h**2)
            hess[:, i, j] = v
            hess[:, j, i] = v
    return Jet2(point=f0, jac=jac, hess=hess)


def containment_radius(spec: ImmersionSpec, n_samples: int = 1000, seed: int = 0) -> float:
    """Supremum estimate of ||f(u)|| over random samples plus chart corners."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = spec.intrinsic_dim
    us = np.vstack([np.zeros((1, n)), np.eye(n) * (math.pi / 2),
                    rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, n))])
    return max(float(np.linalg.norm(jet2(spec, u).point)) for u in us)


ALL_SPECS = [
    im.round_sphere(1, 1.0),
    im.round_sphere(2, 1.0),
    im.round_sphere(3, 2.0),
    im.round_sphere(6, 1.0),
    im.sphere_product([(1, 0.6), (1, 0.8)]),
    im.sphere_product([(2, 1.0), (1, 0.5)]),
    im.clifford_torus(2),
    im.clifford_torus(4),
    im.clifford_torus(6),
    im.torus_linear([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
    im.veronese(2),
    im.veronese(3),
    im.veronese(4),
    im.tube_encircle(2.0 / 3.0, 1, 1, 1.0 / 3.0),
    im.tube_encircle(1.0, 2, 1, 0.4),
    # normal spheres S^2 and S^3: more than one non-azimuthal normal coordinate
    im.tube_encircle(1.0, 1, 2, 0.3),
    im.tube_encircle(1.0, 2, 3, 0.25),
]


def spec_id(spec):
    """kind and dimension; a one-factor sphere product is named as the round sphere it is,
    and a tube whose normal sphere is not a circle also names that sphere's dimension."""
    one_sphere = spec.kind == "sphere_product" and len(spec.factors) == 1
    name = ("round_sphere" if one_sphere else spec.kind) + str(spec.intrinsic_dim)
    return f"{name}-normal{spec.n2}" if spec.kind == "tube" and spec.n2 > 1 else name


# polar-angle columns of each ALL_SPECS entry, written out per kind: every
# hyperspherical chart angle but the chart's last one
POLAR_COLUMNS = {
    "round_sphere1": [], "round_sphere2": [0], "round_sphere3": [0, 1],
    "round_sphere6": [0, 1, 2, 3, 4],
    "sphere_product2": [],  # S^1 x S^1
    "sphere_product3": [0],  # S^2 x S^1
    "clifford_torus2": [], "clifford_torus4": [], "clifford_torus6": [],
    "torus_linear2": [],
    "veronese2": [0], "veronese3": [0, 1], "veronese4": [0, 1, 2],
    "tube2": [],  # S^1 base, S^1 normal circle
    "tube3": [0],  # S^2 base, S^1 normal circle
    "tube3-normal2": [1],  # S^1 base, S^2 normal sphere
    "tube5-normal3": [0, 2, 3],  # S^2 base, S^3 normal sphere
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_jet_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    us = im.sample_params(spec, 4, rng)
    stacked = im.jet2(spec, us)
    cv.fundamental_data(stacked)  # raises on a rank-deficient Jacobian
    assert np.allclose(stacked.hess, stacked.hess.mT, atol=1e-10)
    for b, u in enumerate(us):
        j = im.jet2(spec, u)
        cv.fundamental_data(j)
        assert np.allclose(j.hess, j.hess.mT, atol=1e-10)
        jf = jet2_fd(spec, u, h=1e-4)
        assert np.allclose(j.point, jf.point, atol=1e-12)
        assert np.allclose(j.jac, jf.jac, atol=1e-6)
        assert np.allclose(j.hess, jf.hess, atol=1e-5)
        # row b of the (B, n) jet is the jet at u alone
        for got, want in zip((stacked.point, stacked.jac, stacked.hess),
                             (j.point, j.jac, j.hess)):
            assert got[b].shape == want.shape
            np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_dimensions_consistent(spec):
    u = np.full(spec.intrinsic_dim, 0.8)
    j = im.jet2(spec, u)
    assert j.point.shape == (spec.ambient_dim,)
    assert j.jac.shape == (spec.ambient_dim, spec.intrinsic_dim)
    assert j.hess.shape == (spec.ambient_dim,) + (spec.intrinsic_dim,) * 2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_containment_radius(spec):
    declared = spec.declared_radius
    sampled = containment_radius(spec, n_samples=500)
    assert sampled <= declared + 1e-9
    # spheres, tori and the tube boundary circle actually attain the radius
    assert sampled >= 0.5 * declared


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_sample_params_draw_order(spec):
    # one (n_samples, n) uniform draw, then one draw per polar column in
    # increasing column order; a single (n_samples, k) draw for the k polar
    # columns gives other basepoints and so moves every sampled curvature
    rng = np.random.default_rng(11)
    ref = rng.uniform(0.0, 2.0 * math.pi, size=(5, spec.intrinsic_dim))
    for c in POLAR_COLUMNS[spec_id(spec)]:
        ref[:, c] = rng.uniform(0.4, math.pi - 0.4, size=5)
    got = im.sample_params(spec, 5, np.random.default_rng(11))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("spec", [
    im.round_sphere(3, 2.0), im.veronese(3), im.tube_encircle(1.0, 2, 2, 0.4),
], ids=spec_id)
def test_jet_is_finite_at_chart_poles(spec):
    # u = 0 puts every polar angle on a pole, where sin vanishes
    with np.errstate(all="raise"):
        j = im.jet2(spec, np.zeros(spec.intrinsic_dim))
        near = im.jet2(spec, np.full(spec.intrinsic_dim, 1e-9))
    for a, b in ((j.point, near.point), (j.jac, near.jac), (j.hess, near.hess)):
        assert np.all(np.isfinite(a))
        assert np.allclose(a, b, atol=1e-7)


def _sphere_chart_jet_loop(u, R):
    # per-coordinate product-rule loop: the reference for the factor-matrix form
    m = len(u)
    s, c = np.sin(u), np.cos(u)
    point, jac, hess = np.empty(m + 1), np.zeros((m + 1, m)), np.zeros((m + 1, m, m))
    for i in range(m + 1):
        idx = list(range(i)) + ([i] if i < m else [])
        val = np.array([s[j] for j in range(i)] + ([c[i]] if i < m else []))
        dva = np.array([c[j] for j in range(i)] + ([-s[i]] if i < m else []))
        point[i] = R * np.prod(val)
        for a, ja in enumerate(idx):
            va = val.copy()
            va[a] = dva[a]
            jac[i, ja] = R * np.prod(va)
            vaa = val.copy()
            vaa[a] = -val[a]
            hess[i, ja, ja] = R * np.prod(vaa)
            for b in range(a + 1, len(idx)):
                vab = val.copy()
                vab[a], vab[b] = dva[a], dva[b]
                hess[i, ja, idx[b]] = hess[i, idx[b], ja] = R * np.prod(vab)
    return point, jac, hess


def _torus_jet_loop(u, L, scale, w):
    # per-factor loop: the reference for the stacked-array form
    M, n = L.shape
    g = math.sqrt(M) * scale * L
    theta, amp = g @ u, np.sqrt(w)
    point, jac, hess = np.empty(2 * M), np.empty((2 * M, n)), np.empty((2 * M, n, n))
    for i in range(M):
        cs, sn, gg = math.cos(theta[i]), math.sin(theta[i]), np.outer(g[i], g[i])
        point[2 * i], point[2 * i + 1] = amp[i] * cs, amp[i] * sn
        jac[2 * i], jac[2 * i + 1] = -amp[i] * sn * g[i], amp[i] * cs * g[i]
        hess[2 * i], hess[2 * i + 1] = -amp[i] * cs * gg, -amp[i] * sn * gg
    return point, jac, hess


def test_chart_and_torus_jets_match_loop_references():
    # same arithmetic up to the order of a product's factors: a few ulps
    rng = np.random.default_rng(3)
    for m in range(1, 7):
        for u in [np.zeros(m), np.full(m, math.pi / 2), *rng.uniform(-7, 7, (20, m))]:
            for got, ref in zip(im._sphere_chart_jet(u, 1.5), _sphere_chart_jet_loop(u, 1.5)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=6 * 1.5 * np.finfo(float).eps)
    L = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    w = np.array([0.2, 0.3, 0.5])
    for u in rng.uniform(-7, 7, (20, 2)):
        for got, ref in zip(im._torus_jet(u, L, 0.7, w), _torus_jet_loop(u, L, 0.7, w)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=8 * np.finfo(float).eps)


def _veronese_jet_product_rule(u, m):
    # the contractions written out: the reference for the chain-rule form
    x, Jx, Hx = im._sphere_chart_jet(u, 1.0)
    basis, alpha = im._veronese_basis(m), math.sqrt((m + 1) / m)
    point = alpha * np.einsum("kab,...a,...b->...k", basis, x, x)
    Bx = np.einsum("kab,...b->...ka", basis, x)
    jac = 2.0 * alpha * Bx @ Jx
    hess = 2.0 * alpha * (np.einsum("...ka,...aij->...kij", Bx, Hx)
                          + np.einsum("kab,...ai,...bj->...kij", basis, Jx, Jx))
    return point, jac, hess


def _tube_jet_product_rule(u, r, n1, n2, rho):
    # the product rule written out block by block: the reference for the chain-rule form
    s, Js, Hs = im._sphere_chart_jet(u[..., :n1], r)
    w, Jw, Hw = im._sphere_chart_jet(u[..., n1:], 1.0)
    k = n2 - 1
    others = [i for i in range(n2 + 1) if i != k]
    a = 1.0 + (rho / r) * w[..., k, None]
    da = (rho / r) * Jw[..., None, k, :]
    dda = (rho / r) * Hw[..., None, k, :, :]
    point = np.concatenate([a * s, rho * w[..., others]], axis=-1)
    N, n = n1 + 1 + n2, n1 + n2
    jac, hess = np.zeros(a.shape[:-1] + (N, n)), np.zeros(a.shape[:-1] + (N, n, n))
    jac[..., : n1 + 1, :n1] = a[..., None] * Js
    jac[..., : n1 + 1, n1:] = s[..., None] * da
    jac[..., n1 + 1 :, n1:] = rho * Jw[..., others, :]
    hess[..., : n1 + 1, :n1, :n1] = a[..., None, None] * Hs
    cross = Js[..., None] * da[..., None, :]
    hess[..., : n1 + 1, :n1, n1:] = cross
    hess[..., : n1 + 1, n1:, :n1] = np.swapaxes(cross, -1, -2)
    hess[..., : n1 + 1, n1:, n1:] = s[..., None, None] * dda
    hess[..., n1 + 1 :, n1:, n1:] = rho * Hw[..., others, :, :]
    return point, jac, hess


def test_veronese_and_tube_jets_match_product_rule_references():
    # the same map differentiated two ways: within a few ulps of each basepoint's
    # largest entry, at the chart poles and at random points
    rng = np.random.default_rng(5)
    cases = [(im.veronese(m), lambda u, m=m: _veronese_jet_product_rule(u, m))
             for m in range(1, 7)]
    cases += [(im.tube_encircle(r, n1, n2, rho),
               lambda u, a=(r, n1, n2, rho): _tube_jet_product_rule(u, *a))
              for n1 in (1, 2, 3) for n2 in (1, 2, 3)
              for r, rho in ((1.0, 0.3), (2.5, 2.0), (0.01, 0.004))]
    for spec, reference in cases:
        n = spec.intrinsic_dim
        us = np.vstack([np.zeros(n), np.full(n, math.pi / 2), rng.uniform(-7, 7, (20, n))])
        j = im.jet2(spec, us)
        for got, want in zip((j.point, j.jac, j.hess), reference(us)):
            assert got.shape == want.shape
            scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)), keepdims=True)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_sphere_points_have_declared_norm():
    spec = im.round_sphere(3, 2.0)
    rng = np.random.default_rng(0)
    for u in im.sample_params(spec, 10, rng):
        assert math.isclose(np.linalg.norm(im.jet2(spec, u).point), 2.0, rel_tol=1e-12)


def test_clifford_lies_on_unit_sphere_of_small_circles():
    spec = im.clifford_torus(3)
    p = im.jet2(spec, np.array([0.3, 1.1, 2.0])).point
    assert math.isclose(np.linalg.norm(p), 1.0, rel_tol=1e-12)
    pairs = p.reshape(3, 2)
    assert np.allclose(np.linalg.norm(pairs, axis=1), 1.0 / math.sqrt(3))


def test_torus_linear_validates_rows_and_weights():
    with pytest.raises(ValueError):
        im.torus_linear([[0.9, 0.1]])  # not unit
    with pytest.raises(ValueError):
        im.torus_linear([[1.0, 0.0], [0.0, 1.0]], weights=[0.9, 0.2])
    with pytest.raises(ValueError):
        im.torus_linear([[1.0, 0.0]], scale=-1.0)
    with pytest.raises(ValueError, match="^torus_linear rows must all have the same length$"):
        im.spec_from_json({"kind": "torus_linear", "rows": [[1, 0], [1]]})


def test_tube_requires_rho_below_base_radius():
    with pytest.raises(ValueError):
        im.tube_encircle(0.5, 1, 1, 0.5)
    with pytest.raises(ValueError):
        im.tube_encircle(1.0, 0, 1, 0.2)


def test_tube_distance_from_base_sphere():
    # every tube point sits at distance rho from the scaled base sphere point
    spec = im.tube_encircle(1.0, 1, 2, 0.3)
    rng = np.random.default_rng(1)
    for u in im.sample_params(spec, 10, rng):
        p = im.jet2(spec, u).point
        base = im.jet2(im.round_sphere(1, 1.0), u[:1]).point
        d = math.sqrt(float(np.sum((p[:2] - base) ** 2) + np.sum(p[2:] ** 2)))
        assert math.isclose(d, 0.3, rel_tol=1e-12)


def test_veronese_is_even():
    # antipodal chart points map to the same quadratic form
    spec = im.veronese(2)
    u = np.array([0.9, 0.4])
    # antipode of (theta, phi) on S^2 is (pi - theta, phi + pi)
    u_anti = np.array([math.pi - u[0], u[1] + math.pi])
    assert np.allclose(im.jet2(spec, u).point, im.jet2(spec, u_anti).point, atol=1e-12)


def test_jet_fd_rejects_chart_boundary():
    spec = im.round_sphere(2, 1.0)
    with pytest.raises(ValueError):
        jet2_fd(spec, np.array([1e-7, 0.3]))


def test_param_dimension_checked():
    with pytest.raises(ValueError):
        im.jet2(im.clifford_torus(2), np.zeros(3))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_spec_json_round_trip(spec):
    again = im.spec_from_json(im.spec_to_json(spec))
    assert again == spec


RADII = (1e-150, 0.7, 2.0, 1e150)


@pytest.mark.parametrize("R", RADII)
def test_round_sphere_is_a_one_factor_sphere_product(R):
    for n in range(1, 7):
        spec = im.round_sphere(n, R)
        assert spec == im.sphere_product([(n, R)])
        assert spec.declared_radius == R
        us = im.sample_params(spec, 5, np.random.default_rng(n))
        j, ref = im.jet2(spec, us), im._sphere_chart_jet(us, R)
        for got, want in zip((j.point, j.jac, j.hess), ref):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_round_sphere_json_kind_builds_the_sphere_product():
    spec = im.spec_from_json({"kind": "round_sphere", "n": 3, "R": "2/3"})
    assert spec == im.round_sphere(3, 2.0 / 3.0)
    assert im.spec_to_json(spec) == {"kind": "sphere_product", "factors": [[3, 2.0 / 3.0]]}
    assert im.spec_from_json(im.spec_to_json(spec)) == spec
    with pytest.raises(ValueError, match="^round sphere needs n >= 1 and R > 0$"):
        im.spec_from_json({"kind": "round_sphere", "n": 0, "R": 1})
    with pytest.raises(ValueError, match="^round_sphere 'R': missing$"):
        im.spec_from_json({"kind": "round_sphere", "n": 2})


def test_sphere_product_radius_neither_overflows_nor_underflows():
    # sqrt(sum R^2) gave inf and 0.0 for these
    assert math.isclose(im.sphere_product([(1, 1e160), (1, 1e160)]).declared_radius,
                        math.sqrt(2.0) * 1e160, rel_tol=1e-15)
    assert math.isclose(im.sphere_product([(1, 1e-170), (2, 1e-170)]).declared_radius,
                        math.sqrt(2.0) * 1e-170, rel_tol=1e-15)


def test_spec_json_accepts_exact_fractions():
    spec = im.spec_from_json(
        {"kind": "torus_linear", "rows": [["3/5", "4/5"], ["1", "0"]]}
    )
    assert spec.rows[0] == (0.6, 0.8)
    tube = im.spec_from_json({"kind": "tube", "r": "2/3", "n1": 1, "n2": 1, "rho": "1/3"})
    assert math.isclose(tube.base_r, 2.0 / 3.0)
    halves = im.spec_from_json({"kind": "torus_linear", "rows": [[1, 0], [0, 1]],
                                "weights": ["1/2", "1/2"]})
    assert halves.weights == (0.5, 0.5)


def test_spec_json_unknown_kind():
    with pytest.raises(ValueError):
        im.spec_from_json({"kind": "mobius"})


def test_spec_json_rejects_a_key_the_kind_does_not_read():
    with pytest.raises(ValueError, match=r"^veronese 'R': unknown key$"):
        im.spec_from_json({"kind": "veronese", "m": 2, "R": 1e308})
    # the first unknown key in the object's order is named, before any field is parsed
    with pytest.raises(ValueError, match=r"^tube 'x': unknown key$"):
        im.spec_from_json({"kind": "tube", "x": 1, "r": None, "y": 2})
