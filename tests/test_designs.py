"""Spherical designs: moment oracles, the exact rational construction, and the
torus bridge.

The isotropic moment constants are validated against an independent
double-factorial oracle for E[x^alpha] over the uniform sphere measure:

    E[prod x_i^(2a_i)] = prod (2a_i - 1)!! / prod_{j=0}^{|a|-1} (n + 2j).
"""

import gc
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from curvlab import designs as dg
from curvlab import immersions as im
from curvlab import curvature as cv


def sphere_moment_oracle(n, alpha):
    """Uniform-measure moment of the monomial x^alpha on S^{n-1}, exact."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = Fraction(1)
    for a in alpha:
        for odd in range(1, a, 2):
            num *= odd
    half = sum(alpha) // 2
    den = Fraction(1)
    for j in range(half):
        den *= n + 2 * j
    return num / den


def by_index(n, moments):
    """A moment array keyed by multi-index: its values are in multi_indices(n) order."""
    return dict(zip(dg.multi_indices(n), moments))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_isotropic_moments_match_oracle(n):
    iso = dg.isotropic_moment_tensor(n, exact=True)
    for alpha, v in by_index(n, iso).items():
        assert v == sphere_moment_oracle(n, alpha), alpha


def test_isotropic_values_small_n():
    assert by_index(1, dg.isotropic_moment_tensor(1, exact=True))[(4,)] == 1
    iso2 = by_index(2, dg.isotropic_moment_tensor(2, exact=True))
    assert iso2[(4, 0)] == Fraction(3, 8)
    iso3 = by_index(3, dg.isotropic_moment_tensor(3, exact=True))
    assert iso3[(4, 0, 0)] == Fraction(1, 5)
    assert iso3[(2, 2, 0)] == Fraction(1, 15)


def test_pentagon_moments():
    mt = by_index(2, dg.quartic_moment_tensor(dg.pentagon_design()))
    assert abs(mt[(4, 0)] - 3.0 / 8.0) < 1e-14
    assert abs(mt[(2, 2)] - 1.0 / 8.0) < 1e-14
    assert abs(mt[(3, 1)]) < 1e-14


def test_pentagon_moments_against_root_of_unity_sums():
    # direct trigonometric oracle
    angs = [2 * math.pi * k / 5 for k in range(5)]
    m40 = sum(math.cos(a) ** 4 for a in angs) / 5
    m22 = sum(math.cos(a) ** 2 * math.sin(a) ** 2 for a in angs) / 5
    mt = by_index(2, dg.quartic_moment_tensor(dg.pentagon_design()))
    assert abs(mt[(4, 0)] - m40) < 1e-14
    assert abs(mt[(2, 2)] - m22) < 1e-14


def cross_design():
    """{+-e1, +-e2}: unit points but NOT a degree-4 design."""
    pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    return dg.Design(n=2, points=pts, weights=np.full(4, 0.25))


def test_cross_is_not_a_design():
    mt = by_index(2, dg.quartic_moment_tensor(cross_design()))
    assert abs(mt[(4, 0)] - 0.5) < 1e-15
    res = dg.is_degree4_design(cross_design())
    assert not res["ok"]
    assert abs(res["residual"] - 1.0 / 8.0) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_design_rejects_nonfinite_points_and_weights(bad):
    unit, half = [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]
    for points in ([[bad, bad], [1.0, 0.0]], [[bad, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, bad]]):
        with pytest.raises(ValueError, match="^design points must be unit vectors within 1e-12$"):
            dg.Design(n=2, points=points, weights=half)
    for weights in ([bad, 0.5], [0.5, bad], [bad, bad]):
        with pytest.raises(ValueError, match="^weights must be nonnegative and sum to 1 within"):
            dg.Design(n=2, points=unit, weights=weights)
    assert dg.Design(n=2, points=unit, weights=half).N == 2


def test_s0_design():
    d = dg.Design(n=1, points=np.array([[1.0], [-1.0]]), weights=np.array([0.5, 0.5]))
    assert by_index(1, dg.quartic_moment_tensor(d))[(4,)] == 1.0
    assert dg.is_degree4_design(d)["ok"]


def test_design_ratio_constant_iff_design():
    rng = np.random.default_rng(2)
    pent = dg.pentagon_design()
    target = (3.0 * 2 / 4) ** 0.25
    vals = []
    for _ in range(100):
        c = rng.standard_normal(2)
        vals.append(dg.design_ratio(pent, c))
    assert max(vals) - min(vals) < 1e-12
    assert abs(vals[0] - target) < 1e-12
    assert abs(dg.design_ratio(cross_design(), [1.0, 1.0]) - target) > 0.05
    with pytest.raises(ValueError):
        dg.design_ratio(pent, [0.0, 0.0])
    # a (K, n) block gives the K one-vector ratios; one zero row raises
    cs = rng.standard_normal((100, 2))
    np.testing.assert_allclose(dg.design_ratio(pent, cs),
                               [dg.design_ratio(pent, c) for c in cs], rtol=1e-14)
    with pytest.raises(ValueError):
        dg.design_ratio(pent, np.vstack([cs[:3], [0.0, 0.0]]))


def test_rotation_invariance():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    pent = dg.pentagon_design()
    rotated = dg.Design(n=2, points=pent.points @ q.T, weights=pent.weights)
    assert dg.is_degree4_design(rotated, tol=1e-10)["ok"]


# ---------------------------------------------------------------------------
# one monomial kernel: the per-multi-index loops it replaced, kept as references

def loop_float_moments(d):
    return np.array([float(d.weights @ np.prod(d.points ** np.asarray(a, dtype=float), axis=1))
                     for a in dg.multi_indices(d.n)])


def loop_residual(pts, iso_vec):
    return np.array([np.mean(np.prod(pts ** np.asarray(a, dtype=float), axis=1))
                     for a in dg.multi_indices(pts.shape[1])]) - iso_vec


def loop_monomial(s, alpha):
    term = Fraction(1)
    for x, a in zip(s, alpha):
        if a:
            term *= x**a
    return term


def loop_exact_moments(rd):
    return [sum((P * loop_monomial(p, a) for p, P in zip(rd.points, rd.multiplicities)),
                Fraction(0)) / Fraction(rd.N)
            for a in dg.multi_indices(rd.n)]


def loop_hilbert_matrix(pts, n):
    return [[loop_monomial(s, a) for s in pts] for a in dg.multi_indices(n)] + [[1] * len(pts)]


def random_unit_designs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, N = int(rng.integers(1, 7)), int(rng.integers(2, 120))
        pts = rng.standard_normal((N, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = rng.random(N)
        yield dg.Design(n=n, points=pts, weights=w / w.sum())


def test_kernel_float_moments_and_residual_are_bit_identical_to_loops():
    designs = list(random_unit_designs(200, seed=11))
    designs += [dg.pentagon_design()] + [dg.hilbert_rational_design(n).to_float()
                                         for n in (2, 3)]
    for d in designs:
        assert np.array_equal(dg.quartic_moment_tensor(d), loop_float_moments(d))
        iso = dg.isotropic_moment_tensor(d.n)
        assert np.array_equal(dg._moment_residual(d.points, dg._exponents(d.n), iso),
                              loop_residual(d.points, iso))


def test_kernel_exact_moments_equal_loops():
    rng = np.random.default_rng(12)
    designs = [dg.hilbert_rational_design(n) for n in (1, 2, 3)]
    for n, h in [(2, 2), (3, 1), (4, 1)]:
        pts = dg.rational_sphere_points(n, h)
        mult = tuple(int(m) for m in rng.integers(1, 6, len(pts)))
        designs.append(dg.RationalDesign(n=n, points=tuple(pts), multiplicities=mult))
    for rd in designs:
        values = dg.quartic_moment_tensor(rd)
        assert list(values) == loop_exact_moments(rd)
        assert all(isinstance(v, Fraction) for v in values)


def direct_monomials(P, E):
    """The one-expression kernel that the gathered powers replaced, kept as the reference."""
    return np.prod(P[None] ** E.astype(P.dtype)[:, None, :], axis=-1)


def lowered_exponents(E):
    """The Jacobian's exponents alpha_k - e_j, clipped at 0, as _moment_jacobian builds them."""
    K, n = E.shape
    return np.maximum(E[:, None, :] - np.eye(n, dtype=E.dtype), 0).reshape(K * n, n)


def test_monomial_kernel_is_bit_identical_to_the_direct_product():
    rng = np.random.default_rng(26)
    for t in range(600):
        n, N = 1 + t % 7, int(rng.integers(1, 150))
        P = rng.standard_normal((N, n)) * 10.0 ** int(rng.integers(-3, 4))
        if t % 2:
            P /= np.linalg.norm(P, axis=1, keepdims=True)
        if t % 5 == 0:  # exact zeros of both signs
            P[rng.random(P.shape) < 0.2] = 0.0
            P[rng.random(P.shape) < 0.1] = -0.0
        E = dg._exponents(n)
        for F in (E, lowered_exponents(E)):
            got, want = dg._quartic_monomials(P, F), direct_monomials(P, F)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    for n, h in [(1, 1), (2, 4), (3, 2), (4, 1), (5, 1)]:
        num = np.array([s for s, _ in dg._sphere_numerators(n, h)], dtype=object)
        E = dg._exponents(n)
        for F in (E, lowered_exponents(E)):
            got = dg._quartic_monomials(num, F)
            assert got.tolist() == direct_monomials(num, F).tolist()
            assert all(type(x) is int for x in got.ravel())


def point_denominator4(s):
    """D^4 for the least common denominator D of a rational point's coordinates."""
    return math.lcm(*(x.denominator for x in s)) ** 4


def capture_hilbert_systems(monkeypatch, runs):
    """(n, points, A, b) of every exact_lp_feasible call that hilbert_rational_design
    makes for each (n, height_max) in runs, with the rational sphere points of that height."""
    calls = []
    real = dg.exact_lp_feasible
    monkeypatch.setattr(dg, "exact_lp_feasible",
                        lambda A, b: calls.append((A, b)) or real(A, b))
    systems = []
    for n, height_max in runs:
        start = len(calls)
        dg.hilbert_rational_design(n, height_max=height_max)
        systems += [(n, dg.rational_sphere_points(n, 2**k)[::2], A, b)
                    for k, (A, b) in enumerate(calls[start:])]
    return real, systems


@pytest.mark.parametrize("n", [2, 3])
def test_hilbert_lp_matrix_equals_loop_columns(n, monkeypatch):
    # column j is the rational column of point s_j times D_j^4: Python ints
    _, systems = capture_hilbert_systems(monkeypatch, [(n, 8)])
    b_ref = [sphere_moment_oracle(n, a) for a in dg.multi_indices(n)] + [Fraction(1)]
    for _, pts, A, b in systems:
        loop = loop_hilbert_matrix(pts, n)
        assert A.shape == (len(loop), len(pts))
        for j, s in enumerate(pts):
            column = A[:, j].tolist()
            assert all(type(x) is int for x in column)
            assert column == [row[j] * point_denominator4(s) for row in loop]
        assert list(b) == b_ref


def test_hilbert_scaled_vertex_equals_fraction_reference(monkeypatch):
    # Bland's pivots on the integer columns reach the vertex the Fraction simplex
    # reaches on the rational columns, once p'_j is scaled back by D_j^4
    real, systems = capture_hilbert_systems(monkeypatch, [(1, 8), (2, 8), (3, 8), (4, 1)])
    vertices = [real(A, b) for _, _, A, b in systems]
    assert [p is not None for p in vertices] == [True, False, True, False, True, True]
    for (n, pts, _, b), p in zip(systems, vertices):
        scaled_back = None if p is None else [w * point_denominator4(s) for w, s in zip(p, pts)]
        assert scaled_back == fraction_bland_simplex(loop_hilbert_matrix(pts, n), b)


def test_hilbert_lp_columns_are_distinct(monkeypatch):
    # a point and its antipode share their quartic column: _sphere_numerators keeps
    # one of each pair, so every system the LP gets has pairwise distinct columns
    _, systems = capture_hilbert_systems(monkeypatch, [(1, 8), (2, 8), (3, 8), (4, 1)])
    assert len(systems) == 6
    for *_, A, _ in systems:
        columns = [tuple(c) for c in A.T.tolist()]
        assert len(set(columns)) == len(columns)
    for n, h in [(1, 8), (2, 8), (3, 8), (4, 1)]:
        points = dg._sphere_numerators(n, h)
        assert not {(tuple(-x for x in s), D) for s, D in points} & set(points)


def b8_orbit_design(first_multiplicity=5):
    """{+-e_i} with multiplicity 5 and the (+-1/2)^4 orbit with multiplicity 1 on S^7:
    an exact 4-design of 1136 points, Q = 1200 (Hilbert's identity route)."""
    pts = []
    for i in range(8):
        for sign in (1, -1):
            pts.append(tuple(Fraction(sign if k == i else 0) for k in range(8)))
    for support in itertools.combinations(range(8), 4):
        for signs in itertools.product((1, -1), repeat=4):
            coords = dict(zip(support, signs))
            pts.append(tuple(Fraction(coords.get(k, 0), 2) for k in range(8)))
    mult = [first_multiplicity] + [5] * 15 + [1] * 1120
    return dg.RationalDesign(n=8, points=tuple(pts), multiplicities=tuple(mult))


def test_b8_orbit_design_verifies_exactly_and_fast():
    d = b8_orbit_design()
    assert (d.N, len(d.points)) == (1200, 1136)
    start = time.perf_counter()
    res = dg.is_degree4_design(d)
    assert time.perf_counter() - start < 1.0
    assert res["ok"] and res["residual"] == 0 and isinstance(res["residual"], Fraction)
    res = dg.is_degree4_design(b8_orbit_design(first_multiplicity=4))
    assert not res["ok"] and res["residual"] > 0 and isinstance(res["residual"], Fraction)


def test_exact_moments_retain_no_objects():
    # An object-dtype np.vecdot kept about one Python int per call alive (100+ blocks
    # over 200 calls); the @ product keeps none.  A block or two may show anyway: a
    # tuple freed to CPython's free list stays a traced block of its first caller.
    rd = dg.hilbert_rational_design(3)
    tracemalloc.start(5)
    try:
        for _ in range(200):  # first calls fill numpy's one-time caches
            dg.quartic_moment_tensor(rd)
        gc.collect()
        before = tracemalloc.take_snapshot()
        for _ in range(200):
            dg.quartic_moment_tensor(rd)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, dg.__file__, all_frames=True)]
    grown = after.filter_traces(only).compare_to(before.filter_traces(only), "traceback")
    assert sum(stat.count_diff for stat in grown) <= 2, [
        (stat.count_diff, stat.traceback.format()) for stat in grown if stat.count_diff]


# ---------------------------------------------------------------------------
# rational machinery

def test_rational_sphere_points_exactly_unit():
    for n, h in [(2, 1), (2, 2), (3, 2)]:
        pts = dg.rational_sphere_points(n, h)
        for p in pts:
            assert sum(x * x for x in p) == 1


def test_rational_sphere_points_membership():
    pts1 = set(dg.rational_sphere_points(2, 1))
    for expect in [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                   (Fraction(0), Fraction(-1))]:
        assert expect in pts1
    pts2 = set(dg.rational_sphere_points(2, 2))
    assert (Fraction(4, 5), Fraction(-3, 5)) in pts2


def test_rational_sphere_points_height_monotone():
    a = set(dg.rational_sphere_points(2, 1))
    b = set(dg.rational_sphere_points(2, 2))
    assert a <= b


def loop_rational_sphere_points(n, height):
    """The Fraction loop that the integer points replaced, kept as the reference."""
    if n == 1:
        return [(Fraction(1),), (Fraction(-1),)]
    vals = sorted({Fraction(p, q) for q in range(1, height + 1)
                   for p in range(-height, height + 1)})
    seen, out = set(), []
    for a in itertools.product(vals, repeat=n - 1):
        na = sum(x * x for x in a)
        x = tuple(2 * ai / (1 + na) for ai in a) + ((1 - na) / (1 + na),)
        for pt in (x, tuple(-xi for xi in x)):
            if pt not in seen:
                seen.add(pt)
                out.append(pt)
    return out


@pytest.mark.parametrize("n, height", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 8), (3, 1),
                                       (3, 2), (3, 4), (4, 1), (4, 2), (5, 1), (5, 2)])
def test_rational_sphere_points_equal_the_fraction_loop(n, height):
    pts = dg.rational_sphere_points(n, height)
    assert pts == loop_rational_sphere_points(n, height)  # same points, same order
    # the integer pairs are the points' numerators over the lcm of their denominators
    num, D = dg._integer_points(pts)
    assert dg._sphere_numerators(n, height) == list(zip(map(tuple, num.tolist()), D.tolist()))[::2]


def test_rational_sphere_points_domain():
    for n, height in [(0, 1), (2, 0), (-1, -1)]:
        with pytest.raises(ValueError, match="n >= 1 and height >= 1 required"):
            dg.rational_sphere_points(n, height)


def test_exact_lp_trivial_cases():
    assert dg.exact_lp_feasible([[1]], [1]) == [Fraction(1)]
    # b = 1/3 on the segment [0, 1]: barycentric weights 2/3, 1/3
    p = dg.exact_lp_feasible([[0, 1], [1, 1]], [Fraction(1, 3), 1])
    assert p is not None and sum(p) == 1 and p[1] == Fraction(1, 3)
    assert dg.exact_lp_feasible([[1, 2]], [-1]) is None  # cone misses b


def test_exact_lp_solution_is_exact():
    rng = np.random.default_rng(0)
    A = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
          for _ in range(8)] for _ in range(3)]
    # b inside the cone: a known nonnegative combination
    w = [Fraction(int(rng.integers(0, 3))) for _ in range(8)]
    b = [sum(A[i][j] * w[j] for j in range(8)) for i in range(3)]
    p = dg.exact_lp_feasible(A, b)
    assert p is not None
    for i in range(3):
        assert sum(A[i][j] * p[j] for j in range(8)) == b[i]
    assert all(x >= 0 for x in p)


def fraction_bland_simplex(A, b):
    """The phase-1 Bland simplex in Fraction arithmetic that the integer
    tableau replaced, kept as the reference for its pivots."""
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    m, k = len(A), len(A[0]) if A else 0
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    ncols = k + m
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            cost[j] += T[i][j]
    for j in range(k, ncols):
        cost[j] -= 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter
    if cost[ncols] != 0:
        return None
    p = [Fraction(0)] * k
    for i, bi in enumerate(basis):
        if bi < k:
            p[bi] = T[i][ncols]
    return p


def random_lp_systems(count, seed):
    """Small systems A p = b: b in the cone of A (often on a face, so ratio
    ties and degenerate pivots), random b of either sign, and repeated
    columns, which tie every ratio of the copies."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        m, k = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        A = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(k)]
             for _ in range(m)]
        if t % 3 == 0:
            dup = rng.integers(0, k, size=int(rng.integers(1, 4)))
            A = [row + [row[j] for j in dup] for row in A]
        if t % 2 == 0:
            x = [Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
                 if rng.random() < 0.5 else Fraction(0) for _ in range(len(A[0]))]
            b = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A]
        else:
            b = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(m)]
        yield A, b


def test_exact_lp_matches_fraction_reference(monkeypatch):
    systems = list(random_lp_systems(200, seed=7))
    outcomes = [dg.exact_lp_feasible(A, b) for A, b in systems]
    assert outcomes == [fraction_bland_simplex(A, b) for A, b in systems]
    feasible = sum(p is not None for p in outcomes)
    assert min(feasible, len(outcomes) - feasible) >= 30  # both outcomes are exercised
    # a ratio tie that decides the vertex: the smaller basis index leaves
    A, b = [[-1, 0, -1, 1], [-1, -1, 2, 1], [1, 2, 2, 0]], [0, 2, 2]
    vertex = [Fraction(2, 3), Fraction(0), Fraction(2, 3), Fraction(4, 3)]
    assert dg.exact_lp_feasible(A, b) == fraction_bland_simplex(A, b) == vertex
    calls = []
    real = dg.exact_lp_feasible
    monkeypatch.setattr(dg, "exact_lp_feasible",
                        lambda A, b: calls.append((A, b)) or real(A, b))
    for n in (1, 2, 3):
        dg.hilbert_rational_design(n)
    dg.hilbert_rational_design(4, height_max=1)
    assert [A.shape for A, _ in calls] == [(2, 1), (6, 2), (6, 4), (16, 7), (16, 39), (36, 24)]
    for A, b in calls:
        assert real(A, b) == fraction_bland_simplex(A, b)


def test_exact_lp_with_shuffled_duplicate_columns_matches_fraction_reference():
    # copies of random columns at random places: Bland's rule never enters a later
    # copy, so the later ones get p = 0, at the vertex of the Fraction simplex
    rng = np.random.default_rng(26)
    copies = 0
    for scale in (1, 2**40):  # 2^40 also crosses into Python ints mid-run
        for A, b in random_lp_systems(200, seed=26):
            k = len(A[0])
            picks = rng.permutation(np.concatenate(
                [np.arange(k), rng.integers(0, k, size=int(rng.integers(1, k + 2)))]))
            A2 = [[scale * row[j] for j in picks] for row in A]
            b2 = [scale * x for x in b]
            p = dg.exact_lp_feasible(A2, b2)
            assert p == fraction_bland_simplex(A2, b2)
            if p is not None:
                later = [j for j in range(len(picks)) if picks[j] in picks[:j]]
                assert all(p[j] == 0 for j in later)
                copies += len(later)
    assert copies > 200


@pytest.mark.parametrize("scale", [2**40, 2**70], ids=["2^40", "2^70"])
def test_exact_lp_stays_exact_past_int64(scale):
    # rows times 2^40 fit int64 until a pivot's products overflow it; times 2^70
    # they do not fit from the start.  A positive row scale leaves the vertex.
    for A, b in random_lp_systems(200, seed=7):
        A2, b2 = [[scale * x for x in row] for row in A], [scale * x for x in b]
        assert dg.exact_lp_feasible(A2, b2) == fraction_bland_simplex(A2, b2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hilbert_rational_design(n):
    rd = dg.hilbert_rational_design(n)
    res = dg.is_degree4_design(rd)
    assert res["ok"] and res["residual"] == 0
    assert all(P >= 1 for P in rd.multiplicities)
    assert sum(rd.multiplicities) == rd.N


def test_hilbert_height_exhausted():
    with pytest.raises(dg.HeightExhausted) as exc:
        dg.hilbert_rational_design(3, height_max=1)
    assert exc.value.residual is not None


@pytest.mark.parametrize("height_max", [8, 15])
def test_hilbert_relaxed_residual_is_computed_at_the_last_height_only(height_max, monkeypatch):
    # every height is infeasible; the one least-squares diagnostic reads the last
    # height tried, the largest power of two <= height_max: 8 for both
    n, heights, lstsq_calls = 2, [], []
    real_lstsq = np.linalg.lstsq
    monkeypatch.setattr(dg, "exact_lp_feasible", lambda A, b: heights.append(A.shape[1]))
    monkeypatch.setattr(dg.np.linalg, "lstsq",
                        lambda *a, **k: lstsq_calls.append(a) or real_lstsq(*a, **k))
    with pytest.raises(dg.HeightExhausted) as exc:
        dg.hilbert_rational_design(n, height_max=height_max)
    assert heights == [len(dg.rational_sphere_points(n, 2**k)) // 2 for k in range(4)]
    assert len(lstsq_calls) == 1
    # reference: the relaxation over the height-8 points, monomials taken in Fractions
    pts = dg.rational_sphere_points(n, 8)[::2]
    A = [[float(math.prod(x**a for x, a in zip(s, alpha))) for s in pts]
         for alpha in dg.multi_indices(n)] + [[1.0] * len(pts)]
    A, b = np.array(A), np.append(dg.isotropic_moment_tensor(n), 1.0)
    sol = real_lstsq(A, b, rcond=None)[0]
    assert exc.value.residual == float(np.max(np.abs(A @ np.clip(sol, 0, None) - b)))


def test_degree2_consequence():
    # trace contraction: sum w_i s_i s_i^T = I/n for every accepted design
    for d in [dg.pentagon_design(), dg.hilbert_rational_design(2).to_float()]:
        gram = np.einsum("i,ia,ib->ab", d.weights, d.points, d.points)
        assert np.allclose(gram, np.eye(d.n) / d.n, atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer

def test_optimize_design_five_points_on_circle():
    res = dg.optimize_design(2, 5, seed=1, iters=20)
    assert res["status"] == "OK"
    assert res["residual"] < 1e-12


def test_optimize_design_four_points_on_circle():
    # Four points at 0, 45, 90, 135 degrees match every quartic moment
    # (squaring the angles gives the fourth roots of unity), so the
    # quartic system is solvable with N=4 even though a through-degree-4
    # design needs five points.
    res = dg.optimize_design(2, 4, seed=1, iters=12)
    assert res["status"] == "OK"
    assert res["residual"] < 1e-10


def test_three_points_at_sixty_degrees_solve_quartic_system():
    ang = np.array([0.0, np.pi / 3, 2 * np.pi / 3])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    d = dg.Design(n=2, points=pts, weights=np.full(3, 1 / 3))
    assert dg.is_degree4_design(d, tol=1e-14)["ok"]


def test_optimize_design_three_points_solve_circle_case():
    res = dg.optimize_design(2, 3, seed=1, iters=12)
    assert res["status"] == "OK"


def test_optimize_design_eleven_points_on_sphere():
    res = dg.optimize_design(3, 11, seed=0, iters=10)
    assert res["status"] == "OK"
    assert res["residual"] < 1e-10


def test_optimize_design_four_points_on_sphere_cannot_converge():
    # On S^2 the quartic system needs more than four points; the residual
    # stays bounded away from zero across restarts.
    res = dg.optimize_design(3, 4, seed=1, iters=8)
    assert res["status"] == "NON_CONVERGED"
    assert res["residual"] > 1e-3


def central_difference_jacobian(v, E, h=1e-5):
    """Central differences of the moment residual of v_i/|v_i| in the raw (N, n) v."""
    N, n = v.shape
    iso = dg.isotropic_moment_tensor(n)

    def residual(x):
        pts = x.reshape(N, n)
        return dg._moment_residual(pts / np.linalg.norm(pts, axis=1, keepdims=True), E, iso)

    x = v.ravel()
    cols = []
    for m in range(x.size):
        step = np.zeros_like(x)
        step[m] = h * np.linalg.norm(v[m // n])  # relative to the point's own norm
        cols.append((residual(x + step) - residual(x - step)) / (2 * step[m]))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", range(1, 7))
def test_moment_jacobian_matches_central_differences(n):
    rng = np.random.default_rng(100 + n)
    E = dg._exponents(n)
    # mixed norms: the residual is scale-free per point, its Jacobian scales as 1/|v_i|
    v = rng.standard_normal((9, n)) * np.exp(rng.uniform(-3, 3, (9, 1)))
    J = dg._moment_jacobian(v, E)
    assert J.shape == (len(E), v.size)
    col_scale = np.repeat(np.linalg.norm(v, axis=1), n)
    assert np.max(np.abs(J - central_difference_jacobian(v, E)) * col_scale) < 1e-9
    # points with exact zero coordinates: no division by a coordinate, nothing raises
    axes = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((3, n))])
    with np.errstate(all="raise"):
        J = dg._moment_jacobian(axes, E)
    assert np.all(np.isfinite(J))
    assert np.max(np.abs(J - central_difference_jacobian(axes, E))) < 1e-9


class CountingRng:
    """default_rng stand-in that counts optimize_design's restart draws."""

    def __init__(self, seed, made):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.draws = 0
        made.append(self)

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self.rng.standard_normal(*args, **kwargs)


def test_optimize_design_passes_a_callable_jacobian(monkeypatch):
    # the solver's Jacobian is the analytic _moment_jacobian, at every accepted point
    real, seen = dg._moment_jacobian, []

    def spy(v, E):
        seen.append(v.shape)
        return real(v, E)

    monkeypatch.setattr(dg, "_moment_jacobian", spy)
    assert dg.optimize_design(3, 11, seed=0)["status"] == "OK"
    assert seen and all(shape == (11, 3) for shape in seen)


@pytest.mark.parametrize("seed", range(10))
def test_optimize_design_stops_at_first_converged_restart(seed, monkeypatch):
    made = []
    monkeypatch.setattr(dg.np.random, "default_rng", lambda s: CountingRng(s, made))
    for n, N in ((3, 11), (4, 23), (5, 40)):
        res = dg.optimize_design(n, N, seed=seed)
        assert made[-1].draws == 1
        assert res["status"] == "OK"
        assert res["residual"] < 1e-12


def test_levenberg_marquardt_step_solves_the_augmented_system(monkeypatch):
    # on a linear residual r(x) = A x - b one accepted step is the damped
    # Gauss-Newton step -(A^T A + lam I)^-1 A^T r with lam = 1e-3
    rng = np.random.default_rng(3)
    A, b, x0 = rng.standard_normal((6, 4)), rng.standard_normal(6), rng.standard_normal(4)
    with monkeypatch.context() as m:
        m.setattr(dg, "_LM_STEPS", 1)
        x1, r1 = dg._levenberg_marquardt(lambda x: A @ x - b, lambda x: A, x0)
    want = x0 - np.linalg.solve(A.T @ A + 1e-3 * np.eye(4), A.T @ (A @ x0 - b))
    assert np.allclose(x1, want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(r1, A @ x1 - b)
    # run to the end on a consistent system, it lands on the solution
    x_true = rng.standard_normal(4)
    x, r = dg._levenberg_marquardt(lambda x: A @ x - A @ x_true, lambda x: A, x0)
    assert np.allclose(x, x_true, rtol=0, atol=1e-12)
    assert np.max(np.abs(r)) < 1e-14


@pytest.mark.parametrize("n, N", [(3, 11), (4, 23), (5, 40), (3, 4), (4, 6)])
def test_damped_step_has_small_backward_error(n, N):
    # wide J (K <= nN) at the converging shapes, tall J at the too-small ones; the
    # wide Gram matrix J J^T is singular along |s|^4 = 1, where the moment residual
    # is zero up to rounding.  Forward agreement with lstsq is not asked: on a tall
    # J at tiny lam the system itself is ill-conditioned.
    rng = np.random.default_rng(40 + n)
    E = dg._exponents(n)
    v = rng.standard_normal((N, n))
    J = dg._moment_jacobian(v, E)
    assert (J.shape[0] <= J.shape[1]) == (N > 6)
    s = v / np.linalg.norm(v, axis=1, keepdims=True)
    r = dg._moment_residual(s, E, dg.isotropic_moment_tensor(n))
    g = J.T @ r
    steps = dg._damped_steps(J, r)
    for lam in 10.0 ** np.arange(-12, 4):
        d = steps(lam)
        assert np.linalg.norm(J.T @ (J @ d) + lam * d + g) <= 1e-12 * np.linalg.norm(g)


def test_levenberg_marquardt_factors_once_per_point(monkeypatch):
    # one eigh per Jacobian, and one Jacobian per point a step starts from: the
    # start and each accepted step's point.  A rejected step reuses the factorization.
    real_eigh, real_lm, log, runs = np.linalg.eigh, dg._levenberg_marquardt, [], []
    monkeypatch.setattr(dg.np.linalg, "eigh", lambda a: log.append("eigh") or real_eigh(a))

    def counting_lm(residual, jacobian, x):
        costs = []

        def counted_residual(x):
            r = residual(x)
            costs.append(r @ r)
            return r

        log.clear()
        out = real_lm(counted_residual, lambda x: log.append("jacobian") or jacobian(x), x)
        factored = log.count("jacobian")
        assert log == ["jacobian", "eigh"] * factored
        accepted = sum(c < min(costs[:i]) for i, c in enumerate(costs) if i)
        runs.append((factored, accepted, len(costs) - 1))
        return out

    monkeypatch.setattr(dg, "_levenberg_marquardt", counting_lm)
    for n, N, seed in ((3, 11, 0), (4, 23, 0xC0FFEE), (3, 4, 1)):
        dg.optimize_design(n, N, seed=seed, iters=2)
    assert len(runs) == 4  # (3, 4) does not converge: both restarts run
    for factored, accepted, steps in runs:
        assert accepted <= factored <= accepted + 1
    # at (3, 4) a third of the steps are rejected
    assert all(steps > factored + 10 for factored, _, steps in runs[2:])


def test_optimize_design_needs_enough_points():
    with pytest.raises(ValueError):
        dg.optimize_design(3, 3)


def test_optimize_design_needs_a_restart():
    with pytest.raises(ValueError):
        dg.optimize_design(2, 5, iters=0)


# ---------------------------------------------------------------------------
# torus bridge

def test_torus_from_pentagon_measures_design_curvature():
    spec = dg.torus_immersion_from_design(dg.pentagon_design())
    rng = np.random.default_rng(9)
    for u in im.sample_params(spec, 5, rng):
        fd = cv.fundamental_data(im.jet2(spec, u))
        assert np.allclose(fd.g, np.eye(2), atol=1e-12)
        assert abs(cv.normal_curvature_at(fd) - math.sqrt(1.5)) < 1e-9


def test_torus_rejects_non_design():
    with pytest.raises(ValueError):
        dg.torus_immersion_from_design(cross_design())


# ---------------------------------------------------------------------------
# serialization

def test_design_json_round_trip_rational():
    rd = dg.hilbert_rational_design(2)
    again = dg.design_from_json(json.dumps(dg.design_to_json(rd)))
    assert isinstance(again, dg.RationalDesign)
    assert again == rd


def test_design_json_round_trip_float():
    d = dg.pentagon_design()
    again = dg.design_from_json(dg.design_to_json(d))
    assert np.allclose(again.points, d.points)
    assert np.allclose(again.weights, d.weights)


def test_design_json_uniform_default():
    d = dg.design_from_json({"n": 2, "points": [[1.0, 0.0], [0.0, 1.0]]})
    assert np.allclose(d.weights, 0.5)


def test_design_json_rejects_a_key_it_does_not_read():
    with pytest.raises(ValueError, match=r"^design 'wieghts': unknown key$"):
        dg.design_from_json({"n": 2, "points": [[1.0, 0.0], [0.0, 1.0]], "wieghts": [0.9, 0.1]})
    # an exact design reads multiplicities, not weights
    with pytest.raises(ValueError, match=r"^design 'weights': unknown key$"):
        dg.design_from_json({"n": 1, "points": [["1"]], "multiplicities": [1], "weights": [1]})
    # what design hilbert|optimize --out write beside the design is accepted
    d = dg.design_from_json({"n": 2, "points": [[1.0, 0.0], [0.0, 1.0]], "residual": 0.0,
                             "status": "OK", "cardinality": 2, "meta": {"seed": 1}})
    assert np.allclose(d.weights, 0.5)
