"""Discrete curves: turning angles, the closed-curve 2*pi bound, the arm
lemma, the bow chord inequality, and the height-function counting identity.

Oracles used here: a regular k-gon turns by exactly 2*pi/k at each vertex;
an inscribed polygon of a circle of radius R has discrete curvature
(dtheta/2) / (R sin(dtheta/2)); the helix (r cos t, r sin t, ct) has constant
curvature density r/(r^2+c^2).
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from curvlab import curves as cu


def regular_polygon(k, radius=1.0, dim=2):
    ts = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    pts = radius * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    if dim > 2:
        pts = np.hstack([pts, np.zeros((k, dim - 2))])
    return cu.PolyCurve(vertices=pts, closed=True)


def random_isometry(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q, rng.standard_normal(dim)


# ---------------------------------------------------------------------------
# external angles and total curvature

def test_square_turns_right_angles():
    sq = regular_polygon(4)
    assert np.allclose(cu.external_angles(sq), math.pi / 2)
    assert math.isclose(cu.total_curvature(sq), 2.0 * math.pi, rel_tol=1e-12)


def test_vertex_edit_moves_every_reader_alike():
    # vertices is a writeable array: every reader must see an in-place edit
    sq = cu.PolyCurve(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), closed=True)
    sq.vertices[2] = (0.5, 0.2)
    tk = cu.total_curvature(sq)
    assert tk == cu.fenchel_check(sq)["total_curvature"]
    assert tk > 2.0 * math.pi + 1.0
    cr = cu.crofton_check(sq)
    # target reads total_curvature; mc_estimate reads crofton_check's own edges
    assert cr["target"] == 4.0 * tk and cr["rel_err"] < 0.05
    sq.vertices[1] = sq.vertices[0]
    for reader in (cu.total_curvature, cu.fenchel_check, cu.crofton_check):
        with pytest.raises(ValueError, match="zero-length"):
            reader(sq)


@pytest.mark.parametrize("k", [3, 5, 8, 17, 100])
def test_regular_polygon_turns_evenly(k):
    pk = regular_polygon(k)
    assert np.allclose(cu.external_angles(pk), 2.0 * math.pi / k, atol=1e-12)


def test_collinear_vertex_turns_zero():
    c = cu.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert cu.total_curvature(c) == 0.0


def test_open_curve_counts_interior_vertices_only():
    c = cu.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert cu.external_angles(c).shape == (2,)
    assert math.isclose(cu.total_curvature(c), math.pi, rel_tol=1e-12)


def test_degenerate_edge_rejected():
    with pytest.raises(ValueError):
        cu.PolyCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# closed-curve lower bound

def test_fenchel_square_is_tight_convex_planar():
    res = cu.fenchel_check(regular_polygon(4, dim=3))
    assert res["ok"]
    assert abs(res["slack"]) < 1e-9
    assert res["convex_planar"]


def test_fenchel_nonconvex_polygon_exceeds_bound():
    # L-shaped hexagon: one reflex corner adds 2x its turn over 2*pi.
    v = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    res = cu.fenchel_check(cu.PolyCurve(v, closed=True))
    assert res["ok"]
    assert res["slack"] > math.pi - 1e-9
    assert not res["convex_planar"]


def test_fenchel_skew_quadrilateral_strict():
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=float)
    res = cu.fenchel_check(cu.PolyCurve(v, closed=True))
    assert res["ok"] and res["slack"] > 1e-3
    assert not res["convex_planar"]


def test_fenchel_random_closed_curves():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        for _ in range(50):
            k = int(rng.integers(3, 12))
            v = rng.standard_normal((k, dim))
            res = cu.fenchel_check(cu.PolyCurve(v, closed=True))
            assert res["ok"]


def test_fenchel_rejects_open_curve():
    with pytest.raises(ValueError):
        cu.fenchel_check(cu.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0]])))


# ---------------------------------------------------------------------------
# refinement ladder

def test_closed_circle_polygon_is_exactly_two_pi():
    res = cu.discrete_total_curvature_convergence(
        cu.circle_curve(2.0), 2.0 * math.pi)
    assert max(res["errors"]) < 1e-12


def test_helix_ladder_decreases_quadratically():
    h = cu.helix(radius=1.0, pitch=math.pi, turns=2.0)
    exact = cu.helix_total_curvature(1.0, math.pi, 2.0)
    res = cu.discrete_total_curvature_convergence(h, exact)
    assert res["decreasing"]
    assert res["errors"][-1] < 1e-2
    # halving the mesh should cut the corrected error by about four
    ratios = [a / b for a, b in zip(res["errors"], res["errors"][1:])]
    assert all(r > 3.0 for r in ratios)


def test_helix_total_curvature_oracle():
    # unit radius, c = 1/2: curvature density 1/(1+1/4), two turns
    got = cu.helix_total_curvature(1.0, math.pi, 2.0)
    want = 1.0 / 1.25 * 4.0 * math.pi * math.hypot(1.0, 0.5)
    assert math.isclose(got, want, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# arm lemma

def test_circular_arc_discrete_curvature_near_one_over_R():
    arc = cu.circular_arc(R=2.0, arc_length=3.0, n=2000)
    angs = cu.external_angles(arc)
    sides = np.linalg.norm(np.diff(arc.vertices, axis=0), axis=1)
    curv = np.max(angs / (0.5 * (sides[:-1] + sides[1:])))
    assert abs(curv - 0.5) < 1e-6
    half_turn = 0.5 * (3.0 / 2.0) / 1999
    oracle = half_turn / (2.0 * math.sin(half_turn))
    assert math.isclose(cu.bow_check(arc, R=2.0)["max_discrete_curv"], oracle, rel_tol=1e-6)


def test_convex_arc_builder_matches_requested_turns():
    arc = cu.convex_arc([1.0, 2.0, 1.5], [0.3, 0.7])
    assert np.allclose(cu.external_angles(arc), [0.3, 0.7])
    assert cu.arm_check(arc, arc)["hypotheses"]["p_convex_arc"]


def test_convex_arc_validation():
    with pytest.raises(ValueError):
        cu.convex_arc([1.0, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        cu.convex_arc([1.0, -1.0, 1.0], [0.1, 0.2])


def test_is_convex_arc_rejects_nonplanar_and_overturned():
    skew = cu.PolyCurve(np.array(
        [[0, 0, 0], [1, 0, 0], [1.5, 1, 0], [1.5, 1.5, 1]], dtype=float))
    assert not cu.arm_check(skew, skew)["hypotheses"]["p_convex_arc"]
    wiggly = cu.convex_arc([1.0] * 6, [0.8] * 5)  # total turn 4 > pi
    assert not cu.arm_check(wiggly, wiggly)["hypotheses"]["p_convex_arc"]


def test_arm_lemma_random_instances():
    for seed in range(200):
        p, q = cu.random_arm_instance(k=5, ambient_n=3, seed=seed)
        res = cu.arm_check(q, p)
        assert res["hypotheses_ok"], seed
        assert res["inequality_ok"], seed


def test_arm_lemma_congruent_copy_has_zero_slack():
    p, _ = cu.random_arm_instance(k=6, seed=3)
    rng = np.random.default_rng(0)
    rot, shift = random_isometry(2, rng)
    q = cu.PolyCurve(p.vertices @ rot.T + shift)
    res = cu.arm_check(q, p)
    assert res["hypotheses_ok"]
    assert abs(res["slack"]) < 1e-9


def test_arm_lemma_straightened_arm_strictly_longer():
    p, _ = cu.random_arm_instance(k=6, seed=11)
    sides = np.linalg.norm(np.diff(p.vertices, axis=0), axis=1)
    straight = cu.PolyCurve(np.column_stack(
        [np.concatenate([[0.0], np.cumsum(sides)]), np.zeros(len(sides) + 1)]))
    res = cu.arm_check(straight, p)
    assert res["hypotheses_ok"]
    assert res["slack"] > 1e-3


def test_arm_chord_monotone_in_each_turn():
    # shrinking any single turn of a convex arc increases the chord
    sides = [1.0, 0.7, 1.3, 0.9]
    angs = np.array([0.4, 0.6, 0.5])

    def chord(arc):
        return np.linalg.norm(arc.vertices[-1] - arc.vertices[0])

    base = chord(cu.convex_arc(sides, angs))
    for i in range(3):
        smaller = angs.copy()
        smaller[i] -= 0.05
        assert chord(cu.convex_arc(sides, smaller)) > base


def test_arm_check_reports_violated_hypotheses():
    p = cu.convex_arc([1.0, 1.0, 1.0], [0.3, 0.3])
    over = cu.convex_arc([1.0, 1.0, 1.0], [0.6, 0.6])
    res = cu.arm_check(over, p)
    assert not res["hypotheses"]["q_angles_dominate"]
    assert not res["hypotheses_ok"]
    short = cu.convex_arc([1.0, 1.0], [0.3])
    assert not cu.arm_check(short, p)["hypotheses"]["lengths_match"]


# ---------------------------------------------------------------------------
# bow inequality

def test_bow_circular_arc_is_equality():
    # inscribed-polygon shortfall is O(1/n^2); n=2000 puts it under 1e-7
    res = cu.bow_check(cu.circular_arc(R=1.5, arc_length=4.0, n=2000), R=1.5)
    assert res["curv_ok"] and res["chord_ok"]
    assert res["equality"]
    assert abs(res["slack"]) < 1e-6


def test_bow_random_bounded_curves():
    for seed in range(100):
        c = cu.random_bounded_curve(R=1.0, length=5.0, n=150, seed=seed)
        res = cu.bow_check(c, R=1.0)
        assert res["curv_ok"], seed
        assert res["chord_ok"], seed


def loop_spatial_arc(sides, turns, ambient_n, rng):
    """The per-step construction that _spatial_arcs replaced, kept as its reference."""
    tangent = np.zeros(ambient_n)
    tangent[0] = 1.0
    pts = [np.zeros(ambient_n)]
    for i, L in enumerate(sides):
        pts.append(pts[-1] + L * tangent)
        if i < len(turns):
            raw = rng.standard_normal(ambient_n)
            perp = raw - (raw @ tangent) * tangent
            nperp = np.linalg.norm(perp)
            if nperp < 1e-12:
                perp = np.zeros(ambient_n)
                perp[1] = 1.0
            else:
                perp /= nperp
            tangent = math.cos(turns[i]) * tangent + math.sin(turns[i]) * perp
            tangent /= np.linalg.norm(tangent)
    return cu.PolyCurve(vertices=np.array(pts), closed=False)


def loop_convex_arc(sides, angles):
    """The heading loop that convex_arc's cumsums replaced, kept as its reference."""
    heading = 0.0
    pts = [np.zeros(2)]
    for i, L in enumerate(sides):
        pts.append(pts[-1] + L * np.array([math.cos(heading), math.sin(heading)]))
        if i < len(angles):
            heading += angles[i]
    return cu.PolyCurve(vertices=np.array(pts), closed=False)


def loop_bounded_curve(R, length, n, dim, seed):
    """random_bounded_curve's draws, in its order, fed to the per-step loop."""
    rng = np.random.default_rng(seed)
    h = length / n
    turns = rng.uniform(0.0, h / R, size=n - 1)
    return loop_spatial_arc(np.full(n, h), turns, dim, rng)


def loop_arm_instance(k, ambient_n, seed):
    """random_arm_instance's draws, in its order, fed to both loops: (p, q)."""
    rng = np.random.default_rng(seed)
    sides = rng.uniform(0.2, 1.0, size=k)
    c = rng.uniform(0.05, 1.0, size=k - 1)
    c *= rng.uniform(0.3, 0.95) * math.pi / c.sum()
    turns_q = c * rng.uniform(0.0, 1.0, size=k - 1)
    return loop_convex_arc(sides, c), loop_spatial_arc(sides, turns_q, ambient_n, rng)


class ParallelDraws:
    """Every bending normal along e_1, so the first one is parallel to the tangent."""

    def standard_normal(self, shape):
        out = np.zeros(shape)
        out[..., 0] = 1.0
        return out


class RowDraws:
    """Hands out the rows of a fixed (steps, ambient) block, one row per draw."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, shape):
        return next(self.rows)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_spatial_arc_matches_per_step_loop(dim):
    for s in list(range(20)) + [0xC0FFEE, 5003, 7001]:
        assert np.array_equal(
            cu.random_bounded_curve(R=1.0, length=5.0, n=200, dim=dim, seed=s).vertices,
            loop_bounded_curve(1.0, 5.0, 200, dim, s).vertices)
        for k in (3, 8):
            assert np.array_equal(cu.random_arm_instance(k, dim, seed=s)[1].vertices,
                                  loop_arm_instance(k, dim, s)[1].vertices)
    sides, turns = np.linspace(0.5, 1.0, 6), np.linspace(0.1, 0.6, 5)
    raws = ParallelDraws().standard_normal((1, 5, dim))
    assert np.array_equal(cu._spatial_arcs(sides[None], turns[None], raws)[0],
                          loop_spatial_arc(sides, turns, dim, ParallelDraws()).vertices)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_fallback_lane_inside_a_batch_matches_loop(dim):
    rng = np.random.default_rng(dim)
    sides = rng.uniform(0.2, 1.0, (5, 7))
    turns = rng.uniform(0.0, 0.5, (5, 6))
    raws = rng.standard_normal((5, 6, dim))
    raws[2, 0] = 0.0
    raws[2, 0, 0] = 2.0  # parallel to the first tangent e_0
    raws[2, 3] = 0.0
    vertices = cu._spatial_arcs(sides, turns, raws)
    for b in range(5):
        assert np.array_equal(vertices[b],
                              loop_spatial_arc(sides[b], turns[b], dim, RowDraws(raws[b])).vertices)
    # lane 2's first turn took the e_1 fallback: its second edge lies in the e_0 e_1 plane
    assert vertices[2, 2, 1] > 0 and not np.any(vertices[2, 2, 2:])


def test_batched_entries_match_one_at_a_time_in_input_order():
    rng = np.random.default_rng(17)
    cases = [(k, amb) for k in range(3, 11) for amb in range(2, 8)] * 2
    rng.shuffle(cases)
    ks, ambients = [k for k, _ in cases], [amb for _, amb in cases]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=len(cases))]
    seeds[0] = 2**64 - 1  # the largest 64-bit seed
    for s in seeds[:3]:
        pairs = stacked_arm_instances(ks, ambients, np.random.default_rng(s))
        twins = loop_arm_instances(ks, ambients, np.random.default_rng(s))
        for (p, q), (loop_p, loop_q), k, amb in zip(pairs, twins, ks, ambients, strict=True):
            assert q.vertices.shape == (k + 1, amb)
            assert np.array_equal(p.vertices, loop_p.vertices)
            assert np.array_equal(q.vertices, loop_q.vertices)
    for k, amb, s in zip(ks, ambients, seeds, strict=True):  # one instance: the B = 1 stack
        one_p, one_q = cu.random_arm_instance(k, amb, seed=s)
        loop_p, loop_q = loop_arm_instance(k, amb, s)
        assert np.array_equal(one_p.vertices, loop_p.vertices)
        assert np.array_equal(one_q.vertices, loop_q.vertices)
    Rs = rng.uniform(0.5, 2.0, size=12).tolist()
    lengths = [float(f) * math.pi * R for f, R in zip(rng.uniform(0.2, 1.0, size=12), Rs)]
    for s in seeds[:3]:
        curves = stacked_bounded_curves(Rs, lengths, 40, 4, np.random.default_rng(s))
        twins = loop_bounded_curves(Rs, lengths, 40, 4, np.random.default_rng(s))
        for c, twin in zip(curves, twins, strict=True):
            assert np.array_equal(c.vertices, twin.vertices)
    for R, L, s in zip(Rs, lengths, seeds[:12]):
        assert np.array_equal(cu.random_bounded_curve(R, L, n=40, dim=4, seed=s).vertices,
                              loop_bounded_curve(R, L, 40, 4, s).vertices)


def test_batched_entries_reject_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="k >= 3 and ambient_n >= 2 required"):
        cu._arm_stacks([5, 2], [3, 3], rng)
    with pytest.raises(ValueError, match="k >= 3 and ambient_n >= 2 required"):
        cu._arm_stacks([5, 5], [3, 1], rng)
    with pytest.raises(ValueError, match="must have equal lengths"):
        cu._arm_stacks([5, 5], [3], rng)
    with pytest.raises(ValueError, match="at most 2\\*pi\\*R"):
        cu._bounded_arcs([1.0, 1.0], [5.0, 7.0], 50, 3, rng)
    with pytest.raises(ValueError, match="must have equal lengths"):
        cu._bounded_arcs([1.0, 1.0], [5.0], 50, 3, rng)
    assert cu._arm_stacks([], [], rng) == []
    assert cu._bounded_arcs([], [], 50, 3, rng).shape == (0, 51, 3)


@pytest.mark.parametrize("R,length,n,message", [
    (1.0, 2.0, 0, "n >= 1 steps required, got 0"),
    (1.0, 2.0, -1, "n >= 1 steps required, got -1"),
    (0.0, 0.0, 5, "length must be positive and at most 2\\*pi\\*R"),
    (-1.0, -7.0, 5, "length must be positive and at most 2\\*pi\\*R"),
    (math.nan, 1.0, 5, "length must be positive and at most 2\\*pi\\*R"),
])
def test_bounded_curve_rejects_bad_inputs_before_drawing(R, length, n, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero or invalid-value warning first
        with pytest.raises(ValueError, match=message):
            cu.random_bounded_curve(R, length, n=n)
    assert cu.random_bounded_curve(1.0, 2.0, n=1).vertices.shape == (2, 3)


def test_convex_arc_matches_heading_loop():
    rng = np.random.default_rng(8)
    for k in range(1, 12):
        for _ in range(20):
            sides = rng.uniform(0.1, 2.0, size=k)
            angles = rng.uniform(0.0, math.pi, size=k - 1)
            assert np.array_equal(cu.convex_arc(sides, angles).vertices,
                                  loop_convex_arc(sides, angles).vertices)


def stacked_arm_instances(ks, ambients, rng):
    """(p, q) pairs in input order, unpacked from the vertex stacks; each q is
    sliced to its ambient, its zero padding checked to be exactly +0.0."""
    pairs = [None] * len(ks)
    for members, p, q in cu._arm_stacks(ks, ambients, rng):
        for i, pv, qv in zip(members, p, q):
            padding = qv[:, ambients[i]:]
            assert np.all(padding == 0.0) and not np.any(np.signbit(padding))
            pairs[i] = (cu.PolyCurve(pv), cu.PolyCurve(qv[:, :ambients[i]]))
    return pairs


def stacked_bounded_curves(Rs, lengths, n, dim, rng):
    return [cu.PolyCurve(v) for v in cu._bounded_arcs(Rs, lengths, n, dim, rng)]


def arm_stack_draws(ks, ambients, rng):
    """(members, sides, c, turns_q, normals) per stack of cu._arm_stacks: the
    blocks its docstring names, drawn from rng in its order, one stack per
    (k, max(ambient, 7)) in first-appearance order.  c is scaled one row at a
    time as loop_arm_instance scales it; normals keep their full width."""
    keys = [(k, max(amb, 7)) for k, amb in zip(ks, ambients, strict=True)]
    for key in dict.fromkeys(keys):
        members = [i for i, other in enumerate(keys) if other == key]
        B, k = len(members), key[0]
        sides = rng.uniform(0.2, 1.0, (B, k))
        c = rng.uniform(0.05, 1.0, (B, k - 1))
        scale = rng.uniform(0.3, 0.95, (B, 1))
        factors = rng.uniform(0.0, 1.0, (B, k - 1))
        normals = rng.standard_normal((B, k - 1, max(ambients[i] for i in members)))
        c = np.stack([row * (f * math.pi / row.sum()) for row, f in zip(c, scale[:, 0])])
        yield members, sides, c, c * factors, normals


def loop_arm_instances(ks, ambients, rng):
    """(p, q) pairs in input order: row b of each stack's draws fed to both loops."""
    pairs = [None] * len(ks)
    for members, sides, c, turns_q, normals in arm_stack_draws(ks, ambients, rng):
        for b, i in enumerate(members):
            amb = ambients[i]
            pairs[i] = (loop_convex_arc(sides[b], c[b]),
                        loop_spatial_arc(sides[b], turns_q[b], amb, RowDraws(normals[b, :, :amb])))
    return pairs


def loop_bounded_curves(Rs, lengths, n, dim, rng):
    """cu._bounded_arcs' two blocks, drawn from rng in its order; row b of
    each fed to the per-step loop."""
    h = np.asarray(lengths, dtype=float) / n
    turns = rng.uniform(0.0, (h / np.asarray(Rs, dtype=float))[:, None], (len(h), n - 1))
    normals = rng.standard_normal((len(h), n - 1, dim))
    return [loop_spatial_arc(np.full(n, hb), tb, dim, RowDraws(nb))
            for hb, tb, nb in zip(h, turns, normals, strict=True)]


def per_instance_records(seed, arm_instances=loop_arm_instances,
                         bounded_curves=loop_bounded_curves):
    """The random records of check_fenchel, check_arm and check_bow from one
    checker call per PolyCurve, on the stack members each group draws; by
    default these are built by the loop builders, the per-instance
    construction the vertex stacks replaced, kept as their reference."""
    from curvlab.verify import _rec

    rng = np.random.default_rng(seed)
    ks, dims = rng.integers(4, 21, size=1000), rng.integers(3, 6, size=1000)
    worst = math.inf
    for k in sorted(set(ks.tolist())):  # one R^5 block per k, in increasing k
        for v, dim in zip(rng.standard_normal((np.count_nonzero(ks == k), k, 5)), dims[ks == k]):
            worst = min(worst, cu.fenchel_check(cu.PolyCurve(v[:, :dim], closed=True))["slack"])
    fenchel = _rec("fenchel-random", 0.0, min(worst, 0.0), 1e-9,
                   note=f"worst slack {worst:.3e} over 1000 random closed polygons, dims 3-5")
    rng = np.random.default_rng(seed)
    ks, ambients = rng.integers(3, 11, size=1000).tolist(), rng.integers(2, 6, size=1000).tolist()
    worst, all_ok = math.inf, True
    for p, q in arm_instances(ks, ambients, rng):
        res = cu.arm_check(q, p)
        all_ok &= res["hypotheses_ok"] and res["inequality_ok"]
        worst = min(worst, res["slack"])
    arm = _rec("arm-random", True, all_ok, 0, note=f"worst slack {worst:.3e} over 1000 instances")
    rng = np.random.default_rng(seed)
    Rs = rng.uniform(0.5, 2.0, size=500)
    lengths = rng.uniform(0.2, 1.0, size=500) * math.pi * Rs
    worst, all_ok = math.inf, True
    for R, curve in zip(Rs, bounded_curves(Rs, lengths, 100, 3, rng), strict=True):
        res = cu.bow_check(curve, float(R))
        all_ok &= bool(res["curv_ok"] and res["chord_ok"])
        if res["slack"] is not None:
            worst = min(worst, res["slack"])
    bow = _rec("bow-random", True, all_ok, 0, note=f"worst slack {worst:.3e} over 500 curves")
    return fenchel, arm, bow


def test_bow_and_arm_records_equal_per_instance_loop():
    from curvlab import verify

    # the stacked builders equal the loops (tests above) and take a fraction of their time
    stacked = {"arm_instances": stacked_arm_instances,
               "bounded_curves": stacked_bounded_curves}
    for seed, builders in [(0xC0FFEE, {}), (0, stacked), (7001, stacked)]:
        fenchel, arm, bow = per_instance_records(seed, **builders)
        assert verify.check_fenchel(seed)[0] == fenchel
        assert verify.check_arm(seed)[0] == arm
        assert verify.check_bow(seed)[0] == bow


def closed_polygon_stack(rng, B, k, dim):
    """Random closed k-gons in R^dim; rows 0 and 1 are regular (row 1 in a
    tilted plane), row 2 too with every other vertex lifted along the last axis."""
    v = rng.standard_normal((B, k, dim))
    ts = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    v[:3] = 0.0
    v[:3, :, :2] = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    v[1] = v[1] @ random_isometry(dim, rng)[0].T
    v[2, ::2, -1] = 0.1
    return v


def test_stacked_kernels_equal_one_curve_checkers():
    rng = np.random.default_rng(11)
    for k, dim in [(3, 2), (4, 3), (9, 3), (12, 5)]:
        v = closed_polygon_stack(rng, 12, k, dim)
        cols = cu._fenchel(v)
        rows = [cu.fenchel_check(cu.PolyCurve(v[j], closed=True)) for j in range(12)]
        assert [cu._row(cols, j) for j in range(12)] == rows
        assert rows[0]["convex_planar"] and rows[1]["convex_planar"]
        assert not rows[2]["convex_planar"] or k == 3
    ks = [3, 7, 7, 4, 10, 7] * 4
    ambients = [2, 3, 3, 5, 2, 4] * 4
    for members, p, q in cu._arm_stacks(ks, ambients, rng):
        q = q.copy()
        q[0] *= 1.01  # side lengths no longer match: a failed hypothesis
        cols = cu._arm(q, p)
        for j in range(len(members)):
            one_q, one_p = cu.PolyCurve(q[j]), cu.PolyCurve(p[j])
            assert cu._row(cols, j) == cu.arm_check(one_q, one_p)
            assert cols["hypotheses_ok"][j] == (j > 0)
        assert not cols["hypotheses"]["q_angles_dominate"][0]  # the turns alone would pass
    Rs = rng.uniform(0.5, 2.0, size=20)
    lengths = rng.uniform(0.2, 1.0, size=20) * math.pi * Rs
    v = cu._bounded_arcs(Rs, lengths, 1000, 3, rng)
    radii = Rs.copy()
    radii[:5] /= 3.0  # curvature cap fails: the chord columns are blanked
    ts = np.linspace(0.0, 1.5, 1001)
    v[5, :, :2] = 1.2 * np.stack([np.cos(ts), np.sin(ts)], axis=1)  # planar arc: equality
    v[5, :, 2] = 0.0
    radii[5] = 1.2
    cols = cu._bow(v, radii)
    for j in range(20):
        one = cu.bow_check(cu.PolyCurve(v[j]), float(radii[j]))
        row = cu._row(cols, j)
        if not one["curv_ok"]:
            assert one["chord_ok"] is None and j < 5
            row = {key: val for key, val in row.items() if key in one and one[key] is not None}
            one = {key: val for key, val in one.items() if val is not None}
        assert row == one
    assert cu._row(cols, 5)["equality"]


def test_padded_stacks_give_unpadded_columns_bit_for_bit():
    # ambients up to 7 share one stack per k; 9 and 12, whose rows numpy sums
    # pairwise, keep their own.  The unpadded q are rebuilt from the same
    # draws, the normals sliced to each pair's ambient.
    cases = [(k, amb) for k in range(3, 11) for amb in (*range(2, 8), 9, 12)] * 3
    ks, ambients = zip(*cases)
    padded, unpadded = {}, {}
    stacks = cu._arm_stacks(ks, ambients, np.random.default_rng(0))
    draws = arm_stack_draws(ks, ambients, np.random.default_rng(0))
    for (members, p, q), (_, sides, c, turns_q, normals) in zip(stacks, draws, strict=True):
        assert {ambients[i] for i in members} in ({9}, {12}, set(range(2, 8)))
        assert q.shape[2] == max(ambients[i] for i in members)
        cols = cu._arm(q, p)
        padded.update((i, cu._row(cols, j)) for j, i in enumerate(members))
        for amb in {ambients[i] for i in members}:
            rows = [j for j, i in enumerate(members) if ambients[i] == amb]
            one_q = cu._spatial_arcs(sides[rows], turns_q[rows], normals[rows, :, :amb])
            assert one_q.shape[2] == amb
            cols = cu._arm(one_q, cu._planar_arcs(sides[rows], c[rows]))
            unpadded.update((members[j], cu._row(cols, r)) for r, j in enumerate(rows))
    assert len(padded) == len(cases) and padded == unpadded
    rng = np.random.default_rng(19)
    for k in range(3, 21):
        for dim in (2, 3, 4, 5):
            v = closed_polygon_stack(rng, 12, k, dim)
            wide = np.zeros((12, k, 5))
            wide[..., :dim] = v
            one, five = cu._fenchel(v), cu._fenchel(wide)
            assert [cu._row(five, j) for j in range(12)] == [cu._row(one, j) for j in range(12)]
            assert five["convex_planar"][:2].all()


@pytest.mark.parametrize("closed", [False, True])
def test_stack_rejects_bad_rows_like_polycurve(closed):
    v = np.random.default_rng(3).standard_normal((6, 5, 3))
    zero_edge, nan_vertex, inf_vertex = v.copy(), v.copy(), v.copy()
    zero_edge[2, 3] = zero_edge[2, 2]
    nan_vertex[4, 1, 0] = np.nan
    inf_vertex[0, 0, 2] = np.inf
    for w, b, message in [(zero_edge, 2, "degenerate"), (nan_vertex, 4, "finite"),
                          (inf_vertex, 0, "finite")]:
        with pytest.raises(ValueError) as one:
            cu.PolyCurve(w[b], closed=closed)
        assert message in str(one.value)
        exact = f"^{re.escape(str(one.value))}$"
        with pytest.raises(ValueError, match=exact):
            cu._edges(w, closed)
        check = cu._fenchel if closed else lambda stack: cu._arm(stack, stack)
        with pytest.raises(ValueError, match=exact):
            check(w)


def test_bow_skips_when_curvature_cap_fails():
    tight = cu.circular_arc(R=0.5, arc_length=2.0, n=200)
    res = cu.bow_check(tight, R=2.0)
    assert not res["curv_ok"]
    assert res["chord_ok"] is None and res["slack"] is None


def test_bow_invariant_under_isometry():
    rng = np.random.default_rng(5)
    c = cu.random_bounded_curve(R=1.0, length=4.0, n=100, seed=2)
    rot, shift = random_isometry(3, rng)
    moved = cu.PolyCurve(c.vertices @ rot.T + shift)
    a, b = cu.bow_check(c, R=1.0), cu.bow_check(moved, R=1.0)
    assert math.isclose(a["slack"], b["slack"], abs_tol=1e-9)


# ---------------------------------------------------------------------------
# height-function counting

def test_crofton_circle():
    circle = cu.circle_curve(1.0).polygon(512)
    res = cu.crofton_check(circle, n_dirs=20_000, seed=0)
    assert res["rel_err"] < 0.03
    assert math.isclose(res["target"], 8.0 * math.pi, rel_tol=1e-9)


def test_crofton_doubly_wound_circle():
    # N odd, angles 2 * 2*pi*k/N: distinct vertices winding twice around
    N = 257
    ts = 2.0 * (2.0 * math.pi) * np.arange(N) / N
    c = cu.PolyCurve(np.stack([np.cos(ts), np.sin(ts)], axis=1), closed=True)
    assert math.isclose(cu.total_curvature(c), 4.0 * math.pi, rel_tol=1e-6)
    res = cu.crofton_check(c, n_dirs=20_000, seed=1)
    assert res["rel_err"] < 0.03
    assert math.isclose(res["target"], 16.0 * math.pi, rel_tol=1e-6)


def test_crofton_skew_polygon():
    rng = np.random.default_rng(4)
    c = cu.PolyCurve(rng.standard_normal((7, 3)), closed=True)
    res = cu.crofton_check(c, n_dirs=40_000, seed=2)
    assert res["rel_err"] < 0.03


def dense_crofton(curve, n_dirs, rng):
    """crofton_check's (mc_estimate, resampled) from one dense (edges, directions)
    evaluation per round: the construction the direction blocks replaced."""
    v = curve.vertices
    e = np.concatenate([np.diff(v, axis=0), v[:1] - v[-1:]])  # closing edge last
    u = e / np.linalg.norm(e, axis=1, keepdims=True)
    if u.shape[1] == 2:
        u = np.hstack([u, np.zeros((u.shape[0], 1))])
    resampled, counts, filled = 0, np.empty(n_dirs), 0
    while filled < n_dirs:
        batch = rng.standard_normal((n_dirs - filled, 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        dots = u @ batch.T
        generic = np.min(np.abs(dots), axis=0) > 1e-9
        resampled += int((~generic).sum())
        s = np.sign(dots[:, generic])
        good = (s != np.roll(s, -1, axis=0)).sum(axis=0)
        counts[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
    return 4.0 * math.pi * float(counts.mean()), resampled


@pytest.mark.parametrize("seed", [0, 5, 7001, 0xC0FFEE])
def test_blocked_crofton_equals_dense_reference(seed):
    circle = cu.circle_curve(1.0).polygon(512)
    res = cu.crofton_check(circle, n_dirs=2500, seed=seed)
    assert (res["mc_estimate"], res["resampled"]) == dense_crofton(
        circle, 2500, np.random.default_rng(seed))


class TieDraws:
    """Normal draws with every 7th row from the second on set to (0.6, 0, 0.8),
    which is orthogonal to any edge along e_1, so those directions resample."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        out[1::7] = (0.6, 0.0, 0.8)
        return out


def test_blocked_crofton_equals_dense_reference_when_directions_resample(monkeypatch):
    # a skew heptagon, so counts differ between directions, with one edge along e_1
    vertices = np.random.default_rng(4).standard_normal((7, 3))
    vertices[1] = vertices[0] + (0.0, 1.0, 0.0)
    skew = cu.PolyCurve(vertices, closed=True)
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TieDraws(real_rng(seed)))
    res = cu.crofton_check(skew, n_dirs=2500, seed=3)
    mc, resampled = dense_crofton(skew, 2500, TieDraws(real_rng(3)))
    assert resampled == 357 + 51 + 8 + 1  # rounds of 2500, 357, 51, 8 and 1 directions
    assert (res["mc_estimate"], res["resampled"]) == (mc, resampled)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_bow_rejects_nonpositive_or_nonfinite_radius(R):
    with pytest.raises(ValueError, match="finite and positive"):
        cu.bow_check(cu.circular_arc(R=1.0, arc_length=2.0, n=20), R=R)


def test_bow_and_arm_reject_closed_curves():
    arc = cu.circular_arc(R=1.0, arc_length=2.0, n=20)
    ring = cu.PolyCurve(arc.vertices, closed=True)
    with pytest.raises(ValueError, match="bow_check needs an open curve"):
        cu.bow_check(ring, R=1.0)
    with pytest.raises(ValueError, match="arm_check needs an open curve"):
        cu.arm_check(ring, arc)
    with pytest.raises(ValueError, match="arm_check needs an open curve"):
        cu.arm_check(arc, ring)


def test_crofton_rejects_open_and_high_dim():
    with pytest.raises(ValueError):
        cu.crofton_check(cu.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0]])))
    rng = np.random.default_rng(0)
    c = cu.PolyCurve(rng.standard_normal((5, 4)), closed=True)
    with pytest.raises(ValueError):
        cu.crofton_check(c)


# ---------------------------------------------------------------------------
# I/O

def test_curve_json_round_trip():
    c = cu.PolyCurve(np.array([[0, 0, 0], [1, 0, 0], [1, 2, 3]], dtype=float),
                     closed=True)
    back = cu.curve_from_json(json.dumps({"vertices": c.vertices.tolist(), "closed": True}))
    assert back.closed
    assert np.array_equal(back.vertices, c.vertices)


@pytest.mark.parametrize("closed,want", [(True, True), (False, False), (None, False)])
def test_curve_json_closed_flag(closed, want):
    data = {"vertices": [[0, 0], [1, 0], [1, 1]]}
    if closed is not None:
        data["closed"] = closed
    assert cu.curve_from_json(json.dumps(data)).closed is want


@pytest.mark.parametrize("closed", ["false", "true", 0, 1, None, [True]])
def test_curve_json_rejects_non_boolean_closed(closed):
    data = {"vertices": [[0, 0], [1, 0], [1, 1]], "closed": closed}
    with pytest.raises(ValueError, match="'closed' must be true or false") as e:
        cu.curve_from_json(json.dumps(data))
    assert len(str(e.value).splitlines()) == 1


def test_curve_json_rejects_a_key_it_does_not_read():
    with pytest.raises(ValueError, match=r"^curve 'closd': unknown key$"):
        cu.curve_from_json({"vertices": [[0, 0], [1, 0], [1, 1]], "closd": True})


@pytest.mark.parametrize("vertices", [[[True, False], [1, 0], [3, 0]], [[0, 0], [1, False]],
                                      [[0, 0], [1, None]], [[0, 0], ["x", 1]]])
def test_curve_json_rejects_non_numbers_naming_the_field(vertices):
    with pytest.raises(ValueError, match="^curve 'vertices': expected a finite number") as e:
        cu.curve_from_json(json.dumps({"vertices": vertices}))
    assert len(str(e.value).splitlines()) == 1


def test_curve_json_reads_exact_strings_as_in_spec_files():
    back = cu.curve_from_json(json.dumps({"vertices": [[0, "1/2"], ["3", 0.25]]}))
    assert back.vertices.tolist() == [[0.0, 0.5], [3.0, 0.25]]


def test_curve_csv_reads_numbers_as_json_does():
    # "p/q" strings are numbers in CSV rows too, the first row included
    text = "1/2,0\n3,0.25\n-1e2,7/4\n"
    rows = [["1/2", "0"], ["3", "0.25"], ["-1e2", "7/4"]]
    back = cu.curve_from_csv(text)
    assert back.vertices.tolist() == [[0.5, 0.0], [3.0, 0.25], [-100.0, 1.75]]
    assert np.array_equal(back.vertices, cu.curve_from_json({"vertices": rows}).vertices)
    for bad in ("0,0\n1\n2,2\n", "0,0\nx,1\n2,2\n", "nan,0\n1,1\n"):
        rows = [r.split(",") for r in bad.split()]
        with pytest.raises(ValueError) as csv_error:
            cu.curve_from_csv(bad)
        with pytest.raises(ValueError) as json_error:
            cu.curve_from_json({"vertices": rows})
        assert str(csv_error.value) == str(json_error.value)


def test_curve_csv_round_trip_with_header():
    c = cu.PolyCurve(np.array([[0.125, -1.5], [2.25, 0.75], [3.0, 3.0]]))
    text = "x0,x1\n" + "".join(f"{x!r},{y!r}\n" for x, y in c.vertices.tolist())
    back = cu.curve_from_csv(text)
    assert np.array_equal(back.vertices, c.vertices)
    assert not back.closed
