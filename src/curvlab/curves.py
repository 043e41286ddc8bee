"""Discrete curves: total curvature and the classical comparison inequalities.

Polygonal curves carry exact external-angle total curvature; smooth curves are
handled by inscribing polygons and refining.  The checkers cover the 2*pi
lower bound for closed curves (with its planar-convex equality case), the arm
lemma for convex comparison arcs, the chord-versus-length bow inequality for
curvature-bounded curves, and an integral-geometry identity relating total
curvature to critical-point counts of linear height functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .immersions import _fields, _list, _real

__all__ = [
    "PolyCurve",
    "SampledCurve",
    "external_angles",
    "total_curvature",
    "fenchel_check",
    "discrete_total_curvature_convergence",
    "convex_arc",
    "circular_arc",
    "arm_check",
    "random_arm_instance",
    "bow_check",
    "random_bounded_curve",
    "crofton_check",
    "curve_from_json",
    "curve_from_csv",
    "helix",
    "helix_total_curvature",
    "circle_curve",
]


@dataclass(frozen=True)
class PolyCurve:
    """Polygonal curve: ordered vertices, optionally closed; readers compute the edges."""

    vertices: np.ndarray  # N x d
    closed: bool = False

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        _edges(v[None], self.closed)  # validates: input not N x d fails its 3-D check


@dataclass(frozen=True)
class SampledCurve:
    """Smooth curve as a callable t -> point on [t0, t1]; inscribe to measure."""

    fn: object
    t0: float
    t1: float
    closed: bool = False

    def polygon(self, n: int) -> PolyCurve:
        ts = np.linspace(self.t0, self.t1, n, endpoint=not self.closed)
        pts = np.array([self.fn(t) for t in ts])
        return PolyCurve(vertices=pts, closed=self.closed)


# ---------------------------------------------------------------------------
# stacked kernels over (B, N, d) vertex arrays; each checker is their B = 1 call

def _edges(v: np.ndarray, closed: bool):
    """Edge vectors (B, E, d) and side lengths (B, E).

    ValueError for fewer than two vertices (three if closed), or any
    non-finite vertex, zero-length edge, or edge length, chord or vertex sum
    (so centroid) that overflows float64 in the stack."""
    if v.ndim != 3 or v.shape[1] < 2:
        raise ValueError("need at least two vertices")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertices must be finite")
    if closed and v.shape[1] < 3:
        raise ValueError("closed curve needs at least three vertices")
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
        e = np.diff(v, axis=1)
        if closed:
            e = np.concatenate([e, v[:, :1] - v[:, -1:]], axis=1)
        lengths = np.linalg.norm(e, axis=-1)
        finite = all(np.isfinite(x).all() for x in (lengths, v.sum(axis=1), _chord(v)))
    if not finite:
        raise ValueError("an edge length, the chord or the vertex sum overflows float64")
    if np.any(lengths < 1e-12):
        raise ValueError("degenerate (zero-length) edge")
    return e, lengths


def _turns(edges: np.ndarray, lengths: np.ndarray, closed: bool) -> np.ndarray:
    """Turning angles (B, A) in [0, pi] at interior vertices (all vertices if closed)."""
    u = edges / lengths[..., None]
    if closed:
        cos = np.einsum("bij,bij->bi", u, np.roll(u, -1, axis=1))
    else:
        cos = np.einsum("bij,bij->bi", u[:, :-1], u[:, 1:])
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _chord(v: np.ndarray) -> np.ndarray:
    """End-to-end distances (B,); ``vecdot`` rounds as the 1-d norm of each row."""
    d = v[:, -1] - v[:, 0]
    return np.sqrt(np.vecdot(d, d))


def _planar_projection(v: np.ndarray, tol: float = 1e-6):
    """Best-fit-plane coordinates (B, N, 2), and (B,) True where the third
    singular value is at most ``tol`` times the largest (or 1)."""
    c = v - v.mean(axis=1, keepdims=True)
    if v.shape[2] <= 2:
        return np.pad(c, ((0, 0), (0, 0), (0, 2 - v.shape[2]))), np.ones(len(v), dtype=bool)
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    flat = ~np.any(s[:, 2:3] > tol * np.maximum(s[:, :1], 1.0), axis=1)
    return c @ vt[:, :2].mT, flat


def _planar_same_turn(v: np.ndarray, closed: bool, where: np.ndarray) -> np.ndarray:
    """(B,) bool: rows in ``where`` (the others skip the SVD) that are planar
    with every turn of one sign (within 1e-9), cyclically for a closed curve."""
    out = where.copy()
    if not out.any():
        return out
    v2, flat = _planar_projection(v[out])
    if closed:
        v2 = np.concatenate([v2, v2[:, :2]], axis=1)
    e = np.diff(v2, axis=1)
    cross = e[:, :-1, 0] * e[:, 1:, 1] - e[:, :-1, 1] * e[:, 1:, 0]
    out[out] = flat & (np.all(cross >= -1e-9, axis=1) | np.all(cross <= 1e-9, axis=1))
    return out


def _row(cols: dict, i: int) -> dict:
    """Row ``i`` of a kernel's column dict, as Python scalars."""
    return {k: _row(c, i) if isinstance(c, dict) else c[i].item() for k, c in cols.items()}


def _fenchel(v: np.ndarray) -> dict:
    """Columns of ``fenchel_check`` for a stack of closed polygons."""
    e, lengths = _edges(v, closed=True)
    tk = _turns(e, lengths, closed=True).sum(axis=1)
    slack = tk - 2.0 * math.pi
    return {
        "total_curvature": tk,
        "bound": np.full(len(v), 2.0 * math.pi),
        "ok": tk >= 2.0 * math.pi - 1e-9,
        "slack": slack,
        "convex_planar": _planar_same_turn(v, True, np.abs(slack) < 1e-7),
    }


def external_angles(curve: PolyCurve) -> np.ndarray:
    """Turning angle in [0, pi] at each interior vertex (all vertices if closed)."""
    return _turns(*_edges(curve.vertices[None], curve.closed), curve.closed)[0]


def total_curvature(curve: PolyCurve) -> float:
    """Sum of external angles."""
    return float(external_angles(curve).sum())


def fenchel_check(curve: PolyCurve) -> dict:
    """Total curvature of a closed polygon against the 2*pi lower bound.

    The equality case flags convex planar polygons, where the bound is tight.
    """
    if not curve.closed:
        raise ValueError("fenchel_check needs a closed curve")
    return _row(_fenchel(curve.vertices[None]), 0)


# ---------------------------------------------------------------------------
# refinement / convergence

def helix(radius: float = 1.0, pitch: float = math.pi, turns: float = 2.0) -> SampledCurve:
    c = pitch / (2.0 * math.pi)

    def fn(t):
        return np.array([radius * math.cos(t), radius * math.sin(t), c * t])

    return SampledCurve(fn=fn, t0=0.0, t1=2.0 * math.pi * turns, closed=False)


def helix_total_curvature(radius: float = 1.0, pitch: float = math.pi,
                          turns: float = 2.0) -> float:
    """Closed form: constant curvature r/(r^2+c^2) times helix arclength."""
    c = pitch / (2.0 * math.pi)
    length = 2.0 * math.pi * turns * math.hypot(radius, c)
    return radius / (radius**2 + c**2) * length


def circle_curve(radius: float = 1.0) -> SampledCurve:
    def fn(t):
        return np.array([radius * math.cos(t), radius * math.sin(t)])

    return SampledCurve(fn=fn, t0=0.0, t1=2.0 * math.pi, closed=True)


def discrete_total_curvature_convergence(curve: SampledCurve, exact: float) -> dict:
    """Inscribed-polygon total curvature across the resolution ladder n = 8, 16, 32, 64.

    `exact` is the analytic curvature integral over the whole curve.  An open
    polygon only turns at its n-2 interior vertices, so its angle sum tracks
    the integral over that inner span; for the constant-density catalog curves
    (circles, helices) the span correction is the exact factor (n-2)/(n-1).
    The corrected residuals decrease at second order for smooth curves.
    """
    ns = (8, 16, 32, 64)
    values = [total_curvature(curve.polygon(n)) for n in ns]
    if curve.closed:
        targets = [exact] * len(ns)
    else:
        targets = [exact * (n - 2) / (n - 1) for n in ns]
    errs = [abs(t - v) for t, v in zip(targets, values)]
    return {
        "ns": list(ns),
        "values": values,
        "errors": errs,
        "decreasing": all(errs[i] >= errs[i + 1] - 1e-12 for i in range(len(errs) - 1)),
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# arm lemma

def convex_arc(side_lengths, angles) -> PolyCurve:
    """Planar arc with prescribed side lengths and external turning angles.

    ``angles[i]`` is the turn between edge i and edge i+1; all turns share one
    sign, so the arc is convex whenever the total turn stays at most pi.
    """
    sides = np.asarray(side_lengths, dtype=float)
    angs = np.asarray(angles, dtype=float)
    if len(angs) != len(sides) - 1:
        raise ValueError("need one angle per interior vertex")
    if np.any(sides <= 0) or np.any(angs < 0) or np.any(angs >= math.pi):
        raise ValueError("sides must be positive, angles in [0, pi)")
    return PolyCurve(vertices=_planar_arcs(sides[None], angs[None])[0], closed=False)


def _planar_arcs(sides: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Vertices (B, k+1, 2) of B planar arcs: sides (B, k), turns (B, k-1)."""
    headings = np.concatenate([np.zeros((len(sides), 1)), np.cumsum(angles, axis=1)], axis=1)
    steps = sides[:, :, None] * np.stack([np.cos(headings), np.sin(headings)], axis=2)
    return np.concatenate([np.zeros((len(sides), 1, 2)), np.cumsum(steps, axis=1)], axis=1)


def circular_arc(R: float, arc_length: float, n: int = 64) -> PolyCurve:
    """Inscribed polygon on a radius-R circle spanning the given arc length."""
    if arc_length > 2.0 * math.pi * R:
        raise ValueError("arc length exceeds the full circle")
    ts = np.linspace(0.0, arc_length / R, n)
    pts = R * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    return PolyCurve(vertices=pts, closed=False)


def _arm(q: np.ndarray, p: np.ndarray, tol: float = 1e-9) -> dict:
    """Columns of ``arm_check`` for stacks of arcs q (B, N, d) and p (B, M, d')."""
    eq, sides_q = _edges(q, closed=False)
    ep, sides_p = _edges(p, closed=False)
    turns_p = _turns(ep, sides_p, False)
    if sides_p.shape == sides_q.shape:
        lengths_match = np.all(np.abs(sides_p - sides_q) <= 1e-9, axis=1)
        dominate = lengths_match & np.all(_turns(eq, sides_q, False) <= turns_p + 1e-12, axis=1)
    else:
        lengths_match = dominate = np.zeros(len(p), dtype=bool)
    p_convex = _planar_same_turn(p, False, turns_p.sum(axis=1) <= math.pi + 1e-9)
    hyp = {"lengths_match": lengths_match, "p_convex_arc": p_convex,
           "q_angles_dominate": dominate}
    hypotheses_ok = lengths_match & p_convex & dominate
    dist_q, dist_p = _chord(q), _chord(p)
    slack = dist_q - dist_p
    return {
        "hypotheses": hyp,
        "hypotheses_ok": hypotheses_ok,
        "inequality_ok": hypotheses_ok & (slack >= -tol),
        "dist_p": dist_p,
        "dist_q": dist_q,
        "slack": slack,
    }


def arm_check(q: PolyCurve, p: PolyCurve, tol: float = 1e-9) -> dict:
    """Arm lemma: straightening a convex arc can only push its ends apart.

    ``p`` is a planar convex comparison arc; ``q`` shares its side lengths and
    turns no more than ``p`` at every vertex (vertex angles at least pi minus
    the matching turn of ``p``).  Conclusion: the end-to-end distance of ``q``
    is at least that of ``p``.  Hypotheses are reported per condition, not
    raised; a closed q or p raises ValueError.
    """
    if q.closed or p.closed:
        raise ValueError("arm_check needs an open curve")
    return _row(_arm(q.vertices[None], p.vertices[None], tol), 0)


def random_arm_instance(k: int, ambient_n: int = 3, seed: int = 0):
    """Random admissible arm-lemma pair (p, q).

    ``p`` is a random planar convex arc (positive turns, total below pi);
    ``q`` reuses its side lengths with each turn shrunk by a random factor and
    applied in a random bending plane of R^ambient_n.
    """
    [(_, p, q)] = _arm_stacks([k], [ambient_n], np.random.default_rng(seed))
    return PolyCurve(p[0]), PolyCurve(q[0])


def _arm_stacks(ks, ambients, rng):
    """``(members, p, q)`` per stack: an index array and the vertex stacks
    (B, k+1, 2) and (B, k+1, width) of those arm pairs, all drawn from the one
    generator ``rng``; ``random_arm_instance`` is the B = 1 call on
    ``default_rng(seed)``.

    Pairs are stacked by (k, max(ambient, 7)), stacks in the order their key
    first appears.  Each stack draws, in this order: the sides
    ``uniform(0.2, 1.0, (B, k))``; p's turns c ``uniform(0.05, 1.0, (B, k-1))``,
    scaled to sum to pi times ``uniform(0.3, 0.95, (B, 1))``; q's turn factors
    ``uniform(0.0, 1.0, (B, k-1))``; the bending normals
    ``standard_normal((B, k-1, width))``, width the widest ambient of the stack.
    Normal columns at or past a pair's ambient are set to +0.0, and so are q's
    trailing coordinates.  numpy sums a row of fewer than 8 terms in order, so
    the padding leaves every norm and dot of an ambient up to 7 bit-identical; a
    wider ambient keeps a stack of its own."""
    _same_lengths(ks=ks, ambients=ambients)
    ks, ambients = np.asarray(ks, dtype=int), np.asarray(ambients, dtype=int)
    if np.any(ks < 3) or np.any(ambients < 2):
        raise ValueError("k >= 3 and ambient_n >= 2 required")
    groups = {}
    for i, key in enumerate(zip(ks.tolist(), np.maximum(ambients, 7).tolist())):
        groups.setdefault(key, []).append(i)
    out = []
    for (k, _), members in groups.items():
        members = np.array(members)
        B, amb = len(members), ambients[members, None, None]
        sides = rng.uniform(0.2, 1.0, (B, k))
        c = rng.uniform(0.05, 1.0, (B, k - 1))
        c *= rng.uniform(0.3, 0.95, (B, 1)) * math.pi / c.sum(axis=1, keepdims=True)
        turns_q = c * rng.uniform(0.0, 1.0, (B, k - 1))
        width = amb.max()
        raws = np.where(np.arange(width) < amb, rng.standard_normal((B, k - 1, width)), 0.0)
        out.append((members, _planar_arcs(sides, c), _spatial_arcs(sides, turns_q, raws)))
    return out


def _random_arm_summary(ks, ambients, rng, tol: float = 1e-9):
    """(all hypotheses and inequalities hold, least slack) over random arm instances."""
    all_ok, worst = True, math.inf
    for _, p, q in _arm_stacks(ks, ambients, rng):
        res = _arm(q, p, tol)
        all_ok &= bool(np.all(res["inequality_ok"]))
        worst = min(worst, float(res["slack"].min()))
    return all_ok, worst


def _same_lengths(**seqs) -> None:
    if len({len(v) for v in seqs.values()}) > 1:
        raise ValueError(f"{', '.join(seqs)} must have equal lengths")


def _spatial_arcs(sides, turns, raws) -> np.ndarray:
    """Vertices (B, k+1, ambient) of B arcs with given side lengths and turns.

    ``sides`` is (B, k), ``turns`` (B, k-1) and ``raws`` (B, k-1, ambient).
    Each arc starts at the origin heading along e_0.  At step i the tangent
    turns by ``turns[:, i]`` towards the part of ``raws[:, i]`` orthogonal to
    it, or towards e_1 when that part is shorter than 1e-12.  The recurrence
    is sequential along an arc, so it runs once per step over all B arcs.
    Row dots are ``np.vecdot``, one BLAS dot per row like a 1-D ``@``:
    ``einsum`` or a plain sum adds in another order and moves the last bit.
    """
    B, k = sides.shape
    ambient_n = raws.shape[2]
    fallback = np.zeros(ambient_n)
    fallback[1] = 1.0
    cos, sin = np.cos(turns), np.sin(turns)
    tangents = np.zeros((B, k, ambient_n))
    tangents[:, 0, 0] = 1.0
    tangent = tangents[:, 0]
    for i in range(k - 1):
        raw = raws[:, i]
        perp = raw - np.vecdot(raw, tangent)[:, None] * tangent
        nperp = np.sqrt(np.vecdot(perp, perp))
        flat = nperp < 1e-12
        perp = np.where(flat[:, None], fallback,
                        perp / np.where(flat, 1.0, nperp)[:, None])
        tangent = cos[:, i, None] * tangent + sin[:, i, None] * perp
        tangent = tangent / np.sqrt(np.vecdot(tangent, tangent))[:, None]
        tangents[:, i + 1] = tangent
    steps = np.cumsum(sides[:, :, None] * tangents, axis=1)
    return np.concatenate([np.zeros((B, 1, ambient_n)), steps], axis=1)


# ---------------------------------------------------------------------------
# bow inequality

def _bow(v: np.ndarray, R: np.ndarray, tol: float = 1e-9) -> dict:
    """Columns of ``bow_check`` for a stack of open curves with radii R (B,),
    the chord columns filled also where the curvature precondition fails."""
    e, sides = _edges(v, closed=False)
    L = sides.sum(axis=1)
    spacing = 0.5 * (sides[:, :-1] + sides[:, 1:])
    discrete_curv = np.max(_turns(e, sides, False) / spacing, axis=1, initial=0.0)
    curv_ok = (discrete_curv <= 1.001 / R) & (L <= 2.0 * math.pi * R + tol)
    chord = _chord(v)
    bound = 2.0 * R * np.sin(L / (2.0 * R))
    slack = chord - bound
    tight = curv_ok & (np.abs(slack) < 1e-6)
    if tight.any():
        tight[tight] = _planar_projection(v[tight], tol=1e-4)[1]
    return {
        "curv_ok": curv_ok,
        "max_discrete_curv": discrete_curv,
        "length": L,
        "chord": chord,
        "bound": bound,
        "chord_ok": chord >= bound - tol,
        "slack": slack,
        "equality": tight,
    }


def bow_check(curve: PolyCurve, R: float, tol: float = 1e-9) -> dict:
    """Chord bound for a curve whose curvature stays at most 1/R.

    Discrete curvature at a vertex is the external angle divided by the mean
    of the adjacent side lengths.  When the curvature precondition (at most
    1.001/R) or the length bound (at most 2 pi R) fails, the chord check is
    skipped rather than raised.  Conclusion: chord >= 2 R sin(length / 2R);
    equality is flagged for planar circular arcs.  R and 2 pi R must be
    finite and positive, and the curve open.
    """
    if curve.closed:
        raise ValueError("bow_check needs an open curve")
    if not (0.0 < R and 2.0 * math.pi * R < math.inf):
        raise ValueError(f"curvature radius R must be finite and positive (2 pi R too), got {R}")
    out = _row(_bow(curve.vertices[None], np.array([R]), tol), 0)
    if not out["curv_ok"]:
        del out["chord"], out["bound"]
        out.update(chord_ok=None, slack=None, equality=None)
    return out


def random_bounded_curve(R: float, length: float, n: int = 200, dim: int = 3,
                         seed: int = 0) -> PolyCurve:
    """Random polygon with discrete curvature below 1/R, by frame integration.

    The unit tangent random-walks on the sphere, each per-step turn drawn
    under the step/R admissibility cap.
    """
    return PolyCurve(_bounded_arcs([R], [length], n, dim, np.random.default_rng(seed))[0])


def _bounded_arcs(Rs, lengths, n: int, dim: int, rng) -> np.ndarray:
    """Vertex stack (B, n+1, dim) of random bounded curves at radii ``Rs`` and
    lengths ``lengths``, all drawn from the one generator ``rng``: first the
    turns ``uniform(0.0, h/R, (B, n-1))`` with h = length/n, then the bending
    normals ``standard_normal((B, n-1, dim))``; one tangent recurrence.
    ``random_bounded_curve`` is the B = 1 call on ``default_rng(seed)``."""
    _same_lengths(Rs=Rs, lengths=lengths)
    Rs, lengths = np.asarray(Rs, dtype=float), np.asarray(lengths, dtype=float)
    if n < 1:
        raise ValueError(f"n >= 1 steps required, got {n}")
    if not np.all((0.0 < lengths) & (lengths <= 2.0 * math.pi * Rs)):
        raise ValueError("length must be positive and at most 2*pi*R")
    h = lengths / n
    turns = rng.uniform(0.0, (h / Rs)[:, None], (len(Rs), n - 1))
    raws = rng.standard_normal((len(Rs), n - 1, dim))
    return _spatial_arcs(np.broadcast_to(h[:, None], (len(Rs), n)), turns, raws)


# ---------------------------------------------------------------------------
# integral geometry

# Elements of one (edges, directions) block: 2^17 float64 is 1 MiB, so a block
# of dots stays in cache whatever the edge count (256 directions for a 512-gon)
# and a short polygon still takes long blocks.  Each round's single draw is
# unchanged, so counts and resamples do not depend on the block size.
_CROFTON_BLOCK_ELEMS = 1 << 17


def crofton_check(curve: PolyCurve, n_dirs: int = 10_000, seed: int = 0) -> dict:
    """Height-function critical points versus total curvature, Monte Carlo.

    For a closed curve, the integral over unit directions r (total measure
    4 pi) of the number of critical points of the height function <r, .>
    equals 4 times the total curvature.  Critical points are counted as sign
    changes of <tangent, r> along the edge cycle; directions hitting a tie are
    resampled and counted.  Each round's directions are scored in blocks of
    about 2^17 (edges x directions) dots; the result does not depend on the
    block size.
    """
    if not curve.closed:
        raise ValueError("crofton_check needs a closed curve")
    e, lengths = _edges(curve.vertices[None], closed=True)
    u = e[0] / lengths[0, :, None]
    if u.shape[1] == 2:
        u = np.hstack([u, np.zeros((u.shape[0], 1))])
    elif u.shape[1] != 3:
        raise ValueError("curve must live in R^2 or R^3")
    rng = np.random.default_rng(seed)
    step = max(1, _CROFTON_BLOCK_ELEMS // len(u))
    resampled = 0
    counts = np.empty(n_dirs)
    filled = 0
    while filled < n_dirs:
        batch = rng.standard_normal((n_dirs - filled, 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        for start in range(0, batch.shape[0], step):
            dots = u @ batch[start:start + step].T
            up = dots > 0  # a generic direction has no zero dot, so this is its sign
            generic = np.abs(dots, out=dots).min(axis=0) > 1e-9
            resampled += int(np.count_nonzero(~generic))
            good = (np.count_nonzero(up[1:] != up[:-1], axis=0) + (up[0] != up[-1]))[generic]
            counts[filled:filled + good.shape[0]] = good
            filled += good.shape[0]
    mc_estimate = 4.0 * math.pi * float(counts.mean())
    target = 4.0 * total_curvature(curve)
    return {
        "mc_estimate": mc_estimate,
        "target": target,
        "rel_err": abs(mc_estimate - target) / target,
        "n_dirs": n_dirs,
        "resampled": resampled,
    }


# ---------------------------------------------------------------------------
# I/O

def curve_from_json(data) -> PolyCurve:
    """Parse {"vertices": [[x, ...], ...], "closed": bool}; malformed input raises ValueError.

    "closed" must be JSON true or false; a missing key means an open curve.  Any
    other key is an error ("curve 'closd': unknown key").
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("curve must be a JSON object with a 'vertices' list")
    vertices, = _fields("curve", data, (("vertices", _list(_list(_real))),), also=("closed",))
    if len({len(p) for p in vertices}) > 1:
        raise ValueError("curve 'vertices' must be equal-length rows of numbers")
    closed = data.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"curve 'closed' must be true or false, got {json.dumps(closed)}")
    return PolyCurve(vertices=np.array(vertices), closed=closed)


def curve_from_csv(text: str) -> PolyCurve:
    """An open curve, one vertex per row after an optional header, by curve_from_json's parser."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]  # header
    return curve_from_json({"vertices": rows})


def _is_number(s: str) -> bool:
    for parse in (float, _real):  # float for "nan" and "inf", _real for "p/q"
        try:
            parse(s)
            return True
        except ValueError:
            pass
    return False
