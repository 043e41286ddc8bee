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
from functools import cached_property

import numpy as np

__all__ = [
    "PolyCurve",
    "SampledCurve",
    "external_angles",
    "total_curvature",
    "fenchel_check",
    "discrete_total_curvature_convergence",
    "convex_arc",
    "circular_arc",
    "is_convex_arc",
    "arm_check",
    "random_arm_instance",
    "random_arm_instances",
    "bow_check",
    "random_bounded_curve",
    "random_bounded_curves",
    "crofton_check",
    "curve_from_json",
    "curve_to_json",
    "curve_from_csv",
    "curve_to_csv",
    "helix",
    "helix_total_curvature",
    "circle_curve",
]


@dataclass(frozen=True)
class PolyCurve:
    """Polygonal curve: ordered vertices, optionally closed."""

    vertices: np.ndarray  # N x d
    closed: bool = False

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("need at least two vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if self.closed and v.shape[0] < 3:
            raise ValueError("closed curve needs at least three vertices")
        if np.any(self._side_lengths < 1e-12):
            raise ValueError("degenerate (zero-length) edge")

    @cached_property
    def edges(self) -> np.ndarray:
        """Edge vectors, the closing edge last if closed; built once, read-only."""
        e = np.diff(self.vertices, axis=0)
        if self.closed:
            e = np.vstack([e, self.vertices[0] - self.vertices[-1]])
        e.flags.writeable = False
        return e

    @cached_property
    def _side_lengths(self) -> np.ndarray:
        lengths = np.linalg.norm(self.edges, axis=1)
        lengths.flags.writeable = False
        return lengths

    def length(self) -> float:
        return float(self._side_lengths.sum())

    def side_lengths(self) -> np.ndarray:
        """Edge lengths, in edge order (read-only)."""
        return self._side_lengths

    def chord(self) -> float:
        return float(np.linalg.norm(self.vertices[-1] - self.vertices[0]))


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


def external_angles(curve: PolyCurve) -> np.ndarray:
    """Turning angle in [0, pi] at each interior vertex (all vertices if closed)."""
    u = curve.edges / curve._side_lengths[:, None]
    if curve.closed:
        cos = np.einsum("ij,ij->i", u, np.roll(u, -1, axis=0))
    else:
        cos = np.einsum("ij,ij->i", u[:-1], u[1:])
    return np.arccos(np.clip(cos, -1.0, 1.0))


def total_curvature(curve: PolyCurve) -> float:
    """Sum of external angles."""
    return float(external_angles(curve).sum())


def _planar_projection(v: np.ndarray, tol: float = 1e-6):
    """Project to a best-fit plane; None if the points are not coplanar."""
    c = v - v.mean(axis=0)
    if v.shape[1] == 2:
        return c
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    if s.shape[0] > 2 and s[2] > tol * max(s[0], 1.0):
        return None
    return c @ vt[:2].T


def _planar_same_turn(curve: PolyCurve, tol: float = 1e-9) -> bool:
    """Planar, with every turn of one sign (cyclically for a closed curve)."""
    v2 = _planar_projection(curve.vertices)
    if v2 is None:
        return False
    if curve.closed:
        v2 = np.vstack([v2, v2[:2]])
    e = np.diff(v2, axis=0)
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    return bool(np.all(cross >= -tol) or np.all(cross <= tol))


def fenchel_check(curve: PolyCurve) -> dict:
    """Total curvature of a closed polygon against the 2*pi lower bound.

    The equality case flags convex planar polygons, where the bound is tight.
    """
    if not curve.closed:
        raise ValueError("fenchel_check needs a closed curve")
    tk = total_curvature(curve)
    return {
        "total_curvature": tk,
        "bound": 2.0 * math.pi,
        "ok": tk >= 2.0 * math.pi - 1e-9,
        "slack": tk - 2.0 * math.pi,
        "convex_planar": _planar_same_turn(curve) and abs(tk - 2.0 * math.pi) < 1e-7,
    }


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


def discrete_total_curvature_convergence(curve: SampledCurve, exact: float,
                                         ns=(8, 16, 32, 64)) -> dict:
    """Inscribed-polygon total curvature across a resolution ladder.

    `exact` is the analytic curvature integral over the whole curve.  An open
    polygon only turns at its n-2 interior vertices, so its angle sum tracks
    the integral over that inner span; for the constant-density catalog curves
    (circles, helices) the span correction is the exact factor (n-2)/(n-1).
    The corrected residuals decrease at second order for smooth curves.
    """
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
    headings = np.concatenate([[0.0], np.cumsum(angs)])
    steps = sides[:, None] * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    return PolyCurve(vertices=np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]),
                     closed=False)


def circular_arc(R: float, arc_length: float, n: int = 64) -> PolyCurve:
    """Inscribed polygon on a radius-R circle spanning the given arc length."""
    if arc_length > 2.0 * math.pi * R:
        raise ValueError("arc length exceeds the full circle")
    ts = np.linspace(0.0, arc_length / R, n)
    pts = R * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    return PolyCurve(vertices=pts, closed=False)


def is_convex_arc(curve: PolyCurve, tol: float = 1e-9) -> bool:
    """Planar, same-sign turning, total turn at most pi."""
    return _planar_same_turn(curve, tol) and total_curvature(curve) <= math.pi + 1e-9


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
    sides_p = p.side_lengths()
    sides_q = q.side_lengths()
    hyp = {
        "lengths_match": sides_p.shape == sides_q.shape
        and bool(np.all(np.abs(sides_p - sides_q) <= 1e-9)),
        "p_convex_arc": is_convex_arc(p),
    }
    if hyp["lengths_match"]:
        cp = external_angles(p)
        cq = external_angles(q)
        hyp["q_angles_dominate"] = bool(np.all(cq <= cp + 1e-12))
    else:
        hyp["q_angles_dominate"] = False
    hypotheses_ok = all(hyp.values())
    dist_q, dist_p = q.chord(), p.chord()
    slack = dist_q - dist_p
    return {
        "hypotheses": hyp,
        "hypotheses_ok": hypotheses_ok,
        "inequality_ok": hypotheses_ok and slack >= -tol,
        "dist_p": dist_p,
        "dist_q": dist_q,
        "slack": slack,
    }


def random_arm_instance(k: int, ambient_n: int = 3, seed: int = 0):
    """Random admissible arm-lemma pair (p, q).

    ``p`` is a random planar convex arc (positive turns, total below pi);
    ``q`` reuses its side lengths with each turn shrunk by a random factor and
    applied in a random bending plane of R^ambient_n.
    """
    return random_arm_instances([k], [ambient_n], [seed])[0]


def random_arm_instances(ks, ambients, seeds) -> list[tuple[PolyCurve, PolyCurve]]:
    """``random_arm_instance(ks[i], ambients[i], seeds[i])`` for every i, in order.

    Each instance draws from its own ``default_rng(seeds[i])`` exactly as the
    one-instance call does.  Instances of equal (k, ambient) share one run of
    the tangent recurrence (``_spatial_arcs``), so the result is the same pair
    list a loop over ``random_arm_instance`` gives, bit for bit.
    """
    _same_lengths(ks=ks, ambients=ambients, seeds=seeds)
    if any(k < 3 or amb < 2 for k, amb in zip(ks, ambients)):
        raise ValueError("k >= 3 and ambient_n >= 2 required")
    ps, q_draws, groups = [], [], {}
    for i, (k, amb, seed) in enumerate(zip(ks, ambients, seeds)):
        rng = np.random.default_rng(seed)
        sides = rng.uniform(0.2, 1.0, size=k)
        c = rng.uniform(0.05, 1.0, size=k - 1)
        c *= rng.uniform(0.3, 0.95) * math.pi / c.sum()
        ps.append(convex_arc(sides, c))
        turns_q = c * rng.uniform(0.0, 1.0, size=k - 1)
        q_draws.append((sides, turns_q, rng.standard_normal((k - 1, amb))))
        groups.setdefault((k, amb), []).append(i)
    qs = [None] * len(ps)
    for members in groups.values():
        sides, turns, raws = (np.stack(a) for a in zip(*(q_draws[i] for i in members)))
        for i, vertices in zip(members, _spatial_arcs(sides, turns, raws)):
            qs[i] = PolyCurve(vertices=vertices, closed=False)
    return list(zip(ps, qs))


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

def bow_check(curve: PolyCurve, R: float, tol: float = 1e-9,
              curv_tol: float = 1e-3) -> dict:
    """Chord bound for a curve whose curvature stays at most 1/R.

    Discrete curvature at a vertex is the external angle divided by the mean
    of the adjacent side lengths.  When the curvature precondition or the
    length bound (at most 2 pi R) fails, the chord check is skipped rather
    than raised.  Conclusion: chord >= 2 R sin(length / 2R); equality is
    flagged for planar circular arcs.  R must be finite and positive, and the
    curve open.
    """
    if curve.closed:
        raise ValueError("bow_check needs an open curve")
    if not (0.0 < R < math.inf):
        raise ValueError(f"curvature radius R must be finite and positive, got {R}")
    L = curve.length()
    angs = external_angles(curve)
    sides = curve.side_lengths()
    spacing = 0.5 * (sides[:-1] + sides[1:])
    discrete_curv = float(np.max(angs / spacing)) if len(angs) else 0.0
    curv_ok = discrete_curv <= (1.0 + curv_tol) / R and L <= 2.0 * math.pi * R + tol
    out = {
        "curv_ok": curv_ok,
        "max_discrete_curv": discrete_curv,
        "length": L,
        "chord_ok": None,
        "slack": None,
        "equality": None,
    }
    if not curv_ok:
        return out
    chord = curve.chord()
    bound = 2.0 * R * math.sin(L / (2.0 * R))
    planar = _planar_projection(curve.vertices, tol=1e-4) is not None
    out.update({
        "chord": chord,
        "bound": bound,
        "chord_ok": chord >= bound - tol,
        "slack": chord - bound,
        "equality": abs(chord - bound) < 1e-6 and planar,
    })
    return out


def random_bounded_curve(R: float, length: float, n: int = 200, dim: int = 3,
                         seed: int = 0) -> PolyCurve:
    """Random polygon with discrete curvature below 1/R, by frame integration.

    The unit tangent random-walks on the sphere, each per-step turn drawn
    under the step/R admissibility cap.
    """
    return random_bounded_curves([R], [length], n, dim, [seed])[0]


def random_bounded_curves(Rs, lengths, n: int, dim: int, seeds) -> list[PolyCurve]:
    """``random_bounded_curve(Rs[i], lengths[i], n, dim, seeds[i])`` for every i, in order.

    Each curve draws from its own ``default_rng(seeds[i])`` exactly as the
    one-curve call does; all curves share one run of the tangent recurrence
    (``_spatial_arcs``), bit for bit the same vertices.
    """
    _same_lengths(Rs=Rs, lengths=lengths, seeds=seeds)
    if any(length > 2.0 * math.pi * R for R, length in zip(Rs, lengths)):
        raise ValueError("length must be at most 2*pi*R")
    sides = np.empty((len(Rs), n))
    turns = np.empty((len(Rs), n - 1))
    raws = np.empty((len(Rs), n - 1, dim))
    for i, (R, length, seed) in enumerate(zip(Rs, lengths, seeds)):
        rng = np.random.default_rng(seed)
        h = length / n
        sides[i] = h
        turns[i] = rng.uniform(0.0, h / R, size=n - 1)
        raws[i] = rng.standard_normal((n - 1, dim))
    return [PolyCurve(vertices=v, closed=False) for v in _spatial_arcs(sides, turns, raws)]


# ---------------------------------------------------------------------------
# integral geometry

# Directions per evaluation block: the (edges, block) arrays stay a few MB
# whatever n_dirs is.  Each round's single draw is unchanged, so counts and
# resamples do not depend on the block size.
_CROFTON_BLOCK = 1024


def crofton_check(curve: PolyCurve, n_dirs: int = 10_000, seed: int = 0) -> dict:
    """Height-function critical points versus total curvature, Monte Carlo.

    For a closed curve, the integral over unit directions r (total measure
    4 pi) of the number of critical points of the height function <r, .>
    equals 4 times the total curvature.  Critical points are counted as sign
    changes of <tangent, r> along the edge cycle; directions hitting a tie are
    resampled and counted.
    """
    if not curve.closed:
        raise ValueError("crofton_check needs a closed curve")
    u = curve.edges / curve._side_lengths[:, None]
    if u.shape[1] == 2:
        u = np.hstack([u, np.zeros((u.shape[0], 1))])
    elif u.shape[1] != 3:
        raise ValueError("curve must live in R^2 or R^3")
    rng = np.random.default_rng(seed)
    resampled = 0
    counts = np.empty(n_dirs)
    filled = 0
    while filled < n_dirs:
        batch = rng.standard_normal((n_dirs - filled, 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        for start in range(0, batch.shape[0], _CROFTON_BLOCK):
            dots = u @ batch[start:start + _CROFTON_BLOCK].T
            generic = np.min(np.abs(dots), axis=0) > 1e-9
            resampled += int((~generic).sum())
            s = np.sign(dots[:, generic])
            good = (s != np.roll(s, -1, axis=0)).sum(axis=0)
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

    "closed" must be JSON true or false; a missing key means an open curve.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("curve must be a JSON object with a 'vertices' list")
    try:
        vertices = np.asarray(data["vertices"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("curve 'vertices' must be equal-length rows of numbers") from None
    closed = data.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"curve 'closed' must be true or false, got {json.dumps(closed)}")
    return PolyCurve(vertices=vertices, closed=closed)


def curve_to_json(curve: PolyCurve) -> dict:
    return {"vertices": curve.vertices.tolist(), "closed": curve.closed}


def curve_from_csv(text: str, closed: bool = False) -> PolyCurve:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]  # header
    pts = np.array([[float(x) for x in r] for r in rows])
    return PolyCurve(vertices=pts, closed=closed)


def curve_to_csv(curve: PolyCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([f"x{i}" for i in range(curve.vertices.shape[1])])
    for row in curve.vertices:
        w.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
