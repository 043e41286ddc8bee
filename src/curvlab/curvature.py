"""Numerical differential-geometry engine.

Induced metric, second fundamental form, normal curvature (directional, at a
point, and global over sampled basepoints), mean curvature, the degree-4
averaged curvature invariant Pi with its Monte-Carlo cross-check, Gauss-formula
scalar curvature, focal radius, and the Gauss-map finite-difference cross-check.

All functions are pure; Monte-Carlo routines are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .immersions import ImmersionSpec, Jet2, jet2, sample_params

__all__ = [
    "FundamentalData",
    "fundamental_data",
    "curv_dir",
    "normal_curvature_at",
    "normal_curvature_global",
    "mean_curvature",
    "petrunin_pi",
    "petrunin_pi_mc",
    "scalar_curvature_gauss",
    "scalar_curvature_petrunin",
    "second_form_l2_sq",
    "focal_radius",
    "spherical_curvature",
    "gauss_map_diff_norm",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0xC0FFEE

_ZERO_FORM_TOL = 1e-14
_STATIONARY_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalData:
    """First and second fundamental forms of an immersion at a point.

    g is the induced metric J^T J;  II[:, i, j] is the ambient-vector-valued
    normal projection of the Hessian;  frame is an ambient-orthonormal basis of
    the tangent plane (columns);  whitener maps g-orthonormal coordinates to
    parameter coordinates (g^{-1/2}).
    """

    g: np.ndarray
    II: np.ndarray
    frame: np.ndarray
    whitener: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def whitened_form(self) -> np.ndarray:
        """II in g-orthonormal tangent coordinates, shape N x n x n."""
        W = self.whitener
        return np.einsum("cij,ia,jb->cab", self.II, W, W)


def fundamental_data(jet: Jet2) -> FundamentalData:
    J, H = jet.jac, jet.hess
    g = J.T @ J
    evals, evecs = np.linalg.eigh(g)
    if evals[0] <= 1e-18 * max(evals[-1], 1.0):
        raise ValueError("rank-deficient Jacobian: not an immersion point")
    # tangential projector via a thin QR frame; P_perp = I - Q Q^T
    Q, _ = np.linalg.qr(J)
    II = H - np.einsum("ca,ab,bij->cij", Q, Q.T, H)
    whitener = evecs @ np.diag(evals**-0.5) @ evecs.T  # g^{-1/2}
    return FundamentalData(g=g, II=II, frame=Q, whitener=whitener)


def curv_dir(fd: FundamentalData, tau) -> float:
    """||II(t, t)|| for the g-unit direction t along tau."""
    tau = np.asarray(tau, dtype=float).reshape(-1)
    q = float(tau @ fd.g @ tau)
    if q <= 0.0 or not np.isfinite(q):
        raise ValueError("tangent direction must be nonzero")
    t = tau / math.sqrt(q)
    v = np.einsum("cij,i,j->c", fd.II, t, t)
    return float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# direction search

def _direction_grid(n: int, density: int, rng: np.random.Generator) -> np.ndarray:
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        ang = np.linspace(0.0, math.pi, density, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        # Fibonacci lattice on S^2
        k = np.arange(density)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * (k + 0.5) / density
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = rng.standard_normal((density, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


_N_STARTS = 8
_GRID_BLOCK = 4096  # most directions per grid block
_BLOCK_FLOATS = 1 << 18  # bound on a block's (directions, B, C) values


def _quartic(M: np.ndarray, w: np.ndarray):
    """V = M_c w, q_c = w^T M_c w and F = sum_c q_c^2 for every lane.

    M is (B, C, n, n) and w is (B, K, n): K lanes per basepoint.
    """
    V = np.einsum("bcij,bkj->bkci", M, w)
    q = np.einsum("bkci,bki->bkc", V, w)
    return V, q, np.einsum("bkc,bkc->bk", q, q)


def _grid_starts(M: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The best grid directions of every basepoint, best first: (B, K, n).

    F(d) = |A m(d)|^2, where m(d) holds the quadratic monomials d_i d_j
    (i <= j) and row c of A the matching entries of M_c, off-diagonal ones
    doubled.  With A = U S V^T, |A m| = |S V^T m|; the rows of S V^T past the
    numerical rank are dropped, so a basepoint carries at most min(C - n, P)
    rows (q lies in the normal space) whatever its ambient dimension C.  The
    grid goes through as a matrix product, block by block, a block holding at
    most _BLOCK_FLOATS values, and only a running top K per basepoint is kept.
    """
    iu, ju = np.triu_indices(M.shape[-1])
    A = M[:, :, iu, ju] * np.where(iu == ju, 1.0, 2.0)
    _, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank = max(1, int((sv > 1e-14 * sv[:, :1]).sum(axis=1).max()))
    R = sv[:, :rank, None] * Vt[:, :rank]
    B, C = R.shape[:2]
    coef = R.reshape(B * C, -1)
    rows = min(_GRID_BLOCK, max(1, _BLOCK_FLOATS // (B * C)))
    k = min(_N_STARTS, len(dirs))
    top_val = np.empty((B, 0))
    top_idx = np.empty((B, 0), dtype=np.intp)
    for s in range(0, len(dirs), rows):
        d = dirs[s:s + rows].T
        q = (coef @ (d[iu] * d[ju])).reshape(B, C, -1)
        F = np.einsum("bcs,bcs->bs", q, q)
        cut = max(F.shape[1] - k, 0)
        blk = np.argpartition(F, cut, axis=1)[:, cut:]
        vals = np.concatenate([top_val, np.take_along_axis(F, blk, axis=1)], axis=1)
        idx = np.concatenate([top_idx, blk + s], axis=1)
        keep = np.argpartition(vals, vals.shape[1] - k, axis=1)[:, -k:]
        top_val = np.take_along_axis(vals, keep, axis=1)
        top_idx = np.take_along_axis(idx, keep, axis=1)
    order = np.argsort(-top_val, axis=1, kind="stable")
    return dirs[np.take_along_axis(top_idx, order, axis=1)]


def _ascend(M: np.ndarray, w: np.ndarray, iters: int, tol: float):
    """Monotone ascent of F(w) = sum_c (w^T M_c w)^2 on the sphere, all lanes at once.

    G = sum_c q_c M_c w is grad F / 4.  The eigenpairs (p_i, u_i) of the
    Hessian projected to the tangent space at w choose each lane's step:
    where every p_i < 4F (F is concave on the sphere there), the Newton step
    w + sum_i u_i 4 u_i^T (G - F w) / (4F - p_i); elsewhere the shifted power
    step G + alpha w, alpha the smallest shift that makes the projected
    Hessian of F + alpha |w|^4 positive definite (the adaptive shift of GEAP,
    Kolda & Mayo 2014).  A lane whose Newton step would lower F takes the power
    step, and one whose power step would, the power step with
    alpha = 3 sum_c |M_c|_F^2; that bounds 3 max rho(Hess F / 12) on the
    sphere, so SS-HOPM (Kolda & Mayo 2011) ascends monotonically.  "Lower"
    means by more than the rounding error of evaluating F: near a maximum F is
    flat to rounding while the gradient is still ~sqrt(eps).  A lane stops
    once the tangential gradient of sqrt(F), 2 |G - F w| / sqrt(F), is at most
    tol.  Returns (F, w).
    """
    n = w.shape[-1]
    shift_km = 3.0 * np.einsum("bcij,bcij->b", M, M)[:, None]
    # puts the radial eigenvalue last: rho(Hess F) <= 4 shift_km
    radial = 8.0 * shift_km[..., None, None]
    tau = 1e-6 * shift_km  # margin that keeps a shifted Hessian definite
    # bound on the rounding error of two evaluations of F (|q_c| <= |M_c|_F)
    noise = 4.0 * n * np.finfo(float).eps * shift_km
    eye = np.eye(n)
    active = np.ones(w.shape[:2], dtype=bool)
    for _ in range(iters):
        V, q, F = _quartic(M, w)
        G = np.einsum("bkc,bkci->bki", q, V)
        resid = G - F[..., None] * w
        active &= 2.0 * np.linalg.norm(resid, axis=-1) > tol * np.sqrt(F)
        if not active.any():
            break
        hess = 8.0 * np.einsum("bkci,bkcj->bkij", V, V) \
            + 4.0 * np.einsum("bkc,bcij->bkij", q, M)
        ww = w[..., :, None] * w[..., None, :]
        proj = eye - ww
        lam, U = np.linalg.eigh(proj @ hess @ proj + radial * ww)
        lam, U = lam[..., :-1], U[..., :-1]
        gap = 4.0 * F[..., None] - lam
        newton = gap[..., -1] > tau
        coord = 4.0 * np.einsum("bkin,bki->bkn", U, resid) \
            / np.where(newton[..., None], gap, 1.0)
        shift = np.maximum(0.0, 0.25 * (tau - lam[..., 0]))
        power = G + shift[..., None] * w
        steps = (np.where(newton[..., None], w + np.einsum("bkin,bkn->bki", U, coord), power),
                 power, G + shift_km[..., None] * w)
        w1, F1 = w, np.full_like(F, -np.inf)
        for step in steps:  # each lane keeps the first step that does not lower F
            drop = F1 < F - noise
            if not drop.any():
                break
            w2 = step / np.linalg.norm(step, axis=-1, keepdims=True)
            w1 = np.where(drop[..., None], w2, w1)
            F1 = np.where(drop, _quartic(M, w2)[2], F1)
        active &= F1 >= F - noise
        w = np.where(active[..., None], w1, w)
    return _quartic(M, w)[2], w


def _direction_search(M: np.ndarray, grid_density: int | None, polish_iters: int,
                      tol: float, seed: int):
    """Max over unit w of F_b(w) = sum_c (w^T M_bc w)^2 for a (B, C, n, n) stack.

    One direction grid, drawn from default_rng(seed), serves every basepoint;
    its best _N_STARTS directions per basepoint start the ascent, all lanes at
    once.  Returns F (B,) and the maximizing unit directions (B, n); a form
    below _ZERO_FORM_TOL gives F = 0 along e_0.
    """
    B, _, n, _ = M.shape
    if n > 6:
        raise ValueError("direction search supports intrinsic dimension <= 6")
    if grid_density is None:
        grid_density = 10_000 if n <= 3 else 100_000
    if grid_density < 1:
        raise ValueError("grid density must be positive")
    F = np.zeros(B)
    w = np.zeros((B, n))
    w[:, 0] = 1.0
    live = np.sqrt(np.einsum("bcij,bcij->b", M, M)) >= _ZERO_FORM_TOL
    if live.any():
        dirs = _direction_grid(n, grid_density, np.random.default_rng(seed))
        Fk, wk = _ascend(M[live], _grid_starts(M[live], dirs), polish_iters, tol)
        best = np.argmax(Fk, axis=1)
        F[live] = Fk[np.arange(len(best)), best]
        w[live] = wk[np.arange(len(best)), best]
    return F, w


def normal_curvature_at(
    fd: FundamentalData,
    grid_density: int | None = None,
    polish_iters: int = 120,
    tol: float = _STATIONARY_TOL,
    seed: int = DEFAULT_SEED,
    return_direction: bool = False,
):
    """max over g-unit tangent directions of ||II(t,t)||.

    What the value certifies: it is ||II(t,t)|| at a g-unit direction t that
    was found, so it is a lower bound on the sup, never an upper bound.  It is
    at least the best value over the direction grid (``grid_density``
    directions, by default 10k for n <= 3 and 100k above, drawn from
    ``seed``), because the 8 best grid directions start a monotone ascent:
    Newton steps where ||II||^2 is concave on the unit sphere, shifted power
    steps (SS-HOPM with an adaptive shift) elsewhere.  Each start stops once
    the tangential gradient of ||II(t,t)|| is at most ``tol``, so t is
    stationary to ``tol`` unless ``polish_iters`` steps ran out first.  A
    stationary point can be a lesser local maximum that no grid start led
    away from.  Raises ValueError for intrinsic dimension above 6.
    """
    F, w = _direction_search(fd.whitened_form()[None], grid_density,
                             polish_iters, tol, seed)
    curv = math.sqrt(F[0])  # F = ||II(w,w)||^2 = curv^2
    if return_direction:
        return curv, fd.whitener @ w[0]
    return curv


def normal_curvature_global(
    spec: ImmersionSpec,
    n_points: int = 20,
    seed: int = DEFAULT_SEED,
    grid_density: int | None = None,
    polish_iters: int = 120,
) -> dict:
    """Supremum of the pointwise normal curvature over sampled basepoints.

    Each basepoint's value is the one normal_curvature_at gives at the same
    seed; the direction searches run as one batch over all basepoints.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    rng = np.random.default_rng(seed)
    M = np.stack([fundamental_data(jet2(spec, u)).whitened_form()
                  for u in sample_params(spec, n_points, rng)])
    F, _ = _direction_search(M, grid_density, polish_iters, _STATIONARY_TOL, seed)
    vals = np.sqrt(F)
    return {
        "sup": float(vals.max()),
        "per_point_spread": float(vals.max() - vals.min()),
        "n_points": int(n_points),
    }


# ---------------------------------------------------------------------------
# traces and scalar curvature

def mean_curvature(fd: FundamentalData) -> np.ndarray:
    """Unnormalized trace of II over a g-orthonormal frame (ambient vector).

    The sum convention (not the average) is what balances the Gauss formula:
    Sc(S^n(R)) = n(n-1)/R^2 comes out exactly.
    """
    ginv = fd.whitener @ fd.whitener
    return np.einsum("cij,ij->c", fd.II, ginv)


def second_form_l2_sq(fd: FundamentalData) -> float:
    """sum_{i,j} ||II(e_i, e_j)||^2 over a g-orthonormal frame."""
    M = fd.whitened_form()
    return float(np.einsum("cij,cij->", M, M))


def petrunin_pi(fd: FundamentalData) -> float:
    """Average of ||II(t,t)||^2 over uniform g-unit tangent directions (closed form)."""
    n = fd.n
    h2 = float(np.dot(mean_curvature(fd), mean_curvature(fd)))
    return 2.0 / (n * (n + 2)) * (second_form_l2_sq(fd) + 0.5 * h2)


def petrunin_pi_mc(fd: FundamentalData, n_samples: int = 100_000,
                   seed: int = DEFAULT_SEED) -> float:
    """Monte-Carlo estimate of the same average; cross-validates the closed form."""
    rng = np.random.default_rng(seed)
    M = fd.whitened_form()
    w = rng.standard_normal((n_samples, fd.n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    vals = np.einsum("si,cij,sj->sc", w, M, w)
    return float(np.mean(np.einsum("sc,sc->s", vals, vals)))


def scalar_curvature_gauss(fd: FundamentalData, sc_ambient_n: float = 0.0) -> float:
    """Gauss-formula scalar curvature: Sc_|n + ||H||^2 - ||II||_l2^2."""
    H = mean_curvature(fd)
    return float(sc_ambient_n + H @ H - second_form_l2_sq(fd))


def scalar_curvature_petrunin(fd: FundamentalData, sc_ambient_n: float = 0.0) -> float:
    """Equivalent form Sc_|n + (3/2)||H||^2 - (n(n+2)/2) Pi."""
    n = fd.n
    H = mean_curvature(fd)
    return float(sc_ambient_n + 1.5 * (H @ H) - 0.5 * n * (n + 2) * petrunin_pi(fd))


def focal_radius(curv: float) -> float:
    """Euclidean reciprocity: the focal radius is 1/curv."""
    if curv <= 0:
        raise ValueError("curvature must be positive")
    return 1.0 / curv


def spherical_curvature(curv_euclid: float, R_sphere: float) -> float:
    """Curvature inside S^{N-1}(R) from the Euclidean one (Pythagorean relation)."""
    if R_sphere <= 0:
        raise ValueError("sphere radius must be positive")
    inv = 1.0 / R_sphere
    if curv_euclid < inv * (1.0 - 1e-12):
        raise ValueError("Euclidean curvature below 1/R: not contained in that sphere")
    return math.sqrt(max(0.0, curv_euclid**2 - inv * inv))


def gauss_map_diff_norm(spec: ImmersionSpec, u, h: float = 1e-4,
                        n_dirs: int = 256, seed: int = DEFAULT_SEED) -> float:
    """Finite-difference operator norm of the tangent-plane variation.

    For each g-unit direction, the rate of tilt of span(jac) is the largest
    principal angle between nearby tangent planes over the arclength step.
    The sup over directions matches the normal curvature.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    import scipy.linalg

    u = np.asarray(u, dtype=float).reshape(-1)
    fd = fundamental_data(jet2(spec, u))
    n = fd.n
    rng = np.random.default_rng(seed)
    dirs = _direction_grid(n, n_dirs, rng)
    _, tau_best = normal_curvature_at(fd, return_direction=True, seed=seed)
    candidates = [fd.whitener @ w for w in dirs] + [tau_best]
    best = 0.0
    for tau in candidates:
        # tau is g-unit, so u +- h*tau moves h in arclength to first order
        Jp = jet2(spec, u + h * tau).jac
        Jm = jet2(spec, u - h * tau).jac
        angles = scipy.linalg.subspace_angles(Jp, Jm)
        if angles.size:
            best = max(best, float(angles.max()) / (2.0 * h))
    return best
