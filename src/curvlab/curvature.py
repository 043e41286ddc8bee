"""Numerical differential-geometry engine.

Induced metric, second fundamental form, normal curvature (directional, at a
point, and global over the immersion's orbit space), mean curvature, the degree-4
averaged curvature invariant Pi with its Monte-Carlo cross-check, Gauss-formula
scalar curvature, focal radius, and the Gauss-map finite-difference cross-check.

All functions are pure; Monte-Carlo routines are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .immersions import ImmersionSpec, Jet2, jet2

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

_STATIONARY_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalData:
    """First and second fundamental forms of an immersion at a point.

    g is the induced metric J^T J;  II[..., i, j] is the ambient-vector-valued
    normal projection of the Hessian;  whitener maps g-orthonormal coordinates
    to parameter coordinates (g^{-1/2}).  The forms of B basepoints carry a
    leading B axis on every array; every invariant below then gives B values,
    where one basepoint gives a float (a vector for mean_curvature).
    """

    g: np.ndarray
    II: np.ndarray
    whitener: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def whitened_form(self) -> np.ndarray:
        """II in g-orthonormal tangent coordinates, shape ([B,] N, n, n)."""
        W = self.whitener[..., None, :, :]  # one W for the C normal components
        return W.mT @ self.II @ W


def fundamental_data(jet: Jet2) -> FundamentalData:
    """Forms at one basepoint, or at B basepoints from a stacked (B, n) jet."""
    J, H = jet.jac, jet.hess
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, rejected below
        g = J.mT @ J
        # tangential projector via a thin QR frame; P_perp = I - Q Q^T
        Q, _ = np.linalg.qr(J)
        QtH = np.einsum("...ba,...bij->...aij", Q, H)  # contract N first: O(N n^3)
        II = H - np.einsum("...ca,...aij->...cij", Q, QtH)
    if not (np.isfinite(g).all() and np.isfinite(II).all()):
        raise ValueError("the metric or the second fundamental form overflows float64")
    evals, evecs = np.linalg.eigh(g)
    if np.any(evals[..., 0] <= 1e-18 * evals[..., -1]):  # relative: any scale is kept
        raise ValueError("rank-deficient Jacobian: not an immersion point")
    if np.any(evals[..., 0] < np.finfo(float).tiny):  # subnormal: digits are lost
        raise ValueError("the metric underflows float64")
    whitener = (evecs * evals[..., None, :] ** -0.5) @ evecs.mT  # g^{-1/2}
    return FundamentalData(g=g, II=II, whitener=whitener)


def _scalar(x):
    """A 0-d result as a Python float; a stacked result as its array."""
    return float(x) if np.ndim(x) == 0 else x


def curv_dir(fd: FundamentalData, tau):
    """||II(t, t)|| for the g-unit t along tau: one direction (n,) or K of them (K, n)."""
    tau = np.asarray(tau, dtype=float)
    q = np.vecdot(tau, np.vecdot(fd.g, tau[..., None, :]))  # tau^T g tau
    if not np.all((q > 0.0) & np.isfinite(q)):
        raise ValueError("tangent direction must be nonzero")
    t = tau / np.sqrt(q)[..., None]
    v = np.einsum("...cij,...i,...j->...c", fd.II, t, t)
    return _scalar(np.sqrt(np.vecdot(v, v)))


# ---------------------------------------------------------------------------
# direction search

def _random_directions(n: int, count: int, seed: int) -> np.ndarray:
    """count unit vectors in R^n drawn from default_rng(seed): (count, n)."""
    w = np.random.default_rng(seed).standard_normal((count, n))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


_N_CANDIDATES = 256  # seeded directions scored per basepoint
_N_STARTS = 8  # best candidates that start the ascent
_MAX_ASCENT_STEPS = 120


def _quartic(M: np.ndarray, w: np.ndarray):
    """V = M_c w, q_c = w^T M_c w and F = sum_c q_c^2 for every lane.

    M is (B, C, n, n) and w is (B, K, n): K lanes per basepoint.
    """
    V = np.einsum("bcij,bkj->bkci", M, w)
    q = np.einsum("bkci,bki->bkc", V, w)
    return V, q, np.einsum("bkc,bkc->bk", q, q)


def _ascend(M: np.ndarray, w: np.ndarray, iters: int, tol):
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
    tol, a float or (B, 1).  Returns F, w and that gradient (0 at F = 0).
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
    for step in range(iters + 1):
        V, q, F = _quartic(M, w)
        G = np.einsum("bkc,bkci->bki", q, V)
        resid = G - F[..., None] * w
        r, sqrt_F = 2.0 * np.linalg.norm(resid, axis=-1), np.sqrt(F)
        active &= r > tol * sqrt_F
        if step == iters or not active.any():
            return F, w, r / np.where(F > 0.0, sqrt_F, 1.0)
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


def _direction_search(M: np.ndarray, tol: float, seed: int):
    """Max over unit w of sqrt(F_b(w)), F_b(w) = sum_c (w^T M_bc w)^2, for a (B, C, n, n) stack.

    _N_CANDIDATES unit directions, drawn once from default_rng(seed), serve
    every basepoint; F at all of them is one matrix product of the flattened
    M_c with the candidates' outer products, (B*C, n*n) @ (n*n, K).  The best
    _N_STARTS per basepoint start the ascent, all lanes at once, on M / 2^k
    with max |M / 2^k| in [1/2, 1): no power of F overflows, and a power of
    two scales every step exactly.  Returns sqrt(F) (B,), the maximizing unit
    directions (B, n) and the tangential gradient of sqrt(F) there (B,); a
    zero form gives 0 along e_0 (any nonzero form is searched).
    """
    B, C, n, _ = M.shape
    curv, grad, w = np.zeros(B), np.zeros(B), np.eye(1, n).repeat(B, axis=0)
    live = np.any(M != 0.0, axis=(1, 2, 3))
    if live.any():
        scale = np.ldexp(1.0, np.frexp(np.abs(M[live]).max(axis=(1, 2, 3)))[1])
        Ml = M[live] / scale[:, None, None, None]
        cand = _random_directions(n, _N_CANDIDATES, seed)
        outer = np.einsum("ki,kj->ijk", cand, cand).reshape(n * n, -1)
        q = (Ml.reshape(-1, n * n) @ outer).reshape(len(Ml), C, -1)
        top = np.argsort(-np.einsum("bck,bck->bk", q, q), axis=1,
                         kind="stable")[:, :_N_STARTS]
        Fk, wk, gk = _ascend(Ml, cand[top], _MAX_ASCENT_STEPS, tol / scale[:, None])
        best = np.arange(len(Ml)), np.argmax(Fk, axis=1)
        curv[live], w[live] = np.sqrt(Fk[best]) * scale, wk[best]
        grad[live] = gk[best] * scale
    return curv, w, grad


def normal_curvature_at(
    fd: FundamentalData,
    tol: float = _STATIONARY_TOL,
    seed: int = DEFAULT_SEED,
    return_direction: bool = False,
):
    """max over g-unit tangent directions of ||II(t,t)||.

    ``fd`` holds the forms at one basepoint (from u of shape (n,)), or at a
    stack of B basepoints (from a (B, n) jet); a stack gives B values, and
    (B, n) directions, all from one direction search.

    What the value certifies: it is ||II(t,t)|| at a g-unit direction t that
    was found, so it is a lower bound on the sup, never an upper bound.  It is
    at least ||II|| at every one of 256 unit directions drawn from ``seed``,
    because the 8 best of them start a monotone ascent (_ascend) that stops
    once the tangential gradient of ||II(t,t)|| is at most ``tol`` or 120
    steps ran out.  A stationary point can be a lesser local maximum whose
    basin no start fell in.  Any intrinsic dimension is accepted.
    """
    M = fd.whitened_form()
    batch = M.shape[:-3]
    curv, w, _ = _direction_search(M.reshape((-1,) + M.shape[-3:]), tol, seed)
    curv = _scalar(curv.reshape(batch))
    if return_direction:
        return curv, (fd.whitener @ w.reshape(batch + (fd.n, 1)))[..., 0]
    return curv


def normal_curvature_global(
    spec: ImmersionSpec,
    n_points: int = 20,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Sup of the pointwise normal curvature over the orbit space.

    curv is constant on the orbits of the isometries that preserve the
    immersion, so one stacked search visits ``spec.orbit_nodes(n_points)``.
    ``sup`` is the largest node value, ``per_point_spread`` the largest minus
    the least, and ``stationarity`` the winning direction's tangential
    gradient of ||II(t,t)|| over ``sup``: unit-free, as rounding leaves about
    eps * sup (0.003 on a sphere of radius 1e-13)."""
    if n_points < 1:
        raise ValueError("n_points must be positive")
    fd = fundamental_data(jet2(spec, spec.orbit_nodes(n_points)))
    vals, _, grad = _direction_search(fd.whitened_form(), _STATIONARY_TOL, seed)
    best = int(np.argmax(vals))
    return {
        "sup": float(vals[best]),
        "per_point_spread": float(vals.max() - vals.min()),
        "n_points": len(vals),
        "stationarity": float(grad[best] / vals[best]) if vals[best] > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# traces and scalar curvature

def mean_curvature(fd: FundamentalData) -> np.ndarray:
    """Unnormalized trace of II over a g-orthonormal frame (ambient vector).

    The sum convention (not the average) is what balances the Gauss formula:
    Sc(S^n(R)) = n(n-1)/R^2 comes out exactly.
    """
    ginv = fd.whitener @ fd.whitener
    return np.einsum("...cij,...ij->...c", fd.II, ginv)


def second_form_l2_sq(fd: FundamentalData):
    """sum_{i,j} ||II(e_i, e_j)||^2 over a g-orthonormal frame."""
    M = fd.whitened_form()
    return _scalar(np.einsum("...cij,...cij->...", M, M))


def petrunin_pi(fd: FundamentalData):
    """Average of ||II(t,t)||^2 over uniform g-unit tangent directions (closed form)."""
    n = fd.n
    H = mean_curvature(fd)
    return _scalar(2.0 / (n * (n + 2)) * (second_form_l2_sq(fd) + 0.5 * np.vecdot(H, H)))


def petrunin_pi_mc(fd: FundamentalData, n_samples: int = 100_000,
                   seed: int = DEFAULT_SEED):
    """Monte-Carlo estimate of the same average; cross-validates the closed form."""
    w = _random_directions(fd.n, n_samples, seed)
    vals = np.einsum("si,...cij,sj->...sc", w, fd.whitened_form(), w)
    return _scalar(np.mean(np.einsum("...sc,...sc->...s", vals, vals), axis=-1))


def scalar_curvature_gauss(fd: FundamentalData, sc_ambient_n: float = 0.0):
    """Gauss-formula scalar curvature: Sc_|n + ||H||^2 - ||II||_l2^2."""
    H = mean_curvature(fd)
    return _scalar(sc_ambient_n + np.vecdot(H, H) - second_form_l2_sq(fd))


def scalar_curvature_petrunin(fd: FundamentalData, sc_ambient_n: float = 0.0):
    """Equivalent form Sc_|n + (3/2)||H||^2 - (n(n+2)/2) Pi."""
    n = fd.n
    H = mean_curvature(fd)
    return _scalar(sc_ambient_n + 1.5 * np.vecdot(H, H) - 0.5 * n * (n + 2) * petrunin_pi(fd))


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


def _largest_principal_angle(Qa: np.ndarray, Qb: np.ndarray):
    """Largest principal angle between the equal-dimension column spans of
    orthonormal Qa and Qb: arcsin |Qb - Qa Qa^T Qb|_2, accurate for small
    angles, where the cosine form loses them to rounding.  Stacks of frames
    give one angle per pair."""
    sin = np.linalg.norm(Qb - Qa @ (Qa.mT @ Qb), 2, axis=(-2, -1))
    return np.arcsin(np.minimum(1.0, sin))


def gauss_map_diff_norm(spec: ImmersionSpec, u, h: float = 1e-4,
                        n_dirs: int = 256, seed: int = DEFAULT_SEED) -> float:
    """Finite-difference operator norm of the tangent-plane variation.

    For each g-unit direction, the rate of tilt of span(jac) is the largest
    principal angle between nearby tangent planes over the arclength step.
    The candidates are ``n_dirs`` unit directions drawn from ``seed`` and the
    maximizer of normal_curvature_at; the sup over directions matches the
    normal curvature.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    u = np.asarray(u, dtype=float).reshape(-1)
    fd = fundamental_data(jet2(spec, u))
    _, tau_best = normal_curvature_at(fd, return_direction=True, seed=seed)
    taus = np.vstack([_random_directions(fd.n, n_dirs, seed) @ fd.whitener.T, tau_best])
    # tau is g-unit, so u +- h*tau moves h in arclength to first order
    Q, _ = np.linalg.qr(jet2(spec, u + h * np.vstack([taus, -taus])).jac)
    return float(_largest_principal_angle(Q[: len(taus)], Q[len(taus) :]).max()) / (2.0 * h)
