"""Numerical differential-geometry engine.

Induced metric, second fundamental form, normal curvature (directional, at a
point, and global over the immersion's orbit space), mean curvature, the degree-4
averaged curvature invariant Pi with its Monte-Carlo cross-check, Gauss-formula
scalar curvature and the focal radius.

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
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0xC0FFEE

_STATIONARY_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalData:
    """First and second fundamental forms of an immersion at a point.

    g is the induced metric J^T J;  the whitener W = g^{-1/2} = V diag(1/s) V^T,
    read from the SVD of J (not from g, whose eigenvalues carry eps cond(J)^2),
    maps g-orthonormal coordinates to parameter coordinates;  M = W^T II W is the
    second fundamental form in those coordinates, one n x n form per ambient
    component, II being the normal projection of the Hessian.  The forms of B
    basepoints carry a leading B axis on every array; every invariant below then
    gives B values, where one basepoint gives a float (a vector for mean_curvature).
    """

    g: np.ndarray
    M: np.ndarray
    whitener: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[-1]


def fundamental_data(jet: Jet2) -> FundamentalData:
    """Forms at one basepoint, or at B basepoints from a stacked (B, n) jet,
    all from one thin SVD J = U diag(s) V^T: the normal projector I - U U^T,
    the whitener, and the rank and underflow tests on s."""
    J, H = jet.jac, jet.hess
    overflow = ValueError("the metric or the second fundamental form overflows float64")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, rejected here
        g = J.mT @ J
        if not np.isfinite(g).all():  # so J is finite: LAPACK's SVD can hang on inf
            raise overflow
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        UtH = np.einsum("...ba,...bij->...aij", U, H)  # contract N first: O(N n^3)
        II = H - np.einsum("...ca,...aij->...cij", U, UtH)
        if not np.isfinite(II).all():
            raise overflow
    if np.any(s[..., -1] <= 1e-9 * s[..., 0]):  # relative: any scale is kept
        raise ValueError("rank-deficient Jacobian: not an immersion point")
    if np.any(s[..., -1] ** 2 < np.finfo(float).tiny):  # subnormal: digits are lost
        raise ValueError("the metric underflows float64")
    whitener = (Vt.mT / s[..., None, :]) @ Vt  # g^{-1/2}
    W = whitener[..., None, :, :]  # one W for the C normal components
    return FundamentalData(g=g, M=W.mT @ II @ W, whitener=whitener)


def _scalar(x):
    """A 0-d result as a Python float; a stacked result as its array."""
    return float(x) if np.ndim(x) == 0 else x


def curv_dir(fd: FundamentalData, tau):
    """||II(t, t)|| for the g-unit t along tau: one direction (n,) or K of them (K, n)."""
    tau = np.asarray(tau, dtype=float)
    q = np.vecdot(tau, np.vecdot(fd.g, tau[..., None, :]))  # tau^T g tau
    if not np.all((q > 0.0) & np.isfinite(q)):
        raise ValueError("tangent direction must be nonzero")
    # the g-orthonormal coordinates of tau / |tau|_g: g^{1/2} = g W
    w = np.vecdot(fd.g @ fd.whitener, tau[..., None, :]) / np.sqrt(q)[..., None]
    v = np.einsum("...cij,...i,...j->...c", fd.M, w, w)
    return _scalar(np.sqrt(np.vecdot(v, v)))


# ---------------------------------------------------------------------------
# direction search

def _random_directions(n: int, count: int, seed: int) -> np.ndarray:
    """count unit vectors in R^n drawn from default_rng(seed): (count, n)."""
    w = np.random.default_rng(seed).standard_normal((count, n))
    return np.divide(w, np.linalg.norm(w, axis=1, keepdims=True), out=w)  # no second copy


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

    With q_c = w^T M_c w, S = sum_c q_c M_c is the shape operator along the
    normal q, and G = S w = grad F / 4.  Each lane takes the higher of two
    steps.  The block step goes to the top eigenvector w' of S, eigenvalue mu:
    for unit v, v^T S v = q(w).q(v) <= |q(w)| |q(v)|, so
    F(w') >= mu^2 / F >= w^T S w = F, with no shift bound.  The eigenpairs
    (p_i, u_i) of the Hessian projected to the tangent space at w give the
    Newton step w + sum_i u_i 4 u_i^T (G - F w) / (4F - p_i), tried where
    every p_i < 4F (F is concave on the sphere there) and kept where its F is
    at least mu^2 / F less the rounding error of evaluating F, so F(w') is
    never evaluated.  A lane stops once the tangential gradient of sqrt(F),
    2 |G - F w| / sqrt(F), is at most tol, in the units of M.  Returns F, w
    and that gradient (0 at F = 0).
    """
    n = w.shape[-1]
    size = np.einsum("bcij,bcij->b", M, M)[:, None]  # sum_c |M_c|_F^2, at least F
    # puts the radial eigenvalue last: rho(Hess F) <= 12 size
    radial = 24.0 * size[..., None, None]
    tau = 3e-6 * size  # margin that keeps the Newton step's Hessian definite
    noise = 12.0 * n * np.finfo(float).eps * size  # bounds the rounding error of F
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
        S = np.einsum("bkc,bcij->bkij", q, M)
        ww = w[..., :, None] * w[..., None, :]
        proj = eye - ww
        hess = 8.0 * np.einsum("bkci,bkcj->bkij", V, V) + 4.0 * S
        lam, U = np.linalg.eigh(proj @ hess @ proj + radial * ww)
        lam, U = lam[..., :-1], U[..., :-1]
        gap = 4.0 * F[..., None] - lam
        newton = gap[..., -1] > tau
        coord = 4.0 * np.einsum("bkin,bki->bkn", U, resid) \
            / np.where(newton[..., None], gap, np.inf)  # 0 off the Newton lanes
        w1 = w + np.einsum("bkin,bkn->bki", U, coord)
        w1 /= np.linalg.norm(w1, axis=-1, keepdims=True)
        mu, E = np.linalg.eigh(S)
        newton &= _quartic(M, w1)[2] * F >= mu[..., -1] ** 2 - noise * F
        w1 = np.where(newton[..., None], w1, E[..., -1])
        w = np.where(active[..., None], w1, w)


def _direction_search(M: np.ndarray, tol: float, seed: int):
    """Max over unit w of sqrt(F_b(w)), F_b(w) = sum_c (w^T M_bc w)^2, for a (B, C, n, n) stack.

    _N_CANDIDATES unit directions, drawn once from default_rng(seed), serve
    every basepoint; F at all of them is one matrix product of the flattened
    M_c with the candidates' outer products, (B*C, n*n) @ (n*n, K).  The best
    _N_STARTS per basepoint start the ascent, all lanes at once, on M / 2^k
    with max |M / 2^k| in [1/2, 1): no power of F overflows, a power of two
    scales every step exactly, and the ascent stops at tol in those units, so
    relative to the form's scale.  Returns sqrt(F) (B,), the maximizing unit
    directions (B, n) and the tangential gradient of sqrt(F) there (B,), in
    the units of M; a zero form gives 0 along e_0 (any nonzero form is searched).
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
        Fk, wk, gk = _ascend(Ml, cand[top], _MAX_ASCENT_STEPS, tol)
        best = np.arange(len(Ml)), np.argmax(Fk, axis=1)
        curv[live], w[live] = np.sqrt(Fk[best]) * scale, wk[best]
        grad[live] = gk[best] * scale
    return curv, w, grad


def normal_curvature_at(fd: FundamentalData, seed: int = DEFAULT_SEED,
                        return_direction: bool = False):
    """max over g-unit tangent directions of ||II(t,t)||.

    ``fd`` holds the forms at one basepoint (from u of shape (n,)), or at a
    stack of B basepoints (from a (B, n) jet); a stack gives B values, and
    (B, n) directions, all from one direction search.

    What the value certifies: it is ||II(t,t)|| at a g-unit direction t that
    was found, so it is a lower bound on the sup, never an upper bound.  It is
    at least ||II|| at every one of 256 unit directions drawn from ``seed``,
    because the 8 best of them start a monotone ascent (_ascend: each step
    is Newton or the shape-operator block step, whichever is higher) that
    stops once the tangential gradient of ||II(t,t)|| is at most 1e-9 times
    the form's scale (a power of two within 2x of its largest entry) or 120
    steps ran out.  A stationary point can be a lesser local maximum whose
    basin no start fell in.  Any intrinsic dimension is accepted.
    """
    batch = fd.M.shape[:-3]
    curv, w, _ = _direction_search(fd.M.reshape(-1, *fd.M.shape[-3:]), _STATIONARY_TOL, seed)
    curv = _scalar(curv.reshape(batch))
    if return_direction:
        return curv, (fd.whitener @ w.reshape(batch + (fd.n, 1)))[..., 0]
    return curv


def normal_curvature_global(spec: ImmersionSpec, seed: int = DEFAULT_SEED) -> dict:
    """Sup of the pointwise normal curvature over the orbit space, and the
    pointwise invariants at the first orbit node.

    curv is constant on the orbits of the isometries that preserve the
    immersion, so one stacked search visits ``spec.orbit_nodes()``: one node
    for a homogeneous kind, the inner and outer spheres for the tube.
    ``sup`` is the largest node value, ``per_point_spread`` the largest minus
    the least, ``n_points`` the node count, ``stationarity`` the winning
    direction's tangential gradient of ||II(t,t)|| over ``sup`` (unit-free, as
    rounding leaves about eps * sup); ``pi``, ``mean_curvature_norm`` and
    ``scalar_curvature`` are read at the first node."""
    fd = fundamental_data(jet2(spec, spec.orbit_nodes()))
    vals, _, grad = _direction_search(fd.M, _STATIONARY_TOL, seed)
    best = int(np.argmax(vals))
    return {
        "sup": float(vals[best]),
        "per_point_spread": float(vals.max() - vals.min()),
        "n_points": len(vals),
        "stationarity": float(grad[best] / vals[best]) if vals[best] > 0 else 0.0,
        "pi": float(petrunin_pi(fd)[0]),
        "mean_curvature_norm": float(np.linalg.norm(mean_curvature(fd)[0])),
        "scalar_curvature": float(scalar_curvature_gauss(fd)[0]),
    }


# ---------------------------------------------------------------------------
# traces and scalar curvature

def mean_curvature(fd: FundamentalData) -> np.ndarray:
    """Unnormalized trace of II over a g-orthonormal frame (ambient vector).

    The sum convention (not the average) is what balances the Gauss formula:
    Sc(S^n(R)) = n(n-1)/R^2 comes out exactly.
    """
    return np.einsum("...cii->...c", fd.M)  # tr(g^{-1} II_c) = tr M_c


def second_form_l2_sq(fd: FundamentalData):
    """sum_{i,j} ||II(e_i, e_j)||^2 over a g-orthonormal frame."""
    return _scalar(np.einsum("...cij,...cij->...", fd.M, fd.M))


def petrunin_pi(fd: FundamentalData):
    """Average of ||II(t,t)||^2 over uniform g-unit tangent directions (closed form)."""
    n = fd.n
    H = mean_curvature(fd)
    return _scalar(2.0 / (n * (n + 2)) * (second_form_l2_sq(fd) + 0.5 * np.vecdot(H, H)))


def petrunin_pi_mc(fd: FundamentalData, n_samples: int = 100_000,
                   seed: int = DEFAULT_SEED):
    """Monte-Carlo estimate of the same average; cross-validates the closed form."""
    w = _random_directions(fd.n, n_samples, seed)
    # sum_s (w_s^T M_c w_s)^2 = Mf_c^T (sum_s ww_s ww_s^T) Mf_c: one (n^2, n^2) moment
    ww = np.einsum("si,sj->sij", w, w).reshape(n_samples, -1)
    Mf = fd.M.reshape(*fd.M.shape[:-2], -1)
    return _scalar(np.einsum("...ck,kl,...cl->...", Mf, ww.T @ ww, Mf) / n_samples)


def scalar_curvature_gauss(fd: FundamentalData):
    """Gauss-formula scalar curvature in flat space: ||H||^2 - ||II||_l2^2."""
    H = mean_curvature(fd)
    return _scalar(np.vecdot(H, H) - second_form_l2_sq(fd))


def scalar_curvature_petrunin(fd: FundamentalData):
    """Equivalent form (3/2)||H||^2 - (n(n+2)/2) Pi."""
    n = fd.n
    H = mean_curvature(fd)
    return _scalar(1.5 * np.vecdot(H, H) - 0.5 * n * (n + 2) * petrunin_pi(fd))


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
