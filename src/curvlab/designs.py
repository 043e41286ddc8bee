"""Degree-4 spherical designs.

Moment-tensor verification, an L4/L2 ratio check, numerical design
optimization, the exact rational construction (dense rational sphere points +
an exact-arithmetic feasibility simplex + denominator clearing), and the bridge
from designs to flat-torus immersions.

Floating designs may carry nonuniform weights; rational designs are multisets
(integer multiplicities over a common denominator), mirroring the exact
construction steps.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import immersions
from .curvature import _scalar
from .immersions import _count, _fields, _fraction, _list, _optional, _real

__all__ = [
    "Design",
    "RationalDesign",
    "quartic_moment_tensor",
    "isotropic_moment_tensor",
    "is_degree4_design",
    "design_ratio",
    "rational_sphere_points",
    "exact_lp_feasible",
    "hilbert_rational_design",
    "optimize_design",
    "torus_immersion_from_design",
    "pentagon_design",
    "design_from_json",
    "design_to_json",
    "HeightExhausted",
]


class HeightExhausted(RuntimeError):
    """Raised when the rational construction stays infeasible up to height_max."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class Design:
    """Weighted multiset of unit vectors on S^{n-1} (floating point).

    Every point must have unit norm within 1e-12 and the weights must sum to 1
    within 1e-12; hand-rounded JSON decimals (0.7071) miss that and are rejected.
    """

    n: int
    points: np.ndarray  # N x n
    weights: np.ndarray  # N, nonneg, sums to 1

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError("points must be an N x n array")
        with np.errstate(over="ignore"):  # NaN, and an overflowing norm or sum, fail <= 1e-12
            if not np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12):
                raise ValueError("design points must be unit vectors within 1e-12")
            if w.shape != (pts.shape[0],) or np.any(w < 0) or not abs(w.sum() - 1.0) <= 1e-12:
                raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")

    @property
    def N(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RationalDesign:
    """Exact design: rational unit points with integer multiplicities P_i; their sum N
    is the common denominator of the construction."""

    n: int
    points: tuple[tuple[Fraction, ...], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.multiplicities):
            raise ValueError("points and multiplicities must have equal length")
        for p in self.points:
            if len(p) != self.n:
                raise ValueError("point dimension mismatch")
            if sum(x * x for x in p) != 1:
                raise ValueError("rational design points must be exactly unit")
        if any(P < 1 for P in self.multiplicities):
            raise ValueError("multiplicities must be positive integers")

    @property
    def N(self) -> int:
        return sum(self.multiplicities)

    def to_float(self) -> Design:
        pts = np.array([[float(x) for x in p] for p in self.points])
        N = self.N
        w = np.array([P / N for P in self.multiplicities], dtype=float)
        return Design(n=self.n, points=pts, weights=w)


def multi_indices(n: int):
    """All exponent multi-indices alpha with |alpha| = 4, lexicographic."""
    return [tuple(combo.count(i) for i in range(n))
            for combo in itertools.combinations_with_replacement(range(n), 4)]


def _exponents(n: int) -> np.ndarray:
    """(K, n) exponent matrix E: row k is multi_indices(n)[k]."""
    return np.array(multi_indices(n), dtype=np.int64)


def _quartic_monomials(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(K, N) monomials s_i^alpha_k of the (N, n) points P, one per row of E.

    P is float64, or an object array of Python ints for exact arithmetic.  Each
    coordinate is raised to each power 0..max E once, the powers are gathered by
    E, and each monomial multiplies its n factors in coordinate order: the same
    elementwise pow and products as np.prod(P[None] ** E[:, None, :], axis=-1),
    so the same bits, with (max E + 1) n N pow calls in place of K n N.
    """
    powers = P.T[:, None, :] ** np.arange(E.max() + 1).astype(P.dtype)[:, None]
    return np.prod(powers[np.arange(P.shape[1]), E], axis=1)


def _integer_points(points) -> tuple[np.ndarray, np.ndarray]:
    """(N, n) numerators and (N,) denominators D_j > 0 of rational points s_j = num_j / D_j,
    D_j the lcm of s_j's denominators; object arrays of Python ints."""
    dens = [math.lcm(*(x.denominator for x in p)) for p in points]
    num = [[x.numerator * (d // x.denominator) for x in p] for p, d in zip(points, dens)]
    return np.array(num, dtype=object), np.array(dens, dtype=object)


def quartic_moment_tensor(d) -> np.ndarray:
    """Weighted degree-4 monomial moments, ordered by multi_indices(n); exact Fractions for
    a RationalDesign, summed in Python ints: with s_j = num_j / D_j (_integer_points) and
    L = lcm(D_j^4), moment alpha is sum_j P_j num_j^alpha (L / D_j^4) over L N."""
    E = _exponents(d.n)
    if isinstance(d, RationalDesign):
        num, D = _integer_points(d.points)
        D4 = D**4
        L = math.lcm(*D4)
        # @, not np.vecdot: an object-dtype vecdot keeps about one int per call alive
        sums = _quartic_monomials(num, E) @ (np.array(d.multiplicities, dtype=object) * (L // D4))
        return np.array([Fraction(x, L * d.N) for x in sums])
    # one dot per row: a matrix-vector product sums in another order
    return np.vecdot(_quartic_monomials(d.points, E), d.weights)


def isotropic_moment_tensor(n: int, exact: bool = False) -> np.ndarray:
    """Degree-4 moments of the uniform measure on S^{n-1}, ordered by multi_indices(n).

    prod_i (a_i - 1)!! / (n(n+2)) when every exponent a_i is even, else zero:
    3/(n(n+2)) on pure quartics, 1/(n(n+2)) on the (2,2) mixed monomials.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # (a - 1)!! for a = 0..4, with 0 at the odd exponents
    numer = np.prod(np.array([1, 0, 1, 0, 3])[_exponents(n)], axis=1)
    values = [Fraction(int(k), n * (n + 2)) for k in numer]
    return np.array(values, dtype=object if exact else float)


def is_degree4_design(d, tol: float = 1e-10) -> dict:
    """Compare the quartic moments against the isotropic ones.

    Exact zero-test for a RationalDesign; infinity-norm residual otherwise.
    """
    exact = isinstance(d, RationalDesign)
    diff = quartic_moment_tensor(d) - isotropic_moment_tensor(d.n, exact=exact)
    res = np.max(np.abs(diff))
    if exact:
        return {"ok": res == 0, "residual": res}
    return {"ok": bool(res <= tol), "residual": float(res)}


def design_ratio(d, c):
    """Normalized L4/L2 ratio of the weighted tautological image of c.

    x_i = sqrt(w_i N) <c, s_i>; for a degree-4 design the ratio equals
    (3n/(n+2))^(1/4) for every nonzero c; K vectors c (K, n) give K ratios.
    """
    if isinstance(d, RationalDesign):
        d = d.to_float()
    c = np.asarray(c, dtype=float)
    if not np.all(np.any(c, axis=-1)):
        raise ValueError("c must be nonzero")
    x = np.sqrt(d.weights * d.N) * (c @ d.points.T)
    return _scalar(np.mean(x**4, axis=-1) ** 0.25 / np.sqrt(np.mean(x**2, axis=-1)))


# ---------------------------------------------------------------------------
# rational sphere points

def _sphere_numerators(n: int, height: int) -> list[tuple[tuple[int, ...], int]]:
    """The first point of each antipodal pair of rational_sphere_points(n, height), in
    its order, as (num, D): num / D, D > 0 the lcm of its denominators.  A point and
    its antipode have the same quartic LP column, so the antipode is only marked seen.

    a = P / Q in Q^{n-1} (Q the lcm of the coordinates' denominators) maps to
    x = (2PQ, Q^2 - |P|^2) / (Q^2 + |P|^2), taken over the gcd of those n + 1
    integers: (2a, 1 - |a|^2) / (1 + |a|^2) without a Fraction.
    """
    if n < 1 or height < 1:
        raise ValueError("n >= 1 and height >= 1 required")
    vals = sorted({Fraction(p, q) for q in range(1, height + 1)
                   for p in range(-height, height + 1)})
    seen, out = set(), []
    for a in itertools.product([(x.numerator, x.denominator) for x in vals], repeat=n - 1):
        Q = math.lcm(*(q for _, q in a))
        P = [p * (Q // q) for p, q in a]
        Q2, P2 = Q * Q, sum(x * x for x in P)
        v = [2 * Q * x for x in P] + [Q2 - P2]
        g = math.gcd(Q2 + P2, *v)
        num, D = tuple(x // g for x in v), (Q2 + P2) // g
        if (num, D) not in seen:
            seen.update({(num, D), (tuple(-x for x in num), D)})
            out.append((num, D))
    return out


def rational_sphere_points(n: int, height: int):
    """Exact rational unit vectors via inverse stereographic projection.

    x = (2a, 1 - |a|^2) / (1 + |a|^2) for all rational a in Q^{n-1} whose
    coordinates have numerator and denominator bounded by ``height``; each point
    of _sphere_numerators is followed by its (also rational) antipode.
    """
    return [tuple(Fraction(s * x, D) for x in num)
            for num, D in _sphere_numerators(n, height) for s in (1, -1)]


# ---------------------------------------------------------------------------
# exact feasibility simplex

_INT64_MAX = 2**63 - 1  # int64 arithmetic wraps silently past this


def _int64_update_overflows(new: np.ndarray, enter: int, Rl: np.ndarray) -> bool:
    """Whether p max|new| + max|a| max|R_l| (p = R_l[-1], a = new[:, enter]) exceeds int64."""
    return _INT64_MAX < (int(Rl[-1]) * int(np.abs(new).max())
                         + int(np.abs(new[:, enter]).max()) * int(np.abs(Rl).max()))


def exact_lp_feasible(A, b):
    """Exact nonnegative solution of A p = b over the rationals, or None.

    Phase-1 simplex with Bland's anti-cycling rule.  A is m x k (lists of
    Fraction-coercible entries), b has length m.  Returns a list of k exact
    Fractions with A p = b and p >= 0, or None if infeasible.  Python int and
    Fraction entries are taken as they are; any other entry x becomes Fraction(x).
    Columns are taken as given: Bland's rule never enters a later copy of a column.

    The tableau is one integer array T of m + 1 rows: row i is [R_i | d_i], the
    integer row R_i of [A | I | b] over its positive denominator d_i, and the
    last row is the phase-1 cost row, held the same way.  Positive denominators
    keep every sign, so Bland's entering column e is the first positive entry
    of the cost row, and the ratio test cross-multiplies R_i[rhs] and R_i[e] in
    Python ints, ties to the smallest basis index: the pivots, and the vertex,
    are those of the same simplex in Fraction arithmetic.  A pivot sets the
    leaving row to [R_l | p], p = R_l[e], over its gcd, and every other row with
    a_i = T_i[e] != 0 to p T_i - a_i [R_l | 0] (so d_i becomes d_i p;
    fraction-free elimination, Edmonds 1967 / Bareiss 1968): one array
    expression per pivot.  T is int64 while p max|T_i| + max|a_i| max|R_l|,
    which bounds every entry of that expression, is at most 2^63 - 1 (checked
    in Python ints before each pivot, and max|T| on the initial tableau).  A
    positive row scale moves no sign or ratio, so int64 rows are reduced by
    their gcds only where that check fails, which leaves the rows of a tableau
    reduced on every pivot, and the check runs again; T holds Python ints
    (dtype object), reduced on every pivot, from the first pivot where it
    still fails.
    """
    m = len(A)
    k = len(A[0]) if m else 0
    rows = []
    for i, (row, bi) in enumerate(zip(A, b)):
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (*row, bi)]
        if row[-1] < 0:
            row = [-x for x in row]
        d = math.lcm(*(x.denominator for x in row))
        R = [x.numerator * (d // x.denominator) for x in row]
        # [A_i | e_i | b_i] over d; the artificials start as the basis
        rows.append(R[:-1] + [d * (j == i) for j in range(m)] + R[-1:] + [d])
    ncols = k + m
    basis = [k + i for i in range(m)]
    # reduced cost row for objective sum(artificials): z_j - c_j, over dc
    dc = math.lcm(*(R[-1] for R in rows))
    cost = [sum(dc // R[-1] * R[j] for R in rows) - dc * (k <= j < ncols)
            for j in range(ncols + 1)]
    rows.append(cost + [dc])
    big = max(abs(x) for R in rows for x in R)
    T = np.array(rows, dtype=np.int64 if big <= _INT64_MAX else object)
    stale = np.zeros(m + 1, dtype=bool)  # int64 rows updated since their gcd reduction
    while (T[m, :ncols] > 0).any():
        enter = int(np.argmax(T[m, :ncols] > 0))
        col, rhs = T[:m, enter].tolist(), T[:m, ncols].tolist()
        leave = None
        for i, x in enumerate(col):  # least rhs / x, ties to the least basis index
            if x > 0 and (leave is None or (rhs[i] * col[leave], basis[i])
                          < (rhs[leave] * x, basis[leave])):
                leave = i
        Rl = np.append(T[leave, :-1], T[leave, enter])
        Rl //= np.gcd.reduce(Rl)
        # the other rows with a nonzero entry in the entering column; the rest stay
        upd = np.flatnonzero((T[:, enter] != 0) & (np.arange(m + 1) != leave))
        new = T[upd]
        if T.dtype != object and _int64_update_overflows(new, enter, Rl):
            s = stale[upd]
            new[s] //= np.gcd.reduce(new[s], axis=1, keepdims=True)
            if _int64_update_overflows(new, enter, Rl):
                T, new, Rl = (x.astype(object) for x in (T, new, Rl))
        a = new[:, enter:enter + 1].copy()
        new *= Rl[-1]
        new[:, :-1] -= a * Rl[:-1]
        if T.dtype == object:
            new //= np.gcd.reduce(new, axis=1, keepdims=True)
        T[upd], T[leave], stale[upd], stale[leave] = new, Rl, True, False
        basis[leave] = enter
    if T[m, ncols] != 0:
        return None
    p = [Fraction(0)] * k
    for bi, num, den in zip(basis, T[:m, ncols].tolist(), T[:m, -1].tolist()):
        if bi < k:
            p[bi] = Fraction(num, den)
    return p


def hilbert_rational_design(n: int, height_max: int = 8) -> RationalDesign:
    """Exact rational degree-4 design via the dense-points + feasibility route.

    At each height, solve the exact moment system (all degree-4 monomial rows
    plus the normalization row) over the rational sphere points; on success,
    clear denominators into integer multiplicities.  Heights start at 1 and
    double on infeasibility, up to height_max.

    The LP gets the integer columns [num_j^alpha ; D_j^4] of s_j = num_j / D_j
    (_sphere_numerators, one point per antipodal pair, so the columns are distinct):
    column j of the rational system times D_j^4 > 0, with p_j = p'_j D_j^4.  A
    positive column scale keeps the sign of every reduced cost and scales the
    entering column's ratios by one factor, so Bland's pivots and vertex stay.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    E = _exponents(n)
    b = np.append(isotropic_moment_tensor(n, exact=True), Fraction(1))
    last_residual = None
    height = 1
    while height <= height_max:
        nums, Ds = zip(*_sphere_numerators(n, height))
        D4 = np.array(Ds, dtype=object) ** 4
        # moment rows, then the normalization row, each column j times D_j^4
        A = np.vstack([_quartic_monomials(np.array(nums, dtype=object), E), D4])
        p = exact_lp_feasible(A, b)
        if p is not None:  # Fractions for the kept points only
            keep = [(s, D, w * d4) for s, D, w, d4 in zip(nums, Ds, p, D4) if w > 0]
            Q = math.lcm(*(w.denominator for *_, w in keep))
            return RationalDesign(n=n, points=tuple(tuple(Fraction(x, D) for x in s)
                                                    for s, D, _ in keep),
                                  multiplicities=tuple(int(w * Q) for *_, w in keep))
        height *= 2
    if height > 1:  # how close the last height's least-squares relaxation got, for diagnostics
        # int / int rounds correctly, as float(Fraction) does
        Af, bf = (A / D4).astype(float), b.astype(float)
        sol, *_ = np.linalg.lstsq(Af, bf, rcond=None)
        last_residual = float(np.linalg.norm(Af @ np.clip(sol, 0, None) - bf, ord=np.inf))
    raise HeightExhausted(
        f"no rational design found for n={n} up to height {height_max}",
        residual=last_residual,
    )


# ---------------------------------------------------------------------------
# floating-point design optimization

# a design's moment residual must be below this (infinity norm) to count as found
_RESIDUAL_TOL = 1e-10
# step cap of one restart; converging restarts of (3, 11), (4, 23) and (5, 40) take 8-12
_LM_STEPS = 100


def _moment_residual(pts: np.ndarray, E: np.ndarray, iso: np.ndarray) -> np.ndarray:
    return _quartic_monomials(pts, E).mean(axis=1) - iso


def _moment_jacobian(v: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(K, N*n) derivative of the moment residual of s_i = v_i/|v_i| in the raw (N, n) v.

    d r_k / d s_ij = alpha_kj s_i^(alpha_k - e_j) / N, one kernel call on the lowered
    exponents (clipped at 0 where alpha_kj = 0, which the factor alpha_kj zeroes);
    then the chain rule through the normalisation, (D_i - (D_i . s_i) s_i) / |v_i|.
    """
    (N, n), K = v.shape, len(E)
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    s = v / norm
    low = np.maximum(E[:, None, :] - np.eye(n, dtype=E.dtype), 0).reshape(K * n, n)
    # D[k, i, j] = d r_k / d s_ij
    D = E[:, None, :] * _quartic_monomials(s, low).reshape(K, n, N).transpose(0, 2, 1) / N
    J = (D - np.sum(D * s, axis=2, keepdims=True) * s) / norm
    return J.reshape(K, N * n)


def _damped_steps(J: np.ndarray, r: np.ndarray):
    """lam -> the step d solving (J^T J + lam I) d = -J^T r, from one eigh for every lam.

    Wide J (K <= P): J J^T = Q diag(sig) Q^T, d = -J^T Q (Q^T r / (sig + lam));
    tall J: J^T J = Q diag(sig) Q^T, d = -Q (Q^T J^T r / (sig + lam)); sig clipped
    at 0.  J J^T is singular along |s|^4 = 1, where the moment residual is rounding;
    a larger part of r in J's left null space would be amplified by 1/lam.
    """
    if J.shape[0] <= J.shape[1]:
        sig, Q = np.linalg.eigh(J @ J.T)
        c, sig = Q.T @ r, np.maximum(sig, 0)
        return lambda lam: -J.T @ (Q @ (c / (sig + lam)))
    sig, Q = np.linalg.eigh(J.T @ J)
    c, sig = Q.T @ (J.T @ r), np.maximum(sig, 0)
    return lambda lam: -Q @ (c / (sig + lam))


def _levenberg_marquardt(residual, jacobian, x: np.ndarray):
    """Minimize |residual(x)|^2 from x; returns the last accepted (x, residual(x)).

    Each step d solves [J; sqrt(lam) I] d = [-r; 0] in the least-squares sense,
    by _damped_steps.  lam falls 10x after a step that lowers the cost and rises
    10x after one that does not (which is then discarded).  Stops after _LM_STEPS
    steps or once |d| <= 1e-15 |x|.  J is evaluated and factored once per point,
    before the first step from it; a rejected step changes only lam, so its retry
    reuses that factorization.
    """
    r, lam, steps = residual(x), 1e-3, None
    for _ in range(_LM_STEPS):
        if steps is None:  # a new point: the first, or the last step was accepted
            steps = _damped_steps(jacobian(x), r)
        d = steps(lam)
        x_new = x + d
        r_new = residual(x_new)
        if r_new @ r_new < r @ r:
            x, r, lam, steps = x_new, r_new, lam / 10, None
        else:
            lam *= 10
        if np.linalg.norm(d) <= 1e-15 * np.linalg.norm(x):
            break
    return x, r


def optimize_design(n: int, N: int, seed: int = 0, iters: int = 40) -> dict:
    """Search for an N-point uniform design on S^{n-1} by residual minimization.

    Levenberg-Marquardt (_levenberg_marquardt) on the moment residual vector
    over points parametrized as normalized raw vectors, with the analytic
    Jacobian (_moment_jacobian) and up to ``iters`` random restarts; the
    search stops at the first restart whose residual is below _RESIDUAL_TOL in
    the infinity norm.  Returns {"design", "residual", "status"}: status is OK
    iff the residual of the returned design is below _RESIDUAL_TOL.
    NON_CONVERGED is a reported status, not an exception.
    """
    if N < n + 1:
        raise ValueError("need N >= n+1 points")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    E = _exponents(n)
    iso = isotropic_moment_tensor(n)

    def residual(v):
        pts = v.reshape(N, n)
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return _moment_residual(pts, E, iso)

    def jacobian(v):
        return _moment_jacobian(v.reshape(N, n), E)

    rng = np.random.default_rng(seed)
    best_x, best_r = None, None
    for _ in range(iters):
        x, r = _levenberg_marquardt(residual, jacobian, rng.standard_normal(N * n))
        if best_r is None or r @ r < best_r @ best_r:
            best_x, best_r = x, r
        if np.max(np.abs(best_r)) < _RESIDUAL_TOL:
            break
    pts = best_x.reshape(N, n)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    d = Design(n=n, points=pts, weights=np.full(N, 1.0 / N))
    residual = is_degree4_design(d, tol=np.inf)["residual"]
    status = "OK" if residual < _RESIDUAL_TOL else "NON_CONVERGED"
    return {"design": d, "residual": residual, "status": status}


# ---------------------------------------------------------------------------
# bridge to immersions

def torus_immersion_from_design(d) -> immersions.ImmersionSpec:
    """Flat-torus immersion spanned by the design directions.

    One torus factor per design point (amplitude sqrt(w_i), unit row s_i) with
    the default scale sqrt(n/M); the pullback metric is then the identity and
    the measured normal curvature is sqrt(3n/(n+2)).
    """
    check = is_degree4_design(d)
    if not check["ok"]:
        raise ValueError(f"input is not a degree-4 design (residual {check['residual']})")
    if isinstance(d, RationalDesign):
        d = d.to_float()
    return immersions.torus_linear(rows=d.points, weights=d.weights)


def pentagon_design() -> Design:
    """Regular pentagon on the circle: the classic degree-4 cardinality-5 design."""
    ang = 2.0 * math.pi * np.arange(5) / 5.0
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Design(n=2, points=pts, weights=np.full(5, 0.2))


# ---------------------------------------------------------------------------
# JSON wire format

def _rational(x) -> Fraction:
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return _fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"expected an exact 'p/q' string, got {json.dumps(x)}")


def design_from_json(data):
    """Parse the design file format.

    Rational mode: {"n":2,"points":[["3/5","4/5"],...],"multiplicities":[...]}
    with exact "p/q" strings.  Float mode: decimal points and optional
    "weights" (default uniform).  Any malformed input raises ValueError with a
    one-line message, as does an unknown key ("design 'wieghts': unknown key"),
    except the ones that ``design hilbert|optimize --out`` write beside the design.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"design must be a JSON object, got {type(data).__name__}")
    exact = "multiplicities" in data
    n, pts, extra = _fields("design", data, (
        ("n", _count),
        ("points", _list(_list(_rational if exact else _real))),
        ("multiplicities", _list(_count)) if exact else ("weights", _optional(_list(_real))),
    ), also=("cardinality", "residual", "status", "meta"))
    if n < 1:
        raise ValueError(f"design 'n': expected an integer >= 1, got {n}")
    if not pts or any(len(p) != n for p in pts):
        raise ValueError(f"design 'points': expected a non-empty list of {n}-coordinate points")
    if exact:
        return RationalDesign(n=n, points=tuple(map(tuple, pts)), multiplicities=tuple(extra))
    w = np.full(len(pts), 1.0 / len(pts)) if extra is None else np.array(extra)
    return Design(n=n, points=np.array(pts), weights=w)


def design_to_json(d) -> dict:
    if isinstance(d, RationalDesign):
        return {"n": d.n, "points": [[str(x) for x in p] for p in d.points],
                "multiplicities": list(d.multiplicities)}
    return {"n": d.n, "points": [[float(x) for x in p] for p in d.points],
            "weights": [float(w) for w in d.weights]}
