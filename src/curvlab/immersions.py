"""Catalog of explicitly parametrized immersions with analytic 2-jets.

Every immersion is an :class:`ImmersionSpec`: one small frozen dataclass per
kind, holding only that kind's parameters.  A kind owns its dimensions, its
analytic jet, its hyperspherical charts, its containment radius and its JSON
form; ``_KINDS`` maps each JSON ``kind`` to its wire and constructor.  Five
classes: products of spheres (a round sphere is the one-factor product), Clifford
tori, linear sub-tori of Clifford tori (the design-torus construction), quadratic
Veronese embeddings of projective spaces, and tube encirclings of round spheres.
A kind states its map; one chain rule builds the Veronese and tube jets.

Parameter domains are unbounded; angle coordinates wrap.  Hyperspherical charts
are singular at the poles (``sin`` of a polar angle vanishing), so samplers
keep away from chart boundaries, and orbit charts use regular points only.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar

import numpy as np

__all__ = [
    "ImmersionSpec",
    "Jet2",
    "round_sphere",
    "sphere_product",
    "clifford_torus",
    "torus_linear",
    "veronese",
    "tube_encircle",
    "jet2",
    "sample_params",
    "spec_from_json",
    "spec_to_json",
]

_ROW_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Jet2:
    """2-jet of a parametrization: position, Jacobian and Hessian stack.

    ``point`` is in R^N, ``jac`` is N x n and ``hess`` is N x n x n with
    ``hess[..., i, j] == hess[..., j, i]``.  A jet of B basepoints carries a
    leading B axis on all three.
    """

    point: np.ndarray
    jac: np.ndarray
    hess: np.ndarray


# ---------------------------------------------------------------------------
# JSON field parsers: each returns a clean value or raises ValueError

def _fraction(x) -> Fraction:
    """Fraction(x); a string exponent above 9999 is a ValueError, since
    Fraction("1e99999999") would build 10**99999999 for minutes."""
    exponent = isinstance(x, str) and re.search(r"[eE][+-]?([\d_]+)", x)
    if exponent and int(exponent.group(1)) > 9999:
        raise ValueError("exponent above 9999")
    return Fraction(x)


def _to_float(x) -> float:
    return float(_fraction(x)) if isinstance(x, str) else float(x)


def _count(x) -> int:
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"expected an integer, got {json.dumps(x)}")
    return x


def _real(x) -> float:
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            v = _to_float(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        else:
            if math.isfinite(v):
                return v
    raise ValueError(f"expected a finite number or a 'p/q' string, got {json.dumps(x)}")


def _list(item):
    def parse(x):
        if not isinstance(x, list):
            raise ValueError(f"expected a list, got {json.dumps(x)}")
        return [item(v) for v in x]
    return parse


def _optional(parse):
    return lambda x: None if x is None else parse(x)


def _fields(what: str, data: dict, wire, also=()) -> list:
    """Each (key, parse) of wire applied to data[key]; errors name the field.  A key in
    neither wire nor also (keys the caller reads itself, or skips) is an error."""
    known = {key for key, _ in wire}.union(also)
    unknown = next((key for key in data if key not in known), None)
    if unknown is not None:
        raise ValueError(f"{what} {unknown!r}: unknown key")
    out = []
    for key, parse in wire:
        try:
            out.append(parse(data.get(key)))
        except ValueError as e:
            raise ValueError(f"{what} {key!r}: {e if key in data else 'missing'}") from None
    return out


def _factor(x) -> tuple[int, float]:
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError(f"expected an [n, R] pair, got {json.dumps(x)}")
    return _count(x[0]), _real(x[1])


# ---------------------------------------------------------------------------
# hyperspherical chart jets

def _sphere_chart_jet(u: np.ndarray, R: float):
    """Position/Jacobian/Hessian of the angle chart of S^m(R) in R^{m+1}.

    x_0 = R cos u_0, x_k = R cos u_k * prod_{j<k} sin u_j, x_m = R prod sin u_j.
    Coordinate i is the product over j of f[i, j]: sin u_j for j < i, cos u_i
    at j = i, and 1 for j > i.  Derivatives replace factors (f' at the
    differentiated angles, f'' = -f on a repeated one) and never divide, so
    the chart stays finite at its poles.  Leading axes of u are batch axes.
    """
    m = u.shape[-1]
    i, j = np.arange(m + 1)[:, None], np.arange(m)
    s, c = np.sin(u)[..., None, :], np.cos(u)[..., None, :]
    f = np.where(j < i, s, np.where(j == i, c, 1.0))  # ... x (m+1) x m
    df = np.where(j < i, c, np.where(j == i, -s, 0.0))
    ddf = np.where(j <= i, -f, 0.0)
    eye = np.eye(m, dtype=bool)
    f1, df1 = f[..., :, None, :], df[..., :, None, :]
    point = R * f.prod(axis=-1)
    jac = R * np.where(eye, df1, f1).prod(axis=-1)
    pair = eye[:, None, :] | eye[None, :, :]  # factor j is differentiated for (a, b)
    hess = R * np.where(pair, df1[..., None, :], f1[..., None, :]).prod(axis=-1)
    diag = np.arange(m)
    hess[..., diag, diag] = R * np.where(eye, ddf[..., :, None, :], f1).prod(axis=-1)
    return point, jac, hess


def _block_diag_jet(parts):
    """Stack independent chart jets into one jet with block-diagonal structure."""
    point = np.concatenate([p for p, _, _ in parts], axis=-1)
    n = sum(J.shape[-1] for _, J, _ in parts)
    jac, hess = np.zeros(point.shape + (n,)), np.zeros(point.shape + (n, n))
    ro = co = 0
    for _, J, H in parts:
        Ni, ni = J.shape[-2:]
        jac[..., ro : ro + Ni, co : co + ni] = J
        hess[..., ro : ro + Ni, co : co + ni, co : co + ni] = H
        ro, co = ro + Ni, co + ni
    return point, jac, hess


def _torus_jet(u: np.ndarray, L: np.ndarray, scale: float, w: np.ndarray):
    """Factor i is amp_i (cos, sin)(theta_i) with theta = sqrt(M) scale L u."""
    M, n = L.shape
    g = math.sqrt(M) * scale * L  # M x n, gradient of each angle
    theta = (g @ u[..., None])[..., 0]  # g @ u per basepoint: rounds as one point does
    batch = theta.shape[:-1]
    amp = np.sqrt(w)
    ac, as_ = amp * np.cos(theta), amp * np.sin(theta)
    gg = g[:, :, None] * g[:, None, :]
    point = np.stack([ac, as_], axis=-1).reshape(batch + (2 * M,))
    jac = np.stack([-as_[..., None] * g, ac[..., None] * g], axis=-2)
    hess = np.stack([-ac[..., None, None] * gg, -as_[..., None, None] * gg], axis=-3)
    return point, jac.reshape(batch + (2 * M, n)), hess.reshape(batch + (2 * M, n, n))


def _quadratic_jet(A, T, x, Jx, Hx):
    """2-jet of f(x) = A x + T[x, x] / 2 (T symmetric, N x D x D) after the inner jet
    (x, Jx, Hx): the chain rule with Df = A + T x and D^2 f = T.  T[Jx, Jx] is
    contracted one Jx at a time, in O(N D n (D + n)) rather than O(N D^2 n^2)."""
    Df = A + np.einsum("kab,...b->...ka", T, x)
    point = np.einsum("ka,...a->...k", A, x) + 0.5 * np.einsum("kab,...a,...b->...k", T, x, x)
    TJJ = np.swapaxes(Jx, -1, -2)[..., None, :, :] @ (T @ Jx[..., None, :, :])
    return point, Df @ Jx, np.einsum("...ka,...aij->...kij", Df, Hx) + TJJ


@functools.lru_cache(maxsize=None)
def _veronese_basis(m: int) -> np.ndarray:
    """Orthonormal basis (Frobenius) of traceless symmetric (m+1)x(m+1) matrices."""
    d = m + 1
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            B = np.zeros((d, d))
            B[i, j] = B[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(B)
    for k in range(1, d):
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -k
        v /= math.sqrt(k * (k + 1))
        mats.append(np.diag(v))
    return np.stack(mats)


# ---------------------------------------------------------------------------
# kinds

class ImmersionSpec:
    """Symbolic description of a catalog immersion; one subclass per kind (a round
    sphere is a one-factor :class:`SphereProduct`).

    A kind sets ``kind`` (its JSON name), ``wire`` (the JSON key and parser of each
    field, in field order), ``chart_dims`` (the dimensions of its hyperspherical charts,
    in parameter order; none for tori), its ``ambient_dim``, its ``declared_radius``
    and its analytic ``_jet``.  A kind that is not homogeneous also sets ``orbit_nodes``.
    """

    kind: ClassVar[str]
    wire: ClassVar[tuple]
    chart_dims: tuple[int, ...] = ()

    @property
    def intrinsic_dim(self) -> int:
        return sum(self.chart_dims)

    @property
    def polar_columns(self) -> list[int]:
        """Parameter columns holding a chart's polar angles: all but its last."""
        ends = np.cumsum(self.chart_dims, dtype=int)
        return [c for m, e in zip(self.chart_dims, ends) for c in range(e - m, e - 1)]

    def orbit_nodes(self) -> np.ndarray:
        """(B, n) chart points meeting every orbit of the symmetry group: for a
        homogeneous kind, one regular node, polar columns at pi/2, others at 0."""
        u = np.zeros((1, self.intrinsic_dim))
        u[:, self.polar_columns] = math.pi / 2
        return u


@dataclass(frozen=True)
class SphereProduct(ImmersionSpec):
    factors: tuple[tuple[int, float], ...]
    kind = "sphere_product"
    wire = (("factors", _list(_factor)),)
    chart_dims = property(lambda self: tuple(ni for ni, _ in self.factors))
    ambient_dim = property(lambda self: self.intrinsic_dim + len(self.factors))
    declared_radius = property(lambda self: math.hypot(*(R for _, R in self.factors)))

    def _jet(self, u):
        ends = np.cumsum(self.chart_dims)
        return _block_diag_jet([_sphere_chart_jet(u[..., e - ni : e], Ri)
                                for (ni, Ri), e in zip(self.factors, ends)])


@dataclass(frozen=True)
class CliffordTorus(ImmersionSpec):
    N: int
    kind = "clifford_torus"
    wire = (("N", _count),)
    intrinsic_dim = property(lambda self: self.N)
    ambient_dim = property(lambda self: 2 * self.N)
    declared_radius = 1.0

    def _jet(self, u):
        return _torus_jet(u, np.eye(self.N), 1.0, np.full(self.N, 1.0 / self.N))


@dataclass(frozen=True)
class TorusLinear(ImmersionSpec):
    rows: tuple[tuple[float, ...], ...]
    scale: float
    weights: tuple[float, ...]
    kind = "torus_linear"
    wire = (("rows", _list(_list(_real))), ("scale", _optional(_real)),
            ("weights", _optional(_list(_real))))
    intrinsic_dim = property(lambda self: len(self.rows[0]))
    ambient_dim = property(lambda self: 2 * len(self.rows))
    declared_radius = 1.0

    def _jet(self, u):
        return _torus_jet(u, np.array(self.rows), self.scale, np.array(self.weights))


@dataclass(frozen=True)
class Veronese(ImmersionSpec):
    m: int
    kind = "veronese"
    wire = (("m", _count),)
    chart_dims = property(lambda self: (self.m,))
    ambient_dim = property(lambda self: (self.m + 1) * (self.m + 2) // 2 - 1)
    declared_radius = 1.0

    def _jet(self, u):
        # f_k(x) = sqrt((m+1)/m) x^T B_k x on S^m (B_k traceless: the -I/(m+1) shift drops)
        T = 2.0 * math.sqrt((self.m + 1) / self.m) * _veronese_basis(self.m)
        return _quadratic_jet(np.zeros(T.shape[:2]), T, *_sphere_chart_jet(u, 1.0))


@dataclass(frozen=True)
class Tube(ImmersionSpec):
    base_r: float
    n1: int
    n2: int
    rho: float
    kind = "tube"
    wire = (("r", _real), ("n1", _count), ("n2", _count), ("rho", _real))
    chart_dims = property(lambda self: (self.n1, self.n2))
    ambient_dim = property(lambda self: self.n1 + 1 + self.n2)
    declared_radius = property(lambda self: self.base_r + self.rho)

    def orbit_nodes(self) -> np.ndarray:
        """The inner sphere phi = pi, then the outer one phi = 0, on the normal-sphere
        azimuth: SO(n1+1) x SO(n2) has the level sets of cos phi as orbits (Hsiang &
        Lawson 1971).  The principal curvatures are 1/rho on the fibre and
        cos phi / (r + rho cos phi) on the base (Cecil & Ryan 2015), so curv at phi
        is max(1/rho, |cos phi| / (r + rho cos phi)): phi = pi carries the sup,
        max(1/rho, 1/(r - rho)), and phi = 0 the least value, 1/rho."""
        u = np.repeat(super().orbit_nodes(), 2, axis=0)
        u[0, -1] = math.pi
        return u

    def _jet(self, u):
        # f(s, w) = ((1 + (rho/r) w_k) s, rho w_others) on S^{n1}(r) x S^{n2}(1), with w_k,
        # k = n2 - 1, the normal azimuth (regular at phi = 0, pi): column c of x = (s, w)
        n1, N, c = self.n1, self.ambient_dim, self.n1 + self.n2
        A = np.delete(np.diag(np.where(np.arange(N + 1) <= n1, 1.0, self.rho)), c, axis=0)
        T, i = np.zeros((N, N + 1, N + 1)), np.arange(n1 + 1)
        T[i, i, c] = T[i, c, i] = self.rho / self.base_r
        return _quadratic_jet(A, T, *SphereProduct(((n1, self.base_r), (self.n2, 1.0)))._jet(u))


# ---------------------------------------------------------------------------
# constructors

def round_sphere(n: int, R: float) -> ImmersionSpec:
    if n < 1 or R <= 0:
        raise ValueError("round sphere needs n >= 1 and R > 0")
    return sphere_product([(n, R)])


def sphere_product(factors) -> ImmersionSpec:
    factors = tuple((int(ni), float(Ri)) for ni, Ri in factors)
    if not factors or any(ni < 1 or Ri <= 0 for ni, Ri in factors):
        raise ValueError("each factor needs n_i >= 1 and R_i > 0")
    return SphereProduct(factors=factors)


def clifford_torus(N: int) -> ImmersionSpec:
    if N < 1:
        raise ValueError("clifford torus needs N >= 1")
    return CliffordTorus(N=int(N))


def torus_linear(rows, scale: float | None = None, weights=None) -> ImmersionSpec:
    """Linear sub-torus of the Clifford M-torus.

    ``rows`` is an M x n matrix whose rows are unit direction vectors; the
    angle of torus factor i is sqrt(M) * scale * <rows_i, u>.  The default
    scale sqrt(n/M) makes the pullback metric of a degree-4 design row matrix
    exactly Euclidean.  ``weights`` are optional per-factor squared amplitudes
    (nonnegative, summing to 1); the default is uniform, which recovers the
    equal-amplitude Clifford wrapping.
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("torus_linear rows must all have the same length")
    L = np.array([[_to_float(x) for x in row] for row in rows], dtype=float)
    if L.ndim != 2 or L.shape[0] < 1:
        raise ValueError("rows must be a nonempty matrix")
    M, n = L.shape
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norms = np.linalg.norm(L, axis=1)
    if np.any(np.abs(norms - 1.0) > _ROW_UNIT_TOL):
        raise ValueError("torus_linear rows must have unit norm within 1e-12")
    if scale is None:
        scale = math.sqrt(n / M)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if weights is None:
        w = np.full(M, 1.0 / M)
    else:
        w = np.asarray([_to_float(x) for x in weights], dtype=float)
        if w.shape != (M,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be nonnegative and sum to 1")
    return TorusLinear(rows=tuple(tuple(row) for row in L), scale=float(scale),
                       weights=tuple(w))


def veronese(m: int) -> ImmersionSpec:
    if m < 1:
        raise ValueError("veronese needs m >= 1")
    return Veronese(m=int(m))


def tube_encircle(base_r: float, n1: int, n2: int, rho: float) -> ImmersionSpec:
    if base_r <= 0 or rho <= 0:
        raise ValueError("radii must be positive")
    if rho >= base_r:
        raise ValueError("tube radius rho must satisfy rho < base_r (immersed encircling)")
    if n1 < 1 or n2 < 1:
        raise ValueError("sphere dimensions must be >= 1")
    return Tube(base_r=float(base_r), n1=int(n1), n2=int(n2), rho=float(rho))


_KINDS = {cls.kind: (cls.wire, make) for cls, make in (
    (SphereProduct, sphere_product),
    (CliffordTorus, clifford_torus),
    (TorusLinear, torus_linear),
    (Veronese, veronese),
    (Tube, tube_encircle),
)}
_KINDS["round_sphere"] = ((("n", _count), ("R", _real)), round_sphere)  # no class of its own


# ---------------------------------------------------------------------------
# operations

def _check_params(spec: ImmersionSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim < 2:
        u = u.reshape(-1)
    if u.ndim > 2 or u.shape[-1] != spec.intrinsic_dim:
        raise ValueError(
            f"parameter shape {u.shape} is not (n,) or (B, n) with n = {spec.intrinsic_dim}"
        )
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite parameter")
    return u


def jet2(spec: ImmersionSpec, u) -> Jet2:
    """Analytic 2-jet of the parametrization at u.

    u of shape (n,) gives one jet; a (B, n) stack of basepoints gives a
    stacked Jet2 whose arrays carry a leading B axis.
    """
    u = _check_params(spec, u)
    with np.errstate(over="ignore", invalid="ignore"):  # fundamental_data rejects inf and nan
        point, jac, hess = spec._jet(u)
    return Jet2(point=point, jac=jac, hess=hess)


def sample_params(spec: ImmersionSpec, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Random parameter points, polar angles kept 0.4 from the chart's poles.

    The draw order is part of the output: one uniform (n_samples, n) draw,
    then one draw per polar column in increasing column order.
    """
    u = rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, spec.intrinsic_dim))
    for c in spec.polar_columns:
        u[:, c] = rng.uniform(0.4, math.pi - 0.4, size=n_samples)
    return u


# ---------------------------------------------------------------------------
# JSON wire format

def spec_from_json(data) -> ImmersionSpec:
    """Parse the immersion-spec JSON format.

    Examples: {"kind":"clifford_torus","N":4},
    {"kind":"sphere_product","factors":[[1,0.6],[1,0.8]]},
    {"kind":"torus_linear","rows":[[...]],"scale":...},
    {"kind":"veronese","m":2},
    {"kind":"tube","r":0.6667,"n1":1,"n2":1,"rho":0.3333}.
    Numbers may be decimals or exact "p/q" strings.  Any malformed input
    raises ValueError with a one-line message, as does a key the kind does not
    read ("veronese 'R': unknown key"), so no field is silently dropped.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown immersion kind {json.dumps(kind)}")
    wire, make = _KINDS[kind]
    return make(*_fields(kind, data, wire, also=("kind",)))


def _plain(v):
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


def spec_to_json(spec: ImmersionSpec) -> dict:
    values = (getattr(spec, f.name) for f in fields(spec))
    return {"kind": spec.kind, **{key: _plain(v) for (key, _), v in zip(spec.wire, values)}}
