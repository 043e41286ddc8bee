"""Closed-form curvature bounds and the consistency report.

Lower bounds (valid for every immersion of the stated manifold family into
the stated target) and upper bounds (realized by explicit constructions) are
collected as tagged entries; the report cross-checks every applicable
lower/upper pair.  A Bessel first-zero solver, one tridiagonal eigenvalue,
backs the focal-radius and ball eigenvalue formulas.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundEntry",
    "UNBOUNDED",
    "lower_petrunin",
    "lower_sphere_A",
    "lower_sphere_B",
    "lower_band",
    "bessel_j_zero",
    "bessel_bracket",
    "lower_focal",
    "upper_constructions",
    "lower_entries",
    "veronese_dims",
    "report",
    "report_to_csv",
]

UNBOUNDED = "UNBOUNDED"

# order of the truncated Bessel recurrence matrix in bessel_j_zero
_BESSEL_K = 80

LABELS = frozenset({
    "petrunin", "sphere-A", "sphere-B", "band", "focal",
    "clifford", "design-torus", "codim1-pair", "codim1-triple",
    "codim1-general", "codim1-power", "torus-codim1", "veronese", "j_nu",
})


@dataclass(frozen=True)
class BoundEntry:
    """One curvature bound: side 'lower' holds for every immersion of the
    family into the ambient ball; side 'upper' is achieved by a construction.

    ambient is the ambient dimension, or UNBOUNDED when the bound holds for
    (lower) / the construction exists in (upper) balls of every dimension.
    family tags the manifold class so only like-for-like pairs are compared.
    """

    n: int
    ambient: object  # int or UNBOUNDED
    value: float
    side: str
    label: str
    family: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bound values are nonnegative")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")


# ---------------------------------------------------------------------------
# lower bounds

def lower_petrunin(n: int) -> float:
    """sqrt(3n/(n+2)): floor for the normal curvature of any flat torus in the
    unit ball, independent of the ambient dimension.  Increases to sqrt(3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(3.0 * n / (n + 2))


def lower_sphere_A(n: int, k: int) -> float:
    """sqrt((n-1)/k) for n-manifolds immersed in the unit sphere of codim k."""
    if n < 1 or k < 1:
        raise ValueError("n >= 1 and k >= 1 required")
    return math.sqrt((n - 1) / k)


def lower_sphere_B(n: int) -> float:
    """sqrt((2n-2)/(n+2)), the codimension-free companion of lower_sphere_A."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt((2.0 * n - 2) / (n + 2))


def lower_band(n: int) -> dict:
    """(n+1)/pi - 1 for the n-torus in the unit ball of dimension n+1.

    Negative raw values (small n) clamp to 0 since curvature is nonnegative;
    values below 1 are flagged weak (the bound only informs for n >= 9).
    The same value is reported for targets thickened by extra ball factors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = (n + 1) / math.pi - 1.0
    return {
        "value": max(raw, 0.0),
        "raw": raw,
        "clamped": raw < 0,
        "weak": raw < 1.0,
    }


# ---------------------------------------------------------------------------
# Bessel zeros

def bessel_j_zero(nu: float) -> float:
    """First positive zero j_nu of the Bessel function J_nu, nu >= -1/2.

    1/j_nu is the largest eigenvalue of the K x K symmetric tridiagonal matrix
    with zero diagonal and off-diagonal 1/(2 sqrt((nu+k)(nu+k+1))), k = 1..K-1:
    at a zero of J_nu the recurrence J_{nu+k-1} + J_{nu+k+1} = (2(nu+k)/x) J_{nu+k}
    is an eigenvalue problem in 1/x (Ikebe, Math. Comp. 29, 1975).  K = 80
    truncates it well below one ulp for nu <= 40.
    """
    if nu < -0.5:
        raise ValueError("nu must be >= -1/2")
    k = np.arange(1, _BESSEL_K)
    off = 0.5 / np.sqrt((nu + k) * (nu + k + 1))
    return float(1.0 / np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[-1])


def bessel_bracket(nu: float, eps: float = 0.1) -> tuple[float, float]:
    """Two-sided estimate for the first zero of J_nu, valid for moderate nu > 1/2:

        nu + a nu^(1/3)/2^(1/3) < j_nu < (same) + (3/20) 2^(2/3) a^2 / sqrt(nu)

    with a = (9 pi / 8)^(2/3) (1 + eps)."""
    if nu <= 0.5:
        raise ValueError("bracket applies for nu > 1/2")
    a = (9.0 * math.pi / 8.0) ** (2.0 / 3.0) * (1.0 + eps)
    lo = nu + a * nu ** (1.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    hi = lo + (3.0 / 20.0) * 2.0 ** (2.0 / 3.0) * a**2 / math.sqrt(nu)
    return lo, hi


# ---------------------------------------------------------------------------
# focal / eigenvalue bounds

def lower_focal(ambient_n: int, r: float) -> float:
    """Curvature floor for hypersurfaces spanning the ball B^ambient_n(r):

        (2 j_nu / (pi r)) * sqrt((ambient_n + 1)/ambient_n) - r,
        nu = ambient_n/2 - 1."""
    if ambient_n < 2 or r <= 0:
        raise ValueError("ambient_n >= 2 and r > 0 required")
    j = bessel_j_zero(ambient_n / 2.0 - 1.0)
    return (2.0 * j / (math.pi * r)) * math.sqrt((ambient_n + 1) / ambient_n) - r


# ---------------------------------------------------------------------------
# registries

def upper_constructions(n: int) -> list:
    """Curvature values achieved by the explicit constructions in dimension n.

    Families: 'torus' entries are flat tori; 'sphere-product' are products of
    round spheres; 'projective' is the quadratic-form embedding of RP^n;
    'general' covers every closed orientable hypersurface re-embedded into a
    high-dimensional ball.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [
        BoundEntry(n, 2 * n, math.sqrt(n), "upper", "clifford", "torus"),
        # realized ambient dim is twice the cardinality of whichever design
        # the construction uses, hence not fixed here
        BoundEntry(n, UNBOUNDED, math.sqrt(3.0 * n / (n + 2)), "upper",
                   "design-torus", "torus"),
        BoundEntry(n, n + 1, 6.0 * n**1.5, "upper", "torus-codim1", "torus"),
        BoundEntry(n, n * (n + 3) // 2, math.sqrt(2.0 * n / (n + 1)), "upper",
                   "veronese", "projective"),
        BoundEntry(n, 20 * n**2 + n + 1,
                   1.0 + 2.0 * math.sqrt(3.0 * (n + 1) / (n + 3)), "upper",
                   "codim1-general", "general"),
    ]
    if n >= 2:
        fam = "torus" if n == 2 else "sphere-product"
        out.append(BoundEntry(n, n + 1, 3.0, "upper", "codim1-pair", fam))
    if n >= 3:
        out.append(BoundEntry(n, n + 1, 1.0 + 2.0 * math.sqrt(2.0), "upper",
                              "codim1-triple", "sphere-product"))
    m = math.isqrt(n)
    if m * m == n and m >= 1:
        out.append(BoundEntry(n, m * (m + 2) + 1,
                              1.0 + 2.0 * math.sqrt(m + 1.0), "upper",
                              "codim1-power", "sphere-product"))
    return out


def lower_entries(n: int) -> list:
    """Lower-bound registry in dimension n (families as in upper_constructions;
    'sphere-immersed' bounds assume the image lies in a unit sphere)."""
    out = [
        BoundEntry(n, UNBOUNDED, lower_petrunin(n), "lower", "petrunin", "torus"),
        BoundEntry(n, n + 1, lower_band(n)["value"], "lower", "band", "torus"),
        BoundEntry(n, UNBOUNDED, lower_sphere_B(n), "lower", "sphere-B",
                   "sphere-immersed"),
    ]
    if n >= 2:
        # codimension matching the clifford construction inside S^(2n-1)
        out.append(BoundEntry(n, 2 * n, lower_sphere_A(n, n - 1), "lower",
                              "sphere-A", "sphere-immersed"))
        out.append(BoundEntry(n, n + 1, max(lower_focal(n + 1, 1.0), 0.0),
                              "lower", "focal", "torus"))
    return out


def veronese_dims(m: int, s: int) -> dict:
    """Ambient sphere dimension and radius for the degree-s quadratic-forms
    embedding of RP^m:

        m_s = (2s+m-1) (s+m-2)! / (s! (m-1)!) - 1,   R_s = sqrt(s(s+m-1)/m).

    Exact integer arithmetic for m_s."""
    if m < 1 or s < 1:
        raise ValueError("m >= 1 and s >= 1 required")
    m_s = (2 * s + m - 1) * math.factorial(s + m - 2) \
        // (math.factorial(s) * math.factorial(m - 1)) - 1
    r_s = math.sqrt(s * (s + m - 1) / m)
    return {"m_s": m_s, "R_s": r_s}


# ---------------------------------------------------------------------------
# consistency report

def _applicable(lo: BoundEntry, up: BoundEntry) -> bool:
    """A lower bound constrains an upper construction when the families match
    and the bound covers the construction's ambient dimension."""
    if lo.family == "sphere-immersed":
        # these bounds assume the image lies in the unit sphere; among the
        # constructions, only the clifford and veronese images do
        family = up.label in ("clifford", "veronese")
    else:
        family = lo.family == up.family
    return family and lo.ambient in (UNBOUNDED, up.ambient)


def report(n_min: int, n_max: int) -> dict:
    """Bound table with all lower<=upper cross-checks for n in [n_min, n_max].

    Every applicable (lower, upper) pair is asserted; violations are listed
    (an empty list is the consistency gate).  Also checks the radius/curvature
    reciprocity of the projective embedding, R_2(n) * curv = 2, to 1e-12.
    """
    if not (1 <= n_min <= n_max <= 64):
        raise ValueError("need 1 <= n_min <= n_max <= 64")
    rows, checks = [], []
    for n in range(n_min, n_max + 1):
        lowers = lower_entries(n)
        uppers = upper_constructions(n)
        rows.extend(lowers + uppers)
        for lo in lowers:
            for up in uppers:
                if not _applicable(lo, up):
                    continue
                checks.append({
                    "n": n, "lower": lo.label, "upper": up.label, "lower_value": lo.value,
                    "upper_value": up.value, "ok": lo.value <= up.value + 1e-12,
                })
        recip = veronese_dims(n, 2)["R_s"] * math.sqrt(2.0 * n / (n + 1))
        checks.append({
            "n": n, "lower": "veronese-reciprocity", "upper": "veronese",
            "lower_value": recip, "upper_value": 2.0, "ok": abs(recip - 2.0) <= 1e-12,
        })
    violations = [c for c in checks if not c["ok"]]
    return {
        "n_min": n_min,
        "n_max": n_max,
        "rows": rows,
        "checks": checks,
        "violations": violations,
        "ok": not violations,
        "annotations": {
            "j0_first_zero": bessel_j_zero(0.0),
            "band_note": "band entries below 1 are weak; informative for n >= 9",
        },
    }


def report_to_csv(rep: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "ambient", "side", "label", "value", "source_tag"])
    for e in rep["rows"]:
        w.writerow([e.n, e.ambient, e.side, e.label, repr(e.value), e.family])
    return buf.getvalue()

