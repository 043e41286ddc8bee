"""Closed-form bound registries and the Bessel-backed focal formulas.

The Bessel zeros are cross-checked against an independent oracle built here
from the ascending series

    J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))

evaluated in extended precision and bisected to the first zero, and against
mpmath's Bessel zeros.
"""

import math

import mpmath
import numpy as np
import pytest

from curvlab import bounds as bd


def bessel_series(nu, x, terms=60):
    """Ascending-series J_nu(x); plenty of terms for x < 20."""
    total = 0.0
    half = x / 2.0
    for k in range(terms):
        total += (-1) ** k * half ** (nu + 2 * k) / (
            math.factorial(k) * math.gamma(nu + k + 1))
    return total


def bessel_zero_oracle(nu, lo=1e-6, hi=None, steps=4000):
    """First zero of J_nu by scan plus bisection of the series."""
    hi = hi if hi is not None else nu + 20.0
    xs = np.linspace(lo, hi, steps)
    prev = bessel_series(nu, xs[0])
    for x in xs[1:]:
        cur = bessel_series(nu, x)
        if prev > 0 >= cur:
            a, b = x - (hi - lo) / (steps - 1), x
            for _ in range(200):
                mid = 0.5 * (a + b)
                if bessel_series(nu, mid) > 0:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)
        prev = cur
    raise AssertionError(f"no zero found for nu={nu}")


# ---------------------------------------------------------------------------
# scalar lower bounds

def test_petrunin_values():
    assert math.isclose(bd.lower_petrunin(1), 1.0, rel_tol=1e-15)
    assert math.isclose(bd.lower_petrunin(2), math.sqrt(1.5), rel_tol=1e-15)
    assert abs(bd.lower_petrunin(10_000) - math.sqrt(3.0)) < 1e-3


def test_petrunin_monotone_increasing():
    vals = [bd.lower_petrunin(n) for n in range(1, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < math.sqrt(3.0) for v in vals)


def test_sphere_bounds_and_crossover():
    assert math.isclose(bd.lower_sphere_A(9, 4), math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(bd.lower_sphere_B(10), math.sqrt(1.5), rel_tol=1e-15)
    # A beats B exactly up to the threshold codimension (n + 2) / 2
    n = 10
    for k in range(1, 13):
        a, b = bd.lower_sphere_A(n, k), bd.lower_sphere_B(n)
        assert (a >= b) == (k <= (n + 2) / 2)


def test_band_bound_values_and_clamping():
    r9 = bd.lower_band(9)
    assert math.isclose(r9["value"], 10.0 / math.pi - 1.0, rel_tol=1e-15)
    assert abs(r9["value"] - 2.1831) < 1e-4
    assert not r9["weak"] and not r9["clamped"]
    r5 = bd.lower_band(5)
    assert abs(r5["value"] - 0.9099) < 1e-4
    assert r5["weak"] and not r5["clamped"]
    r2 = bd.lower_band(2)
    assert r2["value"] == 0.0 and r2["clamped"] and r2["raw"] < 0


# ---------------------------------------------------------------------------
# Bessel zeros

def test_half_integer_zeros_are_closed_form():
    # J_{1/2} ~ sin x, J_{-1/2} ~ cos x
    assert abs(bd.bessel_j_zero(0.5) - math.pi) < 1e-10
    assert abs(bd.bessel_j_zero(-0.5) - math.pi / 2) < 1e-10


def test_j0_first_zero():
    assert abs(bd.bessel_j_zero(0.0) - 2.404826) < 1e-6


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0])
def test_zero_matches_series_oracle(nu):
    assert abs(bd.bessel_j_zero(nu) - bessel_zero_oracle(nu)) < 1e-9


def mpmath_first_zero(nu):
    """j_nu from mpmath at 30 digits; besseljzero takes nu >= 0 only, so the
    one negative order is a root of mpmath's own J_nu near its closed form."""
    with mpmath.workdps(30):
        if nu >= 0:
            return float(mpmath.besseljzero(nu, 1))
        return float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), 1.5))


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, *range(1, 11), 2.5, 7.3, 20.0, 31.0, 40.0])
def test_zero_matches_mpmath(nu):
    want = mpmath_first_zero(nu)
    assert abs(bd.bessel_j_zero(nu) - want) <= 1e-13 * want


def ikebe_first_zero(nu, K=80):
    """1/lambda_max of the K x K matrix of bessel_j_zero's docstring, in 30 digits:
    bisection on the Sturm count of its LDL^T pivots, from a bracket of
    2^-40 relative around bessel_j_zero's value that must hold lambda_max."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(nu)
        off_sq = [1 / (4 * (nu + k) * (nu + k + 1)) for k in range(1, K)]

        def below(x):  # eigenvalues below x
            d = -x
            count = d < 0
            for b2 in off_sq:
                d = -x - b2 / d
                count += d < 0
            return count
        lam = 1 / mpmath.mpf(bd.bessel_j_zero(float(nu)))
        lo, hi = lam * (1 - mpmath.mpf(2) ** -40), lam * (1 + mpmath.mpf(2) ** -40)
        assert (below(lo), below(hi)) == (K - 1, K)
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) == K else (mid, hi)
        return 1 / lo


def test_zero_is_the_top_eigenvalue_of_the_recurrence_matrix():
    # the bidiagonal half-block's sigma_max is the 80 x 80 matrix's lambda_max
    # to 4 eps relative at every order (a dense eigvalsh of it misses by 9.4 eps)
    for nu in np.arange(-0.5, 40.25, 0.5):
        want = ikebe_first_zero(nu)
        assert abs(bd.bessel_j_zero(float(nu)) - want) <= 4 * np.finfo(float).eps * want, nu


@pytest.mark.parametrize("nu", range(1, 11))
def test_bracket_contains_zero(nu):
    lo, hi = bd.bessel_bracket(float(nu))
    j = bd.bessel_j_zero(float(nu))
    assert lo < j < hi


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bd.bessel_j_zero(-0.6)
    with pytest.raises(ValueError):
        bd.bessel_bracket(0.5)


# ---------------------------------------------------------------------------
# focal / width / spectral formulas

def test_focal_lower_values():
    got = bd.lower_focal(2, 1.0)
    want = (2.0 * bd.bessel_j_zero(0.0) / math.pi) * math.sqrt(1.5) - 1.0
    assert math.isclose(got, want, rel_tol=1e-12)
    assert abs(got - 0.87498) < 1e-4
    assert bd.lower_focal(8, 1.0) > 2.5


def test_focal_lower_diverges_for_small_radius():
    assert bd.lower_focal(3, 1e-3) > 1e3


# ---------------------------------------------------------------------------
# registries

def _by_label(entries):
    return {e.label: e for e in entries}

def test_upper_constructions_n2():
    ups = _by_label(bd.upper_constructions(2))
    assert ups["clifford"].ambient == 4
    assert math.isclose(ups["clifford"].value, math.sqrt(2.0), rel_tol=1e-15)
    assert ups["codim1-pair"].ambient == 3
    assert ups["codim1-pair"].value == 3.0
    assert ups["codim1-pair"].family == "torus"
    assert "codim1-triple" not in ups


def test_upper_constructions_n3_n4():
    ups3 = _by_label(bd.upper_constructions(3))
    assert ups3["codim1-triple"].ambient == 4
    assert math.isclose(ups3["codim1-triple"].value, 1.0 + 2.0 * math.sqrt(2.0),
                        rel_tol=1e-15)
    ups4 = _by_label(bd.upper_constructions(4))
    assert ups4["veronese"].ambient == 14
    assert math.isclose(ups4["veronese"].value, math.sqrt(8.0 / 5.0),
                        rel_tol=1e-15)
    # 4 = 2^2 admits the power construction
    assert ups4["codim1-power"].ambient == 9
    assert math.isclose(ups4["codim1-power"].value, 1.0 + 2.0 * math.sqrt(3.0),
                        rel_tol=1e-15)


def test_lower_entries_families():
    los = _by_label(bd.lower_entries(4))
    assert los["petrunin"].ambient == bd.UNBOUNDED
    assert los["sphere-A"].ambient == 8
    assert los["sphere-B"].family == "sphere-immersed"
    assert los["focal"].ambient == 5


def test_entry_validation():
    with pytest.raises(ValueError):
        bd.BoundEntry(2, 4, -1.0, "lower", "petrunin", "torus")
    with pytest.raises(ValueError):
        bd.BoundEntry(2, 4, 1.0, "sideways", "petrunin", "torus")


def test_veronese_dims():
    # m_s is the ambient *sphere* dimension: for s=2 the quadratic-forms
    # embedding lands in S^(m(m+3)/2 - 1) inside R^(m(m+3)/2)
    for m in range(1, 12):
        assert bd.veronese_dims(m, 2)["m_s"] == m * (m + 3) // 2 - 1
    assert bd.veronese_dims(1, 2)["R_s"] == 2.0
    # m = 1: the circle has two harmonics in every degree, so the ambient
    # sphere is S^1 regardless of s
    assert all(bd.veronese_dims(1, s)["m_s"] == 1 for s in range(1, 11))
    # growth: ambient dimension increases in s but stays under 2^(s+m)
    for m in range(2, 11):
        vals = [bd.veronese_dims(m, s)["m_s"] for s in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for s, v in enumerate(vals, start=1):
            assert v < 2 ** (s + m)


def test_veronese_radius_curvature_reciprocity():
    for n in range(1, 20):
        r = bd.veronese_dims(n, 2)["R_s"]
        curv = math.sqrt(2.0 * n / (n + 1))
        assert abs(r * curv - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# report

def test_report_is_consistent_over_range():
    rep = bd.report(1, 16)
    assert rep["ok"]
    assert rep["violations"] == []
    assert len(rep["checks"]) > 100
    assert abs(rep["annotations"]["j0_first_zero"] - 2.404826) < 1e-6


def test_report_csv_and_file_output():
    rep = bd.report(2, 3)
    text = bd.report_to_csv(rep)
    header = text.splitlines()[0]
    assert header == "n,ambient,side,label,value,source_tag"
    assert len(text.splitlines()) == 1 + len(rep["rows"])


def test_report_range_validation():
    with pytest.raises(ValueError):
        bd.report(3, 2)
    with pytest.raises(ValueError):
        bd.report(0, 4)
