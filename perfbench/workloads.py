"""The benchmark's workloads: inputs, operation lists and reference checks.

Every operation is one ``curvlab.cli.main`` call.  Each carries a check that
compares its output file against a reference the benchmark derives itself:
closed-form curvatures, exact sphere moments computed here in rational
arithmetic, and a table of the claim suite's closed forms.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

DEFAULT_SEED = 0xC0FFEE

# design optimize's run time is set by how many random restarts its seed needs
# (at n=4, cardinality 23, seeds 0-7 took 1.3-7.5 s), so the optimizer always
# runs at curvlab's default seed: a restart count drawn from the benchmark seed
# would measure luck, not code.  The flip side: a change to the optimizer's
# random draws or convergence test can move design-build's pass_s several-fold
# through the restart count alone, at the same speed per restart.
OPTIMIZE_SEED = DEFAULT_SEED

CURV_TOL = 1e-6  # verify.py: Clifford, design torus, tube
VERONESE_TOL = 1e-4  # verify.py: Veronese
OPTIMIZE_RESIDUAL = 1e-10
UNIT_TOL = 1e-12


@dataclass
class Op:
    name: str
    argv: list
    out: str  # --out target; a directory for verify-paper
    check: Callable  # (output bytes) -> (ok, abs error or None, note)
    kind: str  # curvature | hilbert | optimize | claims
    seed: int | None = None  # fixed curvlab seed; None takes the run's seed

    def output_file(self) -> str:
        return os.path.join(self.out, "results.jsonl") if self.kind == "claims" else self.out


# ---------------------------------------------------------------------------
# independent references

def sphere_moment(alpha, n):
    """E[x^alpha] for x uniform on S^{n-1}: prod (a_i - 1)!! / (n (n+2) ... )."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = 1
    for a in alpha:
        num *= math.prod(range(a - 1, 0, -2))
    den = math.prod(n + 2 * j for j in range(sum(alpha) // 2))
    return Fraction(num, den)


def _quartic_exponents(n):
    for idx in combinations_with_replacement(range(n), 4):
        yield idx, tuple(idx.count(i) for i in range(n))


def exact_design_residual(payload) -> Fraction:
    """Max |moment - sphere moment| of a rational design, in exact arithmetic."""
    n = int(payload["n"])
    pts = [[Fraction(x) for x in p] for p in payload["points"]]
    mult = [int(m) for m in payload["multiplicities"]]
    if any(sum(x * x for x in p) != 1 for p in pts) or min(mult) < 1:
        return Fraction(1)
    Q = sum(mult)
    worst = Fraction(0)
    for idx, alpha in _quartic_exponents(n):
        acc = sum(P * math.prod(p[i] for i in idx) for p, P in zip(pts, mult))
        worst = max(worst, abs(Fraction(acc, Q) - sphere_moment(alpha, n)))
    return worst


def float_design_residual(payload) -> float:
    """Max |moment - sphere moment| of a weighted float design."""
    n = int(payload["n"])
    pts = [[float(x) for x in p] for p in payload["points"]]
    w = [float(x) for x in payload["weights"]]
    if any(abs(math.sqrt(sum(x * x for x in p)) - 1.0) > UNIT_TOL for p in pts) \
            or abs(sum(w) - 1.0) > UNIT_TOL:
        return math.inf
    worst = 0.0
    for idx, alpha in _quartic_exponents(n):
        m = sum(wi * math.prod(p[i] for i in idx) for p, wi in zip(pts, w))
        worst = max(worst, abs(m - float(sphere_moment(alpha, n))))
    return worst


# Closed forms of the claim suite's records: check_id -> (reference, tolerance).
# Tolerances are those of verify.py; a record is judged against this table, not
# against its own expected/tol fields, so a changed reference or a loosened
# tolerance shows, and a dropped or renamed record fails the operation.
_J0_FIRST_ZERO = 2.404825557695773
CLAIMS = {
    **{f"clifford-N{N}": (math.sqrt(N), 1e-6) for N in (2, 3, 4)},
    **{f"clifford-N{N}-spread": (0.0, 1e-6) for N in (2, 3, 4)},
    "formula-star": (0.0, 1e-8),
    "design-torus-curv": (0.0, 1e-6),
    "design-torus-metric": (0.0, 1e-9),
    **{f"hilbert-n{n}-residual": (0.0, 0.0) for n in (2, 3)},
    **{f"hilbert-n{n}-torus-curv": (0.0, 1e-6) for n in (2, 3)},
    **{f"veronese-m{m}-curv": (math.sqrt(2.0 * m / (m + 1)), 1e-4) for m in (2, 3)},
    **{f"veronese-m{m}-spherical": (math.sqrt((m - 1) / (m + 1)), 1e-4) for m in (2, 3)},
    **{f"veronese-m{m}-radius-reciprocity": (2.0, 1e-3) for m in (2, 3)},
    "tube-balanced": (3.0, 1e-6),
    "tube-grid": (0.0, 1e-6),
    "gauss-sc-sphere": (1.5, 1e-6),
    "gauss-petrunin-identity": (0.0, 1e-9),
    "pi-round-sphere": (1.0, 1e-9),
    "pi-monte-carlo": (0.0, 0.01),
    "fenchel-random": (0.0, 1e-9),
    "fenchel-square-equality": (True, None),
    "fenchel-skew-no-equality": (False, None),
    "arm-random": (True, None),
    "arm-congruent": (0.0, 1e-12),
    "bow-random": (True, None),
    "bow-arc-equality": (0.0, 1e-6),
    "crofton-circle": (8.0 * math.pi, 0.03 * 8.0 * math.pi),
    "bessel-j-half": (math.pi, 1e-10),
    "bessel-j-minus-half": (math.pi / 2, 1e-10),
    "bessel-j-zero": (_J0_FIRST_ZERO, 1e-6),
    "bessel-bracket": (True, None),
    "focal-exceeds-2.5": (True, None),
    "bounds-report": (0, 0),
    "scope-note": (True, None),
}


# ---------------------------------------------------------------------------
# checks: output bytes -> (ok, abs error or None, note)

def curvature_check(ref, tol):
    def check(data):
        got = json.loads(data)["curv"]
        err = abs(got - ref)
        return err <= tol, err, f"curv {got!r} vs {ref!r} (tol {tol:g})"
    return check


def hilbert_check(data):
    payload = json.loads(data)
    res = exact_design_residual(payload)
    card_ok = payload["cardinality"] == sum(payload["multiplicities"])
    return res == 0 and card_ok, float(res), f"exact residual {res}, cardinality {payload['cardinality']}"


def design_verify_check(data):
    payload = json.loads(data)
    ok = payload["ok"] is True and payload["exact"] is True and payload["residual"] == 0.0
    return ok, payload["residual"], f"ok={payload['ok']} exact={payload['exact']}"


def optimize_check(data):
    res = float_design_residual(json.loads(data))
    return res < OPTIMIZE_RESIDUAL, res, f"moment residual {res:.3g}"


def claims_check(data):
    """Every claim in CLAIMS appears exactly once, and nothing else does."""
    records = [json.loads(line) for line in data.decode().splitlines() if line]
    ids = [r["check_id"] for r in records]
    missing = sorted(set(CLAIMS) - set(ids))
    unknown = sorted({i for i in ids if i not in CLAIMS or ids.count(i) > 1})
    bad = []
    for r in records:
        if r["check_id"] not in CLAIMS:
            continue
        ref, tol = CLAIMS[r["check_id"]]
        got = r["got"]
        if isinstance(ref, bool) or not isinstance(got, (int, float)):
            ok = got == ref
        else:
            ok = abs(got - ref) <= tol
        if not (ok and r["pass"]):
            bad.append(r["check_id"])
    problems = [f"{what} {which}" for what, which in
                (("missing", missing), ("unknown or repeated", unknown), ("failed", bad)) if which]
    note = f"{len(records) - len(bad)}/{len(records)} records pass"
    return not problems, None, "; ".join([note, *problems])


# ---------------------------------------------------------------------------
# workloads

CURVATURE_SPECS = (
    ("clifford-n4", {"kind": "clifford_torus", "N": 4}, 2.0, CURV_TOL),
    ("clifford-n6", {"kind": "clifford_torus", "N": 6}, math.sqrt(6.0), CURV_TOL),
    ("veronese-m3", {"kind": "veronese", "m": 3}, math.sqrt(1.5), VERONESE_TOL),
    # known failure at the seed commit: random basepoints miss the extremal
    # circle (reports 2.7523, exit 2); kept so that a fix shows in fail_frac
    ("tube-rho0.65", {"kind": "tube", "r": 1.0, "n1": 1, "n2": 1, "rho": 0.65},
     1.0 / 0.35, CURV_TOL),
)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def setup_curv_specs(cli, tmp):
    from curvlab import designs
    ops = []
    for name, spec, ref, tol in CURVATURE_SPECS:
        path = os.path.join(tmp, f"{name}.json")
        _write_json(path, spec)
        ops.append(Op(name, ["curv", path], os.path.join(tmp, f"out-{name}.json"),
                      curvature_check(ref, tol), "curvature"))
    pentagon = os.path.join(tmp, "pentagon.json")
    _write_json(pentagon, designs.design_to_json(designs.pentagon_design()))
    hilbert3 = os.path.join(tmp, "hilbert-n3.json")
    rc = cli.main(["design", "hilbert", "--n", "3", "--no-meta", "--out", hilbert3])
    if rc != 0:
        raise RuntimeError(f"building the n=3 Hilbert design exited {rc}")
    for name, path, n in (("torus-pentagon", pentagon, 2), ("torus-hilbert-n3", hilbert3, 3)):
        ops.append(Op(name, ["design", "torus", path, "--curv"],
                      os.path.join(tmp, f"out-{name}.json"),
                      curvature_check(math.sqrt(3.0 * n / (n + 2)), CURV_TOL), "curvature"))
    warmup = ["curv", os.path.join(tmp, "veronese-m3.json")]
    return ops, warmup


def setup_design_build(cli, tmp):
    ops = []
    for n, extra in ((2, []), (3, []), (4, ["--height-max", "1"])):
        design = os.path.join(tmp, f"hilbert-n{n}.json")
        ops.append(Op(f"hilbert-n{n}", ["design", "hilbert", "--n", str(n), *extra],
                      design, hilbert_check, "hilbert"))
        ops.append(Op(f"verify-n{n}", ["design", "verify", design],
                      os.path.join(tmp, f"verify-n{n}.json"), design_verify_check, "hilbert"))
    for n, card in ((3, 11), (4, 23)):
        ops.append(Op(f"optimize-n{n}-c{card}",
                      ["design", "optimize", "--n", str(n), "--cardinality", str(card)],
                      os.path.join(tmp, f"optimize-n{n}.json"), optimize_check, "optimize",
                      seed=OPTIMIZE_SEED))
    warmup = ["design", "hilbert", "--n", "2"]
    return ops, warmup


def setup_claim_suite(cli, tmp):
    ops = [Op("verify-paper", ["verify-paper"], os.path.join(tmp, "claims"),
              claims_check, "claims")]
    warmup = ["verify-paper", "--only", "crofton"]
    return ops, warmup


WORKLOADS = {
    "curv-specs": setup_curv_specs,
    "design-build": setup_design_build,
    "claim-suite": setup_claim_suite,
}
