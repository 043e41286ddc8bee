"""Seed sweep: the curvature outputs and the random curve claims hold at
every seed, not only the defaults.

The 64 seeds are the ones `verify-paper` is swept over in CI (0-59, 1001,
1008, 1025, 0xC0FFEE).  Before the orbit search, random basepoints missed
the tube's inner circle at every one of them, and at 1001 and 1008 `curv`
reported 1/rho with exit 0.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest

from curvlab import cli, curves, designs, immersions, verify
from curvlab.curvature import normal_curvature_global

SEEDS = [*range(60), 1001, 1008, 1025, 0xC0FFEE]

# the perfbench curv-specs operations; tolerances are verify.py's
CURV_SPECS = [
    ({"kind": "clifford_torus", "N": 4}, 2.0, 1e-6),
    ({"kind": "clifford_torus", "N": 6}, math.sqrt(6.0), 1e-6),
    ({"kind": "veronese", "m": 3}, math.sqrt(1.5), 1e-4),
    ({"kind": "tube", "r": 1.0, "n1": 1, "n2": 1, "rho": 0.65}, 1.0 / 0.35, 1e-6),
]


@pytest.fixture(scope="module")
def curv_ops(tmp_path_factory):
    """(argv, closed form, tolerance) of the six curv-specs operations."""
    tmp = tmp_path_factory.mktemp("sweep")
    ops = []
    for i, (spec, ref, tol) in enumerate(CURV_SPECS):
        path = tmp / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        ops.append((["curv", str(path)], ref, tol))
    hilbert3 = designs.hilbert_rational_design(3)
    for name, design, n in (("pentagon", designs.pentagon_design(), 2), ("hilbert3", hilbert3, 3)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(designs.design_to_json(design)))
        ops.append((["design", "torus", str(path), "--curv"], math.sqrt(3.0 * n / (n + 2)), 1e-6))
    return ops


def test_curv_specs_hold_at_every_seed(curv_ops):
    bad = []
    for seed in SEEDS:
        for argv, ref, tol in curv_ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([*argv, "--seed", str(seed), "--no-meta"])
            payload = json.loads(out.getvalue())
            if code != 0 or payload["status"] != "OK" or abs(payload["curv"] - ref) > tol:
                bad.append((seed, argv[-1], code, payload["status"], payload["curv"]))
    assert bad == []


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("frac", [0.35, 0.65])
def test_tube_sup_holds_at_every_seed(n1, n2, frac):
    r = 1.3
    rho = frac * r
    spec = immersions.tube_encircle(r, n1, n2, rho)
    expected = max(1.0 / rho, 1.0 / (r - rho))
    worst = max(abs(normal_curvature_global(spec, seed=seed)["sup"]
                    - expected) for seed in SEEDS)
    assert worst < 1e-6


@pytest.mark.parametrize("n1,n2", itertools.product(range(1, 5), repeat=2))
def test_tube_sup_and_spread_are_read_at_the_extremal_spheres(n1, n2):
    # the inner sphere carries the sup, max(1/rho, 1/(r - rho)), and the outer
    # one the least value, 1/rho; n1 reaches 3 and 4, where a node at interior phi
    # can stop the search at the lesser base maximum and so falsify the spread
    r, bad = 1.3, []
    for frac, seed in itertools.product((0.2, 0.5, 0.65, 0.8), (0, 1001, 0xC0FFEE)):
        rho = frac * r
        res = normal_curvature_global(immersions.tube_encircle(r, n1, n2, rho), seed=seed)
        least = res["sup"] - res["per_point_spread"]
        if not (math.isclose(res["sup"], max(1.0 / rho, 1.0 / (r - rho)), rel_tol=1e-12)
                and math.isclose(least, 1.0 / rho, rel_tol=1e-12)):
            bad.append((frac, seed, res["sup"], least))
    assert bad == []


def test_random_curve_groups_pass_at_every_seed():
    records = {seed: [r for check in (verify.check_fenchel, verify.check_arm, verify.check_bow)
                      for r in check(seed)] for seed in SEEDS}
    bad = [(seed, r["check_id"]) for seed, recs in records.items() for r in recs if not r["pass"]]
    assert bad == []
    # each random group's note carries its worst slack, which moves with the seed
    notes = [{r["check_id"]: r.get("note") for r in records[seed]} for seed in (1, 2)]
    for check_id in ("fenchel-random", "arm-random", "bow-random"):
        assert notes[0][check_id] != notes[1][check_id], check_id


def test_arm_instances_at_the_next_seed_are_new(monkeypatch):
    # with one default_rng(seed + i) per instance, instance i at seed s + 1 was
    # instance i + 1 at seed s: 999 of the 1000 first sides were shared
    calls = []
    arm_stacks = curves._arm_stacks

    def recording(ks, ambients, rng):
        stacks = arm_stacks(ks, ambients, rng)
        calls.append(np.concatenate([p[:, 1, 0] for _, p, _ in stacks]))
        return stacks

    monkeypatch.setattr(curves, "_arm_stacks", recording)
    first_sides = {}
    for seed in sorted({*SEEDS, *(s + 1 for s in SEEDS)}):
        calls.clear()
        verify.check_arm(seed)
        first_sides[seed] = calls[0]  # the 1000 random pairs; later calls are single
        assert len(first_sides[seed]) == 1000
    shared = {s: len(np.intersect1d(first_sides[s], first_sides[s + 1])) for s in SEEDS}
    assert set(shared.values()) == {0}
