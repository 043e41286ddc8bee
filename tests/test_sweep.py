"""Seed sweep: the curvature outputs hold at every seed, not only the defaults.

The 64 seeds are the ones `verify-paper` is swept over in CI (0-59, 1001,
1008, 1025, 0xC0FFEE).  Before the orbit search, random basepoints missed
the tube's inner circle at every one of them, and at 1001 and 1008 `curv`
reported 1/rho with exit 0.
"""

import contextlib
import io
import json
import math

import pytest

from curvlab import cli, designs, immersions
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
    # both extremal spheres are nodes at any node count: 1..8 go round the seeds
    r = 1.3
    rho = frac * r
    spec = immersions.tube_encircle(r, n1, n2, rho)
    expected = max(1.0 / rho, 1.0 / (r - rho))
    worst = max(abs(normal_curvature_global(spec, n_points=1 + i % 8, seed=seed)["sup"]
                    - expected) for i, seed in enumerate(SEEDS))
    assert worst < 1e-6
