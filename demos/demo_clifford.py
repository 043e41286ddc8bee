"""Flat tori in spheres: measure the curvature of the Clifford family.

The product of N circles of radius 1/sqrt(N) is a flat torus sitting inside
the unit sphere S^(2N-1).  Its normal curvature is exactly sqrt(N): flatness
gets more expensive, in curvature, as the torus dimension grows.  This script
measures that numerically from the analytic 2-jets and also shows the
direction-dependent profile behind the supremum.
"""

import numpy as np

from curvlab import curvature as cv
from curvlab import immersions as im


def main():
    print("=== Clifford torus curvature ===")
    for N in (2, 3, 4, 5):
        spec = im.clifford_torus(N)
        res = cv.normal_curvature_global(spec)
        print(f"  N={N}: measured curv = {res['sup']:.9f}   "
              f"sqrt(N) = {np.sqrt(N):.9f}   "
              f"basepoint spread = {res['per_point_spread']:.1e}")

    print()
    print("Direction profile on the N=3 torus (flat metric, so the")
    print("curvature along a unit chart direction c is sqrt(3)*sqrt(sum c^4);")
    print("the sup is attained on the diagonal-free axes directions):")
    spec = im.clifford_torus(3)
    rng = np.random.default_rng(0)
    u = im.sample_params(spec, 1, rng)[0]
    fd = cv.fundamental_data(im.jet2(spec, u))
    for label, c in [("axis      e1", np.array([1.0, 0.0, 0.0])),
                     ("face diag   ", np.array([1.0, 1.0, 0.0]) / np.sqrt(2)),
                     ("space diag  ", np.ones(3) / np.sqrt(3))]:
        k = cv.curv_dir(fd, c)
        pred = np.sqrt(3.0) * np.sqrt(np.sum(c**4))
        print(f"  {label}: curv_dir = {k:.6f}   formula = {pred:.6f}")

    print()
    print("The space diagonal gives sqrt(3)*sqrt(3*(1/3)^2) = 1: a geodesic")
    print("wrapping all circles at equal speed is a great circle of the")
    print("ambient sphere, the least-curved curve available on the torus.")


if __name__ == "__main__":
    main()
