"""curvlab: a numerical workbench for low normal curvature.

Immersion catalog with analytic 2-jets, curvature measurement (directional,
pointwise, global), degree-4 spherical designs with an exact rational
construction, discrete-curve inequality checkers, and closed-form curvature
bound registries with a consistency report.  The package namespace holds the
six modules; import names from them (``from curvlab import curvature as cv``).
"""

from . import bounds, curvature, curves, designs, immersions, verify

__version__ = "0.1.0"

__all__ = ["bounds", "curvature", "curves", "designs", "immersions", "verify", "__version__"]
