"""fanokit: exact-rational K-semistability tests for toric log Fano data and
evaluation of the closed-form Arakelov height formulas and bounds attached
to them (moment-polytope barycenters, the S(X) half-space-cut optimization,
hyperplane-arrangement stability polytopes, diagonal-hypersurface height
corrections, and the Hurwitz-zeta canonical height on the thrice-marked
projective line)."""

from .errors import FanokitError
from .geometry import HPolytope, VPolytope
from .toric_heights import HeightReport, ToricLogFano

__all__ = [
    "FanokitError",
    "HPolytope",
    "VPolytope",
    "HeightReport",
    "ToricLogFano",
]

__version__ = "0.1.0"
