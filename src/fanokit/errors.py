"""Exception hierarchy shared by all fanokit modules."""


class FanokitError(Exception):
    """Base class for all errors raised by fanokit."""


class InputError(FanokitError):
    """Invalid or out-of-contract input data (CLI exit code 1)."""


class NumericalError(FanokitError):
    """Numerical failure: non-convergence, mismatch, etc. (CLI exit code 2)."""


# -- geometry ---------------------------------------------------------------

class UnboundedPolytope(InputError):
    """The half-space set admits a recession direction."""


class DegeneratePolytope(InputError):
    """Empty interior or affine hull of dimension < n."""


class EmptyIntersection(InputError):
    """A half-space cut removed the whole polytope."""


class DimensionMismatch(InputError):
    """A dimension that is not a positive int, or a vector of another length."""


# -- toric heights ----------------------------------------------------------

class NotAnticanonical(InputError):
    """Operation requires all facet offsets equal to 1."""


class NotSemistable(InputError):
    """Operation requires a K-semistable input."""


class NonpositiveVolume(InputError):
    """Volume argument must be positive."""


class OutOfRange(InputError):
    """Argument outside its admissible range."""


# -- arrangements -----------------------------------------------------------

class InvalidWeight(InputError):
    """Arrangement weight outside [0, 1)."""


class NotFano(InputError):
    """Weight sum too large: -(K + Delta) is not ample."""


class InvalidDegree(InputError):
    """Target degree outside (0, (n+1)^n]."""


# -- zeta -------------------------------------------------------------------

class ZeroVolume(InputError):
    """Degree V = 2 - sum(w) vanishes; the height formula has no value."""


class DomainError(InputError):
    """Argument outside the real-analytic domain of a special function."""


class NonConvergence(NumericalError):
    """An iterative solve failed to bracket or converge."""

