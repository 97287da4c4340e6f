"""Exception types shared across the toolkit."""


class FrozenArgError(Exception):
    """Base class for all toolkit errors."""


class BadIndex(FrozenArgError):
    """Frozen index m outside the admissible range [1, l]."""


class WrongCount(FrozenArgError):
    """An input sequence has the wrong number of entries."""


class DegreeMismatch(FrozenArgError):
    """A polynomial does not have the degree an operation requires."""


class DuplicateNode(FrozenArgError):
    """Two interpolation nodes coincide (within 1e-14)."""


class NoConvergence(FrozenArgError):
    """Iterative root search hit its iteration cap.

    Carries the worst residual observed at the cap.
    """

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class InexactDivision(FrozenArgError):
    """Exact polynomial division left a remainder above tolerance."""


class DegenerateConfiguration(FrozenArgError):
    """gcd(m, l+1) > 1: the plain inversion has no unique solution."""


class NotDegenerate(FrozenArgError):
    """gcd(m, l+1) = 1: the degenerate solver does not apply."""


class SideDataMismatch(FrozenArgError):
    """A-priori data does not match the declared side / index ranges."""


class QuadratureFailure(FrozenArgError):
    """p is not cubic between its knots, so R cannot be integrated exactly (its panel cubics miss p)."""


class BracketFailure(FrozenArgError):
    """The root scan of R found a different number of sign changes than roots requested."""

    def __init__(self, found, needed, end):
        super().__init__(
            f"R changes sign {found} times on [0.1, {end:g}], expected {needed} odd eigenvalues"
        )
        self.found = found
        self.needed = needed


class ConfigError(FrozenArgError):
    """Invalid command-line configuration."""
