"""Exception types shared across the toolkit, and the input checks that raise them."""

import operator
import warnings

import numpy as np


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


def _index(value, what: str, low=1, high: int | None = None, error=WrongCount) -> int:
    """value as an int: error unless it is a Python or numpy integer (not 2.0) in [low, high], unbounded if high is None."""
    try:
        i = operator.index(value)
    except TypeError:
        raise error(f"{what}={value!r} is not an integer") from None
    if i < low or high is not None and i > high:
        raise error(f"{what}={i} outside [{low}, {'inf' if high is None else high}]")
    return i


def _instance(value, cls: type, what: str):
    """value, which an entry point takes only as a cls: WrongCount otherwise, naming the type it got."""
    if not isinstance(value, cls):
        raise WrongCount(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_index(m, l: int | None = None) -> int:
    """m as an int: BadIndex unless the frozen index m is an integer in [1, l], unbounded under l = None (l = 2m - 1)."""
    return _index(m, "frozen index m", 1, l, BadIndex)


def _numbers(values, what: str, real: bool = False) -> np.ndarray:
    """values as a copy with at least one axis: complex, or float under real=True.

    WrongCount on entries that are not numbers (under real, not real numbers), text and None
    among them, and on an inf or NaN entry.
    """
    try:
        v = np.asarray(values)
        if v.dtype.kind not in ("biuf" if real else "biufc"):  # bool, int, unsigned, float, complex
            raise TypeError
    except (TypeError, ValueError):  # ValueError: a ragged list
        raise WrongCount(f"{what} must be {'real ' if real else ''}numbers") from None
    v = np.array(v, dtype=float if real else complex, ndmin=1)
    if not np.isfinite(v).all():
        raise WrongCount(f"{what} must be finite")
    return v


def _number(value, what: str, real: bool = False):
    """value as one Python complex, or float under real=True: WrongCount as _numbers, and on a sequence."""
    v = _numbers(value, what, real)
    if np.ndim(value):
        raise WrongCount(f"{what} must be one number, got shape {np.shape(value)}")
    return v[0].item()


def _vector(values, count: int | None, what: str, real: bool = False) -> np.ndarray:
    """values as a read-only 1-d copy: complex, or float under real=True.

    WrongCount as _numbers, on more than one axis and then, unless count is None, on any other
    number of entries.
    """
    v = _numbers(values, what, real)
    if v.ndim != 1:
        raise WrongCount(f"{what} must be a flat list, got shape {v.shape}")
    if count is not None and len(v) != count:
        raise WrongCount(f"expected {count} {what}, got {len(v)}")
    v.setflags(write=False)
    return v


def _read_csv(path, columns: tuple[int, ...], what: str) -> np.ndarray:
    """The rows of numbers of a CSV file (# comments allowed); a file without rows gives none.

    WrongCount on text that is not numeric and on a column count outside columns.
    """
    try:
        with warnings.catch_warnings():  # numpy warns on a file without rows; the callers' count checks report it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as err:
        raise WrongCount(f"{what} is not numeric CSV: {err}") from None
    if data.size and data.shape[1] not in columns:
        raise WrongCount(f"{what} must have {' or '.join(map(str, columns))} columns")
    return data if data.size else np.empty((0, columns[-1]))


def _indices(values, what: str) -> list[int]:
    """The integers of a sequence, each through _index; WrongCount where values is not a sequence."""
    try:
        return [_index(v, what) for v in values]
    except TypeError:  # values cannot be iterated
        raise WrongCount(f"{what} must be a list of integers, got {values!r}") from None
