"""Continuous problem with the frozen point at pi/2: characteristic functions and spectrum.

With a = pi/2 the characteristic function factorizes,

    Delta(lambda) = (1/rho) sin(rho pi/2) * R(rho),     rho = sqrt(lambda),
    R(rho) = 2 cos(rho pi/2) + int_0^{pi/2} p(t) sin(rho t)/rho dt,
    p(t) = q(t) + q(pi - t),

so the spectrum splits into the potential-independent eigenvalues (2n)^2 and
the squares of the zeros of R.  Three benchmark potentials carry closed-form
R; everything else goes through adaptive Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BracketFailure, QuadratureFailure, WrongCount

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_MOMENT_NODES, _MOMENT_WEIGHTS = np.polynomial.legendre.leggauss(64)
_TAYLOR_CUTOFF = 0.1
_TAYLOR_TERMS = 8


@dataclass
class BenchmarkPotential:
    """A potential q on [0, pi] together with its folded form p(t) = q(t) + q(pi-t).

    kind is one of "quadratic", "tent", "constant", "zero", "sampled"; the
    named kinds carry a closed-form R.  Callables accept scalars or arrays.
    """

    kind: str
    q: Callable
    p: Callable
    closed_r: Callable | None = None
    samples: np.ndarray | None = None
    _moments: list = field(default_factory=list, repr=False)

    def sine_moment(self, k: int) -> float:
        """Cached moment int_0^{pi/2} p(t) t^(2k+1) dt (Gauss-Legendre, 64 nodes)."""
        while len(self._moments) <= k:
            j = len(self._moments)
            t = 0.25 * math.pi * (_MOMENT_NODES + 1.0)
            vals = np.asarray(self.p(t), dtype=float)
            self._moments.append(float(0.25 * math.pi * np.sum(_MOMENT_WEIGHTS * vals * t ** (2 * j + 1))))
        return self._moments[k]


def quadratic_potential() -> BenchmarkPotential:
    """q(x) = x (pi - x); p(t) = 2 t (pi - t)."""
    return BenchmarkPotential(
        kind="quadratic",
        q=lambda x: np.asarray(x) * (math.pi - np.asarray(x)),
        p=lambda t: 2.0 * np.asarray(t) * (math.pi - np.asarray(t)),
        closed_r=_r_quadratic,
    )


def tent_potential() -> BenchmarkPotential:
    """q(x) = pi/2 - |pi/2 - x|; p(t) = 2 t."""
    return BenchmarkPotential(
        kind="tent",
        q=lambda x: math.pi / 2 - np.abs(math.pi / 2 - np.asarray(x)),
        p=lambda t: 2.0 * np.asarray(t, dtype=float),
        closed_r=_r_tent,
    )


def constant_potential() -> BenchmarkPotential:
    """q(x) = 1; p(t) = 2."""
    return BenchmarkPotential(
        kind="constant",
        q=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        p=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        closed_r=_r_constant,
    )


def zero_potential() -> BenchmarkPotential:
    """q = 0; R(rho) = 2 cos(rho pi/2), zeros at every odd integer."""
    return BenchmarkPotential(
        kind="zero",
        q=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        closed_r=lambda rho: 2.0 * np.cos(np.asarray(rho) * math.pi / 2),
    )


_NAMED_POTENTIALS = {
    "quadratic": quadratic_potential,
    "tent": tent_potential,
    "constant": constant_potential,
    "zero": zero_potential,
}


def named_potential(name: str) -> BenchmarkPotential:
    try:
        return _NAMED_POTENTIALS[name]()
    except KeyError:
        raise WrongCount(
            f"unknown potential {name!r}; expected one of {sorted(_NAMED_POTENTIALS)}"
        ) from None


def sampled_potential(x, q) -> BenchmarkPotential:
    """Cubic-spline potential through strictly increasing samples on [0, pi]."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    if len(x) != len(q) or len(x) < 2:
        raise WrongCount("need matching x and q samples, at least two points")
    if np.any(np.diff(x) <= 0):
        raise WrongCount("sample abscissae must be strictly increasing")
    if x[0] < -1e-12 or x[-1] > math.pi + 1e-12:
        raise WrongCount("samples must lie inside [0, pi]")
    # imported here: scipy takes about 0.6 s to import and only sampled potentials need it
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(x, q)
    return BenchmarkPotential(
        kind="sampled",
        q=spline,
        p=lambda t: spline(np.asarray(t)) + spline(math.pi - np.asarray(t)),
        samples=np.column_stack([x, q]),
    )


def potential_from_csv(path) -> BenchmarkPotential:
    """Load a two-column (x, q) CSV and build the sampled potential."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise WrongCount(f"expected two columns (x, q) in {path}")
    return sampled_potential(data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# closed forms, stable small-rho path, quadrature
# ---------------------------------------------------------------------------

def _r_quadratic(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    return 2.0 * c - math.pi**2 / (2.0 * rho**2) * c + 4.0 / rho**4 * (1.0 - c)


def _r_tent(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    s = np.sin(rho * math.pi / 2)
    return 2.0 * c - math.pi / rho**2 * c + 2.0 / rho**3 * s


def _r_constant(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    return 2.0 * c + 2.0 / rho**2 * (1.0 - c)


def _r_taylor(pot: BenchmarkPotential, rho: complex) -> complex:
    # R(rho) = 2 cos(rho pi/2) + sum_k (-1)^k rho^(2k) M_k / (2k+1)!,
    # M_k = int p(t) t^(2k+1) dt.  The closed forms cancel catastrophically
    # below |rho| ~ 0.1; this series is their Taylor expansion and is exact
    # at the removable point rho = 0.
    total = 2.0 * np.cos(rho * math.pi / 2)
    for k in range(_TAYLOR_TERMS):
        total += (-1) ** k * rho ** (2 * k) * pot.sine_moment(k) / math.factorial(2 * k + 1)
    return complex(total)


def _sin_kernel(rho, t):
    """sin(rho t)/rho, continued by t at rho = 0."""
    rt = rho * t
    if abs(rho) < 1e-12:
        return t * (1.0 - rt * rt / 6.0)
    return np.sin(rt) / rho


def _r_quadrature(pot: BenchmarkPotential, rho: complex, tol: float = 1e-10) -> complex:
    def panels(n):
        edges = np.linspace(0.0, math.pi / 2, n + 1)
        total = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            t = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
            pv = np.asarray(pot.p(t), dtype=complex)
            total += 0.5 * (b - a) * np.sum(_GL_WEIGHTS * pv * _sin_kernel(rho, t))
        return total
    prev = panels(1)
    n = 2
    while n <= 4096:
        cur = panels(n)
        if abs(cur - prev) <= tol:
            return complex(2.0 * np.cos(rho * math.pi / 2) + cur)
        prev = cur
        n *= 2
    raise QuadratureFailure(
        f"panel halving stalled at {n // 2} panels (last change {abs(cur - prev):.2e})"
    )


def r_eval(pot: BenchmarkPotential, rho, method: str = "auto") -> complex:
    """R(rho), the reduced characteristic function whose zeros give the odd eigenvalues.

    method: "auto" prefers the closed form when the potential has one,
    "closed" forces it, "quadrature" forces the integral route.  Small |rho|
    always goes through the Taylor/moment series, where the closed forms lose
    up to eight digits to cancellation.
    """
    rho = complex(rho)
    if method not in ("auto", "closed", "quadrature"):
        raise WrongCount(f"unknown method {method!r}")
    if method != "quadrature" and abs(rho) < _TAYLOR_CUTOFF:
        return _r_taylor(pot, rho)
    if method == "closed" or (method == "auto" and pot.closed_r is not None):
        if pot.closed_r is None:
            raise WrongCount(f"potential kind {pot.kind!r} has no closed form")
        return complex(pot.closed_r(rho))
    return _r_quadrature(pot, rho)


def delta_eval(pot: BenchmarkPotential, lam) -> complex:
    """Characteristic function Delta(lambda) = (1/rho) sin(rho pi/2) R(rho).

    The prefactor and R are even in rho, so the square-root branch does not
    matter; at lambda = 0 the removable limit (pi/2) R(0) is returned.
    """
    lam = complex(lam)
    rho = np.sqrt(lam)
    r = r_eval(pot, rho)
    if abs(rho) < 1e-12:
        prefactor = math.pi / 2
    else:
        prefactor = np.sin(rho * math.pi / 2) / rho
    return complex(prefactor * r)


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Odd-index eigenvalues (zeros of R squared) and even-index degenerate ones."""

    odd: tuple
    even: tuple

    @property
    def odd_lambdas(self) -> np.ndarray:
        return np.array([lam for _, lam in self.odd])


def _bisect(f, a: float, b: float, fa: float, fb: float, tol: float = 1e-12) -> float:
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def continuous_spectrum(pot: BenchmarkPotential, n_max: int) -> ContinuousSpectrum:
    """Eigenvalues lambda_n for n <= n_max (real-valued potentials).

    Odd n: bracket rho on [n - 1/2, n + 1/2], widening once to [n - 0.9, n + 0.9]
    (the low tent/constant/quadratic roots stray past the half-width bracket),
    and bisect the real function R to an interval of 1e-12.  Even n: (2k)^2.
    """
    if n_max < 1:
        raise WrongCount("n_max must be >= 1")
    f = lambda rho: r_eval(pot, rho).real
    odd = []
    for n in range(1, n_max + 1, 2):
        root = None
        for half in (0.5, 0.9):
            a, b = n - half, n + half
            fa, fb = f(a), f(b)
            if fa * fb < 0:
                root = _bisect(f, a, b, fa, fb)
                break
            if fa == 0:
                root = a
                break
            if fb == 0:
                root = b
                break
        if root is None:
            raise BracketFailure(n)
        odd.append((n, root * root))
    even = [(n, float(n * n)) for n in range(2, n_max + 1, 2)]
    return ContinuousSpectrum(odd=tuple(odd), even=tuple(even))
