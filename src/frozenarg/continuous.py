"""Continuous problem with the frozen point at pi/2: characteristic functions and spectrum.

With a = pi/2 the characteristic function factorizes,

    Delta(lambda) = (1/rho) sin(rho pi/2) * R(rho),     rho = sqrt(lambda),
    R(rho) = 2 cos(rho pi/2) + int_0^{pi/2} p(t) sin(rho t)/rho dt,
    p(t) = q(t) + q(pi - t),

so the spectrum splits into the potential-independent eigenvalues (2n)^2 and
the squares of the zeros of R.  Three benchmark potentials carry closed-form
R for |rho| >= 0.1, below which the closed forms cancel catastrophically.
Everything else is integrated on one composite Gauss-Legendre grid whose
breakpoints include the spline knots folded into [0, pi/2]: p is sampled once
per grid and R for a whole vector of rho is one matrix-vector product.  The
grid's panels are doubled until halving them moves R by at most 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import _BLOCK
from .errors import BracketFailure, QuadratureFailure, WrongCount

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_SMALL_RHO = 0.1  # below this |rho| the closed forms cancel; also where the root scan starts
_QUADRATURE_TOL = 1e-10  # largest change of R when every panel is halved
_MAX_PANELS = 4096
_SCAN_STEP = 0.25  # rho spacing of the sign-change scan for the zeros of R
_ROOT_WIDTH = 1e-12  # bracket width at which bisection stops


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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
        raise WrongCount("samples must be finite")
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
# closed forms, quadrature
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


def _quadrature_grid(pot: BenchmarkPotential, rho_max: float, refine: int = 1):
    """Composite 8-point Gauss-Legendre grid on [0, pi/2] with p sampled once.

    The breakpoints are 0, pi/2 and the spline knots folded into [0, pi/2], so
    every panel sees one cubic piece of p.  An interval of width h gets
    ceil(h rho_max) * refine panels, so sin(rho t) stays resolved up to
    rho_max.  Returns the nodes t and the weights times p(t).
    """
    edges = [0.0, math.pi / 2]
    if pot.samples is not None:
        x = pot.samples[:, 0]
        edges = np.concatenate([edges, x, math.pi - x])
    edges = np.unique(np.clip(edges, 0.0, math.pi / 2))
    counts = np.ceil(np.diff(edges) * rho_max).astype(int) * refine
    bounds = np.concatenate(
        [np.linspace(a, b, c, endpoint=False) for a, b, c in zip(edges[:-1], edges[1:], counts)]
        + [[math.pi / 2]]
    )
    half = 0.5 * np.diff(bounds)[:, None]
    t = ((bounds[:-1, None] + half) + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    return t, w * np.asarray(pot.p(t))


def _r_on_grid(grid, rho) -> np.ndarray:
    """R = 2 cos(rho pi/2) + sin(rho t) @ (w p) / rho for a vector of nonzero rho.

    The sin(rho t) matrix is built in row blocks of at most _BLOCK entries.
    """
    t, wp = grid
    rho = np.asarray(rho)
    integral = np.empty(rho.shape, dtype=np.result_type(rho, wp))
    rows = max(1, _BLOCK // t.size)
    for lo in range(0, rho.size, rows):
        r = rho[lo : lo + rows]
        integral[lo : lo + rows] = np.sin(np.outer(r, t)) @ wp / r
    return 2.0 * np.cos(rho * math.pi / 2) + integral


def _resolved_r(pot: BenchmarkPotential, rho_max: float, points):
    """The points points(grid) picks on the knot-aligned grid, and R there.

    points picks the rho where R must be accurate: the roots, or the one
    requested rho.  The grid is accepted when halving every panel moves R at
    those points by at most _QUADRATURE_TOL; until then its panels are
    doubled, up to _MAX_PANELS.
    """
    refine = 1
    grid = _quadrature_grid(pot, rho_max, refine)
    change = math.inf
    while grid[0].size <= _MAX_PANELS * len(_GL_NODES):
        rho = points(grid)
        r = _r_on_grid(grid, rho)
        refine *= 2
        finer = _quadrature_grid(pot, rho_max, refine)
        change = float(np.max(np.abs(_r_on_grid(finer, rho) - r)))
        if change <= _QUADRATURE_TOL:
            return rho, r
        grid = finer
    raise QuadratureFailure(
        f"R up to rho = {rho_max:g} needs more than {_MAX_PANELS} panels (last change {change:.2e})"
    )


def r_eval(pot: BenchmarkPotential, rho, method: str = "auto") -> complex:
    """R(rho), the reduced characteristic function whose zeros give the odd eigenvalues.

    method: "auto" prefers the closed form when the potential has one,
    "closed" forces it (WrongCount if there is none), "quadrature" forces the
    integral route.  Below |rho| = 0.1, where the closed forms lose up to
    eight digits to cancellation, every method takes the knot-aligned grid:
    sin(rho t)/rho does not cancel.  At the removable point rho = 0 that is
    R(0) = 2 + int p(t) t dt on the rho_max = 1 grid, exact for cubic pieces.
    """
    rho = complex(rho)
    if method not in ("auto", "closed", "quadrature"):
        raise WrongCount(f"unknown method {method!r}")
    if method == "closed" and pot.closed_r is None:
        raise WrongCount(f"potential kind {pot.kind!r} has no closed form")
    if rho == 0:
        t, wp = _quadrature_grid(pot, 1.0)
        return complex(2.0 + wp @ t)
    if abs(rho) >= _SMALL_RHO and method != "quadrature" and pot.closed_r is not None:
        return complex(pot.closed_r(rho))
    _, r = _resolved_r(pot, max(1.0, abs(rho)), lambda grid: np.array([rho]))
    return complex(r[0])


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


def _odd_roots(r, count: int, end: float) -> np.ndarray:
    """The zeros of the real function r on [0.1, end], which must number exactly count.

    r takes a vector of rho.  Sign changes on a scan of step 0.25 bracket the
    zeros; all brackets are then bisected together to a width of 1e-12.
    """
    scan = np.append(np.arange(_SMALL_RHO, end, _SCAN_STEP), end)
    positive = r(scan) > 0
    cells = np.flatnonzero(positive[:-1] != positive[1:])
    if cells.size != count:
        raise BracketFailure(cells.size, count, end)
    a, b, positive_a = scan[cells], scan[cells + 1], positive[cells]
    while np.max(b - a) > _ROOT_WIDTH:
        mid = 0.5 * (a + b)
        left = (r(mid) > 0) == positive_a
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
    return 0.5 * (a + b)


def continuous_spectrum(pot: BenchmarkPotential, n_max: int) -> ContinuousSpectrum:
    """Eigenvalues lambda_n for n <= n_max (real-valued potentials).

    Odd n: the zeros rho_1 < rho_3 < ... of R on [0.1, 2k], k = (n_max+1)//2
    odd indices, from one sign-change scan of step 0.25 and a joint bisection
    to an interval of 1e-12.  BracketFailure is raised unless the scan finds
    exactly k sign changes.  Without a closed form, R comes from the
    knot-aligned quadrature grid, refined until halving its panels moves R at
    the roots by at most 1e-10 (QuadratureFailure past 4096 panels).
    Even n: (2k)^2.
    """
    if n_max < 1:
        raise WrongCount("n_max must be >= 1")
    count = (n_max + 1) // 2
    end = 2.0 * count  # the next zero, of index 2k + 1, lies near rho = 2k + 1
    if pot.closed_r is not None:
        rho = _odd_roots(lambda x: pot.closed_r(x).real, count, end)
    else:
        def roots(grid):
            return _odd_roots(lambda x: _r_on_grid(grid, x).real, count, end)

        rho, _ = _resolved_r(pot, end, roots)
    odd = [(n, float(root * root)) for n, root in zip(range(1, n_max + 1, 2), rho)]
    even = [(n, float(n * n)) for n in range(2, n_max + 1, 2)]
    return ContinuousSpectrum(odd=tuple(odd), even=tuple(even))
