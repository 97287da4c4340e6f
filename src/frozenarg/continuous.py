"""Continuous problem with the frozen point at pi/2: characteristic functions and spectrum.

With a = pi/2 the characteristic function factorizes,

    Delta(lambda) = (1/rho) sin(rho pi/2) * R(rho),     rho = sqrt(lambda),
    R(rho) = 2 cos(rho pi/2) + int_0^{pi/2} p(t) sin(rho t)/rho dt,
    p(t) = q(t) + q(pi - t),

so the spectrum splits into the potential-independent eigenvalues (2n)^2 and
the squares of the zeros of R.  Every potential built here is cubic between
its knots, so one R serves them all: a Gauss-Legendre grid aligned with the
folded knots samples p once, and R is exact to rounding from the grid sum
below |rho| = 2 and from a Filon sum over the panels' cubics above.  The
zeros of R come from a sign-change scan and Illinois steps in the brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete import _BLOCK
from .errors import BracketFailure, NoConvergence, QuadratureFailure, WrongCount

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_AT_NODES = np.polynomial.legendre.legvander(_GL_NODES, 3)  # P_k(x_i), k = 0..3
_PROJECT = (np.arange(4) + 0.5)[:, None] * (_AT_NODES * _GL_WEIGHTS[:, None]).T  # samples -> c_k
# j_k(w) = w^k sum_n (-w^2/2)^n / (n! (2k+2n+1)!!): ten terms reach rounding for |w| < 1
_BESSEL_SERIES = np.array([[(-0.5) ** n / (math.factorial(n) * math.prod(range(2 * k + 2 * n + 1, 0, -2)))
                            for k in range(4)] for n in range(10)])
_GRID_RHO = 2.0  # the grid resolves sin(rho t) up to this |rho|; from there on R is the exact sum
_CUBIC_TOL = 1e-10  # largest miss of a panel's cubic at its samples, relative to max |p|
_SCAN_START = 0.1  # rho where the sign-change scan for the zeros of R starts
_SCAN_STEP = 0.25  # rho spacing of that scan
_ROOT_STEP = 1e-14  # an Illinois step at most this times rho ends a root
_MAX_SWEEPS = 100


@dataclass
class BenchmarkPotential:
    """A potential q on [0, pi] together with its folded form p(t) = q(t) + q(pi-t).

    kind is one of "quadratic", "tent", "constant", "zero", "sampled".
    Callables accept scalars or arrays.  p must be cubic between 0, pi/2 and
    the folded sample abscissae; R raises QuadratureFailure otherwise.
    """

    kind: str
    q: Callable
    p: Callable
    samples: np.ndarray | None = None


def quadratic_potential() -> BenchmarkPotential:
    """q(x) = x (pi - x); p(t) = 2 t (pi - t)."""
    return BenchmarkPotential(
        kind="quadratic",
        q=lambda x: np.asarray(x) * (math.pi - np.asarray(x)),
        p=lambda t: 2.0 * np.asarray(t) * (math.pi - np.asarray(t)),
    )


def tent_potential() -> BenchmarkPotential:
    """q(x) = pi/2 - |pi/2 - x|; p(t) = 2 t."""
    return BenchmarkPotential(
        kind="tent",
        q=lambda x: math.pi / 2 - np.abs(math.pi / 2 - np.asarray(x)),
        p=lambda t: 2.0 * np.asarray(t, dtype=float),
    )


def constant_potential() -> BenchmarkPotential:
    """q(x) = 1; p(t) = 2."""
    return BenchmarkPotential(
        kind="constant",
        q=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        p=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
    )


def zero_potential() -> BenchmarkPotential:
    """q = 0; R(rho) = 2 cos(rho pi/2), zeros at every odd integer."""
    return BenchmarkPotential(
        kind="zero",
        q=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
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
# R on the knot-aligned grid
# ---------------------------------------------------------------------------

def _quadrature_grid(pot: BenchmarkPotential):
    """Composite 8-point Gauss-Legendre grid on [0, pi/2] with p sampled once, and p's cubics.

    The breakpoints are 0, pi/2 and the spline knots folded into [0, pi/2],
    and an interval of width h gets ceil(2 h) panels, so every panel sees one
    cubic piece of p and sin(rho t) is resolved up to |rho| = 2.  The Legendre
    projection of a panel's samples, c_k = (2k+1)/2 sum w_i P_k(x_i) p_i, is
    p's cubic there; QuadratureFailure if it misses a sample by more than
    1e-10 max|p|.  Returns the nodes t, the weights times p(t), the panel
    centres and half-widths, and 2 half (c_0, c_1, -c_2, -c_3) per panel.
    """
    edges = [0.0, math.pi / 2]
    if pot.samples is not None:
        x = pot.samples[:, 0]
        edges = np.concatenate([edges, x, math.pi - x])
    edges = np.unique(np.clip(edges, 0.0, math.pi / 2))
    counts = np.ceil(np.diff(edges) * _GRID_RHO).astype(int)
    half = np.repeat(0.5 * np.diff(edges) / counts, counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)  # panel index in its interval
    mid = np.repeat(edges[:-1], counts) + (2 * k + 1) * half
    t = mid[:, None] + half[:, None] * _GL_NODES
    samples = np.asarray(pot.p(t.ravel()), dtype=float).reshape(t.shape)
    coeffs = samples @ _PROJECT.T
    miss = np.max(np.abs(samples - coeffs @ _AT_NODES.T))
    if not miss <= _CUBIC_TOL * np.max(np.abs(samples)):  # written so that a NaN sample fails too
        raise QuadratureFailure(f"p is not cubic between its knots: a panel cubic misses a sample by {miss:.2e}")
    wp = (half[:, None] * _GL_WEIGHTS * samples).ravel()
    return t.ravel(), wp, mid, half, 2.0 * half[:, None] * coeffs * [1.0, 1.0, -1.0, -1.0]


def _spherical_bessel(w) -> np.ndarray:
    """j_0(w) .. j_3(w) along a new last axis, to rounding at any complex w.

    Below |w| = 1 the power series; from there the upward recurrence
    j_{k+1} = (2k+1) j_k / w - j_{k-1}, whose absolute error stays within
    15 ulp there.
    """
    j = np.empty(w.shape + (4,), dtype=np.result_type(w, float))
    small = np.abs(w) < 1.0
    ws = w[small][:, None]
    j[small] = (ws * ws) ** np.arange(len(_BESSEL_SERIES)) @ _BESSEL_SERIES * ws ** np.arange(4)
    wl = w[~small]
    j0 = np.sin(wl) / wl
    j1 = (j0 - np.cos(wl)) / wl
    j2 = 3.0 * j1 / wl - j0
    j[~small] = np.stack([j0, j1, j2, 5.0 * j2 / wl - j1], axis=-1)
    return j


def _r(grid, rho) -> np.ndarray:
    """R at a vector of real or complex rho.

    Below |rho| = 2: the grid sum of w p sin(rho t)/rho, the kernel written
    t sinc(rho t/pi) so that rho = 0 gives 2 + sum w p t.  From |rho| = 2 on,
    a Filon-type rule, exact for cubic p at O(panels) per rho: on a panel with
    centre m and half-width h, p = sum_k c_k P_k((t - m)/h), and the integral
    of P_k(x) e^{iwx} over [-1, 1] is 2 i^k j_k(w), so int p sin(rho t) dt =
    2h [sin(rho m)(c_0 j_0 - c_2 j_2) + cos(rho m)(c_1 j_1 - c_3 j_3)](rho h).
    Kernels are built in row blocks of at most _BLOCK entries per array.
    """
    t, wp, mid, half, coeffs = grid
    rho = np.asarray(rho)
    r = 2.0 * np.cos(rho * math.pi / 2)
    small = np.abs(rho) < _GRID_RHO
    r[small] += np.sinc(np.outer(rho[small], t / math.pi)) @ (wp * t)
    big = np.flatnonzero(~small)
    rows = max(1, _BLOCK // (4 * half.size))
    for lo in range(0, big.size, rows):
        i = big[lo : lo + rows]
        j = _spherical_bessel(np.outer(rho[i], half)) * coeffs
        arg = np.outer(rho[i], mid)
        integral = np.sum(np.sin(arg) * (j[..., 0] + j[..., 2]) + np.cos(arg) * (j[..., 1] + j[..., 3]), axis=1)
        r[i] += integral / rho[i]
    return r


def r_eval(pot: BenchmarkPotential, rho) -> complex:
    """R(rho), the reduced characteristic function whose zeros give the odd eigenvalues.

    p is sampled once, on the knot-aligned grid.  Below |rho| = 2, R is the
    Gauss-Legendre sum of p(t) sin(rho t)/rho, which does not cancel; at
    rho = 0 it is R(0) = 2 + int p(t) t dt.  From |rho| = 2 on, R is the
    exact sum over p's cubic pieces, at any complex rho.  Both are exact to
    rounding when p is cubic between its knots, as every potential built here
    is; any other p raises QuadratureFailure.
    """
    return complex(_r(_quadrature_grid(pot), np.array([complex(rho)]))[0])


def delta_eval(pot: BenchmarkPotential, lam) -> complex:
    """Characteristic function Delta(lambda) = (1/rho) sin(rho pi/2) R(rho).

    The prefactor and R are even in rho, so the square-root branch does not
    matter; at lambda = 0 the removable limit (pi/2) R(0) is returned.
    """
    rho = np.sqrt(complex(lam))
    return complex(math.pi / 2 * np.sinc(rho / 2) * r_eval(pot, rho))  # sinc(rho/2) pi/2 = sin(rho pi/2)/rho


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
    zeros, and Illinois steps (regula falsi that halves the value kept at an
    end twice in a row) refine all brackets together.  A root settles when its
    step is at most 1e-14 rho or the secant lands on a bracket end (as it does
    once r is 0); NoConvergence after 100 sweeps.
    """
    scan = np.append(np.arange(_SCAN_START, end, _SCAN_STEP), end)
    f = r(scan)
    positive = f > 0
    cells = np.flatnonzero(positive[:-1] != positive[1:])
    if cells.size != count:
        raise BracketFailure(cells.size, count, end)
    a, b, fa, fb = scan[cells], scan[cells + 1], f[cells], f[cells + 1]
    root = np.full(count, np.nan)
    moved = np.zeros(count)  # +1 when b moved last, -1 when a did
    live = np.arange(count)
    for _ in range(_MAX_SWEEPS):
        c = b[live] - fb[live] * (b[live] - a[live]) / (fb[live] - fa[live])
        done = (np.abs(c - root[live]) <= _ROOT_STEP * c) | (c <= a[live]) | (c >= b[live])
        root[live] = c
        live, c = live[~done], c[~done]
        if live.size == 0:
            return root
        fc = r(c)
        right = (fc > 0) == (fb[live] > 0)  # c replaces b
        i, k = live[right], live[~right]
        fa[i[moved[i] > 0]] *= 0.5  # the same end moved twice: halve the other's value
        fb[k[moved[k] < 0]] *= 0.5
        b[i], fb[i], moved[i] = c[right], fc[right], 1.0
        a[k], fa[k], moved[k] = c[~right], fc[~right], -1.0
    raise NoConvergence(f"{live.size} zeros of R unsettled after {_MAX_SWEEPS} Illinois sweeps")


def continuous_spectrum(pot: BenchmarkPotential, n_max: int) -> ContinuousSpectrum:
    """Eigenvalues lambda_n for n <= n_max (real-valued potentials).

    Odd n: the zeros rho_1 < rho_3 < ... of R on [0.1, 2k], k = (n_max+1)//2,
    from one sign-change scan of step 0.25 and Illinois steps in every bracket
    down to a step of 1e-14 rho; BracketFailure unless the scan finds exactly
    k sign changes.  R is that of r_eval, from one grid that samples p once,
    at O(panels) per rho, so n_max = 10001 takes well under a second.
    Even n: (2k)^2.
    """
    if n_max < 1:
        raise WrongCount("n_max must be >= 1")
    count = (n_max + 1) // 2
    end = 2.0 * count  # the next zero, of index 2k + 1, lies near rho = 2k + 1
    grid = _quadrature_grid(pot)
    rho = _odd_roots(lambda x: _r(grid, x), count, end)
    odd = [(n, float(root * root)) for n, root in zip(range(1, n_max + 1, 2), rho)]
    even = [(n, float(n * n)) for n in range(2, n_max + 1, 2)]
    return ContinuousSpectrum(odd=tuple(odd), even=tuple(even))
