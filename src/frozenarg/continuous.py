"""Continuous problem with the frozen point at pi/2: characteristic functions and spectrum.

With a = pi/2 the characteristic function factorizes,

    Delta(lambda) = (1/rho) sin(rho pi/2) * R(rho),     rho = sqrt(lambda),
    R(rho) = 2 cos(rho pi/2) + int_0^{pi/2} p(t) sin(rho t)/rho dt,
    p(t) = q(t) + q(pi - t),

so the spectrum splits into the potential-independent eigenvalues (2n)^2 and
the squares of the zeros of R.  Every potential built here is cubic between
its knots, so one R serves them all: one Gauss-Legendre panel per cubic
piece, between the folded knots, samples p once, and a Filon sum over the
panels' cubics gives R exact to rounding at every rho.  The zeros of R
come from a sign-change scan and safeguarded Newton steps in the brackets,
with R' from R at rho + 1e-30 i (the complex step).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebypoly import _block_rows
from .errors import BracketFailure, FrozenArgError, NoConvergence, QuadratureFailure, WrongCount
from .errors import _index, _instance, _number, _read_csv, _vector

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_AT_NODES = np.polynomial.legendre.legvander(_GL_NODES, 3)  # P_k(x_i), k = 0..3
_PROJECT = (np.arange(4) + 0.5)[:, None] * (_AT_NODES * _GL_WEIGHTS[:, None]).T  # samples -> c_k
# j_k(w) = w^k sum_n (-w^2/2)^n / (n! (2k+2n+1)!!): ten terms reach rounding for |w| < 1
_BESSEL_SERIES = np.array([[(-0.5) ** n / (math.factorial(n) * math.prod(range(2 * k + 2 * n + 1, 0, -2)))
                            for k in range(4)] for n in range(10)])
_SERIES_POWERS, _ORDERS = np.arange(10), np.arange(4)
_CUBIC_TOL = 1e-10  # largest miss of a panel's cubic at its samples, relative to max |p|
_SCAN_START = 0.1  # rho where the sign-change scan for the zeros of R starts
_SCAN_STEP = 0.25  # rho spacing of that scan
_ROOT_STEP = 1e-14  # a Newton step at most this times rho ends a root
_COMPLEX_STEP = 1e-30  # imaginary part of the point where R and R' are evaluated together
_MAX_SWEEPS = 100
_MAX_N_MAX = 1 << 21  # largest n_max of continuous_spectrum: its scan of R holds 4 n_max points, 64 MiB


@dataclass
class BenchmarkPotential:
    """A potential q on [0, pi]; its folded form is the method p(t) = q(t) + q(pi-t).

    kind is one of "quadratic", "tent", "constant", "zero", "sampled".
    q accepts scalars or arrays.  p must be cubic between 0, pi/2 and
    the folded sample abscissae; R raises QuadratureFailure otherwise.
    """

    kind: str
    q: Callable
    samples: np.ndarray | None = None

    def p(self, t):
        """The folded form q(t) + q(pi - t), at a scalar or an array."""
        t = np.asarray(t)
        return self.q(t) + self.q(math.pi - t)


def quadratic_potential() -> BenchmarkPotential:
    """q(x) = x (pi - x); p(t) = 2 t (pi - t)."""
    return BenchmarkPotential(kind="quadratic", q=lambda x: np.asarray(x) * (math.pi - np.asarray(x)))


def tent_potential() -> BenchmarkPotential:
    """q(x) = pi/2 - |pi/2 - x|; p(t) = 2 t."""
    return BenchmarkPotential(kind="tent", q=lambda x: math.pi / 2 - np.abs(math.pi / 2 - np.asarray(x)))


def constant_potential() -> BenchmarkPotential:
    """q(x) = 1; p(t) = 2."""
    return BenchmarkPotential(kind="constant", q=lambda x: np.ones(np.shape(x)))


def zero_potential() -> BenchmarkPotential:
    """q = 0; R(rho) = 2 cos(rho pi/2), zeros at every odd integer."""
    return BenchmarkPotential(kind="zero", q=lambda x: np.zeros(np.shape(x)))


_NAMED_POTENTIALS = {
    "quadratic": quadratic_potential,
    "tent": tent_potential,
    "constant": constant_potential,
    "zero": zero_potential,
}


def named_potential(name: str) -> BenchmarkPotential:
    if not isinstance(name, str) or name not in _NAMED_POTENTIALS:
        raise WrongCount(f"unknown potential {name!r}; expected one of {sorted(_NAMED_POTENTIALS)}")
    return _NAMED_POTENTIALS[name]()


def sampled_potential(x, q) -> BenchmarkPotential:
    """Cubic-spline potential through strictly increasing, finite, real samples on [0, pi]."""
    x, q = _vector(x, None, "sample abscissae", real=True), _vector(q, None, "samples", real=True)
    if len(x) != len(q) or len(x) < 2:
        raise WrongCount("need matching x and q samples, at least two points")
    if np.any(np.diff(x) <= 0):
        raise WrongCount("sample abscissae must be strictly increasing")
    if x[0] < -1e-12 or x[-1] > math.pi + 1e-12:
        raise WrongCount("samples must lie inside [0, pi]")
    return BenchmarkPotential(kind="sampled", q=_not_a_knot_spline(x, q), samples=np.column_stack([x, q]))


def _not_a_knot_spline(x, y) -> Callable:
    """The not-a-knot cubic spline through (x, y): C2, and one cubic on [x[0], x[2]] and on [x[-3], x[-1]].

    The knot slopes solve one tridiagonal system by elimination without
    pivoting; its end rows ask for a continuous third derivative at x[1] and
    x[-2].  Two or three knots give the line or the parabola through them.
    Each piece is the cubic Hermite interpolant of its end values and
    slopes.  The returned callable takes scalars or arrays and extends the
    end pieces beyond [x[0], x[-1]].
    """
    n, dx = len(x), np.diff(x)
    slope = np.diff(y) / dx
    if n <= 3:  # s = p'(x) for the line or parabola p through the knots; p''/2 is the second divided difference
        half_p2 = (slope[-1] - slope[0]) / (x[-1] - x[0])
        s = slope[0] + half_p2 * (2.0 * x - x[0] - x[1])
    else:
        end0, end1 = x[2] - x[0], x[-1] - x[-3]
        lower = [0.0, *dx[1:].tolist(), end1]
        diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
        upper = [end0, *dx[:-1].tolist()]
        s = [((dx[0] + 2.0 * end0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / end0,
             *(3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
             (dx[-1] ** 2 * slope[-2] + (2.0 * end1 + dx[-1]) * dx[-2] * slope[-1]) / end1]
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            s[i] -= w * s[i - 1]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    coeffs = np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
    inner = x[1:-1]

    def spline(u):
        u = np.asarray(u)
        i = inner.searchsorted(u, side="right")  # the piece of u, an end piece outside [x[0], x[-1]]
        h = u - x.take(i)
        a, b, c, d = coeffs.take(i, axis=1)
        return ((a * h + b) * h + c) * h + d

    return spline


def potential_from_csv(path) -> BenchmarkPotential:
    """Load a two-column (x, q) CSV and build the sampled potential; every WrongCount names the file."""
    data = _read_csv(path, (2,), f"potential file {path}")
    try:
        return sampled_potential(data[:, 0], data[:, 1])
    except WrongCount as err:
        raise WrongCount(f"potential file {path}: {err}") from None


# ---------------------------------------------------------------------------
# R on the knot-aligned grid
# ---------------------------------------------------------------------------

def _quadrature_grid(pot: BenchmarkPotential):
    """p's cubic on each panel of [0, pi/2], from one 8-point Gauss-Legendre sample of p per panel.

    The panels run between 0, pi/2 and the spline knots folded into
    [0, pi/2], so every panel sees one cubic piece of p.  The Legendre
    projection of a panel's samples, c_k = (2k+1)/2 sum w_i P_k(x_i) p_i, is
    p's cubic there; QuadratureFailure if it misses a sample by more than
    1e-10 max|p|.  Returns the panel centres, the distinct half-widths with
    each panel's index into them, and 2 half (c_0, c_1, -c_2, -c_3) per panel.
    """
    edges = [0.0, math.pi / 2]
    if pot.samples is not None:
        x = pot.samples[:, 0]
        edges = np.concatenate([edges, x, math.pi - x])
    edges = np.unique(np.clip(edges, 0.0, math.pi / 2))
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    t = mid[:, None] + half[:, None] * _GL_NODES
    samples = np.asarray(pot.p(t.ravel()), dtype=float).reshape(t.shape)
    coeffs = samples @ _PROJECT.T
    miss = np.max(np.abs(samples - coeffs @ _AT_NODES.T))
    if not miss <= _CUBIC_TOL * np.max(np.abs(samples)):  # written so that a NaN sample fails too
        raise QuadratureFailure(f"p is not cubic between its knots: a panel cubic misses a sample by {miss:.2e}")
    widths, which = np.unique(half, return_inverse=True)
    return mid, widths, which, 2.0 * half[:, None] * coeffs * [1.0, 1.0, -1.0, -1.0]


def _spherical_bessel(w) -> np.ndarray:
    """j_0(w) .. j_3(w) along a new last axis, to rounding at any complex w.

    Below |w| = 1 the power series; from there the upward recurrence
    j_{k+1} = (2k+1) j_k / w - j_{k-1}, whose absolute error stays within
    15 ulp there.
    """
    small = np.abs(w) < 1.0
    if small.all():
        return _bessel_series(w)
    if not small.any():
        return _bessel_upward(w)
    j = np.empty(w.shape + (4,), dtype=np.result_type(w, float))
    j[small] = _bessel_series(w[small])
    j[~small] = _bessel_upward(w[~small])
    return j


def _bessel_series(w) -> np.ndarray:
    w = w[..., None]
    return (w * w) ** _SERIES_POWERS @ _BESSEL_SERIES * w ** _ORDERS


def _bessel_upward(w) -> np.ndarray:
    j0 = np.sin(w) / w
    j1 = (j0 - np.cos(w)) / w
    j2 = 3.0 * j1 / w - j0
    return np.stack([j0, j1, j2, 5.0 * j2 / w - j1], axis=-1)


def _r(grid, rho) -> np.ndarray:
    """R at a vector of real or complex rho, exact to rounding for p cubic on every panel.

    2 cos(rho pi/2) is taken as (-1)^k 2 cos((rho/2 - k) pi), k the integer
    nearest to Re rho/2, which is exact to rounding at any rho.  The integral
    is a Filon-type sum at O(panels) per rho: on a panel with centre m and
    half-width h, p = sum_k c_k P_k((t - m)/h), and the integral of
    P_k(x) e^{iwx} over [-1, 1] is 2 i^k j_k(w), so int p sin(rho t) dt =
    2h [sin(rho m)(c_0 j_0 - c_2 j_2) + cos(rho m)(c_1 j_1 - c_3 j_3)](rho h).
    Every term is O(rho), so dividing by rho keeps the digits down to tiny
    and complex rho; at rho = 0, R(0) = 2 + int p t dt = 2 + sum 2h (m c_0 + h c_1/3).
    The j_k are evaluated once per distinct half-width and gathered to the
    panels.  Kernels are built in blocks of _block_rows(4 * panels) rho.
    """
    mid, widths, which, coeffs = grid
    rho = np.asarray(rho)
    turns = np.rint(rho.real / 2)  # rho/2 - turns is exact
    r = (2.0 - 4.0 * (turns % 2)) * np.cos((rho / 2 - turns) * math.pi)
    r[rho == 0] += (mid * coeffs[:, 0] + widths[which] * coeffs[:, 1] / 3.0).sum()
    nonzero = np.flatnonzero(rho)
    rows = _block_rows(4 * mid.size)
    for lo in range(0, nonzero.size, rows):
        i = nonzero[lo : lo + rows]
        x = rho[i][:, None]
        j = _spherical_bessel(x * widths)[:, which] * coeffs
        arg = x * mid
        integral = (np.sin(arg) * (j[..., 0] + j[..., 2]) + np.cos(arg) * (j[..., 1] + j[..., 3])).sum(axis=1)
        r[i] += integral / x[:, 0]
    return r


def r_eval(pot: BenchmarkPotential, rho) -> complex:
    """R(rho), the reduced characteristic function whose zeros give the odd eigenvalues.

    p is sampled once, on one Gauss-Legendre panel per cubic piece, and R is
    the exact sum over those pieces at any real or complex rho; at rho = 0 it
    is R(0) = 2 + int p(t) t dt.  It is exact to rounding when p is cubic
    between its knots, as every potential built here is; any other p raises
    QuadratureFailure.  |R| grows like e^{|Im rho| pi/2}; where it leaves
    double range (|Im rho| > 451 or so) FrozenArgError is raised.  rho must
    be one finite number (WrongCount).
    """
    rho = _number(rho, "rho")
    grid = _quadrature_grid(_instance(pot, BenchmarkPotential, "potential"))
    with np.errstate(over="ignore", invalid="ignore"):
        r = complex(_r(grid, np.array([rho]))[0])
    if not cmath.isfinite(r):
        raise FrozenArgError(f"R(rho) leaves double range at rho = {rho}")
    return r


def delta_eval(pot: BenchmarkPotential, lam) -> complex:
    """Characteristic function Delta(lambda) = (1/rho) sin(rho pi/2) R(rho).

    The prefactor and R are even in rho, so the square-root branch does not
    matter; at lambda = 0 the removable limit (pi/2) R(0) is returned.  Where
    Delta leaves double range (lambda = -5.2e4 for the quadratic) FrozenArgError
    is raised.  lambda must be one finite number (WrongCount).
    """
    pot, lam = _instance(pot, BenchmarkPotential, "potential"), _number(lam, "lambda")
    rho = np.sqrt(lam)
    r = r_eval(pot, rho)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = complex(math.pi / 2 * np.sinc(rho / 2) * r)  # sinc(rho/2) pi/2 = sin(rho pi/2)/rho
    if not cmath.isfinite(delta):
        raise FrozenArgError(f"Delta(lambda) leaves double range at lambda = {lam}")
    return delta


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

    r takes a vector of real or complex rho and must be analytic, so that
    r(x + i s) = r(x) + i s r'(x) to rounding for s = 1e-30 (the complex
    step).  Sign changes on a scan of step 0.25 bracket the zeros; inverse
    cubic interpolation through the four scan values around each bracket
    starts Newton's method, and all brackets take their Newton steps
    together.  Every evaluated sign tightens its bracket, and a Newton point
    outside the bracket is replaced by the bracket's midpoint.  A root
    settles when its step, or its bracket, is at most 1e-14 rho;
    NoConvergence after 100 sweeps.
    """
    scan = np.append(np.arange(_SCAN_START, end, _SCAN_STEP), end)
    f = r(scan)
    positive = f > 0
    cells = np.flatnonzero(positive[:-1] != positive[1:])
    if cells.size != count:
        raise BracketFailure(cells.size, count, end)
    a, b = scan[cells], scan[cells + 1]
    sign_a = np.where(positive[cells], 1.0, -1.0)
    x = _inverse_interpolation(scan, f, cells)
    x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
    root = np.empty(count)
    live = np.arange(count)
    for _ in range(_MAX_SWEEPS):
        z = r(x + 1j * _COMPLEX_STEP)
        side = z.real * sign_a  # > 0: x replaces a, < 0: x replaces b, NaN: neither
        a = np.where(side > 0, x, a)
        b = np.where(side < 0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -_COMPLEX_STEP * z.real / z.imag
        new = x + step
        settled = np.abs(step) <= _ROOT_STEP * x
        x = np.where(settled | ((new > a) & (new < b)), new, 0.5 * (a + b))
        settled |= b - a <= _ROOT_STEP * x
        root[live[settled]] = x[settled]
        keep = ~settled
        live, x, a, b, sign_a = live[keep], x[keep], a[keep], b[keep], sign_a[keep]
        if live.size == 0:
            return root
    raise NoConvergence(f"{live.size} zeros of R unsettled after {_MAX_SWEEPS} Newton sweeps")


def _inverse_interpolation(scan, f, cells) -> np.ndarray:
    """Inverse cubic interpolation: per cell, the rho where r would be 0.

    Near a simple zero, rho is a smooth function of r, so the cubic in r
    through the four scan points around the cell, evaluated at r = 0, lands
    close to the zero; NaN or inf where two of those r values coincide.
    """
    k = min(4, scan.size)
    near = np.minimum(np.maximum(cells - 1, 0), scan.size - k)[:, None] + np.arange(k)
    x, y = scan[near], f[near]
    diagonal = np.eye(k, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # weight of point j: prod_{i != j} y_i / (y_i - y_j)
        ratio = np.where(diagonal, 1.0, y[:, None, :] / (y[:, None, :] - y[:, :, None]))
        return (x * ratio.prod(axis=2)).sum(axis=1)


def continuous_spectrum(pot: BenchmarkPotential, n_max: int) -> ContinuousSpectrum:
    """Eigenvalues lambda_n for n <= n_max (real-valued potentials).

    Odd n: the zeros rho_1 < rho_3 < ... of R on [0.1, 2k], k = (n_max+1)//2,
    from one sign-change scan of step 0.25 and Newton steps in every bracket,
    started by inverse cubic interpolation of the scan and kept inside the
    bracket, down to a step of 1e-14 rho; BracketFailure unless the scan finds
    exactly k sign changes.  R is that of r_eval, from one grid that samples
    p once, at O(panels) per rho, and each Newton sweep gets R and R' from one
    evaluation at complex rho: five evaluations in all (the scan and four
    sweeps) on the named potentials and on 41-knot splines of x(pi - x) and
    1 + cos 2x, so n_max = 10001 takes well under a second.  Even n: (2k)^2.

    n_max is at most _MAX_N_MAX = 2^21, whose scan holds 2^23 points (64 MiB);
    a larger one raises WrongCount before anything is allocated.
    """
    n_max = _index(n_max, "n_max", 1, _MAX_N_MAX)
    count = (n_max + 1) // 2
    end = 2.0 * count  # the next zero, of index 2k + 1, lies near rho = 2k + 1
    grid = _quadrature_grid(_instance(pot, BenchmarkPotential, "potential"))
    rho = _odd_roots(lambda x: _r(grid, x), count, end)
    odd = [(n, float(root * root)) for n, root in zip(range(1, n_max + 1, 2), rho)]
    even = [(n, float(n * n)) for n in range(2, n_max + 1, 2)]
    return ContinuousSpectrum(odd=tuple(odd), even=tuple(even))
