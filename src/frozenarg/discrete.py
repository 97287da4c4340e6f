"""The discrete frozen-argument system and its spectrum.

The system on the uniform grid x_j = j h, h = pi / (l+1), reads

    y_{j+1} + y_{j-1} - w_j y_m = mu y_j,   j = 1..l,    y_0 = y_{l+1} = 0,

with w_j = h^2 q_j and mu = 2 - h^2 lambda.  Two solution families P, Q are
anchored at the frozen index m (P_{m-1} = 1, P_m = 0; Q_{m-1} = 0, Q_m = 1) and
the eigenvalues are the l zeros of the characteristic polynomial

    D(mu) = P_0(mu) Q_{l+1}(mu) - P_{l+1}(mu) Q_0(mu),

which is monic of degree l.  The system matrix T - w e_m^T is a rank-one
update of the free matrix T, whose eigenvalues are nu_k = 2 cos(k pi/(l+1)),
so (Golub 1973; Bunch, Nielsen and Sorensen 1978)

    D(mu) = prod_k (mu - nu_k) f(mu),   f(mu) = 1 + sum_k a_k / (mu - nu_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebypoly import _EPS, _aberth, _block_rows, _secular_weights
from .errors import FrozenArgError, WrongCount, _check_index, _index, _instance, _number, _numbers, _vector


def _grid(l: int) -> np.ndarray:
    """Interior grid points x_j = j pi/(l+1), j = 1..l."""
    return (math.pi / (l + 1)) * np.arange(1, l + 1)


@dataclass(frozen=True)
class DiscreteProblem:
    """Grid size l, frozen index m and coefficients w_j = h^2 q_j, with step h = pi/(l+1)."""

    l: int
    m: int
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "l", _index(self.l, "grid size l"))
        object.__setattr__(self, "m", _check_index(self.m, self.l))
        object.__setattr__(self, "w", _vector(self.w, self.l, "coefficients"))

    @staticmethod
    def from_w(w, m: int) -> "DiscreteProblem":
        """Build directly from the scaled coefficients w_j."""
        return DiscreteProblem(l=np.size(w), m=m, w=w)

    @property
    def h(self) -> float:
        return math.pi / (self.l + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior grid points x_1..x_l."""
        return _grid(self.l)


@dataclass(frozen=True)
class Spectrum:
    """Paired eigenvalue lists, ordered by ascending Re(lambda), ties by Im."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu, lam = _vector(self.mu, None, "mu"), _vector(self.lam, None, "lambda")
        if len(mu) != len(lam):
            raise WrongCount("mu and lambda lists must have equal length")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)

    @staticmethod
    def from_mu(mu, h: float) -> "Spectrum":
        """mu and lambda = (2 - mu) / h^2 in lambda order; WrongCount as _vector, and unless h is a number > 0."""
        mu, h = _vector(mu, None, "mu"), _number(h, "step h", real=True)
        if h <= 0:
            raise WrongCount(f"step h={h} must be positive")
        lam = (2.0 - mu) / h**2
        order = np.lexsort((lam.imag, lam.real))
        return Spectrum(mu=mu[order], lam=lam[order])


def sample_problem(q_values, m: int) -> DiscreteProblem:
    """Sample a potential on the grid: w_j = h^2 q_j with h = pi/(l+1)."""
    l = _index(np.size(q_values), "sample count l")
    m = _check_index(m, l)
    q = _vector(q_values, None, "coefficients")  # finite before h^2 q, where inf + 0j turns into nan
    h = math.pi / (l + 1)
    return DiscreteProblem(l=l, m=m, w=h * h * q)


def d_eval(p: DiscreteProblem, mu):
    """Characteristic function D(mu) by running the recurrence (O(l) per point).

    |D| grows like r^l, r = max |mu/2 +- sqrt(mu^2/4 - 1)| (1 on [-2, 2]); past l ln r = 709
    (l >= 738 at mu = 3) D leaves double range and FrozenArgError is raised.  mu must be finite
    numbers (WrongCount).
    """
    l, m, w = _instance(p, DiscreteProblem, "problem").l, p.m, p.w
    z = _numbers(mu, "mu")
    one, zero = np.ones_like(z), np.zeros_like(z)

    def run(yp, yc, equations, y_at_m):
        for j in equations:
            yp, yc = yc, z * yc - yp + w[j - 1] * y_at_m
        return yc

    # equations j = m..l reach index l+1 from (y_{m-1}, y_m); j = m-1..1 reach 0 from (y_m, y_{m-1})
    up, down = range(m, l + 1), range(m - 1, 0, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        p0, pl1 = run(zero, one, down, 0.0), run(one, zero, up, 0.0)
        q0, ql1 = run(one, zero, down, 1.0), run(zero, one, up, 1.0)
        d = p0 * ql1 - pl1 * q0
    if not np.isfinite(d).all():
        raise FrozenArgError(f"D(mu) overflows double range at l = {l} (|D| grows like r^l, r > 1 off [-2, 2])")
    return d if np.ndim(mu) else complex(d[0])


def discrete_spectrum(p: DiscreteProblem) -> Spectrum:
    """All l eigenvalues of the discrete problem, from the secular equation.

    A weight with |a_k| <= 4 eps (1 + sum |a|) is deflated: nu_k is then an
    exact eigenvalue (the potential-independent ones when gcd(m, l+1) > 1,
    and modes a symmetric w does not reach).  The other roots come from
    :func:`chebypoly._aberth` with the Newton ratio
    D/D' = f / (f sum 1/(mu - nu_k) + f'), O(l) per point, free of overflow,
    and the scaled residual |f| / (1 + sum |a_k / (mu - nu_k)|).

    Root k starts where the first Aberth sweep from the poles themselves
    would put it.  With every point at its pole the Aberth correction cancels
    the other poles' part of D/D', and the step is s_k = a_k / c_k,
    c_k = 1 + sum_{j != k} a_j / (nu_k - nu_j): one product of the Cauchy
    matrix with a, built in row blocks, not a sweep (s_k = 0 where it is not
    finite).  For real w every s_k is real, and conjugate pairs cannot split
    off the real axis, so the start is moved off it:
    z_k = nu_k - s_k + (0.2 |s_k| min(1, |s_k| / g_k) + 1e-8) e^{i(0.39 + 2 pi k/n)},
    g_k the gap to the nearest other pole.  The offset shrinks where the step
    is much shorter than the gap, so a weak potential still settles in one
    sweep.  A root settles once its step falls to 1e-14 (1 + |mu|) or its
    scaled residual to 4 eps; random complex |w| <= 1 takes about 5
    evaluations of f per root.  For real w an imaginary part within that
    1e-14 (1 + |mu|) is rounding and is set to zero, so real eigenvalues
    come out exactly real.

    Checked against dense eigenvalues of T - w e_m^T to 1e-10 relative to
    max(1, |mu|) for l up to 1024, real and complex w with |w| up to 100 and
    every m, in at most 20 sweeps.  Raises NoConvergence on a non-finite step
    or at the cap of chebypoly._MAX_SWEEPS sweeps.
    """
    nu, a = _secular_weights(_instance(p, DiscreteProblem, "problem").w, p.m)
    live = ~(np.abs(a) <= 4.0 * _EPS * (1.0 + np.abs(a).sum()))  # a NaN weight stays live and fails
    mu = nu.astype(complex)
    nu, a = nu[live], a[live]
    n = len(nu)
    gap = np.abs(np.diff(nu, prepend=np.inf, append=-np.inf))
    gap = np.minimum(gap[:-1], gap[1:])
    rows = _block_rows(n)  # the points _aberth passes to secular at a time
    c = np.empty(n, dtype=complex)
    for lo in range(0, n, rows):  # c_k = 1 + sum_{j != k} a_j / (nu_k - nu_j), never an n x n array
        inv = np.subtract(nu[lo : lo + rows, None], nu)
        inv[np.arange(len(inv)), np.arange(lo, lo + len(inv))] = np.inf
        c[lo : lo + rows] = 1.0 + (np.divide(1.0, inv, out=inv) * a).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = a / c
    s[~np.isfinite(s)] = 0.0
    offset = 0.2 * np.abs(s) * np.minimum(1.0, np.abs(s) / gap) + 1e-8
    z = nu - s + offset * np.exp(1j * (0.39 + 2.0 * np.pi * np.arange(n) / n))
    # filled in place, since fresh 0.5 MB temporaries are page-faulted in again on every block
    work = np.empty((3, min(n, rows), n), dtype=complex)

    def secular(x):
        r, ra, rra = work[:, : len(x)]
        np.divide(1.0, np.subtract(x[:, None], nu, out=r), out=r)  # not np.reciprocal: other bits
        f = 1.0 + np.multiply(r, a, out=ra).sum(axis=1)
        newton = f / (f * r.sum(axis=1) - np.multiply(r, ra, out=rra).sum(axis=1))
        return newton, np.abs(f) / (1.0 + np.abs(ra).sum(axis=1))

    _aberth(z, secular)
    if not p.w.imag.any():  # real w: an imaginary part below the settle tolerance is rounding
        z.imag[np.abs(z.imag) <= 1e-14 * (1.0 + np.abs(z))] = 0.0
    mu[live] = z
    return Spectrum.from_mu(mu, p.h)


def free_lambdas(l: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(n h / 2) / h^2, n = 1..l, of the zero-potential problem."""
    l = _index(l, "grid size l", 0)
    h = math.pi / (l + 1)
    n = np.arange(1, l + 1)
    return 4.0 * np.sin(n * h / 2.0) ** 2 / h**2
