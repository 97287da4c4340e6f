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
from typing import NamedTuple

import numpy as np

from .chebypoly import Poly, PsiSeries, _aberth_correction, _dst1, psi_to_poly, psi_zeros
from .errors import BadIndex, FrozenArgError, NoConvergence, WrongCount

_EPS = np.finfo(float).eps
_BLOCK = 1 << 15


@dataclass(frozen=True)
class DiscreteProblem:
    """Grid size l, frozen index m, step h = pi/(l+1), and coefficients w_j = h^2 q_j."""

    l: int
    m: int
    h: float
    w: np.ndarray
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.l < 1:
            raise WrongCount("grid size l must be >= 1")
        if not 1 <= self.m <= self.l:
            raise BadIndex(f"frozen index m={self.m} outside [1, {self.l}]")
        w = np.atleast_1d(np.asarray(self.w, dtype=complex)).copy()
        if len(w) != self.l:
            raise WrongCount(f"expected {self.l} coefficients, got {len(w)}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        if self.q is not None:
            q = np.atleast_1d(np.asarray(self.q, dtype=complex)).copy()
            q.setflags(write=False)
            object.__setattr__(self, "q", q)
        if not np.isfinite(w).all() or (self.q is not None and not np.isfinite(self.q).all()):
            raise WrongCount("coefficients must be finite")

    @staticmethod
    def from_w(w, m: int) -> "DiscreteProblem":
        """Build directly from the scaled coefficients w_j."""
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        l = len(w)
        return DiscreteProblem(l=l, m=m, h=math.pi / (l + 1), w=w)

    @property
    def x(self) -> np.ndarray:
        """Interior grid points x_1..x_l."""
        return self.h * np.arange(1, self.l + 1)


@dataclass(frozen=True)
class Spectrum:
    """Paired eigenvalue lists, ordered by ascending Re(lambda), ties by Im."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=complex)).copy()
        lam = np.atleast_1d(np.asarray(self.lam, dtype=complex)).copy()
        if len(mu) != len(lam):
            raise WrongCount("mu and lambda lists must have equal length")
        mu.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)

    @staticmethod
    def from_mu(mu, h: float) -> "Spectrum":
        mu = np.atleast_1d(np.asarray(mu, dtype=complex))
        lam = (2.0 - mu) / h**2
        order = np.lexsort((lam.imag, lam.real))
        return Spectrum(mu=mu[order], lam=lam[order])


def sample_problem(q_values, m: int) -> DiscreteProblem:
    """Sample a potential on the grid: w_j = h^2 q_j with h = pi/(l+1)."""
    q = np.atleast_1d(np.asarray(q_values, dtype=complex))
    l = len(q)
    if l < 1:
        raise WrongCount("need at least one sample")
    if not 1 <= m <= l:
        raise BadIndex(f"frozen index m={m} outside [1, {l}]")
    if not np.isfinite(q).all():  # before h^2 q, where inf + 0j turns into nan
        raise WrongCount("coefficients must be finite")
    h = math.pi / (l + 1)
    return DiscreteProblem(l=l, m=m, h=h, w=h * h * q, q=q)


class BoundaryPolys(NamedTuple):
    """The P and Q solution families at the boundary indices 0 and l+1."""

    p0: PsiSeries
    pl1: PsiSeries
    q0: PsiSeries
    ql1: PsiSeries


def _unit(j: int, n: int) -> np.ndarray:
    v = np.zeros(max(n, 1), dtype=complex)
    if j >= 1:
        v[j - 1] = 1.0
    return v


def pq_polynomials(p: DiscreteProblem) -> BoundaryPolys:
    """Closed psi-basis forms of P_0, P_{l+1}, Q_0, Q_{l+1}.

    P_0 = psi_m and P_{l+1} = -psi_{l-m+1} carry no potential dependence;
    Q_0 = -psi_{m-1} + sum_{j<m} w_j psi_j and
    Q_{l+1} = psi_{l-m+2} + sum_{j<=l-m+1} w_{l+1-j} psi_j.
    """
    l, m, w = p.l, p.m, p.w
    p0 = PsiSeries(_unit(m, m))
    pl1 = PsiSeries(-_unit(l - m + 1, l - m + 1))
    q0c = -_unit(m - 1, m - 1)
    for j in range(1, m):
        q0c[j - 1] += w[j - 1]
    ql1c = _unit(l - m + 2, l - m + 2)
    for j in range(1, l - m + 2):
        ql1c[j - 1] += w[l - j]  # w_{l+1-j}
    return BoundaryPolys(p0=p0, pl1=pl1, q0=PsiSeries(q0c), ql1=PsiSeries(ql1c))


def d_eval(p: DiscreteProblem, mu):
    """Characteristic function D(mu) by running the recurrence (O(l) per point).

    |D| grows like r^l, r = max |mu/2 +- sqrt(mu^2/4 - 1)| (1 on [-2, 2]); past l ln r = 709
    (l >= 738 at mu = 3) D leaves double range and a finite mu raises FrozenArgError.
    """
    l, m, w = p.l, p.m, p.w
    z = np.atleast_1d(np.asarray(mu, dtype=complex))
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
    if not np.isfinite(d[np.isfinite(z)]).all():
        raise FrozenArgError(f"D(mu) overflows double range at l = {l} (|D| grows like r^l, r > 1 off [-2, 2])")
    return d if np.ndim(mu) else complex(d[0])


def char_poly(p: DiscreteProblem) -> Poly:
    """D(mu) as a monic degree-l Poly, assembled symbolically in the psi basis.

    D = psi_m * Q_{l+1} + psi_{l-m+1} * Q_0, expanded term by term with the
    unit-coefficient product rule of psi_mul, then converted to monomials.
    """
    l, m = p.l, p.m
    polys = pq_polynomials(p)
    acc = np.zeros(l + 1, dtype=complex)

    def add_product(a: int, series: PsiSeries):
        if a < 1:
            return
        for j in range(1, series.n + 1):
            c = series.coeffs[j - 1]
            if c == 0:
                continue
            for k in range(min(a, j)):
                acc[a + j - 2 - 2 * k] += c

    add_product(m, polys.ql1)
    add_product(l - m + 1, polys.q0)
    return psi_to_poly(PsiSeries(acc))


def _secular_weights(p: DiscreteProblem) -> tuple[np.ndarray, np.ndarray]:
    """Poles nu_k and weights a_k = s_mk (S w)_k of the secular function.

    S is the orthonormal DST-I matrix, s_jk = sqrt(2/(l+1)) sin(jk pi/(l+1));
    S w comes from one _dst1 of w.
    """
    n = p.l + 1
    k = np.arange(1, n)
    # m k reduced mod 2n: sin(pi m k / n) is then 0 or ~1e-16 when n divides m k
    s_m = np.sin(np.pi * ((p.m * k) % (2 * n)) / n)
    return psi_zeros(n), (2.0 / n) * s_m * _dst1(p.w)


def discrete_spectrum(p: DiscreteProblem, max_iterations: int = 500) -> Spectrum:
    """All l eigenvalues of the discrete problem, from the secular equation.

    A weight with |a_k| <= 4 eps (1 + sum |a|) is deflated: nu_k is then an
    exact eigenvalue (the potential-independent ones when gcd(m, l+1) > 1,
    and modes a symmetric w does not reach).  The other roots come from
    simultaneous Aberth iteration with the Newton ratio
    D/D' = f / (f sum 1/(mu - nu_k) + f'), O(l) per point, free of overflow.
    Root k starts at nu_k + r_k e^{i(0.39 + 2 pi k/n)}, where r_k is half of
    min(|a_k|, gap to the nearest pole), plus 1e-8, and is frozen once its
    step falls to 1e-14 (1 + |mu|) or |f| to its rounding level.

    Checked against dense eigenvalues of T - w e_m^T to 1e-10 relative to
    max(1, |mu|) for l up to 1024, real and complex w with |w| up to 100 and
    every m, in at most 20 sweeps.  Raises NoConvergence on a non-finite step
    or at the iteration cap.
    """
    nu, a = _secular_weights(p)
    live = ~(np.abs(a) <= 4.0 * _EPS * (1.0 + np.abs(a).sum()))  # a NaN weight stays live and fails
    mu = nu.astype(complex)
    nu, a = nu[live], a[live]
    n = len(nu)
    gap = np.abs(np.diff(nu, prepend=np.inf, append=-np.inf))
    radius = np.minimum(np.abs(a), np.minimum(gap[:-1], gap[1:])) / 2.0 + 1e-8
    z = nu + radius * np.exp(1j * (0.39 + 2.0 * np.pi * np.arange(n) / n))
    active = np.arange(n)
    res = np.full(n, np.inf)  # |f| / (1 + sum |a_k / (mu - nu_k)|)
    block = _BLOCK // max(n, 1) + 1  # rows per block: about 0.5 MB per matrix at any l
    for _ in range(max_iterations):
        if not len(active):
            break
        step = np.empty(len(active), dtype=complex)
        res = np.empty(len(active))
        for lo in range(0, len(active), block):
            rows = active[lo : lo + block]
            r = 1.0 / (z[rows, None] - nu)
            ra = r * a
            f = 1.0 + ra.sum(axis=1)
            newton = f / (f * r.sum(axis=1) - (r * ra).sum(axis=1))
            step[lo : lo + block] = _aberth_correction(z, newton, rows)
            res[lo : lo + block] = np.abs(f) / (1.0 + np.abs(ra).sum(axis=1))
        if not np.isfinite(step).all():
            raise NoConvergence("spectrum iteration produced a non-finite step")
        z[active] -= step
        active = active[(res > 4.0 * _EPS) & (np.abs(step) > 1e-14 * (1.0 + np.abs(z[active])))]
    if len(active):
        raise NoConvergence(
            f"spectrum iteration hit the cap ({max_iterations}); worst scaled residual {res.max():.3e}",
            worst_residual=float(res.max()),
        )
    mu[live] = z
    return Spectrum.from_mu(mu, p.h)


def free_lambdas(l: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(n h / 2) / h^2, n = 1..l, of the zero-potential problem."""
    h = math.pi / (l + 1)
    n = np.arange(1, l + 1)
    return 4.0 * np.sin(n * h / 2.0) ** 2 / h**2
