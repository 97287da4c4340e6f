"""Polynomials held by their coefficients: conversions, arithmetic, interpolation, roots.

The psi basis and its grid are defined in :mod:`frozenarg.chebypoly`.  Here a
polynomial is a coefficient array, in the monomial basis (:class:`Poly`) or in
the psi basis (:class:`PsiSeries`).  The monomial coefficients of psi_n are
integers, exact in double precision up to n ~ 80, which several routines
exploit.

Everything here works over complex double-precision coefficients.  The basis
conversions additionally carry a compensated (double-double) accumulation so the
psi -> monomial -> psi round trip stays at the 1e-12 level out to n = 64, where
plain doubles lose the low-order coordinates entirely.

The pipelines work on the psi grid; of them only :func:`inverse.solve_degenerate`
comes here, for the monomial interpolation of :func:`_solve_degenerate_left`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .chebypoly import _aberth, _product_at, _psi_sin, psi_zeros
from .discrete import DiscreteProblem
from .errors import DegreeMismatch, DuplicateNode, InexactDivision, WrongCount

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_DIVIDE_TOL = 1e-10  # largest remainder of an exact division, relative to the dividend
_FIT_TOL = 1e-9  # largest coefficient poly_to_psi drops past mu^(n-1), relative to the largest


def _two_sum(a, b):
    """Exact a + b = s + err for doubles."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _two_prod(a, b):
    """Exact a * b = p + err for doubles (Dekker split, no FMA needed)."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _dd_axpy(hi, lo, c, v, sign=1.0):
    """In place hi+lo += sign * c * v with c scalar float, v float array."""
    p, e = _two_prod(sign * c, v)
    s, err = _two_sum(hi, p)
    hi[:], lo[:] = _two_sum(s, err + lo + e)


@lru_cache(maxsize=None)
def _psi_coeffs(n: int) -> np.ndarray:
    """Monomial coefficients of psi_n, ascending powers, as exact float integers."""
    if n == 0:
        return np.zeros(0)
    a = np.zeros(1)
    b = np.ones(1)
    for _ in range(1, n):
        c = np.zeros(len(b) + 1)
        c[1:] += b
        c[: len(a)] -= a
        a, b = b, c
    b.setflags(write=False)
    return b



class Poly:
    """Dense polynomial in the monomial basis, complex coefficients.

    ``coeffs[k]`` is the coefficient of mu**k; trailing exact zeros are trimmed,
    so the zero polynomial has an empty coefficient array and degree -1.

    A ``Poly`` may carry a hidden low-order compensation array (``_comp``)
    produced by :func:`psi_to_poly`; :func:`poly_to_psi` consumes it.  The
    visible coefficients are always the double-rounded values.
    """

    __slots__ = ("coeffs", "_comp")

    def __init__(self, coeffs, _comp=None):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        nz = np.nonzero(c)[0]
        end = nz[-1] + 1 if len(nz) else 0
        self.coeffs = c[:end].copy()
        self.coeffs.setflags(write=False)
        if _comp is not None:
            comp = np.zeros(end, dtype=complex)
            comp[: min(end, len(_comp))] = np.asarray(_comp, dtype=complex)[:end]
            comp.setflags(write=False)
            self._comp = comp
        else:
            self._comp = None

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(np.zeros(0))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        return complex(self.coeffs[k]) if 0 <= k <= self.degree else 0.0 + 0.0j

    def __call__(self, mu):
        """Horner evaluation; accepts scalars or arrays."""
        mu = np.asarray(mu, dtype=complex)
        out = np.zeros_like(mu)
        for c in self.coeffs[::-1]:
            out = out * mu + c
        return out if out.ndim else complex(out)

    def __repr__(self):
        return f"Poly(degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, Poly) and np.array_equal(self.coeffs, other.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Poly(c)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(-self.coeffs)

    def scale(self, c) -> "Poly":
        return Poly(c * self.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.degree < 0 or other.degree < 0:
            return Poly.zero()
        return Poly(np.convolve(self.coeffs, other.coeffs))

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor when the division is exact in theory.

        Synthetic division; the remainder only measures round-off, asserted
        below _DIVIDE_TOL * ||self||_inf.
        """
        if divisor.degree < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < divisor.degree:
            if np.abs(self.coeffs).max(initial=0.0) <= _DIVIDE_TOL:
                return Poly.zero()
            raise InexactDivision("dividend has lower degree than divisor")
        r = np.array(self.coeffs, dtype=complex)
        d = divisor.coeffs
        lead = d[-1]
        q = np.zeros(self.degree - divisor.degree + 1, dtype=complex)
        for k in range(len(q) - 1, -1, -1):
            q[k] = r[k + divisor.degree] / lead
            r[k : k + divisor.degree + 1] -= q[k] * d
        rem = np.abs(r[: divisor.degree]).max(initial=0.0)
        scale = np.abs(self.coeffs).max(initial=1.0)
        if rem > _DIVIDE_TOL * scale:
            raise InexactDivision(f"remainder norm {rem:.3e} exceeds {_DIVIDE_TOL:.1e} * ||dividend||")
        return Poly(q)



@dataclass(frozen=True)
class PsiSeries:
    """Coefficients c_1..c_N of sum_j c_j psi_j (psi_j monic, degree j-1)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if len(c) == 0:
            c = np.zeros(1, dtype=complex)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> complex:
        """Coefficient of psi_j (1-based)."""
        return complex(self.coeffs[j - 1])


def psi_eval(n: int, mu):
    """psi_n(mu) by the three-term recurrence; mu may be a scalar or array."""
    if n < 0:
        raise WrongCount("psi index must be non-negative")
    mu = np.asarray(mu, dtype=complex)
    a = np.zeros_like(mu)
    if n == 0:
        return a if a.ndim else complex(a)
    b = np.ones_like(mu)
    for _ in range(1, n):
        a, b = b, mu * b - a
    return b if b.ndim else complex(b)


def psi_poly(n: int) -> Poly:
    """psi_n as a monomial Poly (integer coefficients)."""
    return Poly(_psi_coeffs(n))



def psi_to_poly(series: PsiSeries) -> Poly:
    """Expand a psi series into monomial coefficients (compensated)."""
    cs = series.coeffs
    n = len(cs)
    hi_r = np.zeros(n)
    lo_r = np.zeros(n)
    hi_i = np.zeros(n)
    lo_i = np.zeros(n)
    for j in range(1, n + 1):
        c = cs[j - 1]
        if c == 0:
            continue
        pj = _psi_coeffs(j)
        _dd_axpy(hi_r[:j], lo_r[:j], c.real, pj)
        _dd_axpy(hi_i[:j], lo_i[:j], c.imag, pj)
    return Poly(hi_r + 1j * hi_i, _comp=lo_r + 1j * lo_i)


def poly_to_psi(p: Poly, n: int | None = None) -> PsiSeries:
    """Coordinates of p with respect to psi_1..psi_n.

    The change-of-basis matrix is unit upper triangular (psi_j monic), solved
    by back-substitution with compensated accumulation.  If n is given and p
    carries coefficients beyond mu**(n-1), they must be negligible (at most
    _FIT_TOL of the largest: round-off from exact cancellations upstream) or
    DegreeMismatch is raised.
    """
    if n is None:
        n = max(p.degree + 1, 1)
    if n < 1:
        raise WrongCount("psi series length must be >= 1")
    scale = np.abs(p.coeffs).max(initial=1.0)
    for k in range(n, p.degree + 1):
        if abs(p.coeffs[k]) > _FIT_TOL * scale:
            raise DegreeMismatch(
                f"degree {p.degree} polynomial does not fit in psi_1..psi_{n}"
            )
    hi_r = np.zeros(n)
    lo_r = np.zeros(n)
    hi_i = np.zeros(n)
    lo_i = np.zeros(n)
    m = min(n, len(p.coeffs))
    hi_r[:m] = p.coeffs[:m].real
    hi_i[:m] = p.coeffs[:m].imag
    if p._comp is not None:
        lo_r[:m] = p._comp[:m].real
        lo_i[:m] = p._comp[:m].imag
    cs = np.zeros(n, dtype=complex)
    for j in range(n, 0, -1):
        c = complex(hi_r[j - 1] + lo_r[j - 1], hi_i[j - 1] + lo_i[j - 1])
        cs[j - 1] = c
        if c == 0:
            continue
        pj = _psi_coeffs(j)
        _dd_axpy(hi_r[:j], lo_r[:j], c.real, pj, sign=-1.0)
        _dd_axpy(hi_i[:j], lo_i[:j], c.imag, pj, sign=-1.0)
    return PsiSeries(cs)


def psi_mul(a: int, b: int) -> PsiSeries:
    """psi_a * psi_b in the psi basis.

    The product expands with unit coefficients at indices a+b-1-2k,
    k = 0..min(a,b)-1 (exact integer identity).
    """
    if a < 1 or b < 1:
        raise WrongCount("psi_mul requires indices >= 1")
    out = np.zeros(a + b - 1, dtype=complex)
    for k in range(min(a, b)):
        out[a + b - 2 - 2 * k] = 1.0
    return PsiSeries(out)



def poly_from_roots(roots) -> Poly:
    """Monic Poly with the given roots (multiset).

    The product is accumulated with conjugate roots adjacent, so conjugate-
    symmetric inputs keep the running product near-real and the final
    coefficients real to ~1e-12.
    """
    c = np.ones(1, dtype=complex)
    for r in sorted((complex(r) for r in roots), key=lambda z: (z.real, abs(z.imag), z.imag)):
        nxt = np.zeros(len(c) + 1, dtype=complex)
        nxt[1:] += c
        nxt[:-1] -= r * c
        c = nxt
    return Poly(c)


def interpolate(nodes, values) -> Poly:
    """Unique Poly of degree < #nodes through the (node, value) pairs.

    Newton divided differences on Leja-ordered nodes; the natural node sets
    2 cos(pi k / n) cluster at +-2 and lose digits beyond n ~ 30 without the
    reordering.
    """
    nodes = [complex(x) for x in nodes]
    values = [complex(v) for v in values]
    if len(nodes) != len(values):
        raise WrongCount("nodes and values must have equal length")
    n = len(nodes)
    if n == 0:
        return Poly.zero()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(nodes[i] - nodes[j]) <= 1e-14:
                raise DuplicateNode(f"nodes {i} and {j} coincide")
    order = _leja_index_order(nodes)
    xs = [nodes[i] for i in order]
    dd = [values[i] for i in order]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # Horner on the Newton form
    c = np.array([dd[n - 1]], dtype=complex)
    for k in range(n - 2, -1, -1):
        nxt = np.zeros(len(c) + 1, dtype=complex)
        nxt[1:] += c
        nxt[:-1] -= xs[k] * c
        nxt[0] += dd[k]
        c = nxt
    return Poly(c)


def _leja_index_order(pts) -> list[int]:
    n = len(pts)
    if n == 0:
        return []
    order = [max(range(n), key=lambda i: abs(pts[i]))]
    rest = set(range(n)) - {order[0]}
    # accumulate the distance products in logs to dodge under/overflow
    logd = {i: 0.0 for i in rest}
    while rest:
        last = pts[order[-1]]
        for i in rest:
            d = abs(pts[i] - last)
            logd[i] += np.log(d) if d > 0 else -np.inf
        best = max(rest, key=lambda i: logd[i])
        order.append(best)
        rest.discard(best)
    return order


def poly_roots(p: Poly) -> np.ndarray:
    """All complex roots of p with multiplicity.

    :func:`_aberth` started on Fujiwara's bound 2 max_k |c_k / c_deg|^(1/(deg-k)),
    which every root lies within, with Horner's ratio p/p' and the scaled
    residual 4 |p(z)| / ((2 deg + 1) sum_k |c_k| |z|^k): a root settles once
    |p(z)| is below eps (2 deg + 1) sum_k |c_k| |z|^k, the running error
    bound of the Horner evaluation.  A zero Fujiwara bound means
    p = c_deg z^deg, whose roots are all 0.  A non-finite p(z) on the way
    gives a non-finite step and raises NoConvergence.  Residual contract:
    max |p(z)| / (||p|| (1+|z|)^deg) <= 1e-10 for deg <= 64.
    """
    deg = p.degree
    if deg < 1:
        raise DegreeMismatch("poly_roots requires degree >= 1")
    c = p.coeffs
    radius = 2.0 * np.max(np.abs(c[:-1] / c[-1]) ** (1.0 / (deg - np.arange(deg))))
    if radius == 0:
        return np.zeros(deg, dtype=complex)
    dcoef = c[1:] * np.arange(1, deg + 1)
    absc = np.abs(c)

    def horner(x):
        pv, dv, bound = np.zeros_like(x), np.zeros_like(x), np.zeros(x.shape)
        ax = np.abs(x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(deg, -1, -1):
                pv = pv * x + c[k]
                bound = bound * ax + absc[k]
                if k:
                    dv = dv * x + dcoef[k - 1]
            newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.0)
            res = np.where(pv == 0, 0.0, np.abs(pv) / bound * (4.0 / (2 * deg + 1)))
        return newton, res

    z = radius * np.exp(1j * (2 * np.pi * np.arange(deg) / deg + 0.39))
    return _aberth(z, horner)



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



def char_poly(p: DiscreteProblem) -> Poly:
    """D(mu) as a monic degree-l Poly, assembled symbolically in the psi basis.

    D = psi_m * Q_{l+1} + psi_{l-m+1} * Q_0, expanded term by term with
    psi_mul, then converted to monomials.
    """
    l, m = p.l, p.m
    polys = pq_polynomials(p)
    acc = np.zeros(l + 1, dtype=complex)
    for a, series in ((m, polys.ql1), (l - m + 1, polys.q0)):
        for j in np.flatnonzero(series.coeffs) + 1:
            product = psi_mul(a, j).coeffs
            acc[: len(product)] += series.coeffs[j - 1] * product
    return psi_to_poly(PsiSeries(acc))



def _solve_degenerate_left(mu_reduced: np.ndarray, m: int, l: int, known_w: np.ndarray) -> np.ndarray:
    """w from the reduced spectrum and the known w_{m-d+1}..w_{m-1}, by monomial interpolation."""
    d = math.gcd(m, l + 1)
    # re-synthesize the degenerate eigenvalues from closed form; the input
    # never contains them, so perturbing them upstream cannot leak in here
    mu_all = np.concatenate([mu_reduced, psi_zeros(d).astype(complex)])
    d_poly = poly_from_roots(mu_all)
    wm = d_poly.coeff(l - 1)  # -sum mu_all: the trace of T - w e_m^T is -w_m
    w = np.zeros(l, dtype=complex)
    w[m - 1] = wm
    for i, kw in enumerate(known_w):
        w[m - d + i] = kw  # w_{m-d+1}..w_{m-1}

    # zeros nu_k = 2 cos(theta_k), theta_k = pi k/m, of phi_{m-d} = psi_m / psi_d:
    # drop every (m/d)-th zero of psi_m, where psi_{l-m+1} vanishes too
    k = np.arange(1, m)
    k = k[k % (m // d) != 0]
    nus = psi_zeros(m)[k - 1]

    def psi(j):  # psi_j(nu_k) = sin(j theta_k) / sin(theta_k)
        return _psi_sin(j, k, m) / _psi_sin(1, k, m)

    # Q_0^bullet = Q_0 + psi_{m-1} - sum_{j=m-d+1}^{m-1} w_j psi_j = sum_{j<=m-d} w_j psi_j
    vals = _product_at(nus, mu_all) / psi(l - m + 1) + psi(m - 1)
    for j in range(m - d + 1, m):
        vals -= w[j - 1] * psi(j)
    q0_bullet = interpolate(nus, vals)

    q0 = q0_bullet - psi_poly(m - 1)
    for j in range(m - d + 1, m):
        q0 = q0 + psi_poly(j).scale(w[j - 1])

    # Q_{l+1} = (D + P_{l+1} Q_0) / P_0, an exact division by psi_m
    numerator = d_poly + (-psi_poly(l - m + 1)) * q0
    ql1 = numerator.divide_exact(psi_poly(m))

    if m >= 2:  # w_1..w_{m-1} are the coordinates of Q_0 + psi_{m-1}
        w[: m - 1] = poly_to_psi(q0 + psi_poly(m - 1), n=m - 1).coeffs
    if m <= l - 1:  # coordinate j of Q_{l+1} - psi_{l-m+2} - w_m psi_{l-m+1} is w_{l+1-j}
        rest = ql1 - psi_poly(l - m + 2) - psi_poly(l - m + 1).scale(wm)
        w[m:] = poly_to_psi(rest, n=l - m).coeffs[::-1]
    return w
