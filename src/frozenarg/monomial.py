"""Polynomials held by their coefficients: conversions, arithmetic, interpolation, roots.

The psi basis and its grid are defined in :mod:`frozenarg.chebypoly`.  Here a
polynomial is a coefficient array, in the monomial basis (:class:`Poly`) or in
the psi basis (:class:`PsiSeries`).

Everything here works over complex double-precision coefficients, except the basis
conversions.  The monomial coefficients of psi_n are integers and every double is an
integer over a power of two, so :func:`psi_to_poly` and :func:`poly_to_psi` change basis
exactly in Python integers, at any n, and round each result once.

The pipelines work on the psi grid; of them only :func:`inverse.solve_degenerate`
comes here, for the monomial interpolation of :func:`_solve_degenerate_left`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .chebypoly import _aberth, _index, _product_at, _psi_sin, psi_zeros
from .discrete import DiscreteProblem, _numbers, _vector
from .errors import DegreeMismatch, DuplicateNode, InexactDivision, WrongCount

_DIVIDE_TOL = 1e-10  # largest remainder of an exact division, relative to the dividend
_FIT_TOL = 1e-9  # largest coefficient poly_to_psi drops past mu^(n-1), relative to the largest


@lru_cache(maxsize=None)
def _psi_ints(n: int) -> tuple[int, ...]:
    """Monomial coefficients of psi_n, ascending powers: (-1)^k C(n-1-k, k) at mu^(n-1-2k)."""
    c = [0] * n
    for k in range((n + 1) // 2):
        c[n - 1 - 2 * k] = (-1) ** k * math.comb(n - 1 - k, k)
    return tuple(c)


def _dyadic(values, what: str) -> tuple[list[int], list[int], int]:
    """Real and imaginary parts of values as integers over one power of two: values = (re + 1j im) / den.

    WrongCount on an inf or NaN entry, which no such ratio represents.
    """
    v = _vector(values, None, what)
    ratios = [x.as_integer_ratio() for x in np.concatenate([v.real, v.imag]).tolist()]
    den = max((d for _, d in ratios), default=1)
    nums = [a * (den // d) for a, d in ratios]
    return nums[: len(v)], nums[len(v) :], den


def _nearest(re: list[int], im: list[int], den: int) -> np.ndarray:
    """The doubles nearest to (re + 1j im) / den; WrongCount where one lies beyond double range."""
    try:
        return np.array([complex(a / den, b / den) for a, b in zip(re, im)], dtype=complex)
    except OverflowError:
        raise WrongCount("coefficient beyond double range") from None


class Poly:
    """Dense polynomial in the monomial basis, complex coefficients.

    ``coeffs[k]`` is the coefficient of mu**k; trailing exact zeros are trimmed,
    so the zero polynomial has an empty coefficient array and degree -1.

    A ``Poly`` made by :func:`psi_to_poly` also keeps its exact coefficients
    (``_exact``: real and imaginary integer numerators and their power-of-two
    denominator), which :func:`poly_to_psi` reads.  The visible coefficients
    are their nearest doubles.
    """

    __slots__ = ("coeffs", "_exact")

    def __init__(self, coeffs, _exact=None):
        try:
            c = np.array(coeffs, dtype=complex, ndmin=1)
        except (TypeError, ValueError):  # text and the like: caught, not checked for on every call
            raise WrongCount("polynomial coefficients must be numbers") from None
        self._hold(c, _exact)

    @classmethod
    def _of(cls, c: np.ndarray) -> "Poly":
        """The Poly of the fresh 1-d complex array c, which it keeps without a copy: no one else may hold c."""
        p = cls.__new__(cls)
        p._hold(c, None)
        return p

    def _hold(self, c: np.ndarray, exact) -> None:
        if len(c) and c[-1] == 0:  # scan for the last nonzero only when there are zeros to trim
            nz = np.flatnonzero(c)
            c = c[: nz[-1] + 1 if len(nz) else 0]
        c.setflags(write=False)
        self.coeffs = c
        self._exact = exact

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(np.zeros(0))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        k = _index(k, "power k", -math.inf)
        return complex(self.coeffs[k]) if 0 <= k <= self.degree else 0.0 + 0.0j

    def __call__(self, mu):
        """Horner evaluation; accepts scalars or arrays of finite numbers (WrongCount otherwise)."""
        z = _numbers(mu, "mu")
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out if np.ndim(mu) else complex(out[0])

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
        return Poly._of(c)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._of(-self.coeffs)

    def scale(self, c) -> "Poly":
        return Poly._of(c * self.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.degree < 0 or other.degree < 0:
            return Poly.zero()
        return Poly._of(np.convolve(self.coeffs, other.coeffs))

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
        d, top = divisor.coeffs, divisor.degree
        lead = d[-1]
        q = np.zeros(self.degree - top + 1, dtype=complex)
        for k in range(len(q) - 1, -1, -1):
            q[k] = r[k + top] / lead
            r[k : k + top + 1] -= q[k] * d
        rem = np.abs(r[:top]).max(initial=0.0)
        scale = np.abs(self.coeffs).max(initial=1.0)
        if rem > _DIVIDE_TOL * scale:
            raise InexactDivision(f"remainder norm {rem:.3e} exceeds {_DIVIDE_TOL:.1e} * ||dividend||")
        return Poly._of(q)


@dataclass(frozen=True)
class PsiSeries:
    """Coefficients c_1..c_N of sum_j c_j psi_j (psi_j monic, degree j-1)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _vector(self.coeffs, None, "psi coordinates")
        object.__setattr__(self, "coeffs", c if len(c) else _vector(0.0, 1, "psi coordinates"))  # the zero series

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> complex:
        """Coefficient of psi_j (1-based)."""
        return complex(self.coeffs[_index(j, "psi index j", 1, self.n) - 1])


def psi_eval(n: int, mu):
    """psi_n(mu) by the three-term recurrence; mu may be a scalar or array."""
    n, z = _index(n, "psi index n", 0), _numbers(mu, "mu")
    a, b = -np.ones_like(z), np.zeros_like(z)  # psi_{-1} = -1 and psi_0 = 0 start the recurrence
    for _ in range(n):
        a, b = b, z * b - a
    return b if np.ndim(mu) else complex(b[0])


@lru_cache(maxsize=256, typed=True)  # typed: a cached psi_poly(2) must not answer psi_poly(2.0)
def psi_poly(n: int) -> Poly:
    """psi_n as a monomial Poly, each integer coefficient rounded to the nearest double.

    WrongCount where a coefficient lies beyond double range, from n = 1484.
    """
    n = _index(n, "psi index n", 0)
    return Poly(_nearest(list(_psi_ints(n)), [0] * n, 1))


def psi_to_poly(series: PsiSeries) -> Poly:
    """Expand a psi series into monomial coefficients, exactly; WrongCount on an inf or NaN coordinate."""
    re, im, den = _dyadic(series.coeffs, "psi coordinates")
    exact = (_change_basis(re, 1), _change_basis(im, 1), den)
    return Poly(_nearest(*exact), _exact=exact)


def poly_to_psi(p: Poly, n: int | None = None) -> PsiSeries:
    """Coordinates of p with respect to psi_1..psi_n.

    The change-of-basis matrix is unit upper triangular (psi_j monic), solved
    by back-substitution in integers, on the exact coefficients of a Poly from
    psi_to_poly and on the visible ones otherwise; each coordinate is rounded
    once.  An inf or NaN coefficient raises WrongCount.  If n is given and p
    carries coefficients beyond mu**(n-1), they must be negligible (at most
    _FIT_TOL of the largest: round-off from exact cancellations upstream) or
    DegreeMismatch is raised.
    """
    n = max(p.degree + 1, 1) if n is None else _index(n, "psi series length n")
    re, im, den = p._exact or _dyadic(p.coeffs, "coefficients")
    scale = np.abs(p.coeffs).max(initial=1.0)
    for k in range(n, p.degree + 1):
        if abs(p.coeffs[k]) > _FIT_TOL * scale:
            raise DegreeMismatch(f"degree {p.degree} polynomial does not fit in psi_1..psi_{n}")
    pad = [0] * max(n - len(re), 0)
    return PsiSeries(_nearest(_change_basis(re[:n] + pad, -1), _change_basis(im[:n] + pad, -1), den))


def _change_basis(nums: list[int], sign: int) -> list[int]:
    """psi coordinates to monomial coefficients (sign 1) or back (sign -1), exactly, in place.

    The matrix is unit upper triangular, column j the coefficients of psi_j:
    expanding runs j upwards and back-substitution downwards, so either way
    entry j-1 is final when step j reads it.
    """
    for j in range(1, len(nums) + 1) if sign > 0 else range(len(nums), 0, -1):
        c = sign * nums[j - 1]
        if c:
            pj = _psi_ints(j)
            for k in range(j - 3, -1, -2):
                nums[k] += c * pj[k]
    return nums


def psi_mul(a: int, b: int) -> PsiSeries:
    """psi_a * psi_b in the psi basis.

    The product expands with unit coefficients at indices a+b-1-2k,
    k = 0..min(a,b)-1 (exact integer identity).
    """
    a, b = _index(a, "psi index a"), _index(b, "psi index b")
    out = np.zeros(a + b - 1, dtype=complex)
    for k in range(min(a, b)):
        out[a + b - 2 - 2 * k] = 1.0
    return PsiSeries(out)


def poly_from_roots(roots) -> Poly:
    """Monic Poly with the given roots (multiset); WrongCount unless they are finite numbers.

    The product is accumulated with the roots sorted by (real part, |imag|, imag),
    so conjugate roots are adjacent, conjugate-symmetric inputs keep the running
    product near-real and the final coefficients come out real to ~1e-12.
    """
    r = _vector(roots, None, "roots")
    c = np.zeros(len(r) + 1, dtype=complex)  # descending powers: c[0] leads
    c[0] = 1.0
    for k, z in enumerate(r[np.lexsort((r.imag, np.abs(r.imag), r.real))]):
        c[1 : k + 2] -= z * c[: k + 1]  # times (mu - z)
    return Poly(c[::-1])


def interpolate(nodes, values) -> Poly:
    """Unique Poly of degree < #nodes through the (node, value) pairs.

    Newton divided differences on Leja-ordered nodes; the natural node sets
    2 cos(pi k / n) cluster at +-2 and lose digits beyond n ~ 30 without the
    reordering.  WrongCount unless nodes and values are equally many finite
    numbers; DuplicateNode, naming the first pair, where two nodes lie within 1e-14.
    """
    nodes = _vector(nodes, None, "nodes")
    n = len(nodes)
    values = _vector(values, n, "values")
    if n == 0:
        return Poly.zero()
    close = np.triu(np.abs(nodes[:, None] - nodes) <= 1e-14, 1)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise DuplicateNode(f"nodes {i} and {j} coincide")
    order = _leja_index_order(nodes)
    xs, dd = nodes[order], values[order]
    if xs.imag.any():
        for k in range(1, n):  # dd[k:] becomes the order-k divided differences
            dd[k:] = (dd[k:] - dd[k - 1 : -1]) / (xs[k:] - xs[:-k])
    else:  # real nodes: both parts over the real difference, which is how Python's x / (h + 0j) rounds
        parts, x = dd.view(float).reshape(n, 2), xs.real
        for k in range(1, n):
            parts[k:] = (parts[k:] - parts[k - 1 : -1]) / (x[k:] - x[:-k])[:, None]
    # Horner on the Newton form, descending powers: c[0] leads
    c = np.zeros(n, dtype=complex)
    c[0] = dd[n - 1]
    for k in range(n - 2, -1, -1):
        top = n - 1 - k  # c[:top] holds the degree top-1 partial sum; times (mu - xs[k]), plus dd[k]
        c[1 : top + 1] -= xs[k] * c[:top]
        c[top] += dd[k]
    return Poly(c[::-1])


def _leja_index_order(pts) -> list[int]:
    """Leja order of pts: the largest |pts| first, then each next the point whose product of
    distances to those before is largest, the first index on a tie."""
    pts = np.asarray(pts, dtype=complex)
    n = len(pts)
    if n == 0:
        return []
    with np.errstate(divide="ignore"):  # a coincident pair is log 0 = -inf
        logdist = np.log(np.abs(pts[:, None] - pts))
    order = [int(np.abs(pts).argmax())]
    left = np.ones(n, dtype=bool)
    left[order[0]] = False
    logd = np.zeros(n)  # log of the distance products, which would under- or overflow
    for _ in range(n - 1):
        logd += logdist[order[-1]]  # -inf at order[-1] itself, so a chosen point never wins again
        best = int(logd.argmax())
        if not left[best]:  # every point left coincides with a chosen one: take the first
            best = int(left.argmax())
        order.append(best)
        left[best] = False
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
    w[m - d : m - 1] = known_w  # w_{m-d+1}..w_{m-1}

    # zeros nu_k = 2 cos(theta_k), theta_k = pi k/m, of phi_{m-d} = psi_m / psi_d:
    # drop every (m/d)-th zero of psi_m, where psi_{l-m+1} vanishes too
    k = np.arange(1, m)
    k = k[k % (m // d) != 0]
    nus = psi_zeros(m)[k - 1]
    sin_theta = _psi_sin(1, k, m)

    def psi(j):  # psi_j(nu_k) = sin(j theta_k) / sin(theta_k); a column of j gives one row per j
        return _psi_sin(j, k, m) / sin_theta

    # Q_0^bullet = Q_0 + psi_{m-1} - sum_{j=m-d+1}^{m-1} w_j psi_j = sum_{j<=m-d} w_j psi_j
    js = np.arange(m - d + 1, m)
    known = w[js - 1]
    vals = _product_at(nus, mu_all) / psi(l - m + 1) + psi(m - 1) - known @ psi(js[:, None])
    q0_bullet = interpolate(nus, vals)

    basis = np.zeros((d - 1, m - 1), dtype=complex)  # the monomial coefficients of psi_j, one zero-padded row per j
    for row, j in zip(basis, js.tolist()):
        row[:j] = psi_poly(j).coeffs
    q0 = q0_bullet - psi_poly(m - 1) + Poly._of(known @ basis)

    # Q_{l+1} = (D + P_{l+1} Q_0) / P_0, an exact division by psi_m
    numerator = d_poly + (-psi_poly(l - m + 1)) * q0
    ql1 = numerator.divide_exact(psi_poly(m))

    if m >= 2:  # w_1..w_{m-1} are the coordinates of Q_0 + psi_{m-1}
        w[: m - 1] = poly_to_psi(q0 + psi_poly(m - 1), n=m - 1).coeffs
    if m <= l - 1:  # coordinate j of Q_{l+1} - psi_{l-m+2} - w_m psi_{l-m+1} is w_{l+1-j}
        rest = ql1 - psi_poly(l - m + 2) - psi_poly(l - m + 1).scale(wm)
        w[m:] = poly_to_psi(rest, n=l - m).coeffs[::-1]
    return w
