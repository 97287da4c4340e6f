"""Polynomial substrate: the psi basis, conversions, arithmetic, DST-I, interpolation, roots.

The basis polynomials are the monic second-kind-Chebyshev relatives

    psi_0 = 0,  psi_1 = 1,  psi_{n+1}(mu) = mu * psi_n(mu) - psi_{n-1}(mu),

so psi_n(2 cos theta) = sin(n theta) / sin(theta), deg(psi_n) = n - 1, and the
zeros of psi_n are 2 cos(pi k / n), k = 1..n-1.  On those zeros psi coordinates
are one DST-I of the values times sin(theta) (:func:`_dst1`).  The monomial
coefficients of psi_n are integers, exact in double precision up to n ~ 80,
which several routines exploit.

Everything here works over complex double-precision coefficients.  The basis
conversions additionally carry a compensated (double-double) accumulation so the
psi -> monomial -> psi round trip stays at the 1e-12 level out to n = 64, where
plain doubles lose the low-order coordinates entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeMismatch, DuplicateNode, InexactDivision, NoConvergence, WrongCount

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_EPS = np.finfo(float).eps
_BLOCK = 1 << 15  # entries per row block of the O(n^2) kernels


# ---------------------------------------------------------------------------
# compensated arithmetic helpers (vectorized over float64 arrays)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# psi coefficient tables
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

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

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(np.zeros(0))

    @staticmethod
    def one() -> "Poly":
        return Poly([1.0])

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

    def divide_exact(self, divisor: "Poly", tol: float = 1e-10) -> "Poly":
        """Quotient self / divisor when the division is exact in theory.

        Synthetic division; the remainder only measures round-off, asserted
        below tol * ||self||_inf.
        """
        if divisor.degree < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < divisor.degree:
            if np.abs(self.coeffs).max(initial=0.0) <= tol:
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
        if rem > tol * scale:
            raise InexactDivision(
                f"remainder norm {rem:.3e} exceeds {tol:.1e} * ||dividend||"
            )
        return Poly(q)


# ---------------------------------------------------------------------------
# PsiSeries
# ---------------------------------------------------------------------------

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


def psi_zeros(n: int) -> np.ndarray:
    """The n-1 zeros 2 cos(pi k / n), k = 1..n-1, in ascending k."""
    if n < 1:
        raise WrongCount("psi_zeros requires n >= 1")
    k = np.arange(1, n)
    return 2.0 * np.cos(np.pi * k / n)


def _psi_sin(j: int, k, n: int) -> np.ndarray:
    """sin(j theta_k) = psi_j(nu_k) sin(theta_k) at the zeros nu_k = 2 cos(theta_k), theta_k = pi k/n, of psi_n."""
    return np.sin(np.pi * (j * k % (2 * n)) / n)  # j k reduced mod 2n: 0 or ~1e-16 where n divides j k


def _dst1(g) -> np.ndarray:
    """DST-I sum_k g_k sin(jk pi/n), j = 1..n-1, with n = len(g) + 1.

    One numpy FFT of the odd extension of g.  Since psi_j(2 cos theta) =
    sin(j theta) / sin(theta), the psi coordinates c_1..c_{n-1} of a
    polynomial in span(psi_1..psi_{n-1}) are (2/n) _dst1(f(nu_k) sin(theta_k))
    from its values at the zeros nu_k = 2 cos(theta_k) of psi_n.
    """
    g = np.asarray(g)
    n = len(g) + 1
    ext = np.zeros(2 * n, dtype=complex)
    ext[1:n] = g
    ext[n + 1 :] = -g[::-1]
    return 0.5j * np.fft.fft(ext)[1:n]


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


def poly_to_psi(p: Poly, n: int | None = None, tol: float = 1e-9) -> PsiSeries:
    """Coordinates of p with respect to psi_1..psi_n.

    The change-of-basis matrix is unit upper triangular (psi_j monic), solved
    by back-substitution with compensated accumulation.  If n is given and p
    carries coefficients beyond mu**(n-1), they must be negligible (round-off
    from exact cancellations upstream) or DegreeMismatch is raised.
    """
    if n is None:
        n = max(p.degree + 1, 1)
    if n < 1:
        raise WrongCount("psi series length must be >= 1")
    scale = np.abs(p.coeffs).max(initial=1.0)
    for k in range(n, p.degree + 1):
        if abs(p.coeffs[k]) > tol * scale:
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


# ---------------------------------------------------------------------------
# products, interpolation, roots
# ---------------------------------------------------------------------------

def _conjugate_adjacent(roots) -> list[complex]:
    """Order pairing conjugates next to each other (real part, |imag|, imag)."""
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, abs(z.imag), z.imag))


def poly_from_roots(roots) -> Poly:
    """Monic Poly with the given roots (multiset).

    The product is accumulated with conjugate roots adjacent, so conjugate-
    symmetric inputs keep the running product near-real and the final
    coefficients real to ~1e-12.
    """
    c = np.ones(1, dtype=complex)
    for r in _conjugate_adjacent(roots):
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


def poly_roots(p: Poly, max_iterations: int = 500) -> np.ndarray:
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
    return _aberth(z, horner, max_iterations)


def _aberth(z, ratio, max_iterations: int) -> np.ndarray:
    """Simultaneous Aberth-Ehrlich iteration on the starting points z (Bini and Fiorentino 2000).

    ``ratio(x) -> (newton, scaled_residual)`` gives the Newton ratio f/f' and
    a residual scaled so that 4 eps is the rounding level of f, for the points
    x; it is called on at most _BLOCK // len(z) + 1 points at a time.  Each
    sweep moves every active root by N_i / (1 - N_i sum_{j != i} 1/(z_i - z_j))
    (a zero denominator leaves the Newton ratio N_i), then a root settles
    once its scaled residual is <= 4 eps or its step <= 1e-14 (1 + |z_i|);
    settled roots still enter the others' sums.  Raises NoConvergence on a
    non-finite step or after max_iterations sweeps, with the worst residual.
    Updates z in place and returns it.
    """
    n = len(z)
    block = _BLOCK // max(n, 1) + 1  # rows per block: about 0.5 MB per matrix at any n
    work = np.empty((min(n, block), n), dtype=complex)  # once per call, not a page-faulting temporary per block
    active = np.arange(n)
    res = np.full(n, np.inf)
    for _ in range(max_iterations):
        if not len(active):
            break
        step = np.empty(len(active), dtype=complex)
        res = np.empty(len(active))
        for lo in range(0, len(active), block):
            rows = active[lo : lo + block]
            newton, res[lo : lo + block] = ratio(z[rows])
            diff = np.subtract(z[rows, None], z, out=work[: len(rows)])
            diff[np.arange(len(rows)), rows] = np.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                denom = 1.0 - newton * np.divide(1.0, diff, out=diff).sum(axis=1)
                step[lo : lo + block] = newton / np.where(denom == 0, 1, denom)
        if not np.isfinite(step).all():
            raise NoConvergence("Aberth iteration produced a non-finite step")
        z[active] -= step
        active = active[(res > 4.0 * _EPS) & (np.abs(step) > 1e-14 * (1.0 + np.abs(z[active])))]
    if len(active):
        raise NoConvergence(
            f"Aberth iteration hit the cap ({max_iterations}); worst scaled residual {res.max():.3e}",
            worst_residual=float(res.max()),
        )
    return z
