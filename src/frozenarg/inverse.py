"""Inverse solvers: recover the coefficients w_j from the discrete spectrum.

Three regimes:

* gcd(m, l+1) = 1: the l eigenvalues determine all w_j uniquely
  (:func:`solve_nondegenerate`).
* gcd(m, l+1) = d > 1: the d-1 eigenvalues mu = 2 cos(pi k / d) are
  potential-independent, and inversion needs a-priori knowledge of the w_j
  on one side of the frozen index (:func:`solve_degenerate`).
* l = 2m-1 (frozen point mid-interval): only w_m and the pair sums
  w_j + w_{l+1-j} are determined (:func:`solve_symmetric`).

All interpolation nodes come from the closed-form zeros 2 cos(pi k / n); no
numerical root-finding enters the inversion, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebypoly import (
    Poly,
    _dst1,
    interpolate,
    poly_from_roots,
    poly_to_psi,
    psi_eval,
    psi_poly,
    psi_zeros,
)
from .discrete import _BLOCK
from .errors import (
    DegenerateConfiguration,
    DegreeMismatch,
    NotDegenerate,
    SideDataMismatch,
    WrongCount,
)

_RUN = 64  # factors per partial product: 64 factors of modulus up to 2^15 stay in double range


@dataclass(frozen=True)
class DegenerateData:
    """A-priori coefficients for the degenerate inverse problems.

    side="left": known_w holds w_{m-d+1}..w_{m-1} (d-1 values).
    side="right": known_w holds w_{m+1}..w_{m+d} (d values, as stated; the
    reflection onto the left algorithm consumes only the first d-1 of them).
    """

    side: str
    known_w: np.ndarray
    d: int

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise SideDataMismatch(f"side must be 'left' or 'right', got {self.side!r}")
        kw = np.atleast_1d(np.asarray(self.known_w, dtype=complex)).copy()
        kw.setflags(write=False)
        object.__setattr__(self, "known_w", kw)
        expected = self.d - 1 if self.side == "left" else self.d
        if len(self.known_w) != expected:
            raise SideDataMismatch(
                f"side={self.side} with d={self.d} needs {expected} known values, "
                f"got {len(self.known_w)}"
            )


def recover_wm(d_poly: Poly, l: int, m: int) -> complex:
    """Extract w_m from a monic characteristic polynomial of degree l.

    w_m is the mu^(l-1) coefficient of D - psi_m psi_{l-m+2}; the product's
    coefficient there vanishes by parity (its integer coefficients occupy only
    every other slot), so the subtraction is exact even in floating point.
    """
    if d_poly.degree != l:
        raise DegreeMismatch(f"expected degree {l}, got {d_poly.degree}")
    a = psi_poly(m).coeffs
    b = psi_poly(l - m + 2).coeffs
    # single convolution slot l-1 of psi_m * psi_{l-m+2}
    prod = sum(a[i] * b[l - 1 - i] for i in range(len(a)) if 0 <= l - 1 - i < len(b))
    return complex(d_poly.coeff(l - 1) - prod)


def _prod_eval(mu_roots: np.ndarray, z: complex) -> complex:
    """Evaluate prod (z - mu_n): stable product form of the monic D."""
    return complex(np.prod(z - mu_roots))


def _read_left(w: np.ndarray, q0: Poly, m: int) -> None:
    """Fill w_1..w_{m-1} from the coordinates of Q_0 + psi_{m-1}."""
    if m < 2:
        return
    series = poly_to_psi(q0 + psi_poly(m - 1), n=m - 1)
    w[: m - 1] = series.coeffs


def _read_right(w: np.ndarray, ql1: Poly, l: int, m: int, wm: complex) -> None:
    """Fill w_{m+1}..w_l from the coordinates of Q_{l+1} - psi_{l-m+2} - w_m psi_{l-m+1}."""
    if m > l - 1:
        return
    rest = ql1 - psi_poly(l - m + 2) - psi_poly(l - m + 1).scale(wm)
    series = poly_to_psi(rest, n=l - m)
    for j in range(1, l - m + 1):
        w[l - j] = series.coeffs[j - 1]  # coordinate j is w_{l+1-j}


def solve_nondegenerate(mu, m: int, l: int | None = None) -> np.ndarray:
    """Recover all w_j from the full spectrum when gcd(m, l+1) = 1.

    Steps: build D from the eigenvalue product, read w_m off its subleading
    coefficient, evaluate Q_0 at the zeros of psi_m and the reduced Q_{l+1}
    at the zeros of psi_{l-m+1}, interpolate both, and read the w_j off their
    psi coordinates.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    if l is None:
        l = len(mu)
    if len(mu) != l:
        raise WrongCount(f"expected {l} eigenvalues, got {len(mu)}")
    if not 1 <= m <= l:
        raise WrongCount(f"frozen index m={m} outside [1, {l}]")
    if math.gcd(m, l + 1) != 1:
        raise DegenerateConfiguration(
            f"gcd(m, l+1) = {math.gcd(m, l + 1)} > 1: use solve_degenerate"
        )
    d_poly = poly_from_roots(mu)
    wm = recover_wm(d_poly, l, m)
    w = np.zeros(l, dtype=complex)
    w[m - 1] = wm

    if m >= 2:
        nus = psi_zeros(m)
        # at zeros of P_0 = psi_m:  Q_0 = -D / P_{l+1} = D / psi_{l-m+1}
        vals = [_prod_eval(mu, nu) / psi_eval(l - m + 1, nu) for nu in nus]
        q0 = interpolate(nus, vals)
        _read_left(w, q0, m)

    if m <= l - 1:
        thetas = psi_zeros(l - m + 1)
        # at zeros of P_{l+1} = -psi_{l-m+1}:  Q_{l+1} = D / P_0 = D / psi_m,
        # with the known leading monomials mu^{l-m+1} + w_m mu^{l-m} removed
        vals = [
            _prod_eval(mu, t) / psi_eval(m, t) - t ** (l - m + 1) - wm * t ** (l - m)
            for t in thetas
        ]
        tail = interpolate(thetas, vals)
        ql1 = tail + Poly.monomial(l - m + 1) + Poly.monomial(l - m, wm)
        _read_right(w, ql1, l, m, wm)
    return w


def degenerate_mu(l: int, m: int) -> np.ndarray:
    """The potential-independent eigenvalues 2 cos(pi k / d), k = 1..d-1."""
    return psi_zeros(math.gcd(m, l + 1))


def strip_degenerate(mu, l: int, m: int, tol: float = 1e-8) -> np.ndarray:
    """Remove the d-1 degenerate eigenvalues from a full spectrum.

    For each closed-form value the closest entry is dropped; anything farther
    than tol away raises WrongCount (the spectrum cannot belong to (l, m)).
    """
    mu = list(np.atleast_1d(np.asarray(mu, dtype=complex)))
    if len(mu) != l:
        raise WrongCount(f"expected {l} eigenvalues, got {len(mu)}")
    for target in degenerate_mu(l, m):
        i = min(range(len(mu)), key=lambda i: abs(mu[i] - target))
        if abs(mu[i] - target) > tol:
            raise WrongCount(
                f"no eigenvalue within {tol:g} of the degenerate value {target:.6f}"
            )
        mu.pop(i)
    return np.asarray(mu, dtype=complex)


def _solve_degenerate_left(mu_reduced: np.ndarray, m: int, l: int, known_w: np.ndarray) -> np.ndarray:
    d = math.gcd(m, l + 1)
    # re-synthesize the degenerate eigenvalues from closed form; the input
    # never contains them, so perturbing them upstream cannot leak in here
    mu_all = np.concatenate([mu_reduced, degenerate_mu(l, m).astype(complex)])
    d_poly = poly_from_roots(mu_all)
    wm = recover_wm(d_poly, l, m)
    w = np.zeros(l, dtype=complex)
    w[m - 1] = wm
    for i, kw in enumerate(known_w):
        w[m - d + i] = kw  # w_{m-d+1}..w_{m-1}

    # zeros of phi_{m-d} = psi_m / psi_d: drop every (m/d)-th zero of psi_m
    step = m // d
    nus = np.array([2.0 * math.cos(math.pi * k / m) for k in range(1, m) if k % step != 0])

    # Q_0^bullet = Q_0 + psi_{m-1} - sum_{j=m-d+1}^{m-1} w_j psi_j = sum_{j<=m-d} w_j psi_j
    vals = []
    for nu in nus:
        v = _prod_eval(mu_all, nu) / psi_eval(l - m + 1, nu) + psi_eval(m - 1, nu)
        for j in range(m - d + 1, m):
            v -= w[j - 1] * psi_eval(j, nu)
        vals.append(v)
    q0_bullet = interpolate(nus, vals)

    q0 = q0_bullet - psi_poly(m - 1)
    for j in range(m - d + 1, m):
        q0 = q0 + psi_poly(j).scale(w[j - 1])

    # Q_{l+1} = (D + P_{l+1} Q_0) / P_0, an exact division by psi_m
    numerator = d_poly + (-psi_poly(l - m + 1)) * q0
    ql1 = numerator.divide_exact(psi_poly(m))

    _read_left(w, q0, m)
    _read_right(w, ql1, l, m, wm)
    return w


def solve_degenerate(mu_reduced, m: int, l: int, data: DegenerateData) -> np.ndarray:
    """Recover w from the reduced spectrum plus one-sided a-priori data.

    side="left" runs the direct algorithm; side="right" reflects the grid by
    j -> l+1-j (an exact spectral equivalence that moves the frozen index to
    l+1-m), runs the left algorithm, and reflects back.
    """
    d = math.gcd(m, l + 1)
    if d == 1:
        raise NotDegenerate(f"gcd(m, l+1) = 1 for (l, m) = ({l}, {m}): use solve_nondegenerate")
    if data.d != d:
        raise SideDataMismatch(f"data.d = {data.d} but gcd(m, l+1) = {d}")
    mu_reduced = np.atleast_1d(np.asarray(mu_reduced, dtype=complex))
    if len(mu_reduced) != l - d + 1:
        raise WrongCount(f"expected {l - d + 1} non-degenerate eigenvalues, got {len(mu_reduced)}")
    if data.side == "left":
        return _solve_degenerate_left(mu_reduced, m, l, data.known_w)
    if m + d > l:
        raise SideDataMismatch(
            f"side=right needs w_{{m+1}}..w_{{m+d}} inside the grid, but m+d = {m + d} > l = {l}"
        )
    # reflected problem knows w'_{m'-d+1}..w'_{m'-1} = w_{m+d-1}..w_{m+1}
    known_left = data.known_w[: d - 1][::-1]
    w_ref = _solve_degenerate_left(mu_reduced, l + 1 - m, l, known_left)
    return w_ref[::-1].copy()


def _product_at(nu, mu) -> np.ndarray:
    """prod_n (nu_k - mu_n) for every k, without leaving double range on the way.

    The value at the zeros of psi_{m+1} is of modest size, but its partial
    products overflow from m of about 1280.  So the factors are multiplied in
    runs of _RUN, each run's product is split by np.frexp of its modulus into
    a factor in [1/2, 1) and a power of two, and the two parts are combined
    separately.  Rows are built in blocks of at most _BLOCK entries.

    A single run cannot overflow and its rescaling gives back the same bits,
    so up to _RUN factors the plain product is taken: the rescaling's dozen
    numpy calls add about 30 us, which made solve_symmetric 1.4-1.8 times
    slower at m <= 64.
    """
    if mu.size <= _RUN:
        return np.prod(nu[:, None] - mu, axis=1)
    starts = np.arange(0, mu.size, _RUN)
    g = np.empty(nu.size, dtype=complex)
    rows = max(1, _BLOCK // mu.size)
    for lo in range(0, nu.size, rows):
        runs = np.multiply.reduceat(nu[lo : lo + rows, None] - mu, starts, axis=1)
        _, e = np.frexp(np.abs(runs))
        scaled = np.prod(np.ldexp(runs.real, -e) + 1j * np.ldexp(runs.imag, -e), axis=1)
        e = e.sum(axis=1)
        g[lo : lo + rows] = np.ldexp(scaled.real, e) + 1j * np.ldexp(scaled.imag, e)
    return g


def solve_symmetric(mu_odd, m: int) -> tuple[complex, np.ndarray]:
    """Mid-interval case l = 2m-1: recover w_m and the pair sums.

    The non-degenerate eigenvalues satisfy
    prod (mu - mu_n) = psi_{m+1} - psi_{m-1} + w_m psi_m + sum_j (w_j + w_{l+1-j}) psi_j,
    so after removing the known leading combination the psi coordinates are
    exactly (s_1, .., s_{m-1}, w_m) with s_j = w_j + w_{l+1-j}.

    The product G is evaluated at the zeros nu_k = 2 cos(theta_k),
    theta_k = pi k/(m+1), of psi_{m+1}, where its monic psi_{m+1} term
    vanishes, so c_1..c_m = (2/(m+1)) DST-I(G(nu_k) sin(theta_k)).  The
    free-problem output stays at zero to ~1e-13 up to m = 512 and to 2e-13
    at m = 2048.
    """
    mu_odd = np.atleast_1d(np.asarray(mu_odd, dtype=complex))
    if len(mu_odd) != m:
        raise WrongCount(f"expected {m} eigenvalues, got {len(mu_odd)}")
    theta = np.pi * np.arange(1, m + 1) / (m + 1)
    g = _product_at(psi_zeros(m + 1), mu_odd)
    z = (2.0 / (m + 1)) * _dst1(g * np.sin(theta))  # coordinates c_1..c_m
    if m >= 2:
        z[m - 2] += 1.0  # + psi_{m-1}
    wm = complex(z[m - 1])
    return wm, z[: m - 1]
