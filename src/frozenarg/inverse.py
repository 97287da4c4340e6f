"""Inverse solvers: recover the coefficients w_j from the discrete spectrum.

Three regimes:

* gcd(m, l+1) = 1: the l eigenvalues determine all w_j uniquely
  (:func:`solve_nondegenerate`).
* gcd(m, l+1) = d > 1: the d-1 eigenvalues mu = 2 cos(pi k / d) are
  potential-independent, and inversion needs a-priori knowledge of the w_j
  on one side of the frozen index (:func:`solve_degenerate`).
* l = 2m-1 (frozen point mid-interval): only w_m and the pair sums
  w_j + w_{l+1-j} are determined (:func:`solve_symmetric`).

The nondegenerate and symmetric solvers read the secular weights of the rank-one
update T - w e_m^T off the spectrum at the zeros 2 cos(pi k/(l+1)) of psi_{l+1}, and one
DST-I runs :func:`discrete._secular_weights` backwards (:func:`_read_w`).  The degenerate
solver takes its node values on the zeros of psi_m, but still interpolates them in the
monomial basis.  No numerical root-finding enters the inversion, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebypoly import (
    _BLOCK,
    Poly,
    _dst1,
    _psi_sin,
    interpolate,
    poly_from_roots,
    poly_to_psi,
    psi_poly,
    psi_zeros,
)
from .errors import (
    DegenerateConfiguration,
    NotDegenerate,
    SideDataMismatch,
    WrongCount,
)

_RUN = 64  # factors per partial product: 64 factors of modulus up to 2^15 stay in double range


def _finite_array(values, what: str) -> np.ndarray:
    """values as a 1-d complex array; WrongCount if an entry is inf or NaN."""
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    if not np.isfinite(values).all():
        raise WrongCount(f"{what} must be finite")
    return values


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
        kw = _finite_array(self.known_w, "known_w").copy()
        kw.setflags(write=False)
        object.__setattr__(self, "known_w", kw)
        expected = self.d - 1 if self.side == "left" else self.d
        if len(self.known_w) != expected:
            raise SideDataMismatch(
                f"side={self.side} with d={self.d} needs {expected} known values, "
                f"got {len(self.known_w)}"
            )


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


def _w_from_weights(a: np.ndarray, m: int) -> np.ndarray:
    """w = DST-I(a / s_m), undoing a = s_m (2/n) DST-I(w) of the forward map; n = len(a) + 1.

    Where n divides m k, s_m = 0 and the mode of w is one no spectrum sees: it enters as 0.
    """
    n = len(a) + 1
    k = np.arange(1, n)
    return _dst1(np.divide(a, _psi_sin(m, k, n), out=np.zeros(n - 1, dtype=complex), where=m * k % n != 0))


def _read_w(mu: np.ndarray, l: int, m: int, d: int) -> np.ndarray:
    """w from the spectrum mu of T - w e_m^T less the d-1 zeros of psi_d, read on the zeros of psi_{l+1}.

    At nu_k = 2 cos(theta_k), theta_k = pi k/n, n = l+1, the weights are a_k = D(nu_k) / psi_n'(nu_k)
    with D = prod (nu - mu_i) psi_d, psi_n'(nu_k) = -n (-1)^k / (2 sin^2 theta_k) and
    psi_d(nu_k) = sin(d theta_k) / sin(theta_k); only those where s_m does not vanish are read.
    """
    n = l + 1
    k = np.arange(1, n)
    k = k[m * k % n != 0]
    a = np.zeros(l, dtype=complex)
    theta = np.pi * k / n
    sign = np.where(k % 2 == 1, 2.0 / n, -2.0 / n)  # -(2/n) (-1)^k
    a[k - 1] = sign * np.sin(theta) * _psi_sin(d, k, n) * _product_at(2.0 * np.cos(theta), mu)
    return _w_from_weights(a, m)


def solve_nondegenerate(mu, m: int, l: int | None = None) -> np.ndarray:
    """Recover all w_j from the full spectrum when gcd(m, l+1) = 1.

    T - w e_m^T is a rank-one update of T (Bunch, Nielsen and Sorensen 1978), so
    D(nu) = prod (nu - mu_i) = psi_n(nu) (1 + sum_k a_k / (nu - nu_k)), n = l+1, with poles at the
    zeros nu_k = 2 cos(pi k/n) of psi_n and weights a = s_m (2/n) DST-I(w), s_m = sin(m pi k/n)
    (:func:`discrete._secular_weights`).  The residue at nu_k is a_k = D(nu_k) / psi_n'(nu_k),
    gcd(m, n) = 1 keeps every s_m off 0, and DST-I twice is (n/2) I, so w = DST-I(a / s_m)
    (:func:`_read_w`).  With random complex |w| <= 1 the relative error is 4e-13 to 4e-12 at
    l = 64 and up to 8e-9 at l = 1024 (m near l/2) against dense eigvals, nearly all of it their
    own rounding, and up to 9e-11 at l = 1024 on spectra from discrete_spectrum.
    """
    mu = _finite_array(mu, "eigenvalues")
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
    return _read_w(mu, l, m, 1)


def degenerate_mu(l: int, m: int) -> np.ndarray:
    """The potential-independent eigenvalues 2 cos(pi k / d), k = 1..d-1."""
    return psi_zeros(math.gcd(m, l + 1))


def strip_degenerate(mu, l: int, m: int, tol: float = 1e-8) -> np.ndarray:
    """Remove the d-1 degenerate eigenvalues from a full spectrum.

    For each closed-form value the closest entry is dropped; anything farther
    than tol away raises WrongCount (the spectrum cannot belong to (l, m)).
    """
    mu = list(_finite_array(mu, "eigenvalues"))
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
    mu_reduced = _finite_array(mu_reduced, "eigenvalues")
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

    The value at a zero of psi_{l+1} is of modest size, but its partial products
    overflow, in solve_symmetric from m of about 1280.  So the factors are multiplied in
    runs of _RUN, each run's product is split by np.frexp of its modulus into
    a factor in [1/2, 1) and a power of two, and the two parts are combined
    separately.  Rows are built in blocks of at most _BLOCK entries.

    The rescaling is by powers of two, so up to _RUN factors (one run) the
    result has the same bits as the plain product.
    """
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
    """Mid-interval case l = 2m-1: recover w_m and the pair sums s_j = w_j + w_{l+1-j}.

    The read of :func:`solve_nondegenerate` on the zeros of psi_{2m}, where the spectrum is
    mu_odd and the m-1 zeros of psi_m, which do not depend on w: D = prod (nu - mu_i) psi_m.
    s_m vanishes at the even k, the antisymmetric modes of w that no spectrum sees, so the read
    gives the symmetric part (w_j + w_{l+1-j}) / 2, whose middle entry is w_m.  With random
    complex |w| <= 1 the error relative to the largest pair sum is 2e-12, 3e-11 and 4e-10 against
    dense eigvals at m = 128, 512 and 2048, and 3e-14, 3e-13 and 2e-12 on discrete_spectrum's.
    """
    mu_odd = _finite_array(mu_odd, "eigenvalues")
    if len(mu_odd) != m:
        raise WrongCount(f"expected {m} eigenvalues, got {len(mu_odd)}")
    w = _read_w(mu_odd, 2 * m - 1, m, m)
    return complex(w[m - 1]), 2.0 * w[: m - 1]
