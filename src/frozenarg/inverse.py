"""Inverse solvers: recover the coefficients w_j from the discrete spectrum.

Three regimes:

* gcd(m, l+1) = 1: the l eigenvalues determine all w_j uniquely
  (:func:`solve_nondegenerate`).
* gcd(m, l+1) = d > 1: the d-1 eigenvalues mu = 2 cos(pi k / d) are
  potential-independent, and inversion needs a-priori knowledge of the w_j
  on one side of the frozen index (:func:`solve_degenerate`).
* l = 2m-1 (frozen point mid-interval): only w_m and the pair sums
  w_j + w_{l+1-j} are determined (:func:`solve_symmetric`).

The nondegenerate and symmetric solvers read psi coordinates off the values
of prod (nu - mu_n) at the closed-form zeros 2 cos(pi k / n) of psi_n, through
one DST-I (:func:`_grid_coordinates`); the degenerate solver takes its node
values on those zeros the same way, but still interpolates them in the
monomial basis.  No numerical root-finding enters the inversion, so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebypoly import (
    _BLOCK,
    Poly,
    _dst1,
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


def _grid_coordinates(mu: np.ndarray, n: int, j: int | None = None) -> np.ndarray:
    """Psi coordinates c_1..c_{n-1} of prod (nu - mu_i), over psi_j(nu) if j is given, on the zeros of psi_n.

    The values at the zeros nu_k = 2 cos(theta_k), theta_k = pi k/n, fix the
    polynomial of span(psi_1..psi_{n-1}) that takes them, and its coordinates
    are (2/n) DST-I(g(nu_k) sin(theta_k)).  psi_j(nu_k) = sin(j theta_k) /
    sin(theta_k), with j k reduced mod 2n first; it must not vanish, i.e.
    gcd(j, n) = 1.
    """
    k = np.arange(1, n)
    theta = np.pi * k / n
    g = _product_at(psi_zeros(n), mu)
    if j is not None:
        g = g * (np.sin(theta) / np.sin(np.pi * (j * k % (2 * n)) / n))
    return (2.0 / n) * _dst1(g * np.sin(theta))


def solve_nondegenerate(mu, m: int, l: int | None = None) -> np.ndarray:
    """Recover all w_j from the full spectrum when gcd(m, l+1) = 1.

    D = prod (mu - mu_n) = P_0 Q_{l+1} - P_{l+1} Q_0 with P_0 = psi_m and
    P_{l+1} = -psi_{l-m+1}.  w_m = -sum mu_n, the trace of T - w e_m^T.  At
    the zeros of psi_m, Q_0 = D / psi_{l-m+1}, and Q_0 + psi_{m-1} has psi
    coordinates w_1..w_{m-1}.  At the zeros of psi_n, n = l-m+1,
    Q_{l+1} = D / psi_m; there psi_n vanishes (w_m drops out) and
    psi_{n+1} = -psi_{n-1}, so Q_{l+1} - psi_{n+1} = Q_{l+1} + psi_{n-1} has
    coordinates w_l, .., w_{m+1}.  Each side is one :func:`_grid_coordinates`.
    Against dense eigvals with random complex |w| <= 1, the relative error
    is about 1e-12 at l = 64 and at most about 7e-9 at l = 1024.
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
    n = l - m + 1
    w = np.empty(l, dtype=complex)
    w[m - 1] = -mu.sum()
    if m >= 2:
        w[: m - 1] = _grid_coordinates(mu, m, n)
        w[m - 2] += 1.0  # + psi_{m-1}
    if n >= 2:
        w[m:] = _grid_coordinates(mu, n, m)[::-1]
        w[m] += 1.0  # coordinate n-1, w_{m+1}: + psi_{n-1}
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

    def psi(j):  # psi_j(nu_k) = sin(j theta_k) / sin(theta_k), j k reduced mod 2m
        return np.sin(np.pi * (j * k % (2 * m)) / m) / np.sin(np.pi * k / m)

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
    z = _grid_coordinates(mu_odd, m + 1)  # coordinates c_1..c_m
    if m >= 2:
        z[m - 2] += 1.0  # + psi_{m-1}
    wm = complex(z[m - 1])
    return wm, z[: m - 1]
