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
update T - w e_m^T off the spectrum at the zeros 2 cos(pi k/(l+1)) of psi_{l+1}
(:func:`chebypoly._read_weights`), and one DST-I runs :func:`chebypoly._secular_weights`
backwards (:func:`chebypoly._w_from_weights`).  The degenerate solver takes its node values on
the zeros of psi_m, but still interpolates them in the monomial basis
(:func:`monomial._solve_degenerate_left`), and checks its result against the weights read off
the spectrum.  No numerical root-finding enters the inversion, so results are deterministic.
Every solver raises BadIndex for a frozen index m outside [1, l].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebypoly import _index, _read_weights, _secular_weights, _w_from_weights, psi_zeros
from .discrete import _check_index, _number, _vector
from .errors import DegenerateConfiguration, InexactDivision, NotDegenerate, SideDataMismatch, WrongCount
from .monomial import _solve_degenerate_left


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
        object.__setattr__(self, "d", _index(self.d, "degenerate d", 2, error=NotDegenerate))
        if self.side not in ("left", "right"):
            raise SideDataMismatch(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "known_w", _vector(self.known_w, None, "known_w"))
        expected = self.d - 1 if self.side == "left" else self.d
        if len(self.known_w) != expected:
            raise SideDataMismatch(
                f"side={self.side} with d={self.d} needs {expected} known values, "
                f"got {len(self.known_w)}"
            )


def solve_nondegenerate(mu, m: int, l: int | None = None) -> np.ndarray:
    """Recover all w_j from the full spectrum when gcd(m, l+1) = 1.

    T - w e_m^T is a rank-one update of T (Bunch, Nielsen and Sorensen 1978), so
    D(nu) = prod (nu - mu_i) = psi_n(nu) (1 + sum_k a_k / (nu - nu_k)), n = l+1, with poles at the
    zeros nu_k = 2 cos(pi k/n) of psi_n and weights a = s_m (2/n) DST-I(w), s_m = sin(m pi k/n)
    (:func:`chebypoly._secular_weights`).  The residue at nu_k is a_k = D(nu_k) / psi_n'(nu_k),
    gcd(m, n) = 1 keeps every s_m off 0, and DST-I twice is (n/2) I, so w = DST-I(a / s_m)
    (:func:`chebypoly._read_weights`, :func:`chebypoly._w_from_weights`).  With random complex |w| <= 1 the relative error is 4e-13 to 4e-12 at
    l = 64 and up to 8e-9 at l = 1024 (m near l/2) against dense eigvals, nearly all of it their
    own rounding, and up to 9e-11 at l = 1024 on spectra from discrete_spectrum.
    """
    mu = _vector(mu, None if l is None else _index(l, "grid size l"), "eigenvalues")
    l = _index(len(mu), "eigenvalue count l")
    m = _check_index(m, l)
    if math.gcd(m, l + 1) != 1:
        raise DegenerateConfiguration(
            f"gcd(m, l+1) = {math.gcd(m, l + 1)} > 1: use solve_degenerate"
        )
    return _w_from_weights(_read_weights(mu, l, m, 1), m)


def degenerate_mu(l: int, m: int) -> np.ndarray:
    """The potential-independent eigenvalues 2 cos(pi k / d), k = 1..d-1, d = gcd(m, l+1)."""
    l = _index(l, "grid size l")
    m = _check_index(m, l)
    return psi_zeros(math.gcd(m, l + 1))


def strip_degenerate(mu, l: int, m: int, tol: float = 1e-8) -> np.ndarray:
    """Remove the d-1 degenerate eigenvalues from a full spectrum.

    For each closed-form value the closest entry still kept is dropped (the first on a tie);
    anything farther than tol away raises WrongCount (the spectrum cannot belong to (l, m)), as
    does a tol that is not one finite real number.  One masked argmin over the spectrum per value:
    O(l d), in numpy.
    """
    l = _index(l, "grid size l")
    m = _check_index(m, l)
    mu = _vector(mu, l, "eigenvalues")
    tol = _number(tol, "tol", real=True)
    keep = np.ones(l, dtype=bool)
    for target in degenerate_mu(l, m):
        dist = np.abs(mu - target)
        dist[~keep] = np.inf
        i = dist.argmin()
        if not dist[i] <= tol:
            raise WrongCount(f"no eigenvalue within {tol:g} of the degenerate value {target:.6f}")
        keep[i] = False
    return mu[keep]


def solve_degenerate(mu_reduced, m: int, l: int, data: DegenerateData) -> np.ndarray:
    """Recover w from the reduced spectrum plus one-sided a-priori data.

    side="left" runs :func:`monomial._solve_degenerate_left`; side="right" reflects the grid by
    j -> l+1-j (an exact spectral equivalence that moves the frozen index to
    l+1-m), runs the left algorithm, and reflects back.

    The monomial route loses digits as l grows and may raise InexactDivision (from l = 35 at
    d = m).  Where it returns, the secular weights of its w (:func:`chebypoly._secular_weights`)
    are checked against those read off the reduced spectrum on the zeros of psi_{l+1}
    (:func:`chebypoly._read_weights`, exact to rounding): a misfit above 1e-6 of the largest read
    weight raises InexactDivision.  The route's misfit is absolute, on the scale of the spectrum,
    so weights below 1 count as 1: w = 0, whose weights vanish, is held to the same misfit as
    |w| <= 1.  Random complex |w| <= 1 against dense eigvals, every degenerate (l, m) with l < 60
    and ten seeds: the misfit is 0.02 to 1.6 times the relative error of w, and every w returned
    is within 9.5e-6 of the truth relative to max |w|.
    """
    l = _index(l, "grid size l")
    m = _check_index(m, l)
    d = math.gcd(m, l + 1)
    if d == 1:
        raise NotDegenerate(f"gcd(m, l+1) = 1 for (l, m) = ({l}, {m}): use solve_nondegenerate")
    if data.d != d:
        raise SideDataMismatch(f"data.d = {data.d} but gcd(m, l+1) = {d}")
    mu_reduced = _vector(mu_reduced, l - d + 1, "non-degenerate eigenvalues")
    if data.side == "left":
        w = _solve_degenerate_left(mu_reduced, m, l, data.known_w)
    elif m + d > l:
        raise SideDataMismatch(
            f"side=right needs w_{{m+1}}..w_{{m+d}} inside the grid, but m+d = {m + d} > l = {l}"
        )
    else:  # reflected problem knows w'_{m'-d+1}..w'_{m'-1} = w_{m+d-1}..w_{m+1}
        w = _solve_degenerate_left(mu_reduced, l + 1 - m, l, data.known_w[: d - 1][::-1])[::-1].copy()
    read = _read_weights(mu_reduced, l, m, d)
    misfit = np.abs(_secular_weights(w, m)[1] - read).max()
    if not misfit <= 1e-6 * max(np.abs(read).max(), 1.0):  # also catches a NaN misfit
        raise InexactDivision(f"the secular weights of the result miss those of the spectrum by {misfit:.3e}")
    return w


def solve_symmetric(mu_odd, m: int) -> tuple[complex, np.ndarray]:
    """Mid-interval case l = 2m-1: recover w_m and the pair sums s_j = w_j + w_{l+1-j}.

    The read of :func:`solve_nondegenerate` on the zeros of psi_{2m}, where the spectrum is
    mu_odd and the m-1 zeros of psi_m, which do not depend on w: D = prod (nu - mu_i) psi_m.
    s_m vanishes at the even k, the antisymmetric modes of w that no spectrum sees, so the read
    gives the symmetric part (w_j + w_{l+1-j}) / 2, whose middle entry is w_m.  With random
    complex |w| <= 1 the error relative to the largest pair sum is 2e-12, 3e-11 and 4e-10 against
    dense eigvals at m = 128, 512 and 2048, and 3e-14, 3e-13 and 2e-12 on discrete_spectrum's.
    """
    m = _check_index(m)
    mu_odd = _vector(mu_odd, m, "eigenvalues")
    w = _w_from_weights(_read_weights(mu_odd, 2 * m - 1, m, m), m)
    return complex(w[m - 1]), 2.0 * w[: m - 1]
