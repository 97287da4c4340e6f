"""The psi grid: its zeros, the DST-I on them, the secular transform pair, the Aberth iteration.

The basis polynomials are the monic second-kind-Chebyshev relatives

    psi_0 = 0,  psi_1 = 1,  psi_{n+1}(mu) = mu * psi_n(mu) - psi_{n-1}(mu),

so psi_n(2 cos theta) = sin(n theta) / sin(theta), deg(psi_n) = n - 1, and the
zeros of psi_n are 2 cos(pi k / n), k = 1..n-1.  On those zeros psi coordinates
are one DST-I of the values times sin(theta) (:func:`_dst1`).

The discrete system matrix T - w e_m^T is a rank-one update of T, whose
eigenvalues are the zeros nu_k of psi_{l+1}.  :func:`_secular_weights` maps w
to the weights of its secular equation at those poles, :func:`_w_from_weights`
maps them back, the same DST-I run backwards, and :func:`_read_weights` reads
them off the spectrum.  Polynomials in monomial form live in
:mod:`frozenarg.monomial`.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, _index

_EPS = np.finfo(float).eps
_BLOCK = 1 << 15  # entries per row block of the O(n^2) kernels
_RUN = 64  # factors per partial product: 64 factors of modulus up to 2^15 stay in double range
_MAX_SWEEPS = 500  # Aberth sweeps before NoConvergence


def _block_rows(width: int) -> int:
    """Rows per block of an O(n^2) kernel whose rows hold width entries: about _BLOCK entries a block.

    No result depends on it: every kernel reduces each row on its own.
    """
    return _BLOCK // max(width, 1) + 1


def psi_zeros(n: int) -> np.ndarray:
    """The n-1 zeros 2 cos(pi k / n), k = 1..n-1, in ascending k."""
    n = _index(n, "psi index n")
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


def _secular_weights(w, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Poles nu_k and weights a_k = s_mk (S w)_k of the secular function of T - w e_m^T.

    S is the orthonormal DST-I matrix, s_jk = sqrt(2/(l+1)) sin(jk pi/(l+1)),
    l = len(w); S w comes from one _dst1 of w.
    """
    n = len(w) + 1
    s_m = _psi_sin(m, np.arange(1, n), n)
    return psi_zeros(n), (2.0 / n) * s_m * _dst1(w)


def _w_from_weights(a: np.ndarray, m: int) -> np.ndarray:
    """w = DST-I(a / s_m), undoing a = s_m (2/n) DST-I(w) of the forward map; n = len(a) + 1.

    Where n divides m k, s_m = 0 and the mode of w is one no spectrum sees: it enters as 0.
    """
    n = len(a) + 1
    k = np.arange(1, n)
    return _dst1(np.divide(a, _psi_sin(m, k, n), out=np.zeros(n - 1, dtype=complex), where=m * k % n != 0))


def _read_weights(mu: np.ndarray, l: int, m: int, d: int) -> np.ndarray:
    """Secular weights of T - w e_m^T from its spectrum mu less the d-1 zeros of psi_d, read on the zeros of psi_{l+1}.

    At nu_k = 2 cos(theta_k), theta_k = pi k/n, n = l+1, the weights are a_k = D(nu_k) / psi_n'(nu_k)
    with D = prod (nu - mu_i) psi_d, psi_n'(nu_k) = -n (-1)^k / (2 sin^2 theta_k) and
    psi_d(nu_k) = sin(d theta_k) / sin(theta_k); only those where s_m does not vanish are read,
    the others are 0.  w is _w_from_weights of them.
    """
    n = l + 1
    k = np.arange(1, n)
    k = k[m * k % n != 0]
    a = np.zeros(l, dtype=complex)
    theta = np.pi * k / n
    sign = np.where(k % 2 == 1, 2.0 / n, -2.0 / n)  # -(2/n) (-1)^k
    a[k - 1] = sign * np.sin(theta) * _psi_sin(d, k, n) * _product_at(2.0 * np.cos(theta), mu)
    return a


def _product_at(nu, mu) -> np.ndarray:
    """prod_n (nu_k - mu_n) for every k, without leaving double range on the way.

    The value at a zero of psi_{l+1} is of modest size, but its partial products
    overflow, in solve_symmetric from m of about 1280.  So the factors are multiplied in
    runs of _RUN, each run's product is split by np.frexp of its modulus into
    a factor in [1/2, 1) and a power of two, and the two parts are combined
    separately.  Rows are built in blocks of _block_rows(len(mu)).

    Up to _RUN factors (one run) nothing can leave double range, and the plain
    product is returned.
    """
    starts = np.arange(0, mu.size, _RUN)
    g = np.empty(nu.size, dtype=complex)
    rows = _block_rows(mu.size)
    # one buffer per call, set to nu and then less mu in place: nu[:, None] - mu page-faults
    # a fresh block in on every call
    work = np.empty((min(nu.size, rows), mu.size), dtype=complex)
    for lo in range(0, nu.size, rows):
        diff = work[: min(rows, nu.size - lo)]
        diff[...] = nu[lo : lo + rows, None]
        np.subtract(diff, mu, out=diff)
        if mu.size <= _RUN:
            g[lo : lo + rows] = np.prod(diff, axis=1)
            continue
        runs = np.multiply.reduceat(diff, starts, axis=1)
        _, e = np.frexp(np.abs(runs))
        scaled = np.prod(np.ldexp(runs.real, -e) + 1j * np.ldexp(runs.imag, -e), axis=1)
        e = e.sum(axis=1)
        g[lo : lo + rows] = np.ldexp(scaled.real, e) + 1j * np.ldexp(scaled.imag, e)
    return g


def _aberth(z, ratio) -> np.ndarray:
    """Simultaneous Aberth-Ehrlich iteration on the starting points z (Bini and Fiorentino 2000).

    ``ratio(x) -> (newton, scaled_residual)`` gives the Newton ratio f/f' and
    a residual scaled so that 4 eps is the rounding level of f, for the points
    x; it is called on at most _block_rows(len(z)) points at a time.  Each
    sweep moves every active root by N_i / (1 - N_i sum_{j != i} 1/(z_i - z_j))
    (a zero denominator leaves the Newton ratio N_i), then a root settles
    once its scaled residual is <= 4 eps or its step <= 1e-14 (1 + |z_i|);
    settled roots still enter the others' sums.  Raises NoConvergence on a
    non-finite step or after _MAX_SWEEPS sweeps, with the worst residual.
    Updates z in place and returns it.
    """
    n = len(z)
    block = _block_rows(n)  # about 0.5 MB per matrix at any n
    work = np.empty((min(n, block), n), dtype=complex)  # once per call, not a page-faulting temporary per block
    active = np.arange(n)
    res = np.full(n, np.inf)
    for _ in range(_MAX_SWEEPS):
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
            f"Aberth iteration hit the cap ({_MAX_SWEEPS}); worst scaled residual {res.max():.3e}",
            worst_residual=float(res.max()),
        )
    return z
