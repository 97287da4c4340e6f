"""Reference results the benchmark checks frozenarg against.

Nothing here calls into frozenarg.  Discrete spectra come from dense LAPACK
eigenvalues of the explicit matrix, continuous eigenvalues from QUADPACK's
oscillatory sine rule plus Brent root finding, and the closed-form potentials'
tables are the printed four-decimal reference values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, linear_sum_assignment

# Reference tables at m = 5 (l = 9), as printed to four decimals.
TABLES = {
    "quadratic": {
        "lambda_n": [3.5895, 8.8607, 25.0226, 48.9922, 81.0036],
        "lambda_nl": [3.5867, 8.2083, 20.2868, 32.1684, 39.5384],
        "lambda_tilde_nl": [3.5813, 8.2139, 20.2869, 32.1674, 39.5403],
        "q_tilde": [0.8857, 1.5719, 2.0705, 2.3665, 2.4686],
    },
    "tent": {
        "lambda_n": [2.2432, 9.1668, 25.0542, 49.0268, 81.0160],
        "lambda_nl": [2.2375, 8.5351, 20.3321, 32.2168, 39.5705],
        "lambda_tilde_nl": [2.2350, 8.5200, 20.3184, 32.2021, 39.5527],
        "q_tilde": [0.3159, 0.6330, 0.9441, 1.2665, 1.5070],
    },
    "constant": {
        "lambda_n": [2.3477, 8.4962, 25.2631, 48.8138, 81.1431],
        "lambda_nl": [2.3303, 7.8801, 20.4725, 32.0695, 39.5689],
        "lambda_tilde_nl": [2.3395, 7.8494, 20.5274, 31.9890, 39.6797],
        "q_tilde": [1.1752, 0.8892, 1.0747, 0.9328, 1.0639],
    },
}

# Closed-form potentials q on [0, pi], written out independently of frozenarg.
NAMED_Q = {
    "zero": lambda x: 0.0 * x,
    "quadratic": lambda x: x * (math.pi - x),
    "tent": lambda x: math.pi / 2 - np.abs(math.pi / 2 - x),
    "constant": lambda x: 1.0 + 0.0 * x,
}


class OracleError(Exception):
    """A reference computation could not produce a trustworthy answer."""


def grid(l: int) -> np.ndarray:
    """Interior points x_j = j pi/(l+1), j = 1..l."""
    return math.pi / (l + 1) * np.arange(1, l + 1)


def frozen_matrix(w, m: int) -> np.ndarray:
    """The explicit matrix T - w e_m^T whose eigenvalues are the discrete spectrum mu."""
    w = np.asarray(w, dtype=complex)
    l = len(w)
    a = np.zeros((l, l), dtype=complex)
    i = np.arange(l - 1)
    a[i, i + 1] = 1.0
    a[i + 1, i] = 1.0
    a[:, m - 1] -= w
    return a


def dense_mu(w, m: int) -> np.ndarray:
    return np.linalg.eigvals(frozen_matrix(w, m))


def free_lambdas(l: int) -> np.ndarray:
    """Zero-potential eigenvalues 4 sin^2(n h/2)/h^2, n = 1..l."""
    h = math.pi / (l + 1)
    return 4.0 * np.sin(np.arange(1, l + 1) * h / 2.0) ** 2 / h**2


def match_error(got, want) -> float:
    """Worst |got - want| / max(1, |want|) over the cheapest one-to-one pairing."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max(initial=0.0))


def containment_error(subset, values) -> float:
    """Worst distance from an entry of subset to its nearest entry of values, relative to max(1, |entry|)."""
    subset = np.asarray(subset, dtype=complex)
    values = np.asarray(values, dtype=complex)
    dist = np.abs(subset[:, None] - values[None, :]).min(axis=1)
    return float((dist / np.maximum(1.0, np.abs(subset))).max(initial=0.0))


def strip_nearest(mu, targets) -> np.ndarray:
    """Drop the entry of mu nearest to each target (removes the d-1 potential-independent eigenvalues)."""
    mu = list(np.asarray(mu, dtype=complex))
    for t in targets:
        mu.pop(int(np.argmin(np.abs(np.asarray(mu) - t))))
    return np.asarray(mu)


def r_value(p, rho: float) -> float:
    """R(rho) = 2 cos(rho pi/2) + (1/rho) int_0^{pi/2} p(t) sin(rho t) dt (QUADPACK QAWO)."""
    integral, _ = quad(p, 0.0, math.pi / 2, weight="sin", wvar=rho, limit=200, epsabs=1e-14)
    return 2.0 * math.cos(rho * math.pi / 2) + integral / rho


def odd_lambdas(q, count: int) -> np.ndarray:
    """Squares of the first `count` positive zeros of R for the folded potential p(t) = q(t) + q(pi - t).

    Sign changes on a half-unit rho grid bracket the zeros; Brent's method
    refines each one.  Zeros of R lie near the odd integers, about two apart,
    so a half-unit grid separates them.
    """
    def p(t):
        return q(t) + q(math.pi - t)

    def f(rho):
        return r_value(p, rho)

    rhos = np.arange(0.25, 2 * count + 0.5, 0.5)
    vals = [f(r) for r in rhos]
    roots = []
    for a, b, fa, fb in zip(rhos[:-1], rhos[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(brentq(f, a, b, xtol=1e-14, rtol=1e-15))
    if len(roots) < count:
        raise OracleError(f"found {len(roots)} zeros of R below rho = {rhos[-1]}, need {count}")
    return np.asarray(roots[:count]) ** 2
