"""Recover a symmetric potential from finitely many continuous eigenvalues.

Pipeline for a = pi/2, l = 2m-1, q(x) = q(pi - x): map each continuous
eigenvalue to a surrogate discrete one with the correction term

    lambda~_{n,l} = lambda_n - n^2 + 4 sin^2(n h / 2) / h^2,     h = pi / (2m),

convert to mu = 2 - h^2 lambda~, run the symmetric discrete inversion, and
scale the psi coordinates back to potential values.  Also houses the
half-weighted trapezoid sums and the empirical convergence-order harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuous import BenchmarkPotential, continuous_spectrum
from .discrete import Spectrum, _grid, discrete_spectrum, free_lambdas, sample_problem
from .errors import FrozenArgError, WrongCount, _check_index, _index, _indices, _instance, _vector
from .inverse import solve_symmetric


def correction(lambda_n, n, m: int):
    """Surrogate discrete eigenvalue lambda_n - n^2 + 4 sin^2(n h / 2) / h^2, h = pi / (2m).

    Elementwise on arrays of lambda_n and n, which must broadcast, with the free
    term read off :func:`discrete.free_lambdas`; a float for scalar arguments.
    BadIndex unless m is an integer >= 1, WrongCount unless every n is an integer in [1, 2m - 1].
    """
    m, scalar = _check_index(m), np.ndim(lambda_n) == np.ndim(n) == 0
    lam, n = _vector(lambda_n, None, "lambda_n", real=True), np.asarray(n)
    if n.dtype.kind not in "iu":  # not one operator.index per entry: numpy checks the whole array
        raise WrongCount(f"index n={n.tolist()!r} is not an integer")
    try:
        lam, n = np.broadcast_arrays(lam, n)
    except ValueError:
        raise WrongCount(f"{lam.size} lambda_n do not match {n.size} indices n") from None
    outside = (n < 1) | (n > 2 * m - 1)
    if outside.any():  # raises, with the message of every index
        _index(n[outside][0], "index n", 1, 2 * m - 1)
    tilde = _corrected(lam, n, m)
    return float(tilde[0]) if scalar else tilde


def _corrected(lam: np.ndarray, n: np.ndarray, m: int) -> np.ndarray:
    """correction on checked arrays of lambda_n and of integers n in [1, 2m - 1]."""
    return lam - n * n + free_lambdas(2 * m - 1)[n - 1]


@dataclass
class ReconstructionResult:
    """Output of the correction-term reconstruction.

    lambdas holds the given lambda_n, n = 1, 3, .., 2m-1.  q_tilde covers the
    full grid x_1..x_l (l = 2m-1), extended from the first half by the assumed
    symmetry; delta_q is filled by error_report when the true potential is known.
    """

    m: int
    h: float
    lambdas: np.ndarray
    tilde_lambda: np.ndarray
    mu: np.ndarray
    z: np.ndarray
    q_tilde: np.ndarray
    delta_q: np.ndarray | None = None

    @property
    def l(self) -> int:
        return 2 * self.m - 1


def reconstruct(lambdas_odd, m: int) -> ReconstructionResult:
    """Run the correction-term inversion on lambda_n, n = 1, 3, .., 2m-1.

    Shares the symmetric solver code path: the psi coordinates z are exactly
    the solve_symmetric output (pair sums and the middle value), scaled by
    q_j = z_j / (2 h^2) for j < m and q_m = z_m / h^2.
    """
    m = _check_index(m)
    lambdas_odd = _vector(lambdas_odd, m, "odd-index eigenvalues", real=True)
    h = math.pi / (2 * m)
    tilde = _corrected(lambdas_odd, np.arange(1, 2 * m, 2), m)
    mu = 2.0 - h * h * tilde
    wm, s = solve_symmetric(mu, m)
    z = np.append(s, wm)
    residue = np.abs(z.imag).max(initial=0.0)
    if not residue <= 1e-9:  # also catches a NaN residue
        raise FrozenArgError(f"imaginary residue {residue:.3e} of the recovered coordinates exceeds 1e-9")
    q_half = np.append(s.real / 2.0, wm.real) / (h * h)
    q_full = np.concatenate([q_half, q_half[: m - 1][::-1]])  # q_{l+1-j} = q_j
    return ReconstructionResult(m=m, h=h, lambdas=lambdas_odd, tilde_lambda=tilde, mu=mu, z=z, q_tilde=q_full)


def reconstruct_from_potential(pot: BenchmarkPotential, m: int) -> ReconstructionResult:
    """Convenience: continuous eigenvalues of pot -> reconstruct."""
    spec = continuous_spectrum(_instance(pot, BenchmarkPotential, "potential"), 2 * _check_index(m) - 1)
    return reconstruct(spec.odd_lambdas, m)


@dataclass(frozen=True)
class ErrorReport:
    """Side-by-side eigenvalue and potential tables.

    eigen_rows: (n, lambda_n, lambda_nl, lambda_tilde, delta_nl)
    potential_rows: (j, x_j, q_j, q_tilde_j, delta_j), j = 1..m
    """

    eigen_rows: tuple
    potential_rows: tuple

    def format_text(self) -> str:
        """Fixed 4-decimal layout for visual diffing against printed tables."""
        ns = [r[0] for r in self.eigen_rows]
        lines = []
        head = "            " + " ".join(f"lambda_{n:<3d}" for n in ns)
        lines.append(head)
        for label, idx in (
            ("lambda_n   ", 1),
            ("lambda_nl  ", 2),
            ("lambda~_nl ", 3),
            ("delta_nl   ", 4),
        ):
            lines.append(label + " ".join(f"{r[idx]:10.4f}" for r in self.eigen_rows))
        lines.append("            " + " ".join(f"q_{r[0]:<8d}" for r in self.potential_rows))
        lines.append("q~_j       " + " ".join(f"{r[3]:10.4f}" for r in self.potential_rows))
        lines.append("delta_j    " + " ".join(f"{r[4]:10.4f}" for r in self.potential_rows))
        return "\n".join(lines)


def error_report(
    result: ReconstructionResult,
    pot: BenchmarkPotential,
    discrete_oracle: Spectrum | None = None,
) -> ErrorReport:
    """Compare a reconstruction against the true potential and discrete spectrum.

    discrete_oracle may supply the forward spectrum of the sampled potential, all
    l = 2m - 1 eigenvalues of it (WrongCount otherwise); without it the spectrum is
    computed here.  delta_nl = lambda_nl - lambda~_nl and
    delta_j = q(x_j) - q~_j are also written back into result.delta_q.
    """
    m = _instance(result, ReconstructionResult, "result").m
    pot = _instance(pot, BenchmarkPotential, "potential")
    n = np.arange(1, 2 * m, 2)
    if discrete_oracle is None:
        lam_d = _sampled_lambdas(pot, m)
    elif len(_instance(discrete_oracle, Spectrum, "discrete_oracle").lam) != result.l:
        raise WrongCount(f"discrete_oracle holds {len(discrete_oracle.lam)} eigenvalues, expected l = 2m - 1 = {result.l}")
    else:
        lam_d = discrete_oracle.lam.real
    tilde, lam_nl = result.tilde_lambda, lam_d[n - 1]
    eigen_rows = zip(n.tolist(), result.lambdas.tolist(), lam_nl.tolist(), tilde.tolist(), (lam_nl - tilde).tolist())
    xs = _grid(result.l)[:m]
    q_true = np.asarray(pot.q(xs), dtype=float)
    result.delta_q = q_true - result.q_tilde[:m]
    potential_rows = zip(range(1, m + 1), xs.tolist(), q_true.tolist(), result.q_tilde[:m].tolist(),
                         result.delta_q.tolist())
    return ErrorReport(eigen_rows=tuple(eigen_rows), potential_rows=tuple(potential_rows))


def _sampled_lambdas(pot: BenchmarkPotential, m: int) -> np.ndarray:
    """Real parts of the discrete lambda_{n,l}, n = 1..l, of pot sampled on the l = 2m-1 grid."""
    return discrete_spectrum(sample_problem(pot.q(_grid(2 * m - 1)), m)).lam.real


def trapz_prime_sum(p_values, n: int, m: int) -> complex:
    """Half-weighted sum  1/2 p_0 sin(0) + sum_{j=1}^{m-1} p_j sin(n x_j) + 1/2 p_m sin(n x_m).

    p_values are samples at x_j = j h, j = 0..m, h = pi / (2m): the discrete
    counterpart of the sine integral under the trapezoidal rule.
    """
    n, m = _index(n, "index n", -math.inf), _check_index(m)
    p_values = _vector(p_values, m + 1, "samples")
    h = math.pi / (2 * m)
    x = h * np.arange(m + 1)
    weights = np.ones(m + 1)
    weights[0] = weights[-1] = 0.5
    return complex(np.sum(weights * p_values * np.sin(n * x)))


def _loglog_slope(hs, es) -> float | None:
    """Least-squares slope of log(e) against log(h).

    None (meaning: exact, slope undefined) when any value sits at or below the
    round-off floor, as for the zero potential.
    """
    es = np.asarray(es, dtype=float)
    if np.any(es <= 1e-10):
        return None
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(es)
    a = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(a, y, rcond=None)[0][0])


@dataclass(frozen=True)
class ConvergenceStudy:
    """Empirical orders for the correction-term approximation.

    rows: (n, m, h, |lambda_nl - lambda~_nl|) for each requested n;
    slopes[n]: log-log slope of that error against h (None = identically zero,
    i.e. exact).  trapezoid_rows track |sum' p_j sin(n x_j)| at the half ratio
    n/(2m) ~ 1/2; tail_rows track the worst correction error over odd n >= m.
    """

    rows: tuple
    slopes: dict
    trapezoid_rows: tuple
    trapezoid_slope: float | None
    tail_rows: tuple
    tail_slope: float | None


def convergence_study(pot: BenchmarkPotential, ms, ns) -> ConvergenceStudy:
    """Measure correction-error decay across grid refinements.

    The continuous eigenvalues (the zeros of R) are computed once, up to
    n = 2 max(ms) - 1, and for each m the full discrete spectrum of the
    sampled potential; errors e_{n,m} = |lambda_{n,l} - lambda~_{n,l}| are
    tabulated for the requested odd n, for the half-ratio trapezoid sums, and
    for the worst odd n >= m.  A slope needs at least two distinct positive m,
    and each requested n at least two distinct m with n <= 2m - 1;
    WrongCount otherwise.
    """
    pot = _instance(pot, BenchmarkPotential, "potential")
    ms, ns = _indices(ms, "grid size m"), _indices(ns, "index n")
    if any(n % 2 == 0 for n in ns):
        raise WrongCount("ns must be odd positive integers")
    if len(set(ms)) < 2:
        raise WrongCount(f"ms must hold at least two distinct positive grid sizes, got {ms}")
    for n in ns:
        if len({m for m in ms if n <= 2 * m - 1}) < 2:
            raise WrongCount(f"n = {n} needs two distinct grid sizes m with n <= 2m - 1, got {ms}")
    lam_odd = continuous_spectrum(pot, 2 * max(ms) - 1).odd_lambdas
    rows, trapezoid_rows, tail_rows = [], [], []
    for m in ms:
        h = math.pi / (2 * m)
        n = np.arange(1, 2 * m, 2)
        err = np.abs(_sampled_lambdas(pot, m)[n - 1] - correction(lam_odd[:m], n, m))  # odd n = 1..2m-1
        rows += [(k, m, h, float(err[k // 2])) for k in ns if k <= 2 * m - 1]
        n_half = m if m % 2 == 1 else m + 1
        tail_rows.append((m, h, float(err[n_half // 2 :].max(initial=0.0))))
        p_vals = np.asarray(pot.p(h * np.arange(m + 1)), dtype=complex)
        trapezoid_rows.append((m, h, n_half, abs(trapz_prime_sum(p_vals, n_half, m))))

    slopes = {}
    for n in ns:
        sub = [(r[2], r[3]) for r in rows if r[0] == n]
        slopes[n] = _loglog_slope([h for h, _ in sub], [e for _, e in sub])
    trapezoid_slope = _loglog_slope([r[1] for r in trapezoid_rows], [r[3] for r in trapezoid_rows])
    tail_slope = _loglog_slope([r[1] for r in tail_rows], [r[2] for r in tail_rows])
    return ConvergenceStudy(
        rows=tuple(rows),
        slopes=slopes,
        trapezoid_rows=tuple(trapezoid_rows),
        trapezoid_slope=trapezoid_slope,
        tail_rows=tuple(tail_rows),
        tail_slope=tail_slope,
    )
