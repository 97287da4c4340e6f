"""Tests for the continuous problem: R, Delta, spectrum, benchmark potentials."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import frozenarg
from frozenarg import (
    BracketFailure,
    WrongCount,
    constant_potential,
    continuous_spectrum,
    delta_eval,
    named_potential,
    potential_from_csv,
    quadratic_potential,
    r_eval,
    sampled_potential,
    tent_potential,
    zero_potential,
)

NAMED = {
    "quadratic": quadratic_potential,
    "tent": tent_potential,
    "constant": constant_potential,
}

# benchmark eigenvalues, frozen at the printed 4 decimals
LAMBDA_N = {
    "quadratic": [3.5895, 8.8607, 25.0226, 48.9922, 81.0036],
    "tent": [2.2432, 9.1668, 25.0542, 49.0268, 81.0160],
    "constant": [2.3477, 8.4962, 25.2631, 48.8138, 81.1431],
}


KNOTS = np.linspace(0, math.pi, 41)
FOLDED_KNOTS = np.unique(np.minimum(KNOTS, math.pi - KNOTS))


def loglog_slope(xs, ys):
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    a = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(a, y, rcond=None)[0][0])


def spline_r_oracle(qk, rho, edges=FOLDED_KNOTS):
    """R(rho) for the spline through (KNOTS, qk): scipy.quad on each interval between edges."""
    spline = CubicSpline(KNOTS, qk)

    def p(t):
        return float(spline(t) + spline(math.pi - t))

    pieces = zip(edges[:-1], edges[1:])
    if rho == 0:
        integral = sum(quad(lambda t: p(t) * t, a, b, epsabs=1e-15)[0] for a, b in pieces)
    else:
        integral = sum(quad(p, a, b, weight="sin", wvar=rho, epsabs=1e-15)[0] for a, b in pieces) / rho
    return 2.0 * math.cos(rho * math.pi / 2) + integral


def spline_odd_lambdas(family, a, count):
    """Knot values and the squares of the first count zeros of the oracle R for a * family.

    Sign changes on a half-unit rho grid bracket the zeros, brentq refines
    them.  The x(pi-x) spline is the quadratic itself, so one QUADPACK sine
    integral over [0, pi/2] is exact there and far cheaper than one per knot
    interval; 1+cos 2x needs the knots as breakpoints.
    """
    if family == "x(pi-x)":
        qk, edges = a * KNOTS * (math.pi - KNOTS), np.array([0.0, math.pi / 2])
    else:
        qk, edges = a * (1.0 + np.cos(2.0 * KNOTS)), FOLDED_KNOTS

    def r(rho):
        return spline_r_oracle(qk, rho, edges)

    scan = np.arange(0.25, 2 * count + 0.5, 0.5)
    vals = [r(x) for x in scan]
    roots = [
        brentq(r, lo, hi, xtol=1e-14, rtol=1e-15)
        for lo, hi, f_lo, f_hi in zip(scan[:-1], scan[1:], vals[:-1], vals[1:])
        if f_lo * f_hi < 0
    ]
    assert len(roots) == count
    return qk, np.asarray(roots) ** 2


# ---------------------------------------------------------------------------
# r_eval
# ---------------------------------------------------------------------------

def test_r_constant_at_rho_2():
    # 2 cos(pi) + (2/4)(1 - cos(pi)) = -1
    assert abs(r_eval(constant_potential(), 2.0) - (-1.0)) < 1e-12


def test_r_zero_potential():
    pot = zero_potential()
    for rho in (1.0, 3.0, 7.0):
        assert abs(r_eval(pot, rho)) < 1e-12  # zeros at every odd integer
    assert abs(r_eval(pot, 2.0) - 2 * math.cos(math.pi)) < 1e-12


def test_r_quadratic_near_first_root():
    assert abs(r_eval(quadratic_potential(), 1.8946)) <= 1e-3


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(30)
    for name, make in NAMED.items():
        pot = make()
        for rho in rng.uniform(0.5, 20.0, 20):
            closed = r_eval(pot, rho, method="closed")
            integral = r_eval(pot, rho, method="quadrature")
            assert abs(closed - integral) <= 1e-8, (name, rho)


def test_small_rho_series_agrees_with_closed_form():
    # across the |rho| = 0.1 switch from the knot-aligned grid to the closed
    # form the two routes must join smoothly; the reference is the quadrature
    # route, immune to the closed-form cancellation
    for name, make in NAMED.items():
        pot = make()
        lo = r_eval(pot, 0.09)
        hi = r_eval(pot, 0.11)
        ref_lo = r_eval(pot, 0.09, method="quadrature")
        ref_hi = r_eval(pot, 0.11, method="quadrature")
        assert abs(lo - ref_lo) < 1e-9, name
        assert abs(hi - ref_hi) < 1e-9, name


def test_r_at_zero_matches_moment_oracle():
    # R(0) = 2 + int_0^{pi/2} p(t) t dt, scipy.quad as the oracle
    for name, make in NAMED.items():
        pot = make()
        moment = quad(lambda t: float(pot.p(t)) * t, 0, math.pi / 2)[0]
        assert abs(r_eval(pot, 0.0) - (2 + moment)) < 1e-10, name


@pytest.mark.parametrize("qk", [1.0 + np.cos(2.0 * KNOTS), 60.0 * np.sin(KNOTS)], ids=["1+cos2x", "60sinx"])
def test_small_rho_series_matches_knot_aligned_oracle(qk):
    # the knot-aligned grid integrates the spline piece by piece, so R below
    # |rho| = 0.1 is as accurate as the quadrature route above it
    pot = sampled_potential(KNOTS, qk)
    for rho in (0.0, 0.05):
        assert abs(r_eval(pot, rho) - spline_r_oracle(qk, rho)) <= 1e-12, rho


@pytest.mark.parametrize("method", ["auto", "closed"])
@pytest.mark.parametrize("rho", [0.05 + 0.03j, 1e-6j, 1e-9])
def test_small_rho_matches_quad(rho, method):
    # below |rho| = 0.1 every method takes the grid, where sin(rho t)/rho
    # does not cancel; scipy.quad on the real and imaginary parts is the oracle
    for name, make in NAMED.items():
        pot = make()

        def kernel(t):
            return pot.p(t) * np.sin(rho * t) / rho

        re = quad(lambda t: kernel(t).real, 0, math.pi / 2, epsabs=1e-15)[0]
        im = quad(lambda t: kernel(t).imag, 0, math.pi / 2, epsabs=1e-15)[0]
        want = 2.0 * np.cos(rho * math.pi / 2) + re + 1j * im
        assert abs(r_eval(pot, rho, method=method) - want) <= 1e-13, name


def test_closed_method_without_closed_form_raises():
    pot = sampled_potential(KNOTS, 1.0 + np.cos(2.0 * KNOTS))
    for rho in (0.0, 0.05, 2.0):
        with pytest.raises(WrongCount):
            r_eval(pot, rho, method="closed")


def test_r_complex_argument():
    pot = quadratic_potential()
    z = 1.3 + 0.4j
    closed = r_eval(pot, z, method="closed")
    integral = r_eval(pot, z, method="quadrature")
    assert abs(closed - integral) <= 1e-8


# ---------------------------------------------------------------------------
# delta_eval
# ---------------------------------------------------------------------------

def test_delta_zero_potential_eigenvalues():
    pot = zero_potential()
    assert abs(delta_eval(pot, 4.0)) < 1e-12   # degenerate eigenvalue
    assert abs(delta_eval(pot, 1.0)) < 1e-12   # odd eigenvalue


def test_delta_constant_near_table_value():
    assert abs(delta_eval(constant_potential(), 2.3477)) <= 1e-3


def test_delta_branch_independence():
    # Delta is even in rho; evaluating at conjugate lambda mirrors the value
    pot = quadratic_potential()
    lam = 2.0 + 0.7j
    a = delta_eval(pot, lam)
    b = delta_eval(pot, np.conj(lam))
    assert abs(a - np.conj(b)) < 1e-10


def test_delta_at_zero_is_limit():
    pot = constant_potential()
    lim = delta_eval(pot, 0.0)
    near = delta_eval(pot, 1e-8)
    assert abs(lim - near) < 1e-6
    assert abs(lim - math.pi / 2 * r_eval(pot, 0.0)) < 1e-12


# ---------------------------------------------------------------------------
# continuous_spectrum
# ---------------------------------------------------------------------------

def test_spectrum_zero_potential():
    spec = continuous_spectrum(zero_potential(), 10)
    for n, lam in spec.odd:
        assert abs(lam - n * n) <= 1e-10
    for n, lam in spec.even:
        assert lam == float(n * n)


def test_spectrum_benchmark_tables():
    for name, values in LAMBDA_N.items():
        spec = continuous_spectrum(NAMED[name](), 9)
        got = spec.odd_lambdas
        assert np.max(np.abs(got - values)) <= 2e-3, name


def test_spectrum_residuals_small():
    spec = continuous_spectrum(quadratic_potential(), 9)
    pot = quadratic_potential()
    for _, lam in spec.odd:
        assert abs(r_eval(pot, math.sqrt(lam))) <= 1e-10


def test_spectrum_bad_nmax():
    with pytest.raises(WrongCount):
        continuous_spectrum(zero_potential(), 0)


def test_bracket_failure_raises():
    # a potential strong enough to push rho_1 outside even the widened bracket
    xs = np.linspace(0, math.pi, 41)
    pot = sampled_potential(xs, 60.0 * np.sin(xs))
    with pytest.raises(BracketFailure):
        continuous_spectrum(pot, 1)


@pytest.mark.parametrize(
    "family, n_max", [("x(pi-x)", 9), ("x(pi-x)", 39), ("x(pi-x)", 199), ("1+cos2x", 9), ("1+cos2x", 39)]
)
def test_spline_spectrum_matches_quadpack_oracle(family, n_max):
    qk, want = spline_odd_lambdas(family, 1.0, (n_max + 1) // 2)
    got = continuous_spectrum(sampled_potential(KNOTS, qk), n_max).odd_lambdas
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_steep_spline_first_root_past_unit_bracket():
    # 1.25 x(pi-x) puts rho_1 near 2.06, beyond the old [0.1, 1.9] bracket
    qk, want = spline_odd_lambdas("x(pi-x)", 1.25, 5)
    got = continuous_spectrum(sampled_potential(KNOTS, qk), 9).odd_lambdas
    assert math.sqrt(got[0]) > 2.0
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_negative_first_eigenvalue_is_a_count_mismatch():
    # -2 x(pi-x) makes lambda_1 < 0: R has one sign change fewer than requested
    pot = sampled_potential(KNOTS, -2.0 * KNOTS * (math.pi - KNOTS))
    with pytest.raises(BracketFailure) as info:
        continuous_spectrum(pot, 9)
    assert (info.value.found, info.value.needed) == (4, 5)


def test_spline_spectrum_samples_p_at_most_four_times():
    pot = sampled_potential(KNOTS, KNOTS * (math.pi - KNOTS))
    p, calls = pot.p, []

    def counted(t):
        calls.append(t)
        return p(t)

    pot.p = counted
    continuous_spectrum(pot, 39)
    assert 1 <= len(calls) <= 4


# ---------------------------------------------------------------------------
# benchmark potential plumbing
# ---------------------------------------------------------------------------

def test_quadrature_failure_on_unresolvable_integrand():
    from frozenarg import BenchmarkPotential, QuadratureFailure

    # a dense square wave: each panel refinement keeps shifting the estimate
    # by O(h), so the 1e-10 halving criterion can never be met
    pot = BenchmarkPotential(
        kind="sampled",
        q=lambda x: np.sign(np.sin(997.0 * np.asarray(x))),
        p=lambda t: np.sign(np.sin(997.0 * np.asarray(t))),
    )
    with pytest.raises(QuadratureFailure):
        r_eval(pot, 2.0, method="quadrature")


def test_named_potential_dispatch():
    assert named_potential("tent").kind == "tent"
    with pytest.raises(WrongCount):
        named_potential("cubic")


def test_fold_consistency():
    rng = np.random.default_rng(31)
    for make in (quadratic_potential, tent_potential, constant_potential):
        pot = make()
        for t in rng.uniform(0, math.pi / 2, 20):
            assert abs(pot.p(t) - (pot.q(t) + pot.q(math.pi - t))) < 1e-12


def test_sampled_potential_csv_roundtrip(tmp_path):
    xs = np.linspace(0, math.pi, 60)
    qs = xs * (math.pi - xs)
    path = tmp_path / "quad.csv"
    np.savetxt(path, np.column_stack([xs, qs]), delimiter=",")
    pot = potential_from_csv(path)
    assert pot.kind == "sampled"
    t = np.linspace(0.05, math.pi - 0.05, 25)
    assert np.max(np.abs(pot.q(t) - t * (math.pi - t))) < 1e-6
    # spline-backed spectrum close to the closed-form one
    spec = continuous_spectrum(pot, 5)
    ref = continuous_spectrum(quadratic_potential(), 5)
    assert np.max(np.abs(spec.odd_lambdas - ref.odd_lambdas)) < 1e-4


def test_sampled_potential_validation():
    with pytest.raises(WrongCount):
        sampled_potential([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(WrongCount):
        sampled_potential([0.0, 4.0], [1.0, 1.0])


@pytest.mark.parametrize("x, q", [([0.0, 1.0, 2.0], [1.0, np.nan, 3.0]), ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0])])
def test_sampled_potential_rejects_non_finite(x, q):
    with pytest.raises(WrongCount):
        sampled_potential(x, q)


def test_import_leaves_scipy_unloaded():
    # scipy.interpolate is imported by sampled_potential alone; it dominates CLI start-up
    src = os.path.dirname(os.path.dirname(frozenarg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, frozenarg; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# asymptotic rates
# ---------------------------------------------------------------------------

def test_eigenvalue_residual_decay_quadratic():
    # lambda_n - n^2 - (2 sin(n pi/2)/pi) I_n with I_n from scipy.quad;
    # the log-log slope across odd n <= 41 must be at most -0.8
    pot = quadratic_potential()
    spec = continuous_spectrum(pot, 41)
    ns, rs = [], []
    for n, lam in spec.odd:
        integral = quad(lambda t: float(pot.p(t)) * math.sin(n * t), 0, math.pi / 2, limit=200)[0]
        r = abs(lam - n * n - (2 * math.sin(n * math.pi / 2) / math.pi) * integral)
        ns.append(n)
        rs.append(r)
    assert loglog_slope(ns, rs) <= -0.8


def test_tent_eigenvalue_decay_rate():
    # |lambda_n - n^2| = O(n^-2) for the tent potential (p in W_1^2, p(0) = 0)
    spec = continuous_spectrum(tent_potential(), 41)
    ns = [n for n, _ in spec.odd]
    rs = [abs(lam - n * n) for n, lam in spec.odd]
    assert loglog_slope(ns, rs) <= -1.6
