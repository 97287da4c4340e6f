"""Tests for the continuous problem: R, Delta, spectrum, benchmark potentials."""

import math
import os
import re
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import frozenarg
from frozenarg import (
    BenchmarkPotential,
    BracketFailure,
    FrozenArgError,
    NoConvergence,
    QuadratureFailure,
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
from frozenarg import continuous
from frozenarg.continuous import _odd_roots

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


def closed_r_quadratic(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    return 2.0 * c - math.pi**2 / (2.0 * rho**2) * c + 4.0 / rho**4 * (1.0 - c)


def closed_r_tent(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    s = np.sin(rho * math.pi / 2)
    return 2.0 * c - math.pi / rho**2 * c + 2.0 / rho**3 * s


def closed_r_constant(rho):
    rho = np.asarray(rho, dtype=complex)
    c = np.cos(rho * math.pi / 2)
    return 2.0 * c + 2.0 / rho**2 * (1.0 - c)


# closed-form R, the oracle for |rho| >= 0.5; below that the closed forms cancel
CLOSED_R = {"quadratic": closed_r_quadratic, "tent": closed_r_tent, "constant": closed_r_constant}


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


def rough_spline():
    """200 random knots on [0, pi] through 1 + cos 2x plus noise of size 0.3."""
    rng = np.random.default_rng(8)
    x = np.sort(np.concatenate([[0.0, math.pi], rng.uniform(0, math.pi, 200)]))
    return x, 1.0 + np.cos(2.0 * x) + 0.3 * rng.standard_normal(x.size)


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
            assert abs(CLOSED_R[name](rho) - r_eval(pot, rho)) <= 1e-8, (name, rho)


def test_small_rho_series_agrees_with_closed_form():
    # R is one Filon sum at every rho, so it meets the closed forms just
    # below and just above rho = 2 alike
    for name, make in NAMED.items():
        pot = make()
        for rho in (2.0 - 1e-3, 2.0 + 1e-3):
            assert abs(r_eval(pot, rho) - CLOSED_R[name](rho)) < 1e-9, (name, rho)


def test_r_at_zero_matches_moment_oracle():
    # R(0) = 2 + int_0^{pi/2} p(t) t dt, scipy.quad as the oracle
    for name, make in NAMED.items():
        pot = make()
        moment = quad(lambda t: float(pot.p(t)) * t, 0, math.pi / 2)[0]
        assert abs(r_eval(pot, 0.0) - (2 + moment)) < 1e-10, name


@pytest.mark.parametrize("qk", [1.0 + np.cos(2.0 * KNOTS), 60.0 * np.sin(KNOTS)], ids=["1+cos2x", "60sinx"])
def test_small_rho_series_matches_knot_aligned_oracle(qk):
    # the knot-aligned grid integrates the spline piece by piece, so R near
    # rho = 0 is exact to rounding
    pot = sampled_potential(KNOTS, qk)
    for rho in (0.0, 0.05):
        assert abs(r_eval(pot, rho) - spline_r_oracle(qk, rho)) <= 1e-12, rho


def closed_r_mp(name, rho, derivative=0):
    """The closed-form R, or a rho-derivative of it, in 60-digit arithmetic, where its cancellation is harmless."""

    def form(r):
        c = mpmath.cos(r * mpmath.pi / 2)
        s = mpmath.sin(r * mpmath.pi / 2)
        forms = {
            "quadratic": 2 * c - mpmath.pi**2 / (2 * r**2) * c + 4 / r**4 * (1 - c),
            "tent": 2 * c - mpmath.pi / r**2 * c + 2 / r**3 * s,
            "constant": 2 * c + 2 / r**2 * (1 - c),
        }
        return forms[name]

    with mpmath.workdps(60):
        return complex(mpmath.diff(form, mpmath.mpmathify(rho), derivative))


@pytest.mark.parametrize("oracle", ["auto", "closed"])
@pytest.mark.parametrize("rho", [0.05 + 0.03j, 1e-6j, 1e-9, 0.3, 1.7, 1.999])
def test_small_rho_matches_quad(rho, oracle):
    # every term of the Filon sum is O(rho), so dividing it by a small rho
    # keeps its digits; the oracle is scipy.quad on the real and imaginary
    # parts ("auto") or the closed form in 60-digit mpmath ("closed")
    for name, make in NAMED.items():
        pot = make()
        if oracle == "closed":
            want = closed_r_mp(name, rho)
        else:

            def kernel(t):
                return pot.p(t) * np.sin(rho * t) / rho

            re = quad(lambda t: kernel(t).real, 0, math.pi / 2, epsabs=1e-15)[0]
            im = quad(lambda t: kernel(t).imag, 0, math.pi / 2, epsabs=1e-15)[0]
            want = 2.0 * np.cos(rho * math.pi / 2) + re + 1j * im
        assert abs(r_eval(pot, rho) - want) <= 1e-13, name


def test_r_complex_argument():
    pot = quadratic_potential()
    for z in (1.3 + 0.4j, 7.3 + 0.4j):
        assert abs(r_eval(pot, z) - CLOSED_R["quadratic"](z)) <= 1e-8, z


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


@pytest.mark.parametrize(
    "evaluate, arg",
    [(r_eval, 1000j), (r_eval, -452j), (delta_eval, -1e6), (delta_eval, -5.2e4)],
    ids=["r", "r_lower", "delta_r", "delta_product"],
)
def test_out_of_double_range_raises(evaluate, arg):
    # R is about 1e682 at rho = 1000i; at lambda = -5.2e4, R is finite but Delta is not
    with pytest.raises(FrozenArgError, match="leaves double range"):
        evaluate(quadratic_potential(), arg)


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


def closed_form_lambda(n):
    """lambda_n of the quadratic potential: brentq on the closed-form R near rho = n."""
    root = brentq(lambda x: float(CLOSED_R["quadratic"](x).real), n - 0.5, n + 0.95, xtol=1e-15, rtol=1e-15)
    return root * root


def test_quadratic_spectrum_at_n_max_10001():
    # the old absolute 1e-12 bisection width never ended once rho passed 4096
    start = time.perf_counter()
    spec = continuous_spectrum(quadratic_potential(), 10001)
    assert time.perf_counter() - start < 10.0
    assert len(spec.odd) == 5001
    got = dict(spec.odd)
    for n in (1, 3, 41, 999, 4097, 8193, 9999, 10001):
        assert abs(got[n] / closed_form_lambda(n) - 1) <= 1e-12, n


def test_spline_spectrum_at_n_max_1999_matches_closed_form():
    # the not-a-knot spline through x(pi-x) is the quadratic itself
    pot = sampled_potential(KNOTS, KNOTS * (math.pi - KNOTS))
    got = dict(continuous_spectrum(pot, 1999).odd)
    assert len(got) == 1000
    for n in (1, 3, 5, 99, 555, 1001, 1997, 1999):
        assert abs(got[n] / closed_form_lambda(n) - 1) <= 1e-10, n


@pytest.mark.parametrize("qk", [1.0 + np.cos(2.0 * KNOTS), 60.0 * np.sin(KNOTS)], ids=["1+cos2x", "60sinx"])
def test_exact_r_matches_knot_aligned_oracle(qk):
    # R is the Filon sum over the spline's cubic pieces
    pot = sampled_potential(KNOTS, qk)
    for rho in (2.0, 3.3, 17.9, 151.2):
        assert abs(r_eval(pot, rho) - spline_r_oracle(qk, rho)) <= 1e-12, rho


def test_exact_r_on_a_rough_spline():
    # 200 random knots through noisy data: the third derivative of p reaches
    # about 1e10, so an integration by parts over the knots would cancel its
    # digits away; the Legendre-moment form keeps them.  Oracle: QUADPACK on
    # each piece.
    x, qk = rough_spline()
    spline = CubicSpline(x, qk)
    pot = sampled_potential(x, qk)
    edges = np.unique(np.clip(np.concatenate([[0.0, math.pi / 2], x, math.pi - x]), 0, math.pi / 2))

    def p(t):
        return float(spline(t) + spline(math.pi - t))

    for rho in (2.0, 7.7, 40.1):
        pieces = zip(edges[:-1], edges[1:])
        integral = sum(quad(p, a, b, weight="sin", wvar=rho, epsabs=1e-15)[0] for a, b in pieces)
        assert abs(r_eval(pot, rho) - (2.0 * math.cos(rho * math.pi / 2) + integral / rho)) <= 1e-12, rho


def test_root_iteration_cap_raises():
    # R turning NaN inside the brackets can never settle; the sweep cap ends the loop
    calls = []

    def r(x):
        calls.append(x)
        return np.cos(x * math.pi / 2) if len(calls) == 1 else np.full_like(x, np.nan)

    with pytest.raises(NoConvergence):
        _odd_roots(r, 3, 6.0)


def test_newton_safeguard_on_a_steep_step():
    # inverse interpolation and Newton both overshoot on a near-step, so the
    # iteration leans on the midpoints of the shrinking bracket
    root = _odd_roots(lambda x: np.tanh(40.0 * (x - 1.234)), 1, 3.0)
    assert abs(root[0] - 1.234) <= 1e-14


@pytest.mark.parametrize("rho", [0.3, 1.9, 2.0, 7.3, 151.2])
@pytest.mark.parametrize("name", list(NAMED))
def test_complex_step_derivative_matches_closed_form(name, rho):
    # R(x + i s) = R(x) + i s R'(x) to rounding: R is analytic in rho, and
    # s = 1e-30 leaves no truncation error
    got = r_eval(NAMED[name](), complex(rho, 1e-30)).imag / 1e-30
    assert abs(got - closed_r_mp(name, rho, derivative=1).real) <= 1e-12


SPECTRUM_CASES = {
    "0.85x(pi-x)": lambda: sampled_potential(KNOTS, 0.85 * KNOTS * (math.pi - KNOTS)),
    "1.25x(pi-x)": lambda: sampled_potential(KNOTS, 1.25 * KNOTS * (math.pi - KNOTS)),
    "1+cos2x": lambda: sampled_potential(KNOTS, 1.0 + np.cos(2.0 * KNOTS)),
    **NAMED,
}


@pytest.mark.parametrize("name", list(SPECTRUM_CASES))
def test_spectrum_takes_at_most_five_r_evaluations(name, monkeypatch):
    # the scan and at most four Newton sweeps
    r, calls = continuous._r, []

    def counted(grid, rho):
        calls.append(rho.size)
        return r(grid, rho)

    monkeypatch.setattr(continuous, "_r", counted)
    for n_max in (9, 19, 39, 511, 1999):
        calls.clear()
        continuous_spectrum(SPECTRUM_CASES[name](), n_max)
        assert len(calls) <= 5, (n_max, calls)


@pytest.mark.parametrize("knots", ["41", "rough200"])
def test_bessel_moments_per_width_match_per_panel(knots):
    # j_k(rho h) is evaluated once per distinct half-width h and gathered to
    # the panels; with one entry per panel instead, R must not move a bit
    x, qk = (KNOTS, 1.0 + np.cos(2.0 * KNOTS)) if knots == "41" else rough_spline()
    mid, widths, which, coeffs = grid = continuous._quadrature_grid(sampled_potential(x, qk))
    per_panel = (mid, widths[which], np.arange(which.size), coeffs)
    for rho in (np.arange(0.1, 80.0, 0.25), np.linspace(2.0, 4000.0, 999) + 1e-30j, np.array([7.3 + 0.4j])):
        assert np.array_equal(continuous._r(grid, rho), continuous._r(per_panel, rho))


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
    # a dense square wave is not cubic on any panel of the grid, so R cannot be exact
    pot = BenchmarkPotential(
        kind="sampled",
        q=lambda x: np.sign(np.sin(997.0 * np.asarray(x))),
        p=lambda t: np.sign(np.sin(997.0 * np.asarray(t))),
    )
    with pytest.raises(QuadratureFailure):
        r_eval(pot, 2.0)


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


@pytest.mark.filterwarnings("error")  # numpy warns on a file without rows unless the reader hushes it
@pytest.mark.parametrize("text, message", [
    ("0.0,1.0\n1.5,abc\n3.0,1.0\n", " is not numeric CSV"),
    ("# x, q\n", ": need matching x and q samples"),
    ("0.0,1.0,2.0\n1.0,2.0,3.0\n", " must have 2 columns"),
], ids=["text", "comment-only", "three-columns"])
def test_potential_from_csv_names_the_file(tmp_path, text, message):
    path = tmp_path / "q.csv"
    path.write_text(text)
    with pytest.raises(WrongCount, match="^" + re.escape(f"potential file {path}{message}")):
        potential_from_csv(path)


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
