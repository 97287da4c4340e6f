"""Tests for the correction-term reconstruction pipeline and rate harness."""

import importlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from frozenarg import (
    FrozenArgError,
    WrongCount,
    constant_potential,
    continuous_spectrum,
    convergence_study,
    correction,
    delta_eval,
    discrete_spectrum,
    error_report,
    quadratic_potential,
    r_eval,
    reconstruct,
    reconstruct_from_potential,
    sample_problem,
    solve_symmetric,
    tent_potential,
    trapz_prime_sum,
    zero_potential,
)

# benchmark tables, frozen at the printed 4 decimals
TABLES = {
    "quadratic": {
        "lambda_n": [3.5895, 8.8607, 25.0226, 48.9922, 81.0036],
        "lambda_nl": [3.5867, 8.2083, 20.2868, 32.1684, 39.5384],
        "tilde": [3.5813, 8.2139, 20.2869, 32.1674, 39.5403],
        "delta_nl": [0.0054, -0.0056, -0.0001, 0.0009, -0.0019],
        "q_tilde": [0.8857, 1.5719, 2.0705, 2.3665, 2.4686],
        "delta_q": [0.0025, 0.0072, 0.0021, 0.0022, -0.0012],
    },
    "tent": {
        "lambda_n": [2.2432, 9.1668, 25.0542, 49.0268, 81.0160],
        "lambda_nl": [2.2375, 8.5351, 20.3321, 32.2168, 39.5705],
        "tilde": [2.2350, 8.5200, 20.3184, 32.2021, 39.5527],
        "delta_nl": [0.0024, 0.0152, 0.0137, 0.0148, 0.0178],
        "q_tilde": [0.3159, 0.6330, 0.9441, 1.2665, 1.5070],
        "delta_q": [-0.0017, -0.0047, -0.0016, -0.0099, 0.0638],
    },
    "constant": {
        "lambda_n": [2.3477, 8.4962, 25.2631, 48.8138, 81.1431],
        "lambda_nl": [2.3303, 7.8801, 20.4725, 32.0695, 39.5689],
        "tilde": [2.3395, 7.8494, 20.5274, 31.9890, 39.6797],
        "delta_nl": [-0.0092, 0.0307, -0.0549, 0.0804, -0.1108],
        "q_tilde": [1.1752, 0.8892, 1.0747, 0.9328, 1.0639],
        "delta_q": [-0.1752, 0.1108, -0.0747, 0.0672, -0.0639],
    },
}
MAKERS = {
    "quadratic": quadratic_potential,
    "tent": tent_potential,
    "constant": constant_potential,
}


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------

def test_correction_free_case():
    m = 7
    h = math.pi / (2 * m)
    for n in (1, 5, 13):
        assert abs(correction(float(n * n), n, m) - 4 * math.sin(n * h / 2) ** 2 / h**2) < 1e-12


def test_correction_benchmark_values():
    assert abs(correction(81.0036, 9, 5) - 39.5403) <= 1e-3
    assert abs(correction(3.5895, 1, 5) - 3.5813) <= 1e-3


def test_correction_index_guard():
    with pytest.raises(WrongCount):
        correction(1.0, 10, 5)
    with pytest.raises(WrongCount, match="n=10"):
        correction([1.0, 2.0], [9, 10], 5)


def test_correction_on_arrays_is_the_scalar_call_elementwise():
    m = 16
    rng = np.random.default_rng(5)
    n = np.arange(1, 2 * m)
    lam = n * n + rng.uniform(-1, 1, len(n))
    got = correction(lam, n, m)
    assert isinstance(correction(float(lam[0]), 1, m), float)
    assert np.array_equal(got, [correction(float(x), int(k), m) for x, k in zip(lam, n)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda x: r_eval(quadratic_potential(), x),
    lambda x: r_eval(quadratic_potential(), complex(1.0, x)),
    lambda x: delta_eval(quadratic_potential(), x),
    lambda x: delta_eval(quadratic_potential(), complex(1.0, x)),
    lambda x: correction(x, 3, 5),
    lambda x: reconstruct([1.0, x, 25.0], 3),
], ids=["r_eval", "r_eval-imag", "delta_eval", "delta_eval-imag", "correction", "reconstruct"])
def test_non_finite_arguments_raise(call, bad):
    # no call may answer a non-finite argument with NaN
    with pytest.raises(WrongCount, match="finite"):
        call(bad)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_free_exactness_all_m():
    for m in range(1, 33):
        lams = [float(n * n) for n in range(1, 2 * m, 2)]
        res = reconstruct(lams, m)
        assert np.abs(res.q_tilde).max() <= 1e-10, m


def test_reconstruct_table_rows():
    for name in ("quadratic", "constant"):
        res = reconstruct(TABLES[name]["lambda_n"], 5)
        assert np.max(np.abs(res.q_tilde[:5] - TABLES[name]["q_tilde"])) <= 2e-3, name


def test_reconstruct_result_invariants():
    res = reconstruct(TABLES["quadratic"]["lambda_n"], 5)
    np.testing.assert_allclose(res.mu, 2 - res.h**2 * res.tilde_lambda, atol=1e-14)
    assert res.l == 9
    # symmetric extension
    np.testing.assert_array_equal(res.q_tilde[5:], res.q_tilde[:4][::-1])


def test_reconstruct_shares_code_path_with_solve_symmetric():
    lams = np.array(TABLES["tent"]["lambda_n"])
    res = reconstruct(lams, 5)
    wm, s = solve_symmetric(res.mu, 5)
    assert wm == res.z[-1]
    assert np.array_equal(s, res.z[:-1])


def test_reconstruct_wrong_count():
    with pytest.raises(WrongCount):
        reconstruct([1.0, 9.0], 5)


def test_reconstruct_rejects_imaginary_residue(monkeypatch):
    # real eigenvalues give real coordinates; a complex or NaN one must raise, also under python -O
    for bad in (0.5j, complex(math.nan, math.nan)):
        monkeypatch.setattr(importlib.import_module("frozenarg.reconstruct"), "solve_symmetric",
                            lambda mu, m, bad=bad: (bad, np.zeros(m - 1, dtype=complex)))
        with pytest.raises(FrozenArgError):
            reconstruct([1.0, 9.0, 25.0], 3)


# ---------------------------------------------------------------------------
# error_report
# ---------------------------------------------------------------------------

def test_error_report_quadratic_delta():
    pot = quadratic_potential()
    res = reconstruct_from_potential(pot, 5)
    rep = error_report(res, pot)
    delta_1l = rep.eigen_rows[0][4]
    assert abs(delta_1l - 0.0054) <= 2e-3


def test_error_report_tent_delta5():
    pot = tent_potential()
    res = reconstruct_from_potential(pot, 5)
    rep = error_report(res, pot)
    assert abs(rep.potential_rows[4][4] - 0.0638) <= 2e-3
    assert res.delta_q is not None


def test_error_report_zero_potential():
    pot = zero_potential()
    res = reconstruct_from_potential(pot, 6)
    rep = error_report(res, pot)
    for row in rep.eigen_rows:
        assert abs(row[4]) <= 1e-10
    for row in rep.potential_rows:
        assert abs(row[4]) <= 1e-10


def test_error_report_accepts_oracle(tmp_path):
    from frozenarg import discrete_spectrum, sample_problem

    pot = quadratic_potential()
    res = reconstruct_from_potential(pot, 5)
    xs = res.h * np.arange(1, res.l + 1)
    oracle = discrete_spectrum(sample_problem(pot.q(xs), 5))
    a = error_report(res, pot, discrete_oracle=oracle)
    b = error_report(res, pot)
    assert a.eigen_rows == b.eigen_rows


def test_error_report_text_formatting():
    pot = quadratic_potential()
    rep = error_report(reconstruct_from_potential(pot, 5), pot)
    text = rep.format_text()
    assert "3.5895" in text and "0.8857" in text


# ---------------------------------------------------------------------------
# trapz_prime_sum
# ---------------------------------------------------------------------------

def test_trapz_zero():
    assert trapz_prime_sum(np.zeros(9), 3, 8) == 0


def test_trapz_constant_against_exponential_sum():
    # oracle: imaginary part of the half-weighted geometric sum of exp(i n j h)
    m = 12
    h = math.pi / (2 * m)
    ones = np.ones(m + 1)
    for n in (1, 3, 8, 24, 48):
        terms = np.exp(1j * n * h * np.arange(m + 1))
        terms[0] *= 0.5
        terms[-1] *= 0.5
        oracle = terms.sum().imag
        assert abs(trapz_prime_sum(ones, n, m) - oracle) < 1e-12


def test_trapz_approximates_integral():
    pot = tent_potential()
    m, n = 64, 31
    h = math.pi / (2 * m)
    s = trapz_prime_sum(pot.p(h * np.arange(m + 1)), n, m)
    integral = quad(lambda t: float(pot.p(t)) * math.sin(n * t), 0, math.pi / 2, limit=200)[0]
    assert abs(h * s - integral) <= 0.1 * h


def test_trapz_wrong_count():
    with pytest.raises(WrongCount):
        trapz_prime_sum(np.zeros(5), 1, 8)


# ---------------------------------------------------------------------------
# convergence_study
# ---------------------------------------------------------------------------

def test_study_zero_potential_exact():
    study = convergence_study(zero_potential(), ms=(4, 8), ns=(1, 3))
    assert all(r[3] <= 1e-10 for r in study.rows)
    assert study.slopes[1] is None and study.slopes[3] is None


def test_study_quadratic_second_order():
    study = convergence_study(quadratic_potential(), ms=(5, 10, 20), ns=(1,))
    assert abs(study.slopes[1] - 2.0) <= 0.4


def test_study_tent_tail_rate():
    study = convergence_study(tent_potential(), ms=(5, 10, 20), ns=(1,))
    assert study.tail_slope >= 1.5


def test_study_trapezoid_rate():
    study = convergence_study(tent_potential(), ms=(8, 16, 32, 64), ns=(1,))
    assert study.trapezoid_slope >= 0.8


def test_study_rows_match_a_per_n_loop():
    # brute force: every odd n on its own, with the free term written out
    pot, ms = tent_potential(), (5, 10, 20)
    study = convergence_study(pot, ms=ms, ns=(1, 3, 13))
    lam = dict(continuous_spectrum(pot, 2 * max(ms) - 1).odd)
    rows, tail = [], []
    for m in ms:
        h = math.pi / (2 * m)
        xs = h * np.arange(1, 2 * m)
        lam_d = discrete_spectrum(sample_problem(tent_potential().q(xs), m)).lam.real
        err = {n: abs(lam_d[n - 1] - (lam[n] - n * n + 4 * math.sin(n * h / 2) ** 2 / h**2))
               for n in range(1, 2 * m, 2)}
        rows += [(n, m, h, err[n]) for n in (1, 3, 13) if n <= 2 * m - 1]
        tail.append((m, h, max(e for n, e in err.items() if n >= m)))
    for got, want in ((study.rows, rows), (study.tail_rows, tail)):
        assert [r[:-1] for r in got] == [r[:-1] for r in want]
        np.testing.assert_allclose([r[-1] for r in got], [r[-1] for r in want], rtol=1e-12, atol=0)


def test_study_rejects_even_n():
    with pytest.raises(WrongCount):
        convergence_study(zero_potential(), ms=(4,), ns=(2,))


@pytest.mark.parametrize(
    "ms", [(5,), (5, 5), (), (0, 5), (1, 5)], ids=["one", "repeated", "none", "zero", "n3_on_one_grid"]
)
def test_study_needs_two_distinct_grids(ms):
    # a slope through fewer than two points is a min-norm fit, not an order
    with pytest.raises(WrongCount, match="two distinct"):
        convergence_study(quadratic_potential(), ms=ms, ns=(1, 3))


def test_study_uses_one_continuous_spectrum(monkeypatch):
    # every row reads its lambda_n from one spectrum up to n = 2 max(ms) - 1
    module = importlib.import_module("frozenarg.reconstruct")
    spectrum, calls = module.continuous_spectrum, []

    def counted(pot, n_max):
        calls.append(n_max)
        return spectrum(pot, n_max)

    monkeypatch.setattr(module, "continuous_spectrum", counted)
    convergence_study(quadratic_potential(), ms=(5, 10, 20), ns=(1, 3))
    assert calls == [39]


def test_monotone_improvement():
    for make in (quadratic_potential, tent_potential):
        pot = make()
        errs = {}
        for m in (5, 20):
            res = reconstruct_from_potential(pot, m)
            error_report(res, pot)
            errs[m] = np.abs(res.delta_q).max()
        assert errs[20] < errs[5]


@pytest.mark.parametrize("m, bound", [(1024, 2.3e-7), (2048, 1e-6)])
def test_quadratic_reconstruction_at_large_m(m, bound):
    # at m = 2048 the partial products of prod (nu - mu) leave double range,
    # and q~ = z / (2 h^2) magnifies the rounding of lambda_n near n = 4095
    # so much that lambda must be good to an ulp or two
    pot = quadratic_potential()
    res = reconstruct_from_potential(pot, m)
    x = res.h * np.arange(1, res.l + 1)
    assert np.max(np.abs(res.q_tilde - pot.q(x))) <= bound
