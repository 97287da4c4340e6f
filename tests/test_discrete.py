"""Tests for the discrete frozen-argument system."""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from frozenarg import (
    BadIndex,
    DiscreteProblem,
    FrozenArgError,
    NoConvergence,
    WrongCount,
    char_poly,
    d_eval,
    discrete_spectrum,
    free_lambdas,
    pq_polynomials,
    psi_eval,
    psi_poly,
    sample_problem,
)
from frozenarg import discrete


def rand_w(rng, l):
    w = rng.uniform(-1, 1, l) + 1j * rng.uniform(-1, 1, l)
    return w / np.maximum(1.0, np.abs(w))


def recurrence_oracle(l, m, w, mu):
    """Independent solver of the three-term system with the anchored starts.

    Returns (P_0, P_{l+1}, Q_0, Q_{l+1}) at a single mu by filling the whole
    arrays index by index, nothing shared with the library's sweep.
    """
    def fill(v_m1, v_m, at_m):
        v = [None] * (l + 2)
        v[m - 1], v[m] = v_m1, v_m
        for j in range(m, l + 1):  # upward, equation at j
            v[j + 1] = mu * v[j] - v[j - 1] + w[j - 1] * at_m
        for j in range(m - 1, 0, -1):  # downward
            v[j - 1] = mu * v[j] - v[j + 1] + w[j - 1] * at_m
        return v

    p = fill(1.0, 0.0, 0.0)
    q = fill(0.0, 1.0, 1.0)
    return p[0], p[l + 1], q[0], q[l + 1]


def dense_mu(w, m):
    """Eigenvalues of the explicit matrix T - w e_m^T by dense numpy.linalg.eigvals."""
    l = len(w)
    a = (np.eye(l, k=1) + np.eye(l, k=-1)).astype(np.result_type(w, float))
    a[:, m - 1] -= w
    return np.linalg.eigvals(a)


def match_error(got, want):
    """Worst |got - want| / max(1, |want|) over the cheapest one-to-one pairing."""
    cost = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def eval_series(series, mu):
    return sum(series.coeffs[j - 1] * psi_eval(j, mu) for j in range(1, series.n + 1))


# ---------------------------------------------------------------------------
# sample_problem
# ---------------------------------------------------------------------------

def test_sample_problem_zero_potential():
    p = sample_problem(np.zeros(7), 3)
    assert np.all(p.w == 0)
    assert abs(p.h * (p.l + 1) - math.pi) < 1e-15


def test_problem_step_follows_from_l():
    # h follows from l: a caller-set h would rescale lambda with no error
    for extra in ({"h": 1.0}, {"q": [1.0] * 9}):
        with pytest.raises(TypeError):
            DiscreteProblem(l=9, m=5, w=[0.1] * 9, **extra)
    p = DiscreteProblem(l=9, m=5, w=[0.1] * 9)
    assert p.h == math.pi / 10
    assert abs(discrete_spectrum(p).lam[0] - 2.3493) < 1e-4


def test_sample_problem_quadratic_grid_value():
    h = math.pi / 10
    xs = h * np.arange(1, 10)
    p = sample_problem(xs * (math.pi - xs), 5)
    x1 = math.pi / 10
    assert abs(x1 * (math.pi - x1) - 0.8883) < 1e-4
    assert abs(p.w[0] - h * h * x1 * (math.pi - x1)) < 1e-15


def test_sample_problem_single_point():
    c = 0.3 - 0.2j
    p = sample_problem([c], 1)
    assert abs(p.w[0] - (math.pi / 2) ** 2 * c) < 1e-15


def test_sample_problem_bad_index():
    with pytest.raises(BadIndex):
        sample_problem(np.zeros(4), 5)
    with pytest.raises(BadIndex):
        sample_problem(np.zeros(4), 0)


# ---------------------------------------------------------------------------
# pq_polynomials
# ---------------------------------------------------------------------------

def test_pq_zero_potential_forms():
    p = DiscreteProblem.from_w(np.zeros(6), 4)
    polys = pq_polynomials(p)
    # Q_0 = -psi_{m-1}, Q_{l+1} = psi_{l-m+2}
    np.testing.assert_array_equal(polys.q0.coeffs, [0, 0, -1])
    np.testing.assert_array_equal(polys.ql1.coeffs, [0, 0, 0, 1])
    np.testing.assert_array_equal(polys.p0.coeffs, [0, 0, 0, 1])   # psi_4
    np.testing.assert_array_equal(polys.pl1.coeffs, [0, 0, -1])    # -psi_3


def test_pq_explicit_l4_m2():
    w = np.array([0.4, 0.1, -0.7, 0.9], dtype=complex)
    polys = pq_polynomials(DiscreteProblem.from_w(w, 2))
    # Q_{l+1} = psi_4 + w_4 psi_1 + w_3 psi_2 + w_2 psi_3
    np.testing.assert_allclose(polys.ql1.coeffs, [w[3], w[2], w[1], 1.0])
    # Q_0 = -psi_1 + w_1 psi_1
    np.testing.assert_allclose(polys.q0.coeffs, [w[0] - 1.0])


def test_pq_matches_recurrence_oracle():
    rng = np.random.default_rng(10)
    for l, m in ((5, 2), (9, 5), (12, 7), (16, 1), (16, 16)):
        w = rand_w(rng, l)
        prob = DiscreteProblem.from_w(w, m)
        polys = pq_polynomials(prob)
        for mu in rng.uniform(-2, 2, 20) + 1j * rng.uniform(-0.5, 0.5, 20):
            p0, pl1, q0, ql1 = recurrence_oracle(l, m, w, mu)
            for got_series, want in ((polys.p0, p0), (polys.pl1, pl1), (polys.q0, q0), (polys.ql1, ql1)):
                got = eval_series(got_series, mu)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# d_eval
# ---------------------------------------------------------------------------

def test_d_eval_zero_potential_is_psi():
    p = DiscreteProblem.from_w(np.zeros(8), 3)
    for mu in (-1.5, 0.3, 2.5, 1 + 1j):
        assert abs(d_eval(p, mu) - psi_eval(9, mu)) <= 1e-12 * max(1, abs(psi_eval(9, mu)))


def test_d_eval_single_equation():
    w1 = 0.37 - 0.11j
    p = DiscreteProblem.from_w([w1], 1)
    for mu in (0.0, 1.2, -2.3 + 0.4j):
        assert abs(d_eval(p, mu) - (mu + w1)) < 1e-14


def test_d_eval_vanishes_at_eigenvalues():
    rng = np.random.default_rng(11)
    for l, m in ((6, 3), (11, 4)):
        p = DiscreteProblem.from_w(rand_w(rng, l), m)
        spec = discrete_spectrum(p)
        for mu in spec.mu:
            assert abs(d_eval(p, mu)) <= 1e-9 * (1 + abs(mu)) ** l


def test_d_eval_overflow_raises_at_large_l():
    # |D| grows like r^l off [-2, 2]; at l = 1024 it passes double range at mu = 3
    p = DiscreteProblem.from_w(np.zeros(1024), 341)
    for mu in (3.0, 2.5 + 1j, [0.5, 3.0]):
        with pytest.raises(FrozenArgError, match="overflow"):
            d_eval(p, mu)
    theta = math.acos(0.25)  # inside [-2, 2] D = psi_1025(mu) = sin(1025 theta)/sin(theta) stays finite
    assert abs(d_eval(p, 0.5) - math.sin(1025 * theta) / math.sin(theta)) <= 1e-9


# ---------------------------------------------------------------------------
# char_poly
# ---------------------------------------------------------------------------

def test_char_poly_zero_potential():
    p = DiscreteProblem.from_w(np.zeros(7), 2)
    np.testing.assert_array_equal(char_poly(p).coeffs, psi_poly(8).coeffs)


def test_char_poly_symbolic_l4_m2():
    # only w_m = w_2 = 5: D = psi_2 psi_4 + 5 psi_2 psi_3 - psi_1 psi_3,
    # assembled here from the explicit boundary forms, expanded independently
    w = np.array([0, 5.0, 0, 0], dtype=complex)
    d = char_poly(DiscreteProblem.from_w(w, 2))
    expected = psi_poly(2) * psi_poly(4) + (psi_poly(2) * psi_poly(3)).scale(5.0) - psi_poly(1) * psi_poly(3)
    np.testing.assert_allclose(d.coeffs, expected.coeffs, atol=1e-12)
    # and the recurrence route agrees at a few points
    prob = DiscreteProblem.from_w(w, 2)
    for mu in (0.4, -1.1, 2.2):
        assert abs(d(mu) - d_eval(prob, mu)) < 1e-10 * max(1, abs(d(mu)))


def test_char_poly_is_monic_with_wm_subleading():
    rng = np.random.default_rng(12)
    for l, m in ((5, 3), (10, 4), (17, 9)):
        w = rand_w(rng, l)
        d = char_poly(DiscreteProblem.from_w(w, m))
        assert d.degree == l
        assert d.coeffs[l] == 1.0  # exactly monic
        assert abs(d.coeffs[l - 1] - w[m - 1]) <= 1e-12


def test_char_poly_agrees_with_d_eval():
    rng = np.random.default_rng(13)
    for l, m in ((8, 3), (20, 11), (32, 15)):
        w = rand_w(rng, l)
        prob = DiscreteProblem.from_w(w, m)
        d = char_poly(prob)
        mus = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        mus *= np.minimum(1.0, 3.0 / np.abs(mus))
        absc = np.abs(d.coeffs)
        for mu in mus:
            # normalize by the evaluation's intrinsic scale sum |c_k||mu|^k
            scale = np.sum(absc * np.abs(mu) ** np.arange(l + 1))
            assert abs(d(mu) - d_eval(prob, mu)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# discrete_spectrum
# ---------------------------------------------------------------------------

def test_spectrum_free_problem_exact():
    for l in (1, 2, 9, 17, 32):
        spec = discrete_spectrum(DiscreteProblem.from_w(np.zeros(l), max(1, l // 2)))
        np.testing.assert_allclose(spec.lam.real, free_lambdas(l), atol=1e-10)
        assert np.abs(spec.lam.imag).max() < 1e-10


def test_spectrum_quadratic_table_values():
    h = math.pi / 10
    xs = h * np.arange(1, 10)
    spec = discrete_spectrum(sample_problem(xs * (math.pi - xs), 5))
    lam = spec.lam.real
    assert abs(lam[0] - 3.5867) < 2e-3
    assert abs(lam[2] - 8.2083) < 2e-3
    assert abs(lam[8] - 39.5384) < 2e-3


def test_spectrum_degenerate_values_present():
    rng = np.random.default_rng(14)
    for _ in range(5):
        w = rand_w(rng, 5)
        spec = discrete_spectrum(DiscreteProblem.from_w(w, 3))  # d = gcd(3, 6) = 3
        mu = spec.mu
        assert abs(mu[1] - 1.0) < 1e-10   # 2 cos(pi/3) at sorted index 2
        assert abs(mu[3] + 1.0) < 1e-10   # 2 cos(2pi/3) at sorted index 4


def test_spectrum_trace_identity():
    rng = np.random.default_rng(15)
    for l in (2, 7, 16, 32):
        m = int(rng.integers(1, l + 1))
        w = rand_w(rng, l)
        spec = discrete_spectrum(DiscreteProblem.from_w(w, m))
        assert abs(spec.mu.sum() + w[m - 1]) <= 1e-9 * l


def test_spectrum_ordering_and_affine_relation():
    rng = np.random.default_rng(16)
    w = rand_w(rng, 12)
    prob = DiscreteProblem.from_w(w, 5)
    spec = discrete_spectrum(prob)
    np.testing.assert_allclose(spec.lam, (2 - spec.mu) / prob.h**2, rtol=0, atol=1e-12)
    key = np.lexsort((spec.lam.imag, spec.lam.real))
    assert np.array_equal(key, np.arange(12))


def test_spectrum_iteration_cap():
    rng = np.random.default_rng(17)
    prob = DiscreteProblem.from_w(rand_w(rng, 10), 3)
    with pytest.raises(NoConvergence):
        discrete_spectrum(prob, max_iterations=1)


@pytest.mark.parametrize("l", [64, 256, 1024])
def test_spectrum_matches_dense_oracle(l):
    # within the 20 sweeps the docstring states
    rng = np.random.default_rng(l)
    h = math.pi / (l + 1)
    x = h * np.arange(1, l + 1)
    q = x * (math.pi - x)
    m = l // 3
    got = discrete_spectrum(sample_problem(q, m), max_iterations=20).mu
    assert match_error(got, dense_mu(h * h * q, m)) <= 1e-10
    cases = [(rng.uniform(0, 1, l) * np.exp(2j * math.pi * rng.uniform(0, 1, l)), l // 2)]
    if l <= 256:
        one_hot = np.zeros(l)
        one_hot[l // 5] = 60.0
        for w in (rng.uniform(-100, 100, l), one_hot, 1e-12 * rng.standard_normal(l)):
            cases += [(w, 1), (w, l)]
    for w, m in cases:
        got = discrete_spectrum(DiscreteProblem.from_w(w, m), max_iterations=20).mu
        assert match_error(got, dense_mu(w, m)) <= 1e-10, m


@pytest.mark.parametrize("kind, per_root", [("complex", 5.6), ("real", 6.5)])
def test_spectrum_evaluations_per_root(monkeypatch, kind, per_root):
    # the closed-form start takes 5.0-5.3 l (complex w) and 5.7-6.1 l (real w); a start
    # beside each pole takes 6.3-6.9 l, and one without the offset off the real axis 7.4-8.4 l for real w
    aberth, points = discrete._aberth, []

    def counted(z, ratio, max_iterations):
        def counted_ratio(x):
            points.append(len(x))
            return ratio(x)

        return aberth(z, counted_ratio, max_iterations)

    monkeypatch.setattr(discrete, "_aberth", counted)
    for l in (128, 256, 384):
        for m in (l // 3, l // 2):
            rng = np.random.default_rng(l)
            w = rand_w(rng, l) if kind == "complex" else rng.uniform(-1, 1, l)
            points.clear()
            discrete_spectrum(DiscreteProblem.from_w(w, m))
            assert sum(points) <= per_root * l, (l, m, sum(points) / l)


def test_spectrum_degenerate_values_at_large_l():
    # l + 1 = 256, m = 96: d = gcd = 32, so 2 cos(pi k / 32), k = 1..31, are eigenvalues for every w
    rng = np.random.default_rng(18)
    l, m, d = 255, 96, 32
    fixed = 2.0 * np.cos(np.pi * np.arange(1, d) / d)
    x = math.pi / (l + 1) * np.arange(1, l + 1)
    for prob in (sample_problem(1.0 + np.cos(2.0 * x), m), DiscreteProblem.from_w(rand_w(rng, l), m)):
        mu = discrete_spectrum(prob).mu
        assert len(mu) == l
        assert np.abs(mu[:, None] - fixed[None, :]).min(axis=0).max() <= 1e-12


def test_spectrum_non_finite_input_raises():
    w = np.zeros(6, dtype=complex)
    w[2] = np.nan
    with pytest.raises(WrongCount):
        discrete_spectrum(DiscreteProblem.from_w(w, 2))
    with pytest.raises(WrongCount):
        sample_problem([1, np.inf, 2], 2)


@pytest.mark.parametrize("l", [9, 64, 255])
def test_real_potential_spectrum_is_exactly_real(l):
    # imaginary parts at rounding level (up to 7e-18 before) are set to zero for real w
    x = math.pi / (l + 1) * np.arange(1, l + 1)
    for q in (x * (math.pi - x), 1.0 + np.cos(2.0 * x), 60.0 * np.sin(x)):
        for m in sorted({1, l // 3 + 1, l // 2 + 1, l}):
            assert not discrete_spectrum(sample_problem(q, m)).mu.imag.any(), m


@pytest.mark.parametrize("l", [16, 64, 256])
def test_real_w_keeps_dense_count_of_complex_roots(l):
    # dense eigvals of a real matrix gives real eigenvalues exactly real, so the
    # counts agree only if zeroing keeps every genuine conjugate pair a pair
    w = 3.0 * np.random.default_rng(l).standard_normal(l)
    for m in (1, l // 3, l // 2, l):
        got = discrete_spectrum(DiscreteProblem.from_w(w, m)).mu
        want = dense_mu(w, m)
        assert np.count_nonzero(got.imag) == np.count_nonzero(want.imag), m
        assert match_error(got, want) <= 1e-10, m
