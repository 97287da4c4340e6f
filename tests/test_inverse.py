"""Tests for the inverse solvers (non-degenerate, degenerate, symmetric)."""

import math

import numpy as np
import pytest

from frozenarg import (
    BadIndex,
    DegenerateConfiguration,
    DegenerateData,
    DiscreteProblem,
    InexactDivision,
    NotDegenerate,
    PsiSeries,
    SideDataMismatch,
    WrongCount,
    degenerate_mu,
    discrete_spectrum,
    poly_from_roots,
    psi_to_poly,
    psi_zeros,
    sample_problem,
    solve_degenerate,
    solve_nondegenerate,
    solve_symmetric,
    strip_degenerate,
)
from frozenarg.chebypoly import _secular_weights, _w_from_weights


def rand_w(rng, l):
    w = rng.uniform(-1, 1, l) + 1j * rng.uniform(-1, 1, l)
    return w / np.maximum(1.0, np.abs(w))


def rel_err(got, want):
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))


def forward_mu(w, m):
    return discrete_spectrum(DiscreteProblem.from_w(w, m)).mu


def dense_mu(w, m):
    """Eigenvalues of the explicit matrix T - w e_m^T by dense numpy.linalg.eigvals."""
    l = len(w)
    a = (np.eye(l, k=1) + np.eye(l, k=-1)).astype(complex)
    a[:, m - 1] -= w
    return np.linalg.eigvals(a)


# ---------------------------------------------------------------------------
# solve_nondegenerate
# ---------------------------------------------------------------------------

def test_nondegenerate_free_spectrum_gives_zero():
    for l, m in ((4, 2), (9, 3), (15, 7)):
        assert math.gcd(m, l + 1) == 1
        mu = 2 * np.cos(np.pi * np.arange(1, l + 1) / (l + 1))
        w = solve_nondegenerate(mu, m)
        assert np.abs(w).max() <= 1e-10


def test_nondegenerate_forward_roundtrip_example():
    w = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    got = solve_nondegenerate(forward_mu(w, 2), 2)
    assert rel_err(got, w) <= 1e-8


def test_nondegenerate_rejects_degenerate_configuration():
    with pytest.raises(DegenerateConfiguration):
        solve_nondegenerate(np.zeros(9), 5)  # gcd(5, 10) = 5


def test_nondegenerate_wrong_count():
    with pytest.raises(WrongCount):
        solve_nondegenerate(np.zeros(4), 2, l=5)


def test_nondegenerate_random_roundtrips():
    rng = np.random.default_rng(22)
    for _ in range(15):
        l = int(rng.integers(1, 17))
        ms = [m for m in range(1, l + 1) if math.gcd(m, l + 1) == 1]
        m = int(rng.choice(ms))
        w = rand_w(rng, l)
        got = solve_nondegenerate(forward_mu(w, m), m)
        assert rel_err(got, w) <= 1e-8, (l, m)


@pytest.mark.parametrize("l, m", [(64, 21), (256, 85), (1024, 341), (64, 1), (64, 64), (256, 1), (256, 256)])
def test_nondegenerate_against_dense_oracle(l, m):
    # random complex |w| <= 1; m = 1 leaves no Q_0 coordinates, m = l no tail.
    # Errors seen: 5e-13 (l = 64) to 1.3e-9 (l = 1024)
    rng = np.random.default_rng(40 + l + m)
    w = rand_w(rng, l)
    assert rel_err(solve_nondegenerate(dense_mu(w, m), m), w) <= 1e-8


def test_nondegenerate_mid_interval_large_l():
    # m = 513 of l = 1024: against dense eigvals the error is about 7e-9,
    # nearly all of it eigvals' own rounding amplified; with the spectrum
    # from discrete_spectrum it is 5e-11
    rng = np.random.default_rng(43)
    l, m = 1024, 513
    w = rand_w(rng, l)
    assert rel_err(solve_nondegenerate(forward_mu(w, m), m), w) <= 1e-9


@pytest.mark.parametrize("m", [1, 3, 341, 1021, 1023])
def test_nondegenerate_free_problem_large_l(m):
    l = 1023
    mu = 2 * np.cos(np.pi * np.arange(1, l + 1) / (l + 1))
    assert np.abs(solve_nondegenerate(mu, m)).max() <= 1e-12


@pytest.mark.parametrize("l", [1, 2, 9, 64, 1023])
def test_read_inverts_forward_weights(l):
    # the secular weights a = s_m (2/n) DST-I(w) of the forward map, read
    # back by w = DST-I(a / s_m) with no eigenvalue solver in between
    rng = np.random.default_rng(70 + l)
    w = rand_w(rng, l)
    coprime = [m for m in range(1, l + 1) if math.gcd(m, l + 1) == 1]
    for m in {1, l, *rng.choice(coprime, size=min(3, len(coprime)), replace=False).tolist()}:
        got = _w_from_weights(_secular_weights(w, m)[1], m)
        assert np.max(np.abs(got - w)) <= 1e-13 * np.max(np.abs(w)), m
    if l % 2 == 1:  # l = 2m-1: only the symmetric part comes back
        m = (l + 1) // 2
        got = _w_from_weights(_secular_weights(w, m)[1], m)
        assert np.max(np.abs(got - (w + w[::-1]) / 2)) <= 1e-13 * np.max(np.abs(w))
        assert abs(got[m - 1] - w[m - 1]) <= 1e-13 * np.max(np.abs(w))


# ---------------------------------------------------------------------------
# solve_degenerate
# ---------------------------------------------------------------------------

def test_degenerate_free_case_l5_m3():
    # reduced spectrum of the zero potential: odd-index free eigenvalues
    mu_reduced = 2 * np.cos(np.pi * np.array([1, 3, 5]) / 6)
    data = DegenerateData(side="left", known_w=[0.0, 0.0], d=3)
    w = solve_degenerate(mu_reduced, 3, 5, data)
    assert np.abs(w).max() <= 1e-10


def test_degenerate_left_roundtrip_l5_m3():
    rng = np.random.default_rng(23)
    for _ in range(5):
        w = rand_w(rng, 5)
        mu_reduced = strip_degenerate(forward_mu(w, 3), 5, 3)
        data = DegenerateData(side="left", known_w=w[0:2], d=3)  # w_{m-d+1}..w_{m-1} = w_1, w_2
        got = solve_degenerate(mu_reduced, 3, 5, data)
        assert rel_err(got, w) <= 1e-8


def test_degenerate_general_d_less_than_m():
    # (l, m) = (9, 4): d = gcd(4, 10) = 2, exercises a proper phi division
    rng = np.random.default_rng(24)
    w = rand_w(rng, 9)
    mu_reduced = strip_degenerate(forward_mu(w, 4), 9, 4)
    data = DegenerateData(side="left", known_w=[w[2]], d=2)  # w_{m-1} = w_3
    got = solve_degenerate(mu_reduced, 4, 9, data)
    assert rel_err(got, w) <= 1e-8


def test_degenerate_right_roundtrip():
    rng = np.random.default_rng(25)
    for l, m in ((5, 2), (11, 3)):
        d = math.gcd(m, l + 1)
        w = rand_w(rng, l)
        mu_reduced = strip_degenerate(forward_mu(w, m), l, m)
        data = DegenerateData(side="right", known_w=w[m : m + d], d=d)
        got = solve_degenerate(mu_reduced, m, l, data)
        assert rel_err(got, w) <= 1e-8


def test_degenerate_right_index_overflow():
    # (l, m) = (9, 5): d = 5, known range w_6..w_10 runs off the grid
    mu_reduced = np.zeros(5)
    data = DegenerateData(side="right", known_w=np.zeros(5), d=5)
    with pytest.raises(SideDataMismatch):
        solve_degenerate(mu_reduced, 5, 9, data)


def test_degenerate_guards():
    with pytest.raises(NotDegenerate):
        solve_degenerate(np.zeros(4), 2, 4, DegenerateData(side="left", known_w=[0.0], d=2))
    with pytest.raises(WrongCount):
        solve_degenerate(np.zeros(5), 3, 5, DegenerateData(side="left", known_w=[0.0, 0.0], d=3))
    with pytest.raises(SideDataMismatch):
        DegenerateData(side="left", known_w=[0.0, 0.0, 0.0], d=3)
    with pytest.raises(SideDataMismatch):
        DegenerateData(side="up", known_w=[0.0], d=2)
    with pytest.raises(SideDataMismatch):
        solve_degenerate(np.zeros(3), 3, 5, DegenerateData(side="left", known_w=[0.0], d=2))


@pytest.mark.parametrize("l, m, seed", [(47, 46, 3), (53, 52, 12)])
def test_degenerate_result_that_misses_the_spectrum_raises(l, m, seed):
    # without the check these return w with relative error 6.4e-2 and 2.7
    rng = np.random.default_rng(seed)
    w = rand_w(rng, l)
    d = math.gcd(m, l + 1)
    mu_reduced = strip_degenerate(dense_mu(w, m), l, m, tol=1e-6)
    with pytest.raises(InexactDivision, match="secular weights"):
        solve_degenerate(mu_reduced, m, l, DegenerateData(side="left", known_w=w[m - d : m - 1], d=d))


@pytest.mark.parametrize("l, m", [(19, 5), (23, 8)])
def test_degenerate_zero_potential_passes_the_check(l, m):
    # w = 0 has no secular weights to scale the misfit by; the route's absolute error still passes
    d = math.gcd(m, l + 1)
    mu_reduced = strip_degenerate(psi_zeros(l + 1), l, m)
    w = solve_degenerate(mu_reduced, m, l, DegenerateData(side="left", known_w=np.zeros(d - 1), d=d))
    assert np.abs(w).max() <= 1e-7


def test_degenerate_insensitive_to_perturbed_degenerate_inputs():
    # the excluded eigenvalues are re-synthesized from closed form, so nudging
    # them in the full spectrum cannot change the result bit for bit
    rng = np.random.default_rng(26)
    w = rand_w(rng, 7)
    mu_full = forward_mu(w, 4)  # d = gcd(4, 8) = 4
    data = DegenerateData(side="left", known_w=w[0:3], d=4)
    clean = solve_degenerate(strip_degenerate(mu_full, 7, 4), 4, 7, data)
    mu_perturbed = np.array(mu_full)
    for target in degenerate_mu(7, 4):
        i = int(np.argmin(np.abs(mu_perturbed - target)))
        mu_perturbed[i] += 1e-6 * (1 + 1j)
    noisy = solve_degenerate(strip_degenerate(mu_perturbed, 7, 4, tol=1e-4), 4, 7, data)
    assert np.array_equal(clean, noisy)


def test_strip_degenerate_matches_nearest_entry_scan():
    # brute force: for each degenerate value pop the nearest remaining entry, first index on a tie
    l, m = 1023, 512  # d = 512
    rng = np.random.default_rng(27)
    targets = degenerate_mu(l, m)
    near = targets + 1e-10 * (rng.standard_normal(511) + 1j * rng.standard_normal(511))
    near[::7] = targets[::7] + 1e-10j
    dup = targets[::7] - 1e-10j  # the same distance as its partner in near: a tie
    rest = rng.uniform(-2, 2, l - len(near) - len(dup)) + 1j * rng.uniform(-1, 1, l - len(near) - len(dup))
    mu = np.concatenate([near, dup, rest])
    rng.shuffle(mu)
    expected = list(mu)
    for target in targets:
        expected.pop(min(range(len(expected)), key=lambda i: abs(expected[i] - target)))
    assert np.array_equal(strip_degenerate(mu, l, m), np.array(expected))


def test_strip_degenerate_rejects_foreign_spectrum():
    with pytest.raises(WrongCount):
        strip_degenerate(np.full(5, 10.0 + 0j), 5, 3)


# ---------------------------------------------------------------------------
# solve_symmetric
# ---------------------------------------------------------------------------

def test_symmetric_free_problem():
    for m in (1, 4, 9):
        mu_odd = 2 * np.cos(np.pi * np.arange(1, 2 * m, 2) / (2 * m))
        wm, s = solve_symmetric(mu_odd, m)
        assert abs(wm) <= 1e-12
        assert np.abs(s).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("m", [128, 256, 512, 2047, 2048])
def test_symmetric_free_problem_large_m(m):
    # odd free eigenvalues 2 cos((2j-1) pi / 2m): every coordinate vanishes.
    # From m of about 1280 the partial products of prod (nu - mu) leave
    # double range; for odd m one factor is 0 - 0.
    mu_odd = 2 * np.cos(np.pi * np.arange(1, 2 * m, 2) / (2 * m))
    wm, s = solve_symmetric(mu_odd, m)
    assert max(abs(wm), np.abs(s).max()) <= 1e-12


def test_symmetric_coordinates_match_monomial_route():
    # prod (mu - r) = psi_{m+1} - psi_{m-1} + w_m psi_m + sum_j s_j psi_j
    rng = np.random.default_rng(5)
    roots = rng.uniform(-1.9, 1.9, 9)
    wm, s = solve_symmetric(roots, 9)
    coords = np.concatenate([s, [wm, 1.0]])
    coords[7] -= 1.0  # psi_{m-1}
    got = psi_to_poly(PsiSeries(coords))
    ref = poly_from_roots(roots)
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-10 * np.max(np.abs(ref.coeffs))


@pytest.mark.parametrize("m", [128, 256])
def test_symmetric_random_complex_w_against_dense_oracle(m):
    rng = np.random.default_rng(28 + m)
    l = 2 * m - 1
    w = rand_w(rng, l)
    mu_odd = strip_degenerate(dense_mu(w, m), l, m)
    wm, s = solve_symmetric(mu_odd, m)
    assert abs(wm - w[m - 1]) <= 1e-9
    assert np.max(np.abs(s - (w[: m - 1] + w[::-1][: m - 1]))) <= 1e-9


def test_symmetric_surrogates_give_benchmark_row():
    # corrected surrogate eigenvalues for q = x(pi - x), m = 5, frozen at
    # the printed 4 decimals; scaling q_j = z_j/(2h^2), q_m = z_m/h^2
    tilde = np.array([3.5813, 8.2139, 20.2869, 32.1674, 39.5403])
    h = math.pi / 10
    mu = 2 - h * h * tilde
    wm, s = solve_symmetric(mu, 5)
    q = np.append(s.real / (2 * h * h), wm.real / (h * h))
    expected = [0.8857, 1.5719, 2.0705, 2.3665, 2.4686]
    assert np.max(np.abs(q - expected)) <= 2e-3


def test_symmetric_random_roundtrip():
    rng = np.random.default_rng(27)
    m = 6
    l = 2 * m - 1
    half = rand_w(rng, m)
    w = np.concatenate([half, half[: m - 1][::-1]])  # w_j = w_{l+1-j}
    mu_odd = strip_degenerate(forward_mu(w, m), l, m)  # leaves the m non-degenerate ones
    wm, s = solve_symmetric(mu_odd, m)
    assert abs(wm - w[m - 1]) <= 1e-8
    assert np.max(np.abs(s - 2 * half[: m - 1])) <= 1e-8


def test_symmetric_wrong_count():
    with pytest.raises(WrongCount):
        solve_symmetric(np.zeros(4), 5)
    with pytest.raises(BadIndex, match="m=0"):
        solve_symmetric([], 0)


@pytest.mark.parametrize("m", [0, 6], ids=["m=0", "m=l+1"])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: DiscreteProblem(l=5, m=m, w=np.zeros(5)),
        lambda m: sample_problem(np.zeros(5), m),
        lambda m: solve_nondegenerate(np.zeros(5), m),
        lambda m: strip_degenerate(np.zeros(5), 5, m),
        lambda m: solve_degenerate(np.zeros(0), m, 5, DegenerateData(side="left", known_w=np.zeros(5), d=6)),
        lambda m: solve_degenerate(np.zeros(0), m, 5, DegenerateData(side="right", known_w=np.zeros(6), d=6)),
    ],
    ids=["problem", "sample", "nondegenerate", "strip", "degenerate-left", "degenerate-right"],
)
def test_frozen_index_outside_the_grid_raises_bad_index(call, m):
    # l = 5: gcd(m, 6) = 6 at both ends, so no degenerate-count check can fire first
    with pytest.raises(BadIndex, match=f"m={m} outside"):
        call(m)


def test_bad_index_further_outside_the_grid():
    with pytest.raises(BadIndex):
        strip_degenerate(np.zeros(5), 5, 7)  # gcd(7, 6) = 1 left it unchanged
    with pytest.raises(BadIndex):
        solve_symmetric([], -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "complex-nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: solve_nondegenerate([0.5, bad, -0.5, 1.0], 2),
        lambda bad: solve_symmetric([0.5, bad, -0.5], 3),
        lambda bad: solve_degenerate([0.5, bad, -0.5], 3, 5, DegenerateData(side="left", known_w=[0.0, 0.0], d=3)),
        lambda bad: DegenerateData(side="left", known_w=[0.0, bad], d=3),
        lambda bad: strip_degenerate([bad, 1.0, 1.0, -1.0, 0.5], 5, 3),
    ],
    ids=["nondegenerate", "symmetric", "degenerate", "known_w", "strip"],
)
def test_non_finite_input_raises(call, bad):
    with pytest.raises(WrongCount):
        call(bad)


def test_nonuniqueness_witness():
    # equal pair sums and equal middle value, different coefficients,
    # indistinguishable spectra
    w_a = np.array([0.1, 0.2, 0.3, 0.5, 0.4, 0.6, 0.7], dtype=complex)
    w_b = w_a.copy()
    w_b[0] += 0.25
    w_b[6] -= 0.25
    mu_a = np.sort_complex(forward_mu(w_a, 4))
    mu_b = np.sort_complex(forward_mu(w_b, 4))
    assert np.max(np.abs(mu_a - mu_b)) <= 1e-9
