"""Tests for the psi grid (frozenarg.chebypoly) and the monomial engine (frozenarg.monomial)."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import frozenarg
from frozenarg import (
    DegreeMismatch,
    DuplicateNode,
    NoConvergence,
    Poly,
    PsiSeries,
    interpolate,
    poly_from_roots,
    poly_roots,
    poly_to_psi,
    psi_eval,
    psi_mul,
    psi_poly,
    psi_to_poly,
    psi_zeros,
)
from frozenarg import chebypoly
from frozenarg.chebypoly import _dst1


def psi_int_oracle(n):
    """Integer coefficients of psi_n from the closed binomial form (independent
    of the library's recurrence): coefficient of mu^(n-1-2k) is (-1)^k C(n-1-k, k)."""
    c = [0] * n
    for k in range((n - 1) // 2 + 1):
        c[n - 1 - 2 * k] = (-1) ** k * math.comb(n - 1 - k, k)
    return c


# ---------------------------------------------------------------------------
# psi_eval
# ---------------------------------------------------------------------------

def test_psi_eval_base_cases():
    for mu in (0.3, -1.7, 2.0, 1 + 2j):
        assert psi_eval(1, mu) == 1
    assert abs(psi_eval(3, 1.0)) < 1e-15  # 1 = 2 cos(pi/3) is a zero of mu^2 - 1
    for n in (1, 2, 7, 40):
        assert abs(psi_eval(n, 2.0) - n) < 1e-9 * n  # theta -> 0 limit


def test_psi_eval_matches_sine_form():
    rng = np.random.default_rng(0)
    mus = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
    mus *= np.minimum(1.0, 3.0 / np.abs(mus))
    for n in range(1, 65):
        theta = np.arccos(mus.astype(complex) / 2)
        closed = np.sin(n * theta) / np.sin(theta)
        got = psi_eval(n, mus)
        scale = np.maximum(1.0, np.abs(closed))
        assert np.max(np.abs(got - closed) / scale) <= 1e-9 * n


def test_psi_eval_against_integer_oracle():
    from fractions import Fraction

    rng = np.random.default_rng(1)
    for n in (2, 5, 13, 31):
        coeffs = psi_int_oracle(n)
        for mu in rng.uniform(-2, 2, 5):
            x = Fraction(float(mu))  # exact binary rational
            direct = float(sum(c * x**k for k, c in enumerate(coeffs)))
            assert abs(psi_eval(n, float(mu)) - direct) < 1e-9 * n * max(1, abs(direct))


# ---------------------------------------------------------------------------
# psi_zeros
# ---------------------------------------------------------------------------

def test_psi_zeros_small_cases():
    assert len(psi_zeros(1)) == 0
    np.testing.assert_allclose(psi_zeros(3), [1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(psi_zeros(4), [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-15)


def test_psi_zeros_are_zeros():
    for n in (2, 6, 17):
        for z in psi_zeros(n):
            assert abs(psi_eval(n, z)) < 1e-10 * n


def test_dst1_gives_psi_coordinates_from_zero_values():
    # c_j = (2/n) sum_k f(nu_k) sin(theta_k) sin(jk pi/n) at the zeros of psi_n
    rng = np.random.default_rng(6)
    for n in (2, 7, 64):
        c = rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1)
        theta = np.pi * np.arange(1, n) / n
        values = sum(c[j - 1] * psi_eval(j, psi_zeros(n)) for j in range(1, n))
        got = (2.0 / n) * _dst1(values * np.sin(theta))
        assert np.max(np.abs(got - c)) <= 1e-13, n


# ---------------------------------------------------------------------------
# basis conversions
# ---------------------------------------------------------------------------

def test_psi_to_poly_small():
    p = psi_to_poly(PsiSeries([0, 0, 1]))  # psi_3 = mu^2 - 1
    np.testing.assert_allclose(p.coeffs, [-1, 0, 1])


def test_poly_to_psi_small():
    s = poly_to_psi(Poly([0, 0, 1]))  # mu^2 = psi_1 + psi_3
    np.testing.assert_allclose(s.coeffs, [1, 0, 1])


def test_conversion_roundtrip_degree_10():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    p = Poly(c)
    back = psi_to_poly(poly_to_psi(p))
    assert np.max(np.abs(back.coeffs - c)) <= 1e-12 * np.max(np.abs(c))


def test_conversion_roundtrip_up_to_64():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 16, 33, 48, 64):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = poly_to_psi(psi_to_poly(PsiSeries(c)), n=n)
        err = np.max(np.abs(back.coeffs - c)) / np.max(np.abs(c))
        assert err <= 1e-12, f"n={n}: roundtrip error {err:.3e}"


def test_poly_to_psi_degree_guard():
    with pytest.raises(DegreeMismatch):
        poly_to_psi(Poly([0, 0, 0, 1.0]), n=2)


# ---------------------------------------------------------------------------
# psi_mul
# ---------------------------------------------------------------------------

def test_psi_mul_trivial():
    for n in (1, 4, 9):
        s = psi_mul(1, n)
        expected = np.zeros(n)
        expected[n - 1] = 1
        np.testing.assert_array_equal(s.coeffs.real, expected)
    np.testing.assert_array_equal(psi_mul(2, 2).coeffs.real, [1, 0, 1])  # psi_1 + psi_3


def test_psi_mul_4_3_monomial_expansion():
    # oracle: expand both sides to monomials with the integer coefficients
    lhs = np.convolve(psi_int_oracle(4), psi_int_oracle(3))
    s = psi_mul(4, 3)
    np.testing.assert_array_equal(s.coeffs.real, [0, 1, 0, 1, 0, 1])  # psi_2+psi_4+psi_6
    rhs = np.zeros(len(lhs))
    for j in range(1, s.n + 1):
        if s.coeffs[j - 1]:
            rhs[:j] += s.coeffs[j - 1].real * np.array(psi_int_oracle(j))
    np.testing.assert_array_equal(lhs, rhs)


def test_psi_mul_exact_integers_up_to_30():
    # coefficient-wise integer equality, exact arithmetic
    for a in range(1, 16):
        for b in range(1, 31 - a):
            conv = [0] * (a + b - 1)
            pa, pb = psi_int_oracle(a), psi_int_oracle(b)
            for i, ca in enumerate(pa):
                for j, cb in enumerate(pb):
                    conv[i + j] += ca * cb
            s = psi_mul(a, b)
            expanded = [0] * (a + b - 1)
            for j in range(1, s.n + 1):
                c = int(s.coeffs[j - 1].real)
                if c:
                    for k, v in enumerate(psi_int_oracle(j)):
                        expanded[k] += c * v
            assert conv == expanded, (a, b)


# ---------------------------------------------------------------------------
# poly_from_roots
# ---------------------------------------------------------------------------

def test_poly_from_roots_empty_is_one():
    p = poly_from_roots([])
    np.testing.assert_array_equal(p.coeffs, [1.0])


def test_poly_from_roots_psi_zeros():
    for n in (3, 6, 12):
        p = poly_from_roots(psi_zeros(n))
        ref = np.array(psi_int_oracle(n), dtype=float)
        assert np.max(np.abs(p.coeffs - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_poly_from_roots_pair():
    p = poly_from_roots([1.0, -1.0])
    np.testing.assert_allclose(p.coeffs, [-1, 0, 1], atol=1e-15)


def test_poly_from_roots_conjugate_symmetric_real_coeffs():
    rng = np.random.default_rng(4)
    zs = rng.uniform(-1, 1, 8) + 1j * rng.uniform(0.1, 1, 8)
    roots = np.concatenate([zs, zs.conj(), rng.uniform(-2, 2, 3).astype(complex)])
    p = poly_from_roots(roots)
    scale = np.max(np.abs(p.coeffs))
    assert np.max(np.abs(p.coeffs.imag)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_constant():
    p = interpolate([0.0], [7.0])
    np.testing.assert_array_equal(p.coeffs, [7.0])


def test_interpolate_degree2_on_psi_nodes():
    nodes = psi_zeros(4)
    values = nodes**2 - 1
    p = interpolate(nodes, values)
    np.testing.assert_allclose(p.coeffs, [-1, 0, 1], atol=1e-12)


def test_interpolate_recovers_degree8():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(9)
    ref = Poly(c)
    nodes = 2 * np.cos(np.pi * np.arange(1, 10) / 10)
    p = interpolate(nodes, ref(nodes))
    assert np.max(np.abs(p.coeffs - c)) <= 1e-10 * np.max(np.abs(c))


def test_interpolate_property_up_to_degree_20():
    # polynomials drawn as psi expansions (the class the pipeline feeds the
    # interpolator: bounded on [-2, 2]); raw N(0,1) monomial coefficients are
    # not recoverable to 1e-9 from values at these nodes by any algorithm
    rng = np.random.default_rng(7)
    for deg in (1, 3, 8, 14, 20):
        coords = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        ref = psi_to_poly(PsiSeries(coords))
        c = np.zeros(deg + 1, complex)
        c[: len(ref.coeffs)] = ref.coeffs
        nodes = 2 * np.cos(np.pi * np.arange(1, deg + 2) / (deg + 2))
        p = interpolate(nodes, ref(nodes))
        got = np.zeros(deg + 1, complex)
        got[: len(p.coeffs)] = p.coeffs
        assert np.max(np.abs(got - c)) <= 1e-9 * np.max(np.abs(c)), deg


def test_interpolate_duplicate_node():
    with pytest.raises(DuplicateNode):
        interpolate([1.0, 1.0 + 1e-16], [0.0, 1.0])


# ---------------------------------------------------------------------------
# poly_roots
# ---------------------------------------------------------------------------

def _match_multisets(a, b):
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    return max(abs(x - y) for x, y in zip(a, b))


def test_poly_roots_psi6():
    roots = poly_roots(psi_poly(6))
    assert _match_multisets(roots, psi_zeros(6).astype(complex)) <= 1e-10


def test_poly_roots_quadratic():
    roots = poly_roots(Poly([-1, 0, 1]))
    assert _match_multisets(roots, [1.0 + 0j, -1.0 + 0j]) <= 1e-14


def test_poly_roots_from_roots_roundtrip():
    rng = np.random.default_rng(8)
    for trial in range(5):
        k = int(rng.integers(3, 10))
        while True:
            roots = rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k)
            roots *= np.minimum(1.0, 3.0 / np.abs(roots))
            diffs = np.abs(roots[:, None] - roots[None, :]) + np.eye(k)
            if diffs.min() >= 0.1:
                break
        got = poly_roots(poly_from_roots(roots))
        assert _match_multisets(got, roots) <= 1e-9


def test_poly_roots_residual_contract():
    rng = np.random.default_rng(9)
    for deg in (5, 12, 24, 40, 64):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = Poly(c)
        roots = poly_roots(p)
        res = np.abs(p(roots)) / (np.max(np.abs(p.coeffs)) * (1 + np.abs(roots)) ** p.degree)
        assert res.max() <= 1e-10, deg


def test_poly_roots_real_roots_on_wide_interval():
    # products of roots in [-3, 3] and Wilkinson's degree 20: the start circle
    # must not overflow z^deg, since an inf p(z) would sit below an inf noise
    # floor and count as converged
    rng = np.random.default_rng(0)
    cases = [(poly_from_roots(rng.uniform(-3, 3, deg)), 3.0) for deg in (30, 40, 60)]
    cases.append((poly_from_roots(np.arange(1.0, 21.0)), 20.0))
    for p, bound in cases:
        roots = poly_roots(p)
        res = np.abs(p(roots)) / (np.max(np.abs(p.coeffs)) * (1 + np.abs(roots)) ** p.degree)
        assert res.max() <= 1e-10, p.degree  # seen <= 1e-22
        assert np.abs(roots).max() <= 2 * bound, p.degree


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_poly_roots_monomial(k):
    # every lower coefficient is zero, so Fujiwara's bound is 0: all roots
    # start at 0, where the Aberth sums would divide by z_i - z_j = 0
    roots = poly_roots(Poly([0] * k + [1]))
    assert len(roots) == k
    assert np.all(roots == 0)


@pytest.mark.parametrize("roots", [[1.0, 1.0, 2.0], [0.5] * 4 + [-1.0]])
def test_poly_roots_multiple_roots(roots):
    # a root of multiplicity s is only fixed to about eps^(1/s); the residual
    # contract still holds (seen <= 2e-17)
    p = poly_from_roots(roots)
    got = poly_roots(p)
    res = np.abs(p(got)) / (np.max(np.abs(p.coeffs)) * (1 + np.abs(got)) ** p.degree)
    assert len(got) == len(roots)
    assert res.max() <= 1e-10
    assert _match_multisets(got, np.asarray(roots, dtype=complex)) <= 1e-3  # seen 8e-5


def test_poly_roots_non_finite_value_raises():
    # roots of modulus 4.6e102: p overflows on the start circle
    with pytest.raises(NoConvergence):
        poly_roots(Poly([1e308, 0.0, 0.0, 1.0]))


def test_poly_roots_no_convergence_reports_residual(monkeypatch):
    monkeypatch.setattr(chebypoly, "_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence) as err:
        poly_roots(psi_poly(8))
    assert err.value.worst_residual is not None


def test_poly_roots_rejects_constants():
    with pytest.raises(DegreeMismatch):
        poly_roots(Poly([3.0]))


# ---------------------------------------------------------------------------
# Poly arithmetic odds and ends
# ---------------------------------------------------------------------------

def test_zero_poly_degree_convention():
    assert Poly.zero().degree == -1
    assert poly_from_roots([]).degree == 0


def test_trailing_zeros_trimmed():
    p = Poly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert len(p.coeffs) == 2


def test_psi_series_leading_coefficient_is_top_monomial():
    # psi_j is monic of degree j-1, so c_N is the mu^(N-1) coefficient
    rng = np.random.default_rng(42)
    c = rng.standard_normal(12)
    p = psi_to_poly(PsiSeries(c))
    assert abs(p.coeffs[11] - c[11]) == 0.0


def test_divide_exact_psi_quotient():
    # psi_m / psi_d is exact whenever d divides m
    q = psi_poly(12).divide_exact(psi_poly(4))
    prod = q * psi_poly(4)
    assert np.max(np.abs(prod.coeffs - psi_poly(12).coeffs)) <= 1e-9


def test_divide_exact_rejects_remainder():
    from frozenarg import InexactDivision

    with pytest.raises(InexactDivision):
        Poly([1.0, 0, 1]).divide_exact(Poly([3.0, 1.0]))


MONOMIAL_NAMES = {"Poly", "PsiSeries", "interpolate", "poly_from_roots", "poly_to_psi", "psi_to_poly",
                  "psi_poly", "psi_mul", "poly_roots"}


def test_monomial_form_lives_in_one_module():
    # the pipelines run on the psi grid alone; only frozenarg.monomial holds
    # coefficient arrays, and only __init__ and the degenerate solver import it
    from_monomial = {}
    for path in sorted(Path(frozenarg.__file__).parent.glob("*.py")):
        if path.name == "monomial.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in MONOMIAL_NAMES, (path.name, node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in MONOMIAL_NAMES, (path.name, node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                if (getattr(node, "module", None) or "").endswith("monomial") or any(
                    name.endswith("monomial") for name in names
                ):
                    from_monomial.setdefault(path.name, set()).update(names)
                else:
                    assert not names & MONOMIAL_NAMES, (path.name, names & MONOMIAL_NAMES)
    assert set(from_monomial) == {"__init__.py", "inverse.py"}
    assert from_monomial["inverse.py"] == {"_solve_degenerate_left"}
    assert MONOMIAL_NAMES <= from_monomial["__init__.py"]
    assert not any(name.startswith("_") for name in from_monomial["__init__.py"])
