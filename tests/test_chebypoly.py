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
    WrongCount,
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
from frozenarg import chebypoly, monomial
from frozenarg.chebypoly import _dst1, _product_at


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


@pytest.mark.parametrize("n", [80, 96, 128])
def test_conversion_roundtrip_is_exact(n):
    # the exact integer coefficients ride along from psi_to_poly to poly_to_psi
    rng = np.random.default_rng(4)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = poly_to_psi(psi_to_poly(PsiSeries(c)), n=n)
    np.testing.assert_array_equal(back.coeffs, c)


@pytest.mark.parametrize("psi", [psi_poly, lambda n: psi_eval(n, 0.5)], ids=["psi_poly", "psi_eval"])
def test_negative_psi_index_raises(psi):
    with pytest.raises(WrongCount, match=r"psi index n=-2 outside \[0, inf\]$"):
        psi(-2)


@pytest.mark.parametrize("n", [90, 100, 128])
def test_psi_poly_is_correctly_rounded(n):
    # float(int) rounds to nearest; past 2**53 the float recurrence does not
    want = np.array([float(c) for c in psi_int_oracle(n)])
    np.testing.assert_array_equal(psi_poly(n).coeffs, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)], ids=["nan", "inf", "complex-inf"])
@pytest.mark.parametrize(
    "convert",
    [lambda c: psi_to_poly(PsiSeries(c)), lambda c: poly_to_psi(Poly(c))],
    ids=["psi_to_poly", "poly_to_psi"],
)
def test_conversions_reject_non_finite_coefficients(convert, bad):
    with pytest.raises(WrongCount, match="must be finite"):
        convert([1.0, bad, 2.0])


def test_psi_to_poly_beyond_double_range_raises():
    # the exact sum is finite, but 1e300 times the largest coefficient of psi_128 has no double
    with pytest.raises(WrongCount, match="beyond double range"):
        psi_to_poly(PsiSeries([0.0] * 127 + [1e300]))


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


def test_poly_from_roots_multiplies_in_sorted_order():
    # sorted by (real part, |imag|, imag): conjugates adjacent, also among roots that share a real part
    rng = np.random.default_rng(5)
    zs = rng.choice([-0.5, 0.25], 6) + 1j * rng.uniform(0.1, 1.5, 6)
    roots = rng.permutation(np.concatenate([zs, zs.conj(), [0.25, -1.0]]))
    want = np.ones(1, dtype=complex)
    for r in sorted(roots.tolist(), key=lambda z: (z.real, abs(z.imag), z.imag)):
        want = np.append(want, 0) - np.append(0, r * want)
    np.testing.assert_array_equal(poly_from_roots(roots).coeffs, want[::-1])


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
    with pytest.raises(DuplicateNode, match="nodes 1 and 3 coincide"):
        interpolate([0.0, 1.0, 2.0, 1.0 + 1e-16, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0])


def leja_reference(pts):
    """Leja order with a dict of log distance products, one scalar log per pair."""
    n = len(pts)
    order = [max(range(n), key=lambda i: abs(pts[i]))]
    rest = set(range(n)) - {order[0]}
    logd = {i: 0.0 for i in rest}
    while rest:
        last = pts[order[-1]]
        for i in rest:
            logd[i] += math.log(abs(pts[i] - last))
        best = max(sorted(rest), key=logd.__getitem__)
        order.append(best)
        rest.discard(best)
    return order


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leja_order_matches_the_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 17, 40, 64):
        pts = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        assert monomial._leja_index_order(pts) == leja_reference(list(pts)), n


def test_leja_order_takes_the_first_coincident_point_last():
    assert monomial._leja_index_order([1.0, 1.0, 0.0]) == [0, 2, 1]
    assert monomial._leja_index_order([2.0, 2.0, 2.0]) == [0, 1, 2]


def interpolate_reference(nodes, values):
    """Newton divided differences on Python complex scalars in Leja order, then Horner's rule on arrays."""
    order = leja_reference([complex(x) for x in nodes])
    xs, dd = [complex(nodes[i]) for i in order], [complex(values[i]) for i in order]
    n = len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    c = np.array([dd[n - 1]])
    for k in range(n - 2, -1, -1):
        nxt = np.zeros(len(c) + 1, dtype=complex)
        nxt[1:] += c
        nxt[:-1] -= xs[k] * c
        nxt[0] += dd[k]
        c = nxt
    return c


@pytest.mark.parametrize("deg", [5, 12, 20])
def test_interpolate_matches_the_scalar_loop(deg):
    # the node sets of acceptance criterion 8, with real and with complex values; on real nodes the
    # coefficients agree bit for bit, which keeps solve_degenerate's results as the scalar loop gave them
    rng = np.random.default_rng(deg)
    nodes = 2 * np.cos(np.pi * np.arange(1, deg + 2) / (deg + 2))
    for coords in (rng.standard_normal(deg + 1), rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)):
        values = psi_to_poly(PsiSeries(coords))(nodes)
        want = interpolate_reference(nodes, values)
        np.testing.assert_array_equal(interpolate(nodes, values).coeffs, want)


@pytest.mark.parametrize("n", [6, 13, 21])
def test_interpolate_on_complex_nodes_is_near_the_scalar_loop(n):
    # numpy's complex division rounds unlike Python's; on the unit circle, where the monomial
    # basis is well conditioned, the coefficients stay within 1e-14 relative
    rng = np.random.default_rng(n)
    nodes = np.exp(2j * np.pi * (np.arange(n) + 0.3) / n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = interpolate_reference(nodes, values)
    assert np.max(np.abs(interpolate(nodes, values).coeffs - want)) <= 1e-14 * np.max(np.abs(want))


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
    given = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
    p = Poly(given)
    assert p.degree == 1
    assert len(p.coeffs) == 2
    given[0] = 9.0
    assert p.coeffs[0] == 1.0 and not p.coeffs.flags.writeable
    assert Poly([0.0, 0.0]).degree == -1


def test_poly_arithmetic_results_are_trimmed_read_only_and_exact():
    # each result keeps the array its operation built; the coefficients are those Poly(array) gives
    rng = np.random.default_rng(5)
    a = Poly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    b = Poly(np.append(-a.coeffs[:4], rng.standard_normal(3)))
    results = {
        "a + b": (a + b, a.coeffs[:4] + b.coeffs[:4], a.coeffs[4:6] + b.coeffs[4:6], b.coeffs[6:]),
        "a - a": (a - a, np.zeros(0)),
        "-a": (-a, -a.coeffs),
        "scale": (a.scale(0.5 - 2j), (0.5 - 2j) * a.coeffs),
        "scale by 0": (a.scale(0.0), np.zeros(0)),
        "a * b": (a * b, np.convolve(a.coeffs, b.coeffs)),
        "a / psi_2": ((a * psi_poly(2)).divide_exact(psi_poly(2)), None),
    }
    for name, (got, *parts) in results.items():
        assert not got.coeffs.flags.writeable, name
        assert got.degree < 0 or got.coeffs[-1] != 0, name
        if parts[0] is not None:
            assert got == Poly(np.concatenate(parts)), name
    assert (a + b).degree == 6 and (a - a).degree == -1


def test_psi_poly_is_one_cached_read_only_poly():
    p = psi_poly(7)
    assert psi_poly(7) is p and not p.coeffs.flags.writeable
    assert psi_poly.cache_info().maxsize is not None  # bounded


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


CHECK_NAMES = {"_index", "_check_index", "_numbers", "_number", "_vector", "_read_csv", "_indices"}


def test_input_checks_live_in_errors():
    # the input contract has one home: every check helper is defined in errors.py and imported
    # from there alone, so continuous and inverse need nothing from the forward solver's module
    defined, from_discrete = {}, set()
    for path in sorted(Path(frozenarg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in CHECK_NAMES:
                defined.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "discrete":
                    from_discrete.add(path.name)
                checks = {alias.name for alias in node.names} & CHECK_NAMES
                assert not checks or (node.level, node.module) == (1, "errors"), (path.name, node.module, checks)
    assert defined == {name: {"errors.py"} for name in CHECK_NAMES}
    assert not from_discrete & {"continuous.py", "inverse.py"}


# ---------------------------------------------------------------------------
# _product_at
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factors", [1, 63, 64])
def test_product_at_one_run_is_the_plain_product(factors):
    rng = np.random.default_rng(factors)
    nu = psi_zeros(9)
    mu = rng.uniform(-2, 2, factors) + 1j * rng.uniform(-1, 1, factors)
    np.testing.assert_array_equal(_product_at(nu, mu), np.prod(nu[:, None] - mu, axis=1))


def test_product_at_stays_in_double_range_at_m_2048():
    # prod_i (nu - mu_i) over the 2048 zeros of psi_2049 is psi_2049(nu) = sin(2049 theta) / sin(theta),
    # of modest size, but the plain partial products leave double range
    n = 2049
    theta = np.pi * (np.arange(0, 2048, 97) + 0.5) / n
    nu, mu = 2.0 * np.cos(theta), psi_zeros(n).astype(complex)
    with np.errstate(all="ignore"):
        assert not np.allclose(np.prod(nu[:, None] - mu, axis=1), np.sin(n * theta) / np.sin(theta))
    got = _product_at(nu, mu)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, np.sin(n * theta) / np.sin(theta), rtol=1e-9)
