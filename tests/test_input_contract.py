"""The input contract: each entry point raises one FrozenArgError subclass per kind of bad input.

Entries that are not numbers (for reconstruct and sampled_potential, not real numbers; text and
None among them), an input with more than one axis, an inf or NaN entry and a wrong number of
entries raise WrongCount (DegenerateData: a wrong number of known values raises
SideDataMismatch), and a frozen index m outside [1, l] raises BadIndex, where l = 2m - 1 for
reconstruct, trapz_prime_sum and solve_symmetric.  psi_poly(n) raises WrongCount where a
coefficient of psi_n lies beyond double range.

Integer arguments (grid sizes l, frozen indices m, d = gcd(m, l+1), eigenvalue and psi indices
n) take Python or numpy integers; 2.0, 1.5, "3" and None are rejected.  Each argument has one
error class for both faults, a value that is not an integer and one out of range: BadIndex for
m, NotDegenerate for d, WrongCount for the rest.

Number arguments (tol, rho, lambda, the step h, a Poly's scale factor) take one finite number;
text, None, a list, inf and NaN raise WrongCount, as does h <= 0.  continuous_spectrum caps n_max
at 2^21 before it allocates its scan.

Poly arithmetic takes another Poly (WrongCount otherwise), on either side of the operator, and
divide_exact a nonzero one (DegreeMismatch); named_potential takes one of the four names, and
anything else, a list included, raises WrongCount.  A Poly whose coefficients leave double range
(poly_from_roots, a product, a sum, a scale, an interpolation) raises WrongCount, and no numpy
overflow warning escapes on the way: every case here runs with warnings as errors.

An entry point that takes a toolkit object (a DiscreteProblem, BenchmarkPotential, Poly,
PsiSeries, DegenerateData, ReconstructionResult or Spectrum) raises WrongCount, naming the type
it got, for anything else.
"""

import math

import numpy as np
import pytest

from frozenarg import (
    BadIndex,
    DegenerateData,
    DegreeMismatch,
    DiscreteProblem,
    NotDegenerate,
    Poly,
    PsiSeries,
    SideDataMismatch,
    Spectrum,
    WrongCount,
    char_poly,
    continuous_spectrum,
    convergence_study,
    correction,
    d_eval,
    degenerate_mu,
    delta_eval,
    discrete_spectrum,
    error_report,
    free_lambdas,
    interpolate,
    named_potential,
    poly_from_roots,
    poly_roots,
    poly_to_psi,
    pq_polynomials,
    psi_eval,
    psi_mul,
    psi_poly,
    psi_to_poly,
    psi_zeros,
    quadratic_potential,
    r_eval,
    reconstruct,
    reconstruct_from_potential,
    sample_problem,
    sampled_potential,
    solve_degenerate,
    solve_nondegenerate,
    solve_symmetric,
    strip_degenerate,
    trapz_prime_sum,
)

NAN = math.nan
LEFT = DegenerateData(side="left", known_w=[0.0, 0.0], d=3)  # (l, m) = (5, 3): d = 3
PROBLEM = DiscreteProblem(l=3, m=2, w=[0.1, 0.2, 0.3])
QUADRATIC = quadratic_potential()

# (entry point, fault, call, expected subclass)
CASES = [
    ("DiscreteProblem", "nan", lambda: DiscreteProblem(l=3, m=1, w=[0.0, NAN, 0.0]), WrongCount),
    ("DiscreteProblem", "count", lambda: DiscreteProblem(l=3, m=1, w=[0.0, 0.0]), WrongCount),
    ("DiscreteProblem", "m", lambda: DiscreteProblem(l=3, m=4, w=[0.0, 0.0, 0.0]), BadIndex),
    ("DiscreteProblem", "2-d", lambda: DiscreteProblem(l=2, m=1, w=np.zeros((2, 2))), WrongCount),
    ("Spectrum", "nan", lambda: Spectrum(mu=[0.0, NAN], lam=[1.0, 2.0]), WrongCount),
    ("Spectrum", "count", lambda: Spectrum(mu=[0.0, 1.0], lam=[1.0]), WrongCount),
    ("sample_problem", "nan", lambda: sample_problem([0.0, NAN, 0.0], 1), WrongCount),
    ("sample_problem", "count", lambda: sample_problem([], 1), WrongCount),
    ("sample_problem", "m", lambda: sample_problem([0.0, 0.0], 3), BadIndex),
    ("DegenerateData", "nan", lambda: DegenerateData(side="left", known_w=[0.0, NAN], d=3), WrongCount),
    ("DegenerateData", "count", lambda: DegenerateData(side="left", known_w=[0.0], d=3), SideDataMismatch),
    ("solve_nondegenerate", "nan", lambda: solve_nondegenerate([0.5, NAN, -0.5, 1.0], 2), WrongCount),
    ("solve_nondegenerate", "count", lambda: solve_nondegenerate([0.5, -0.5, 1.0], 2, l=4), WrongCount),
    ("solve_nondegenerate", "m", lambda: solve_nondegenerate([0.5, -0.5, 1.0], 4), BadIndex),
    ("solve_nondegenerate", "empty", lambda: solve_nondegenerate([], 1), WrongCount),
    ("solve_nondegenerate", "text", lambda: solve_nondegenerate(["a", "b"], 1), WrongCount),
    ("solve_nondegenerate", "none", lambda: solve_nondegenerate(None, 1), WrongCount),
    ("solve_nondegenerate", "2-d", lambda: solve_nondegenerate(np.zeros((2, 2)), 1), WrongCount),
    ("strip_degenerate", "nan", lambda: strip_degenerate([NAN, 1.0, 1.0, -1.0, 0.5], 5, 3), WrongCount),
    ("strip_degenerate", "count", lambda: strip_degenerate([1.0, -1.0, 0.5], 5, 3), WrongCount),
    ("strip_degenerate", "m", lambda: strip_degenerate([1.0, -1.0, 0.5, 0.0, 0.0], 5, 6), BadIndex),
    ("strip_degenerate", "nan-tol", lambda: strip_degenerate([1.0, -1.0, 0.0, 0.5, 0.7], 5, 3, tol=NAN),
     WrongCount),
    ("solve_degenerate", "nan", lambda: solve_degenerate([0.5, NAN, -0.5], 3, 5, LEFT), WrongCount),
    ("solve_degenerate", "count", lambda: solve_degenerate([0.5, -0.5], 3, 5, LEFT), WrongCount),
    ("solve_degenerate", "m", lambda: solve_degenerate([0.5, -0.5, 0.1], 0, 5, LEFT), BadIndex),
    ("solve_symmetric", "nan", lambda: solve_symmetric([0.5, NAN, -0.5], 3), WrongCount),
    ("solve_symmetric", "count", lambda: solve_symmetric([0.5, -0.5], 3), WrongCount),
    ("solve_symmetric", "m", lambda: solve_symmetric([], 0), BadIndex),
    ("solve_symmetric", "2-d", lambda: solve_symmetric([[1.0, 0.5]], 1), WrongCount),
    ("trapz_prime_sum", "nan", lambda: trapz_prime_sum([NAN] * 6, 1, 5), WrongCount),
    ("trapz_prime_sum", "count", lambda: trapz_prime_sum(np.zeros(5), 1, 8), WrongCount),
    ("trapz_prime_sum", "m", lambda: trapz_prime_sum([1.0], 1, 0), BadIndex),
    ("reconstruct", "nan", lambda: reconstruct([1.0, NAN, 25.0], 3), WrongCount),
    ("reconstruct", "count", lambda: reconstruct([1.0, 9.0], 5), WrongCount),
    ("reconstruct", "m", lambda: reconstruct([], 0), BadIndex),
    ("reconstruct", "complex-list", lambda: reconstruct([1.0, 9.0 + 1j, 25.0], 3), WrongCount),
    ("reconstruct", "complex-array", lambda: reconstruct(np.array([1.0, 9.0 + 1j, 25.0]), 3), WrongCount),
    ("reconstruct", "text", lambda: reconstruct(["1.0", "9.0", "25.0"], 3), WrongCount),
    ("sampled_potential", "scalar", lambda: sampled_potential(1.0, 2.0), WrongCount),
    ("sampled_potential", "2-d", lambda: sampled_potential([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]]),
     WrongCount),
    ("sampled_potential", "complex", lambda: sampled_potential([0.0, 1.0, 2.0], [1.0, 1j, 0.0]), WrongCount),
    ("sampled_potential", "text", lambda: sampled_potential(["0", "1", "2"], [1, 2, 3]), WrongCount),
    ("interpolate", "nan", lambda: interpolate([0.0, NAN], [1.0, 2.0]), WrongCount),
    ("interpolate", "text", lambda: interpolate(["0", "1"], [1.0, 2.0]), WrongCount),
    ("interpolate", "count", lambda: interpolate([0.0, 1.0], [1.0]), WrongCount),
    ("poly_from_roots", "nan", lambda: poly_from_roots([NAN, 1.0]), WrongCount),
    ("poly_from_roots", "text", lambda: poly_from_roots(["1", "2"]), WrongCount),
    ("psi_poly", "range", lambda: psi_poly(1500), WrongCount),
    ("degenerate_mu", "m=0", lambda: degenerate_mu(5, 0), BadIndex),
    ("degenerate_mu", "m=l+2", lambda: degenerate_mu(5, 7), BadIndex),
    ("free_lambdas", "l=-1", lambda: free_lambdas(-1), WrongCount),
    ("PsiSeries", "j=0", lambda: PsiSeries([1.0, 2.0])[0], WrongCount),  # was the last coefficient
    ("PsiSeries", "j=3", lambda: PsiSeries([1.0, 2.0])[3], WrongCount),
    ("strip_degenerate", "text-tol", lambda: strip_degenerate([1.0, -1.0, 0.0, 0.5, 0.7], 5, 3, tol="x"),
     WrongCount),
    ("strip_degenerate", "none-tol", lambda: strip_degenerate([1.0, -1.0, 0.0, 0.5, 0.7], 5, 3, tol=None),
     WrongCount),
    ("r_eval", "text", lambda: r_eval(QUADRATIC, "a"), WrongCount),
    ("r_eval", "none", lambda: r_eval(QUADRATIC, None), WrongCount),
    ("r_eval", "list", lambda: r_eval(QUADRATIC, [1.0, 2.0]), WrongCount),
    ("delta_eval", "text", lambda: delta_eval(QUADRATIC, "a"), WrongCount),
    ("delta_eval", "none", lambda: delta_eval(QUADRATIC, None), WrongCount),
    ("delta_eval", "list", lambda: delta_eval(QUADRATIC, [1.0]), WrongCount),
    ("Spectrum.from_mu", "text-mu", lambda: Spectrum.from_mu(["a", "b"], 0.5), WrongCount),
    ("Spectrum.from_mu", "text-h", lambda: Spectrum.from_mu([1.0, 2.0], "a"), WrongCount),
    ("Spectrum.from_mu", "h=0", lambda: Spectrum.from_mu([1.0, 2.0], 0.0), WrongCount),  # warned divide-by-zero
    ("Spectrum.from_mu", "h<0", lambda: Spectrum.from_mu([1.0, 2.0], -0.5), WrongCount),
    ("convergence_study", "ms-not-a-list", lambda: convergence_study(QUADRATIC, None, [1]), WrongCount),
    ("convergence_study", "ns-not-a-list", lambda: convergence_study(QUADRATIC, [3, 5], None), WrongCount),
    ("d_eval", "text", lambda: d_eval(PROBLEM, "a"), WrongCount),
    ("d_eval", "nan", lambda: d_eval(PROBLEM, NAN), WrongCount),  # returned nan
    ("d_eval", "inf", lambda: d_eval(PROBLEM, [0.5, math.inf]), WrongCount),
    ("psi_eval", "text", lambda: psi_eval(3, "a"), WrongCount),
    ("Poly", "text", lambda: Poly("a"), WrongCount),
    ("Poly.__call__", "text", lambda: Poly([1, 2])("a"), WrongCount),
    ("PsiSeries", "text", lambda: PsiSeries("a"), WrongCount),
    ("error_report", "short-oracle",
     lambda: error_report(reconstruct_from_potential(QUADRATIC, 2), QUADRATIC, Spectrum(mu=[1.0], lam=[1.0])),
     WrongCount),
    ("continuous_spectrum", "n_max=1e9", lambda: continuous_spectrum(QUADRATIC, 10**9), WrongCount),
    ("Poly", "none", lambda: Poly(None), WrongCount),  # was a constant NaN polynomial
    ("Poly", "2-d", lambda: Poly([[1, 2], [3, 4]]), WrongCount),
    ("Poly", "inf", lambda: Poly([1, math.inf]), WrongCount),
    ("Poly.__add__", "number", lambda: Poly([1, 2]) + 3, WrongCount),
    ("Poly.__sub__", "number", lambda: Poly([1, 2]) - 3, WrongCount),
    ("Poly.__mul__", "number", lambda: Poly([1, 2]) * 3, WrongCount),
    ("Poly.scale", "text", lambda: Poly([1, 2]).scale("a"), WrongCount),
    ("Poly.scale", "nan", lambda: Poly([1, 2]).scale(NAN), WrongCount),  # was a NaN polynomial
    ("Poly.divide_exact", "zero", lambda: Poly([1, 2]).divide_exact(Poly.zero()), DegreeMismatch),
    ("named_potential", "list", lambda: named_potential([1]), WrongCount),
    # toolkit objects: each of these leaked AttributeError
    ("discrete_spectrum", "none", lambda: discrete_spectrum(None), WrongCount),
    ("d_eval", "problem-list", lambda: d_eval([0.1, 0.2], 0.5), WrongCount),
    ("char_poly", "int", lambda: char_poly(3), WrongCount),
    ("pq_polynomials", "none", lambda: pq_polynomials(None), WrongCount),
    ("r_eval", "potential-none", lambda: r_eval(None, 1.0), WrongCount),
    ("delta_eval", "potential-list", lambda: delta_eval([1.0], 1.0), WrongCount),
    ("continuous_spectrum", "potential-none", lambda: continuous_spectrum(None, 3), WrongCount),
    ("reconstruct_from_potential", "potential-int", lambda: reconstruct_from_potential(3, 2), WrongCount),
    ("convergence_study", "potential-none", lambda: convergence_study(None, [3, 5], [1]), WrongCount),
    ("error_report", "result-none", lambda: error_report(None, QUADRATIC), WrongCount),
    ("error_report", "potential-none", lambda: error_report(reconstruct_from_potential(QUADRATIC, 2), None),
     WrongCount),
    ("error_report", "oracle-list",
     lambda: error_report(reconstruct_from_potential(QUADRATIC, 2), QUADRATIC, [1.0, 2.0, 3.0]), WrongCount),
    ("poly_roots", "none", lambda: poly_roots(None), WrongCount),
    ("poly_to_psi", "list", lambda: poly_to_psi([1.0, 2.0]), WrongCount),
    ("poly_to_psi", "none-with-n", lambda: poly_to_psi(None, 3), WrongCount),
    ("psi_to_poly", "poly", lambda: psi_to_poly(Poly([1.0])), WrongCount),
    ("solve_degenerate", "data-none", lambda: solve_degenerate([0.5, -0.5, 0.1], 3, 5, None), WrongCount),
    # reflected operators: these leaked TypeError, and the zero polynomial times 3 returned the zero polynomial
    ("Poly.__rmul__", "number", lambda: 3 * Poly([1, 2]), WrongCount),
    ("Poly.__radd__", "number", lambda: 3 + Poly([1, 2]), WrongCount),
    ("Poly.__rsub__", "number", lambda: 3 - Poly([1, 2]), WrongCount),
    ("Poly.__mul__", "zero-times-number", lambda: Poly.zero() * 3, WrongCount),
    # coefficients beyond double range: these returned inf coefficients, with an overflow warning
    ("poly_from_roots", "overflow", lambda: poly_from_roots([1e200, 1e200]), WrongCount),
    ("Poly.__mul__", "overflow", lambda: Poly([1e200]) * Poly([1e200]), WrongCount),
    ("Poly.scale", "overflow", lambda: Poly([1e308]).scale(10), WrongCount),
    ("Poly.__add__", "overflow", lambda: Poly([1e308]) + Poly([1e308]), WrongCount),
    ("interpolate", "overflow", lambda: interpolate([0.0, 1e-10], [1e300, -1e300]), WrongCount),
]

# (entry point, integer argument, call with that argument set to v, expected subclass)
MU = [0.5, -0.5, 1.0, 0.2, 0.1]
INTEGER_ARGUMENTS = [
    ("sample_problem", "m", lambda v: sample_problem([1.0, 2.0, 3.0], v), BadIndex),
    ("psi_zeros", "n", lambda v: psi_zeros(v), WrongCount),
    ("free_lambdas", "l", lambda v: free_lambdas(v), WrongCount),
    ("DegenerateData", "d", lambda v: DegenerateData("left", [1.0], v), NotDegenerate),
    ("convergence_study", "ms", lambda v: convergence_study(quadratic_potential(), [v, 5], [1]), WrongCount),
    ("solve_nondegenerate", "m", lambda v: solve_nondegenerate(MU, v), BadIndex),
    ("degenerate_mu", "m", lambda v: degenerate_mu(5, v), BadIndex),
    ("strip_degenerate", "m", lambda v: strip_degenerate(MU, 5, v), BadIndex),
    ("solve_degenerate", "m", lambda v: solve_degenerate(MU[:3], v, 5, LEFT), BadIndex),
    ("solve_symmetric", "m", lambda v: solve_symmetric(MU[:2], v), BadIndex),
    ("trapz_prime_sum", "m", lambda v: trapz_prime_sum(np.ones(3), 1, v), BadIndex),
    ("reconstruct", "m", lambda v: reconstruct([1.0, 9.0], v), BadIndex),
    ("correction", "n", lambda v: correction(1.0, v, 3), WrongCount),
    ("continuous_spectrum", "n_max", lambda v: continuous_spectrum(quadratic_potential(), v), WrongCount),
    ("psi_eval", "n", lambda v: psi_eval(v, 0.5), WrongCount),
    ("psi_poly", "n", lambda v: psi_poly(v), WrongCount),
    ("psi_mul", "a", lambda v: psi_mul(v, 2), WrongCount),
    ("PsiSeries", "j", lambda v: PsiSeries([1.0, 2.0])[v], WrongCount),
    ("Poly.coeff", "k", lambda v: Poly([1.0, 2.0]).coeff(v), WrongCount),
]
CASES += [
    (name, f"{arg}={v!r}", lambda call=call, v=v: call(v), error)
    for name, arg, call, error in INTEGER_ARGUMENTS
    for v in (1.5, 2.0, "3", None)
]


# Messages where the subclass alone does not show the fault: each m < 1 row names the range [1, l], unbounded
# above where l = 2m - 1; None is no numbers, not a non-finite entry; 2.0 is not an integer
MESSAGES = {
    "solve_degenerate-m": r"frozen index m=0 outside \[1, 5\]$",
    "solve_symmetric-m": r"frozen index m=0 outside \[1, inf\]$",
    "trapz_prime_sum-m": r"frozen index m=0 outside \[1, inf\]$",
    "reconstruct-m": r"frozen index m=0 outside \[1, inf\]$",
    "free_lambdas-l=-1": r"grid size l=-1 outside \[0, inf\]$",
    "sample_problem-m=1.5": "frozen index m=1.5 is not an integer$",
    "DegenerateData-d=2.0": "degenerate d=2.0 is not an integer$",
    "correction-n='3'": "index n='3' is not an integer$",
    "continuous_spectrum-n_max=None": "n_max=None is not an integer$",
    "degenerate_mu-m=0": r"frozen index m=0 outside \[1, 5\]$",
    "solve_nondegenerate-none": "eigenvalues must be numbers$",
    "psi_poly-range": "coefficient beyond double range$",
    "r_eval-list": r"rho must be one number, got shape \(2,\)$",
    "Spectrum.from_mu-h=0": "step h=0.0 must be positive$",
    "convergence_study-ms-not-a-list": "grid size m must be a list of integers, got None$",
    "d_eval-nan": "mu must be finite$",
    "error_report-short-oracle": "discrete_oracle holds 1 eigenvalues, expected l = 2m - 1 = 3$",
    "continuous_spectrum-n_max=1e9": r"n_max=1000000000 outside \[1, 2097152\]$",
    "Poly-none": "polynomial coefficients must be numbers$",
    "Poly.__sub__-number": "a Poly operation needs a Poly, got int$",
    "Poly.scale-nan": "scale factor must be finite$",
    "discrete_spectrum-none": "problem must be a DiscreteProblem, got NoneType$",
    "error_report-oracle-list": "discrete_oracle must be a Spectrum, got list$",
    "Poly.__rmul__-number": "a Poly operation needs a Poly, got int$",
    "poly_from_roots-overflow": "coefficient beyond double range$",
    "named_potential-list": r"unknown potential \[1\]; expected one of \['constant', 'quadratic', 'tent', 'zero'\]$",
}
IDS = [f"{c[0]}-{c[1]}" for c in CASES]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, call, error", [(i, *c[2:]) for i, c in zip(IDS, CASES)], ids=IDS)
def test_bad_input_raises_its_subclass(case, call, error):
    with pytest.raises(error, match=MESSAGES.get(case)):
        call()


def test_stored_arrays_are_read_only_copies():
    given = np.array([0.1, 0.2, 0.3], dtype=complex)
    stored = [
        DiscreteProblem(l=3, m=2, w=given).w,
        Spectrum(mu=given, lam=given).lam,
        DegenerateData(side="right", known_w=given, d=3).known_w,
    ]
    given[0] = 9.0
    for got in stored:
        assert not got.flags.writeable
        assert got[0] == 0.1


def test_cached_psi_poly_does_not_answer_a_float():
    psi_poly(2)
    with pytest.raises(WrongCount, match="psi index n=2.0 is not an integer$"):
        psi_poly(2.0)
