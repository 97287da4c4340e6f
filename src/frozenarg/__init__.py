"""Forward/inverse spectral toolkit for the frozen-argument Sturm-Liouville problem.

Layers:

* :mod:`frozenarg.chebypoly` - the psi grid every pipeline runs on: the zeros
  of the monic second-kind-Chebyshev basis psi_n, the DST-I on them, the
  secular transform pair and the one Aberth iteration;
* :mod:`frozenarg.monomial` - polynomials held by coefficients (monomial and
  psi series: conversions, products, interpolation, root finding), the
  characteristic polynomial and the monomial degenerate inverse;
* :mod:`frozenarg.discrete` - the finite-difference system and its spectrum;
* :mod:`frozenarg.inverse` - recovery of the coefficients from spectra
  (non-degenerate, degenerate, symmetric);
* :mod:`frozenarg.continuous` - the continuous problem at a = pi/2 and the
  benchmark potentials;
* :mod:`frozenarg.reconstruct` - correction terms, potential reconstruction
  from finitely many eigenvalues, error tables, convergence harness;
* :mod:`frozenarg.errors` - the error classes and every check of the input contract;
* :mod:`frozenarg.cli` - the ``frozenarg`` command.
"""

from .chebypoly import psi_zeros
from .continuous import (
    BenchmarkPotential,
    ContinuousSpectrum,
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
from .discrete import (
    DiscreteProblem,
    Spectrum,
    d_eval,
    discrete_spectrum,
    free_lambdas,
    sample_problem,
)
from .errors import (
    BadIndex,
    BracketFailure,
    ConfigError,
    DegenerateConfiguration,
    DegreeMismatch,
    DuplicateNode,
    FrozenArgError,
    InexactDivision,
    NoConvergence,
    NotDegenerate,
    QuadratureFailure,
    SideDataMismatch,
    WrongCount,
)
from .inverse import (
    DegenerateData,
    degenerate_mu,
    solve_degenerate,
    solve_nondegenerate,
    solve_symmetric,
    strip_degenerate,
)
from .monomial import (
    BoundaryPolys,
    Poly,
    PsiSeries,
    char_poly,
    interpolate,
    poly_from_roots,
    poly_roots,
    poly_to_psi,
    pq_polynomials,
    psi_eval,
    psi_mul,
    psi_poly,
    psi_to_poly,
)
from .reconstruct import (
    ConvergenceStudy,
    ErrorReport,
    ReconstructionResult,
    convergence_study,
    correction,
    error_report,
    reconstruct,
    reconstruct_from_potential,
    trapz_prime_sum,
)

__version__ = "0.1.0"
