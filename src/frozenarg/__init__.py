"""Forward/inverse spectral toolkit for the frozen-argument Sturm-Liouville problem.

Layers:

* :mod:`frozenarg.chebypoly` - the monic second-kind-Chebyshev basis engine
  (conversions, products, the psi-grid DST-I, interpolation, root finding);
* :mod:`frozenarg.discrete` - the finite-difference system, its characteristic
  polynomial and spectrum;
* :mod:`frozenarg.inverse` - recovery of the coefficients from spectra
  (non-degenerate, degenerate, symmetric);
* :mod:`frozenarg.continuous` - the continuous problem at a = pi/2 and the
  benchmark potentials;
* :mod:`frozenarg.reconstruct` - correction terms, potential reconstruction
  from finitely many eigenvalues, error tables, convergence harness;
* :mod:`frozenarg.cli` - the ``frozenarg`` command.
"""

from .chebypoly import (
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
    BoundaryPolys,
    DiscreteProblem,
    Spectrum,
    char_poly,
    d_eval,
    discrete_spectrum,
    free_lambdas,
    pq_polynomials,
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
