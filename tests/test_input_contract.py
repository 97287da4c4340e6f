"""The input contract: each entry point raises one FrozenArgError subclass per kind of bad input.

Entries that are not numbers (for reconstruct and sampled_potential, not real numbers), an input
with more than one axis, an inf or NaN entry and a wrong number of entries raise WrongCount
(DegenerateData: a wrong number of known values raises SideDataMismatch), and a frozen index m
outside [1, l] raises BadIndex, where l = 2m - 1 for reconstruct, trapz_prime_sum and
solve_symmetric.
"""

import math

import numpy as np
import pytest

from frozenarg import (
    BadIndex,
    DegenerateData,
    DiscreteProblem,
    SideDataMismatch,
    Spectrum,
    WrongCount,
    degenerate_mu,
    reconstruct,
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
    ("sampled_potential", "scalar", lambda: sampled_potential(1.0, 2.0), WrongCount),
    ("sampled_potential", "2-d", lambda: sampled_potential([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]]),
     WrongCount),
    ("sampled_potential", "complex", lambda: sampled_potential([0.0, 1.0, 2.0], [1.0, 1j, 0.0]), WrongCount),
    ("degenerate_mu", "m=0", lambda: degenerate_mu(5, 0), BadIndex),
    ("degenerate_mu", "m=l+2", lambda: degenerate_mu(5, 7), BadIndex),
]


# The message of each m < 1 row: the range [1, l], or the bound m misses where l = 2m - 1 leaves the range empty
BELOW_ONE = {
    "solve_degenerate-m": r"frozen index m=0 outside \[1, 5\]$",
    "solve_symmetric-m": "frozen index m=0 must be at least 1$",
    "trapz_prime_sum-m": "frozen index m=0 must be at least 1$",
    "reconstruct-m": "frozen index m=0 must be at least 1$",
    "degenerate_mu-m=0": r"frozen index m=0 outside \[1, 5\]$",
}
IDS = [f"{c[0]}-{c[1]}" for c in CASES]


@pytest.mark.parametrize("case, call, error", [(i, *c[2:]) for i, c in zip(IDS, CASES)], ids=IDS)
def test_bad_input_raises_its_subclass(case, call, error):
    with pytest.raises(error, match=BELOW_ONE.get(case)):
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
