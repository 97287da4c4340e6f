"""Eigenvalues of the continuous problem with the frozen point at pi/2.

Shows the reduced characteristic function R (exact for potentials that are
cubic between their knots), the eigenvalue search (one sign-change scan of R,
then Newton steps in every bracket, with R' from R at a complex point) with R
at the roots it returns, for the benchmark potentials.  Run as:
python demos/02_continuous_spectrum.py
"""

import math

from frozenarg import (
    constant_potential,
    continuous_spectrum,
    delta_eval,
    quadratic_potential,
    r_eval,
    tent_potential,
    zero_potential,
)

# R(rho) = 2 cos(rho pi/2) + integral; for q = 0 the zeros sit exactly at the
# odd integers and the full spectrum is lambda_n = n^2
spec0 = continuous_spectrum(zero_potential(), 9)
print("free problem:", [f"{lam:.6f}" for _, lam in spec0.odd])

# R itself, one exact Filon sum over p's cubic pieces at every rho
for make in (quadratic_potential, tent_potential, constant_potential):
    pot = make()
    row = "  ".join(f"R({rho}) = {r_eval(pot, rho).real:+.12f}" for rho in (1.5, 3.7))
    print(f"{pot.kind:9s} {row}")

# eigenvalues: odd indices from the zeros of R, even ones are (2k)^2 exactly;
# R at the returned roots shows how well they were settled
print("\nlambda_n for odd n <= 9, and max |R| at their square roots:")
for make in (quadratic_potential, tent_potential, constant_potential):
    pot = make()
    spec = continuous_spectrum(pot, 9)
    row = "  ".join(f"{lam:8.4f}" for _, lam in spec.odd)
    residual = max(abs(r_eval(pot, math.sqrt(lam))) for _, lam in spec.odd)
    print(f"{pot.kind:9s} {row}   |R| <= {residual:.1e}")

# the full characteristic function vanishes on both spectrum branches
pot = quadratic_potential()
spec = continuous_spectrum(pot, 4)
lam_odd = spec.odd[0][1]
print(f"\n|Delta| at lambda_1 = {lam_odd:.4f}: {abs(delta_eval(pot, lam_odd)):.2e}")
print(f"|Delta| at the degenerate lambda = 4: {abs(delta_eval(pot, 4.0)):.2e}")

# asymptotics: lambda_n approaches n^2, faster when p(0) = 0 and p is smooth
pot = tent_potential()
spec = continuous_spectrum(pot, 21)
print("\ntent potential, |lambda_n - n^2|:")
for n, lam in spec.odd:
    print(f"  n = {n:2d}: {abs(lam - n * n):.6f}")
