"""Sparse polynomials, cycle integrals, and the Stokes-style vanishing.

The "integral over the cycle [l1, ..., lk]" of a polynomial is simply its
coefficient at x1^(l1*p-1) ... xk^(lk*p-1), read in F_p.  Two properties make
this behave like contour integration: it is linear, and it annihilates every
first partial derivative (exponents l*p are 0 mod p).

Run:  python demos/02_polynomials_and_integrals.py
"""

import random

from fpselberg import (
    MasterPolySpec,
    MultiPoly,
    beta_closed,
    fp_integral,
    get_context,
    partial_derivative,
    selberg_bruteforce,
)

p = 7

# x^3 (1-x)^3 is the one-variable master polynomial with a = b = 3; its
# integral over [1] is the coefficient of x^6, which the beta closed form predicts.
one_dim = selberg_bruteforce(MasterPolySpec(1, 3, 3, 0, p), (1,))
print(f"x^3 (1-x)^3 over F_{p}, integral over [1] (coefficient of x^{p - 1}): {one_dim}")
print(f"beta closed form -3! 3! / {3 + 3 - p + 1}!: {beta_closed(get_context(p), 3, 3)}")

# Two variables: x1^3 x2^3 (x1 - x2)^6 is the master polynomial with a = c = 3,
# b = 0.  Its coefficient at x1^6 x2^6 is C(6,3) * (-1)^3 = -20.
spec = MasterPolySpec(2, 3, 0, 3, p)
two_dim = selberg_bruteforce(spec, (1, 1))
print(f"\ncoefficient of x1^6 x2^6 in x1^3 x2^3 (x1-x2)^6 over F_{p}: {two_dim}")

# Derivatives die under the cycle integral: exponents l*p reduce to 0 mod p.
print("\nintegrals of d/dx_i on random polynomials (all must be 0):")
rng = random.Random(42)
for trial in range(5):
    terms = {(rng.randrange(3 * p), rng.randrange(3 * p)): rng.randrange(p) for _ in range(12)}
    Q = MultiPoly(2, terms, p)
    cycle = (rng.randint(1, 3), rng.randint(1, 3))
    values = [fp_integral(partial_derivative(Q, i), cycle) for i in (1, 2)]
    print(f"  trial {trial}: cycle {cycle} -> {values}")

# The same expansion over Z keeps the integer coefficient; reducing it mod p
# gives the F_p value.
exact = selberg_bruteforce(spec, (1, 1), exact=True)
print(f"\nthe same coefficient over Z: {exact}")
print(f"reduced mod {p} it matches the F_{p} value: {exact % p == two_dim}")
