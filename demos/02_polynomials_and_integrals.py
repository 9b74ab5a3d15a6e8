"""Sparse polynomials, cycle integrals, and the Stokes-style vanishing.

The "integral over the cycle [l1, ..., lk]" of a polynomial is simply its
coefficient at x1^(l1*p-1) ... xk^(lk*p-1), read in F_p.  Two properties make
this behave like contour integration: it is linear, and it annihilates every
first partial derivative (exponents l*p are 0 mod p).

Run:  python demos/02_polynomials_and_integrals.py
"""

import random

from fpselberg import MultiPoly, fp_integral, partial_derivative

p = 7

# Build x^3 (1-x)^3 over F_7 and integrate over [1]: the coefficient of x^6.
x = MultiPoly.variable(1, 1, p)
one = MultiPoly.one(1, p)
poly = MultiPoly.monomial((3,), p=p) * (one - x) ** 3
print(f"x^3 (1-x)^3 over F_{p}: {poly}")
print(f"integral over [1] (coefficient of x^{p - 1}): {fp_integral(poly, (1,))}")

# Two variables: (x1 - x2)^6 has coefficient C(6,3) * (-1)^3 = -20 at x1^3 x2^3.
k2 = (MultiPoly.variable(1, 2) - MultiPoly.variable(2, 2)) ** 6
print(f"\ncoefficient of x1^3 x2^3 in (x1-x2)^6: {k2.coefficient((3, 3))}")

# Derivatives die under the cycle integral: exponents l*p reduce to 0 mod p.
print("\nintegrals of d/dx_i on random polynomials (all must be 0):")
rng = random.Random(42)
for trial in range(5):
    terms = {(rng.randrange(3 * p), rng.randrange(3 * p)): rng.randrange(p) for _ in range(12)}
    Q = MultiPoly(2, terms, p)
    cycle = (rng.randint(1, 3), rng.randint(1, 3))
    values = [int(fp_integral(partial_derivative(Q, i), cycle)) for i in (1, 2)]
    print(f"  trial {trial}: cycle {cycle} -> {values}")

# Exact-integer mode exists alongside F_p mode; reduction commutes with products.
exact = MultiPoly(1, {(0,): 1, (1,): -1}) ** 6
print(f"\n(1-x)^6 over Z: coefficient of x^3 = {exact.coefficient((3,))}")
print(f"reduced mod {p} it matches the F_{p} product: "
      f"{exact.reduce_mod(p) == (one - x) ** 6}")
