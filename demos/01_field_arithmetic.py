"""Arithmetic in F_p: factorial tables, Wilson's congruence, Lucas binomials.

Run:  python demos/01_field_arithmetic.py
"""

from fpselberg import get_context

p = 7
ctx = get_context(p)
print(f"working in F_{p}")

# Factorials are defined up to 4p; every argument >= p hits a factor of p and
# is an exact 0.  Only [0, (p-1)/2] is tabulated: the upper half of [0, p-1]
# follows from the cancellation law below (Wilson reflection).
print("\nn -> n! mod p, for n = 0..2p:")
print(" ", {n: ctx.factorial(n) for n in range(2 * p + 1)})

# Wilson: (p-1)! = -1
print(f"\n(p-1)! = {ctx.factorial(p - 1)}  (that is -1 mod {p})")

# Complementary factorials cancel to a sign: a! * (p-1-a)! = (-1)^(a+1)
for a in range(p):
    b = p - 1 - a
    product = ctx.factorial(a) * ctx.factorial(b) % p
    print(f"  {a}! * {b}! = {product}   expected (-1)^{a + 1} = {(-1) ** (a + 1) % p}")

# Lucas: binomials of arbitrarily large arguments factor through base-p digits.
print("\nLucas binomials (digit-wise, no big-integer arithmetic):")
for n, m in [(5, 1), (7, 3), (6, 1), (10**12 + 3, 10**6 + 2)]:
    print(f"  C({n}, {m}) mod {p} = {ctx.binomial(n, m)}")

# Field values are plain ints in [0, p): reduce with % p, divide by inverting.
x = 3
print(f"\nx = {x}, 1/x = {ctx.inverse(x)}, x * (1/x) = {x * ctx.inverse(x) % p}")
print(f"x ** -2 = {pow(x, -2, p)}, -x = {-x % p}, x / 5 = {x * ctx.inverse(5) % p}")
