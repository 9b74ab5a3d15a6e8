"""Three routes to the same number: expansion, binomial summation, closed form.

The two-dimensional Selberg coefficient S(a,b,c; l1,l2) is the coefficient of
x1^(l1*p-1) x2^(l2*p-1) in (x1-x2)^(2c) x1^a (1-x1)^b x2^a (1-x2)^b.  The
package evaluates it three ways; they agree on every input, which is exactly
what `fpselberg verify --suite oracle_equiv` checks exhaustively.

Run:  python demos/03_two_dimensional_evaluators.py
"""

import itertools

from fpselberg import (
    GOLDEN_2D,
    SelbergParams,
    classify,
    eval_closed,
    selberg_bruteforce,
    selberg_direct_2d,
)

p = 7
print(f"reference points at p={p}:")
for entry in GOLDEN_2D:
    params = SelbergParams(entry.a, entry.b, entry.c, entry.p)
    brute = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2))
    direct = selberg_direct_2d(params, entry.l1, entry.l2)
    closed = eval_closed(params, entry.l1, entry.l2)
    exact = selberg_bruteforce(params.spec(2), (entry.l1, entry.l2), exact=True)
    branch = classify(params, entry.l1, entry.l2)
    print(f"  S({entry.a},{entry.b},{entry.c}; {entry.l1},{entry.l2})"
          f" = {brute} = {direct} = {closed}   [branch {branch}, integer {exact}]")
    if entry.paper_discrepancy:
        print(f"    note: a published table prints {entry.printed_value} here;"
              f" the oracle value {entry.value} is used (see fpselberg/golden.py)")

# The integer-level object underneath: exact coefficients before reduction.
params = SelbergParams(3, 4, 3, p)
print(f"\nexact integer S(3,4,3;1,1) = "
      f"{selberg_bruteforce(params.spec(2), (1, 1), exact=True)} -> "
      f"{selberg_bruteforce(params.spec(2), (1, 1))} mod {p}")

# Agreement over a whole prime, all cycles up to 4.
mismatches = 0
for a, b, c in itertools.product(range(1, p), repeat=3):
    prm = SelbergParams(a, b, c, p)
    for l1 in range(1, 5):
        for l2 in range(l1, 5):
            v = selberg_bruteforce(prm.spec(2), (l1, l2))
            if not (v == selberg_direct_2d(prm, l1, l2) == eval_closed(prm, l1, l2)):
                mismatches += 1
print(f"\nfull sweep at p={p}: {(p - 1) ** 3 * 10} evaluations, {mismatches} mismatches")
