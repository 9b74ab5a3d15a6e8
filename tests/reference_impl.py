"""Naive reference implementations used as independent oracles in tests.

Everything here is deliberately primitive: dict-based term-by-term
convolution with exact integer coefficients and stdlib binomials, sharing no
code path with the package's dense kernels or table-driven arithmetic.
"""

from __future__ import annotations

import itertools
from math import comb

PRIMES = (3, 5, 7, 11, 13)


def all_triples(p: int):
    return itertools.product(range(1, p), repeat=3)


def ref_is_prime(n: int) -> bool:
    """Trial division; fine up to about 10^12."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_at_or_above(n: int) -> int:
    while not ref_is_prime(n):
        n += 1
    return n


def ref_mul(t1: dict, t2: dict) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(t: dict, e: int, num_vars: int) -> dict:
    out = {(0,) * num_vars: 1}
    for _ in range(e):
        out = ref_mul(out, t)
    return out


def ref_reduce(t: dict, p: int) -> dict:
    out = {e: c % p for e, c in t.items()}
    return {e: c for e, c in out.items() if c}


def ref_univariate(a: int, b: int, var: int, num_vars: int) -> dict:
    """x_var^a * (1 - x_var)^b as exact terms (var is 0-based)."""
    terms = {}
    for k in range(b + 1):
        exps = tuple(a + k if i == var else 0 for i in range(num_vars))
        terms[exps] = (-1) ** k * comb(b, k)
    return terms


def ref_cross(i: int, j: int, e: int, num_vars: int) -> dict:
    """(x_i - x_j)^e as exact terms (0-based indices)."""
    terms = {}
    for k in range(e + 1):
        exps = tuple((e - k if t == i else k) if t in (i, j) else 0 for t in range(num_vars))
        terms[exps] = (-1) ** k * comb(e, k)
    return terms


def ref_phi(n: int, a: int, b: int, c: int) -> dict:
    """Exact expansion of the master polynomial in n variables."""
    out = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            out = ref_mul(out, ref_cross(i, j, 2 * c, n))
    for i in range(n):
        out = ref_mul(out, ref_univariate(a, b, i, n))
    return out


def ref_selberg(n: int, a: int, b: int, c: int, p: int, cycle) -> int:
    """Exact integer coefficient of Phi_n at the cycle exponents."""
    target = tuple(l * p - 1 for l in cycle)
    return ref_phi(n, a, b, c).get(target, 0)


# -- sweep renderers ---------------------------------------------------------------
# The csv and text sweep renderers as they were before sweep output was streamed:
# whole-list f-string joins over the row dicts.

SWEEP_CSV_HEADER = "p,a,b,c,l1,l2,branch,value,in_R1,in_R2,in_R3"


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def ref_render_sweep_csv(rows: list) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['p']},{r['a']},{r['b']},{r['c']},{r['l1']},{r['l2']},"
            f"{r['branch']},{r['value']},{_bool_str(r['in_R1'])},"
            f"{_bool_str(r['in_R2'])},{_bool_str(r['in_R3'])}"
        )
    return "\n".join(lines) + "\n"


def ref_render_sweep_text(rows: list) -> str:
    lines = [f"{'p':>3} {'a':>3} {'b':>3} {'c':>3} {'l1':>2} {'l2':>2} "
             f"{'branch':<22} {'value':>5} {'R1':>5} {'R2':>5} {'R3':>5}"]
    for r in rows:
        lines.append(
            f"{r['p']:>3} {r['a']:>3} {r['b']:>3} {r['c']:>3} {r['l1']:>2} {r['l2']:>2} "
            f"{r['branch']:<22} {r['value']:>5} {_bool_str(r['in_R1']):>5} "
            f"{_bool_str(r['in_R2']):>5} {_bool_str(r['in_R3']):>5}"
        )
    return "\n".join(lines) + "\n"
