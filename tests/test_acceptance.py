"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and enforces its wall-clock budget.  Run via:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import pytest

from fpselberg.fp_poly import MultiPoly, fp_integral, partial_derivative
from fpselberg.golden import GOLDEN_2D
from fpselberg.modp_arith import get_context
from fpselberg.morris_ct import (
    MorrisParams,
    morris_ct_bruteforce,
    morris_lhs_symmetric_form,
    morris_rhs,
    selberg_via_morris,
)
from fpselberg.selberg_core import (
    MasterPolySpec,
    SelbergParams,
    beta_closed,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_nd_closed,
)
from fpselberg.selberg2d_closed import (
    Branch,
    classify,
    condition_set,
    eval_closed,
    relations_check,
    skew_symmetry_check,
)
from fpselberg.cli import main as cli_main

from reference_impl import all_triples, ref_integral, ref_univariate

GRID_PRIMES = (3, 5, 7, 11, 13)
CYCLES = [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)]


def _report(number, name, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} "
          f"({elapsed:.2f}s / budget {budget:.0f}s, {len(failures)} failures)")
    assert not failures, failures[:10]
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_golden_values():
    start = time.perf_counter()
    failures = []
    expectations = {(7, 3, 4, 3, 1, 1): 1, (7, 6, 6, 6, 2, 2): 5, (7, 6, 6, 3, 2, 2): 5}
    for (p, a, b, c, l1, l2), want in expectations.items():
        params = SelbergParams(a, b, c, p)
        for name, got in (("closed", eval_closed(params, l1, l2)),
                          ("brute", selberg_bruteforce(params.spec(2), (l1, l2)))):
            if got != want:
                failures.append((name, p, a, b, c, l1, l2, int(got), want))
    flagged = selberg_bruteforce(SelbergParams(6, 6, 3, 7).spec(2), (2, 2), exact=True)
    if flagged != -1080:
        failures.append(("integer oracle", flagged))
    entry = next(e for e in GOLDEN_2D if (e.a, e.b, e.c, e.l1) == (6, 6, 3, 2))
    if not (entry.paper_discrepancy and entry.printed_value == 2 and entry.value == 5
            and entry.integer_value == -1080):
        failures.append(("discrepancy flag not recorded", entry))
    _report(1, "golden values + recorded discrepancy", failures, time.perf_counter() - start, 1.0)


def test_criterion_02_exhaustive_oracle_soundness():
    start = time.perf_counter()
    failures = []
    for p in GRID_PRIMES:
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            spec = params.spec(2)
            for l1, l2 in CYCLES:
                bf = selberg_bruteforce(spec, (l1, l2))
                if not (bf == selberg_direct_2d(params, l1, l2) == eval_closed(params, l1, l2)):
                    failures.append((p, a, b, c, l1, l2))
    _report(2, "closed = direct = bruteforce on the full grid", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_03_classifier_totality_and_zero_branches():
    start = time.perf_counter()
    failures = []
    for p in GRID_PRIMES:
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            spec = params.spec(2)
            for l1, l2 in CYCLES:
                try:
                    branch = classify(params, l1, l2)  # must never hit the unreachable guard
                except Exception as exc:  # noqa: BLE001 - any escape is a failure
                    failures.append((p, a, b, c, l1, l2, repr(exc)))
                    continue
                if branch.is_zero and selberg_bruteforce(spec, (l1, l2)) != 0:
                    failures.append((p, a, b, c, l1, l2, str(branch)))
    _report(3, "classifier total, zero branches match brute force", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_04_nonvanishing_iff_claims():
    start = time.perf_counter()
    failures = []
    for p in GRID_PRIMES:
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            t11 = classify(params, 1, 1)
            if t11 in (Branch.C11_i, Branch.C11_ii):
                if bool(eval_closed(params, 1, 1)) != (2 * c < p):
                    failures.append((p, a, b, c, str(t11)))
            if classify(params, 2, 2) == Branch.C22_ii:
                if not eval_closed(params, 2, 2):
                    failures.append((p, a, b, c, "C22_ii zero"))
    _report(4, "non-vanishing iff 2c<p (C11) and always (C22_ii)", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_05_relations():
    start = time.perf_counter()
    failures = []
    for p in (5, 7, 11, 13):
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            report = relations_check(params)
            if report.condition_set is None:
                if not report.uniqueness_holds:
                    failures.append((p, a, b, c, "uniqueness"))
                continue
            if not report.relation_holds:
                failures.append((p, a, b, c, report.condition_set))
                continue
            # the head value must equal its closed form (exc1/exc2/exc3 shapes)
            head, expected_branch = {
                "R1": ((1, 1), Branch.C11_ii),
                "R2": ((2, 2), Branch.C22_i),
                "R3": ((2, 2), Branch.C22_ii),
            }[report.condition_set]
            if classify(params, *head) != expected_branch:
                failures.append((p, a, b, c, "head branch"))
            if eval_closed(params, *head) != report.values[head]:
                failures.append((p, a, b, c, "head closed form"))
    _report(5, "R1/R2/R3 relations + uniqueness outside", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_06_skew_symmetry_coefficients():
    start = time.perf_counter()
    failures = []
    checked = 0
    for a, b, c in all_triples(7):
        params = SelbergParams(a, b, c, 7)
        if condition_set(params) != "R3":
            continue
        checked += 1
        if skew_symmetry_check(params) is not True:
            failures.append((a, b, c))
    if checked == 0:
        failures.append(("no R3 triples found at p=7",))
    _report(6, f"skew-symmetry coefficient identities ({checked} R3 triples)", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_07_recurrences():
    start = time.perf_counter()
    failures = []
    for p in (5, 7, 11):
        ctx = get_context(p)
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            for cycle in [(1, 1), (1, 2), (2, 2), (1, 3)]:
                s = selberg_bruteforce(params.spec(2), cycle)
                s1 = moment_integral(params, cycle, "S1")
                s2 = moment_integral(params, cycle, "S2")
                if a + 1 < p:
                    up = selberg_bruteforce(SelbergParams(a + 1, b, c, p).spec(2), cycle)
                    if s1 * (a + 1) % p != up * (2 * (a + b + c + 2)) % p:
                        failures.append((p, a, b, c, cycle, "Ao1"))
                if s * (2 * (a + c + 1)) % p != s1 * (a + b + 2 * c + 2) % p:
                    failures.append((p, a, b, c, cycle, "Ao2"))
                if b + 1 < p:
                    up = selberg_bruteforce(SelbergParams(a, b + 1, c, p).spec(2), cycle)
                    if s2 * (b + 1) % p != up * (2 * (a + b + c + 2)) % p:
                        failures.append((p, a, b, c, cycle, "Ao3"))
                if s * (2 * (b + c + 1)) % p != s2 * (a + b + 2 * c + 2) % p:
                    failures.append((p, a, b, c, cycle, "Ao4"))
                denom = (a + b + c + 1) * (a + b + 2 * c + 1) % p
                if denom:
                    if a >= 2:
                        prev = selberg_bruteforce(SelbergParams(a - 1, b, c, p).spec(2), cycle)
                        if s != prev * (a * (a + c)) * ctx.inverse(denom) % p:
                            failures.append((p, a, b, c, cycle, "Ar1"))
                    if b >= 2:
                        prev = selberg_bruteforce(SelbergParams(a, b - 1, c, p).spec(2), cycle)
                        if s != prev * (b * (b + c)) * ctx.inverse(denom) % p:
                            failures.append((p, a, b, c, cycle, "Ar2"))
    _report(7, "moment recurrences Ao1-Ao4 and ratio forms Ar1-Ar2", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_08_ndimensional_formula():
    start = time.perf_counter()
    failures = []
    for p in (5, 7, 11):
        ctx = get_context(p)
        for a in range(p):
            for b in range(p):
                if a + b >= p - 1 and selberg_nd_closed(ctx, 1, a, b, 0) != beta_closed(ctx, a, b):
                    failures.append((p, a, b, "n=1"))
        for n in (2, 3):
            for a in range(2 * p):
                for b in range(2 * p):
                    for c in range(p):
                        if not (p - 1 <= a + b + (n - 1) * c
                                and a + b + (2 * n - 2) * c < 2 * p - 1):
                            continue
                        got = selberg_nd_closed(ctx, n, a, b, c)
                        brute = selberg_bruteforce(MasterPolySpec(n, a, b, c, p), (1,) * n)
                        if got != brute:
                            failures.append((p, n, a, b, c, int(got), int(brute)))
                        if n == 2 and 0 < a < p and 0 < b < p and 0 < c < p:
                            params = SelbergParams(a, b, c, p)
                            if classify(params, 1, 1) == Branch.C11_i:
                                if got != eval_closed(params, 1, 1):
                                    failures.append((p, n, a, b, c, "vs C11_i"))
    _report(8, "n-dimensional closed form (n=1,2,3) vs expansion", failures,
            time.perf_counter() - start, 120.0)


def test_criterion_09_morris_identity_and_bridge():
    start = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        for alpha, beta, gamma in itertools.product(range(4), repeat=3):
            mp = MorrisParams(n, alpha, beta, gamma)
            ct = morris_ct_bruteforce(mp)
            if ct != morris_rhs(mp):
                failures.append((n, alpha, beta, gamma, "identity"))
            if ct != morris_lhs_symmetric_form(mp):
                failures.append((n, alpha, beta, gamma, "form equivalence"))
    for p in (5, 7):
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            for l in (1, 2):
                if a + b + c < l * p - 1 or a + c > l * p - 1:
                    continue
                via = selberg_via_morris(params, l)
                if via % p != int(selberg_bruteforce(params.spec(2), (l, l))):
                    failures.append((p, a, b, c, l, "bridge"))
    _report(9, "Morris identity, form equivalence, Selberg bridge", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_10_foundations():
    import random

    start = time.perf_counter()
    failures = []
    for p in GRID_PRIMES:
        ctx = get_context(p)
        if ctx.factorial(p - 1) != p - 1:
            failures.append((p, "wilson"))
        for a in range(p):
            if ctx.factorial(a) * ctx.factorial(p - 1 - a) % p != (-1) ** (a + 1) % p:
                failures.append((p, a, "cancellation"))
        for a in range(1, p):
            for b in range(1, p):
                if a + b >= p:
                    lhs = b * ctx.binomial(b - 1, p - a - 1) % p
                    rhs = ((-1) ** (a + 1) * ctx.factorial(a) * ctx.factorial(b)
                           * ctx.inverse(ctx.factorial(a + b - p))) % p
                    if lhs != rhs:
                        failures.append((p, a, b, "shift identity"))
        for n in range(4 * p + 1):
            for m in range(n + 1):
                if ctx.binomial(n, m) != math.comb(n, m) % p:
                    failures.append((p, n, m, "lucas vs bignum"))
        for a in range(p):
            for b in range(p):
                if beta_closed(ctx, a, b) != ref_integral(ref_univariate(a, b, 0, 1), p, (1,)):
                    failures.append((p, a, b, "beta vs 1-D brute force"))
    rng = random.Random(1031)
    for _ in range(200):
        p = rng.choice(GRID_PRIMES)
        k = rng.randint(1, 2)
        terms = {tuple(rng.randrange(3 * p) for _ in range(k)): rng.randrange(p)
                 for _ in range(rng.randint(1, 20))}
        poly = MultiPoly(k, terms, p)
        cycle = tuple(rng.randint(1, 3) for _ in range(k))
        for i in range(1, k + 1):
            if fp_integral(partial_derivative(poly, i), cycle) != 0:
                failures.append((p, terms, "stokes"))
    _report(10, "Wilson/cancellation/Lucas/beta/Stokes foundations", failures,
            time.perf_counter() - start, 60.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_criterion_11_sweep_determinism(tmp_path, fmt, capsys):
    start = time.perf_counter()
    outputs = []
    for jobs in ("1", "3"):
        path = tmp_path / f"sweep_{fmt}_{jobs}"
        code = cli_main(["sweep", "--primes", "3,5,7,11,13", "--format", fmt,
                         "--jobs", jobs, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    failures = [] if outputs[0] == outputs[1] else [("outputs differ", fmt)]
    capsys.readouterr()
    _report(11, f"sweep determinism across --jobs ({fmt})", failures,
            time.perf_counter() - start, 60.0)
