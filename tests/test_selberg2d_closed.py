import inspect
import itertools
import math
import operator
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg import selberg2d_closed
from fpselberg.errors import DomainError, GuardError
from fpselberg.modp_arith import FpContext, get_context
from fpselberg.selberg_core import (
    SelbergParams,
    _direct_coefficient,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
)
from fpselberg.selberg2d_closed import (
    _ROWS,
    RELATION_CYCLES,
    Branch,
    _branch,
    _closed_value,
    _formula,
    classify,
    condition_set,
    describe,
    eval_closed,
    in_condition_sets,
    relations_check,
    relations_from_values,
    skew_symmetry_check,
)

from reference_impl import (PRIMES, ReadGrid, all_triples, grid_value, prime_at_or_above, ref_branch, ref_closed_value,
                            ref_cross, ref_direct_coefficient, ref_direct_runs, ref_mul, ref_univariate)


def branch(p, a, b, c, l1, l2) -> Branch:
    return classify(SelbergParams(a, b, c, p), l1, l2)


def report_ok(report) -> bool:
    """The relation inside a condition set, uniqueness outside all of them."""
    return report.relation_holds if report.condition_set else report.uniqueness_holds


def test_classify_examples():
    assert branch(7, 3, 4, 3, 1, 1) == Branch.C11_ii
    assert branch(7, 1, 1, 1, 1, 1) == Branch.NOT_APPLICABLE_zero
    assert branch(7, 6, 6, 6, 2, 3) == Branch.C23_zero
    assert branch(5, 1, 1, 1, 1, 2) == Branch.C12_delta_neg_zero
    assert branch(5, 2, 3, 4, 1, 4) == Branch.OTHER_zero
    assert branch(7, 6, 6, 3, 2, 2) == Branch.C22_i
    assert type(branch(7, 6, 6, 3, 2, 2)) is Branch


def test_classify_canonicalizes_cycle_order():
    params = SelbergParams(3, 4, 3, 7)
    assert classify(params, 2, 1) == classify(params, 1, 2)
    # Every public point query checks its cycle itself.
    queries = (classify, eval_closed, describe, selberg_direct_2d,
               lambda params, l1, l2: selberg_bruteforce(params.spec(2), (l1, l2)))
    for cycle in ((0, 1), (2, -1), (1.0, 1)):
        message = "^" + re.escape(f"cycle entries must be positive integers, got {cycle}") + "$"
        for query in queries:
            with pytest.raises(ValueError, match=message):
                query(params, *cycle)


def test_classify_is_total_and_branches_mutually_consistent():
    seen = set()
    for p in PRIMES:
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            for l1 in range(1, 5):
                for l2 in range(l1, 5):
                    # GuardError would fail the test
                    seen.add(((l1, l2), classify(params, l1, l2)))
    assert {b for _, b in seen} == set(Branch)
    # degree-infeasibility vanishing occurs for both diagonal cycles
    assert ((1, 1), Branch.NOT_APPLICABLE_zero) in seen
    assert ((2, 2), Branch.NOT_APPLICABLE_zero) in seen


ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CYCLES_TO_5 = tuple(itertools.product(range(1, 6), repeat=2))  # both orders of every l1, l2 <= 5
SORTED_CYCLES_TO_5 = tuple(itertools.combinations_with_replacement(range(1, 6), 2))
# ref_branch sorts the cycle first, so it is read once per sorted cycle and spread to both orders.
_BOTH_ORDERS = operator.itemgetter(*(SORTED_CYCLES_TO_5.index(tuple(sorted(cycle))) for cycle in CYCLES_TO_5))


def _first_disagreement_with_the_if_chain(classifier, primes) -> tuple | None:
    """The first (p, a, b, c, cycle, classifier's branch, ref_branch's) where they differ."""
    for p in primes:
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            got = tuple(classifier(params, *cycle) for cycle in CYCLES_TO_5)
            want = _BOTH_ORDERS([ref_branch(params, *cycle) for cycle in SORTED_CYCLES_TO_5])
            if got != want:
                return next((p, a, b, c, *diff) for diff in zip(CYCLES_TO_5, got, want) if diff[1] != diff[2])
    return None


def test_classifier_table_matches_the_if_chain():
    # _branch is classify after its cycle check: the table dispatch, at every point p <= 31.
    assert _first_disagreement_with_the_if_chain(_branch, ODD_PRIMES_TO_31) is None
    assert _first_disagreement_with_the_if_chain(classify, PRIMES) is None


def test_one_entry_table_mutation_is_caught(monkeypatch):
    # C12_i read as a + c < p - 1: the points with a + c = p - 1 move to a later branch.
    source = inspect.getsource(selberg2d_closed._c12)
    assert source.count("if a + c <= p - 1:") == 1
    mutant = {}
    exec(source.replace("if a + c <= p - 1:", "if a + c < p - 1:"), vars(selberg2d_closed), mutant)
    monkeypatch.setitem(selberg2d_closed._CYCLE_CLASSES, (1, 2), ("C12", mutant["_c12"]))
    p, a, b, c, cycle, got, want = _first_disagreement_with_the_if_chain(classify, ODD_PRIMES_TO_31)
    assert sorted(cycle) == [1, 2] and a + c == p - 1 and want == Branch.C12_i != got


@pytest.mark.parametrize("b", list(Branch))
def test_every_branch_has_a_reason_or_a_formula(b):
    params = SelbergParams(3, 4, 3, 7)
    assert b.is_zero == b.value.endswith("_zero")
    row = _ROWS[b]
    if b.is_zero:
        assert row.reason and isinstance(row.over_z, bool) and not hasattr(row, "template")
        with pytest.raises(GuardError):
            _formula(b, params)
    else:
        assert row.template and not hasattr(row, "reason")
        sign, top, bottom = _formula(b, params)
        assert sign in (1, -1) and top and bottom


# A factorial in a template: (...)! or a bare a!, b! or c!.
_TEMPLATE_FACTORIAL = re.compile(r"\(([^()]*)\)!|\b([abc])!")


def _template_reading(template: str):
    """The sign and the numerator and denominator factorial arguments a template writes, as
    code over a, b, c, p.  Its terms are joined by " * ", each one numerator / denominator or
    the sign (-1)^(...); a leading "-" negates, and 2c reads as 2*c."""
    def code(text):
        return compile(re.sub(r"(\d)([abcp])", r"\1*\2", text), template, "eval")

    sign, top, bottom = [code("-1" if template.startswith("-") else "1")], [], []
    for term in template.lstrip("-").split(" * "):
        if term.startswith("(-1)^"):
            sign.append(code(f"(-1) ** {term[len('(-1)^'):]}"))
            continue
        num, _, den = term.partition("/")
        for part, args in ((num, top), (den, bottom)):
            args += [code(group or letter) for group, letter in _TEMPLATE_FACTORIAL.findall(part)]
    return sign, top, bottom


def _template_mismatches(rows) -> int:
    """How many formula-branch points of the default grid have a formula that differs from
    what the branch's template writes."""
    readings = {b: _template_reading(row.template) for b, row in rows.items() if not b.is_zero}
    mismatches = 0
    for p in PRIMES:
        for a, b, c in all_triples(p):
            params, env = SelbergParams(a, b, c, p), {"a": a, "b": b, "c": c, "p": p}
            for cycle in itertools.combinations_with_replacement(range(1, 5), 2):
                br = classify(params, *cycle)
                if br.is_zero:
                    continue
                sign, top, bottom = ([eval(arg, env) for arg in args] for args in readings[br])
                mismatches += (math.prod(sign), top, bottom) != rows[br].formula(a, b, c, p)
    return mismatches


def test_every_template_writes_its_formula():
    assert _template_mismatches(_ROWS) == 0


def test_a_template_that_misstates_one_argument_is_caught():
    # C11_ii's (b+c-p)! written as (b+c)!: each of its 286 points on the default grid differs.
    row = _ROWS[Branch.C11_ii]
    assert row.template.count("(b+c-p)!") == 1
    wrong = row._replace(template=row.template.replace("(b+c-p)!", "(b+c)!"))
    assert _template_mismatches({**_ROWS, Branch.C11_ii: wrong}) == 286


class _Linear:
    """A linear form in (a, b, c, p) plus a constant, held as its five coefficients.  Only form + x,
    form - x and integer * form are defined, which is all a formula row does with its arguments."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @staticmethod
    def of(x):
        return x if isinstance(x, _Linear) else _Linear((0, 0, 0, 0, x))

    def __add__(self, other):
        return _Linear(map(operator.add, self.coeffs, _Linear.of(other).coeffs))

    def __sub__(self, other):
        return self + -1 * _Linear.of(other)

    def __rmul__(self, k):
        return _Linear(k * x for x in self.coeffs) if type(k) is int else NotImplemented

    def at(self, a, b, c):
        """The value at (a, b, c) with p = 0, as every form is mod p."""
        ka, kb, kc, _, k = self.coeffs
        return ka * a + kb * b + kc * c + k


_A, _B, _C, _P = (_Linear(int(i == j) for j in range(5)) for i in range(4))
# Each shift moves one of (a, b, c) up by one: (its index, left factors, right factors) of
# S(shifted) * left = right * S.  a: Ar1 moved up by one; b: Ar2, the same with a and b swapped;
# c: Selberg's c-shift at n = 2 (ROADMAP item 17).
_SHIFTS = {
    "a": (0, [_A + _B + _C + 2, _A + _B + 2 * _C + 2], [_A + 1, _A + _C + 1]),
    "b": (1, [_A + _B + _C + 2, _A + _B + 2 * _C + 2], [_B + 1, _B + _C + 1]),
    "c": (2, [_A + _B + _C + 2, _A + _B + 2 * _C + 2, _A + _B + 2 * _C + 3],
          [_Linear.of(2), 2 * _C + 1, _A + _C + 1, _B + _C + 1]),
}
# Formula branches no shift stays in, with the reason.
_SHIFT_EXEMPT = {
    Branch.C12_delta0_formula: "delta = 0 is a slice every shift leaves; its sign is (-1)^(b+1)",
}


def _shift_failures(rows) -> list:
    """The (branch, shift) pairs whose closed form does not move under the shift as the
    recurrence says.  With p = 0, (L+s)!/L! = (L+1)...(L+s) for a form L whose coefficient on
    the shifted variable is s, so each pair is a polynomial identity in Z[a, b, c], checked
    exactly on a grid {0..d}^3 with d at least its degree."""
    failures = []
    for br, row in rows.items():
        if br.is_zero or br in _SHIFT_EXEMPT:
            continue
        sign, top, bottom = row.formula(_A, _B, _C, _P)
        assert sign in (1, -1)  # a ratio cannot see it
        for name, (var, left, right) in _SHIFTS.items():
            assert all(form.coeffs[var] >= 0 for form in top + bottom)
            left = left + [form + j for form in top for j in range(1, form.coeffs[var] + 1)]
            right = right + [form + j for form in bottom for j in range(1, form.coeffs[var] + 1)]
            grid = itertools.product(range(max(len(left), len(right)) + 1), repeat=3)
            if any(math.prod(f.at(*x) for f in left) != math.prod(f.at(*x) for f in right) for x in grid):
                failures.append((br, name))
    return failures


def test_closed_forms_follow_the_shifts_at_every_prime():
    assert _shift_failures(_ROWS) == []
    assert {b for b in Branch if not b.is_zero} - set(_SHIFT_EXEMPT) == {
        Branch.C11_i, Branch.C11_ii, Branch.C22_i, Branch.C22_ii,
        Branch.C12_i, Branch.C12_ii, Branch.C12_iv, Branch.C13_formula}


def _one_offset(row, side, i):
    """The row with 1 added to factorial argument i of its numerator (side 1) or denominator (2)."""
    def formula(a, b, c, p):
        out = list(row.formula(a, b, c, p))
        out[side][i] = out[side][i] + 1
        return tuple(out)
    return row._replace(formula=formula)


def test_every_one_offset_row_mutation_fails_a_shift():
    mutants = 0
    for br, row in _ROWS.items():
        if br.is_zero or br in _SHIFT_EXEMPT:
            continue
        _, top, bottom = row.formula(_A, _B, _C, _P)
        for side, args in ((1, top), (2, bottom)):
            for i in range(len(args)):
                assert _shift_failures({br: _one_offset(row, side, i)}), (br, side, i)
                mutants += 1
    assert mutants == 64


@pytest.mark.parametrize("b", list(Branch))
def test_branch_prints_as_its_value(b):
    assert str(b) == f"{b}" == b.value


@pytest.mark.parametrize("l1, l2, label", [
    (1, 1, "C11"), (2, 2, "C22"), (1, 2, "C12"), (2, 1, "C12"), (1, 3, "C13"), (3, 1, "C13"),
    (2, 3, "C23"), (3, 2, "C23"), (1, 4, "OTHER"), (4, 1, "OTHER"),
])
def test_describe_cycle_class_line(l1, l2, label):
    params = SelbergParams(6, 6, 3, 7)
    assert describe(params, l1, l2).splitlines()[1] == (
        f"cycle class {label}, branch {classify(params, l1, l2).value}, delta={params.delta}")


@settings(deadline=None, max_examples=60)
@given(p=st.integers(1_000, 1_000_000).map(prime_at_or_above),
       cycle=st.sampled_from([(1, 1), (2, 2), (1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (3, 4)]),
       data=st.data())
def test_direct_equals_closed_at_large_primes(p, cycle, data):
    # Primes the brute-force oracle cannot reach: the classifier stays total
    # on every drawn point, and the two table-light routes agree.  Points are
    # re-drawn until a non-zero branch comes up, so the formulas get checked.
    l1, l2 = cycle
    try:
        for _ in range(40):
            params = SelbergParams(*(data.draw(st.integers(1, p - 1)) for _ in "abc"), p)
            if not classify(params, l1, l2).is_zero:  # GuardError would fail the test
                break
        assert selberg_direct_2d(params, l1, l2) == eval_closed(params, l1, l2)
    finally:
        get_context.cache_clear()  # each prime's tables are freed with its example


def _targets(p: int, cycles) -> list:
    """The cycle exponents of each cycle and the off-cycle targets t - e1 and t - e2 the
    moments and skew symmetry read."""
    return [t for l1, l2 in cycles for t in ((l1 * p - 1, l2 * p - 1), (l1 * p - 2, l2 * p - 1),
                                               (l1 * p - 1, l2 * p - 2))]


SMALL_CYCLES = [(l1, l2) for l1 in range(1, 5) for l2 in range(1, 5)]


@pytest.mark.parametrize("p", PRIMES)
def test_run_wise_direct_sum_matches_the_per_term_sum_exhaustively(p):
    # Every 0 < a, b, c < p on every cycle l1, l2 <= 4 and its off-cycle targets, on a
    # fresh context (sweeping) and on a built one (table reads).
    tabled = FpContext(p)
    tabled._build_tables()
    targets = _targets(p, SMALL_CYCLES)
    for a, b, c in all_triples(p):
        for t1, t2 in targets:
            want = ref_direct_coefficient(get_context(p), a, b, c, t1, t2)
            assert _direct_coefficient(FpContext(p), a, b, c, t1, t2) == want, (p, a, b, c, t1, t2)
            assert _direct_coefficient(tabled, a, b, c, t1, t2) == want, (p, a, b, c, t1, t2)


@pytest.mark.parametrize("p", PRIMES)
def test_closed_ratio_read_matches_the_table_reads_exhaustively(p):
    for a, b, c in all_triples(p):
        get_context.cache_clear()  # the point's first closed values sweep
        params = SelbergParams(a, b, c, p)
        for l1, l2 in SMALL_CYCLES:
            branch = _branch(params, l1, l2)
            assert _closed_value(branch, params) == ref_closed_value(branch, params), (params, l1, l2)
    get_context.cache_clear()


def _large_points(rng, p: int):
    """Seeded points whose k intervals hold at most a few hundred terms: (a, b, c, cycles)."""
    b = rng.randint(2, min(p - 1, 400))
    yield rng.randint(1, p - 1), b, rng.randint(1, p - 1), SMALL_CYCLES
    # a+b+2c >= 3p-1 with c close to p: on [2,2] the k interval meets both runs
    # [0, 2c-p] and [p, 2c] of C(2c, k).
    r = rng.randint(0, b // 2 - 1)
    c = p - 1 - r
    yield rng.randint(max(1, p + 1 - b + 2 * r), p - 1), b, c, [(2, 2), (1, 3), (3, 1), (2, 3), (1, 2)]


def test_run_wise_direct_sum_matches_the_per_term_sum_at_large_primes():
    # Primes 10^3..10^6, log-uniform and seeded.  Each read of a fresh context sweeps,
    # and no single read builds a table there.
    rng = random.Random(0xD1CE)
    runs_seen = [0, 0, 0]  # points whose k interval meets no run, one run, both runs
    for _ in range(24):
        p = prime_at_or_above(int(10 ** rng.uniform(3, 6)))
        reference = FpContext(p)
        for a, b, c, cycles in _large_points(rng, p):
            for t1, t2 in _targets(p, cycles):
                want = ref_direct_coefficient(reference, a, b, c, t1, t2)
                ctx = FpContext(p)
                assert _direct_coefficient(ctx, a, b, c, t1, t2) == want, (p, a, b, c, t1, t2)
                assert ctx.fact is None
                runs_seen[ref_direct_runs(p, a, b, c, t1, t2)] += 1
        assert _direct_coefficient(reference, a, b, c, 2 * p - 1, 2 * p - 1) == (
            ref_direct_coefficient(reference, a, b, c, 2 * p - 1, 2 * p - 1))  # table reads
    assert min(runs_seen) >= 20, runs_seen


def test_closed_ratio_read_matches_the_table_reads_at_large_primes():
    rng = random.Random(0xC105ED)
    hits = set()
    for _ in range(24):
        p = prime_at_or_above(int(10 ** rng.uniform(3, 6)))
        points = []
        for cycle in [(1, 1), (2, 2), (1, 2), (1, 3)]:
            for _ in range(40):  # re-drawn until a formula branch comes up
                params = SelbergParams(*(rng.randint(1, p - 1) for _ in "abc"), p)
                branch = _branch(params, *cycle)
                if not branch.is_zero:
                    break
            get_context.cache_clear()
            points.append((branch, params, _closed_value(branch, params)))
            assert get_context(p).fact is None
        get_context.cache_clear()
        for branch, params, value in points:
            assert value == ref_closed_value(branch, params), (params, branch)  # builds the tables once
            assert _closed_value(branch, params) == value
            hits.add(branch)
        get_context.cache_clear()
    assert len(hits) >= 6, hits


def test_eval_closed_reference_values():
    assert eval_closed(SelbergParams(3, 4, 3, 7), 1, 1) == 1
    assert eval_closed(SelbergParams(6, 6, 6, 7), 2, 2) == 5
    assert eval_closed(SelbergParams(6, 6, 3, 7), 2, 2) == 5
    # the [1,3] value is pinned through the relation: -1/2 * 5 = 1 mod 7
    assert eval_closed(SelbergParams(6, 6, 6, 7), 1, 3) == 1
    assert eval_closed(SelbergParams(2, 3, 4, 5), 1, 4) == 0


@pytest.mark.parametrize("p", [5, 7])
def test_eval_closed_equals_bruteforce(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        spec = params.spec(2)
        for l1 in range(1, 5):
            for l2 in range(l1, 5):
                assert eval_closed(params, l1, l2) == selberg_bruteforce(spec, (l1, l2))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_nonvanishing_iff_2c_below_p(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        for l1, l2, branches in [
            (1, 1, (Branch.C11_i, Branch.C11_ii)),
            (2, 2, (Branch.C22_i,)),
        ]:
            if classify(params, l1, l2) in branches:
                assert bool(eval_closed(params, l1, l2)) == (2 * c < p)
        if classify(params, 2, 2) == Branch.C22_ii:
            assert eval_closed(params, 2, 2) != 0
        if classify(params, 1, 3) == Branch.C13_formula:
            assert eval_closed(params, 1, 3) != 0


def test_condition_sets_examples():
    assert condition_set(SelbergParams(6, 6, 6, 7)) == "R3"
    assert condition_set(SelbergParams(6, 6, 3, 7)) == "R2"
    assert condition_set(SelbergParams(1, 1, 1, 7)) is None
    # R1 example: 2c < p, a+c <= p-1, b+c >= p, a+b+2c >= 2p-1
    assert condition_set(SelbergParams(3, 4, 3, 7)) == "R1"
    assert condition_set(SelbergParams(4, 5, 2, 7)) == "R1"


@pytest.mark.parametrize("p", PRIMES)
def test_condition_sets_are_mutually_exclusive(p):
    for a, b, c in all_triples(p):
        flags = in_condition_sets(SelbergParams(a, b, c, p))
        assert sum(flags) <= 1


def test_relations_reports():
    r3 = relations_check(SelbergParams(6, 6, 6, 7))
    assert r3.condition_set == "R3"
    assert r3.relation_holds is True
    assert r3.uniqueness_holds is None
    assert set(r3.values) == {(2, 2), (1, 3), (3, 1)}
    assert report_ok(r3)

    r2 = relations_check(SelbergParams(6, 6, 3, 7))
    assert r2.condition_set == "R2"
    assert r2.relation_holds is True
    assert -r2.values[(2, 2)] * get_context(7).inverse(2) % 7 == r2.values[(1, 2)]

    none = relations_check(SelbergParams(1, 1, 1, 7))
    assert none.condition_set is None
    assert none.relation_holds is None
    assert none.uniqueness_holds is True
    assert all(v == 0 for v in none.values.values())


@pytest.mark.parametrize("p", [5, 7])
def test_relations_hold_exhaustively(p):
    grid = ReadGrid(p, RELATION_CYCLES)
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        report = relations_check(params)
        assert report_ok(report), (p, a, b, c, report.condition_set)
        shared = relations_from_values(params, lambda cycle: grid_value(grid, a, b, c, cycle))
        assert (shared.condition_set, shared.values, report_ok(shared)) == (
            report.condition_set, report.values, report_ok(report))


def delta_boundary_forms(params: SelbergParams) -> dict[str, int]:
    """All closed forms valid at delta = 0 with a+b >= p-1.

    Returns the canonical value plus every alternate expression whose side
    condition holds ('b_side' needs b+c >= p, 'a_side' needs a+c >= p).
    """
    if params.delta != 0 or params.a + params.b < params.p - 1:
        raise DomainError(f"delta-boundary forms need delta=0 and a+b >= p-1, got {params}")
    forms = {"canonical": _closed_value(Branch.C12_delta0_formula, params)}
    if params.b + params.c >= params.p:
        forms["b_side"] = _closed_value(Branch.C12_i, params)
    if params.a + params.c >= params.p:
        forms["a_side"] = _closed_value(Branch.C12_ii, params)
    return forms


def test_delta_boundary_forms_agree():
    checked = 0
    for p in (5, 7, 11, 13):
        for a, b, c in all_triples(p):
            params = SelbergParams(a, b, c, p)
            if params.delta != 0 or a + b < p - 1:
                continue
            forms = delta_boundary_forms(params)
            # at least one side condition always holds at delta = 0
            assert set(forms) & {"a_side", "b_side"}
            assert len({int(v) for v in forms.values()}) == 1
            assert forms["canonical"] == selberg_bruteforce(params.spec(2), (1, 2))
            checked += 1
    assert checked > 0


def test_delta_boundary_forms_domain_error():
    with pytest.raises(DomainError):
        delta_boundary_forms(SelbergParams(1, 1, 1, 7))  # delta < 0
    with pytest.raises(DomainError):
        delta_boundary_forms(SelbergParams(1, 2, 5, 7))  # delta = 0 but a+b < p-1


def test_skew_symmetry_examples():
    assert skew_symmetry_check(SelbergParams(6, 6, 6, 7)) is True
    assert skew_symmetry_check(SelbergParams(5, 6, 6, 7)) is True
    with pytest.raises(DomainError):
        skew_symmetry_check(SelbergParams(3, 4, 3, 7))  # 2c < p


def test_skew_symmetry_and_moments_read_without_numpy_or_the_cap(monkeypatch):
    # Expanding Phi at (200, 200, 200; 211) would take 801^2 = 641,601 cells;
    # the direct reads allocate none and never load numpy.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "1")
    monkeypatch.setitem(sys.modules, "numpy", None)
    params = SelbergParams(200, 200, 200, 211)
    a, b, c, p = params
    assert skew_symmetry_check(params) is True
    s = selberg_direct_2d(params, 2, 2)
    s1 = moment_integral(params, (2, 2), "S1")
    assert s and s1 and moment_integral(params, (2, 2), "S2") == (2 * s - s1) % p
    assert s * 2 * (a + c + 1) % p == s1 * (a + b + 2 * c + 2) % p  # Ao2


@pytest.mark.parametrize("p, triples", [(5, 7), (7, 22)])
def test_skew_beta_reads_match_the_odd_product(p, triples):
    # skew_symmetry_check reads beta, the coefficients of (x1-x2)^(2c-p) * Psi
    # with Psi = x1^a (1-x1)^b x2^a (1-x2)^b, as half[t - e1] - half[t - e2]
    # on half = Phi at c - (p+1)/2, by the direct sum.  The odd product itself
    # is the reference.
    checked, ctx = 0, get_context(p)
    for a, b, c in all_triples(p):
        if condition_set(SelbergParams(a, b, c, p)) != "R3":
            continue
        psi = ref_mul(ref_univariate(a, b, 0, 2), ref_univariate(a, b, 1, 2))
        lower = ref_mul(ref_cross(0, 1, 2 * c - p, 2), psi)
        h = c - (p + 1) // 2
        for t1, t2 in ((p - 1, 2 * p - 1), (2 * p - 1, p - 1)):
            read = (_direct_coefficient(ctx, a, b, h, t1 - 1, t2)
                    - _direct_coefficient(ctx, a, b, h, t1, t2 - 1)) % p
            assert read == lower.get((t1, t2), 0) % p, (p, a, b, c, t1, t2)
        checked += 1
    assert checked == triples


def test_describe_output():
    text = describe(SelbergParams(3, 4, 3, 7), 1, 1)
    assert "C11_ii" in text
    assert "value 1" in text
    assert "(2c)!/c!" in text
    zero_text = describe(SelbergParams(1, 1, 1, 7), 1, 1)
    assert "value 0" in zero_text
    assert "NOT_APPLICABLE_zero" in zero_text
