import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselberg.errors import DomainError, GuardError
from fpselberg.modp_arith import get_context
from fpselberg.selberg_core import SelbergParams, selberg_bruteforce, selberg_direct_2d, selberg_grid
from fpselberg.selberg2d_closed import (
    _TEMPLATES,
    _ZERO_REASONS,
    RELATION_CYCLES,
    Branch,
    _formula,
    classify,
    condition_set,
    delta_boundary_forms,
    describe,
    eval_closed,
    in_condition_sets,
    relations_check,
    relations_from_values,
    skew_symmetry_check,
)

from reference_impl import PRIMES, all_triples, prime_at_or_above


def branch(p, a, b, c, l1, l2) -> Branch:
    return classify(SelbergParams(a, b, c, p), l1, l2)


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
    with pytest.raises(ValueError, match=r"^cycle entries must be positive integers, got \(0, 1\)$"):
        classify(params, 0, 1)


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


@pytest.mark.parametrize("b", list(Branch))
def test_every_branch_has_a_reason_or_a_formula(b):
    params = SelbergParams(3, 4, 3, 7)
    assert b.is_zero == b.value.endswith("_zero")
    if b.is_zero:
        assert b in _ZERO_REASONS and b not in _TEMPLATES
        with pytest.raises(GuardError):
            _formula(b, params)
    else:
        assert b in _TEMPLATES and b not in _ZERO_REASONS
        sign, top, bottom = _formula(b, params)
        assert sign in (1, -1) and top and bottom


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
    assert r3.ok

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
    grid = selberg_grid(p, RELATION_CYCLES)
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        report = relations_check(params)
        assert report.ok, (p, a, b, c, report.condition_set)
        shared = relations_from_values(params, lambda cycle: grid.value(a, b, c, cycle))
        assert (shared.condition_set, shared.values, shared.ok) == (
            report.condition_set, report.values, report.ok)


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


def test_describe_output():
    text = describe(SelbergParams(3, 4, 3, 7), 1, 1)
    assert "C11_ii" in text
    assert "value 1" in text
    assert "(2c)!/c!" in text
    zero_text = describe(SelbergParams(1, 1, 1, 7), 1, 1)
    assert "value 0" in zero_text
    assert "NOT_APPLICABLE_zero" in zero_text
