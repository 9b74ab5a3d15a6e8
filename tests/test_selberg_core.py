import importlib
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from fpselberg import selberg_core, verify
from fpselberg.errors import DomainError, GuardError, ResourceLimitError
from fpselberg.fp_poly import _coefficient
from fpselberg.modp_arith import get_context
from fpselberg.selberg_core import (
    MasterPolySpec,
    SelbergParams,
    _dense_master,
    _direct_coefficient,
    beta_closed,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_grid,
    selberg_nd_closed,
)
from fpselberg.sweep import SweepConfig

from reference_impl import (PRIMES, ReadGrid, all_triples, dense_terms, grid_moments, grid_value, ref_grid_build,
                            ref_integral, ref_mul, ref_phi, ref_reduce, ref_selberg, ref_univariate)

# The default verify cycles l1 <= l2 <= 4 plus the transposed relation cycles.
GRID_CYCLES = [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)] + [(2, 1), (3, 1)]


def test_params_validation():
    params = SelbergParams(3, 4, 3, 7)
    assert params.delta == 3 + 4 + 6 + 1 - 14
    for bad in [(0, 1, 1), (7, 1, 1), (1, -2, 1), (1, 1, 9)]:
        with pytest.raises(ValueError):
            SelbergParams(*bad, 7)
    with pytest.raises(ValueError):
        SelbergParams(1, 1, 1, 6)


def test_master_spec_allows_zero_parameters():
    MasterPolySpec(2, 1, 0, 1, 7)
    with pytest.raises(ValueError):
        MasterPolySpec(0, 1, 1, 1, 7)
    with pytest.raises(ValueError):
        MasterPolySpec(2, -1, 1, 1, 7)


@pytest.mark.parametrize("value, twin, text", [
    (SelbergParams(3, 4, 3, 7), SelbergParams(a=3, b=4, c=3, p=7), "SelbergParams(a=3, b=4, c=3, p=7)"),
    (MasterPolySpec(2, 3, 0, 3, 7), MasterPolySpec(n=2, a=3, b=0, c=3, p=7),
     "MasterPolySpec(n=2, a=3, b=0, c=3, p=7)"),
])
def test_value_types_print_compare_and_refuse_assignment(value, twin, text):
    # Messages such as GuardError(f"... at {params}") embed the repr.
    assert repr(value) == str(value) == text
    assert value == twin and hash(value) == hash(twin) and value is not twin
    with pytest.raises(AttributeError):
        value.a = 1
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make, args, message", [
    (SelbergParams, (0, 1, 1, 7), "parameter a must satisfy 0 < a < p=7, got 0"),
    (SelbergParams, (1, 7, 1, 7), "parameter b must satisfy 0 < b < p=7, got 7"),
    (SelbergParams, (1, 1, 1.0, 7), "parameter c must satisfy 0 < c < p=7, got 1.0"),
    (SelbergParams, (1, 1, 1, 6), "p must be an odd prime >= 3, got 6"),
    (MasterPolySpec, (0, 1, 1, 1, 7), "dimension n must be a positive integer, got 0"),
    (MasterPolySpec, (2, 1, -1, 1, 7), "parameter b must be a non-negative integer, got -1"),
    (MasterPolySpec, (2, 1, 1, "1", 7), "parameter c must be a non-negative integer, got 1"),
    (MasterPolySpec, (2, 1, 1, 1, 9), "p must be an odd prime >= 3, got 9"),
])
def test_value_type_refusals(make, args, message):
    with pytest.raises(ValueError) as info:
        make(*args)
    assert str(info.value) == message


def test_traced_classes_define_their_own_init(monkeypatch):
    # The benchmark tracer times a class by wrapping vars(cls)["__init__"].
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    for module, name in importlib.import_module("tracer").TRACED_CLASSES:
        assert "__init__" in vars(getattr(importlib.import_module(f"fpselberg.{module}"), name)), name


def test_per_point_expansions_keep_one_cache_entry(monkeypatch):
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    points = [(1, 2, 3, 7), (6, 6, 6, 7), (4, 1, 5, 11), (2, 2, 2, 5)]
    for a, b, c, p in points:
        spec = MasterPolySpec(2, a, b, c, p)
        assert selberg_bruteforce(spec, (1, 2)) == ref_selberg(2, a, b, c, p, (1, 2)) % p
        assert selberg_core._dense_master.cache_info().currsize == 1
    # A lowered cap refuses the expansion the cache holds: (2 + 2 + 4 + 1)^2 = 81 cells.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "80")
    with pytest.raises(ResourceLimitError, match="needs 81 coefficient cells"):
        selberg_bruteforce(MasterPolySpec(2, 2, 2, 2, 5), (1, 2))


def master_terms(n, a, b, c, p, exact=False) -> dict:
    """Phi_n as exact terms, over F_p by default or over Z with exact=True."""
    return dense_terms(_dense_master(n, a, b, c, None if exact else p), None if exact else p)


def test_master_polynomial_one_dimensional():
    assert master_terms(1, 1, 1, 0, 5, exact=True) == {(1,): 1, (2,): -1}


def test_master_polynomial_small_two_dimensional():
    # (x1-x2)^2 * x1 * x2 = x1^3 x2 - 2 x1^2 x2^2 + x1 x2^3
    terms = master_terms(2, 1, 0, 1, 7, exact=True)
    assert terms.get((3, 1)) == 1
    assert terms.get((2, 2)) == -2
    assert terms.get((1, 3)) == 1
    assert len(terms) == 3


def test_master_polynomial_swap_symmetry():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.choice((5, 7))
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        terms = master_terms(2, a, b, c, p)
        swapped = {(e2, e1): coeff for (e1, e2), coeff in terms.items()}
        assert swapped == terms


def test_master_polynomial_matches_reference():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(1, 3)
        p = rng.choice((5, 7))
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        expect = ref_phi(n, a, b, c)
        assert master_terms(n, a, b, c, p, exact=True) == expect
        assert master_terms(n, a, b, c, p) == ref_reduce(expect, p)


def test_resource_guard_and_env_override(monkeypatch):
    # The guard is a cell count only: n = 3 at p = 13 (7^3 cells) and n = 4
    # (9^4 cells) fit the default cap.
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    terms = master_terms(4, 1, 1, 1, 5)
    assert terms.get((4, 4, 4, 4), 0) == ref_selberg(4, 1, 1, 1, 5, (1, 1, 1, 1)) % 5
    assert selberg_bruteforce(MasterPolySpec(3, 1, 1, 1, 13), (1, 1, 1)) == ref_selberg(
        3, 1, 1, 1, 13, (1, 1, 1)
    ) % 13
    with pytest.raises(ResourceLimitError):
        selberg_bruteforce(MasterPolySpec(2, 996, 996, 996, 997), (1, 1))  # cell cap
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(9**4 - 1))
    with pytest.raises(ResourceLimitError, match="needs 6561 coefficient cells"):
        selberg_bruteforce(MasterPolySpec(4, 1, 1, 1, 5), (1, 1, 1, 1))
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "10")
    with pytest.raises(ResourceLimitError):
        selberg_bruteforce(MasterPolySpec(1, 5, 5, 0, 7), (1,))
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "not-a-number")
    with pytest.raises(ValueError):
        selberg_bruteforce(MasterPolySpec(1, 1, 1, 0, 7), (1,))


def test_direct_reader_matches_the_expansion_at_every_target():
    # Every 0 <= a, b, c < p, so c = 0 and the Lucas split 2c >= p too, and
    # every target below 3p, including the shifted ones the moments and skew
    # symmetry read, which the cycle-exponent routes never do.
    for p in (3, 5, 7):
        ctx, targets = get_context(p), list(itertools.product(range(3 * p), repeat=2))
        for a, b, c in itertools.product(range(p), repeat=3):
            phi = _dense_master(2, a, b, c, p)
            got = [_direct_coefficient(ctx, a, b, c, *t) for t in targets]
            assert got == [_coefficient(phi, t) for t in targets], (p, a, b, c)


def test_bruteforce_reference_values():
    assert selberg_bruteforce(SelbergParams(3, 4, 3, 7).spec(2), (1, 1)) == 1
    assert selberg_bruteforce(SelbergParams(1, 1, 1, 7).spec(2), (1, 1)) == 0
    assert selberg_bruteforce(SelbergParams(6, 6, 3, 7).spec(2), (2, 2)) == 5
    assert selberg_bruteforce(SelbergParams(6, 6, 3, 7).spec(2), (2, 2), exact=True) == -1080
    assert selberg_bruteforce(SelbergParams(3, 4, 3, 7).spec(2), (1, 1), exact=True) == -20


def test_bruteforce_cycle_validation():
    spec = SelbergParams(1, 1, 1, 5).spec(2)
    with pytest.raises(ValueError):
        selberg_bruteforce(spec, (1,))
    with pytest.raises(ValueError):
        selberg_bruteforce(spec, (1, 0))


@pytest.mark.parametrize("p", [5, 7])
def test_bruteforce_matches_naive_reference(p):
    rng = random.Random(p)
    for _ in range(15):
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        expect = ref_selberg(2, a, b, c, p, (l1, l2))
        spec = SelbergParams(a, b, c, p).spec(2)
        assert selberg_bruteforce(spec, (l1, l2), exact=True) == expect
        assert selberg_bruteforce(spec, (l1, l2)) == expect % p


@pytest.mark.parametrize("p", [5, 7])
def test_cycle_symmetry(p):
    for a, b, c in all_triples(p):
        spec = SelbergParams(a, b, c, p).spec(2)
        for l1 in range(1, 4):
            for l2 in range(l1 + 1, 4):
                assert selberg_bruteforce(spec, (l1, l2)) == selberg_bruteforce(spec, (l2, l1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_direct_equals_bruteforce(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        spec = params.spec(2)
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert selberg_direct_2d(params, l1, l2) == selberg_bruteforce(spec, (l1, l2))


@pytest.mark.parametrize("a, b, c, p", [
    (1, 1, 1, 999983),  # no k puts both t1 and t2 in [0, b]
    (1, 15, 995, 1009),  # k in [992, 998] does, but C(2c, k) = 0 there: 2c - p = 981 < k < p
])
def test_direct_empty_interval_reads_no_factorial(a, b, c, p):
    get_context.cache_clear()
    params = SelbergParams(a, b, c, p)
    assert selberg_direct_2d(params, 1, 1) == 0
    assert params.ctx.fact is None


def test_beta_closed_examples():
    ctx = get_context(7)
    assert beta_closed(ctx, 3, 3) == 6
    assert beta_closed(ctx, 1, 1) == 0
    assert beta_closed(ctx, 6, 0) == 1
    with pytest.raises(ValueError):
        beta_closed(ctx, 7, 0)
    with pytest.raises(ValueError):
        beta_closed(ctx, 0, -1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_beta_closed_equals_one_dimensional_bruteforce(p):
    ctx = get_context(p)
    for a in range(p):
        for b in range(p):
            assert beta_closed(ctx, a, b) == ref_integral(ref_univariate(a, b, 0, 1), p, (1,))


def test_nd_closed_examples_and_errors():
    ctx = get_context(7)
    assert selberg_nd_closed(ctx, 1, 3, 3, 0) == 6
    assert selberg_nd_closed(ctx, 1, 3, 3, 5) == 6  # c plays no role at n=1
    with pytest.raises(DomainError):
        selberg_nd_closed(ctx, 1, 1, 1, 0)  # a+b too small
    with pytest.raises(DomainError):
        selberg_nd_closed(ctx, 2, 6, 6, 6)  # upper inequality violated
    with pytest.raises(ValueError):
        selberg_nd_closed(ctx, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        selberg_nd_closed(ctx, 2, -1, 1, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_nd_closed_equals_bruteforce_n2(p):
    ctx = get_context(p)
    for a in range(2 * p):
        for b in range(2 * p):
            for c in range(p):
                if not (p - 1 <= a + b + c and a + b + 2 * c < 2 * p - 1):
                    continue
                got = selberg_nd_closed(ctx, 2, a, b, c)
                assert got == selberg_bruteforce(MasterPolySpec(2, a, b, c, p), (1, 1))


def test_nd_closed_equals_bruteforce_n3_small():
    p = 5
    ctx = get_context(p)
    checked = 0
    for a in range(2 * p):
        for b in range(2 * p):
            for c in range(p):
                if not (p - 1 <= a + b + 2 * c and a + b + 4 * c < 2 * p - 1):
                    continue
                got = selberg_nd_closed(ctx, 3, a, b, c)
                assert got == selberg_bruteforce(MasterPolySpec(3, a, b, c, p), (1, 1, 1))
                checked += 1
    assert checked > 0


def test_moment_kind_validation():
    params = SelbergParams(1, 1, 1, 5)
    with pytest.raises(ValueError):
        moment_integral(params, (1, 1), "S3")
    with pytest.raises(ValueError):
        moment_integral(params, (1, 1, 1), "S1")


@pytest.mark.parametrize("p", [5, 7])
def test_moment_s2_is_linear_combination(p):
    # (1-x1)+(1-x2) = 2 - (x1+x2), so S2 = 2*S - S1
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        for cycle in [(1, 1), (1, 2), (2, 2)]:
            s = selberg_bruteforce(params.spec(2), cycle)
            s1 = moment_integral(params, cycle, "S1")
            s2 = moment_integral(params, cycle, "S2")
            assert s2 == (2 * s - s1) % p


def test_moment_matches_reference_expansion():
    rng = random.Random(3)
    for _ in range(10):
        p = rng.choice((5, 7))
        a, b, c = (rng.randint(1, p - 1) for _ in range(3))
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        params = SelbergParams(a, b, c, p)
        phi = ref_phi(2, a, b, c)
        target = (l1 * p - 1, l2 * p - 1)
        s1_ref = phi.get((target[0] - 1, target[1]), 0) + phi.get((target[0], target[1] - 1), 0)
        assert moment_integral(params, (l1, l2), "S1") == s1_ref % p


def test_moment_recurrence_spot_check():
    # (a+1) * S1(a,b,c) = 2(a+b+c+2) * S(a+1,b,c) at the reference point
    params = SelbergParams(3, 4, 3, 7)
    s1 = moment_integral(params, (1, 1), "S1")
    shifted = selberg_bruteforce(SelbergParams(4, 4, 3, 7).spec(2), (1, 1))
    assert s1 * (params.a + 1) == shifted * (2 * (params.a + params.b + params.c + 2))


# Reference moments: multiply Phi by the degree-1 factor, then read the cycle coefficient.
MOMENT_FACTORS = {"S1": {(1, 0): 1, (0, 1): 1}, "S2": {(0, 0): 2, (1, 0): -1, (0, 1): -1}}


@pytest.mark.parametrize("p", [5, 7])
def test_moment_index_sum_matches_product_formula(p):
    for a, b, c in all_triples(p):
        params = SelbergParams(a, b, c, p)
        phi = ref_phi(2, a, b, c)
        for kind, factor in MOMENT_FACTORS.items():
            product = ref_mul(phi, factor)
            for cycle in GRID_CYCLES:
                want = ref_integral(product, p, cycle)
                assert moment_integral(params, cycle, kind) == want, (a, b, c, cycle)


@pytest.mark.parametrize("p", PRIMES)
def test_grid_matches_per_point_bruteforce(p):
    grid = ReadGrid(p, GRID_CYCLES)
    for a, b, c in itertools.product(range(p), repeat=3):
        spec = MasterPolySpec(2, a, b, c, p)
        for cycle in GRID_CYCLES:
            assert grid_value(grid, a, b, c, cycle) == selberg_bruteforce(spec, cycle), (a, b, c, cycle)
            if a and b and c:
                params = SelbergParams(a, b, c, p)
                s1, s2 = grid_moments(grid, a, b, c, cycle)
                assert (s1, s2) == (moment_integral(params, cycle, "S1"),
                                    moment_integral(params, cycle, "S2")), (a, b, c, cycle)


def _window_of_3(monkeypatch, p: int, cycles):
    """Set the cap to the cells of a window of 3 a values: Q, then 3 a values of both boxes."""
    deg = min(3 * p - 3, max(l * p - 1 for cycle in cycles for l in cycle))
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str((deg + 2) ** 2 + 3 * 2 * p * p * len(set(cycles))))


def test_grid_window_is_built_once_per_ascending_pass(monkeypatch):
    # A walk builds each block of 3 a values once, when it reaches the block's
    # first a, and a second walk starts over.
    p = 7
    _window_of_3(monkeypatch, p, [(1, 1)])
    builds = []
    build = selberg_core._build_window
    monkeypatch.setattr(selberg_core, "_build_window", lambda p, cycles, deg, chunk, start, *boxes: builds.append(
        start) or build(p, cycles, deg, chunk, start, *boxes))
    for _ in range(2):
        walk = selberg_grid(p, [(1, 1)])
        seen = builds[:]
        for a, _slab in enumerate(walk):
            assert builds == seen + [start for start in (0, 3, 6) if start <= a], a
    assert builds == [0, 3, 6, 0, 3, 6]


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("windowed", [False, True], ids=["whole", "windowed"])
def test_grid_slab_matches_values_and_moments(monkeypatch, windowed, order):
    # Each slab holds, at every (b, c) and cycle, the reference value and S1 as
    # the reference product with (x1 + x2).  Read descending, after the walk
    # has ended, each slab is a copy that later window builds left as it was.
    p = 5
    if windowed:
        _window_of_3(monkeypatch, p, GRID_CYCLES)
    else:
        monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert selberg_core._guard_grid(p, GRID_CYCLES, None)[3] == (3 if windowed else p)
    walk = enumerate(selberg_grid(p, GRID_CYCLES))
    for a, (values, s1) in walk if order == "ascending" else reversed(list(walk)):
        assert values.dtype == s1.dtype == np.int64
        assert values.shape == s1.shape == (p, p, len(GRID_CYCLES))
        for b, c in itertools.product(range(p), repeat=2):
            phi = ref_phi(2, a, b, c)
            s1_poly = ref_mul(MOMENT_FACTORS["S1"], phi)
            for i, cycle in enumerate(GRID_CYCLES):
                assert values[b, c, i] == ref_integral(phi, p, cycle), (a, b, c, cycle)
                assert s1[b, c, i] == ref_integral(s1_poly, p, cycle), (a, b, c, cycle)


def _walk_matches_reference(monkeypatch, *request):
    """The walk of a grid request (p, cycles, ab_stop) yields the same slabs with its
    windows built by ``_build_window`` and by the reference."""
    got = list(selberg_grid(*request))
    with monkeypatch.context() as patched:
        patched.setattr(selberg_core, "_build_window", ref_grid_build)
        want = list(selberg_grid(*request))
    assert len(got) == len(want) == request[2]
    for a, ((values, s1), (ref_values, ref_s1)) in enumerate(zip(got, want)):
        assert np.array_equal(values, ref_values) and np.array_equal(s1, ref_s1), a


@pytest.mark.parametrize("p", PRIMES)
def test_grid_builds_match_reference_on_default_grids(monkeypatch, p):
    # verify's shared grid, nd's windows (n = 2, and n = 3 up to p = 11) and the
    # brute-force sweep's grid: at the default cap each stacks all p values of c.
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    config = SweepConfig(primes=(p,))
    requests = [(p, verify._guard_grids(config), p), *verify._nd_windows(p), (p, tuple(config.cycles()), p)]
    assert len(requests) == (4 if p <= 11 else 3)
    for request in requests:
        assert selberg_core._guard_grid(*request)[4] == p
        _walk_matches_reference(monkeypatch, *request)


@pytest.mark.parametrize("max_terms, width, chunk", [(8632, 7, 1), (9032, 7, 2), (11032, 7, 7), (1576, 1, 1)],
                         ids=["whole-box-one-c", "two-c", "whole-stack", "one-a"])
def test_grid_stacks_under_the_cap_match_reference(monkeypatch, max_terms, width, chunk):
    # The shared grid at p = 7: Q cut at degree 18 takes 20^2 = 400 cells, one a
    # value of its boxes 2 * 7 * 7 * 12 = 1176.  What the window leaves holds the stack.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(max_terms))
    cycles = verify._guard_grids(SweepConfig(primes=(7,)))
    assert selberg_core._guard_grid(7, cycles, None)[3:] == (width, chunk)
    _walk_matches_reference(monkeypatch, 7, cycles, 7)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_grid_nd_window_reads_absent_coefficients_as_zero(p):
    # a, b in [0, 2p): for a >= p the read index T - a is negative.
    grid = ReadGrid(p, [(1, 1)], 2 * p)
    for a, b, c in itertools.product(range(2 * p), range(2 * p), range(p)):
        value = grid_value(grid, a, b, c, (1, 1))
        assert value == selberg_bruteforce(MasterPolySpec(2, a, b, c, p), (1, 1)), (a, b, c)
        if a >= p:
            assert value == 0 and grid_moments(grid, a, b, c, (1, 1)) == (0, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_grid_matches_reference_expansion(p):
    grid = ReadGrid(p, GRID_CYCLES)
    for a, b, c in all_triples(p):
        phi = ref_phi(2, a, b, c)
        for l1, l2 in GRID_CYCLES:
            assert grid_value(grid, a, b, c, (l1, l2)) == phi.get((l1 * p - 1, l2 * p - 1), 0) % p


def test_grid_reads_outside_the_box_are_refused():
    # An empty box, no cycle or a p that is not prime is refused when the walk
    # is asked for; a walk yields only the a values of its box.
    assert len(list(selberg_grid(5, [(1, 1)], ab_stop=2))) == 2
    with pytest.raises(ValueError):
        selberg_grid(5, [(1, 1)], ab_stop=0)
    with pytest.raises(ValueError):
        selberg_grid(5, [])
    with pytest.raises(ValueError):
        selberg_grid(9, [(1, 1)])


def test_grid_guard_refuses_before_allocating(monkeypatch):
    # Without numpy in reach, any allocation would fail with another error.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    with pytest.raises(ResourceLimitError):
        selberg_grid(1009, [(1, 1)])
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "100")
    with pytest.raises(ResourceLimitError):
        selberg_grid(13, [(1, 1)])


def test_grid_guard_counts_the_value_boxes(monkeypatch):
    # At p = 163 the largest Q has (3p-2)^2 = 237,169 cells, under the default
    # cap, but the value and moment boxes hold 2 * 163^3 * 12 cells.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    with pytest.raises(ResourceLimitError, match="12 cycles"):
        selberg_grid(163, GRID_CYCLES)


def test_grid_guard_counts_only_the_truncated_expansion(monkeypatch):
    # a, b < 1 at p = 13 on [1,1]: Q is cut at degree 12, so it takes 14^2 cells
    # with its zero margin, and the boxes 2 * 1 * 13 * 1.  The untruncated Q
    # would need 25^2 = 625.
    cells = 14**2 + 2 * 13
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells - 1))
    with pytest.raises(ResourceLimitError, match=f"needs {cells} "):
        selberg_grid(13, [(1, 1)], ab_stop=1)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells))
    grid = ReadGrid(13, [(1, 1)], ab_stop=1)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS")
    for c in range(13):
        assert grid_value(grid, 0, 0, c, (1, 1)) == selberg_bruteforce(MasterPolySpec(2, 0, 0, c, 13), (1, 1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_grid_n3_window_matches_per_point_bruteforce(p):
    # nd's three-variable window: a, b < 2p on [1,1,1], read at every point.
    grid = ReadGrid(p, [(1, 1, 1)], 2 * p)
    for a, b, c in itertools.product(range(2 * p), range(2 * p), range(p)):
        want = selberg_bruteforce(MasterPolySpec(3, a, b, c, p), (1, 1, 1))
        assert grid_value(grid, a, b, c, (1, 1, 1)) == want, (a, b, c)


@pytest.mark.parametrize("p, count", [(11, 411), (13, 658)])
def test_grid_n3_window_matches_nd_closed_form(p, count):
    ctx = get_context(p)
    grid = ReadGrid(p, [(1, 1, 1)], 2 * p)
    checked = 0
    for a, b, c in itertools.product(range(2 * p), range(2 * p), range(p)):
        if p - 1 <= a + b + 2 * c and a + b + 4 * c < 2 * p - 1:
            assert grid_value(grid, a, b, c, (1, 1, 1)) == selberg_nd_closed(ctx, 3, a, b, c), (a, b, c)
            checked += 1
    assert checked == count


N3_CYCLES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2)]


@pytest.mark.parametrize("windowed", [False, True])
def test_grid_n3_values_and_moments_match_reference(monkeypatch, windowed):
    # Several three-variable cycles at p = 5, built as a whole box and, under a
    # cap of a 3-value window, in windows; the points are read in shuffled order.  S1 is the integral of
    # (x1+x2+x3)*Phi and S2 that of ((1-x1)+(1-x2)+(1-x3))*Phi.
    p = 5
    if windowed:
        cells = 11**3 + 3 * 2 * p * p * len(N3_CYCLES)  # Q cut at degree 2p - 1 = 9, then 3 a values
        monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells))
    assert selberg_core._guard_grid(p, N3_CYCLES, None)[3] == (3 if windowed else p)
    grid = ReadGrid(p, N3_CYCLES)
    points = list(itertools.product(range(p), repeat=3))
    random.Random(3).shuffle(points)
    s1_factor = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    s2_factor = {(0, 0, 0): 3, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1}
    for a, b, c in points:
        phi = ref_phi(3, a, b, c)
        s1_poly, s2_poly = ref_mul(s1_factor, phi), ref_mul(s2_factor, phi)
        for cycle in N3_CYCLES:
            assert grid_value(grid, a, b, c, cycle) == ref_integral(phi, p, cycle), (a, b, c, cycle)
            assert grid_moments(grid, a, b, c, cycle) == (ref_integral(s1_poly, p, cycle),
                                                    ref_integral(s2_poly, p, cycle)), (a, b, c, cycle)


def test_grid_cycles_of_mixed_arity_are_refused():
    with pytest.raises(ValueError, match="expected 2"):
        selberg_grid(5, [(1, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="expected 3"):
        selberg_grid(5, [(1, 1, 1), (2, 2)])


def test_grid_n3_guard_counts_its_cells(monkeypatch):
    # nd's n = 3 window at p = 7: Q cut at degree 6 takes 8^3 cells with its
    # zero margin, and one a value of the two boxes 2 * 14 * 7 cells.
    # Checked without allocating: numpy is out of reach.
    monkeypatch.setitem(sys.modules, "numpy", None)
    cells = 8**3 + 2 * 14 * 7
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells))
    assert selberg_core._guard_grid(7, [(1, 1, 1)], 14)[2:] == (6, 1, 1)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cells - 1))
    with pytest.raises(ResourceLimitError, match=f"needs {cells} coefficient cells for a window of 1 a value,"):
        selberg_grid(7, [(1, 1, 1)], 14)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS")
    assert selberg_core._guard_grid(7, [(1, 1, 1)], 14)[2:] == (6, 14, 7)
