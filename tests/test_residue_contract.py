"""Every public mod-p evaluator returns a plain int reduced into [0, p), and a
grid slab holds int64 entries in that range.

Checked exhaustively at p = 7 and on a seeded sample at p = 13.  Each
evaluator must also show both a zero and a non-zero value, so the contract
covers vanishing branches and formula branches alike.
"""

import itertools
import random
from collections import defaultdict

import numpy as np
import pytest

from fpselberg.fp_poly import MultiPoly, fp_integral
from fpselberg.modp_arith import get_context
from fpselberg.selberg_core import (
    SelbergParams,
    _dense_master,
    beta_closed,
    moment_integral,
    selberg_bruteforce,
    selberg_direct_2d,
    selberg_grid,
    selberg_nd_closed,
)
from fpselberg.relations import RELATION_CYCLES, relations_check, relations_from_values
from fpselberg.selberg2d_closed import eval_closed

from reference_impl import ReadGrid, dense_terms, grid_value
from test_selberg2d_closed import delta_boundary_forms

CYCLES = [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)]
SAMPLE_SEED = 0xC0DE
SAMPLE_SIZE = 60


class _Seen:
    """Checks each value and records, per evaluator, whether 0 and non-0 occurred."""

    def __init__(self, p: int):
        self.p = p
        self.kinds = defaultdict(set)

    def __call__(self, name: str, value):
        assert type(value) is int, (name, type(value))
        assert 0 <= value < self.p, (name, value)
        self.kinds[name].add(value != 0)

    def assert_both(self, names):
        for name in names:
            assert self.kinds[name] == {False, True}, (name, self.kinds[name])


def _triples(p: int, exhaustive: bool):
    triples = list(itertools.product(range(1, p), repeat=3))
    if exhaustive:
        return triples
    return random.Random(SAMPLE_SEED).sample(triples, SAMPLE_SIZE)


@pytest.mark.parametrize("p, exhaustive", [(7, True), (13, False)])
def test_two_dimensional_evaluators_return_residues(p, exhaustive):
    seen = _Seen(p)
    grid = ReadGrid(p, CYCLES + list(RELATION_CYCLES))
    for a, b, c in _triples(p, exhaustive):
        params = SelbergParams(a, b, c, p)
        spec = params.spec(2)
        poly = MultiPoly(2, dense_terms(_dense_master(2, a, b, c, p)), p)
        for cycle in CYCLES:
            seen("selberg_bruteforce", selberg_bruteforce(spec, cycle))
            seen("selberg_grid", grid_value(grid, a, b, c, cycle))
            seen("selberg_direct_2d", selberg_direct_2d(params, *cycle))
            seen("eval_closed", eval_closed(params, *cycle))
            seen("moment_integral S1", moment_integral(params, cycle, "S1"))
            seen("moment_integral S2", moment_integral(params, cycle, "S2"))
            seen("fp_integral", fp_integral(poly, cycle))
        for report in (relations_check(params),
                       relations_from_values(params, lambda cycle: grid_value(grid, a, b, c, cycle))):
            for value in report.values.values():
                seen("RelationReport.values", value)
    seen.assert_both(["selberg_bruteforce", "selberg_grid", "selberg_direct_2d", "eval_closed",
                      "moment_integral S1", "moment_integral S2", "fp_integral",
                      "RelationReport.values"])


@pytest.mark.parametrize("p", [7, 13])
def test_grid_slabs_hold_residues(p):
    # Slabs are int64 arrays, not ints; every entry of the values and S1 is
    # reduced into [0, p), and both hold zeros and non-zeros.
    slabs = list(selberg_grid(p, CYCLES))
    assert len(slabs) == p
    for a, slab in enumerate(slabs):
        for cells in slab:
            assert cells.dtype == np.int64 and ((0 <= cells) & (cells < p)).all(), a
    values, s1 = slabs[p - 2]
    assert values.any() and s1.any() and not values.all() and not s1.all()


@pytest.mark.parametrize("p", [7, 13])
def test_delta_boundary_forms_return_residues(p):
    # Every (a, b, c) with delta = a+b+2c+1-2p = 0 and a+b >= p-1; the forms
    # there are ratios of factorials below p, so none of them vanishes.
    seen = _Seen(p)
    for a, b in itertools.product(range(1, p), repeat=2):
        c, odd = divmod(2 * p - 1 - a - b, 2)
        if odd or not 0 < c < p or a + b < p - 1:
            continue
        for value in delta_boundary_forms(SelbergParams(a, b, c, p)).values():
            seen("delta_boundary_forms", value)
    assert seen.kinds["delta_boundary_forms"] == {True}


@pytest.mark.parametrize("p, exhaustive", [(7, True), (13, False)])
def test_closed_forms_return_residues(p, exhaustive):
    seen = _Seen(p)
    ctx = get_context(p)
    pairs = list(itertools.product(range(p), repeat=2))
    if not exhaustive:
        pairs = random.Random(SAMPLE_SEED).sample(pairs, SAMPLE_SIZE)
    for a, b in pairs:
        seen("beta_closed", beta_closed(ctx, a, b))
    for n in (1, 2, 3):
        for a, b, c in itertools.product(range(2 * p), range(2 * p), range(p)):
            if not (p - 1 <= a + b + (n - 1) * c and a + b + (2 * n - 2) * c < 2 * p - 1):
                continue
            seen("selberg_nd_closed", selberg_nd_closed(ctx, n, a, b, c))
    seen.assert_both(["beta_closed", "selberg_nd_closed"])


@pytest.mark.parametrize("p", [7, 13])
def test_fp_integral_reduces_signed_coefficients(p):
    seen = _Seen(p)
    rng = random.Random(SAMPLE_SEED + p)
    for _ in range(SAMPLE_SIZE):
        terms = {(rng.randrange(3 * p), rng.randrange(3 * p)): rng.randint(-3 * p, 3 * p)
                 for _ in range(20)}
        terms[(p - 1, p - 1)] = rng.randint(-3 * p, 3 * p)
        poly = MultiPoly(2, terms, p)
        seen("fp_integral", fp_integral(poly, (1, 1)))
    assert seen.kinds["fp_integral"] == {False, True}
