import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg import selberg2d_closed, selberg_core, sweep, verify
from fpselberg.cli import main
from fpselberg.errors import ResourceLimitError
from fpselberg.golden import GOLDEN_2D
from fpselberg.modp_arith import get_context
from fpselberg.selberg_core import SelbergParams, moment_integral, selberg_direct_2d
from fpselberg.selberg2d_closed import (
    ALL_METHODS,
    Branch,
    check_cycle,
    classify,
    eval_closed,
    relations_from_values,
    skew_symmetry_check,
)
from fpselberg.sweep import ALL_SUITES, SWEEP_CSV_HEADER, SweepConfig, render_sweep, sweep_rows
from fpselberg.verify import render_report, run_verification

from reference_impl import REF_SUITES, ReadGrid, prime_at_or_above


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(primes=())
    with pytest.raises(ValueError):
        SweepConfig(primes=(4,))
    with pytest.raises(ValueError):
        SweepConfig(primes=(2,))
    SweepConfig(primes=(7,))  # caches the context of 7
    with pytest.raises(ValueError):
        SweepConfig(primes=(7.0,))
    for cycle_bound in (0, 2.5, "3"):
        with pytest.raises(ValueError, match="cycle_bound"):
            SweepConfig(primes=(3,), cycle_bound=cycle_bound)
    with pytest.raises(ValueError):
        SweepConfig(methods=("magic",))
    with pytest.raises(ValueError):
        SweepConfig(suites=("magic",))
    with pytest.raises(ValueError):
        SweepConfig(methods=(), suites=())
    for parallelism in (0, 1.5, "2"):
        with pytest.raises(ValueError, match="parallelism"):
            SweepConfig(primes=(3,), parallelism=parallelism)
    # the output format is checked by the renderers, which are what read it
    rows = sweep_rows(SweepConfig(primes=(3,), cycle_bound=1, suites=("stokes",)))
    with pytest.raises(ValueError, match="'xml'"):
        render_sweep(rows, "xml")
    with pytest.raises(ValueError, match="'xml'"):
        render_report(run_verification(SweepConfig(primes=(3,), suites=("morris",))), "xml")


def test_config_normalizes_prime_order():
    config = SweepConfig(primes=(7, 3, 5, 3))
    assert config.primes == (3, 5, 7)
    assert list(config.cycles()) == [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)]


def test_all_suites_pass_on_small_grid():
    config = SweepConfig(primes=(3, 5), suites=ALL_SUITES, integer_mode=True)
    report = run_verification(config)
    assert report.failed_total == 0
    assert report.checked_total > 0
    assert {s.name for s in report.suites} == set(ALL_SUITES)
    for suite in report.suites:
        assert suite.failed == 0
        assert suite.counterexamples == []
        assert suite.checked == suite.passed


def test_row_count_arithmetic():
    config = SweepConfig(primes=(3, 5), cycle_bound=2, suites=("stokes",))
    rows = sweep_rows(config)
    # sum over p of (p-1)^3 times the number of pairs l1 <= l2 <= bound
    assert len(rows) == (2**3 + 4**3) * 3


@pytest.mark.parametrize("method", ALL_METHODS)
def test_sweep_checks_cycles_once_per_run(monkeypatch, method):
    # The configured cycles are checked when the config is made, so the number
    # of cycle checks a sweep makes must not grow with its rows.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_cycle(*args, **kwargs)

    for module in (selberg2d_closed, selberg_core, sweep, verify):
        monkeypatch.setattr(module, "check_cycle", counted, raising=False)
    counts = []
    for p in (5, 7):
        calls.clear()
        rows = sweep_rows(SweepConfig(primes=(p,), methods=(method,), suites=()))
        assert len(rows) == (p - 1) ** 3 * 10
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_sweep_parallelism_gives_identical_rows():
    base = SweepConfig(primes=(3, 5, 7), suites=("stokes",))
    parallel = SweepConfig(primes=(3, 5, 7), suites=("stokes",), parallelism=4)
    assert sweep_rows(base) == sweep_rows(parallel)
    assert render_sweep(sweep_rows(base), "csv") == render_sweep(sweep_rows(parallel), "csv")


def test_render_sweep_formats():
    rows = sweep_rows(SweepConfig(primes=(3,), cycle_bound=1, suites=("stokes",)))
    csv_text = render_sweep(rows, "csv")
    assert csv_text.splitlines()[0] == SWEEP_CSV_HEADER
    assert csv_text.endswith("\n")
    payload = json.loads(render_sweep(rows, "json"))
    assert payload["schema"] == 1
    assert len(payload["rows"]) == len(rows)
    text = render_sweep(rows, "text")
    assert "branch" in text.splitlines()[0]


def test_render_report_formats():
    report = run_verification(SweepConfig(primes=(3,), suites=("stokes", "morris")))
    payload = json.loads(render_report(report, "json"))
    assert payload["schema"] == 1
    assert payload["failed_total"] == 0
    csv_text = render_report(report, "csv")
    assert csv_text.splitlines()[0] == "suite,checked,passed,failed,skipped,seconds"
    assert len(csv_text.splitlines()) == 3
    text = render_report(report, "text")
    assert "suite stokes" in text and "[ok]" in text


def test_nd_suite_records_skip_at_large_prime():
    report = run_verification(SweepConfig(primes=(13,), suites=("nd",)))
    (suite,) = report.suites
    assert suite.failed == 0
    assert suite.skipped == 1
    assert suite.notes == ["n=3 comparison skipped at p=13: checked at p <= 11"]


def test_relations_suite_notes_golden_discrepancy():
    report = run_verification(SweepConfig(primes=(7,), suites=("relations",)))
    (suite,) = report.suites
    assert suite.failed == 0
    assert any("paper_discrepancy=true" in note for note in suite.notes)


def _without_seconds(report) -> dict:
    payload = json.loads(render_report(report, "json"))
    for suite in payload["suites"]:
        del suite["seconds"]
    return payload


def test_grid_over_the_cap_runs_window_by_window(monkeypatch):
    # The shared p = 7 grid takes 400 cells of Q plus 2 * 7^2 * 12 = 1,176 per
    # a value, so these caps hold 1, 2 and 3 of its 7 a values at once, and
    # every suite pass reads it window by window; the report must not change.
    # The sweep's grid on 10 cycles (980 cells per a value) gets the same widths.
    config = SweepConfig(primes=(7,), suites=ALL_SUITES)
    bruteforce = SweepConfig(primes=(5, 7), methods=("bruteforce",), suites=("stokes",))
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    whole = run_verification(config)
    closed = sweep_rows(SweepConfig(primes=(5, 7), methods=("closed",), suites=("stokes",)))
    for cap, width in [(1576, 1), (2752, 2), (4000, 3)]:
        monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(cap))
        assert selberg_core._guard_grid(7, verify._guard_grids(config), None)[3] == width
        windowed = run_verification(config)
        assert windowed.failed_total == whole.failed_total == 0
        assert _without_seconds(windowed) == _without_seconds(whole), cap
        assert selberg_core._guard_grid(7, bruteforce.cycles(), None)[3] == width
        assert sweep_rows(bruteforce) == closed, cap


def test_nd_window_at_p127_is_not_refused(monkeypatch):
    # The n=2 window grid (a, b < 2p on [1,1]) at p = 127 is over the default
    # cap as a whole box, but a 3-value window fits; p = 223 is the last prime
    # whose one-value window does.  Checked without allocating: numpy is out of reach.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert selberg_core._guard_grid(127, [(1, 1)], 2 * 127)[3] == 3
    selberg_core._guard_grid(223, [(1, 1)], 2 * 223)
    with pytest.raises(ResourceLimitError, match="for a window of 1 a value,"):
        selberg_core._guard_grid(227, [(1, 1)], 2 * 227)


@pytest.mark.parametrize("run, last, refused", [("verify", 83, 89), ("bruteforce-sweep", 89, 97)])
def test_default_cap_thresholds(monkeypatch, run, last, refused):
    # The last prime whose smallest window, one a value, fits the default cap,
    # and the next prime, refused (nd's are pinned above).  Checked without
    # allocating: numpy is out of reach.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    guards = {
        "verify": lambda p: verify._guard_grids(SweepConfig(primes=(p,))),
        "bruteforce-sweep": lambda p: sweep.iter_sweep_rows(SweepConfig(primes=(p,), methods=("bruteforce",))),
    }
    guards[run](last)
    with pytest.raises(ResourceLimitError, match=f"grid at p={refused} .* window of 1 a value,"):
        guards[run](refused)


@pytest.mark.parametrize("run, p, budget", [
    ("verify", 13, (36, 13, 13)), ("verify", 19, (54, 19, 19)), ("verify", 23, (66, 19, 1)),
    ("verify", 53, (156, 3, 1)), ("verify", 83, (246, 1, 1)),
    ("bruteforce-sweep", 23, (66, 23, 1)), ("bruteforce-sweep", 89, (264, 1, 1)),
])
def test_default_cap_cell_budgets(monkeypatch, run, p, budget):
    # (deg, width, chunk) of verify's shared grid (12 cycles) and the sweep's
    # (10) at the default cap: the whole box and stack fit up to p = 13, the
    # whole box up to p = 19 (sweep 23); past them one c, then windows of a.
    # Checked without allocating: numpy is out of reach.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    config = SweepConfig(primes=(p,))
    cycles = verify._guard_grids(config) if run == "verify" else tuple(config.cycles())
    assert selberg_core._guard_grid(p, cycles, None)[2:] == budget


@pytest.mark.parametrize("run", ["oracle_equiv", "recurrences", "relations", "vanishing", "morris", "nd",
                                 "bruteforce-sweep"])
def test_every_pass_reads_its_grids_in_ascending_a(monkeypatch, run):
    # At 1,576 cells the shared p = 7 grid holds one a value at a time and
    # nd's windows 7 and 5 of their 14: every grid a suite run alone or a
    # brute-force sweep builds is built at increasing starts, each block once.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "1576")
    starts = {}
    build = selberg_core._build_window

    def recorded(p, cycles, deg, chunk, start, values, s1):  # one grid per (p, a and b range, cycles)
        starts.setdefault((p, values.shape[1], cycles), []).append(start)
        build(p, cycles, deg, chunk, start, values, s1)

    monkeypatch.setattr(selberg_core, "_build_window", recorded)
    if run == "bruteforce-sweep":
        rows = sweep_rows(SweepConfig(primes=(5, 7), methods=("bruteforce",), suites=("stokes",)))
        assert rows == sweep_rows(SweepConfig(primes=(5, 7), methods=("closed",), suites=("stokes",)))
    else:
        assert run_verification(SweepConfig(primes=(7,), suites=(run,))).failed_total == 0
    assert any(len(built) > 1 for built in starts.values())
    for built in starts.values():
        assert built == sorted(set(built)), built


def test_one_walk_builds_each_shared_block_once(monkeypatch):
    # At 1,576 cells the shared p = 7 grid holds one a value at a time.  Every
    # suite of a full run reads it from one walk, which builds each a once, in
    # ascending order; a pass per suite built 31 windows.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "1576")
    builds = []
    build = selberg_core._build_window
    monkeypatch.setattr(selberg_core, "_build_window", lambda p, cycles, deg, chunk, start, values, s1: builds.append(
        (p, values.shape[1], len(cycles), start)) or build(p, cycles, deg, chunk, start, values, s1))
    assert run_verification(SweepConfig(primes=(7,), suites=ALL_SUITES)).failed_total == 0
    assert [start for p, ab_stop, count, start in builds if ab_stop == p] == list(range(7))


@pytest.mark.parametrize("cap", [None, "1576"], ids=["whole", "windowed"])
@pytest.mark.parametrize("integer_mode", [False, True], ids=["residue", "integer"])
def test_each_suite_alone_reports_its_entry_of_the_full_run(monkeypatch, integer_mode, cap):
    # Which grid checks share a walk decides whether its points carry their
    # branches; a suite run alone reports what it reports beside every other.
    _set_cap(monkeypatch, cap)
    full = _without_seconds(run_verification(SweepConfig(primes=(5, 7), suites=ALL_SUITES,
                                                         integer_mode=integer_mode)))
    assert [entry["name"] for entry in full["suites"]] == list(ALL_SUITES)
    for entry in full["suites"]:
        config = SweepConfig(primes=(5, 7), suites=(entry["name"],), integer_mode=integer_mode)
        assert _without_seconds(run_verification(config))["suites"] == [entry], entry["name"]


def test_the_walk_builds_each_point_once(monkeypatch):
    # The grid checks share one SelbergParams per (p, a, b, c) of the walk
    # and golden builds its own; a walk read by recurrences alone builds no
    # point and classifies none, and oracle_equiv classifies each point once
    # on every configured cycle.
    built, classified = [], []
    monkeypatch.setattr(verify, "SelbergParams", lambda *args: built.append(args) or SelbergParams(*args))

    def counted(classify):
        return lambda *args: classified.append(args) or classify(*args)

    for cycle, (label, classify) in selberg2d_closed._CYCLE_CLASSES.items():
        monkeypatch.setitem(selberg2d_closed._CYCLE_CLASSES, cycle, (label, counted(classify)))
    monkeypatch.setattr(verify, "_OTHER_CLASS", (verify._OTHER_CLASS[0], counted(verify._OTHER_CLASS[1])))
    config = SweepConfig(primes=(5, 7), suites=("oracle_equiv", "relations", "vanishing", "morris"))
    assert run_verification(config).failed_total == 0
    walk = [(a, b, c, p) for p in config.primes for a, b, c in itertools.product(range(1, p), repeat=3)]
    golden = [(g.a, g.b, g.c, g.p) for g in GOLDEN_2D if g.p in config.primes]
    assert len(golden) == 3 and sorted(built) == sorted(walk + golden)
    built.clear(), classified.clear()
    assert run_verification(SweepConfig(primes=(5, 7), suites=("recurrences",))).failed_total == 0
    assert built == classified == []
    assert run_verification(SweepConfig(primes=(5, 7), suites=("oracle_equiv",))).failed_total == 0
    assert sorted(classified) == sorted(walk * len(list(config.cycles())))


@pytest.mark.parametrize("name", ["oracle_equiv", "recurrences", "relations", "vanishing", "morris"])
def test_an_error_in_the_middle_of_the_walk_fails_only_that_suite(monkeypatch, name):
    # The grid check of one suite raises at a = 3 of p = 7: that suite is one
    # failed check naming the error, and every other suite reads the rest of
    # the walk as a clean run does.
    config = SweepConfig(primes=(5, 7))
    clean = _without_seconds(run_verification(config))
    suite = verify._SUITES[name]

    def raising(config, result, step):
        if (step.p, step.a) == (7, 3):
            raise ArithmeticError("a check broke at a = 3")
        suite.grid(config, result, step)

    monkeypatch.setitem(verify._SUITES, name, suite._replace(grid=raising))
    broken = _without_seconds(run_verification(config))
    for got, want in zip(broken["suites"], clean["suites"]):
        if got["name"] != name:
            assert got == want, got["name"]
            continue
        assert (got["checked"], got["passed"], got["failed"], got["skipped"], got["notes"]) == (1, 0, 1, 0, [])
        assert got["counterexamples"] == [{"error": "ArithmeticError: a check broke at a = 3"}]
    assert broken["failed_total"] == 1


# Mutations the pinned reports below are made under.  C12_ii_sign flips the
# sign of that branch's formula; value_cell and s1_cell add 1 mod p to one
# value and one S1 cell of the shared p = 7 grid, (a, b, c, cycle) below,
# whenever a window holding it is built.
MUTATIONS = ("C12_ii_sign", "value_cell", "s1_cell")
_MUTATED_CELLS = {"value_cell": (2, 3, 2, (1, 2)), "s1_cell": (4, 2, 5, (2, 2))}
# sha256 of the JSON report of `verify --primes 5,7,11` without its seconds
# under each mutation, whole-box or in windows of 3 a values at p = 11.
MUTATED_REPORT_SHA256 = {
    "C12_ii_sign": "d23716d220fc36b3d1f41180326fd516ed57a060a70cf2ef47ab50d43dda0d3b",
    "value_cell": "a4fcd522c13df351557564408fe3ffa82e6c70d179cb822eac49a0f69f4704a2",
    "s1_cell": "26e0ec970ecd627dd1723186b571e49e74a72848c101350d40b1d233d31a6313",
}


def _mutate(monkeypatch, mutation: str):
    if mutation == "C12_ii_sign":
        real = selberg2d_closed._formula

        def flipped(branch, params):
            sign, top, bottom = real(branch, params)
            return (-sign if branch == Branch.C12_ii else sign), top, bottom

        monkeypatch.setattr(selberg2d_closed, "_formula", flipped)
        return
    a, b, c, cycle = _MUTATED_CELLS[mutation]
    build = selberg_core._build_window

    def shifted(p, cycles, deg, chunk, start, values, s1):
        build(p, cycles, deg, chunk, start, values, s1)
        if p == 7 and cycle in cycles and start <= a < start + len(values):
            cells = values if mutation == "value_cell" else s1
            slot = (a - start, b, c, cycles.index(cycle))
            cells[slot] = (cells[slot] + 1) % 7

    monkeypatch.setattr(selberg_core, "_build_window", shifted)


def _set_cap(monkeypatch, cap):
    if cap is None:
        monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    else:
        monkeypatch.setenv("FPSELBERG_MAX_TERMS", cap)


def test_windowed_verify_keeps_counterexample_order(monkeypatch):
    # A wrong C12_ii sign gives the same failing report, counterexamples in
    # the same order, whether p = 11 is read as a whole box or in windows of
    # 3 a values (12,000 cells).
    _mutate(monkeypatch, "C12_ii_sign")
    config = SweepConfig(primes=(5, 7, 11))
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    whole = run_verification(config)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "12000")
    assert selberg_core._guard_grid(11, verify._guard_grids(config), None)[3] == 3
    windowed = run_verification(config)
    assert whole.failed_total > 0
    assert _without_seconds(windowed) == _without_seconds(whole)


@pytest.mark.parametrize("cap", [None, "12000"], ids=["whole", "windowed"])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_verify_reports_are_pinned(monkeypatch, tmp_path, mutation, cap):
    _set_cap(monkeypatch, cap)
    _mutate(monkeypatch, mutation)
    out = tmp_path / "report.json"
    assert main(["verify", "--primes", "5,7,11", "--format", "json", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    for suite in payload["suites"]:
        del suite["seconds"]
    text = json.dumps(payload, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == MUTATED_REPORT_SHA256[mutation]


@pytest.mark.parametrize("cap", [None, "12000"], ids=["whole", "windowed"])
@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_grid_suites_match_per_point_reference(monkeypatch, mutation, cap):
    # The suites that read a slab of a at a time from the walk give the counts,
    # notes and counterexamples, in order, of per-point loops over the same grids.
    _set_cap(monkeypatch, cap)
    if mutation:
        _mutate(monkeypatch, mutation)
    config = SweepConfig(primes=(5, 7, 11), integer_mode=True)
    suites = {suite.name: suite for suite in run_verification(config).suites}
    cycles = verify._guard_grids(config)
    failed = 0
    for name, reference in REF_SUITES.items():
        got = suites[name]
        want = reference(config, {p: ReadGrid(p, cycles) for p in config.primes})
        assert (got.checked, got.passed, got.failed, got.skipped, got.notes) == \
               (want.checked, want.passed, want.failed, want.skipped, want.notes), name
        assert got.counterexamples == want.counterexamples, name
        failed += got.failed
    assert (failed > 0) == (mutation is not None)


def _record_suite_runs(monkeypatch) -> list:
    """The suites whose checks run from here on, in the order each first runs one."""
    ran = []

    def recorded(name, check):
        def run(*args):
            if name not in ran:
                ran.append(name)
            return check(*args)
        return run

    for name, suite in verify._SUITES.items():
        monkeypatch.setitem(verify._SUITES, name, verify._Suite(*(check and recorded(name, check) for check in suite)))
    return ran


@pytest.mark.parametrize("kwargs, refused", [
    *[({"suites": (suite,)}, suite not in ("stokes", "nd")) for suite in ALL_SUITES],
    ({"primes": (11,), "suites": ("morris",)}, False),  # the bridge reads the grid at p <= 7 only
    ({"methods": ("direct", "closed"), "suites": ("oracle_equiv",)}, True),  # compares every route
], ids=[*ALL_SUITES, "morris-at-p11", "oracle_equiv-without-bruteforce"])
def test_verify_checks_the_grids_its_suites_read(monkeypatch, kwargs, refused):
    # One cell under the smallest shared p = 7 window (400 + 1,176 cells);
    # the windows of nd still fit.  A refused run runs no suite at all.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(400 + 1176 - 1))
    ran = _record_suite_runs(monkeypatch)
    config = SweepConfig(**{"primes": (7,), **kwargs})
    if refused:
        with pytest.raises(ResourceLimitError, match="needs 1576 coefficient cells"):
            run_verification(config)
        assert ran == []
    else:
        assert run_verification(config).failed_total == 0
        assert ran == list(config.suites)


def test_verify_refuses_a_prime_over_the_cap_before_any_suite(monkeypatch, capsys, tmp_path):
    # No window of the shared grid fits the default cap at p = 89, so the run
    # is refused before the p = 13 suites start; stokes reads no grid.
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    ran = _record_suite_runs(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["verify", "--primes", "13,89", "--out", str(out)]) == 3
    assert main(["verify", "--primes", "13,89"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p=89" in captured.err and "raise FPSELBERG_MAX_TERMS" in captured.err
    assert not out.exists() and ran == []
    assert main(["verify", "--primes", "127", "--suite", "stokes"]) == 0
    assert ran == ["stokes"]


def test_verify_refuses_an_nd_n3_window_over_the_cap(monkeypatch, capsys):
    # One cell under the smallest n = 3 window of nd at p = 7 (8^3 cells of Q
    # plus 2 * 14 * 7); its n = 2 window (8^2 + 196 cells) still fits.
    # The n = 3 comparison used to expand per point and skip the points over
    # the cap.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(8**3 + 2 * 14 * 7 - 1))
    selberg_core._guard_grid(7, [(1, 1)], 14)
    ran = _record_suite_runs(monkeypatch)
    assert main(["verify", "--primes", "7", "--suite", "nd"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "needs 708 coefficient cells" in captured.err
    assert ran == []


def test_default_verify_expands_only_golden_points(monkeypatch):
    # Every other brute-force read, nd's n = 3 comparison included, comes
    # from a grid, and skew symmetry reads Phi by the direct sum.  Keys are
    # (n, a, b, c, p), p = None for exact.
    calls = set()
    dense_master = selberg_core._dense_master
    monkeypatch.setattr(selberg_core, "_dense_master",
                        lambda *args: calls.add(args) or dense_master(*args))
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert run_verification(SweepConfig()).failed_total == 0
    golden = {(2, g.a, g.b, g.c, g.p) for g in GOLDEN_2D}
    golden |= {(2, g.a, g.b, g.c, None) for g in GOLDEN_2D if g.integer_value is not None}
    assert len(golden) == 6 and calls == golden


# Condition sets, and outside them the (1,2) branch, that the large-prime
# points are drawn from; C12_i lies inside R1, and C12_ii points keep that
# formula's sign checked against the direct sum.
LARGE_PRIME_STRATA = ("R1", "R2", "R3", "C12_ii", "C12_iii_zero", "C12_v_zero", "C12_vi_zero",
                      "C12_delta_neg_zero")


def _large_prime_points(rng, per_stratum: int):
    """Seeded (stratum, params) at primes 10^3..10^4, log-uniform, per_stratum of each stratum."""
    want = dict.fromkeys(LARGE_PRIME_STRATA, per_stratum)
    while any(want.values()):
        p = prime_at_or_above(int(10 ** rng.uniform(3, 4)))
        for _ in range(200):
            params = SelbergParams(*(rng.randrange(1, p) for _ in "abc"), p)
            stratum = selberg2d_closed.condition_set(params) or str(classify(params, 1, 2))
            if want.get(stratum):
                want[stratum] -= 1
                yield stratum, params
                break


def test_relations_recurrences_and_skew_symmetry_at_large_primes():
    # Primes no grid reaches, read by the direct sum alone: the -1/2
    # relations or uniqueness with every read equal to the closed form, skew
    # symmetry on R3, and the recurrences of the verify suite with S from
    # selberg_direct_2d and (S1, S2) from moment_integral.
    seen = set()
    try:
        for stratum, params in _large_prime_points(random.Random(0x1A46E), 6):
            a, b, c, p = params

            def direct(a, b, cycle):  # 0 outside the window, where no recurrence reads it
                return selberg_direct_2d(SelbergParams(a, b, c, p), *cycle) if 0 < a < p and 0 < b < p else 0

            report = relations_from_values(params, lambda cycle: selberg_direct_2d(params, *cycle))
            assert report.relation_holds if report.condition_set else report.uniqueness_holds, params
            for cycle, value in report.values.items():
                assert eval_closed(params, *cycle) == value, (params, cycle)
            if stratum == "R3":
                assert skew_symmetry_check(params) is True, params
            for cycle in verify._RECURRENCE_CYCLES:
                moments = (moment_integral(params, cycle, kind) for kind in ("S1", "S2"))
                shifted = (direct(a + 1, b, cycle), direct(a, b + 1, cycle), direct(a - 1, b, cycle),
                           direct(a, b - 1, cycle))
                checks = verify._recurrences(p, a, b, c, direct(a, b, cycle), *moments, *shifted,
                                             lambda d: pow(d, -1, p) if d else 0)
                for eq, applies, lhs, rhs in checks:
                    if applies:
                        assert lhs == rhs, (eq, params, cycle)
                        seen.add(eq)
    finally:
        get_context.cache_clear()  # each prime's tables are freed with the test
    assert seen == {"Ao1", "Ao2", "Ao3", "Ao4", "Ar1", "Ar2"}


# Makes the first import of numpy in the process take NUMPY_SLEEP seconds longer.
NUMPY_SLEEP = 1.0
_SLOW_NUMPY = f"""
import sys, time


class SlowNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            time.sleep({NUMPY_SLEEP})
        return None


sys.meta_path.insert(0, SlowNumpy())
from fpselberg import cli
from fpselberg.sweep import SweepConfig
from fpselberg.verify import run_verification

assert cli.main(["verify", "--suite", "stokes", "--primes", "3"]) == 0
assert "numpy" not in sys.modules
start = time.perf_counter()
report = run_verification(SweepConfig(primes=(3,), suites=("morris", "stokes")))
print(time.perf_counter() - start, *(suite.seconds for suite in report.suites))
"""


def test_suite_seconds_leave_out_the_numpy_import():
    # morris is the first suite to read numpy; the run loads it before any
    # suite's clock starts, and a stokes-only run never loads it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SLOW_NUMPY], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    total, morris, stokes = map(float, proc.stdout.split()[-3:])
    assert total > NUMPY_SLEEP > morris + stokes, proc.stdout
