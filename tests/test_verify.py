import json
import sys

import pytest

from fpselberg import selberg_core, verify
from fpselberg.verify import (
    ALL_SUITES,
    SWEEP_CSV_HEADER,
    SweepConfig,
    render_report,
    render_sweep,
    run_verification,
    sweep_rows,
)


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
    with pytest.raises(ValueError):
        SweepConfig(cycle_bound=0)
    with pytest.raises(ValueError):
        SweepConfig(methods=("magic",))
    with pytest.raises(ValueError):
        SweepConfig(suites=("magic",))
    with pytest.raises(ValueError):
        SweepConfig(methods=(), suites=())
    with pytest.raises(ValueError):
        SweepConfig(output_format="xml")
    with pytest.raises(ValueError):
        SweepConfig(parallelism=0)


def test_config_normalizes_prime_order():
    config = SweepConfig(primes=(7, 3, 5, 3))
    assert config.primes == (3, 5, 7)
    assert config.cycles() == [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)]


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
    assert suite.skipped >= 1
    assert any("resource guard" in note for note in suite.notes)


def test_relations_suite_notes_golden_discrepancy():
    report = run_verification(SweepConfig(primes=(7,), suites=("relations",)))
    (suite,) = report.suites
    assert suite.failed == 0
    assert any("paper_discrepancy=true" in note for note in suite.notes)


def test_grid_over_the_cap_falls_back_to_per_point_bruteforce(monkeypatch):
    # With the cap at 2,500 cells no p = 7 grid fits (the shared one needs
    # 2 * 7^3 * 12 boxes), but every per-point expansion the suites make does.
    config = SweepConfig(primes=(7,), suites=ALL_SUITES)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    on_grid = run_verification(config)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "2500")
    assert isinstance(verify._oracle(7, [(1, 1)], 14), verify._PointOracle)
    per_point = run_verification(config)
    assert per_point.failed_total == on_grid.failed_total == 0
    assert [(s.name, s.checked, s.skipped) for s in per_point.suites] == [
        (s.name, s.checked, s.skipped) for s in on_grid.suites]
    bruteforce = SweepConfig(primes=(5,), methods=("bruteforce",), suites=("stokes",))
    assert sweep_rows(bruteforce) == sweep_rows(SweepConfig(primes=(5,), suites=("stokes",)))


def test_nd_window_at_p127_is_not_refused(monkeypatch):
    # The n=2 window grid at p = 127 is over the default cap; verify falls back
    # to per-point expansion, whose largest window point fits.  Checked without
    # allocating: the grid refuses before any numpy call.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert isinstance(verify._oracle(127, [(1, 1)], 2 * 127), verify._PointOracle)
    selberg_core._guard_expansion(selberg_core.MasterPolySpec(2, 126, 126, 0, 127))
