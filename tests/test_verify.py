import json
import sys

import pytest

from fpselberg import selberg2d_closed, selberg_core, verify
from fpselberg.cli import main
from fpselberg.errors import ResourceLimitError
from fpselberg.golden import GOLDEN_2D
from fpselberg.selberg2d_closed import Branch
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
        SweepConfig(parallelism=0)
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
    # At 4,000 cells the shared p = 7 grid holds 3 of its 7 a values at once
    # (400 cells of Q plus 2 * 7^2 * 12 per a value), so every suite pass
    # reads it window by window; the report must not change.
    config = SweepConfig(primes=(7,), suites=ALL_SUITES)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    whole = run_verification(config)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "4000")
    assert selberg_core._guard_grid(7, verify._GridCache(config).cycles, None)[3] == 3
    windowed = run_verification(config)
    assert windowed.failed_total == whole.failed_total == 0
    assert _without_seconds(windowed) == _without_seconds(whole)
    bruteforce = SweepConfig(primes=(5, 7), methods=("bruteforce",), suites=("stokes",))
    assert selberg_core._guard_grid(7, bruteforce.cycles(), None)[3] == 3
    assert sweep_rows(bruteforce) == sweep_rows(SweepConfig(primes=(5, 7), suites=("stokes",)))


def test_nd_window_at_p127_is_not_refused(monkeypatch):
    # The n=2 window grid (a, b < 2p on [1,1]) at p = 127 is over the default
    # cap as a whole box, but its 3-value window fits; p = 137 is the last
    # prime that does.  Checked without allocating: numpy is out of reach.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert selberg_core._guard_grid(127, [(1, 1)], 2 * 127)[3] == 3
    selberg_core._guard_grid(137, [(1, 1)], 2 * 137)
    with pytest.raises(ResourceLimitError, match="for a window of 3 a values"):
        selberg_core._guard_grid(139, [(1, 1)], 2 * 139)


def test_windowed_verify_keeps_counterexample_order(monkeypatch):
    # A wrong C12_ii sign gives the same failing report, counterexamples in
    # the same order, whether p = 11 is read as a whole box or in windows of
    # 3 a values (12,000 cells).
    real = selberg2d_closed._formula

    def flipped(branch, params):
        sign, top, bottom = real(branch, params)
        return (-sign if branch == Branch.C12_ii else sign), top, bottom

    monkeypatch.setattr(selberg2d_closed, "_formula", flipped)
    config = SweepConfig(primes=(5, 7, 11))
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    whole = run_verification(config)
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "12000")
    assert selberg_core._guard_grid(11, verify._GridCache(config).cycles, None)[3] == 3
    windowed = run_verification(config)
    assert whole.failed_total > 0
    assert _without_seconds(windowed) == _without_seconds(whole)


def _record_suite_runs(monkeypatch) -> list:
    ran = []
    for name, runner in verify._SUITE_RUNNERS.items():
        monkeypatch.setitem(verify._SUITE_RUNNERS, name,
                            lambda *args, name=name, runner=runner: ran.append(name) or runner(*args))
    return ran


@pytest.mark.parametrize("kwargs, refused", [
    *[({"suites": (suite,)}, suite not in ("stokes", "nd")) for suite in ALL_SUITES],
    ({"primes": (11,), "suites": ("morris",)}, False),  # the bridge reads the grid at p <= 7 only
    ({"methods": ("direct", "closed"), "suites": ("oracle_equiv",)}, False),
], ids=[*ALL_SUITES, "morris-at-p11", "oracle_equiv-without-bruteforce"])
def test_verify_checks_the_grids_its_suites_read(monkeypatch, kwargs, refused):
    # One cell under the smallest shared p = 7 window (400 + 3 * 1,176 cells);
    # the n=2 window of nd still fits.  A refused run runs no suite at all.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "3927")
    ran = _record_suite_runs(monkeypatch)
    config = SweepConfig(**{"primes": (7,), **kwargs})
    if refused:
        with pytest.raises(ResourceLimitError, match="needs 3928 coefficient cells"):
            run_verification(config)
        assert ran == []
    else:
        assert run_verification(config).failed_total == 0
        assert ran == list(config.suites)


def test_verify_refuses_a_prime_over_the_cap_before_any_suite(monkeypatch, capsys, tmp_path):
    # No window of the shared grid fits the default cap at p = 59, so the run
    # is refused before the p = 13 suites start; stokes reads no grid.
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    ran = _record_suite_runs(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["verify", "--primes", "13,59", "--out", str(out)]) == 3
    assert main(["verify", "--primes", "13,59"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p=59" in captured.err and "raise FPSELBERG_MAX_TERMS" in captured.err
    assert not out.exists() and ran == []
    assert main(["verify", "--primes", "127", "--suite", "stokes"]) == 0
    assert ran == ["stokes"]


def test_verify_refuses_an_nd_n3_window_over_the_cap(monkeypatch, capsys):
    # One cell under the smallest n = 3 window of nd at p = 7 (8^3 cells of Q
    # plus 3 * 2 * 14 * 7); its n = 2 window (8^2 + 588 cells) still fits.
    # The n = 3 comparison used to expand per point and skip the points over
    # the cap.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(8**3 + 3 * 2 * 14 * 7 - 1))
    selberg_core._guard_grid(7, [(1, 1)], 14)
    ran = _record_suite_runs(monkeypatch)
    assert main(["verify", "--primes", "7", "--suite", "nd"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "needs 1100 coefficient cells" in captured.err
    assert ran == []


def test_default_verify_expands_only_the_golden_points(monkeypatch):
    # Every other brute-force read, nd's n = 3 comparison included, comes
    # from a grid.
    calls = set()
    dense_master = selberg_core._dense_master
    monkeypatch.setattr(selberg_core, "_dense_master",
                        lambda *args: calls.add(args) or dense_master(*args))
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    assert run_verification(SweepConfig()).failed_total == 0
    golden = {(2, g.a, g.b, g.c, g.p, False) for g in GOLDEN_2D}
    golden |= {(2, g.a, g.b, g.c, g.p, True) for g in GOLDEN_2D if g.integer_value is not None}
    assert calls == golden and len(golden) == 6
