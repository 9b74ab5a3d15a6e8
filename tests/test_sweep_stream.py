"""Streamed sweeps: the same bytes as whole-list rendering, nothing written on a
refusal, and memory that does not grow with the number of rows."""

import itertools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg import modp_arith
from fpselberg.cli import main
from fpselberg.selberg2d_closed import Branch
from fpselberg.verify import (
    ALL_METHODS,
    SweepConfig,
    iter_render_sweep,
    iter_sweep_rows,
    render_sweep,
    sweep_rows,
)
from reference_impl import ref_render_sweep_csv, ref_render_sweep_text

ROOT = Path(__file__).resolve().parents[1]

REFERENCES = {
    "json": lambda rows: json.dumps({"schema": 1, "kind": "sweep", "rows": rows},
                                    sort_keys=True, indent=2) + "\n",
    "csv": ref_render_sweep_csv,
    "text": ref_render_sweep_text,
}


@pytest.mark.parametrize("cycle_bound", [1, 4])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_streamed_renderers_match_whole_list_references(tmp_path, capsys, method, cycle_bound):
    rows = sweep_rows(SweepConfig(primes=(3, 5), cycle_bound=cycle_bound, methods=(method,), suites=()))
    for fmt, reference in REFERENCES.items():
        expected = reference(rows)
        assert render_sweep(rows, fmt) == expected, fmt
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--primes", "3,5", "--cycle-bound", str(cycle_bound),
                "--method", method, "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected, fmt
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, fmt


def test_json_renderer_on_no_rows():
    assert render_sweep([], "json") == REFERENCES["json"]([])


def test_branch_values_need_no_json_escaping():
    # The json row template writes the branch between quotes as it is.
    for branch in Branch:
        assert re.fullmatch(r"[A-Za-z0-9_]+", branch.value), branch


def _refused(capsys, tmp_path, argv):
    out = tmp_path / "sweep.out"
    code = main(argv + ["--out", str(out)])
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (code, main(argv)) == (3, 3)
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# The smallest p = 5 window of the bruteforce sweep: Q cut at degree 12 takes
# 14^2 cells, and 3 a values of the two boxes 2 * 3 * 5^2 * 10 cycles.
SMALLEST_P5_WINDOW = 14**2 + 2 * 3 * 5**2 * 10


def test_bruteforce_sweep_over_the_cap_writes_nothing(monkeypatch, capsys, tmp_path):
    # The whole p = 3 grid fits; no p = 5 window does, so the sweep is refused
    # before any p = 3 row is out.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(SMALLEST_P5_WINDOW - 1))
    err = _refused(capsys, tmp_path,
                   ["sweep", "--primes", "3,5", "--method", "bruteforce"])
    assert f"{SMALLEST_P5_WINDOW} coefficient cells for a window of 3 a values" in err


def test_bruteforce_sweep_at_the_smallest_window_runs(monkeypatch, capsys):
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(SMALLEST_P5_WINDOW))
    assert main(["sweep", "--primes", "3,5", "--method", "bruteforce", "--format", "csv"]) == 0
    windowed = capsys.readouterr().out
    assert main(["sweep", "--primes", "3,5", "--format", "csv"]) == 0
    assert windowed == capsys.readouterr().out


@pytest.mark.parametrize("method", ["closed", "direct"])
def test_sweep_over_the_table_cap_writes_nothing(monkeypatch, capsys, tmp_path, method):
    # Tables of (p+1)/2 entries: p = 3 fits a cap of 2, p = 5 does not.
    monkeypatch.setattr(modp_arith, "MAX_TABLE_ENTRIES", 2)
    err = _refused(capsys, tmp_path, ["sweep", "--primes", "3,5", "--method", method])
    assert "factorial tables at p=5" in err


# Runs argv and prints its exit code and peak RSS in KB (bytes on macOS).  The
# command starts from this small process, not from the test process: a child
# forked from a large process would report that process's resident size.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _sweep_peak_mb(*args) -> float:
    argv = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "fpselberg.cli", "sweep", *args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("FPSELBERG_MAX_TERMS", None)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120, check=True)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def test_sweep_memory_does_not_grow_with_rows(tmp_path):
    # 219,520 json rows: 540 MB when every row was held in memory at once.
    assert _sweep_peak_mb("--primes", "29", "--format", "json") < 64
    # The p = 29 bruteforce grid is over the default cap as a whole box and is
    # read in windows of a values: 201 MB when it was expanded per point.
    out = {method: tmp_path / f"{method}.csv" for method in ("bruteforce", "closed")}
    for method, path in out.items():
        assert _sweep_peak_mb("--primes", "29", "--method", method, "--format", "csv",
                              "--out", str(path)) < 64
    assert out["bruteforce"].read_bytes() == out["closed"].read_bytes()


# --cycle-bound 100000 names 5,000,050,000 cycles: their list cannot be built
# in 1 GiB of address space, the limit these children run under.
HUGE_BOUND = ["--primes", "3", "--cycle-bound", "100000"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_in_1gib(*args) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("FPSELBERG_MAX_TERMS", None)
    return subprocess.Popen([sys.executable, "-m", "fpselberg.cli", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, preexec_fn=_limit_address_space)


needs_rlimit_as = pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")


@needs_rlimit_as
@pytest.mark.parametrize("args", [
    ["verify", *HUGE_BOUND, "--suite", "stokes"],
    ["verify", *HUGE_BOUND, "--suite", "nd"],
    ["verify", "--primes", "11", "--cycle-bound", "100000", "--suite", "morris"],  # no bridge above p = 7
], ids=["stokes", "nd", "morris-at-p11"])
def test_huge_cycle_bound_runs_suites_that_read_no_shared_grid(args):
    out, err = _cli_in_1gib(*args).communicate(timeout=120)
    assert err == b"" and out.endswith(b" failed=0\n")


@needs_rlimit_as
@pytest.mark.parametrize("args", [
    ["verify", *HUGE_BOUND],
    ["verify", *HUGE_BOUND, "--suite", "oracle_equiv"],
    ["sweep", *HUGE_BOUND, "--method", "bruteforce", "--format", "csv"],
], ids=["verify", "oracle_equiv", "bruteforce-sweep"])
def test_huge_cycle_bound_over_the_grid_cap_is_refused(tmp_path, args):
    out_file = tmp_path / "out"
    proc = _cli_in_1gib(*args, "--out", str(out_file))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3 and not out_file.exists()
    assert b"and 50000500" in err and b"cycles needs" in err  # the cycles are counted exactly


@needs_rlimit_as
def test_huge_cycle_bound_closed_sweep_streams_rows():
    # The rows of (a, b, c) = (1, 1, 1) come first, cycles (1, 1) ... (1, 1000).
    proc = _cli_in_1gib("sweep", *HUGE_BOUND, "--format", "csv")
    try:
        lines = [proc.stdout.readline().decode() for _ in range(1001)]
    finally:
        proc.kill()
        proc.communicate()
    config = SweepConfig(primes=(3,), cycle_bound=1000, methods=("closed",), suites=())
    rows = itertools.islice(iter_sweep_rows(config), 1000)
    assert "".join(lines) == "".join(iter_render_sweep(rows, "csv"))
