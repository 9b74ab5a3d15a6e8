"""Streamed sweeps: the same bytes as whole-list rendering, nothing written on a
refusal, and memory that does not grow with the number of rows or points."""

import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg import cli, modp_arith
from fpselberg.cli import main
from fpselberg.selberg2d_closed import ALL_METHODS, Branch
from fpselberg.sweep import SweepConfig, iter_render_sweep, iter_sweep_rows, render_sweep, sweep_rows
from reference_impl import SWEEP_CSV_HEADER, ref_render_sweep_csv, ref_render_sweep_text

ROOT = Path(__file__).resolve().parents[1]


def ref_render_sweep_json(rows: list) -> str:
    # Each row tuple as the dict of its columns, in header order.
    columns = SWEEP_CSV_HEADER.split(",")
    payload = {"schema": 1, "kind": "sweep", "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


REFERENCES = {
    "json": ref_render_sweep_json,
    "csv": ref_render_sweep_csv,
    "text": ref_render_sweep_text,
}


# At cycle bound 50 a point has 1,275 cycles, more than one record holds.
@pytest.mark.parametrize("cycle_bound", [1, 4, 50])
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


def test_routes_agree_where_points_split_into_records():
    # Each point's 1,275 cycles span two records: every route's second record
    # must take up the point's cells where its first left off.
    rows = {method: sweep_rows(SweepConfig(primes=(3, 5), cycle_bound=50, methods=(method,), suites=()))
            for method in ALL_METHODS}
    assert len(rows["closed"]) == 91800
    assert rows["direct"] == rows["closed"] and rows["bruteforce"] == rows["closed"]


class _CountingWriter(io.StringIO):
    """A text sink that keeps each write and fails past ``limit`` writes, so a
    writer that loops over its input again fails instead of filling the disk."""

    def __init__(self, limit: int):
        super().__init__()
        self.writes, self.limit = [], limit

    def write(self, text):
        self.writes.append(text)
        assert len(self.writes) <= self.limit, "too many writes"
        return super().write(text)


# One json row is 13 lines, one of them its "l1" key.
_ROWS_IN = {"csv": lambda text: text.count("\n"), "json": lambda text: text.count('"l1": ')}


@pytest.mark.parametrize("fmt, method, cycle_bound, count", [
    pytest.param("csv", "bruteforce", 4, 30160, id="csv-bruteforce"),
    pytest.param("json", "closed", 4, 30160, id="json-closed"),
    # 1,275 cycles a point, more than one record holds.
    pytest.param("csv", "closed", 50, 91800, id="csv-closed-split-points"),
])
def test_sweep_writes_blocks_of_rows(monkeypatch, fmt, method, cycle_bound, count):
    primes = (3, 5, 7, 11, 13) if cycle_bound == 4 else (3, 5)
    rows = sweep_rows(SweepConfig(primes=primes, cycle_bound=cycle_bound, methods=(method,), suites=()))
    most = math.ceil(len(rows) / 1024) + 2
    stdout = _CountingWriter(most)
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["sweep", "--primes", ",".join(map(str, primes)), "--cycle-bound", str(cycle_bound)]
    assert main(argv + ["--format", fmt, "--method", method]) == 0
    assert len(rows) == count and len(stdout.writes) <= most
    # Blocks are bounded by rows, not by points.
    assert max(map(_ROWS_IN[fmt], stdout.writes)) <= 2048
    assert "".join(stdout.writes) == render_sweep(rows, fmt)


def test_verify_writes_its_report_once(monkeypatch, tmp_path):
    # verify hands the writer a one-chunk tuple, which must not be read again.
    argv = ["verify", "--primes", "3", "--suite", "stokes"]
    stdout = _CountingWriter(1)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    out = _CountingWriter(1)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: out, raising=False)
    assert main(argv + ["--out", str(tmp_path / "report.txt")]) == 0
    # Each run times its suites on its own: the (N.NNs) fields may round apart.
    masked = [[re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", text) for text in writer.writes] for writer in (out, stdout)]
    assert masked[0] == masked[1] and out.writes[0].endswith(" failed=0\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_sweep_into_a_closed_pipe_exits_quietly(unbuffered):
    # `fpselberg sweep | head -n 2`: the reader goes away after two lines.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "fpselberg.cli", "sweep", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head == [f"{SWEEP_CSV_HEADER}\n".encode(), b"3,1,1,1,1,1,C11_i,1,false,false,false\n"]
    assert (proc.returncode, err) == (0, b"")


def _cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_into_a_closed_pipe_exits_quietly():
    # `fpselberg sweep --out /dev/stdout | head -n 1`: --out names the pipe,
    # and a closed pipe ends it as quietly as it ends stdout.
    argv = [sys.executable, "-m", "fpselberg.cli", "sweep", "--format", "csv", "--out", "/dev/stdout"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), cwd=ROOT)
    try:
        head = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head == f"{SWEEP_CSV_HEADER}\n".encode()
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["sweep", "--primes", "3"], ["verify", "--suite", "stokes", "--primes", "3"]],
                         ids=["sweep", "verify"])
def test_unwritable_stdout_is_a_usage_error(argv):
    # Any write error other than a closed pipe is exit 2 with one line on
    # stderr, on stdout as on --out; no traceback, no failed flush at exit.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fpselberg.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_cli_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 2
    assert re.fullmatch(r"error: cannot write stdout: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["sweep", "--primes", "3"], ["verify", "--suite", "stokes", "--primes", "3"]],
                         ids=["sweep", "verify"])
def test_unwritable_out_is_a_usage_error(capsys, argv):
    assert main([*argv, "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: cannot write /dev/full: \[Errno \d+\] [^\n]+\n", captured.err), captured.err


def test_json_renderer_on_no_rows():
    assert render_sweep([], "json") == REFERENCES["json"]([])


# Hand-made rows whose shared columns (p, a, b, c, R1-R3) change one at a time: a point
# that comes with a second R1-R3 triple, points one column apart, and a point that
# comes back after other points.
_POINT_ROWS = [
    (7, 1, 2, 3, 1, 1, "C11_i", 5, False, False, False),
    (7, 1, 2, 3, 1, 2, "C12_i", 6, True, False, False),
    (7, 1, 2, 3, 2, 2, "C22_i", 0, True, False, False),
    (7, 1, 2, 3, 1, 3, "C13_zero", 0, True, True, False),
    (7, 1, 2, 3, 2, 3, "C23_zero", 0, True, True, True),
    (11, 1, 2, 3, 1, 1, "C11_i", 4, True, True, True),
    (11, 4, 2, 3, 1, 1, "C11_ii", 1, True, True, True),
    (11, 4, 5, 3, 1, 1, "NOT_APPLICABLE_zero", 0, True, True, True),
    (11, 4, 5, 6, 1, 1, "NOT_APPLICABLE_zero", 0, True, True, True),
    (7, 1, 2, 3, 3, 3, "OTHER_zero", 0, False, False, False),
    (7, 1, 2, 3, 3, 4, "OTHER_zero", 0, False, False, False),
]


@pytest.mark.parametrize("rows", [_POINT_ROWS, []], ids=["points", "no-rows"])
@pytest.mark.parametrize("fmt", sorted(REFERENCES))
def test_renderers_format_each_points_shared_columns_anew(fmt, rows):
    assert render_sweep(rows, fmt) == REFERENCES[fmt](rows)


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
# 14^2 cells, and one a value of the two boxes 2 * 5^2 * 10 cycles.
SMALLEST_P5_WINDOW = 14**2 + 2 * 1 * 5**2 * 10


def test_bruteforce_sweep_over_the_cap_writes_nothing(monkeypatch, capsys, tmp_path):
    # The whole p = 3 grid fits; no p = 5 window does, so the sweep is refused
    # before any p = 3 row is out.
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(SMALLEST_P5_WINDOW - 1))
    err = _refused(capsys, tmp_path,
                   ["sweep", "--primes", "3,5", "--method", "bruteforce"])
    assert f"{SMALLEST_P5_WINDOW} coefficient cells for a window of 1 a value," in err


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


def _cli_peak_mb(*args) -> float:
    argv = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "fpselberg.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("FPSELBERG_MAX_TERMS", None)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120, check=True)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def test_sweep_memory_does_not_grow_with_rows(tmp_path):
    # 219,520 json rows: 540 MB when every row was held in memory at once.
    assert _cli_peak_mb("sweep", "--primes", "29", "--format", "json") < 64
    # The p = 29 bruteforce grid is over the default cap as a whole box and is
    # read in windows of a values: 201 MB when it was expanded per point.
    out = {method: tmp_path / f"{method}.csv" for method in ("bruteforce", "closed")}
    for method, path in out.items():
        assert _cli_peak_mb("sweep", "--primes", "29", "--method", method, "--format", "csv",
                            "--out", str(path)) < 64
    assert out["bruteforce"].read_bytes() == out["closed"].read_bytes()


def test_integer_mode_verify_holds_one_expansion():
    # Every point of the exact vanishing checks is expanded once and dropped at
    # the next: 77 MB when the per-point cache kept 4,096 of them.
    assert _cli_peak_mb("verify", "--integer-mode", "--primes", "17", "--suite", "vanishing") < 50


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


def _first_record(method: str, fmt: str) -> str:
    """The header and the rows of the huge-bound sweep's first record in ``fmt``: at
    (a, b, c) = (1, 1, 1), the cycles (1, 1) ... (1, 1024)."""
    config = SweepConfig(primes=(3,), cycle_bound=100000, methods=(method,), suites=())
    record = next(iter_sweep_rows(config))
    assert record[:4] == (3, 1, 1, 1)
    assert [cell[:2] for cell in record[7]] == [(1, l2) for l2 in range(1, 1025)]
    return "".join(itertools.islice(iter_render_sweep([record], fmt), 2))  # no json closing


@needs_rlimit_as
def test_huge_cycle_bound_closed_sweep_streams_rows():
    # The rows of (a, b, c) = (1, 1, 1) come first, one line each.
    proc = _cli_in_1gib("sweep", *HUGE_BOUND, "--format", "csv")
    try:
        lines = [proc.stdout.readline().decode() for _ in range(1025)]
    finally:
        proc.kill()
        proc.communicate()
    assert "".join(lines) == _first_record("closed", "csv")


@needs_rlimit_as
@pytest.mark.parametrize("method, fmt", [("closed", "json"), ("direct", "csv"), ("direct", "json")])
def test_huge_cycle_bound_sweeps_stream_rows(method, fmt):
    # The closed csv case is the test above; here the first record's 1,024 rows are compared as bytes.
    expected = _first_record(method, fmt).encode()
    proc = _cli_in_1gib("sweep", *HUGE_BOUND, "--method", method, "--format", fmt)
    try:
        head = proc.stdout.read(len(expected))
    finally:
        proc.kill()
        proc.communicate()
    assert head == expected
