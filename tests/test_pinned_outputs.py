"""The default `verify` counts, `sweep` bytes and benchmark eval pins, pinned.

Any change to the package must leave these untouched: the per-suite counts
of the default verification run, with and without --integer-mode, and the
grid windows it builds, the sha256 of the default sweep in each output
format and for each evaluation route, and the (value, branch) pairs the
benchmark harness records for its seed-0 point queries.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg.cli import main
from fpselberg.selberg_core import SelbergGrid

from test_sweep_stream import SMALLEST_P5_WINDOW

VERIFY_COUNTS = {  # suite: (checked, skipped, failed)
    "oracle_equiv": (60320, 0, 0),
    "recurrences": (63712, 0, 0),
    "relations": (3806, 0, 0),
    "vanishing": (28005, 0, 0),
    "morris": (569, 0, 0),
    "stokes": (305, 0, 0),
    "nd": (3595, 1, 0),
}
# verify --integer-mode adds the exact-integer vanishing checks.
VERIFY_INTEGER_COUNTS = {**VERIFY_COUNTS, "vanishing": (51426, 0, 0)}
# verify --primes 23: the whole shared grid is over the default cap there, so
# the suites read it in windows of a values.
VERIFY_P23_COUNTS = {
    "oracle_equiv": (212960, 0, 0),
    "recurrences": (240736, 0, 0),
    "relations": (13112, 0, 0),
    "vanishing": (99725, 0, 0),
    "morris": (384, 0, 0),
    "stokes": (297, 0, 0),
    "nd": (8605, 1, 0),
}
# The grid windows each run builds, in order, as (p, ab_stop, cycles, start):
# the shared grid of each prime, then nd's n = 2 and n = 3 windows.  At p = 23
# the shared grid holds 19 of its 23 a values, so the one walk that feeds every
# suite reading it builds the block from 0, then the block from 19.
VERIFY_BUILDS = [(p, p, 12, 0) for p in (3, 5, 7, 11, 13)] + [
    (p, 2 * p, 1, 0) for p in (3, 3, 5, 5, 7, 7, 11, 11, 13)]
VERIFY_P23_BUILDS = [(23, 23, 12, 0), (23, 23, 12, 19), (23, 46, 1, 0)]
# A brute-force sweep builds each prime's grid on its 10 cycles once when the
# whole box fits; at the smallest p = 5 window, one a value wide, it moves it
# to each a after the 0 it was made at.
SWEEP_BUILDS = [(p, p, 10, 0) for p in (3, 5, 7, 11, 13)]
SWEEP_P5_WINDOW_BUILDS = [(3, 3, 10, 0), *((5, 5, 10, a) for a in range(5))]
SWEEP_CSV_SHA256 = "abeb7230281bbb0a9433242eca0d3564bd2248a49760734870dda0548a7dd470"
SWEEP_JSON_SHA256 = "9a0560aeeccf6597471e167696fa934910941d1cd62f9e5eef030063fce2288a"


def _record_builds(monkeypatch) -> list:
    builds = []
    build = SelbergGrid._build

    def counted(self, start):
        builds.append((self.p, self.ab_stop, len(self._index), start))
        build(self, start)

    monkeypatch.setattr(SelbergGrid, "_build", counted)
    return builds


def test_default_verify_counts(tmp_path, monkeypatch):
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    builds = _record_builds(monkeypatch)
    out = tmp_path / "verify.json"
    assert main(["verify", "--format", "json", "--out", str(out)]) == 0
    assert builds == VERIFY_BUILDS
    report = json.loads(out.read_text())
    counts = {s["name"]: (s["checked"], s["skipped"], s["failed"]) for s in report["suites"]}
    assert counts == VERIFY_COUNTS
    assert (report["checked_total"], report["failed_total"]) == (160312, 0)


def test_integer_mode_verify_counts(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--integer-mode", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    counts = {s["name"]: (s["checked"], s["skipped"], s["failed"]) for s in report["suites"]}
    assert counts == VERIFY_INTEGER_COUNTS
    assert (report["checked_total"], report["failed_total"]) == (183733, 0)


def test_verify_p23_counts(tmp_path, monkeypatch):
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    builds = _record_builds(monkeypatch)
    out = tmp_path / "verify.json"
    assert main(["verify", "--primes", "23", "--format", "json", "--out", str(out)]) == 0
    assert builds == VERIFY_P23_BUILDS
    report = json.loads(out.read_text())
    counts = {s["name"]: (s["checked"], s["skipped"], s["failed"]) for s in report["suites"]}
    assert counts == VERIFY_P23_COUNTS
    assert (report["checked_total"], report["failed_total"]) == (575819, 0)


@pytest.mark.parametrize("fmt, method, digest", [
    ("csv", "closed", SWEEP_CSV_SHA256),
    ("csv", "direct", SWEEP_CSV_SHA256),
    ("csv", "bruteforce", SWEEP_CSV_SHA256),
    ("json", "closed", SWEEP_JSON_SHA256),
])
def test_default_sweep_bytes(tmp_path, fmt, method, digest):
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--format", fmt, "--method", method, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("max_terms, primes, expected", [
    (None, [], SWEEP_BUILDS),
    (SMALLEST_P5_WINDOW, ["--primes", "3,5"], SWEEP_P5_WINDOW_BUILDS),
], ids=["default", "p5-window"])
def test_bruteforce_sweep_windows(tmp_path, monkeypatch, max_terms, primes, expected):
    if max_terms is None:
        monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    else:
        monkeypatch.setenv("FPSELBERG_MAX_TERMS", str(max_terms))
    out = {method: tmp_path / f"{method}.csv" for method in ("bruteforce", "closed")}
    builds = _record_builds(monkeypatch)
    for method, path in out.items():
        assert main(["sweep", *primes, "--format", "csv", "--method", method, "--out", str(path)]) == 0
    assert builds == expected
    assert out["bruteforce"].read_bytes() == out["closed"].read_bytes()


def test_benchmark_eval_pins_seed_0():
    # The benchmark harness reads the package API in-process; a drift in what
    # eval_closed or classify return shows up here before a benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, str(root / "benchmarks" / "inproc.py"), "pin-eval", "--seed", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=root,
                          timeout=120, check=True)
    result = json.loads(proc.stdout)
    committed = json.loads((root / "benchmarks" / "eval_pins.json").read_text())["seeds"]["0"]["pins"]
    assert [[pin["value"], pin["branch"]] for pin in result["pins"]] == committed
    assert not any(result["failures"])


def test_benchmark_probes_run():
    # The benchmark's per-layer probes call the package directly (sweep
    # configs with parallelism, relations_check, moment_integral, the caches
    # it clears); an API change that breaks one of them shows up here.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("FPSELBERG_MAX_TERMS", None)
    script = "import json, inproc; print(json.dumps(inproc.probes()))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          cwd=root / "benchmarks", timeout=300, check=True)
    metrics = json.loads(proc.stdout)
    assert len(metrics) == 38
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()), metrics
