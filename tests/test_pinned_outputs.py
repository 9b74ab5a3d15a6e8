"""The default `verify` counts, `sweep` bytes and benchmark eval pins, pinned.

Any change to the package must leave these untouched: the per-suite counts
of the default verification run, the sha256 of the default sweep in each
output format and for each evaluation route, and the (value, branch) pairs
the benchmark harness records for its seed-0 point queries.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg.cli import main

VERIFY_COUNTS = {  # suite: (checked, skipped, failed)
    "oracle_equiv": (60320, 0, 0),
    "recurrences": (63712, 0, 0),
    "relations": (3806, 0, 0),
    "vanishing": (28005, 0, 0),
    "morris": (569, 0, 0),
    "stokes": (305, 0, 0),
    "nd": (3595, 1, 0),
}
SWEEP_CSV_SHA256 = "abeb7230281bbb0a9433242eca0d3564bd2248a49760734870dda0548a7dd470"
SWEEP_JSON_SHA256 = "9a0560aeeccf6597471e167696fa934910941d1cd62f9e5eef030063fce2288a"


def test_default_verify_counts(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    counts = {s["name"]: (s["checked"], s["skipped"], s["failed"]) for s in report["suites"]}
    assert counts == VERIFY_COUNTS
    assert (report["checked_total"], report["failed_total"]) == (160312, 0)


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
