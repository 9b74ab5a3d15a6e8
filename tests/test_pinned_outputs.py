"""The default `verify` counts and `sweep` bytes, pinned.

Any change to the package must leave these untouched: the per-suite counts
of the default verification run and the sha256 of the default sweep in each
output format and for each evaluation route.
"""

import hashlib
import json

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
