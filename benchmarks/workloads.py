"""The fpselberg workloads: the commands of one pass and the gates on their output.

Stdlib only.  A pass is a list of ``Command`` objects, each one fresh
``fpselberg`` CLI process.  The grids of ``verify-default`` and
``sweep-grid`` are the CLI defaults (primes 3..13, cycle bound 4), so their
outputs are pinned here once; ``eval-large-p`` draws its point queries from
the workload seed.  For the seeds in ``eval_pins.json`` the expected outputs
are committed there; for any other seed they are pinned when the queries are
generated (see ``inproc.py pin-eval``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-default", "sweep-grid", "eval-large-p")

VERIFY_CHECKS = 160_312
VERIFY_SUITES = 7

SWEEP_ROWS = 30_160
SWEEP_CSV_SHA256 = "abeb7230281bbb0a9433242eca0d3564bd2248a49760734870dda0548a7dd470"
SWEEP_JSON_SHA256 = "9a0560aeeccf6597471e167696fa934910941d1cd62f9e5eef030063fce2288a"
# Rows per classifier branch on the default grid; all 19 branches are hit.
SWEEP_BRANCHES = {
    "C11_i": 601, "C11_ii": 286, "C11_iii_zero": 211,
    "C12_delta0_formula": 92, "C12_delta0_zero": 58, "C12_delta_neg_zero": 1283,
    "C12_i": 60, "C12_ii": 60, "C12_iii_zero": 60, "C12_iv": 106,
    "C12_v_zero": 1146, "C12_vi_zero": 151,
    "C13_formula": 286, "C13_zero": 2730,
    "C22_i": 378, "C22_ii": 286, "C23_zero": 3016,
    "NOT_APPLICABLE_zero": 4270, "OTHER_zero": 15_080,
}

# Point queries per eval pass.  With 48 samples the tail percentile that
# keeps ten samples beyond it is p79.
EVAL_QUERIES = 48
EVAL_P_MIN, EVAL_P_MAX = 10**3, 10**6
EVAL_LARGEST_PRIME = 999_983  # largest prime below EVAL_P_MAX
EVAL_CYCLES = ((1, 1), (2, 2), (1, 2), (1, 3), (2, 3))  # one per classified cycle class
EVAL_ROUTES = ("closed", "direct", "classify")
EVAL_PINS_FILE = Path(__file__).resolve().parent / "eval_pins.json"


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass."""

    name: str
    args: tuple
    items: int  # work items the command completes (checks, rows or queries)
    # The command's wall time on the frozen copy of the package at the
    # reference speed (see run.Scaler); None for commands scaled by reference imports.
    frozen_s: float | None = None


# -- passes ------------------------------------------------------------------

SWEEP_COMMANDS = (
    Command("sweep.csv.closed", ("sweep", "--format", "csv", "--method", "closed"), SWEEP_ROWS),
    Command("sweep.csv.direct", ("sweep", "--format", "csv", "--method", "direct"), SWEEP_ROWS),
    Command("sweep.csv.bruteforce", ("sweep", "--format", "csv", "--method", "bruteforce"), SWEEP_ROWS),
    Command("sweep.json.closed", ("sweep", "--format", "json", "--method", "closed"), SWEEP_ROWS),
    Command("sweep.csv.closed_jobs2", ("sweep", "--format", "csv", "--method", "closed", "--jobs", "2"),
            SWEEP_ROWS),
)

# verify is the one command long enough for a twin on the frozen copy to beat
# reference imports as its speed reference (see README.md).
VERIFY_COMMANDS = (Command("verify", ("verify", "--format", "json"), VERIFY_CHECKS, 3.6),)


def pass_commands(workload: str, queries: list | None = None) -> tuple:
    if workload == "verify-default":
        return VERIFY_COMMANDS
    if workload == "sweep-grid":
        return SWEEP_COMMANDS
    if workload == "eval-large-p":
        return tuple(Command(f"query{i:02d}", query_args(q), 1) for i, q in enumerate(queries))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- eval queries --------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_at_or_above(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def eval_queries(seed: int) -> list:
    """Seeded point queries, stratified so that their latency quantiles repeat.

    Latency follows p (the O(p) context build) and, on the direct route, c.
    So log p is split into EVAL_QUERIES equal strata, each used once; routes
    take turns along the p strata, so every route sees small and large
    primes; and within each route a/p, b/p and c/p are stratified the same
    way.  Every value except the largest prime comes from the seed.
    """
    count = EVAL_QUERIES
    rng = random.Random(seed)
    p_strata = rng.sample(range(count), count)
    rotation = rng.randrange(len(EVAL_ROUTES))
    routes = [EVAL_ROUTES[(s + rotation) % len(EVAL_ROUTES)] for s in p_strata]
    fraction = {}
    for route in EVAL_ROUTES:
        members = [i for i in range(count) if routes[i] == route]
        for axis in ("a", "b", "c"):
            for i, s in zip(members, rng.sample(range(len(members)), len(members))):
                fraction[i, axis] = (s + rng.random()) / len(members)
    lo, hi = math.log(EVAL_P_MIN), math.log(EVAL_P_MAX)
    queries = []
    for i in range(count):
        u = (p_strata[i] + rng.random()) / count
        p = min(_prime_at_or_above(int(math.exp(lo + (hi - lo) * u))), EVAL_LARGEST_PRIME)
        if p_strata[i] == count - 1:
            # The top stratum sets peak memory (the context is O(p)), so it
            # always takes the largest prime and peak RSS compares across seeds.
            p = EVAL_LARGEST_PRIME
        a, b, c = (1 + int(fraction[i, axis] * (p - 1)) for axis in ("a", "b", "c"))
        l1, l2 = rng.choice(EVAL_CYCLES)
        queries.append({"p": p, "a": a, "b": b, "c": c, "l1": l1, "l2": l2, "route": routes[i]})
    return queries


def queries_digest(queries: list) -> str:
    return hashlib.sha256(json.dumps(queries, sort_keys=True).encode()).hexdigest()


def committed_pins(seed: int, queries: list) -> list | None:
    """The committed expected outputs of ``queries`` (seed ``seed``), or None if not committed.

    They were computed once by the closed route, checked against the direct
    route, and written by ``inproc.py commit-pins``; a run on such a seed
    compares against them instead of against the code under test.
    """
    entry = json.loads(EVAL_PINS_FILE.read_text())["seeds"].get(str(seed))
    if entry is None:
        return None
    if entry["queries_sha256"] != queries_digest(queries):
        raise ValueError(f"{EVAL_PINS_FILE.name} was written for other seed-{seed} queries; "
                         "regenerate it with inproc.py commit-pins")
    return [{"value": value, "branch": branch} for value, branch in entry["pins"]]


def query_args(q: dict) -> tuple:
    point = ("-p", str(q["p"]), "-a", str(q["a"]), "-b", str(q["b"]), "-c", str(q["c"]),
             "-l", f"{q['l1']},{q['l2']}")
    if q["route"] == "classify":
        return ("classify",) + point
    return ("eval",) + point + ("--method", q["route"])


# -- gates -----------------------------------------------------------------------
#
# Each gate returns a list of failure messages; an empty list means the output
# is correct.  A non-zero exit is always a failure.


def _exit_failures(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def check_verify(code: int, out: bytes) -> list:
    failures = _exit_failures(code)
    try:
        report = json.loads(out)
    except ValueError as exc:
        return failures + [f"verify report is not JSON: {exc}"]
    if report.get("checked_total") != VERIFY_CHECKS:
        failures.append(f"checked_total {report.get('checked_total')} != {VERIFY_CHECKS}")
    if report.get("failed_total") != 0:
        failures.append(f"failed_total {report.get('failed_total')} != 0")
    if len(report.get("suites", ())) != VERIFY_SUITES:
        failures.append(f"{len(report.get('suites', ()))} suites reported, expected {VERIFY_SUITES}")
    return failures


def branch_histogram(csv_bytes: bytes) -> dict:
    counts: dict[str, int] = {}
    for line in csv_bytes.decode("utf-8", "replace").splitlines()[1:]:
        fields = line.split(",")
        if len(fields) > 6:
            counts[fields[6]] = counts.get(fields[6], 0) + 1
    return counts


def check_sweep(name: str, code: int, out: bytes) -> list:
    failures = _exit_failures(code)
    digest = hashlib.sha256(out).hexdigest()
    if name.startswith("sweep.json."):
        if digest != SWEEP_JSON_SHA256:
            failures.append(f"json sha256 {digest} != pinned {SWEEP_JSON_SHA256}")
        return failures
    if digest != SWEEP_CSV_SHA256:
        failures.append(f"csv sha256 {digest} != pinned {SWEEP_CSV_SHA256}")
    histogram = branch_histogram(out)
    if histogram != SWEEP_BRANCHES:
        diff = {k: (histogram.get(k, 0), SWEEP_BRANCHES.get(k, 0))
                for k in set(histogram) | set(SWEEP_BRANCHES) if histogram.get(k, 0) != SWEEP_BRANCHES.get(k, 0)}
        failures.append(f"branch histogram differs (got, pinned): {diff}")
    return failures


def check_sweep_pass(outputs: dict) -> dict:
    """Gate every sweep command, and require the csv outputs to be byte-identical."""
    failures = {name: check_sweep(name, code, out) for name, (code, out) in outputs.items()}
    csv = {name: out for name, (_, out) in outputs.items() if name.startswith("sweep.csv.")}
    reference = next(iter(csv.values()), b"")
    for name, out in csv.items():
        if out != reference:
            failures[name].append("csv output differs from the other csv sweeps of the pass")
    return failures


_EVAL_VALUE = re.compile(r"^value = (\d+)$", re.M)
_EVAL_BRANCH = re.compile(r"^branch = (\w+)$", re.M)
_CLASSIFY_BRANCH = re.compile(r"\bbranch (\w+),")
_CLASSIFY_VALUE = re.compile(r"^value (\d+)\b", re.M)


def parse_query_output(route: str, out: bytes) -> tuple:
    """(value, branch) printed by one eval or classify query; None where missing."""
    text = out.decode("utf-8", "replace")
    value_re, branch_re = ((_CLASSIFY_VALUE, _CLASSIFY_BRANCH) if route == "classify"
                           else (_EVAL_VALUE, _EVAL_BRANCH))
    value, branch = value_re.search(text), branch_re.search(text)
    return (int(value.group(1)) if value else None, branch.group(1) if branch else None)


def check_query(query: dict, pin: dict, code: int, out: bytes) -> list:
    failures = _exit_failures(code)
    value, branch = parse_query_output(query["route"], out)
    if value != pin["value"]:
        failures.append(f"value {value} != pinned {pin['value']}")
    if branch != pin["branch"]:
        failures.append(f"branch {branch} != pinned {pin['branch']}")
    return failures


def check_pass(workload: str, commands: tuple, outputs: list, queries=None, pins=None) -> list:
    """Failure messages per command of one pass; ``outputs`` holds (exit code, stdout) pairs."""
    if workload == "verify-default":
        return [check_verify(code, out) for code, out in outputs]
    if workload == "sweep-grid":
        by_name = check_sweep_pass({cmd.name: output for cmd, output in zip(commands, outputs)})
        return [by_name[cmd.name] for cmd in commands]
    return [check_query(q, pin, code, out) for q, pin, (code, out) in zip(queries, pins, outputs)]
