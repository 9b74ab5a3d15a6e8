"""fpselberg benchmark: the CLI as users run it, end to end, plus a traced per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's ``src``
tree and never an installed ``fpselberg``.  Every CLI command is a fresh
``python -m fpselberg.cli`` process with ``PYTHONPATH=src``.

``--trace 0`` repeats passes of the workload (see workloads.py) until the next
pass would end after S seconds, gates every output, and reports the
end-to-end metrics of BENCHMARK.json, with every child's time scaled to a
reference machine speed (see Scaler).  ``--trace 1`` reports the per-layer
metrics instead: import times measured here, everything else from
``inproc.py trace``.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics, and a fuller record
(machine, samples, failures) is written to ``.bench_out/``.

The harness itself uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; children are killed at this budget.
RUN_BUDGET_S = 170.0
IMPORT_REPEATS = 7  # fresh imports per import-time metric of the traced run
SETUP_BLOCKS = 4  # most blocks of setup_s samples per pass, spread over its commands
SETUP_BLOCK_SIZE = 2  # setup_s samples per block
TAIL_BEYOND = 10
SETUP_STATEMENT = "import fpselberg.cli"
# Every end-to-end timing is scaled to the machine speed at which a fresh
# interpreter that runs REFERENCE_STATEMENT takes REFERENCE_S (see Scaler).
REFERENCE_STATEMENT = "import numpy"
REFERENCE_S = 0.15
# A copy of the package as it was when the benchmark was defined.  A command
# with a Command.frozen_s is scaled by its twin: the same command run on this
# copy right after it, which takes frozen_s at the reference speed.
FROZEN = HERE / "frozen"
# The Speedometer times a loop of SAMPLE_STEPS steps every SAMPLE_GAP_S.
SAMPLE_STEPS = 40_000
SAMPLE_GAP_S = 0.03


@dataclass
class Child:
    start: float  # perf_counter at spawn
    wall_s: float
    cpu_s: float  # user + system; wall_s - cpu_s is time the child waited
    max_rss_mb: float
    code: int
    out_path: Path


class Harness:
    """Spawns CLI processes in the checkout and measures each with wait4."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.deadline = started + RUN_BUDGET_S
        self.out_dir = root / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.frozen_env = dict(os.environ, PYTHONPATH=str(FROZEN))

    def spawn(self, argv: list, out_name: str, env: dict | None = None) -> Child:
        """Run one child to completion; its stdout goes to .bench_out/<out_name>."""
        out_path = self.out_dir / out_name
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        with open(out_path, "wb") as out, open(self.out_dir / (out_name + ".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # give the maximum over every child this harness ever started.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, out_path)

    def cli(self, args: tuple, out_name: str) -> Child:
        return self.spawn([sys.executable, "-m", "fpselberg.cli", *args], out_name)

    def frozen_cli(self, args: tuple) -> Child:
        """The same CLI command on the frozen copy of the package."""
        child = self.spawn([sys.executable, "-m", "fpselberg.cli", *args], "frozen.out", self.frozen_env)
        if child.code != 0:
            raise RuntimeError(f"the frozen copy exited {child.code} on {args}")
        return child

    def python(self, code: str, out_name: str) -> Child:
        return self.spawn([sys.executable, "-c", code], out_name)

    def inproc(self, args: list, out_name: str) -> dict:
        child = self.spawn([sys.executable, str(HERE / "inproc.py"), *args], out_name)
        if child.code != 0:
            err = (self.out_dir / (out_name + ".err")).read_text(errors="replace")
            raise RuntimeError(f"inproc.py {args[0]} exited {child.code}: {err[-2000:]}")
        return json.loads(child.out_path.read_bytes())

    def import_child(self, statement: str) -> Child:
        """A fresh interpreter that runs one import statement and exits."""
        child = self.python(statement, "import.out")
        if child.code != 0:
            raise RuntimeError(f"`{statement}` exited {child.code}")
        return child

    def import_seconds(self, statement: str) -> float:
        return self.import_child(statement).wall_s


class Speedometer:
    """Samples the machine's speed in a thread of the harness while children run.

    The thread times a fixed pure-Python loop of SAMPLE_STEPS steps, sleeps
    SAMPLE_GAP_S and repeats, using about an eighth of one CPU.  The main
    thread waits in wait4 meanwhile, so the loop runs beside the child.
    """

    def __init__(self):
        self.starts, self.ends, self.ms = [], [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            total = 0
            for i in range(SAMPLE_STEPS):
                total += i * i % 7
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.ms.append((end - start) * 1e3)
            self._stop.wait(SAMPLE_GAP_S)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, child: Child) -> float:
        """Mean sample, in ms, of the samples that overlap the child's run."""
        end = child.start + child.wall_s
        n = len(self.ms)  # the thread only appends; read a consistent prefix
        first = bisect_left(self.ends, child.start, 0, n)
        overlap = [self.ms[i] for i in range(first, n) if self.starts[i] < end]
        return statistics.fmean(overlap or self.ms[max(first - 1, 0):first + 1])


class Scaler:
    """Scales wall times of children to the reference speed.

    The machine's speed changes by up to 1.8x over seconds to minutes, and a
    child's wall time moves with it.  So every child is timed beside a
    reference process that does the same kind of work and that a change to
    the program does not move; a change of the machine's speed moves both.

    A command with a ``frozen_s`` is followed by its twin on FROZEN and is
    multiplied by ``frozen_s`` over the twin's time.  The speed also changes
    between the two: so that ratio is multiplied in turn by the
    Speedometer's mean during the twin over its mean during the command.
    Any other child (eval queries, setup_s imports: short processes that
    mostly start an interpreter and load extension modules) is followed by
    a fresh interpreter that runs REFERENCE_STATEMENT, and is multiplied by
    REFERENCE_S over the mean of the references on either side of it.
    """

    def __init__(self, h: Harness, speed: Speedometer | None):
        self.h = h
        self.speed = speed
        self.refs = []
        self.twins = []

    def reference(self) -> None:
        """Time a reference import; call before a child scaled by reference imports."""
        self.refs.append(self.h.import_seconds(REFERENCE_STATEMENT))

    def __call__(self, child: Child, cmd: workloads.Command | None = None) -> float:
        """Scale the wall time of the child that has just ended (the CLI command ``cmd``, if any)."""
        if cmd is not None and cmd.frozen_s is not None:
            twin = self.h.frozen_cli(cmd.args)
            self.twins.append(twin.wall_s)
            drift = self.speed.during(twin) / self.speed.during(child)
            return child.wall_s * cmd.frozen_s / twin.wall_s * drift
        self.reference()
        return child.wall_s * 2 * REFERENCE_S / (self.refs[-2] + self.refs[-1])


# -- statistics --------------------------------------------------------------


def tail(values: list) -> tuple:
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies, and the
    maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# -- workload runs -----------------------------------------------------------------


@dataclass
class Plan:
    """What one pass runs, and the pinned outputs of eval queries."""

    workload: str
    commands: tuple
    queries: list | None = None
    pins: list | None = None
    pin_failures: list | None = None  # per query, found while pinning; fails it in every pass
    pins_source: str = ""


def plan(h: Harness, workload: str, seed: int) -> Plan:
    if workload != "eval-large-p":
        return Plan(workload, workloads.pass_commands(workload))
    queries = workloads.eval_queries(seed)
    commands = workloads.pass_commands(workload, queries)
    pins = workloads.committed_pins(seed, queries)
    if pins is not None:
        return Plan(workload, commands, queries, pins, None, workloads.EVAL_PINS_FILE.name)
    # Not a committed seed: pin with the code under test, closed checked against direct.
    pinned = h.inproc(["pin-eval", "--seed", str(seed)], "pins.json")
    return Plan(workload, commands, queries, pinned["pins"], pinned["failures"], "pin-eval")


def run_passes(h: Harness, p: Plan, seconds: float) -> dict:
    """Passes until the next one would end after ``seconds``; at least one.

    Fresh ``import fpselberg.cli`` processes (the setup_s samples) are spread
    over every pass, so setup_s samples the whole run and not one moment.
    Every child's wall time is scaled to the reference speed (Scaler).
    """
    workload, commands, queries, pins = p.workload, p.commands, p.queries, p.pins
    pin_failures = p.pin_failures or [[] for _ in commands]
    items = sum(cmd.items for cmd in commands)
    setup_every = math.ceil(len(commands) / SETUP_BLOCKS)

    pass_walls, pass_raw, pass_cpu, pass_rss, pass_spans = [], [], [], [], []
    latencies = [[] for _ in commands]
    setup = []
    attempted = failed = 0
    failures = []
    twins = any(cmd.frozen_s is not None for cmd in commands)
    with Speedometer() if twins else contextlib.nullcontext() as speed:
        scale = Scaler(h, speed)
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            children, scaled = [], []
            for i, cmd in enumerate(commands):
                if i % setup_every == 0:
                    if cmd.frozen_s is not None or not scale.refs:
                        scale.reference()  # the block's first import needs one right before it
                    for _ in range(SETUP_BLOCK_SIZE):
                        setup.append(scale(h.import_child(SETUP_STATEMENT)))
                children.append(h.cli(cmd.args, f"{workload}.{cmd.name}.out"))
                scaled.append(scale(children[-1], cmd))
            pass_walls.append(sum(scaled))
            pass_raw.append(sum(c.wall_s for c in children))
            pass_cpu.append(sum(c.cpu_s for c in children))
            pass_rss.append(max(c.max_rss_mb for c in children))
            for lat, t in zip(latencies, scaled):
                lat.append(t)
            outputs = [(c.code, c.out_path.read_bytes()) for c in children]
            gate = workloads.check_pass(workload, commands, outputs, queries, pins)
            for i, (cmd, msgs) in enumerate(zip(commands, gate)):
                msgs = msgs + pin_failures[i]
                attempted += 1
                if msgs:
                    failed += 1
                    failures.extend(f"{cmd.name}: {m}" for m in msgs)
            pass_spans.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(pass_spans) > seconds:
                break

    # One latency per command: its median over the passes.
    per_command = [statistics.median(lat) for lat in latencies]
    wall = statistics.median(pass_walls)
    tail_s, tail_pct, tail_n = tail(per_command)
    metrics = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "query_p50_ms": statistics.median(per_command) * 1e3,
        "query_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(pass_rss),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "pass_walls_unscaled_s": pass_raw,
        "pass_cpu_s": pass_cpu,
        "pass_peak_rss_mb": pass_rss,
        "items_per_pass": items,
        "query_tail_percentile": tail_pct,
        "query_samples": tail_n,
        "command_median_s": {cmd.name: s for cmd, s in zip(commands, per_command)},
        "setup_samples_s": setup,
        "reference_s": scale.refs,
        "frozen_twin_s": scale.twins,
        "pins_source": p.pins_source,
        "queries": queries,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "detail": detail}


def run_trace(h: Harness, workload: str, seed: int) -> dict:
    numpy_s = [h.import_seconds("import numpy") for _ in range(IMPORT_REPEATS)]
    cli_s = [h.import_seconds(SETUP_STATEMENT) for _ in range(IMPORT_REPEATS)]
    spans = h.out_dir / f"spans_{workload}_seed{seed}"
    result = h.inproc(["trace", "--workload", workload, "--seed", str(seed), "--spans", str(spans)],
                      "trace.json")
    metrics = result.pop("metrics")
    metrics["cli.import_ms"] = statistics.median(cli_s) * 1e3
    metrics["cli.import_numpy_ms"] = statistics.median(numpy_s) * 1e3
    return {"metrics": metrics, "attempted": result.pop("attempted"), "failed": result.pop("failed"),
            "failures": result.pop("failures"),
            "detail": dict(result, spans=str(spans))}


# -- reporting -----------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(root: Path, args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "git_sha": git_sha(root)}


def declared_metrics(root: Path, trace: int) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "fpselberg" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/fpselberg package to benchmark", file=sys.stderr)
        return 2
    h = Harness(ROOT, started)
    # Untimed: compiles the bytecode of the package and of its frozen copy, so
    # no measured process pays for it.
    h.python(SETUP_STATEMENT, "warmup.out")
    h.spawn([sys.executable, "-c", SETUP_STATEMENT], "warmup.out", h.frozen_env)
    if args.trace:
        result = run_trace(h, args.workload, args.seed)
    else:
        result = run_passes(h, plan(h, args.workload, args.seed), args.seconds)

    declared = declared_metrics(ROOT, args.trace)
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}

    meta = machine(ROOT, args)
    record = dict(meta=meta, metrics=metrics, attempted=result["attempted"], failed=result["failed"],
                  error_rate=result["failed"] / result["attempted"], failures=result["failures"],
                  detail=result["detail"])
    record_path = h.out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"fpselberg benchmark: {json.dumps(meta)}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>16.6f} {entry['unit']}")
    print(f"  {'error_rate':<44} {record['error_rate']:>16.6f} ({result['failed']}/{result['attempted']})")
    if not args.trace:
        d = result["detail"]
        print(f"  query_tail_ms is p{d['query_tail_percentile']:.0f} of {d['query_samples']} queries; "
              f"{d['passes']} passes; {len(d['setup_samples_s'])} setup samples; "
              f"reference import {statistics.median(d['reference_s']):.3f} s (scaled to {REFERENCE_S} s)")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
