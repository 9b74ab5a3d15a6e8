"""In-process side of the benchmark, run in a fresh interpreter by run.py.

It imports the ``fpselberg`` package (run.py puts ``src`` on PYTHONPATH), so
everything that needs the package lives here and run.py stays stdlib only:

    python3 benchmarks/inproc.py pin-eval --seed N
        Expected value and branch of every eval-large-p query of seed N,
        computed by the closed route and checked against the direct route.

    python3 benchmarks/inproc.py commit-pins --seed N [N ...]
        The same for several seeds, written to benchmarks/eval_pins.json;
        refuses to write if the routes disagree on any query.

    python3 benchmarks/inproc.py trace --workload W --seed N --spans STEM
        Per-layer numbers: the default verify pass and one pass of workload W
        replayed through ``cli.main`` without and then with the span tracer
        (the workload's spans written to STEM.bin / STEM.json), followed by
        fixed probes of every layer.

pin-eval and trace print one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass

import workloads
from tracer import LAYERS, SPAN_FIELDS, Tracer

import fpselberg
from fpselberg import cli, fp_poly, modp_arith, morris_ct, selberg2d_closed, selberg_core, verify

PROBE_PRIME = 13
CONTEXT_PRIMES = (10_007, 100_003, 1_000_003)
POINT_QUERY = ("-p", "100003", "-a", "41234", "-b", "70001", "-c", "33333", "-l", "1,2")


def _package_caches() -> list:
    """(module.name, cache) for every functools cache in the package, taken before tracing."""
    seen = {}
    for module in (fpselberg, cli, fp_poly, modp_arith, morris_ct, selberg2d_closed, selberg_core, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = (f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj)
    return list(seen.values())


CACHES = _package_caches()


def _reset_caches(misses: dict | None = None):
    """Clear every package cache, adding the misses each had counted to ``misses``."""
    for name, cache in CACHES:
        if misses is not None:
            misses[name] = misses.get(name, 0) + cache.cache_info().misses
        cache.cache_clear()


# -- eval pins ------------------------------------------------------------------


def pin_queries(queries: list) -> tuple:
    """(pins, failures): expected value and branch per query, and the failures found pinning.

    The pinned value is the closed route's; the direct route must agree with it.
    """
    pins, failures = [], []
    for q in queries:
        params = selberg_core.SelbergParams(q["a"], q["b"], q["c"], q["p"])
        closed = int(selberg2d_closed.eval_closed(params, q["l1"], q["l2"]))
        direct = int(selberg_core.selberg_direct_2d(params, q["l1"], q["l2"]))
        pins.append({"value": closed, "branch": str(selberg2d_closed.classify(params, q["l1"], q["l2"]))})
        failures.append([] if closed == direct else [f"closed {closed} != direct {direct} at pinning"])
        _reset_caches()
    return pins, failures


def commit_pins(seeds: list) -> int:
    entries = {}
    for seed in seeds:
        queries = workloads.eval_queries(seed)
        pins, failures = pin_queries(queries)
        if any(failures):
            print(f"seed {seed}: {[m for msgs in failures for m in msgs]}", file=sys.stderr)
            return 1
        entries[str(seed)] = {"queries_sha256": workloads.queries_digest(queries),
                              "pins": [[pin["value"], pin["branch"]] for pin in pins]}
    # One seed per line, so a regenerated file diffs by seed.
    rows = ",\n".join(f"{json.dumps(seed)}: {json.dumps(entry, separators=(',', ':'))}"
                       for seed, entry in entries.items())
    workloads.EVAL_PINS_FILE.write_text('{"seeds": {\n' + rows + "\n}}\n")
    return 0


# -- replay ----------------------------------------------------------------------


def replay(commands: tuple, misses: dict | None = None) -> tuple:
    """Run each command through ``cli.main`` with cold caches, as a fresh CLI process would.

    Returns (seconds inside cli.main, [(exit code, stdout bytes)] per command).
    """
    seconds = 0.0
    outputs = []
    for cmd in commands:
        _reset_caches(misses)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(list(cmd.args))
            seconds += time.perf_counter() - start
        outputs.append((code, buf.getvalue().encode("utf-8")))
    _reset_caches(misses)
    return seconds, outputs


# -- probes ------------------------------------------------------------------------


def _median_s(fn, repeats: int, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _per_call_us(fn, calls: list, repeats: int = 5, before=None) -> float:
    def loop():
        for args in calls:
            fn(*args)

    return _median_s(loop, repeats, before) / len(calls) * 1e6


def _main_quiet(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"probe command {argv} exited {code}")
    return buf.getvalue()


def probes() -> dict:
    """Per-call cost of every layer on fixed inputs (no tracer installed)."""
    m: dict[str, float] = {}
    p = PROBE_PRIME
    Params = selberg_core.SelbergParams
    triples = list(itertools.product(range(1, p), repeat=3))
    params = [Params(a, b, c, p) for a, b, c in triples]
    specs = [(pr.spec(2),) for pr in params]
    cycles = [(l1, l2) for l1 in range(1, 5) for l2 in range(l1, 5)]
    points = [(pr, l1, l2) for pr in params for l1, l2 in cycles]

    # modp_arith
    for q in CONTEXT_PRIMES:
        m[f"modp_arith.context_build_ms.p{q}"] = _median_s(lambda: modp_arith.FpContext(q), 3) * 1e3
    big = modp_arith.get_context(CONTEXT_PRIMES[-1])
    rng = random.Random(0xB1A)
    binomial_args = []
    for _ in range(20_000):
        n = rng.randrange(2 * big.p)
        binomial_args.append((n, rng.randrange(n + 1)))
    m["modp_arith.binomial_us"] = _per_call_us(big.binomial, binomial_args)
    m["modp_arith.is_prime_us.p1000003"] = _per_call_us(modp_arith.is_prime, [(1_000_003,)] * 200)

    # selberg_core
    m["selberg_core.params_us"] = _per_call_us(Params, [t + (p,) for t in triples])
    m["selberg_core.bruteforce_cold_us"] = (
        _per_call_us(lambda s: selberg_core.selberg_bruteforce(s, (1, 1)), specs, 3, _reset_caches))
    m["selberg_core.bruteforce_warm_us"] = (
        _per_call_us(lambda pr, l1, l2: selberg_core.selberg_bruteforce(pr.spec(2), (l1, l2)), points, 3))
    m["selberg_core.moment_us"] = (
        _per_call_us(lambda pr: selberg_core.moment_integral(pr, (1, 1), "S1"), [(pr,) for pr in params], 3))
    m["selberg_core.direct_us"] = _per_call_us(selberg_core.selberg_direct_2d, points)
    large = Params(500_000, 400_000, 500_000, CONTEXT_PRIMES[-1])
    m["selberg_core.direct_large_c_ms"] = (
        _median_s(lambda: selberg_core.selberg_direct_2d(large, 1, 2), 3) * 1e3)
    ctx = modp_arith.get_context(p)
    nd_args = [(ctx, 2, a, b, c) for a in range(2 * p) for b in range(2 * p) for c in range(p)
               if p - 1 <= a + b + c and a + b + 2 * c < 2 * p - 1]
    m["selberg_core.nd_closed_us"] = _per_call_us(selberg_core.selberg_nd_closed, nd_args)

    # selberg2d_closed (expansion cache warm from the probes above)
    m["selberg2d_closed.classify_us"] = _per_call_us(selberg2d_closed.classify, points)
    m["selberg2d_closed.eval_closed_us"] = _per_call_us(selberg2d_closed.eval_closed, points)
    m["selberg2d_closed.in_condition_sets_us"] = (
        _per_call_us(selberg2d_closed.in_condition_sets, [(pr,) for pr in params]))
    m["selberg2d_closed.relations_check_us"] = (
        _per_call_us(selberg2d_closed.relations_check, [(pr,) for pr in params], 3))
    skew = [(pr,) for pr in params if 2 * pr.c > p and pr.a + pr.b + 2 * pr.c >= 3 * p - 1]
    m["selberg2d_closed.skew_symmetry_us"] = _per_call_us(selberg2d_closed.skew_symmetry_check, skew, 3)

    # fp_poly: the stokes suite's operation on seeded random polynomials
    rng = random.Random(0x5E1B)
    stokes = []
    for _ in range(200):
        q = rng.choice((3, 5, 7, 11, 13))
        k = rng.randint(1, 2)
        terms = {tuple(rng.randrange(3 * q) for _ in range(k)): rng.randrange(q)
                 for _ in range(rng.randint(1, 25))}
        poly = fp_poly.MultiPoly(k, terms, q)
        cycle = tuple(rng.randint(1, 3) for _ in range(k))
        stokes.extend((poly, i, cycle) for i in range(1, k + 1))
    m["fp_poly.stokes_us"] = (
        _per_call_us(lambda poly, i, cycle: fp_poly.fp_integral(fp_poly.partial_derivative(poly, i), cycle),
                     stokes))

    # morris_ct
    morris = [(morris_ct.MorrisParams(n, al, be, ga),)
              for n in (1, 2, 3) for al, be, ga in itertools.product(range(4), repeat=3)]
    m["morris_ct.ct_bruteforce_us"] = _per_call_us(morris_ct.morris_ct_bruteforce, morris, 3)
    m["morris_ct.symmetric_form_us"] = _per_call_us(morris_ct.morris_lhs_symmetric_form, morris, 3)
    via = [(Params(a, b, c, 7), l) for a, b, c in itertools.product(range(1, 7), repeat=3) for l in (1, 2)
           if a + b + c >= l * 7 - 1 and a + c <= l * 7 - 1]
    m["morris_ct.via_morris_us"] = _per_call_us(morris_ct.selberg_via_morris, via)

    # verify: sweep rows per route, rendering
    for method, jobs, label in (("closed", 1, "closed"), ("direct", 1, "direct"),
                                ("bruteforce", 1, "bruteforce"), ("closed", 2, "closed_jobs2")):
        config = verify.SweepConfig(suites=(), methods=(method,), parallelism=jobs)
        m[f"verify.sweep_rows_ms.{label}"] = (
            _median_s(lambda: verify.sweep_rows(config), 1 if method == "bruteforce" else 3,
                      _reset_caches) * 1e3)
    rows = verify.sweep_rows(verify.SweepConfig(suites=(), methods=("closed",)))
    m["verify.render_csv_ms"] = _median_s(lambda: verify.render_sweep(rows, "csv"), 3) * 1e3
    m["verify.render_json_ms"] = _median_s(lambda: verify.render_sweep(rows, "json"), 3) * 1e3
    # Suite times as the verify command runs them (one shared expansion cache).
    _reset_caches()
    report = verify.run_verification(verify.SweepConfig())
    for suite in report.suites:
        m[f"verify.suite_s.{suite.name}"] = suite.seconds
    m["verify.render_report_ms"] = _median_s(lambda: verify.render_report(report, "json"), 5) * 1e3

    # cli: in-process main per command, caches cold as in a fresh process
    for name, argv, repeats in (("eval", ["eval", *POINT_QUERY, "--method", "closed"], 3),
                                ("classify", ["classify", *POINT_QUERY], 3),
                                ("sweep", ["sweep", "--format", "csv"], 3)):
        m[f"cli.main_ms.{name}"] = _median_s(lambda: _main_quiet(argv), repeats, _reset_caches) * 1e3
    return m


# -- modes ---------------------------------------------------------------------------


@dataclass
class TracedReplay:
    """One pass replayed untraced and then traced, with both replays gated."""

    untraced_s: float
    traced_s: float
    tracer: Tracer
    summary: dict
    misses: dict  # cache misses per package cache in the traced replay
    failures: list  # failure messages per command, untraced replay then traced

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.traced_s - self.untraced_s) / self.untraced_s

    def counts(self) -> dict:
        by_name = self.summary["by_name"]

        def calls(name):
            return by_name.get(name, {}).get("calls", 0)

        bruteforce_calls = calls("selberg_core.selberg_bruteforce")
        expansions = len(self.tracer.expansion_keys)
        counts = {
            "modp_arith.contexts_built": calls("modp_arith.FpContext"),
            "selberg_core.bruteforce_calls": bruteforce_calls,
            "selberg_core.expansions": expansions,
            "selberg_core.expansion_runs": self.misses.get("selberg_core._dense_master", 0),
            "selberg_core.expansion_reuse": bruteforce_calls / expansions if expansions else 0.0,
            "fp_poly.dense_cells": self.tracer.dense_cells,
        }
        for layer in LAYERS:
            counts[f"{layer}.calls"] = self.summary["by_layer"][layer]["calls"]
        return counts


def traced_replay(workload: str, commands: tuple, queries=None, pins=None, pin_failures=None) -> TracedReplay:
    untraced_s, outputs = replay(commands)
    misses: dict[str, int] = {}
    tracer = Tracer()
    with tracer:
        traced_s, traced_outputs = replay(commands, misses)
    pin_failures = pin_failures or [[] for _ in commands]
    failures = []
    for outs in (outputs, traced_outputs):
        gate = workloads.check_pass(workload, commands, outs, queries, pins)
        failures.extend(g + p for g, p in zip(gate, pin_failures))
    return TracedReplay(untraced_s, traced_s, tracer, tracer.summary(), misses, failures)


def trace_mode(workload: str, seed: int, spans_stem: str) -> dict:
    # The count metrics and trace.overhead_pct come from the default verify
    # pass on every workload: it enters every layer, so none of them is ever 0.
    fixed = traced_replay("verify-default", workloads.VERIFY_COMMANDS)
    if workload == "verify-default":
        own = fixed
    else:
        queries = pins = pin_failures = None
        if workload == "eval-large-p":
            queries = workloads.eval_queries(seed)
            pins = workloads.committed_pins(seed, queries)
            if pins is None:
                pins, pin_failures = pin_queries(queries)
        own = traced_replay(workload, workloads.pass_commands(workload, queries), queries, pins, pin_failures)
    own.tracer.write_spans(spans_stem)

    metrics = {"trace.overhead_pct": fixed.overhead_pct, "cli.main_ms.verify": fixed.untraced_s * 1e3}
    metrics.update(fixed.counts())
    metrics.update(probes())
    failures = fixed.failures + (own.failures if own is not fixed else [])
    return {
        "attempted": len(failures),
        "failed": sum(1 for msgs in failures if msgs),
        "failures": [m for msgs in failures for m in msgs][:20],
        "metrics": metrics,
        # The selected workload's own replay; a layer it bypasses counts 0 here.
        "workload_replay": {
            "untraced_s": own.untraced_s, "traced_s": own.traced_s, "overhead_pct": own.overhead_pct,
            "spans": len(own.tracer.spans) // len(SPAN_FIELDS), "cache_misses": own.misses,
            "counts": own.counts(),
            "layers_self_ms": {layer: e["self_s"] * 1e3 for layer, e in own.summary["by_layer"].items()},
            "spans_by_name": own.summary["by_name"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pin-eval", "commit-pins", "trace"))
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--spans", help="path stem for the span dump (trace mode)")
    args = parser.parse_args(argv)
    if args.mode == "commit-pins":
        return commit_pins(args.seed)
    if len(args.seed) != 1:
        parser.error(f"{args.mode} takes one --seed")
    if args.mode == "pin-eval":
        pins, failures = pin_queries(workloads.eval_queries(args.seed[0]))
        result = {"pins": pins, "failures": failures}
    else:
        if not args.workload or not args.spans:
            parser.error("trace mode needs --workload and --spans")
        result = trace_mode(args.workload, args.seed[0], args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
