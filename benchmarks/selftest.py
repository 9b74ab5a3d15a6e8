"""Self-test of the benchmark harness (stdlib unittest; about 15 s).

    python3 benchmarks/selftest.py

Checks that a wrong output is counted against ``error_rate`` instead of being
timed (one tampered sweep byte, one wrong eval value), that the tracer puts
back every object it wrapped, and that the harness refuses a directory
without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

import fpselberg  # noqa: E402
from fpselberg import cli  # noqa: E402
from tracer import LAYERS, TRACED_CLASSES, Tracer  # noqa: E402


class TamperingHarness(run.Harness):
    """Rewrites the stdout of one named command after the child has exited."""

    def __init__(self, target: str, tamper):
        super().__init__(run.ROOT, run.time.perf_counter())
        self.target, self.tamper = target, tamper

    def cli(self, args, out_name):
        child = super().cli(args, out_name)
        if out_name.endswith(f".{self.target}.out"):
            child.out_path.write_bytes(self.tamper(child.out_path.read_bytes()))
        return child


def _error_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


class GateTest(unittest.TestCase):
    def test_tampered_sweep_byte_raises_error_rate(self):
        def flip_last_digit(out: bytes) -> bytes:
            i = max(out.rfind(d) for d in b"0123456789")
            return out[:i] + (b"1" if out[i:i + 1] != b"1" else b"2") + out[i + 1:]

        plan = run.Plan("sweep-grid", workloads.pass_commands("sweep-grid"))
        clean = run.run_passes(TamperingHarness("none", bytes), plan, 0)
        self.assertEqual(_error_rate(clean), 0, clean["failures"])
        tampered = run.run_passes(TamperingHarness("sweep.csv.direct", flip_last_digit), plan, 0)
        self.assertEqual(tampered["attempted"], len(workloads.SWEEP_COMMANDS))
        self.assertGreater(_error_rate(tampered), 0)
        self.assertTrue(any(f.startswith("sweep.csv.direct:") for f in tampered["failures"]))

    def test_wrong_eval_value_raises_error_rate(self):
        import inproc

        queries = [dict(q, route="closed") for q in workloads.eval_queries(seed=7)[:3]]
        plan = run.Plan("eval-large-p", workloads.pass_commands("eval-large-p", queries), queries,
                        *inproc.pin_queries(queries))
        clean = run.run_passes(TamperingHarness("none", bytes), plan, 0)
        self.assertEqual(_error_rate(clean), 0, clean["failures"])

        def wrong_value(out: bytes) -> bytes:
            value, _ = workloads.parse_query_output("closed", out)
            return out.replace(f"value = {value}\n".encode(), f"value = {value + 1}\n".encode())

        tampered = run.run_passes(TamperingHarness("query01", wrong_value), plan, 0)
        self.assertEqual((tampered["failed"], tampered["attempted"]), (1, 3))
        self.assertIn("query01: value", tampered["failures"][0])

    def test_committed_pins_match_the_query_generator(self):
        seeds = json.loads(workloads.EVAL_PINS_FILE.read_text())["seeds"]
        self.assertGreaterEqual(len(seeds), 10)
        for seed in seeds:
            pins = workloads.committed_pins(int(seed), workloads.eval_queries(int(seed)))
            self.assertEqual(len(pins), workloads.EVAL_QUERIES)
        self.assertIsNone(workloads.committed_pins(10**9, workloads.eval_queries(10**9)))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        value, pct, n = run.tail(list(range(48)))
        self.assertEqual((value, n), (37, 48))
        self.assertEqual(sum(v > value for v in range(48)), 10)
        self.assertAlmostEqual(pct, 100 * 38 / 48)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


def _namespaces() -> dict:
    """Every binding the tracer may touch: package module globals and class __init__s."""
    prefix = "fpselberg"
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == prefix or name.startswith(prefix + "."):
            snap[name] = dict(vars(module))
    for layer, cls_name in TRACED_CLASSES:
        cls = getattr(sys.modules[f"fpselberg.{layer}"], cls_name)
        snap[f"{layer}.{cls_name}.__init__"] = {"__init__": vars(cls)["__init__"]}
    return snap


def _assert_same(test: unittest.TestCase, before: dict, after: dict):
    test.assertEqual(before.keys(), after.keys())
    for space, names in before.items():
        for attr, obj in names.items():
            test.assertIs(after[space].get(attr), obj, f"{space}.{attr} was not restored")


class TracerTest(unittest.TestCase):
    def test_traced_run_restores_every_wrapped_function(self):
        before = _namespaces()
        original = fpselberg.verify.selberg_bruteforce
        tracer = Tracer()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            self.assertIsNot(fpselberg.verify.selberg_bruteforce, original)
            self.assertEqual(cli.main(["eval", "-p", "7", "-a", "3", "-b", "4", "-c", "3", "-l", "1,1",
                                       "--method", "bruteforce"]), 0)
        _assert_same(self, before, _namespaces())
        names = {tracer.names[name_id] for _, name_id, *_ in tracer.records()}
        self.assertTrue({"cli.main", "selberg_core.selberg_bruteforce", "selberg_core.SelbergParams",
                         "selberg2d_closed.classify"} <= names, names)
        summary = tracer.summary()
        self.assertEqual(set(summary["by_layer"]), set(LAYERS))
        self.assertGreater(tracer.dense_cells, 0)
        self.assertEqual(len(tracer.expansion_keys), 1)

    def test_tracer_restores_after_an_exception(self):
        before = _namespaces()
        with self.assertRaises(ZeroDivisionError):
            with Tracer():
                fpselberg.selberg_core.SelbergParams(1, 1, 1, 7)
                raise ZeroDivisionError
        _assert_same(self, before, _namespaces())


class CheckoutTest(unittest.TestCase):
    def test_refuses_a_directory_without_the_package(self):
        (run.ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as bare:
            shutil.copytree(run.HERE, f"{bare}/benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep-grid",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
