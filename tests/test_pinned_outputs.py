"""The default `verify` counts, `sweep` bytes and benchmark eval pins, pinned.

Any change to the package must leave these untouched: the per-suite counts
of the default verification run, with and without --integer-mode, and the
grid windows it builds, the sha256 of the default sweep in each output
format and for each evaluation route, the sha256 of the `classify` and
`eval -v` output at one point of each branch, and the (value, branch) pairs
the benchmark harness records for its seed-0 point queries.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg import morris_ct, selberg_core
from fpselberg.cli import main

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
# The whole expansions a default verify makes, per module: the Morris families
# expand each of their two sides once per (n, gamma), 12 families, and brute force
# the 6 golden points; the grids step their Q_{0,c} over c instead.
VERIFY_DENSE_PRODUCTS = {"morris_ct": 24, "selberg_core": 6}
SWEEP_P5_WINDOW_BUILDS = [(3, 3, 10, 0), *((5, 5, 10, a) for a in range(5))]
SWEEP_CSV_SHA256 = "abeb7230281bbb0a9433242eca0d3564bd2248a49760734870dda0548a7dd470"
SWEEP_JSON_SHA256 = "9a0560aeeccf6597471e167696fa934910941d1cd62f9e5eef030063fce2288a"


# The first point of each of the 19 branches on the default grid, in sweep order, as
# (p, a, b, c, l1, l2), and the sha256 of the stdout of `classify`, `eval -v` and
# `eval -v --method direct` there.
DESCRIBE_SHA256 = {
    "C11_i": ((3, 1, 1, 1, 1, 1),
        "e592dd62142d5d23f5adcf60705cc820af2d10e18a53627a3ba0cb479b01a722",
        "94e248f102da7eaf5ee1bc46e53ecbeadc421f2fe69f56c6c3e8987d0e38815b",
        "36ca92253b86c99f6bbe5e5944416a19630fbd7c51c64244a7bf2b2f3f1c1679"),
    "C11_ii": ((3, 1, 2, 1, 1, 1),
        "8aa8594a18a7cd1036060f080fdf8a8732128881e61b9f04fbe0b70259128b7c",
        "2077245758e01690da441dfa64198ab848b4c11355fc3abf67e67a2406ff8c28",
        "38d7735b3a6ebebfaad5bcc90bf71c20e17b4c92cd6140865316e457420ba9d2"),
    "C11_iii_zero": ((5, 1, 3, 2, 1, 1),
        "c1ea28989a51bf99a49d931b274b666235059245f22104c077fff322a94c3020",
        "3dd2ee77b70ffa3fbe448bd26757c3225352943b035b4861c3db2fe513a99f38",
        "5b5431034e9ce337fd5d0f33a164d114b9417afc83d63fbe39a3e6e7c82e26fc"),
    "C22_i": ((3, 1, 2, 2, 2, 2),
        "340d16726a70a3a5cf44358cd0a4085e837b292b59ee2d4173c10972a2b42e48",
        "ec3dc7fe34e754fcc2fb8c25469ffb7eac5b29a85d3eaf0b5640bf124a597ff4",
        "43577ad5c8efca30ace17c76e21e93a0c64f6275212effa4e34fd4d79919c77e"),
    "C22_ii": ((3, 2, 2, 2, 2, 2),
        "e295ddd13678a13de3bad1c7faf9799654d402c8de1dd7ab1831fd7c560636a2",
        "e9674b01be44cebf3caab573c7812fd427ffda0a6233c215db3afa62bbfa2532",
        "5d346d852f7af3857e9f82d7986648c8051c30e2e960be8491e9fbcaf1a7a20a"),
    "C12_delta_neg_zero": ((3, 1, 1, 1, 1, 2),
        "c16da1948a4a13bf0715144adb67a81b3e11633cfeaa9bf26144e51b71f762db",
        "135b5364e577aeeaf2dbc2cb3d154da979ba8cdceec39732352dd587e73d9f74",
        "bf9e0cc85409aad0e43053c2c2da01b3562e53a6f0f826d63abc7a267048a826"),
    "C12_delta0_zero": ((5, 1, 2, 3, 1, 2),
        "aac0f9544af621712de1099fda7dc9b97cfb23e4ae66800933d7c34e00fdef47",
        "59072ec84da232134b751ff62035a70f25d0cb5fffe8e142519a48ca1b08f552",
        "3d002dd5bcb6966c50e1a6929a7e2b5bfd673e0d10f2f27542e045af967fd86c"),
    "C12_delta0_formula": ((3, 1, 2, 1, 1, 2),
        "dd43845c968c2ebb1d25578989c7686d2d10e40749e65c03d3084a8aa9ac51cd",
        "c81542bc9926ca848fb3d4363d1ef4c2d5fd9ef0e389bd2a77869b8a7daf29a0",
        "1ca74c69a12f4e34b8cff3ea3251811549f2d6d3a8ccfa6c0c226a3e2500bfea"),
    "C12_i": ((5, 2, 4, 2, 1, 2),
        "b543204d9048efdfc33f720e0fe797f66cd342386e559420fc14826e7bc4c794",
        "c8cacb7deb943614e560ebc6eeff847be221db28944beec2fec127897a69c4b1",
        "37a2e410c573d5fa62c4cc399004c52487373baa60fba839f33b6f1bf8d7fd79"),
    "C12_ii": ((5, 4, 2, 2, 1, 2),
        "4a8aa596f7d8e3c4273b1f0481c65929be600697292960135e6b5f85937d9cd5",
        "f6d1ee4d3b87f0537e0f425b16773874548cf39c9bfeb37f74c1a3ca5d33d9cb",
        "5e0c96692601b899df95929536611d99f2bb14a803a91a68c5d1d688198c55c3"),
    "C12_iii_zero": ((5, 3, 3, 2, 1, 2),
        "12642d33481e00a10ff670fd03cc92634c6caeda7dfdd5191f6172868ea84b09",
        "d6bf6db4c810c1866a10da8f5d9fd5cb8809505b9f15650e7115b170aa5e4ac7",
        "dfe2048252bbca27e6b5016bf90cec9ee768899499c109edac542a943763eddd"),
    "C12_iv": ((3, 2, 2, 1, 1, 2),
        "1e2f9d40084effa854c5e06da1a245026b61b38eb0f199e08d4cf9913d515e22",
        "796c6c1c2d530d9aedc11ba6d227488cc14ae99ea90b422826be49d070a3b20f",
        "54248578aed3b94cf638d32a30bc519c5cf497ba3e63597323003ff230f12f06"),
    "C12_v_zero": ((3, 1, 1, 2, 1, 2),
        "b4c301e6db7ef7c95d3b9e4896291f1bad4e790db7b7b40780c255504a6c9221",
        "ce1e5a76afbe9e9052e3f4ae3eda4f69f9193a6c86187ea90c97535db6c2f9c8",
        "b5b0ddb81e9de879d9ec9a55abe5dc7494975ed072f234cf89287448fab6086f"),
    "C12_vi_zero": ((5, 1, 3, 3, 1, 2),
        "8efd2833e899e13114d53c2aab8f8042f879a6e42da0899a3f8d033b3a0129aa",
        "65889bda75cb135e1c4211bf7504c46656eed7658fde879a04fcded95bb9041c",
        "83af230045bb74524a6b5d3ed6e44a9bc27081f3e7b4b46994d01c780bfe6d0a"),
    "C13_zero": ((3, 1, 1, 1, 1, 3),
        "5035e0e8158ccbd8500819b2a3505a3cba3b2c732172a737152a771612efc212",
        "02fa2ebbb32e8471620f705ce4c42a53804cbdefd9c6ea6dc88164605ce8eaea",
        "22c87b8ce082e684f6de41525ebcdecd446b67caa4ff5690ff5d91e08e1aafb4"),
    "C13_formula": ((3, 2, 2, 2, 1, 3),
        "9e85ce367c0a9dbf7b015f2a0c3ded256e006287d00db7e4e862c807b53f6e96",
        "98474a9b981746b099a69321e1d0b7259fccc098b353154011260b94194654cf",
        "71e0e0f2785494105afd8b889bf7c544890dba7e6ef20211b6e5050219bceef4"),
    "C23_zero": ((3, 1, 1, 1, 2, 3),
        "cdb6939ce74191cd66353270300a2d98e62ae64f25e4bcb4de1897186ff46a3a",
        "914f76f8165b9347c8035c55d712c9e415771ea69cce638559bc2086a869502b",
        "d0bb42460d9c6b9fe59e045d3803c2ddab5339d0f1cad0e7e9223eb515bcaf19"),
    "OTHER_zero": ((3, 1, 1, 1, 1, 4),
        "165463e1117f618b23e8cc4eb8b434629df4e697efddc447268d53804382dfc4",
        "d0c8d73c96ef4f3171c93359ee427cac866408b3d561402fe221aaf58545b040",
        "9257b652bd50fb9194e085c5855874cac7a317e3c9ccc5db1696aa44d32324b9"),
    "NOT_APPLICABLE_zero": ((3, 1, 1, 1, 2, 2),
        "6158fc00cf5c536f34b8ecb8d56073f52026e11720c5f974ce1a30a8567c7e91",
        "2e7b52cc18fc03eda96daddd462de5d13eb83886b56b2b6329663398aec232bd",
        "7724433d4bdf8e5beac4b66251573e4ab679b266fab4430617caf06b7814c05c"),
}


def _record_builds(monkeypatch) -> list:
    builds = []
    build = selberg_core._build_window

    def counted(p, cycles, deg, chunk, start, values, s1):
        builds.append((p, values.shape[1], len(cycles), start))
        build(p, cycles, deg, chunk, start, values, s1)

    monkeypatch.setattr(selberg_core, "_build_window", counted)
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


def test_default_verify_dense_products(tmp_path, monkeypatch):
    monkeypatch.delenv("FPSELBERG_MAX_TERMS", raising=False)
    selberg_core._dense_master.cache_clear()  # a point expanded earlier would be read, not made
    calls = {}
    for module in (morris_ct, selberg_core):
        name, expand = module.__name__.rpartition(".")[2], module._dense_product

        def counted(*args, _name=name, _expand=expand):
            calls[_name] = calls.get(_name, 0) + 1
            return _expand(*args)

        monkeypatch.setattr(module, "_dense_product", counted)
    assert main(["verify", "--format", "json", "--out", str(tmp_path / "verify.json")]) == 0
    assert calls == VERIFY_DENSE_PRODUCTS


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


@pytest.mark.parametrize("branch", DESCRIBE_SHA256)
def test_describe_bytes_of_every_branch(capsys, branch):
    (p, a, b, c, l1, l2), *digests = DESCRIBE_SHA256[branch]
    point = ["-p", str(p), "--params", f"{a},{b},{c}", "-l", f"{l1},{l2}"]
    got = []
    for argv in (["classify", *point], ["eval", *point, "-v"], ["eval", *point, "-v", "--method", "direct"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"branch {branch}," in out
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert got == digests

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
