import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpselberg import modp_arith
from fpselberg.cli import main
from fpselberg.modp_arith import get_context

MERSENNE_61 = 2**61 - 1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_closed_golden(capsys):
    code, out, _ = run(capsys, "eval", "-p", "7", "-a", "3", "-b", "4", "-c", "3",
                       "-l", "1,1", "--method", "closed")
    assert code == 0
    assert "value = 1" in out
    assert "branch = C11_ii" in out


def test_eval_zero_branch(capsys):
    code, out, _ = run(capsys, "eval", "-p", "7", "-a", "6", "-b", "6", "-c", "6", "-l", "2,3")
    assert code == 0
    assert "value = 0" in out
    assert "branch = C23_zero" in out


def test_eval_rejects_composite_prime(capsys):
    code, _, err = run(capsys, "eval", "-p", "4", "-a", "1", "-b", "1", "-c", "1", "-l", "1,1")
    assert code == 2
    assert "odd prime" in err


def test_eval_rejects_out_of_range_parameter(capsys):
    code, _, err = run(capsys, "eval", "-p", "7", "-a", "7", "-b", "1", "-c", "1", "-l", "1,1")
    assert code == 2
    assert "0 < a < p" in err


def test_eval_params_flag_and_conflicts(capsys):
    code, out, _ = run(capsys, "eval", "-p", "7", "--params", "6,6,6", "-l", "2,2")
    assert code == 0
    assert "value = 5" in out
    code, _, err = run(capsys, "eval", "-p", "7", "--params", "6,6,6", "-a", "1", "-l", "2,2")
    assert code == 2
    assert "not both" in err
    code, _, err = run(capsys, "eval", "-p", "7", "-l", "1,1")
    assert code == 2
    assert "required" in err


def test_eval_bad_cycle(capsys):
    code, _, err = run(capsys, "eval", "-p", "7", "--params", "1,1,1", "-l", "1")
    assert code == 2
    code, _, err = run(capsys, "eval", "-p", "7", "--params", "6,6,3", "-l", "0,1")
    assert code == 2
    assert err == "error: cycle entries must be positive integers, got (0, 1)\n"


def test_eval_integer_mode_bruteforce(capsys):
    code, out, _ = run(capsys, "eval", "-p", "7", "--params", "6,6,3", "-l", "2,2",
                       "--method", "bruteforce", "--integer-mode")
    assert code == 0
    assert "integer S = -1080" in out
    assert "value = 5" in out
    assert "branch = C22_i" in out


@pytest.mark.parametrize("method", [(), ("--method", "closed"), ("--method", "direct")])
def test_eval_integer_mode_needs_bruteforce(capsys, method):
    code, out, err = run(capsys, "eval", "-p", "7", "--params", "6,6,3", "-l", "2,2",
                         *method, "--integer-mode")
    assert code == 2
    assert out == ""
    assert "--method bruteforce" in err


def test_eval_verbose_shows_formula(capsys):
    code, out, _ = run(capsys, "eval", "-p", "7", "--params", "3,4,3", "-l", "1,1", "-v")
    assert code == 0
    assert "(2c)!/c!" in out
    assert "numerator factorial arguments" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "-p", "7", "--params", "1,1,1", "-l", "1,1")
    assert code == 0
    assert "NOT_APPLICABLE_zero" in out
    assert "delta=" in out


def test_eval_resource_guard_exit_code(capsys):
    code, _, err = run(capsys, "eval", "-p", "997", "--params", "996,996,996",
                       "-l", "1,1", "--method", "bruteforce")
    assert code == 3
    assert "resource guard" in err


def test_eval_huge_prime_zero_branch_is_instant(capsys):
    code, out, _ = run(capsys, "eval", "-p", str(MERSENNE_61), "--params", "5,6,7", "-l", "2,3")
    assert code == 0
    assert "value = 0" in out
    assert "branch = C23_zero" in out


def test_factorial_table_guard_exit_code(capsys, monkeypatch):
    # A non-zero branch above the table cap is refused before any table is
    # built; a zero branch at the same prime still gets its answer.
    get_context.cache_clear()
    point = ("-p", str(MERSENNE_61), "--params", f"{MERSENNE_61 - 2},{MERSENNE_61 - 2},1", "-l", "1,1")
    for argv in (("eval", *point), ("eval", *point, "--method", "direct"), ("classify", *point)):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "resource guard" in err and "factorial tables" in err
    code, out, _ = run(capsys, "eval", "-p", str(MERSENNE_61), "--params", "1,1,1", "-l", "1,1")
    assert code == 0
    assert "value = 0" in out
    assert get_context(MERSENNE_61).fact is None
    # Just above and at the cap, with the cap lowered so nothing large is built.
    monkeypatch.setattr(modp_arith, "MAX_TABLE_ENTRIES", 1000)
    get_context.cache_clear()
    assert run(capsys, "eval", "-p", "2003", "--params", "2001,2001,1", "-l", "1,1")[0] == 3
    assert run(capsys, "eval", "-p", "1999", "--params", "1997,1997,1", "-l", "1,1")[0] == 0
    get_context.cache_clear()


def test_point_queries_never_import_numpy():
    # eval --method closed|direct and classify need no dense kernel, so they
    # must not pay for loading numpy; the brute-force route still loads it.
    script = """
import sys
from fpselberg import cli
assert "numpy" not in sys.modules
point = ["-p", "10007", "--params", "6000,6000,2000", "-l", "1,1"]  # branch C11_i
for argv in (["eval", *point], ["eval", *point, "--method", "direct"], ["classify", *point]):
    assert cli.main(argv) == 0
    assert "numpy" not in sys.modules, argv
assert cli.main(["eval", "-p", "7", "--params", "3,4,3", "-l", "1,1", "--method", "bruteforce"]) == 0
assert "numpy" in sys.modules
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("value = 1") == 1  # the brute-force golden point


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle_equiv", "--primes", "3,5")
    assert code == 0
    assert "failed=0" in out


def test_verify_multiple_suites_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "morris,stokes", "--primes", "5,7",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1
    assert payload["failed_total"] == 0
    assert {s["name"] for s in payload["suites"]} == {"morris", "stokes"}


def test_verify_relations_notes_discrepancy(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--primes", "7")
    assert code == 0
    assert "paper_discrepancy=true" in out


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stokes", "--primes", "5", "--format", "csv")
    assert code == 0
    assert out.startswith("suite,checked,passed,failed,skipped,seconds")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope", "--primes", "5")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_verify_empty_suite_list_is_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--primes", "5")
    assert code == 2
    assert "checked=" not in out
    assert "names no suite" in err


def test_verify_rejects_bad_primes(capsys):
    code, _, err = run(capsys, "verify", "--suite", "stokes", "--primes", "4,5")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "stokes", "--primes", "x")
    assert code == 2


def test_verify_jobs_is_validated_and_serial(capsys):
    counts = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--suite", "relations", "--primes", "7",
                           "--format", "csv", "--jobs", jobs)
        assert code == 0
        counts.append([line.rsplit(",", 1)[0] for line in out.splitlines()])
    assert counts[0] == counts[1]
    code, _, err = run(capsys, "verify", "--suite", "relations", "--primes", "7", "--jobs", "0")
    assert code == 2 and "parallelism" in err


def test_sweep_deterministic_across_jobs(tmp_path, capsys):
    for fmt, name in (("csv", "sweep.csv"), ("json", "sweep.json")):
        paths = []
        for jobs in ("1", "4"):
            path = tmp_path / f"{jobs}_{name}"
            code, _, _ = run(capsys, "sweep", "--primes", "3,5,7", "--format", fmt,
                             "--jobs", jobs, "--out", str(path))
            assert code == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


def test_sweep_csv_header_and_row_count(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "--primes", "3,5", "--format", "csv", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p,a,b,c,l1,l2,branch,value,in_R1,in_R2,in_R3"
    assert len(lines) == 1 + (2**3 + 4**3) * 10
    assert lines[1] == "3,1,1,1,1,1,C11_i,1,false,false,false"


def test_sweep_rows_sorted_lexicographically(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "5,3", "--format", "csv")
    assert code == 0
    rows = [tuple(map(int, line.split(",")[:6])) for line in out.splitlines()[1:]]
    assert rows == sorted(rows)


def test_sweep_json_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 8 * 10


def test_sweep_text_format(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "3", "--cycle-bound", "1")
    assert code == 0
    assert "branch" in out.splitlines()[0]
    assert len(out.splitlines()) == 1 + 8


def test_sweep_bruteforce_method_agrees_with_closed(capsys):
    _, closed_out, _ = run(capsys, "sweep", "--primes", "5", "--format", "csv")
    _, brute_out, _ = run(capsys, "sweep", "--primes", "5", "--format", "csv",
                          "--method", "bruteforce")
    assert closed_out == brute_out


def test_sweep_unwritable_output(capsys):
    code, _, err = run(capsys, "sweep", "--primes", "3", "--out", "/nonexistent/dir/x.csv")
    assert code == 2
    assert "cannot write" in err


def test_sweep_empty_primes(capsys):
    code, _, err = run(capsys, "sweep", "--primes", "")
    assert code == 2


def test_morris_command(capsys):
    code, out, _ = run(capsys, "morris", "--n", "2", "--alpha", "1", "--beta", "1", "--gamma", "1")
    assert code == 0
    assert "constant term      = 6" in out
    assert "identity holds" in out


def test_morris_command_guard(capsys):
    code, _, err = run(capsys, "morris", "--n", "5", "--alpha", "1", "--beta", "1", "--gamma", "1")
    assert code == 3


def test_morris_command_bad_input(capsys):
    code, _, err = run(capsys, "morris", "--n", "2", "--alpha", "-1", "--beta", "1", "--gamma", "1")
    assert code == 2


def test_verify_exit_code_on_induced_failure(monkeypatch, capsys):
    # poison one golden value: the relations suite must fail and exit 1
    import fpselberg.verify as verify_mod
    from fpselberg.golden import GoldenValue

    wrong = GoldenValue(p=7, a=3, b=4, c=3, l1=1, l2=1, value=2, printed_value=2,
                        paper_discrepancy=False)
    monkeypatch.setattr(verify_mod, "GOLDEN_2D", (wrong,))
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--primes", "7")
    assert code == 1
    assert "failed=1" in out or "FAILED" in out


def test_sweep_cycles_beyond_the_special_four_are_zero(capsys):
    code, out, _ = run(capsys, "sweep", "--primes", "5", "--cycle-bound", "6",
                       "--format", "csv", "--method", "bruteforce")
    assert code == 0
    special = {(1, 1), (1, 2), (2, 2), (1, 3)}
    for line in out.splitlines()[1:]:
        parts = line.split(",")
        l1, l2, value = int(parts[4]), int(parts[5]), int(parts[7])
        if (l1, l2) not in special:
            assert value == 0, line


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_internal_error_in_a_suite_fails_only_that_suite(monkeypatch, capsys):
    import fpselberg.verify as verify_mod

    def broken(config, grids):
        raise ValueError("factorial argument -1 outside table range")

    monkeypatch.setitem(verify_mod._SUITE_RUNNERS, "relations", broken)
    code, out, _ = run(capsys, "verify", "--suite", "relations,stokes", "--primes", "5", "--format", "json")
    assert code == 1
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert (suites["relations"]["checked"], suites["relations"]["failed"]) == (1, 1)
    assert "ValueError: factorial argument -1" in suites["relations"]["counterexamples"][0]["error"]
    assert suites["stokes"]["checked"] > 0 and suites["stokes"]["failed"] == 0


def test_malformed_max_terms_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FPSELBERG_MAX_TERMS", "lots")
    code, out, err = run(capsys, "verify", "--suite", "stokes", "--primes", "5")
    assert code == 2
    assert out == ""
    assert "FPSELBERG_MAX_TERMS" in err
