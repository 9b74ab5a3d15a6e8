"""Every narrative script in demos/ runs to completion and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a demo whose output changes must update its pin.
STDOUT_SHA256 = {
    "01_field_arithmetic.py": "8ebe598b20769b53b8fbe388aee810c5f50248fc214e9e1c95257bec8a3c6765",
    "02_polynomials_and_integrals.py": "4b58f425065307454ea317e13094935da9aacb10a97724871d92a586d37ec771",
    "03_two_dimensional_evaluators.py": "695f02e6c7b17a83ab7ca8e54c90074041add024e186b1e20a303dcb3202cf13",
    "04_case_analysis_and_relations.py": "1a8d60bf1102ab52d2fa1316fe9410c3a1e46eda765a4b88de877fde24337b84",
    "05_morris_identity.py": "0ad054b7033330b3ea28a4258736f907abea423dc84e5b2139b246407b170966",
}


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
