"""Self-test of the parity sweep in tools/parity.py, on a small subset."""
import base64
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhwind

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_SPEC = importlib.util.spec_from_file_location("parity", _TOOLS / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

# Two models at one grid, and one command line.
SUBSET = (("lee()", "demo()"), (256,), [("chain", "--n", "3")])
_SUBSET_RUN = ("import sys, parity; "
               "sys.stdout.write(parity.dumps(parity.sweep({!r}, {!r}, {!r})))"
               .format(*SUBSET))


@pytest.fixture(scope="module")
def digest():
    return parity.sweep(*SUBSET)


def test_digest_is_the_same_over_runs_and_hash_seeds(digest):
    text = parity.dumps(digest)
    assert parity.dumps(parity.sweep(*SUBSET)) == text
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(nhwind.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run([sys.executable, "-c", _SUBSET_RUN],
                              cwd=_TOOLS, env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == text, seed
    report, same = parity.compare(digest, json.loads(text))
    assert same
    assert "loop_period" in report and "cli" in report


def test_one_ulp_is_a_move_and_a_new_message_a_change(digest):
    planted = json.loads(parity.dumps(digest))
    case = "lee()|first|256|+1"
    value = planted["berry_phase[analytic]"][case]["value"]
    re = float.fromhex(value["c"][0])
    value["c"][0] = float(np.nextafter(re, np.inf)).hex()
    states = planted["loop_period"][case]["states"]
    array = np.frombuffer(base64.b64decode(states["b64"]),
                          dtype=states["dtype"]).copy()
    array[7] = np.nextafter(array[7].real, np.inf) + 1j * array[7].imag
    states["b64"] = base64.b64encode(array.tobytes()).decode("ascii")
    report, same = parity.compare(digest, planted)
    assert not same
    rows = {line.split()[0]: line for line in report.splitlines()}
    for quantity, field in (("berry_phase[analytic]", "value"),
                            ("loop_period", "states")):
        assert "identical" not in rows[quantity]
        assert f"1 moved ({field})" in rows[quantity]
    assert "identical" in rows["band_winding[analytic]"]
    # An error message or an exit code that changes is listed by case.
    planted = json.loads(parity.dumps(digest))
    raised = next(case for case, outcome in planted["loop_period"].items()
                  if "error" in outcome)
    planted["loop_period"][raised]["message"] += "!"
    planted["cli"]["chain --n 3"]["exit"] = 9
    report, same = parity.compare(digest, planted)
    assert not same
    assert f"loop_period | {raised}:" in report
    assert "cli | chain --n 3 exit: 0 -> 9" in report
