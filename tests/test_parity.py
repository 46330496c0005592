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


def test_a_move_from_zero_reads_inf_and_moved_cases_are_named(digest):
    planted = json.loads(parity.dumps(digest))
    cases = planted["chain_spectrum"]
    zero = sorted(case for case, outcome in cases.items()
                  if outcome.get("max_abs_imag") == {"f": (0.0).hex()})
    assert len(zero) >= 2
    for case in zero:
        cases[case]["max_abs_imag"] = {"f": (1e-300).hex()}
    report, same = parity.compare(digest, planted)
    assert not same
    rows = {line.split()[0]: line for line in report.splitlines()}
    row = rows["chain_spectrum"]
    assert f"{len(zero)} moved (max_abs_imag)" in row
    assert "max rel inf" in row and "1.8e+308" not in report
    assert f"moved in chain_spectrum: {', '.join(zero)}\n" in report
    # Past MOVED_CASES_SHOWN cases the list is cut and says how many more.
    planted = json.loads(parity.dumps(digest))
    moved = sorted(case for case, outcome in planted["loop_period"].items()
                   if "error" not in outcome)
    for case in moved:
        planted["loop_period"][case] = dict(planted["loop_period"][case],
                                            closure_error={"f": "0x1.0p-1"})
    report, _ = parity.compare(digest, planted)
    shown = parity.MOVED_CASES_SHOWN
    line = next(line for line in report.splitlines()
                if line.startswith("moved in loop_period: "))
    assert len(moved) > shown
    assert line.endswith(f" and {len(moved) - shown} more")
    assert line.count("|") == 3 * shown
