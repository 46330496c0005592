"""Import hygiene: the package and its CLI load on numpy alone."""
import os
import subprocess
import sys
from pathlib import Path

import nhwind


def test_import_pulls_in_no_scipy():
    src = str(Path(nhwind.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, nhwind, nhwind.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
