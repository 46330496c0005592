"""Import hygiene: the package and its CLI load on numpy alone, and the
closed-form layer and the chains do not reach into the loop module."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import nhwind
from nhwind import berry, bloch, lattice


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


def test_bloch_and_lattice_import_nothing_from_berry():
    # Which samples the closed form serves is decided in bloch; lattice
    # takes that rule from there, not through the loop module.
    package = Path(nhwind.__file__).resolve().parent
    for name in ("bloch.py", "lattice.py"):
        tree = ast.parse((package / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                assert not any("berry" in n for n in names), (name, names)


def test_package_names_are_the_modules_lists():
    # Each module states its public names once; the package re-exports
    # exactly those, bound to the module's own objects.
    modules = (bloch, berry, lattice)
    assert nhwind.__all__ == [name for module in modules
                              for name in module.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(nhwind, name) is getattr(module, name), name
