"""Parity sweep: a digest of every result ``nhwind`` gives on a fixed set
of inputs, and a comparison of two digests.

Usage, from the repository root::

    PYTHONPATH=src python tools/parity.py --out new.json
    PYTHONPATH=src python tools/parity.py --out new.json --against old.json

The first form runs the sweep and writes its JSON digest.  The second
also compares it with an older digest, say one written from a checkout
of the parent commit, and prints one line per quantity: "identical", or
the largest absolute and relative move over its cases.  The cases that
moved, and the changed error classes and messages, exit codes and output
bytes, are listed below the table.  The exit status is 0 when every
quantity is identical and 1 otherwise.

The sweep runs the ``nhwind`` found on ``PYTHONPATH`` over:

- the models of ``MODELS``, in every gauge, at the grids ``GRIDS``, on
  both bands: the ``loop_period`` trajectory, ``berry_phase``,
  ``band_winding``, ``split_check`` and ``winding_report(...,
  lee_normalization=2.0, with_bands=True)``, and ``eig2(hk(model, k))``
  at the momenta ``EIG2_MOMENTA``.  The four integrals are named with
  their derivative, ``[analytic]``, as the CLI records it in its
  metadata, so a digest compares case by case with one from an older
  checkout that also swept the removed ``fd4`` derivative;
- the chains of those models at ``CHAIN_CELLS`` cells under both
  boundaries: ``chain_spectrum`` with and without left rows and both
  ``localization_profile`` sides;
- the command line: the benchmark's ``CLI_COMMANDS`` (read from
  ``bench/workloads.py`` without importing it), the README examples and
  ``EXTRA_ARGVS``, each in a fresh ``python -m nhwind.cli`` process.

A call that raises records the error's class and message.  Floats are
stored as ``float.hex`` and arrays exactly, as base64 of their
little-endian bytes with shape and dtype, so equal digests mean
bit-identical results.  When the arrays would take more than
``MAX_ARRAY_BYTES`` of base64, those of cases above grid 256 keep only a
sha256.  Command output is stored as a sha256 and a length.  Standard
library and numpy only.
"""
from __future__ import annotations

import argparse
import ast
import base64
import dataclasses
import enum
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import nhwind
from nhwind import (BlochModel, Boundary, Gauge, band_winding, berry_phase,
                    chain_spectrum, demo, eig2, hk, lee, localization_profile,
                    loop_period, split_check, winding_report)

ROOT = Path(__file__).resolve().parents[1]
GRIDS = (256, 2048)
BANDS = (1, -1)
EIG2_MOMENTA = (0.0, 0.3, 1.7, np.pi, 4.4)
CHAIN_CELLS = (3, 8, 12)
MAX_ARRAY_BYTES = 20_000_000
# The comparison names at most this many moved cases per quantity.
MOVED_CASES_SHOWN = 12
# Command lines beyond the benchmark's and the README's code examples:
# the README's exit-code examples, a few more output paths, and every
# command in the format no other argv gives it, so each of the 7
# commands is covered in both CSV and JSON.
EXTRA_ARGVS = (
    ("winding", "--v", "0.8", "--r", "0.5", "--gamma", "0.5",
     "--grid", "128"),
    ("winding", "--gauge", "sideways"),
    ("winding", "--grid", "63"),
    ("chain", "--n", "8", "--bc", "periodic", "--format", "json"),
    ("bands", "--grid", "256", "--format", "json"),
    ("winding", "--grid", "256", "--format", "csv"),
    ("reductio", "--grid", "256", "--format", "csv"),
    ("band-windings", "--grid", "256", "--format", "json"),
    ("localize", "--n", "4", "--format", "json"),
    ("scan", "--n-list", "4,6", "--format", "json"),
)


def _shifted(shift, label: str) -> BlochModel:
    """``lee()`` with the constant ``shift`` added to ``hop_zero``."""
    base = lee()
    return BlochModel(base.hop_minus, base.hop_zero + shift, base.hop_plus,
                      label=label)


def _scalar_at_zero() -> BlochModel:
    """``h(k) = (cos k - 1) sigma_x + 0.3``: scalar at k = 0 only."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return BlochModel(0.5 * sx, 0.3 * np.eye(2) - sx, 0.5 * sx,
                      label="scalar_at_0")


def _right_angle_tie(grid: int, j: int) -> BlochModel:
    """A braided model whose splitting turns by exactly a right angle
    between samples ``j`` and ``j + 1`` of a ``grid``-sample zone.

    ``h(k) = 0.4 sigma_z + sigma_+ + (c0 + 0.3 e^{-ik} + e^{ik})
    sigma_-`` has ``D = 0.16 + c0 + 0.3/z + z`` at ``z = e^{ik}``.  The
    constant ``c0`` makes ``D(z1) = -D(z0)`` at ``z0, z1 = e^{2 pi i j /
    grid}, e^{2 pi i (j + 1) / grid}``, and D winds once over a zone.
    """
    z0, z1 = np.exp(2j * np.pi * np.array([j, j + 1]) / grid)
    c0 = -(0.3 * (1 / z0 + 1 / z1) + (z0 + z1) + 0.32) / 2
    return BlochModel([[0, 0], [0.3, 0]], [[0.4, 1], [c0, -0.4]],
                      [[0, 0], [1, 0]], label=f"tie@{grid}")


# Name -> factory.  The last four raise on the loop at grid 256: a
# right-angle tie of the splitting, an exceptional point on the grid, a
# scalar sample and a constant model.
MODELS = {
    "lee()": lee,
    "lee(.7,.5,0)": lambda: lee(.7, .5, 0),
    "lee(.6,.4,.5)": lambda: lee(.6, .4, .5),
    "lee(.9,.5,1.2)": lambda: lee(.9, .5, 1.2),
    "lee(.3,.5,0)": lambda: lee(.3, .5, 0),
    "lee(.3,.5,.3)": lambda: lee(.3, .5, .3),
    "lee(.8,.5,3)": lambda: lee(.8, .5, 3),
    "lee(.55,.5,.2)": lambda: lee(.55, .5, .2),
    "demo()": demo,
    "lee()+diag(.37,.37)": lambda: _shifted(np.diag([.37, .37]),
                                            "lee()+diag(.37,.37)"),
    "lee()+diag(.8,.15)": lambda: _shifted(np.diag([.8, .15]),
                                           "lee()+diag(.8,.15)"),
    "tie@256": lambda: _right_angle_tie(256, 66),
    "lee(.75,.5,.5)": lambda: lee(.75, .5, .5),
    "scalar_at_0": _scalar_at_zero,
    "diag(1,-1)": lambda: BlochModel(np.zeros((2, 2)), np.diag([1.0, -1.0]),
                                     np.zeros((2, 2)), label="diag(1,-1)"),
}


def cli_commands() -> list[tuple[str, ...]]:
    """The benchmark's ``CLI_COMMANDS``, the README's example commands
    and ``EXTRA_ARGVS``, in that order."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    bench = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "CLI_COMMANDS")
    readme = [tuple(shlex.split(line)[1:])
              for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("nhwind ")]
    return [*bench, *readme, *EXTRA_ARGVS]


class _Sweep:
    """Collects one outcome per ``(quantity, case)``."""

    def __init__(self):
        self.results: dict[str, dict[str, object]] = {}
        self.grids: dict[tuple[str, str], int] = {}

    def run(self, quantity: str, case: str, call, grid: int | None = None):
        """Record ``call()``'s fields, or the error it raised, and return
        its result (``None`` after an error)."""
        try:
            result = call()
            outcome = _fields(result)
        except Exception as exc:  # every refusal is a result here
            result = None
            outcome = {"error": type(exc).__name__, "message": str(exc)}
        self.results.setdefault(quantity, {})[case] = outcome
        if grid is not None:
            self.grids[quantity, case] = grid
        return result


def _fields(result) -> dict:
    """The data of a result by name: a record's fields (its model
    omitted) or ``{"value": result}``."""
    if dataclasses.is_dataclass(result):
        return {f.name: getattr(result, f.name)
                for f in dataclasses.fields(result) if f.name != "model"}
    return {"value": result}


def _loops(sweep: _Sweep, name: str, model: BlochModel, grids) -> None:
    for gauge in Gauge:
        for grid in grids:
            where = f"{name}|{gauge.value}|{grid}"
            for band in BANDS:
                case = f"{where}|{band:+d}"
                traj = sweep.run("loop_period", case, lambda: loop_period(
                    model, grid, gauge, band), grid)
                if traj is not None:
                    sweep.run("berry_phase[analytic]", case,
                              lambda: berry_phase(traj))
                sweep.run("band_winding[analytic]", case,
                          lambda: band_winding(model, band, gauge, grid))
            sweep.run("split_check[analytic]", where,
                      lambda: split_check(model, gauge, grid))
            sweep.run("winding_report[analytic]", where,
                      lambda: winding_report(model, gauge, grid, 2.0,
                                             with_bands=True))
        for k in EIG2_MOMENTA:
            sweep.run("eig2", f"{name}|{gauge.value}|{k!r}",
                      lambda: eig2(hk(model, k), gauge))


def _chains(sweep: _Sweep, name: str, model: BlochModel) -> None:
    for bc in Boundary:
        for n in CHAIN_CELLS:
            case = f"{name}|{bc.value}|{n}"
            sweep.run("chain_spectrum[left]", case,
                      lambda: chain_spectrum(model, n, bc, with_left=True))
            spectrum = sweep.run("chain_spectrum", case,
                                 lambda: chain_spectrum(model, n, bc))
            for side in ("right", "left") if spectrum is not None else ():
                sweep.run(f"localization_profile[{side}]", case,
                          lambda: localization_profile(spectrum, side))


def _cli(sweep: _Sweep, argvs) -> None:
    """Run each argv in a fresh process on the ``nhwind`` imported here."""
    env = dict(os.environ)
    src = str(Path(nhwind.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "nhwind.cli", *argv],
                              capture_output=True, env=env, check=False)
        sweep.results.setdefault("cli", {})[shlex.join(argv)] = {
            "exit": done.returncode, "stdout": _output(done.stdout),
            "stderr": _output(done.stderr)}


def _output(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "len": len(data)}


def _encode(value, full: bool):
    """JSON form of one value; ``full=False`` stores arrays by hash."""
    if isinstance(value, enum.Enum):
        value = value.value
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"f": float(value).hex()}
    if isinstance(value, (complex, np.complexfloating)):
        return {"c": [float(value.real).hex(), float(value.imag).hex()]}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, value.dtype.newbyteorder("<"))
        out = {"dtype": data.dtype.str, "shape": list(data.shape)}
        raw = data.tobytes()
        if full:
            out["b64"] = base64.b64encode(raw).decode("ascii")
        else:
            out["sha256"] = hashlib.sha256(raw).hexdigest()
        return out
    if isinstance(value, (tuple, list)):
        return [_encode(item, full) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item, full) for key, item in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__}")


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_array_bytes(item) for item in value.values())
    return 0


def sweep(models=tuple(MODELS), grids=GRIDS, argvs=None) -> dict:
    """Run the sweep over the named ``models`` and ``grids`` and the
    command lines ``argvs`` (default :func:`cli_commands`); return the
    digest as a JSON-ready dict."""
    s = _Sweep()
    for name in models:
        model = MODELS[name]()
        _loops(s, name, model, grids)
        _chains(s, name, model)
    _cli(s, cli_commands() if argvs is None else argvs)
    total = sum(_array_bytes(o) for cases in s.results.values()
                for o in cases.values())
    hashed = 4 * total // 3 > MAX_ARRAY_BYTES
    return {quantity: {case: _encode(outcome, not (
        hashed and s.grids.get((quantity, case), 0) > 256))
        for case, outcome in cases.items()}
        for quantity, cases in s.results.items()}


def dumps(digest: dict) -> str:
    return json.dumps(digest, sort_keys=True) + "\n"


def _decode(leaf):
    """A numeric leaf as a complex ndarray, or ``None`` if it has no
    numbers to compare (a hash, a string, an exit code)."""
    if isinstance(leaf, dict) and "f" in leaf:
        return np.array([float.fromhex(leaf["f"])], dtype=complex)
    if isinstance(leaf, dict) and "c" in leaf:
        re, im = (float.fromhex(x) for x in leaf["c"])
        return np.array([complex(re, im)])
    if isinstance(leaf, dict) and "b64" in leaf:
        raw = base64.b64decode(leaf["b64"])
        return np.frombuffer(raw, dtype=leaf["dtype"]).astype(complex)
    return None


def _move(old, new):
    """``(largest absolute move, largest relative move)`` between two
    encoded values, or ``None`` when they differ in anything other than
    numbers (a shape, a string, a hash, an integer)."""
    if isinstance(old, list) and isinstance(new, list) and (
            len(old) == len(new)):
        moves = [_move(a, b) for a, b in zip(old, new)]
        if any(m is None for m in moves):
            return None
        return (max((m[0] for m in moves), default=0.0),
                max((m[1] for m in moves), default=0.0))
    if old == new:
        return 0.0, 0.0
    a, b = _decode(old), _decode(new)
    if a is None or b is None or a.shape != b.shape:
        return None
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, diff / np.abs(a))
    diff, rel = (np.nan_to_num(x, nan=np.inf, posinf=np.inf)
                 for x in (diff, rel))
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def _diffs(a, b):
    """``(field, old, new)`` for each field in which two outcomes of one
    case differ; field ``None`` stands for the whole outcome when either
    side raised, is missing or records other fields."""
    if a is None or b is None or "error" in a or "error" in b or (
            set(a) != set(b)):
        return [(None, a, b)] if a != b else []
    return [(field, a[field], b[field]) for field in a
            if a[field] != b[field]]


def compare(old: dict, new: dict) -> tuple[str, bool]:
    """The comparison table of two digests, and whether they are
    identical.

    One row per quantity: its case count, how many of them raised, and
    "identical" or the cases that moved (with the fields that moved and
    the largest absolute and relative move, ``inf`` for a move away
    from an exact 0) and that changed in more than numbers.  Below the
    table, one line per quantity names the cases that moved (at most
    ``MOVED_CASES_SHOWN`` of them), and each changed case gets a line.
    """
    lines = [f"{'quantity':28s} {'cases':>5s} {'raised':>6s}  result"]
    listed, notes, same = [], [], True
    for quantity in sorted(set(old) | set(new)):
        before, after = old.get(quantity, {}), new.get(quantity, {})
        cases = sorted(set(before) | set(after))
        raised = sum("error" in (before.get(c) or after[c]) for c in cases)
        moved_cases, changed, fields, worst = [], 0, set(), (0.0, 0.0)
        for case in cases:
            diffs = _diffs(before.get(case), after.get(case))
            moves = [(field, _move(a, b)) for field, a, b in diffs]
            for (field, a, b), (_, move) in zip(diffs, moves):
                if move is None:
                    where = case if field is None else f"{case} {field}"
                    notes.append(f"{quantity} | {where}: {_brief(a)} -> "
                                 f"{_brief(b)}")
                else:
                    fields.add(field)
                    worst = (max(worst[0], move[0]), max(worst[1], move[1]))
            changed += any(move is None for _, move in moves)
            if any(move is not None for _, move in moves):
                moved_cases.append(case)
        moved = len(moved_cases)
        if moved:
            more = moved - MOVED_CASES_SHOWN
            listed.append(f"moved in {quantity}: "
                          f"{', '.join(moved_cases[:MOVED_CASES_SHOWN])}"
                          f"{f' and {more} more' if more > 0 else ''}")
        same = same and not (moved or changed)
        parts = []
        if moved:
            parts.append(f"{moved} moved ({', '.join(sorted(fields))}), "
                         f"max abs {worst[0]:.3g}, max rel {worst[1]:.3g}")
        if changed:
            parts.append(f"{changed} changed")
        lines.append(f"{quantity:28s} {len(cases):5d} {raised:6d}  "
                     f"{'; '.join(parts) or 'identical'}")
    return "\n".join(lines + listed + notes) + "\n", same


def _brief(leaf) -> str:
    """One line for a value that changed in more than its numbers."""
    if leaf is None:
        return "missing"
    if isinstance(leaf, dict) and "error" in leaf:
        return f"{leaf['error']}: {leaf['message']}"
    if isinstance(leaf, dict) and "len" in leaf:
        return f"{leaf['len']} bytes, sha256 {leaf['sha256'][:12]}"
    text = json.dumps(leaf, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="path of the digest this sweep writes")
    parser.add_argument("--against", default=None,
                        help="older digest to compare with")
    args = parser.parse_args(argv)
    digest = sweep()
    Path(args.out).write_text(dumps(digest))
    if args.against is None:
        return 0
    text, same = compare(json.loads(Path(args.against).read_text()), digest)
    sys.stdout.write(text)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
